//! The ActiveIter driver — the hierarchical alternating optimization of
//! §III-D with active label querying.
//!
//! ```text
//! repeat (external round):
//!   repeat (internal):                      — fix U_q
//!     (1-1)  w ← c (I + c XᵀX)⁻¹ Xᵀ y       — fix y, update w
//!     (1-2)  y ← greedy(ŷ = Xw)             — fix w, update y (½-approx IP)
//!   until Δy = ‖yᵢ − yᵢ₋₁‖₁ = 0 or max_inner
//!   (2)    U_q ← U_q ∪ top-k query candidates; labels from the oracle
//! until budget spent (b/k rounds)
//! ```
//!
//! Per-round Δy traces feed Figure 3 (convergence); wall-clock totals feed
//! Figure 4 (scalability). Iter-MPMD is the zero-budget special case.

use crate::config::ModelConfig;
use crate::driver::ActiveLoop;
use crate::instance::AlignmentInstance;
use crate::oracle::Oracle;
use crate::query::{ConflictQuery, QueryStrategy, RandomQuery};
use std::time::Duration;

/// Inner-loop convergence trace of one external round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// `Δy = ‖yᵢ − yᵢ₋₁‖₁` per internal iteration (Fig. 3's y-axis).
    pub deltas: Vec<f64>,
}

/// Everything a fit produces.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Final binary labels per candidate.
    pub labels: Vec<f64>,
    /// Final scores `ŷ = Xw` per candidate.
    pub scores: Vec<f64>,
    /// Final weight vector (bias last).
    pub weights: Vec<f64>,
    /// Queried candidates with oracle answers, in query order.
    pub queried: Vec<(usize, bool)>,
    /// Convergence traces, one per external round (+1 trailing round after
    /// the final queries).
    pub rounds: Vec<RoundTrace>,
    /// Wall-clock fit time (Fig. 4).
    pub elapsed: Duration,
}

impl FitReport {
    /// Indices predicted positive.
    pub fn positives(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
            .filter(|(_, &l)| l == 1.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total internal iterations across all rounds.
    pub fn total_inner_iterations(&self) -> usize {
        self.rounds.iter().map(|r| r.deltas.len()).sum()
    }
}

/// The ActiveIter model: configuration plus a query strategy.
pub struct ActiveIterModel {
    /// Hyperparameters.
    pub config: ModelConfig,
    strategy: Box<dyn QueryStrategy>,
}

impl std::fmt::Debug for ActiveIterModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveIterModel")
            .field("config", &self.config)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl ActiveIterModel {
    /// Model with an explicit strategy.
    pub fn new(config: ModelConfig, strategy: Box<dyn QueryStrategy>) -> Self {
        config.validate();
        ActiveIterModel { config, strategy }
    }

    /// The paper's **ActiveIter-b**: conflict query strategy, defaults.
    pub fn paper(budget: usize) -> Self {
        let config = ModelConfig::with_budget(budget);
        let strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
        Self::new(config, Box::new(strategy))
    }

    /// The paper's **ActiveIter-Rand-b** baseline.
    pub fn random(budget: usize, seed: u64) -> Self {
        let config = ModelConfig {
            budget,
            seed,
            ..Default::default()
        };
        Self::new(config.clone(), Box::new(RandomQuery::new(config.seed)))
    }

    /// Strategy name (reports).
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Runs the full alternating optimization against `oracle`.
    ///
    /// This is a thin wrapper over [`ActiveLoop`] (the resumable round
    /// driver): converge, select queries, apply the oracle's answers,
    /// repeat until the budget is spent or the candidate set runs dry. The
    /// stepwise drive is bit-identical to what this one-shot call produces
    /// — callers that need to interleave work between rounds (e.g. the
    /// session API refreshing features after anchor updates) use the
    /// driver directly.
    ///
    /// # Panics
    /// Panics on an empty instance — harness error.
    pub fn fit(&mut self, inst: &AlignmentInstance, oracle: &dyn Oracle) -> FitReport {
        assert!(!inst.is_empty(), "cannot fit an empty instance");
        // Borrowed: the one-shot path never refreshes features, so the
        // instance (and its dense X) is never copied.
        ActiveLoop::borrowed(inst, self.config.clone()).run(self.strategy.as_mut(), oracle)
    }
}

/// **Iter-MPMD** (Zhang et al. WSDM'17 + meta diagram features): the same
/// PU iterative model with no query step.
pub fn iter_mpmd(inst: &AlignmentInstance, config: &ModelConfig) -> FitReport {
    let mut model = ActiveIterModel::new(
        ModelConfig {
            budget: 0,
            ..config.clone()
        },
        Box::new(ConflictQuery::new(config.similar_tau, config.margin_delta)),
    );
    // The oracle is never consulted at budget 0.
    let dummy = crate::oracle::VecOracle::new(vec![false; inst.len()]);
    model.fit(inst, &dummy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::VecOracle;
    use hetnet::UserId;
    use sparsela::DenseMatrix;

    /// A 6-candidate world with a planted near-miss false negative:
    ///
    /// * candidates 0, 1: labeled positives with strong features;
    /// * candidate 2: TRUE but unlabeled, features inside the labeled
    ///   positives' region (should be discovered by the PU iteration — the
    ///   regression cannot fit 1 at the labeled points and 0 at candidate 2
    ///   simultaneously, so its score is pulled above the threshold);
    /// * candidate 3: FALSE, conflicts with 2 via the right user;
    /// * candidate 4: TRUE but unlabeled with features very close to 3 —
    ///   the interesting query target;
    /// * candidate 5: FALSE, clearly negative.
    ///
    /// Tests use `c = 25` (mild regularization): with only six rows the
    /// paper's `c = 1` shrinks all scores below the 0.5 acceptance
    /// threshold; at experiment scale `XᵀX` dominates `I` and `c = 1`
    /// behaves like least squares.
    fn fixture() -> (AlignmentInstance, Vec<bool>) {
        let candidates = vec![
            (UserId(0), UserId(0)), // labeled +
            (UserId(1), UserId(1)), // labeled +
            (UserId(2), UserId(2)), // true, unlabeled
            (UserId(3), UserId(2)), // false (conflicts with 2 on right user 2)
            (UserId(3), UserId(3)), // true, unlabeled (conflicts with 3 on left)
            (UserId(4), UserId(5)), // false
        ];
        let x = DenseMatrix::from_rows(
            6,
            2,
            vec![
                0.95, 0.90, //
                0.90, 0.85, //
                0.92, 0.88, //
                0.60, 0.55, //
                0.58, 0.57, //
                0.05, 0.10,
            ],
        );
        let inst = AlignmentInstance::new(candidates, &x, vec![0, 1]);
        let truth = vec![true, true, true, false, true, false];
        (inst, truth)
    }

    fn rand_model(budget: usize, seed: u64) -> ActiveIterModel {
        let cfg = ModelConfig {
            budget,
            seed,
            ..test_config()
        };
        ActiveIterModel::new(cfg, Box::new(RandomQuery::new(seed)))
    }

    fn test_config() -> ModelConfig {
        ModelConfig {
            c: 25.0,
            ..Default::default()
        }
    }

    #[test]
    fn iter_mpmd_finds_strong_unlabeled_positive() {
        let (inst, _) = fixture();
        let report = iter_mpmd(&inst, &test_config());
        assert_eq!(report.labels[0], 1.0);
        assert_eq!(report.labels[1], 1.0);
        assert_eq!(report.labels[2], 1.0, "strong unlabeled positive found");
        assert_eq!(report.labels[5], 0.0, "weak candidate stays negative");
        assert!(report.queried.is_empty());
    }

    #[test]
    fn inner_loop_converges_to_zero_delta() {
        let (inst, _) = fixture();
        let report = iter_mpmd(&inst, &test_config());
        let last_round = report.rounds.last().unwrap();
        assert_eq!(*last_round.deltas.last().unwrap(), 0.0);
        assert!(report.total_inner_iterations() <= 15);
    }

    #[test]
    fn one_to_one_constraint_holds_in_output() {
        let (inst, truth) = fixture();
        let cfg = ModelConfig {
            budget: 4,
            ..test_config()
        };
        let strategy = ConflictQuery::new(cfg.similar_tau, cfg.margin_delta);
        let mut model = ActiveIterModel::new(cfg, Box::new(strategy));
        let report = model.fit(&inst, &VecOracle::new(truth));
        let mut left = std::collections::HashSet::new();
        let mut right = std::collections::HashSet::new();
        for (i, &l) in report.labels.iter().enumerate() {
            if l == 1.0 {
                assert!(left.insert(inst.candidates[i].0), "left degree > 1");
                assert!(right.insert(inst.candidates[i].1), "right degree > 1");
            }
        }
    }

    #[test]
    fn budget_is_respected_and_accounted() {
        let (inst, truth) = fixture();
        let oracle = VecOracle::new(truth);
        let mut model = rand_model(3, 42);
        let report = model.fit(&inst, &oracle);
        assert!(report.queried.len() <= 3);
        assert_eq!(oracle.queries_answered(), report.queried.len());
    }

    #[test]
    fn queries_never_touch_labeled_positives() {
        let (inst, truth) = fixture();
        let mut model = rand_model(6, 1);
        let report = model.fit(&inst, &VecOracle::new(truth));
        for (idx, _) in &report.queried {
            assert!(!inst.labeled_pos.contains(idx));
        }
    }

    #[test]
    fn queried_positive_becomes_fixed_label() {
        let (inst, truth) = fixture();
        let mut model = rand_model(6, 3);
        let report = model.fit(&inst, &VecOracle::new(truth.clone()));
        for &(idx, ans) in &report.queried {
            assert_eq!(report.labels[idx] == 1.0, ans, "queried label is final");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (inst, truth) = fixture();
        let r1 = rand_model(4, 9).fit(&inst, &VecOracle::new(truth.clone()));
        let r2 = rand_model(4, 9).fit(&inst, &VecOracle::new(truth));
        assert_eq!(r1.labels, r2.labels);
        assert_eq!(r1.queried, r2.queried);
    }

    #[test]
    fn zero_budget_runs_exactly_one_round() {
        let (inst, _) = fixture();
        let report = iter_mpmd(&inst, &test_config());
        assert_eq!(report.rounds.len(), 1);
    }

    #[test]
    fn positives_accessor_matches_labels() {
        let (inst, _) = fixture();
        let report = iter_mpmd(&inst, &test_config());
        for i in report.positives() {
            assert_eq!(report.labels[i], 1.0);
        }
    }

    /// With a single labeled positive, its first-iteration score is exactly
    /// its own leverage, so the corrected calibration mean degenerates to 0.
    /// That must fall back to the conservative default threshold rather
    /// than `f64::EPSILON` (which would accept every positive-scoring
    /// candidate and let self-training reinforce the flood).
    #[test]
    fn degenerate_calibration_mean_does_not_flood_acceptance() {
        let candidates: Vec<_> = (0..6).map(|i| (UserId(i), UserId(i))).collect();
        // One labeled positive with mid features; everything else similar
        // but weaker — nothing here justifies accepting the whole set.
        let x = DenseMatrix::from_rows(
            6,
            2,
            vec![
                0.5, 0.5, //
                0.3, 0.3, //
                0.3, 0.2, //
                0.2, 0.3, //
                0.2, 0.2, //
                0.1, 0.1,
            ],
        );
        let inst = AlignmentInstance::new(candidates, &x, vec![0]);
        let report = iter_mpmd(&inst, &test_config());
        let accepted = report.labels.iter().filter(|&&l| l == 1.0).count();
        assert!(
            accepted < inst.len(),
            "all {} candidates accepted — degenerate threshold flood",
            inst.len()
        );
    }

    #[test]
    #[should_panic(expected = "empty instance")]
    fn empty_instance_panics() {
        let inst = AlignmentInstance::new(vec![], &DenseMatrix::zeros(0, 2), vec![]);
        let mut m = ActiveIterModel::paper(0);
        m.fit(&inst, &VecOracle::new(vec![]));
    }
}
