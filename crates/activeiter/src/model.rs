//! What one ActiveIter fit produces: the final labels, scores and weights,
//! the queried links, and per-round Δy traces (Figure 3's convergence) with
//! the wall-clock total (Figure 4's scalability). [`ActiveLoop::run`]
//! returns it; see the [`driver`](crate::driver) for the optimization.
//!
//! [`ActiveLoop::run`]: crate::driver::ActiveLoop::run

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::driver::ActiveLoop;
    use crate::instance::AlignmentInstance;
    use crate::oracle::{Oracle, VecOracle};
    use crate::query::{ConflictQuery, RandomQuery};
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

    /// Iter-MPMD: the loop at budget 0, so the oracle is never consulted.
    fn zero_budget_fit(inst: &AlignmentInstance, config: &ModelConfig) -> FitReport {
        let cfg = ModelConfig {
            budget: 0,
            ..config.clone()
        };
        let mut strategy = ConflictQuery::new(cfg.similar_tau, cfg.margin_delta);
        let oracle = VecOracle::new(vec![false; inst.len()]);
        ActiveLoop::new(inst.clone(), cfg).run(&mut strategy, &oracle)
    }

    /// ActiveIter-Rand: random queries under `budget`, seeded by `seed`.
    fn rand_fit(
        budget: usize,
        seed: u64,
        inst: &AlignmentInstance,
        oracle: &dyn Oracle,
    ) -> FitReport {
        let cfg = ModelConfig {
            budget,
            seed,
            ..test_config()
        };
        ActiveLoop::new(inst.clone(), cfg).run(&mut RandomQuery::new(seed), oracle)
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
        let report = zero_budget_fit(&inst, &test_config());
        assert_eq!(report.labels[0], 1.0);
        assert_eq!(report.labels[1], 1.0);
        assert_eq!(report.labels[2], 1.0, "strong unlabeled positive found");
        assert_eq!(report.labels[5], 0.0, "weak candidate stays negative");
        assert!(report.queried.is_empty());
    }

    #[test]
    fn inner_loop_converges_to_zero_delta() {
        let (inst, _) = fixture();
        let report = zero_budget_fit(&inst, &test_config());
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
        let mut strategy = ConflictQuery::new(cfg.similar_tau, cfg.margin_delta);
        let report = ActiveLoop::new(inst.clone(), cfg).run(&mut strategy, &VecOracle::new(truth));
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
        let report = rand_fit(3, 42, &inst, &oracle);
        assert!(report.queried.len() <= 3);
        assert_eq!(oracle.queries_answered(), report.queried.len());
    }

    #[test]
    fn queries_never_touch_labeled_positives() {
        let (inst, truth) = fixture();
        let report = rand_fit(6, 1, &inst, &VecOracle::new(truth));
        for (idx, _) in &report.queried {
            assert!(!inst.labeled_pos.contains(idx));
        }
    }

    #[test]
    fn queried_positive_becomes_fixed_label() {
        let (inst, truth) = fixture();
        let report = rand_fit(6, 3, &inst, &VecOracle::new(truth.clone()));
        for &(idx, ans) in &report.queried {
            assert_eq!(report.labels[idx] == 1.0, ans, "queried label is final");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (inst, truth) = fixture();
        let r1 = rand_fit(4, 9, &inst, &VecOracle::new(truth.clone()));
        let r2 = rand_fit(4, 9, &inst, &VecOracle::new(truth));
        assert_eq!(r1.labels, r2.labels);
        assert_eq!(r1.queried, r2.queried);
    }

    #[test]
    fn zero_budget_runs_exactly_one_round() {
        let (inst, _) = fixture();
        let report = zero_budget_fit(&inst, &test_config());
        assert_eq!(report.rounds.len(), 1);
    }

    #[test]
    fn positives_accessor_matches_labels() {
        let (inst, _) = fixture();
        let report = zero_budget_fit(&inst, &test_config());
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
        let report = zero_budget_fit(&inst, &test_config());
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
        ActiveLoop::new(
            inst,
            ModelConfig {
                budget: 0,
                ..Default::default()
            },
        );
    }
}
