//! The ActiveIter round driver — the hierarchical alternating optimization
//! of §III-D with active label querying.
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
//! Iter-MPMD is the zero-budget special case. The active loop is
//! inherently incremental: each external round confirms a few anchor links,
//! and a caller that re-derives features from the grown anchor set (the
//! session API) needs to take over between rounds. [`ActiveLoop`] exposes
//! exactly those seams:
//!
//! * [`ActiveLoop::converge`] — one internal (1-1)/(1-2) fixed-point pass;
//! * [`ActiveLoop::select_queries`] / [`ActiveLoop::apply_answer`] — the
//!   external query step, with the oracle kept outside;
//! * [`ActiveLoop::replace_features`] — swap in refreshed features (the
//!   ridge factorization is rebuilt; labels, fixed sets and budget carry
//!   over);
//! * [`ActiveLoop::finish`] — the final [`FitReport`].
//!
//! [`ActiveLoop::run`] drives those seams to completion against a fixed
//! feature matrix. Every fixed-feature fit in the workspace calls it, so
//! the one-shot path and the session-driven path run the very same
//! arithmetic — a fit driven step by step (without feature refreshes) is
//! bit-identical to `run`.

use crate::config::{AcceptRule, ModelConfig};
use crate::greedy::greedy_select;
use crate::instance::{with_bias, AlignmentInstance};
use crate::model::{FitReport, RoundTrace};
use crate::oracle::Oracle;
use crate::query::{QueryContext, QueryStrategy};
use sparsela::dense::l1_distance;
use sparsela::{DenseMatrix, RidgeSolver};
use std::time::Instant;

/// The state machine of one ActiveIter optimization.
///
/// Holds the instance (candidates + features + labeled set) and owns every
/// loop artifact: the ridge factorization, current labels/scores/weights,
/// the fixed positive/negative sets, the query budget and the convergence
/// traces. See the [module docs](self) for the driving protocol.
#[derive(Debug)]
pub struct ActiveLoop {
    config: ModelConfig,
    inst: AlignmentInstance,
    solver: RidgeSolver,
    /// Memoized leverages `S_ii`; invalidated on feature replacement.
    leverages: Vec<Option<f64>>,
    y: Vec<f64>,
    fixed_pos: Vec<usize>,
    fixed_neg: Vec<usize>,
    queryable: Vec<bool>,
    remaining: usize,
    queried: Vec<(usize, bool)>,
    rounds: Vec<RoundTrace>,
    scores: Vec<f64>,
    weights: Vec<f64>,
    threshold: f64,
    positive_scale: f64,
    start: Instant,
}

impl ActiveLoop {
    /// Starts a loop over `inst` (bias column already appended, as built
    /// by [`AlignmentInstance::new`]).
    ///
    /// # Panics
    /// Panics on an empty instance or an invalid config — harness errors.
    pub fn new(inst: AlignmentInstance, config: ModelConfig) -> ActiveLoop {
        assert!(!inst.is_empty(), "cannot fit an empty instance");
        config.validate();
        let start = Instant::now();
        let solver = RidgeSolver::new(&inst.features, config.c)
            .expect("ridge normal matrix is SPD for finite features and c > 0");
        let n = inst.len();
        let mut y = vec![0.0; n];
        let mut queryable = vec![true; n];
        for &i in &inst.labeled_pos {
            y[i] = 1.0;
            queryable[i] = false;
        }
        let fixed_pos = inst.labeled_pos.clone();
        let remaining = config.budget;
        let dim = inst.dim();
        ActiveLoop {
            config,
            solver,
            leverages: vec![None; n],
            y,
            fixed_pos,
            fixed_neg: Vec::new(),
            queryable,
            remaining,
            queried: Vec::new(),
            rounds: Vec::new(),
            scores: vec![0.0; n],
            weights: vec![0.0; dim],
            threshold: 0.5,
            positive_scale: 1.0,
            start,
            inst,
        }
    }

    /// The instance the loop currently optimizes over.
    pub fn instance(&self) -> &AlignmentInstance {
        &self.inst
    }

    /// Query budget still available.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Queries answered so far, in query order.
    pub fn queried(&self) -> &[(usize, bool)] {
        &self.queried
    }

    /// Leverage `S_ii` of candidate `i`, memoized (see
    /// [`sparsela::RidgeSolver::leverage`]).
    fn leverage(&mut self, i: usize) -> f64 {
        *self.leverages[i].get_or_insert_with(|| self.solver.leverage(&self.inst.features, i))
    }

    /// Runs the internal (1-1)/(1-2) loop until the labels stabilize (or
    /// `max_inner_iters`), recording a [`RoundTrace`].
    pub fn converge(&mut self) {
        let mut deltas = Vec::new();
        for _ in 0..self.config.max_inner_iters {
            self.weights = self.solver.solve(&self.inst.features, &self.y);
            self.scores = self.inst.features.matvec(&self.weights);
            // Calibrate the threshold and scale on the fixed positives'
            // *as-if-unlabeled* scores `ŷᵢ − Sᵢᵢ` (supervision inflates a
            // fixed positive's raw fitted score, and the inflation grows
            // with the training set), falling back to the raw positive
            // mean when the corrected mean degenerates to ≤ 0. Leverages
            // are memoized first so the mean folds without allocating in
            // this innermost loop.
            for k in 0..self.fixed_pos.len() {
                let i = self.fixed_pos[k];
                self.leverage(i);
            }
            let pos_mean = calibration_mean(
                self.fixed_pos
                    .iter()
                    .map(|&i| self.scores[i] - self.leverages[i].expect("memoized above")),
            )
            .or_else(|| calibration_mean(self.fixed_pos.iter().map(|&i| self.scores[i])));
            self.threshold = effective_threshold(self.config.accept_rule, pos_mean);
            self.positive_scale = pos_mean.unwrap_or(1.0);
            let sel = greedy_select(
                &self.scores,
                &self.inst.candidates,
                &self.fixed_pos,
                &self.fixed_neg,
                self.threshold,
            );
            let delta = l1_distance(&sel.labels, &self.y);
            self.y = sel.labels;
            deltas.push(delta);
            // srclint: allow(float_eq, reason = "labels are exact 0/1 sentinels, so the L1 delta is exactly 0.0 iff no label flipped")
            if delta == 0.0 {
                break;
            }
        }
        self.rounds.push(RoundTrace { deltas });
    }

    /// External step (2): asks `strategy` for up to
    /// `min(query_batch, remaining)` queryable candidates. Returns an empty
    /// selection when the budget is spent or the candidate set has run dry
    /// (the paper surrenders unused budget in that case).
    pub fn select_queries(&mut self, strategy: &mut dyn QueryStrategy) -> Vec<usize> {
        if self.remaining == 0 {
            return Vec::new();
        }
        let ctx = QueryContext {
            scores: &self.scores,
            labels: &self.y,
            candidates: &self.inst.candidates,
            queryable: &self.queryable,
            threshold: self.threshold,
            positive_scale: self.positive_scale,
            batch: self.config.query_batch.min(self.remaining),
        };
        strategy.select(&ctx)
    }

    /// Records one oracle answer: the candidate's label is fixed, its
    /// budget slot is consumed, and it can never be queried again.
    ///
    /// # Panics
    /// Panics when `idx` is not queryable or the budget is exhausted —
    /// drivers must only apply answers for fresh
    /// [`ActiveLoop::select_queries`] selections.
    pub fn apply_answer(&mut self, idx: usize, answer: bool) {
        assert!(self.queryable[idx], "candidate {idx} is not queryable");
        assert!(self.remaining > 0, "query budget exhausted");
        self.queried.push((idx, answer));
        self.queryable[idx] = false;
        self.remaining -= 1;
        if answer {
            self.fixed_pos.push(idx);
            self.y[idx] = 1.0;
        } else {
            self.fixed_neg.push(idx);
            self.y[idx] = 0.0;
        }
    }

    /// Swaps in a refreshed raw feature matrix (bias appended here, as in
    /// [`AlignmentInstance::new`]) — the session API calls this after an
    /// anchor update changed the proximity features. The ridge
    /// factorization and leverage memos are rebuilt; labels, fixed sets,
    /// budget and traces carry over unchanged.
    ///
    /// # Panics
    /// Panics when the row count disagrees with the candidate set — feature
    /// refreshes must describe the same candidates.
    pub fn replace_features(&mut self, raw_features: &DenseMatrix) {
        assert_eq!(
            raw_features.nrows(),
            self.inst.candidates.len(),
            "one feature row per candidate"
        );
        self.inst.features = with_bias(raw_features);
        self.solver = RidgeSolver::new(&self.inst.features, self.config.c)
            .expect("ridge normal matrix is SPD for finite features and c > 0");
        self.leverages = vec![None; self.inst.len()];
        self.weights = vec![0.0; self.inst.dim()];
    }

    /// Drives the loop to completion over its current features: converge,
    /// then query `strategy` and apply `oracle`'s answers, until the budget
    /// is spent or the strategy finds no qualifying candidate (the paper
    /// surrenders unused budget then, as the candidate set `C` can run
    /// dry). Returns the final [`FitReport`]. Callers that refresh features
    /// between rounds step the loop by hand instead.
    pub fn run(mut self, strategy: &mut dyn QueryStrategy, oracle: &dyn Oracle) -> FitReport {
        loop {
            // Internal loop: (1-1) then (1-2) until the labels stabilize.
            self.converge();
            // External step (2): query, unless the budget is spent.
            if self.remaining == 0 {
                break;
            }
            let selection = self.select_queries(strategy);
            if selection.is_empty() {
                break;
            }
            for idx in selection {
                self.apply_answer(idx, oracle.label(idx));
            }
        }
        self.finish()
    }

    /// Consumes the loop into its [`FitReport`].
    pub fn finish(self) -> FitReport {
        FitReport {
            labels: self.y,
            scores: self.scores,
            weights: self.weights,
            queried: self.queried,
            rounds: self.rounds,
            elapsed: self.start.elapsed(),
        }
    }
}

/// Mean of the known positives' leverage-corrected scores, for calibrating
/// the acceptance threshold and the query strategies' score scale.
///
/// `None` when the mean carries no usable scale information: no positive is
/// known yet, or the corrected mean is zero/negative (reachable — e.g. a
/// single labeled positive's first-iteration score is exactly its own
/// leverage, correcting to 0; a negative scale would silently invert the
/// query strategies' constants). Callers fall back to the same defaults as
/// the no-positives case.
pub(crate) fn calibration_mean(pos_scores: impl Iterator<Item = f64>) -> Option<f64> {
    let (sum, n) = pos_scores.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    (n > 0)
        .then(|| sum / n as f64)
        .filter(|&m| m > f64::EPSILON)
}

/// The acceptance threshold in effect for the current scores (see
/// [`AcceptRule`]): fixed, or α × the calibration mean with a `0.5`
/// fallback when no usable mean exists.
pub(crate) fn effective_threshold(rule: AcceptRule, pos_mean: Option<f64>) -> f64 {
    match rule {
        AcceptRule::Fixed(t) => t,
        AcceptRule::Relative { alpha } => match pos_mean {
            Some(mean) => (alpha * mean).max(f64::EPSILON),
            None => 0.5,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::VecOracle;
    use crate::query::ConflictQuery;
    use hetnet::UserId;

    fn fixture() -> (AlignmentInstance, Vec<bool>) {
        let candidates = vec![
            (UserId(0), UserId(0)),
            (UserId(1), UserId(1)),
            (UserId(2), UserId(2)),
            (UserId(3), UserId(2)),
            (UserId(3), UserId(3)),
            (UserId(4), UserId(5)),
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

    fn config(budget: usize) -> ModelConfig {
        ModelConfig {
            c: 25.0,
            budget,
            ..Default::default()
        }
    }

    /// Driving the loop step by step must replay [`ActiveLoop::run`]
    /// exactly (this pins the protocol: converge → select → apply,
    /// repeat).
    #[test]
    fn stepwise_drive_is_bit_identical_to_fit() {
        let (inst, truth) = fixture();
        let cfg = config(4);
        let mut strategy = ConflictQuery::new(cfg.similar_tau, cfg.margin_delta);
        let oracle = VecOracle::new(truth.clone());
        let mut drv = ActiveLoop::new(inst.clone(), cfg.clone());
        loop {
            drv.converge();
            if drv.remaining() == 0 {
                break;
            }
            let sel = drv.select_queries(&mut strategy);
            if sel.is_empty() {
                break;
            }
            for idx in sel {
                drv.apply_answer(idx, oracle.label(idx));
            }
        }
        let stepped = drv.finish();

        let mut strategy = ConflictQuery::new(cfg.similar_tau, cfg.margin_delta);
        let fitted = ActiveLoop::new(inst, cfg).run(&mut strategy, &VecOracle::new(truth));
        assert_eq!(stepped.labels, fitted.labels);
        assert_eq!(stepped.scores, fitted.scores);
        assert_eq!(stepped.weights, fitted.weights);
        assert_eq!(stepped.queried, fitted.queried);
        assert_eq!(
            stepped.rounds.len(),
            fitted.rounds.len(),
            "same number of external rounds"
        );
        for (a, b) in stepped.rounds.iter().zip(fitted.rounds.iter()) {
            assert_eq!(a.deltas, b.deltas);
        }
    }

    #[test]
    fn replace_features_rebuilds_the_solver_and_keeps_state() {
        let (inst, truth) = fixture();
        let mut drv = ActiveLoop::new(inst.clone(), config(4));
        drv.converge();
        drv.apply_answer(4, truth[4]);
        let queried_before = drv.queried().to_vec();
        let remaining_before = drv.remaining();

        // Shift every feature: scores must change, state must not.
        let shifted = DenseMatrix::from_rows(
            6,
            2,
            inst.features
                .data()
                .chunks(3)
                .flat_map(|row| [row[0] * 0.5, row[1] * 0.5])
                .collect::<Vec<f64>>(),
        );
        drv.replace_features(&shifted);
        assert_eq!(drv.queried(), queried_before.as_slice());
        assert_eq!(drv.remaining(), remaining_before);
        drv.converge();
        let report = drv.finish();
        // The queried positive stays fixed through the refresh.
        assert_eq!(report.labels[4], if truth[4] { 1.0 } else { 0.0 });
        assert_eq!(report.rounds.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not queryable")]
    fn double_answer_panics() {
        let (inst, _) = fixture();
        let mut drv = ActiveLoop::new(inst, config(4));
        drv.converge();
        drv.apply_answer(3, false);
        drv.apply_answer(3, true);
    }

    #[test]
    #[should_panic(expected = "one feature row per candidate")]
    fn replace_features_rejects_row_mismatch() {
        let (inst, _) = fixture();
        let mut drv = ActiveLoop::new(inst, config(0));
        drv.replace_features(&DenseMatrix::zeros(2, 2));
    }

    #[test]
    fn select_queries_is_empty_once_budget_is_spent() {
        let (inst, truth) = fixture();
        let cfg = config(1);
        let mut strategy = ConflictQuery::new(cfg.similar_tau, cfg.margin_delta);
        let mut drv = ActiveLoop::new(inst, cfg);
        drv.converge();
        let sel = drv.select_queries(&mut strategy);
        if let Some(&idx) = sel.first() {
            drv.apply_answer(idx, truth[idx]);
        }
        assert_eq!(drv.remaining(), if sel.is_empty() { 1 } else { 0 });
        if !sel.is_empty() {
            assert!(drv.select_queries(&mut strategy).is_empty());
        }
    }
}
