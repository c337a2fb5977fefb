//! Experiment orchestration: one (θ, γ, method) cell of the paper's tables.

use crate::methods::{Method, StrategyKind};
use crate::metrics::{summarize, Confusion, MetricSummary, Metrics};
use crate::sampling::LinkSet;
use activeiter::instance::with_bias;
use activeiter::model::FitReport;
use activeiter::query::{ConflictQuery, RandomQuery, TopScoreQuery, UncertaintyQuery};
use activeiter::svm::{SvmConfig, SvmModel};
use activeiter::{ModelConfig, QueryStrategy, VecOracle};
use datagen::GeneratedWorld;
use hetnet::AnchorLink;
use metadiagram::Threading;
use session::SessionBuilder;
use sparsela::{map_claimed, DenseMatrix};
use std::collections::HashSet;
use std::time::Duration;

/// One experiment cell's protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// NP-ratio θ: negatives per positive.
    pub np_ratio: usize,
    /// Sample-ratio γ ∈ (0, 1]: fraction of the training fold retained.
    pub sample_ratio: f64,
    /// Number of folds (10 in the paper).
    pub n_folds: usize,
    /// How many folds to rotate through as training fold (10 in the paper;
    /// fewer for the quick harness presets).
    pub rotations: usize,
    /// Master seed; every randomized step derives from it.
    pub seed: u64,
    /// Worker-thread budget shared by fold rotation and feature extraction;
    /// `0` means one worker per available hardware thread. Results are
    /// bit-identical at any setting.
    pub threads: usize,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            np_ratio: 10,
            sample_ratio: 0.6,
            n_folds: 10,
            rotations: 10,
            seed: 7,
            threads: 0,
        }
    }
}

/// Resolves a `threads` knob (0 = auto) to an effective worker count ≥ 1,
/// capped at the machine's available parallelism so that large sweeps never
/// oversubscribe the host.
pub fn effective_threads(threads: usize) -> usize {
    let hw = Threading::Auto.resolve();
    if threads == 0 {
        hw
    } else {
        threads.min(hw)
    }
}

impl ExperimentSpec {
    /// Paper cell at (θ, γ) with everything else default.
    pub fn cell(np_ratio: usize, sample_ratio: f64) -> Self {
        ExperimentSpec {
            np_ratio,
            sample_ratio,
            ..Default::default()
        }
    }

    /// Reduces fold rotations (quick presets for tests/examples).
    pub fn with_rotations(mut self, rotations: usize) -> Self {
        self.rotations = rotations;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the worker-thread budget (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Outcome of one fold rotation.
#[derive(Debug)]
pub struct FoldRun {
    /// Metrics over the test set (queried links excluded).
    pub metrics: Metrics,
    /// The model's fit report (None for the SVM baselines).
    pub report: Option<FitReport>,
    /// Training positives after γ sampling.
    pub n_train_pos: usize,
    /// Training negatives after γ sampling (SVM-visible only).
    pub n_train_neg: usize,
    /// Evaluated test links.
    pub n_test: usize,
    /// Wall-clock time of the model fit (feature extraction excluded).
    pub fit_time: Duration,
}

/// Aggregated cell result: `mean ± std` per metric over fold rotations.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// F1 summary.
    pub f1: MetricSummary,
    /// Precision summary.
    pub precision: MetricSummary,
    /// Recall summary.
    pub recall: MetricSummary,
    /// Accuracy summary.
    pub accuracy: MetricSummary,
    /// Raw per-fold metrics.
    pub per_fold: Vec<Metrics>,
}

impl CellResult {
    /// Summary by paper metric name.
    pub fn get(&self, name: &str) -> MetricSummary {
        match name {
            "F1" => self.f1,
            "Precision" => self.precision,
            "Recall" => self.recall,
            "Accuracy" => self.accuracy,
            other => panic!("unknown metric {other}"),
        }
    }

    fn from_folds(folds: &[Metrics]) -> CellResult {
        let take = |f: fn(&Metrics) -> f64| -> Vec<f64> { folds.iter().map(f).collect() };
        CellResult {
            f1: summarize(&take(|m| m.f1)),
            precision: summarize(&take(|m| m.precision)),
            recall: summarize(&take(|m| m.recall)),
            accuracy: summarize(&take(|m| m.accuracy)),
            per_fold: folds.to_vec(),
        }
    }
}

fn strategy_for(kind: StrategyKind, config: &ModelConfig) -> Box<dyn QueryStrategy> {
    match kind {
        StrategyKind::Conflict => {
            Box::new(ConflictQuery::new(config.similar_tau, config.margin_delta))
        }
        StrategyKind::Random => Box::new(RandomQuery::new(config.seed)),
        StrategyKind::Uncertainty => Box::new(UncertaintyQuery),
        StrategyKind::TopScore => Box::new(TopScoreQuery),
    }
}

fn gather_rows(x: &DenseMatrix, rows: &[usize]) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(rows.len(), x.ncols());
    for (dst, &src) in rows.iter().enumerate() {
        out.row_mut(dst).copy_from_slice(x.row(src));
    }
    out
}

/// Runs `method` on one fold rotation of `ls` and scores it on the test set
/// (queried links excluded, per §IV-B.3).
///
/// This is a thin wrapper over the session API
/// ([`session::SessionBuilder`] → count → featurize → fit); results are
/// bit-identical to the pre-session implementation. Callers that drive the
/// active loop with per-round anchor feedback should use
/// `session::AlignmentSession::run_active` directly.
pub fn run_fold(
    world: &GeneratedWorld,
    ls: &LinkSet,
    spec: &ExperimentSpec,
    method: Method,
    fold: usize,
) -> FoldRun {
    run_fold_threaded(
        world,
        ls,
        spec,
        method,
        fold,
        effective_threads(spec.threads),
    )
}

/// [`run_fold`] with an explicit extraction worker count — used by
/// [`run_experiment`] to split the thread budget between concurrent fold
/// rotations and the per-fold feature extraction.
fn run_fold_threaded(
    world: &GeneratedWorld,
    ls: &LinkSet,
    spec: &ExperimentSpec,
    method: Method,
    fold: usize,
    extract_threads: usize,
) -> FoldRun {
    let (train_pos, train_neg) = ls.train_indices(fold, spec.sample_ratio, spec.seed);

    // Features through the session API: the anchor set sees only the
    // γ-sampled training positives; anything more would leak test labels
    // into P1–P4. One full catalog count + featurization per fold, exactly
    // as the pre-session implementation (bit-identical features).
    let train_anchors: Vec<AnchorLink> = train_pos
        .iter()
        .map(|&i| AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
        .collect();
    let session = SessionBuilder::new(world.left(), world.right())
        .anchors(train_anchors)
        .feature_set(method.feature_set())
        .threading(Threading::Threads(extract_threads))
        .count()
        .expect("generated networks share attribute universes")
        .featurize(ls.candidates.clone());

    let test = ls.test_indices(fold);
    let start = std::time::Instant::now();

    let (predictions, report): (Vec<bool>, Option<FitReport>) =
        if let Some(kind) = method.strategy() {
            let oracle = VecOracle::new(ls.truth.clone());
            let config = ModelConfig {
                budget: method.budget(),
                seed: spec.seed ^ (fold as u64) << 8,
                ..Default::default()
            };
            let mut strat = strategy_for(kind, &config);
            let report = session
                .fit(train_pos.clone(), &oracle, &config, strat.as_mut())
                .into_report();
            // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
            let preds = report.labels.iter().map(|&l| l == 1.0).collect();
            (preds, Some(report))
        } else {
            // The SVM baselines: the only methods left without a strategy.
            let x = &session.features().x;
            let train_idx: Vec<usize> = train_pos.iter().chain(train_neg.iter()).copied().collect();
            let x_train = with_bias(&gather_rows(x, &train_idx));
            let y_train: Vec<bool> = train_idx.iter().map(|&i| ls.truth[i]).collect();
            let svm = SvmModel::train(
                &x_train,
                &y_train,
                &SvmConfig {
                    seed: spec.seed ^ fold as u64,
                    ..Default::default()
                },
            );
            let preds = svm
                .decision(&with_bias(x))
                .iter()
                .map(|&v| v > 0.0)
                .collect();
            (preds, None)
        };
    let fit_time = start.elapsed();

    // §IV-B.3: remove queried links from the test set.
    let queried: HashSet<usize> = report
        .as_ref()
        .map(|r| r.queried.iter().map(|&(i, _)| i).collect())
        .unwrap_or_default();
    let eval_idx: Vec<usize> = test.into_iter().filter(|i| !queried.contains(i)).collect();
    let pred_slice: Vec<bool> = eval_idx.iter().map(|&i| predictions[i]).collect();
    let truth_slice: Vec<bool> = eval_idx.iter().map(|&i| ls.truth[i]).collect();
    let metrics = Confusion::from_predictions(&pred_slice, &truth_slice).metrics();

    FoldRun {
        metrics,
        report,
        n_train_pos: train_pos.len(),
        n_train_neg: train_neg.len(),
        n_test: eval_idx.len(),
        fit_time,
    }
}

/// Runs a full cell: builds the link set, rotates the training fold
/// `spec.rotations` times on a bounded worker pool, and aggregates.
///
/// The `spec.threads` budget (0 = auto) is shared between the two layers of
/// parallelism: fold rotations run through [`sparsela::map_claimed`] on
/// at most that many workers — never one unbounded OS thread per
/// rotation — and come back in fold order;
/// whatever budget the fold layer leaves unused flows into each fold's
/// parallel feature extraction.
pub fn run_experiment(world: &GeneratedWorld, spec: &ExperimentSpec, method: Method) -> CellResult {
    let ls = LinkSet::build(world, spec.np_ratio, spec.n_folds, spec.seed);
    let n_rot = spec.rotations.min(spec.n_folds);
    let budget = effective_threads(spec.threads);
    let fold_workers = budget.min(n_rot).max(1);
    let extract_threads = (budget / fold_workers).max(1);

    let metrics = map_claimed(n_rot, fold_workers, |fold| {
        run_fold_threaded(world, &ls, spec, method, fold, extract_threads).metrics
    });
    CellResult::from_folds(&metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::presets;

    fn quick_spec() -> ExperimentSpec {
        ExperimentSpec {
            np_ratio: 3,
            sample_ratio: 1.0,
            n_folds: 5,
            rotations: 2,
            seed: 11,
            threads: 0,
        }
    }

    fn world() -> GeneratedWorld {
        datagen::generate(&presets::tiny(31))
    }

    #[test]
    fn iter_mpmd_beats_trivial_baselines_on_tiny_world() {
        let w = world();
        let cell = run_experiment(&w, &quick_spec(), Method::IterMpmd);
        assert!(
            cell.f1.mean > 0.05,
            "PU model should find some anchors, F1 = {}",
            cell.f1.mean
        );
        assert!(cell.accuracy.mean > 0.5);
        assert_eq!(cell.per_fold.len(), 2);
    }

    #[test]
    fn fold_run_exposes_sizes_and_report() {
        let w = world();
        let ls = LinkSet::build(&w, 3, 5, 11);
        let spec = quick_spec();
        let run = run_fold(&w, &ls, &spec, Method::ActiveIter { budget: 10 }, 0);
        assert!(run.n_train_pos > 0);
        assert!(run.n_test > 0);
        let report = run.report.expect("active method yields a report");
        assert!(report.queried.len() <= 10);
        // Queried links must not be evaluated.
        assert!(run.n_test <= ls.test_indices(0).len());
    }

    #[test]
    fn svm_runs_without_report() {
        let w = world();
        let ls = LinkSet::build(&w, 3, 5, 11);
        let spec = quick_spec();
        let run = run_fold(&w, &ls, &spec, Method::SvmMpmd, 1);
        assert!(run.report.is_none());
        assert_eq!(run.n_test, ls.test_indices(1).len());
    }

    #[test]
    fn svm_mp_uses_smaller_catalog_and_still_runs() {
        let w = world();
        let ls = LinkSet::build(&w, 3, 5, 11);
        let run = run_fold(&w, &ls, &quick_spec(), Method::SvmMp, 0);
        // Metrics are well-defined (may be poor — that is the paper's point).
        assert!(run.metrics.accuracy > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let w = world();
        let spec = quick_spec();
        let a = run_experiment(&w, &spec, Method::IterMpmd);
        let b = run_experiment(&w, &spec, Method::IterMpmd);
        assert_eq!(a.per_fold, b.per_fold);
    }

    #[test]
    fn results_are_identical_across_thread_budgets() {
        let w = world();
        let spec = quick_spec();
        // Drive the worker counts directly (uncapped): effective_threads
        // would clamp every budget to available_parallelism, which makes a
        // run_experiment-level comparison vacuous on single-core CI hosts.
        let ls = LinkSet::build(&w, spec.np_ratio, spec.n_folds, spec.seed);
        let serial = run_fold_threaded(&w, &ls, &spec, Method::IterMpmd, 0, 1);
        for threads in [2usize, 4, 8] {
            let par = run_fold_threaded(&w, &ls, &spec, Method::IterMpmd, 0, threads);
            assert_eq!(
                par.metrics, serial.metrics,
                "extraction threads = {threads} diverged from serial"
            );
            let bits = |run: &FoldRun| -> Vec<u64> {
                let report = run.report.as_ref().expect("Iter-MPMD yields a report");
                report.scores.iter().map(|s| s.to_bits()).collect()
            };
            assert_eq!(bits(&par), bits(&serial), "scores at {threads} threads");
        }
        // The pooled experiment path agrees across configured budgets too.
        let a = run_experiment(&w, &spec.clone().with_threads(1), Method::IterMpmd);
        let b = run_experiment(&w, &spec.with_threads(0), Method::IterMpmd);
        assert_eq!(a.per_fold, b.per_fold);
    }

    #[test]
    fn effective_threads_is_bounded_by_hardware() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_threads(0), hw);
        assert_eq!(effective_threads(1), 1);
        assert!(
            effective_threads(usize::MAX) <= hw,
            "cap prevents oversubscription"
        );
    }

    #[test]
    fn cell_result_metric_lookup() {
        let folds = vec![
            Metrics {
                f1: 0.5,
                precision: 0.6,
                recall: 0.4,
                accuracy: 0.9,
            },
            Metrics {
                f1: 0.7,
                precision: 0.8,
                recall: 0.6,
                accuracy: 0.95,
            },
        ];
        let cell = CellResult::from_folds(&folds);
        assert!((cell.get("F1").mean - 0.6).abs() < 1e-12);
        assert!((cell.get("Recall").mean - 0.5).abs() < 1e-12);
    }
}
