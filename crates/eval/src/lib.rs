//! # eval — the experiment harness
//!
//! Reproduces the paper's experimental protocol (§IV-B):
//!
//! 1. all ground-truth anchors form the positive set; negatives are sampled
//!    at **NP-ratio θ** from the non-anchor pairs ([`sampling`]);
//! 2. positives and negatives are split (stratified) into **10 folds**; one
//!    fold trains, nine test, rotating the training fold across runs;
//! 3. the training fold is sub-sampled by **sample-ratio γ** to simulate
//!    label scarcity;
//! 4. features come from the meta-diagram catalog with the anchor matrix
//!    built from the *γ-sampled training positives only* (no leakage);
//! 5. methods ([`methods::Method`]) run on the shared feature matrix; the
//!    active methods may query the oracle, and **queried links are removed
//!    from the test set** before scoring (§IV-B.3 fairness rule);
//! 6. F1 / Precision / Recall / Accuracy are averaged over the fold
//!    rotations and reported as `mean ± std` ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod methods;
pub mod metrics;
pub mod multi;
pub mod ranking;
pub mod report;
pub mod sampling;

pub use experiment::{
    effective_threads, run_experiment, run_fold, CellResult, ExperimentSpec, FoldRun,
};
pub use methods::Method;
pub use metrics::{summarize, Confusion, MetricSummary, Metrics};
pub use multi::{
    align_all_pairs, consistency_report, resolve_by_score, stitched_to_alignment, MultiAlignment,
    MultiSpec, MultiSpecError,
};
pub use ranking::{ranking_report, RankingReport};
pub use report::Table;
pub use sampling::LinkSet;
