//! # activeiter — the paper's model and every baseline
//!
//! Implements §III-C/D of *"Meta Diagram based Active Social Networks
//! Alignment"* (ICDE 2019):
//!
//! * [`driver::ActiveLoop`] — the full **ActiveIter** driver: the
//!   hierarchical alternating optimization (closed-form ridge step 1-1,
//!   greedy cardinality-constrained label step 1-2, active query step 2),
//!   run to completion by [`ActiveLoop::run`] or stepped round by round by
//!   callers (the session API) that refresh features after anchor updates.
//!   **Iter-MPMD** (Zhang et al., WSDM'17, extended with meta-diagram
//!   features) is the same loop at a zero query budget;
//! * [`model::FitReport`] — what a fit produces, with the convergence and
//!   timing traces for Figures 3–4;
//! * [`query`] — query strategies: the paper's conflict-based
//!   false-negative selector, the random selector (**ActiveIter-Rand**),
//!   and two ablation strategies (uncertainty, top-score);
//! * [`svm`] — a from-scratch linear SVM (dual coordinate descent) behind
//!   the **SVM-MP** / **SVM-MPMD** baselines;
//! * [`greedy`] — the greedy ½-approximation for the one-to-one constraint,
//!   with an exact brute-force matcher used to property-test the bound;
//! * [`instance`] / [`oracle`] — problem instances and label oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod greedy;
pub mod instance;
pub mod model;
pub mod oracle;
pub mod ord;
pub mod query;
pub mod svm;

pub use config::ModelConfig;
pub use driver::ActiveLoop;
pub use instance::AlignmentInstance;
pub use model::FitReport;
pub use oracle::{Oracle, VecOracle};
pub use query::{ConflictQuery, QueryContext, QueryStrategy, RandomQuery};
