//! # activeiter — the paper's model and every baseline
//!
//! Implements §III-C/D of *"Meta Diagram based Active Social Networks
//! Alignment"* (ICDE 2019):
//!
//! * [`model::ActiveIterModel`] — the full **ActiveIter** driver: the
//!   hierarchical alternating optimization (closed-form ridge step 1-1,
//!   greedy cardinality-constrained label step 1-2, active query step 2)
//!   with convergence and timing traces for Figures 3–4;
//! * [`model::iter_mpmd`] — **Iter-MPMD**: the same PU iterative model with
//!   a zero query budget (Zhang et al., WSDM'17, extended with meta-diagram
//!   features);
//! * [`driver::ActiveLoop`] — the resumable round driver `fit` wraps:
//!   external callers (the session API) can take over between query rounds,
//!   refresh features after anchor updates, and keep the loop state;
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
pub mod unsupervised;

pub use config::ModelConfig;
pub use driver::ActiveLoop;
pub use instance::AlignmentInstance;
pub use model::{ActiveIterModel, FitReport};
pub use oracle::{Oracle, VecOracle};
pub use query::{ConflictQuery, QueryContext, QueryStrategy, RandomQuery};
