//! # session — the staged, artifact-owning alignment pipeline API
//!
//! The paper's ActiveIter loop is inherently *incremental*: each round
//! confirms a handful of anchor links and re-derives the meta-diagram
//! counts from the grown anchor matrix. The free functions in `eval` are
//! batch-shaped (build engine → count catalog → extract features → fit,
//! from scratch each time); this crate is the composable surface those
//! functions now wrap, and the one callers use when they need to *reuse*
//! work across rounds.
//!
//! An [`AlignmentSession`] moves through typed stages, each **owning** its
//! artifacts (nothing borrows the networks after counting):
//!
//! ```text
//! SessionBuilder ──count()──▶ AlignmentSession<Counted>
//!        anchors, catalog        │ owns: anchor CSR, per-diagram count
//!        threading               │ matrices + their L/Lᵀ/R factor chains
//!                                │
//!                  featurize(candidates)
//!                                ▼
//!                    AlignmentSession<Featurized>
//!                                │ + feature matrix, per-user candidate index
//!                                │
//!                  fit(..) / run_active(..)
//!                                ▼
//!                    AlignmentSession<Fitted>
//!                                  + the fitted model's FitReport
//! ```
//!
//! The heart of the API is [`AlignmentSession::update_anchors`]: confirmed
//! anchors are applied as the sparse low-rank recount `C += L·ΔA·R`
//! ([`sparsela::spgemm_lowrank`] through [`metadiagram::delta`]) instead of
//! a full catalog recount, and only the downstream artifacts that actually
//! depend on the anchor matrix are refreshed (anchor-free attribute
//! features are untouched; a fitted model is invalidated *by the type
//! system* — `update_anchors` exists on `Counted` and `Featurized` only,
//! so stale fits cannot be observed). Per-round cost scales with `|ΔA|`,
//! not with the catalog — which is what makes the active-query loop
//! interactive at paper scale. [`AlignmentSession::recount_anchors`] is
//! the single reference path: it recounts from the full merged anchor
//! matrix, bit-identical to the delta at full cost, and is the oracle the
//! delta path is tested and benchmarked against.
//!
//! Because no stage borrows the networks — each owns what the anchors
//! change and shares the immutable anchor-independent counts by `Arc` —
//! staged state is also **restartable and shardable**:
//!
//! * [`snapshot`] persists a `Counted` stage to a versioned, checksummed
//!   file and reopens it bit-identically in a fresh process — the full
//!   catalog count is paid once per *dataset*, not once per process
//!   (format spec: `docs/SNAPSHOT_FORMAT.md`);
//! * [`pool`] serves many concurrent sessions in one process — slots
//!   opened from snapshots, per-slot staged state, batch updates fanned
//!   out over a bounded worker budget;
//! * [`workers`] is the panic-safe, order-preserving fan-out primitive
//!   the pool (and `eval::multi`) shard with;
//! * [`serve`] puts pools behind process boundaries — a coordinator
//!   shards slots across N worker processes over a framed pipe
//!   protocol, with write-ahead journaling, deadlines, and
//!   restart-and-replay from base+journal when a worker dies.
//!
//! ## Example
//!
//! ```
//! use session::SessionBuilder;
//! use activeiter::query::ConflictQuery;
//! use activeiter::{ModelConfig, VecOracle};
//!
//! let world = datagen::generate(&datagen::presets::tiny(7));
//! let anchors = world.truth().links()[..10].to_vec();
//! let candidates: Vec<_> = world.truth().iter().map(|l| (l.left, l.right)).collect();
//!
//! // Counted: one full catalog count, factor chains harvested.
//! let counted = SessionBuilder::new(world.left(), world.right())
//!     .anchors(anchors)
//!     .count()
//!     .expect("generated networks share attribute universes");
//!
//! // Featurized: the dense feature matrix, read from counts + margins.
//! let session = counted.featurize(candidates);
//! assert_eq!(session.features().n_features(), 31);
//!
//! // Fitted: drive the paper's active loop, refreshing features from the
//! // confirmed anchors via the delta path after every round.
//! let truth: Vec<bool> = vec![true; session.candidates().len()];
//! let config = ModelConfig { budget: 10, ..Default::default() };
//! let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
//! let (fitted, run) = session
//!     .run_active(
//!         (0..10).collect(),
//!         &VecOracle::new(truth),
//!         &mut strategy,
//!         &config,
//!     )
//!     .expect("anchors come from the candidate set");
//! assert_eq!(fitted.stats().full_counts, 1); // counted once, updated since
//! assert!(run.fit.labels.iter().any(|&l| l == 1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
pub mod journal;
pub mod pool;
mod record;
pub mod serve;
pub mod sharded;
pub mod snapshot;
mod stages;
pub mod workers;

pub use active::{ActiveRunReport, RoundStat};
pub use journal::{CompactionPolicy, Journal, JournalError};
pub use pool::{PoolError, SessionPool};
pub use serve::{Coordinator, ServeConfig, ServeError, WorkerSpec};
pub use sharded::{
    RoutingSummary, ShardFitReport, ShardedConfig, ShardedError, ShardedSession, ShardedUpdate,
    StitchedAlignment, StitchedLink,
};
pub use snapshot::SnapshotError;
pub use stages::{AlignmentSession, Counted, Featurized, Fitted, SessionBuilder};

use metadiagram::count::EngineError;
use metadiagram::DeltaError;
use std::fmt;

/// A single anchor edge confirmed between the two networks — the unit of
/// incremental update. Identical in shape and meaning to
/// [`hetnet::AnchorLink`]; the alias marks the *role*: edges fed to
/// [`AlignmentSession::update_anchors`] are confirmed during a session, as
/// opposed to the training anchors a session is built from.
pub type AnchorEdge = hetnet::AnchorLink;

/// Everything that can go wrong inside a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Wiring the counting core failed (anchor shape, attribute universes).
    Engine(EngineError),
    /// Building the anchor matrix failed (endpoint out of range).
    Anchors(hetnet::HetNetError),
    /// An incremental update failed (endpoint out of range).
    Delta(DeltaError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Engine(e) => write!(f, "count engine: {e}"),
            SessionError::Anchors(e) => write!(f, "anchor matrix: {e}"),
            SessionError::Delta(e) => write!(f, "anchor update: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        SessionError::Engine(e)
    }
}

impl From<hetnet::HetNetError> for SessionError {
    fn from(e: hetnet::HetNetError) -> Self {
        SessionError::Anchors(e)
    }
}

impl From<DeltaError> for SessionError {
    fn from(e: DeltaError) -> Self {
        SessionError::Delta(e)
    }
}
