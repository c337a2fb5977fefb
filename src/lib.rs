//! # social-align — Meta Diagram based Active Social Networks Alignment
//!
//! A from-scratch Rust reproduction of **"Meta Diagram based Active Social
//! Networks Alignment"** (Ren, Aggarwal, Zhang — ICDE 2019): the
//! **ActiveIter** model, every baseline it is evaluated against, and every
//! substrate the pipeline needs.
//!
//! ## Quickstart
//!
//! ```
//! use social_align::prelude::*;
//!
//! // 1. Two aligned attributed heterogeneous networks (synthetic stand-in
//! //    for the paper's Foursquare/Twitter crawl).
//! let world = datagen::generate(&datagen::presets::tiny(7));
//!
//! // 2. The paper's protocol: NP-ratio sampling + stratified folds.
//! let spec = ExperimentSpec::cell(3, 1.0).with_rotations(1);
//!
//! // 3. Run ActiveIter with a query budget of 10 against the baselines.
//! let active = run_experiment(&world, &spec, Method::ActiveIter { budget: 10 });
//! let pu = run_experiment(&world, &spec, Method::IterMpmd);
//! println!("ActiveIter F1 = {:.3}, Iter-MPMD F1 = {:.3}", active.f1.mean, pu.f1.mean);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`sparsela`] | CSR/COO sparse + dense linear algebra, SpGEMM (incl. the `L·ΔA·R` low-rank update kernel), Cholesky ridge |
//! | [`hetnet`] | attributed heterogeneous networks, schema, anchors |
//! | [`metadiagram`] | meta paths P1–P6, meta diagrams, covering sets, the count store with its incremental delta recounts, Dice proximity, the 31-feature catalog |
//! | [`datagen`] | seeded generator of aligned network pairs (Table II proportions) |
//! | [`activeiter`] | the ActiveIter round driver (Iter-MPMD is its zero-budget case), ActiveIter-Rand, SVM baselines |
//! | [`session`] | the staged `AlignmentSession` pipeline: `SessionBuilder` → Counted → Featurized → Fitted, with `update_anchors` incremental recounting |
//! | [`eval`] | folds, NP-ratio/sample-ratio protocol, metrics, paper-style tables — thin wrappers over sessions |
//!
//! The `bench` crate regenerates every table and figure of the paper's
//! evaluation section (see EXPERIMENTS.md).
//!
//! ## The session API
//!
//! Interactive/active workloads should drive an [`session::AlignmentSession`]
//! instead of the batch free functions: the catalog is fully counted once,
//! and every confirmed anchor batch is folded in as a sparse low-rank
//! update whose cost scales with `|ΔA|` (see `examples/active_query_demo.rs`
//! for per-round full-vs-delta timings).
//!
//! ```
//! use social_align::prelude::*;
//!
//! let world = datagen::generate(&datagen::presets::tiny(7));
//! let mut session = SessionBuilder::new(world.left(), world.right())
//!     .anchors(world.truth().links()[..10].to_vec())
//!     .count()
//!     .expect("generated networks share attribute universes")
//!     .featurize(world.truth().iter().map(|l| (l.left, l.right)).collect());
//! // A confirmed anchor re-derives only the anchor-dependent features.
//! let confirmed = world.truth().links()[10];
//! assert_eq!(session.update_anchors(&[confirmed]).unwrap(), 1);
//! assert_eq!(session.stats().full_counts, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use activeiter;
pub use datagen;
pub use eval;
pub use hetnet;
pub use metadiagram;
pub use session;
pub use sparsela;

/// The most common imports for downstream users.
pub mod prelude {
    pub use activeiter::{AlignmentInstance, ModelConfig, Oracle, QueryStrategy, VecOracle};
    pub use datagen::{self, GeneratorConfig};
    pub use eval::{
        run_experiment, run_fold, CellResult, ExperimentSpec, LinkSet, Method, Metrics, Table,
    };
    pub use hetnet::partition::{PartitionConfig, PartitionMap};
    pub use hetnet::{AlignedPair, AnchorLink, AnchorSet, HetNet, HetNetBuilder, UserId};
    pub use metadiagram::{Catalog, Diagram, FeatureSet};
    pub use session::{
        snapshot, ActiveRunReport, AlignmentSession, AnchorEdge, SessionBuilder, SessionPool,
        ShardedConfig, ShardedSession, StitchedAlignment,
    };
}
