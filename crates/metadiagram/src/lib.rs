//! # metadiagram — inter-network meta paths, meta diagrams and proximity features
//!
//! This crate implements the feature machinery that is the heart of the
//! paper's contribution (§III-B):
//!
//! * [`diagram`] — **inter-network meta paths** (Definition 4): typed
//!   walks from a left-network user to a right-network user through follow,
//!   write, at, checkin and anchor links. The paper's P1–P6 are the
//!   variants of [`SocialPathId`] and [`AttrPathId`],
//!   each documented with its Table I walk; [`count`] computes each walk
//!   as a chain of sparse products. The same module holds the
//!   **inter-network meta diagrams** (Definition 5): DAG
//!   stackings of meta paths. Three stacking forms cover the paper's whole
//!   catalog: middle-stacking of two social paths at the shared anchor pair
//!   (Ψf²), middle-stacking of two attribute paths at the shared post pair
//!   (Ψa² — the "same place *and* same time" semantics), and endpoint
//!   stacking of arbitrary sub-diagrams (the × operator of §III-B.2).
//! * [`covering`] — **covering sets** (Definition 7).
//! * [`count`] — the count algebra: SpGEMM chains `L·A·R` for social
//!   paths and their middle-stackings, and the composite-key join that
//!   counts Ψa² without materializing post × post products.
//! * [`delta`] — the count store: one full catalog count that counts each
//!   distinct diagram once, in one fused pass per row block (an endpoint
//!   stacking's row is the Hadamard of its parts' rows), then incremental
//!   recounting — anchor-chain counts are
//!   low-rank updates `L·ΔA·R` in the newly confirmed anchors, so active
//!   query rounds pay `O(|ΔA|)` instead of a full recount.
//! * [`codec`] — binary encode/decode of the delta store and catalog
//!   types, the payload layer of the session snapshot format.
//! * [`proximity`] — the Dice-style meta diagram proximity of Definition 6.
//! * [`catalog`] — assembly of the full feature catalog
//!   Φ = P ∪ Ψf² ∪ Ψa² ∪ Ψf,a ∪ Ψf,a² ∪ Ψf²,a² (31 features).
//! * [`features`] — extraction of the dense feature matrix for a candidate
//!   anchor-link set, read from a [`delta`] store's counts and margins.
//! * [`bruteforce`] — exhaustive enumerators used to verify the store's
//!   counts (Lemma 1 and count equality are property-tested against these).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod catalog;
pub mod codec;
pub mod count;
pub mod covering;
pub mod delta;
pub mod diagram;
pub mod features;
pub mod proximity;

pub use catalog::{Catalog, CatalogEntry, FeatureSet};
pub use covering::CoveringSet;
pub use delta::{
    ChangedCount, DeltaCatalogCounts, DeltaError, DeltaOutcome, DeltaStats, TouchedRegion,
};
pub use diagram::{AttrPathId, Diagram, SocialPathId};
pub use features::{extract_features, FeatureMatrix};
pub use proximity::{dice_at, dice_proximity};
pub use sparsela::Threading;
