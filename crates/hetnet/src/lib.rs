//! # hetnet — attributed heterogeneous social networks
//!
//! The network substrate of the ActiveIter reproduction. Implements the
//! paper's Definition 1 (attributed heterogeneous social network) and
//! Definition 2 (multiple aligned social networks) for the Foursquare/Twitter
//! shape of Figure 2:
//!
//! * node types: **User**, **Post** and the attribute types **Location**
//!   and **Timestamp** (attributes are modeled as typed nodes linked to
//!   posts, exactly as the aligned network schema draws them);
//! * link types: **follow** (User→User), **write** (User→Post),
//!   **at** (Post→Timestamp), **checkin** (Post→Location), plus the
//!   inter-network **anchor** link type held by [`AlignedPair`].
//!
//! Figure 2 also draws a **Word** attribute type. It is not modelled:
//! no meta path or meta diagram of Table I and no column of Table II
//! reads it.
//!
//! Storage is compressed sparse row per link type ([`sparsela::CsrMatrix`]),
//! forward and reverse, which is what the meta-path count engine consumes
//! directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligned;
pub mod builder;
pub mod error;
pub mod graph;
pub mod ids;
pub mod partition;
pub mod schema;
pub mod stats;

pub use aligned::{AlignedPair, AnchorLink, AnchorSet};
pub use builder::HetNetBuilder;
pub use error::{HetNetError, Result};
pub use graph::HetNet;
pub use ids::{LocationId, PostId, TimestampId, UserId};
pub use partition::{
    induce_subnet, match_partitions, MatchedPair, PartitionConfig, PartitionMap, PartitionMatching,
    PartitionSignature, SubNet,
};
pub use schema::{Direction, LinkKind, NodeKind};
pub use stats::NetworkStats;
