//! Error type for network construction and anchor-set validation.

use crate::schema::NodeKind;
use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, HetNetError>;

/// Errors produced while building or combining networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HetNetError {
    /// A node id referenced a node that does not exist.
    NodeOutOfRange {
        /// The kind of the offending node.
        kind: NodeKind,
        /// The offending index.
        index: usize,
        /// Declared population of that kind.
        count: usize,
    },
    /// An anchor set violated the one-to-one cardinality constraint.
    NotOneToOne {
        /// Human-readable description of the first violation found.
        detail: String,
    },
    /// An anchor endpoint referenced a user missing from its network.
    AnchorOutOfRange {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// The offending user index.
        index: usize,
        /// User population of that side.
        count: usize,
    },
    /// A partition map covers a different number of users than the
    /// network it partitions.
    PartitionSize {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// Users the map assigns.
        map_users: usize,
        /// Users in the network.
        net_users: usize,
    },
}

impl fmt::Display for HetNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HetNetError::NodeOutOfRange { kind, index, count } => {
                write!(f, "{kind} index {index} out of range (population {count})")
            }
            HetNetError::NotOneToOne { detail } => {
                write!(f, "anchor set violates one-to-one constraint: {detail}")
            }
            HetNetError::AnchorOutOfRange { side, index, count } => {
                write!(
                    f,
                    "anchor {side} endpoint {index} out of range (population {count})"
                )
            }
            HetNetError::PartitionSize {
                side,
                map_users,
                net_users,
            } => write!(
                f,
                "{side} partition map covers {map_users} users, its network has {net_users}"
            ),
        }
    }
}

impl std::error::Error for HetNetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = HetNetError::NodeOutOfRange {
            kind: NodeKind::Post,
            index: 10,
            count: 5,
        };
        assert!(e.to_string().contains("Post"));
        assert!(e.to_string().contains("10"));

        let e = HetNetError::NotOneToOne {
            detail: "user 3 appears twice".into(),
        };
        assert!(e.to_string().contains("one-to-one"));

        let e = HetNetError::AnchorOutOfRange {
            side: "left",
            index: 9,
            count: 4,
        };
        assert!(e.to_string().contains("left"));
    }
}
