//! The aligned network schema (paper Definition 3, Figure 2).
//!
//! Node kinds and link kinds are closed enums: the paper's analysis (and
//! this reproduction) is specific to the social-network schema with users,
//! posts and the location/timestamp attribute types. The paper's Figure 2
//! also draws a word type; it is not modelled, because no meta path or
//! meta diagram of Table I and no column of Table II reads it. The meta paths
//! walk this schema; `metadiagram` spells each walk out on its path
//! identifier and counts it as a chain of these link types' adjacencies.

use std::fmt;

/// The node (and attribute) types of the schema.
///
/// Attribute types are modeled as nodes, matching the paper's drawing of the
/// aligned schema where posts link to timestamp/location nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// A user account.
    User,
    /// A post (tweet on Twitter, tip on Foursquare).
    Post,
    /// A location / venue (shared attribute space across networks).
    Location,
    /// A discretized timestamp (shared attribute space across networks).
    Timestamp,
}

impl NodeKind {
    /// All node kinds in declaration order.
    pub const ALL: [NodeKind; 4] = [
        NodeKind::User,
        NodeKind::Post,
        NodeKind::Location,
        NodeKind::Timestamp,
    ];
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NodeKind::User => "User",
            NodeKind::Post => "Post",
            NodeKind::Location => "Location",
            NodeKind::Timestamp => "Timestamp",
        };
        f.write_str(name)
    }
}

/// The intra-network link types of the schema (Figure 2). The inter-network
/// `anchor` type lives on [`crate::AlignedPair`], not inside a single network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkKind {
    /// User → User social link ("follow"/"friend").
    Follow,
    /// User → Post authorship.
    Write,
    /// Post → Timestamp attribute association.
    At,
    /// Post → Location attribute association.
    Checkin,
}

impl LinkKind {
    /// All link kinds in declaration order.
    pub const ALL: [LinkKind; 4] = [
        LinkKind::Follow,
        LinkKind::Write,
        LinkKind::At,
        LinkKind::Checkin,
    ];

    /// Name as written in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::Follow => "follow",
            LinkKind::Write => "write",
            LinkKind::At => "at",
            LinkKind::Checkin => "checkin",
        }
    }
}

impl fmt::Display for LinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Traversal direction of a link type within a meta path step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Source → target (the arrow direction of the [`LinkKind`]).
    Forward,
    /// Target → source.
    Reverse,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Reverse,
            Direction::Reverse => Direction::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_flip_is_involution() {
        assert_eq!(Direction::Forward.flip(), Direction::Reverse);
        assert_eq!(Direction::Forward.flip().flip(), Direction::Forward);
    }

    #[test]
    fn display_names() {
        assert_eq!(NodeKind::Location.to_string(), "Location");
        assert_eq!(LinkKind::Checkin.to_string(), "checkin");
    }

    #[test]
    fn all_arrays_cover_every_variant() {
        assert_eq!(NodeKind::ALL.len(), 4);
        assert_eq!(LinkKind::ALL.len(), 4);
    }
}
