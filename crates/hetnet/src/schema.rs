//! The aligned network schema (paper Definition 3, Figure 2).
//!
//! Node kinds and link kinds are closed enums: the paper's analysis (and
//! this reproduction) is specific to the social-network schema with users,
//! posts and the word/location/timestamp attribute types. The meta paths
//! walk this schema; `metadiagram` spells each walk out on its path
//! identifier and counts it as a chain of these link types' adjacencies.

use std::fmt;

/// The node (and attribute) types of the schema.
///
/// Attribute types are modeled as nodes, matching the paper's drawing of the
/// aligned schema where posts link to timestamp/location/word nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// A user account.
    User,
    /// A post (tweet on Twitter, tip on Foursquare).
    Post,
    /// A vocabulary word (shared attribute space across networks).
    Word,
    /// A location / venue (shared attribute space across networks).
    Location,
    /// A discretized timestamp (shared attribute space across networks).
    Timestamp,
}

impl NodeKind {
    /// All node kinds in declaration order.
    pub const ALL: [NodeKind; 5] = [
        NodeKind::User,
        NodeKind::Post,
        NodeKind::Word,
        NodeKind::Location,
        NodeKind::Timestamp,
    ];
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NodeKind::User => "User",
            NodeKind::Post => "Post",
            NodeKind::Word => "Word",
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
    /// Post → Word attribute association (text content).
    HasWord,
}

impl LinkKind {
    /// All link kinds in declaration order.
    pub const ALL: [LinkKind; 5] = [
        LinkKind::Follow,
        LinkKind::Write,
        LinkKind::At,
        LinkKind::Checkin,
        LinkKind::HasWord,
    ];

    /// Name as written in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::Follow => "follow",
            LinkKind::Write => "write",
            LinkKind::At => "at",
            LinkKind::Checkin => "checkin",
            LinkKind::HasWord => "contain",
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
        assert_eq!(NodeKind::ALL.len(), 5);
        assert_eq!(LinkKind::ALL.len(), 5);
    }
}
