//! Inter-network meta diagrams (paper Definition 5).
//!
//! The paper's catalog is generated by the stacking operator `Pi × Pj`,
//! which glues meta paths at their shared node types. Three structurally
//! distinct gluings occur:
//!
//! * **Social middle-stacking** (`Ψf²`, e.g. Ψ1 = P1 × P2): two social
//!   paths share source, the *anchored intermediate user pair*, and sink —
//!   the count contracts over a single anchored pair with the Hadamard of
//!   the per-network user×user step matrices;
//! * **Attribute middle-stacking** (`Ψa²`, Ψ2 = P5 × P6): two attribute
//!   paths share source, the *post pair*, and sink — this encodes the
//!   "same location *and* same timestamp, by the same pair of posts"
//!   conjunction that plain meta paths cannot express (§III-B.2);
//! * **Endpoint stacking** (`Ψf,a`, `Ψf,a²`, `Ψf²,a²`): branches share only
//!   source and sink users, so instance counts multiply pointwise (Lemma 1).

use crate::covering::CoveringSet;
use std::fmt;

/// Identifier of a social meta path (the `Pf` family).
///
/// An inter-network meta path (Definition 4) is a typed walk from a
/// left-network user to a right-network user. Each variant's doc gives its
/// Table I walk; `<-anchor->` crosses networks through an anchor link, and
/// the step before it runs on the left network, the step after it on the
/// right. [`crate::count`] counts each walk as the chain `L·A·R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SocialPathId {
    /// P1 — common anchored followee: `U -follow-> U <-anchor-> U <-follow- U`.
    P1,
    /// P2 — common anchored follower: `U <-follow- U <-anchor-> U -follow-> U`.
    P2,
    /// P3 — common anchored followee-follower: `U -follow-> U <-anchor-> U -follow-> U`.
    P3,
    /// P4 — common anchored follower-followee: `U <-follow- U <-anchor-> U <-follow- U`.
    P4,
}

impl SocialPathId {
    /// All social paths, in Table I order.
    pub const ALL: [SocialPathId; 4] = [
        SocialPathId::P1,
        SocialPathId::P2,
        SocialPathId::P3,
        SocialPathId::P4,
    ];

    /// Table I name.
    pub fn name(self) -> &'static str {
        match self {
            SocialPathId::P1 => "P1",
            SocialPathId::P2 => "P2",
            SocialPathId::P3 => "P3",
            SocialPathId::P4 => "P4",
        }
    }
}

/// Identifier of an attribute meta path (the `Pa` family).
///
/// These walks need no anchor: attribute nodes (timestamp, location)
/// are shared by both networks, so the walk crosses from the left network's
/// posts to the right network's through the attribute node. Each variant's
/// doc gives its Table I walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrPathId {
    /// P5 — common timestamp: `U -write-> P -at-> T <-at- P <-write- U`.
    Timestamp,
    /// P6 — common checkin location: `U -write-> P -checkin-> L <-checkin- P <-write- U`.
    Location,
}

impl AttrPathId {
    /// All attribute paths, in Table I order.
    pub const ALL: [AttrPathId; 2] = [AttrPathId::Timestamp, AttrPathId::Location];

    /// Table I name.
    pub fn name(self) -> &'static str {
        match self {
            AttrPathId::Timestamp => "P5",
            AttrPathId::Location => "P6",
        }
    }
}

/// A meta diagram. Meta paths are the degenerate single-branch case (the
/// paper deliberately "misuses meta diagram to refer to both").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Diagram {
    /// A social meta path P1–P4.
    Social(SocialPathId),
    /// An attribute meta path P5/P6.
    Attr(AttrPathId),
    /// Two social paths middle-stacked at the shared anchored user pair
    /// (the Ψf² family; `SocialPair(P1, P2)` is the paper's Ψ1).
    SocialPair(SocialPathId, SocialPathId),
    /// Two attribute paths middle-stacked at the shared post pair
    /// (the Ψa² family; `AttrPair(P5, P6)` is the paper's Ψ2).
    AttrPair(AttrPathId, AttrPathId),
    /// Endpoint stacking of sub-diagrams: branches share only the source and
    /// sink users; counts multiply pointwise.
    Stack(Vec<Diagram>),
}

impl Diagram {
    /// The paper's Ψ1 = P1 × P2 (common aligned neighbors).
    pub fn psi1() -> Diagram {
        Diagram::SocialPair(SocialPathId::P1, SocialPathId::P2)
    }

    /// The paper's Ψ2 = P5 × P6 (common attributes, jointly).
    pub fn psi2() -> Diagram {
        Diagram::AttrPair(AttrPathId::Timestamp, AttrPathId::Location)
    }

    /// The paper's Ψ3 = P1 × P5 × P6 (common aligned neighbor & attributes).
    pub fn psi3() -> Diagram {
        Diagram::Stack(vec![Diagram::Social(SocialPathId::P1), Diagram::psi2()])
    }

    /// The covering set (Definition 7): the base meta paths composing the
    /// diagram.
    pub fn covering_set(&self) -> CoveringSet {
        let mut set = CoveringSet::empty();
        self.collect_covering(&mut set);
        set
    }

    fn collect_covering(&self, set: &mut CoveringSet) {
        match self {
            Diagram::Social(p) => set.insert_social(*p),
            Diagram::Attr(a) => set.insert_attr(*a),
            Diagram::SocialPair(a, b) => {
                set.insert_social(*a);
                set.insert_social(*b);
            }
            Diagram::AttrPair(a, b) => {
                set.insert_attr(*a);
                set.insert_attr(*b);
            }
            Diagram::Stack(parts) => {
                for p in parts {
                    p.collect_covering(set);
                }
            }
        }
    }

    /// Canonical name used in reports (`Ψ[P1×P2]`, `P5`, …).
    pub fn name(&self) -> String {
        match self {
            Diagram::Social(p) => p.name().to_string(),
            Diagram::Attr(a) => a.name().to_string(),
            Diagram::SocialPair(a, b) => format!("Ψ[{}×{}]", a.name(), b.name()),
            Diagram::AttrPair(a, b) => format!("Ψ[{}×{}]", a.name(), b.name()),
            Diagram::Stack(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| p.name()).collect();
                format!("Ψ[{}]", inner.join("×"))
            }
        }
    }
}

impl fmt::Display for Diagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_diagrams_match_paper() {
        assert_eq!(Diagram::psi1().name(), "Ψ[P1×P2]");
        assert_eq!(Diagram::psi2().name(), "Ψ[P5×P6]");
        assert_eq!(Diagram::psi3().name(), "Ψ[P1×Ψ[P5×P6]]");
    }

    #[test]
    fn covering_sets() {
        let c1 = Diagram::psi1().covering_set();
        assert_eq!(c1.len(), 2);
        assert!(c1.contains_social(SocialPathId::P1));
        assert!(c1.contains_social(SocialPathId::P2));

        let c3 = Diagram::psi3().covering_set();
        assert_eq!(c3.len(), 3);
        assert!(c3.contains_social(SocialPathId::P1));
        assert!(c3.contains_attr(AttrPathId::Timestamp));
        assert!(c3.contains_attr(AttrPathId::Location));
    }

    #[test]
    fn covering_set_subset_relation() {
        let c2 = Diagram::psi2().covering_set();
        let c3 = Diagram::psi3().covering_set();
        assert!(c2.is_subset_of(&c3));
        assert!(!c3.is_subset_of(&c2));
    }

    #[test]
    fn ids_resolve_to_paths() {
        let social: Vec<_> = SocialPathId::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(social, ["P1", "P2", "P3", "P4"]);
        let attr: Vec<_> = AttrPathId::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(attr, ["P5", "P6"]);
    }

    #[test]
    fn display_delegates_to_name() {
        assert_eq!(Diagram::psi2().to_string(), "Ψ[P5×P6]");
    }
}
