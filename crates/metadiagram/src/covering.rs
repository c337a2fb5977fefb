//! Meta diagram covering sets (paper Definition 7, Lemmas 1–2).
//!
//! A covering set records which base meta paths compose a diagram. Two facts
//! follow from it:
//!
//! * **Lemma 1** — a user pair is connected by a diagram instance iff it is
//!   connected by instances of *every* covering path (property-tested in
//!   `tests/engine_vs_bruteforce.rs`);
//! * **Lemma 2** — if `C(Ψᵢ) ⊆ C(Ψⱼ)`, any pair connected by Ψⱼ is
//!   connected by Ψᵢ, so a count for Ψᵢ bounds (and, for endpoint
//!   stackings, *factors*) the computation of Ψⱼ. The store build uses the
//!   factoring directly: in its fused row pass, each endpoint stacking's
//!   row is the Hadamard of its parts' rows, computed right after them
//!   while they are in cache.

use crate::diagram::{AttrPathId, SocialPathId};

/// A small bitset over the base meta paths {P1..P4} ∪ {P5, P6}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoveringSet {
    bits: u8,
}

const SOCIAL_BASE: u8 = 0; // bits 0..4
const ATTR_BASE: u8 = 4; // bits 4..6

fn social_bit(p: SocialPathId) -> u8 {
    let i = match p {
        SocialPathId::P1 => 0,
        SocialPathId::P2 => 1,
        SocialPathId::P3 => 2,
        SocialPathId::P4 => 3,
    };
    1 << (SOCIAL_BASE + i)
}

fn attr_bit(a: AttrPathId) -> u8 {
    let i = match a {
        AttrPathId::Timestamp => 0,
        AttrPathId::Location => 1,
    };
    1 << (ATTR_BASE + i)
}

impl CoveringSet {
    /// The empty set.
    pub fn empty() -> Self {
        CoveringSet { bits: 0 }
    }

    /// Adds a social path.
    pub fn insert_social(&mut self, p: SocialPathId) {
        self.bits |= social_bit(p);
    }

    /// Adds an attribute path.
    pub fn insert_attr(&mut self, a: AttrPathId) {
        self.bits |= attr_bit(a);
    }

    /// Membership test for a social path.
    pub fn contains_social(&self, p: SocialPathId) -> bool {
        self.bits & social_bit(p) != 0
    }

    /// Membership test for an attribute path.
    pub fn contains_attr(&self, a: AttrPathId) -> bool {
        self.bits & attr_bit(a) != 0
    }

    /// Number of distinct covering paths.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// True when no path is present.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Subset relation (Lemma 2's premise).
    pub fn is_subset_of(&self, other: &CoveringSet) -> bool {
        self.bits & other.bits == self.bits
    }

    /// Set union (covering set of an endpoint stacking).
    pub fn union(&self, other: &CoveringSet) -> CoveringSet {
        CoveringSet {
            bits: self.bits | other.bits,
        }
    }

    /// The social paths present, in Table I order.
    pub fn social_paths(&self) -> Vec<SocialPathId> {
        SocialPathId::ALL
            .into_iter()
            .filter(|&p| self.contains_social(p))
            .collect()
    }

    /// The attribute paths present, in Table I order.
    pub fn attr_paths(&self) -> Vec<AttrPathId> {
        AttrPathId::ALL
            .into_iter()
            .filter(|&a| self.contains_attr(a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut s = CoveringSet::empty();
        assert!(s.is_empty());
        s.insert_social(SocialPathId::P2);
        s.insert_attr(AttrPathId::Location);
        assert_eq!(s.len(), 2);
        assert!(s.contains_social(SocialPathId::P2));
        assert!(!s.contains_social(SocialPathId::P1));
        assert!(s.contains_attr(AttrPathId::Location));
        assert!(!s.contains_attr(AttrPathId::Timestamp));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut s = CoveringSet::empty();
        s.insert_social(SocialPathId::P1);
        s.insert_social(SocialPathId::P1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn subset_and_union() {
        let mut a = CoveringSet::empty();
        a.insert_attr(AttrPathId::Timestamp);
        let mut b = a;
        b.insert_attr(AttrPathId::Location);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        let u = a.union(&b);
        assert_eq!(u, b);
    }

    #[test]
    fn path_listings_are_ordered() {
        let mut s = CoveringSet::empty();
        s.insert_social(SocialPathId::P4);
        s.insert_social(SocialPathId::P1);
        s.insert_attr(AttrPathId::Location);
        s.insert_attr(AttrPathId::Timestamp);
        assert_eq!(s.social_paths(), vec![SocialPathId::P1, SocialPathId::P4]);
        assert_eq!(
            s.attr_paths(),
            vec![AttrPathId::Timestamp, AttrPathId::Location]
        );
    }
}
