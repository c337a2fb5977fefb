//! Aligned network pairs and anchor links (paper Definition 2).
//!
//! An [`AlignedPair`] couples two [`HetNet`]s with the ground-truth
//! [`AnchorSet`] — the one-to-one matching of shared users. Training code
//! never reads the full set directly; it works with explicit subsets so that
//! leakage (using test anchors in feature extraction) is impossible by
//! construction — [`anchor_matrix`] takes the subset as a parameter.

use crate::error::{HetNetError, Result};
use crate::graph::HetNet;
use crate::ids::UserId;
use sparsela::{CooMatrix, CsrMatrix};
use std::collections::HashSet;

/// An undirected anchor link between a left-network user and a
/// right-network user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnchorLink {
    /// User in the left network.
    pub left: UserId,
    /// User in the right network.
    pub right: UserId,
}

impl AnchorLink {
    /// Convenience constructor.
    pub fn new(left: UserId, right: UserId) -> Self {
        AnchorLink { left, right }
    }
}

/// A set of anchor links subject to the one-to-one cardinality constraint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnchorSet {
    links: Vec<AnchorLink>,
}

impl AnchorSet {
    /// Builds a set after validating the one-to-one constraint: every left
    /// user and every right user appears in at most one link.
    pub fn try_new(links: Vec<AnchorLink>) -> Result<Self> {
        let mut left_seen = HashSet::with_capacity(links.len());
        let mut right_seen = HashSet::with_capacity(links.len());
        for l in &links {
            if !left_seen.insert(l.left) {
                return Err(HetNetError::NotOneToOne {
                    detail: format!("left user {} appears in multiple anchors", l.left.0),
                });
            }
            if !right_seen.insert(l.right) {
                return Err(HetNetError::NotOneToOne {
                    detail: format!("right user {} appears in multiple anchors", l.right.0),
                });
            }
        }
        Ok(AnchorSet { links })
    }

    /// The empty set.
    pub fn empty() -> Self {
        AnchorSet { links: Vec::new() }
    }

    /// The anchor links in insertion order.
    pub fn links(&self) -> &[AnchorLink] {
        &self.links
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no anchors are present.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Membership test (O(n); sets are small and read-mostly).
    pub fn contains(&self, link: AnchorLink) -> bool {
        self.links.contains(&link)
    }

    /// Iterates the links.
    pub fn iter(&self) -> impl Iterator<Item = AnchorLink> + '_ {
        self.links.iter().copied()
    }
}

/// Builds the binary anchor adjacency matrix `A ∈ {0,1}^{|U⁽¹⁾| × |U⁽²⁾|}`
/// from an explicit subset of anchors (typically the *training* anchors —
/// passing ground truth here would leak labels into the features, which the
/// integration tests guard against).
///
/// # Errors
/// [`HetNetError::AnchorOutOfRange`] when an endpoint exceeds a population.
pub fn anchor_matrix(
    n_left_users: usize,
    n_right_users: usize,
    anchors: &[AnchorLink],
) -> Result<CsrMatrix> {
    let mut coo = CooMatrix::with_capacity(n_left_users, n_right_users, anchors.len());
    for a in anchors {
        if a.left.index() >= n_left_users {
            return Err(HetNetError::AnchorOutOfRange {
                side: "left",
                index: a.left.index(),
                count: n_left_users,
            });
        }
        if a.right.index() >= n_right_users {
            return Err(HetNetError::AnchorOutOfRange {
                side: "right",
                index: a.right.index(),
                count: n_right_users,
            });
        }
        coo.push(a.left.index(), a.right.index(), 1.0)
            .expect("ranges pre-checked");
    }
    Ok(coo.to_csr().binarized())
}

/// Two aligned attributed heterogeneous social networks plus the ground-truth
/// anchor matching, `G = ((G⁽¹⁾, G⁽²⁾), A^{(1,2)})`.
#[derive(Debug, Clone)]
pub struct AlignedPair {
    left: HetNet,
    right: HetNet,
    truth: AnchorSet,
}

impl AlignedPair {
    /// Couples two networks with their ground-truth anchors.
    ///
    /// # Errors
    /// Validates anchor endpoint ranges against the user populations.
    pub fn new(left: HetNet, right: HetNet, truth: AnchorSet) -> Result<Self> {
        for a in truth.iter() {
            if a.left.index() >= left.n_users() {
                return Err(HetNetError::AnchorOutOfRange {
                    side: "left",
                    index: a.left.index(),
                    count: left.n_users(),
                });
            }
            if a.right.index() >= right.n_users() {
                return Err(HetNetError::AnchorOutOfRange {
                    side: "right",
                    index: a.right.index(),
                    count: right.n_users(),
                });
            }
        }
        Ok(AlignedPair { left, right, truth })
    }

    /// The left network (`G⁽¹⁾`).
    pub fn left(&self) -> &HetNet {
        &self.left
    }

    /// The right network (`G⁽²⁾`).
    pub fn right(&self) -> &HetNet {
        &self.right
    }

    /// The ground-truth anchor set (held-out labels; the oracle's answer key).
    pub fn truth(&self) -> &AnchorSet {
        &self.truth
    }

    /// Size of the full candidate universe `H = U⁽¹⁾ × U⁽²⁾`.
    pub fn universe_size(&self) -> usize {
        self.left.n_users() * self.right.n_users()
    }

    /// Anchor adjacency matrix built from a *subset* of anchors (training
    /// anchors during feature extraction).
    ///
    /// # Errors
    /// Propagates range validation from [`anchor_matrix`].
    pub fn anchor_matrix_from(&self, anchors: &[AnchorLink]) -> Result<CsrMatrix> {
        anchor_matrix(self.left.n_users(), self.right.n_users(), anchors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HetNetBuilder;

    fn nets() -> (HetNet, HetNet) {
        let l = HetNetBuilder::new("l", 3, 0, 0, 0).build();
        let r = HetNetBuilder::new("r", 3, 0, 0, 0).build();
        (l, r)
    }

    #[test]
    fn one_to_one_is_enforced() {
        let ok = AnchorSet::try_new(vec![
            AnchorLink::new(UserId(0), UserId(1)),
            AnchorLink::new(UserId(1), UserId(0)),
        ]);
        assert!(ok.is_ok());

        let dup_left = AnchorSet::try_new(vec![
            AnchorLink::new(UserId(0), UserId(1)),
            AnchorLink::new(UserId(0), UserId(2)),
        ]);
        assert!(dup_left.is_err());

        let dup_right = AnchorSet::try_new(vec![
            AnchorLink::new(UserId(0), UserId(1)),
            AnchorLink::new(UserId(2), UserId(1)),
        ]);
        assert!(dup_right.is_err());
    }

    #[test]
    fn anchor_matrix_is_binary_permutation_like() {
        let anchors = vec![
            AnchorLink::new(UserId(0), UserId(2)),
            AnchorLink::new(UserId(2), UserId(0)),
        ];
        let m = anchor_matrix(3, 3, &anchors).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(2, 0), 1.0);
        let rs = m.row_sums();
        assert!(rs.iter().all(|&s| s <= 1.0));
    }

    #[test]
    fn anchor_matrix_rejects_out_of_range() {
        let bad = vec![AnchorLink::new(UserId(5), UserId(0))];
        assert!(anchor_matrix(3, 3, &bad).is_err());
        let bad = vec![AnchorLink::new(UserId(0), UserId(9))];
        assert!(anchor_matrix(3, 3, &bad).is_err());
    }

    #[test]
    fn aligned_pair_validates_truth() {
        let (l, r) = nets();
        let truth = AnchorSet::try_new(vec![AnchorLink::new(UserId(0), UserId(0))]).unwrap();
        let pair = AlignedPair::new(l, r, truth).unwrap();
        assert_eq!(pair.universe_size(), 9);
        assert_eq!(pair.truth().len(), 1);
        assert_eq!(pair.left().name(), "l");
        assert_eq!(pair.right().name(), "r");

        let (l, r) = nets();
        let bad = AnchorSet::try_new(vec![AnchorLink::new(UserId(7), UserId(0))]).unwrap();
        assert!(AlignedPair::new(l, r, bad).is_err());
    }

    #[test]
    fn anchor_set_accessors() {
        let a = AnchorLink::new(UserId(1), UserId(2));
        let s = AnchorSet::try_new(vec![a]).unwrap();
        assert!(s.contains(a));
        assert!(!s.contains(AnchorLink::new(UserId(2), UserId(1))));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(AnchorSet::empty().is_empty());
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.links()[0], a);
    }
}
