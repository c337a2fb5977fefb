//! The meta diagram count algebra.
//!
//! The **instance count matrix** of a [`crate::Diagram`] is
//! `C ∈ N^{|U⁽¹⁾| × |U⁽²⁾|}` where `C[i][j] = |P_Ψ(u⁽¹⁾ᵢ, u⁽²⁾ⱼ)|` — the
//! number of diagram instances connecting the user pair. The algebra:
//!
//! * **social meta paths** and **social middle-stackings** Ψ(Pi×Pj) count
//!   as SpGEMM chains `L · A · R` (PathSim-style counting): `A` is the
//!   anchor matrix and `social_factors` gives the anchor-independent
//!   user×user step matrices, `L = Lᵢ ⊙ Lⱼ` and `R = Rᵢ ⊙ Rⱼ` for a pair;
//! * **attribute meta paths** and **attribute middle-stackings** Ψ(Pa×Pb)
//!   never touch `A`. `attr_pair` contracts over the shared post pair by
//!   joining posts on composite `(attr_a, attr_b)` keys, so no post×post
//!   matrix is ever formed;
//! * **endpoint stackings** multiply branch counts pointwise (Lemma 1's
//!   sound direction).
//!
//! These are plain functions over the two networks.
//! [`crate::delta::DeltaCatalogCounts::build`] is the one place that
//! counts a catalog: it counts every distinct diagram once, a stack
//! as the Hadamard of its already-counted parts (the paper's Lemma-2
//! reuse: Ψf²,a² = Ψf² ⊙ Ψa² costs one Hadamard).

use crate::diagram::{AttrPathId, SocialPathId};
use hetnet::{Direction, HetNet, LinkKind, NodeKind};
use sparsela::{spgemm, CooMatrix, CsrMatrix, SparseError};
use std::collections::HashMap;
use std::fmt;

/// Errors detected when counting over a pair of networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The anchor matrix shape does not match the user populations.
    AnchorShape {
        /// Shape received.
        got: (usize, usize),
        /// Shape required.
        want: (usize, usize),
    },
    /// The two networks disagree on a shared attribute universe size.
    AttributeUniverseMismatch {
        /// The mismatching attribute kind.
        kind: NodeKind,
        /// Left population.
        left: usize,
        /// Right population.
        right: usize,
    },
    /// A sparse kernel rejected its operands mid-count.
    Kernel(SparseError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::AnchorShape { got, want } => write!(
                f,
                "anchor matrix is {}x{}, networks require {}x{}",
                got.0, got.1, want.0, want.1
            ),
            EngineError::AttributeUniverseMismatch { kind, left, right } => write!(
                f,
                "shared attribute universe mismatch for {kind}: left {left}, right {right}"
            ),
            EngineError::Kernel(e) => write!(f, "count kernel failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SparseError> for EngineError {
    fn from(e: SparseError) -> Self {
        EngineError::Kernel(e)
    }
}

/// Checks that `anchor` is a `|U⁽¹⁾| × |U⁽²⁾|` matrix and that the two
/// networks share every attribute universe.
pub(crate) fn check_networks(
    left: &HetNet,
    right: &HetNet,
    anchor: &CsrMatrix,
) -> Result<(), EngineError> {
    let want = (left.n_users(), right.n_users());
    if anchor.shape() != want {
        return Err(EngineError::AnchorShape {
            got: anchor.shape(),
            want,
        });
    }
    for kind in [NodeKind::Word, NodeKind::Location, NodeKind::Timestamp] {
        if left.count(kind) != right.count(kind) {
            return Err(EngineError::AttributeUniverseMismatch {
                kind,
                left: left.count(kind),
                right: right.count(kind),
            });
        }
    }
    Ok(())
}

/// Per-network step matrices of a social path: `L[u1, x1]` and
/// `R[x2, u2]` such that `count = L · A · R`.
fn social_steps<'n>(
    left: &'n HetNet,
    right: &'n HetNet,
    p: SocialPathId,
) -> (&'n CsrMatrix, &'n CsrMatrix) {
    // Left step: does u1 -follow-> x1 (Forward) or x1 -follow-> u1
    // (Reverse, i.e. transposed adjacency)?
    let ldir = match p {
        SocialPathId::P1 | SocialPathId::P3 => Direction::Forward,
        SocialPathId::P2 | SocialPathId::P4 => Direction::Reverse,
    };
    // Right step as a matrix *from the anchored user x2 to the sink u2*:
    // P1/P4 traverse a follow edge u2 -> x2 (so x2→u2 needs the
    // transpose); P2/P3 traverse x2 -> u2 (plain adjacency).
    let rdir = match p {
        SocialPathId::P1 | SocialPathId::P4 => Direction::Reverse,
        SocialPathId::P2 | SocialPathId::P3 => Direction::Forward,
    };
    (
        left.adjacency(LinkKind::Follow, ldir),
        right.adjacency(LinkKind::Follow, rdir),
    )
}

/// The anchor-chain factors `(L, R)` of the social middle-stacking
/// Pi × Pj, so that its count is `L · A · R`. `Pi × Pi` degenerates to
/// the path Pi on binary adjacency; otherwise `L = Lᵢ ⊙ Lⱼ` and
/// `R = Rᵢ ⊙ Rⱼ`, one Hadamard each.
///
/// The factors are anchor-independent, which makes anchor updates
/// low-rank: `C(A + ΔA) = C(A) + L·ΔA·R` exactly (see
/// [`sparsela::spgemm_lowrank`] and [`crate::delta`]).
pub(crate) fn social_factors(
    left: &HetNet,
    right: &HetNet,
    i: SocialPathId,
    j: SocialPathId,
) -> Result<(CsrMatrix, CsrMatrix), SparseError> {
    let (li, ri) = social_steps(left, right, i);
    if i == j {
        return Ok((li.clone(), ri.clone()));
    }
    let (lj, rj) = social_steps(left, right, j);
    Ok((li.hadamard(lj)?, ri.hadamard(rj)?))
}

fn attr_link(a: AttrPathId) -> LinkKind {
    match a {
        AttrPathId::Timestamp => LinkKind::At,
        AttrPathId::Location => LinkKind::Checkin,
        AttrPathId::Word => LinkKind::HasWord,
    }
}

/// `(W¹·C¹) · (W²·C²)ᵀ`: user×key intermediates, never post×post.
fn authored_key_counts(
    left: &HetNet,
    right: &HetNet,
    c1: &CsrMatrix,
    c2: &CsrMatrix,
) -> Result<CsrMatrix, SparseError> {
    let ul = spgemm(left.adjacency(LinkKind::Write, Direction::Forward), c1)?;
    let ur = spgemm(right.adjacency(LinkKind::Write, Direction::Forward), c2)?;
    spgemm(&ul, &ur.transpose())
}

/// The count of the attribute middle-stacking Pa × Pb: instances are
/// post pairs sharing **both** attributes. `Pa × Pa` degenerates to the
/// attribute path Pa.
///
/// Posts are joined on composite `(attr_a, attr_b)` keys. This is exactly
/// the post×post product `W¹ · (S_a ⊙ S_b) · W²ᵀ` (the key space is the
/// Cartesian product of the per-post attribute sets) and never forms a
/// post×post matrix.
pub(crate) fn attr_pair(
    left: &HetNet,
    right: &HetNet,
    a: AttrPathId,
    b: AttrPathId,
) -> Result<CsrMatrix, SparseError> {
    let (ka, kb) = (attr_link(a), attr_link(b));
    if a == b {
        let c1 = left.adjacency(ka, Direction::Forward);
        let c2 = right.adjacency(ka, Direction::Forward);
        return authored_key_counts(left, right, c1, c2);
    }
    // Key dictionary over (attr_a, attr_b) pairs present on left posts.
    let left_a = left.adjacency(ka, Direction::Forward);
    let left_b = left.adjacency(kb, Direction::Forward);
    let right_a = right.adjacency(ka, Direction::Forward);
    let right_b = right.adjacency(kb, Direction::Forward);

    let mut key_ids: HashMap<(usize, usize), usize> = HashMap::new();
    // First pass: enumerate left-post keys, assigning ids.
    let mut c1_triplets: Vec<(usize, usize)> = Vec::new();
    for p in 0..left.n_posts() {
        for (ia, _) in left_a.row(p) {
            for (ib, _) in left_b.row(p) {
                let next = key_ids.len();
                let id = *key_ids.entry((ia, ib)).or_insert(next);
                c1_triplets.push((p, id));
            }
        }
    }
    let n_keys = key_ids.len();
    let mut c1 = CooMatrix::with_capacity(left.n_posts(), n_keys, c1_triplets.len());
    for (p, k) in c1_triplets {
        c1.push(p, k, 1.0)?;
    }
    // Second pass: right posts contribute only keys seen on the left —
    // keys exclusive to one side cannot participate in any instance.
    let mut c2 = CooMatrix::new(right.n_posts(), n_keys);
    for p in 0..right.n_posts() {
        for (ia, _) in right_a.row(p) {
            for (ib, _) in right_b.row(p) {
                if let Some(&id) = key_ids.get(&(ia, ib)) {
                    c2.push(p, id, 1.0)?;
                }
            }
        }
    }
    authored_key_counts(left, right, &c1.to_csr(), &c2.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, FeatureSet};
    use crate::delta::{DeltaCatalogCounts, NodeKind as StoreNode};
    use crate::diagram::Diagram;
    use hetnet::{AnchorLink, HetNetBuilder, LocationId, TimestampId, UserId};
    use sparsela::Threading;

    /// Hand-built 3+3-user world where every count is checkable by hand.
    ///
    /// Left: u0 -> u1, u2 -> u1; u0 writes p0 at (loc0, ts0).
    /// Right: v0 -> v1, v2 -> v1; v0 writes q0 at (loc0, ts0),
    ///        v2 writes q1 at (loc0, ts1).
    /// Training anchor: (u1, v1).
    fn tiny_world() -> (hetnet::HetNet, hetnet::HetNet, CsrMatrix) {
        let mut l = HetNetBuilder::new("L", 3, 2, 2, 0);
        l.add_follow(UserId(0), UserId(1)).unwrap();
        l.add_follow(UserId(2), UserId(1)).unwrap();
        let p0 = l.add_post(UserId(0)).unwrap();
        l.add_checkin(p0, LocationId(0)).unwrap();
        l.add_at(p0, TimestampId(0)).unwrap();
        let left = l.build();

        let mut r = HetNetBuilder::new("R", 3, 2, 2, 0);
        r.add_follow(UserId(0), UserId(1)).unwrap();
        r.add_follow(UserId(2), UserId(1)).unwrap();
        let q0 = r.add_post(UserId(0)).unwrap();
        r.add_checkin(q0, LocationId(0)).unwrap();
        r.add_at(q0, TimestampId(0)).unwrap();
        let q1 = r.add_post(UserId(2)).unwrap();
        r.add_checkin(q1, LocationId(0)).unwrap();
        r.add_at(q1, TimestampId(1)).unwrap();
        let right = r.build();

        let anchor =
            hetnet::aligned::anchor_matrix(3, 3, &[AnchorLink::new(UserId(1), UserId(1))]).unwrap();
        (left, right, anchor)
    }

    /// The full catalog counted over `tiny_world`.
    fn tiny_store() -> DeltaCatalogCounts {
        let (l, r, a) = tiny_world();
        DeltaCatalogCounts::build(
            &l,
            &r,
            a,
            &Catalog::new(FeatureSet::Full),
            Threading::Serial,
        )
        .unwrap()
    }

    /// The store node that materializes `d`.
    fn node(store: &DeltaCatalogCounts, d: &Diagram) -> usize {
        store.order.iter().position(|x| x == d).unwrap()
    }

    fn count<'s>(store: &'s DeltaCatalogCounts, d: &Diagram) -> &'s CsrMatrix {
        &store.counts[node(store, d)]
    }

    #[test]
    fn p1_counts_common_anchored_followees() {
        let s = tiny_store();
        let c = count(&s, &Diagram::Social(SocialPathId::P1));
        // u0 follows u1 ~ v1; v0 and v2 follow v1 → pairs (0,0), (0,2) and
        // likewise for u2.
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 2), 1.0);
        assert_eq!(c.get(2, 0), 1.0);
        assert_eq!(c.get(2, 2), 1.0);
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.get(1, 1), 0.0);
    }

    #[test]
    fn p2_is_empty_without_anchored_followers() {
        let s = tiny_store();
        // The anchored user u1/v1 follows nobody, so "common anchored
        // follower" has no instances anywhere.
        let c = count(&s, &Diagram::Social(SocialPathId::P2));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn p5_p6_count_shared_attributes() {
        let s = tiny_store();
        let ts = count(&s, &Diagram::Attr(AttrPathId::Timestamp));
        // p0(ts0) matches q0(ts0) only → authors (u0, v0).
        assert_eq!(ts.get(0, 0), 1.0);
        assert_eq!(ts.get(0, 2), 0.0);
        let loc = count(&s, &Diagram::Attr(AttrPathId::Location));
        // p0(loc0) matches q0 and q1 → (u0,v0) and (u0,v2).
        assert_eq!(loc.get(0, 0), 1.0);
        assert_eq!(loc.get(0, 2), 1.0);
    }

    #[test]
    fn psi2_requires_joint_place_and_time() {
        let s = tiny_store();
        let c = count(&s, &Diagram::psi2());
        // Only q0 shares BOTH the location and the timestamp with p0. The
        // (u0, v2) pair — same place, different moment — is the paper's
        // "dislocated" false signal and must vanish here.
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 2), 0.0);
    }

    #[test]
    fn both_attr_strategies_agree_on_tiny_world() {
        // The composite-key join equals the post×post definition
        // W¹ · (S_a ⊙ S_b) · W²ᵀ, with S_x = C¹ₓ · C²ₓᵀ the post pairs
        // sharing attribute x.
        let (l, r, _) = tiny_world();
        let (a, b) = (AttrPathId::Timestamp, AttrPathId::Location);
        let shared = |x| {
            let k = attr_link(x);
            spgemm(
                l.adjacency(k, Direction::Forward),
                r.adjacency(k, Direction::Reverse),
            )
            .unwrap()
        };
        let joint = shared(a).hadamard(&shared(b)).unwrap();
        let w1 = l.adjacency(LinkKind::Write, Direction::Forward);
        let w2t = r.adjacency(LinkKind::Write, Direction::Reverse);
        let post_by_post = spgemm(&spgemm(w1, &joint).unwrap(), w2t).unwrap();
        assert_eq!(attr_pair(&l, &r, a, b).unwrap(), post_by_post);
    }

    #[test]
    fn stack_multiplies_pointwise() {
        let s = tiny_store();
        let p1 = count(&s, &Diagram::Social(SocialPathId::P1));
        let p5 = count(&s, &Diagram::Attr(AttrPathId::Timestamp));
        let stack = count(
            &s,
            &Diagram::Stack(vec![
                Diagram::Social(SocialPathId::P1),
                Diagram::Attr(AttrPathId::Timestamp),
            ]),
        );
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(stack.get(i, j), p1.get(i, j) * p5.get(i, j));
            }
        }
    }

    #[test]
    fn stack_reuses_cached_factors() {
        // Ψ3 = P1 × Ψ2 is one Hadamard over the nodes that already hold
        // P1 and Ψ2, never a second product chain for either.
        let s = tiny_store();
        let psi3 = node(&s, &Diagram::psi3());
        let want = vec![
            node(&s, &Diagram::Social(SocialPathId::P1)),
            node(&s, &Diagram::psi2()),
        ];
        assert!(matches!(&s.kinds[psi3], StoreNode::Stack(parts) if *parts == want));
        assert!(want.iter().all(|&p| p < psi3), "parts precede the stack");
    }

    #[test]
    fn degenerate_pairs_equal_paths() {
        let (l, r, a) = tiny_world();
        let s = tiny_store();
        let (lf, rf) = social_factors(&l, &r, SocialPathId::P1, SocialPathId::P1).unwrap();
        let pair = spgemm(&spgemm(&lf, &a).unwrap(), &rf).unwrap();
        assert_eq!(&pair, count(&s, &Diagram::Social(SocialPathId::P1)));
        let apair = attr_pair(&l, &r, AttrPathId::Location, AttrPathId::Location).unwrap();
        assert_eq!(&apair, count(&s, &Diagram::Attr(AttrPathId::Location)));
    }

    #[test]
    fn constructor_validates_shapes() {
        let (l, r, _) = tiny_world();
        let bad = CsrMatrix::zeros(2, 3);
        let catalog = Catalog::new(FeatureSet::MetaPathsOnly);
        assert!(matches!(
            DeltaCatalogCounts::build(&l, &r, bad, &catalog, Threading::Serial),
            Err(EngineError::AnchorShape { .. })
        ));
    }

    #[test]
    fn constructor_validates_attribute_universes() {
        let (l, _, _) = tiny_world();
        let other = HetNetBuilder::new("R2", 3, 5, 2, 0).build();
        let anchor = CsrMatrix::zeros(3, 3);
        let catalog = Catalog::new(FeatureSet::MetaPathsOnly);
        assert!(matches!(
            DeltaCatalogCounts::build(&l, &other, anchor, &catalog, Threading::Serial),
            Err(EngineError::AttributeUniverseMismatch {
                kind: NodeKind::Location,
                ..
            })
        ));
    }

    #[test]
    fn anchor_chain_factors_reproduce_counts() {
        let (l, r, a) = tiny_world();
        let s = tiny_store();
        // Every social path and pair factors as L·A·R.
        for (ii, &i) in SocialPathId::ALL.iter().enumerate() {
            for &j in &SocialPathId::ALL[ii..] {
                let (lf, rf) = social_factors(&l, &r, i, j).unwrap();
                let lar = spgemm(&spgemm(&lf, &a).unwrap(), &rf).unwrap();
                let d = if i == j {
                    Diagram::Social(i)
                } else {
                    Diagram::SocialPair(i, j)
                };
                assert_eq!(&lar, count(&s, &d), "factor chain mismatch for {d}");
                assert!(matches!(s.kinds[node(&s, &d)], StoreNode::AnchorChain(_)));
            }
        }
        // Anchor-free diagrams do not factor through A.
        for d in [Diagram::Attr(AttrPathId::Location), Diagram::psi2()] {
            assert!(matches!(s.kinds[node(&s, &d)], StoreNode::AnchorFree));
        }
        assert!(matches!(
            s.kinds[node(&s, &Diagram::psi3())],
            StoreNode::Stack(_)
        ));
    }

    #[test]
    fn error_display() {
        let e = EngineError::AnchorShape {
            got: (1, 2),
            want: (3, 4),
        };
        assert!(e.to_string().contains("1x2"));
        let e = EngineError::AttributeUniverseMismatch {
            kind: NodeKind::Word,
            left: 1,
            right: 2,
        };
        assert!(e.to_string().contains("Word"));
        let e = EngineError::from(SparseError::InvalidStructure("bad".into()));
        assert!(e.to_string().contains("bad"));
    }
}
