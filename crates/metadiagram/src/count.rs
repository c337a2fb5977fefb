//! The meta diagram count algebra.
//!
//! The **instance count matrix** of a [`crate::Diagram`] is
//! `C ∈ N^{|U⁽¹⁾| × |U⁽²⁾|}` where `C[i][j] = |P_Ψ(u⁽¹⁾ᵢ, u⁽²⁾ⱼ)|` — the
//! number of diagram instances connecting the user pair. The algebra:
//!
//! * **social meta paths** and **social middle-stackings** Ψ(Pi×Pj) count
//!   as SpGEMM chains `L · A · R` (PathSim-style counting): `A` is the
//!   anchor matrix and `SocialSteps::factors` gives the anchor-independent
//!   user×user step matrices, `L = Lᵢ ⊙ Lⱼ` and `R = Rᵢ ⊙ Rⱼ` for a pair;
//! * **attribute meta paths** and **attribute middle-stackings** Ψ(Pa×Pb)
//!   never touch `A`. They count as `UL · URᵀ`, where `attr_factors`
//!   contracts over the shared post pair by joining posts on composite
//!   `(attr_a, attr_b)` keys, so no post×post matrix is ever formed;
//! * **endpoint stackings** multiply branch counts pointwise (Lemma 1's
//!   sound direction).
//!
//! These are plain functions over the two networks that give each leaf's
//! factors. [`crate::delta::DeltaCatalogCounts::build`] is the one place
//! that counts a catalog: it counts every distinct diagram once in one
//! fused row pass ([`sparsela::fused_rows`]), a stack as the Hadamard of
//! its parts' rows (the paper's Lemma-2 reuse: Ψf²,a² = Ψf² ⊙ Ψa² costs
//! one Hadamard).

use crate::diagram::{AttrPathId, SocialPathId};
use hetnet::{Direction, HetNet, LinkKind, NodeKind};
use sparsela::{spgemm, CsrMatrix, SparseError};
use std::fmt;
use std::sync::OnceLock;

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
    for kind in [NodeKind::Location, NodeKind::Timestamp] {
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

/// The follow directions of a social path's per-network steps
/// `L[u1, x1]` and `R[x2, u2]`, such that `count = L · A · R`.
fn step_directions(p: SocialPathId) -> (Direction, Direction) {
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
    (ldir, rdir)
}

/// The social steps of one network pair. Every step is the follow
/// adjacency in one direction, so the Hadamards `Lᵢ ⊙ Lⱼ` of the six
/// social pairs take only three distinct direction pairs per side; each
/// is computed once, by the first pair that needs it.
pub(crate) struct SocialSteps<'n> {
    pub(crate) nets: [&'n HetNet; 2],
    /// Per side (left, right), per direction pair (both forward, mixed,
    /// both reverse).
    products: [[OnceLock<Result<CsrMatrix, SparseError>>; 3]; 2],
}

impl<'n> SocialSteps<'n> {
    pub(crate) fn new(left: &'n HetNet, right: &'n HetNet) -> Self {
        SocialSteps {
            nets: [left, right],
            products: Default::default(),
        }
    }

    /// The step of `side` (0 left, 1 right) for directions `a` and `b`:
    /// the adjacency itself when they agree on a path, else the
    /// Hadamard of both.
    fn step(
        &self,
        side: usize,
        a: Direction,
        b: Direction,
        same_path: bool,
    ) -> Result<CsrMatrix, SparseError> {
        let follow = |d| self.nets[side].adjacency(LinkKind::Follow, d);
        if same_path {
            return Ok(follow(a).clone());
        }
        let slot = match (a, b) {
            (Direction::Forward, Direction::Forward) => 0,
            (Direction::Reverse, Direction::Reverse) => 2,
            _ => 1,
        };
        // `x·y` and `y·x` are the same bits, so either order serves.
        self.products[side][slot]
            .get_or_init(|| follow(a).hadamard(follow(b)))
            .clone()
    }

    /// The anchor-chain factors `(L, R)` of the social middle-stacking
    /// Pi × Pj, so that its count is `L · A · R`. `Pi × Pi` degenerates to
    /// the path Pi on binary adjacency; otherwise `L = Lᵢ ⊙ Lⱼ` and
    /// `R = Rᵢ ⊙ Rⱼ`.
    ///
    /// The factors are anchor-independent, which makes anchor updates
    /// low-rank: `C(A + ΔA) = C(A) + L·ΔA·R` exactly (see
    /// [`sparsela::spgemm_lowrank`] and [`crate::delta`]).
    pub(crate) fn factors(
        &self,
        i: SocialPathId,
        j: SocialPathId,
    ) -> Result<(CsrMatrix, CsrMatrix), SparseError> {
        let ((li, ri), (lj, rj)) = (step_directions(i), step_directions(j));
        Ok((self.step(0, li, lj, i == j)?, self.step(1, ri, rj, i == j)?))
    }
}

fn attr_link(a: AttrPathId) -> LinkKind {
    match a {
        AttrPathId::Timestamp => LinkKind::At,
        AttrPathId::Location => LinkKind::Checkin,
    }
}

/// The factors of the attribute middle-stacking Pa × Pb: `UL = W¹·C¹`
/// (left users × keys) and `URᵀ = (W²·C²)ᵀ` (keys × right users), so that
/// its count is `UL · URᵀ` and instances are post pairs sharing **both**
/// attributes. `Pa × Pa` degenerates to the attribute path Pa, whose keys
/// are the attribute values themselves.
///
/// Otherwise posts are joined on composite `(attr_a, attr_b)` keys. This is
/// exactly the post×post product `W¹ · (S_a ⊙ S_b) · W²ᵀ` (the key space
/// is the Cartesian product of the per-post attribute sets) and never
/// forms a post×post matrix. The keys are the left posts' pairs, sorted
/// and deduplicated, numbered by rank ([`KeyTable`]); keys exclusive to
/// the right cannot take part in any instance and are dropped. Counts are
/// exact integers, so the numbering does not change a bit of the count.
pub(crate) fn attr_factors(
    left: &HetNet,
    right: &HetNet,
    a: AttrPathId,
    b: AttrPathId,
) -> Result<(CsrMatrix, CsrMatrix), SparseError> {
    let (ka, kb) = (attr_link(a), attr_link(b));
    let authored = |net: &HetNet, keys: &CsrMatrix| {
        spgemm(net.adjacency(LinkKind::Write, Direction::Forward), keys)
    };
    let (ul, ur) = if a == b {
        (
            authored(left, left.adjacency(ka, Direction::Forward))?,
            authored(right, right.adjacency(ka, Direction::Forward))?,
        )
    } else {
        let keys = KeyTable::of(left, ka, kb);
        (
            authored(left, &keys.incidence(left, ka, kb))?,
            authored(right, &keys.incidence(right, ka, kb))?,
        )
    };
    Ok((ul, ur.transpose()))
}

/// The composite `(attr_a, attr_b)` keys of one network's posts, sorted
/// and deduplicated, numbered by rank: key `id` is `(a, key_b[id])` for
/// `first[a] ≤ id < first[a + 1]`.
struct KeyTable {
    first: Vec<usize>,
    key_b: Vec<usize>,
}

impl KeyTable {
    /// The keys of `net`'s posts. Each post's `attr_b` values are bucketed
    /// by its `attr_a` values (a counting sort on `attr_a`), and each small
    /// bucket is then sorted and deduplicated.
    fn of(net: &HetNet, ka: LinkKind, kb: LinkKind) -> Self {
        let (sa, sb) = (
            net.adjacency(ka, Direction::Forward),
            net.adjacency(kb, Direction::Forward),
        );
        let mut first = vec![0usize; sa.ncols() + 1];
        for p in 0..net.n_posts() {
            for (ia, _) in sa.row(p) {
                first[ia + 1] += sb.row_nnz(p);
            }
        }
        for a in 0..sa.ncols() {
            first[a + 1] += first[a];
        }
        let mut fill = first.clone();
        let mut key_b = vec![0usize; first[sa.ncols()]];
        for p in 0..net.n_posts() {
            for (ia, _) in sa.row(p) {
                for (ib, _) in sb.row(p) {
                    key_b[fill[ia]] = ib;
                    fill[ia] += 1;
                }
            }
        }
        // Sort and deduplicate each bucket, compacting in place.
        let mut len = 0;
        for a in 0..sa.ncols() {
            let bucket = first[a]..first[a + 1];
            first[a] = len;
            key_b[bucket.clone()].sort_unstable();
            let mut last = None;
            for k in bucket {
                let ib = key_b[k];
                if last != Some(ib) {
                    key_b[len] = ib;
                    len += 1;
                    last = Some(ib);
                }
            }
        }
        first[sa.ncols()] = len;
        key_b.truncate(len);
        KeyTable { first, key_b }
    }

    /// The id of key `(ia, ib)`, if it is one.
    fn id(&self, ia: usize, ib: usize) -> Option<usize> {
        let (&lo, &hi) = (self.first.get(ia)?, self.first.get(ia + 1)?);
        self.key_b[lo..hi]
            .binary_search(&ib)
            .ok()
            .map(|pos| lo + pos)
    }

    /// The post × key incidence of `net`'s keys that are in this table. A
    /// post's pairs come in lexicographic order and an id is a rank, so
    /// each row is built in column order.
    fn incidence(&self, net: &HetNet, ka: LinkKind, kb: LinkKind) -> CsrMatrix {
        let (sa, sb) = (
            net.adjacency(ka, Direction::Forward),
            net.adjacency(kb, Direction::Forward),
        );
        let mut indptr = Vec::with_capacity(net.n_posts() + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        for p in 0..net.n_posts() {
            for (ia, _) in sa.row(p) {
                indices.extend(sb.row(p).filter_map(|(ib, _)| self.id(ia, ib)));
            }
            indptr.push(indices.len());
        }
        let values = vec![1.0; indices.len()];
        CsrMatrix::from_parts_unchecked(net.n_posts(), self.key_b.len(), indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, FeatureSet};
    use crate::delta::{DeltaCatalogCounts, Node as StoreNode};
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
        let mut l = HetNetBuilder::new("L", 3, 2, 2);
        l.add_follow(UserId(0), UserId(1)).unwrap();
        l.add_follow(UserId(2), UserId(1)).unwrap();
        let p0 = l.add_post(UserId(0)).unwrap();
        l.add_checkin(p0, LocationId(0)).unwrap();
        l.add_at(p0, TimestampId(0)).unwrap();
        let left = l.build();

        let mut r = HetNetBuilder::new("R", 3, 2, 2);
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

    /// The count `UL · URᵀ` of the attribute middle-stacking Pa × Pb.
    fn attr_pair(l: &HetNet, r: &HetNet, a: AttrPathId, b: AttrPathId) -> CsrMatrix {
        let (ul, urt) = attr_factors(l, r, a, b).unwrap();
        spgemm(&ul, &urt).unwrap()
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
        &store.nodes[node(store, d)].counted().count
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
        assert_eq!(attr_pair(&l, &r, a, b), post_by_post);
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
        assert!(matches!(&s.nodes[psi3], StoreNode::Stack(parts, _) if *parts == want));
        assert!(want.iter().all(|&p| p < psi3), "parts precede the stack");
    }

    #[test]
    fn degenerate_pairs_equal_paths() {
        let (l, r, a) = tiny_world();
        let s = tiny_store();
        let (lf, rf) = SocialSteps::new(&l, &r)
            .factors(SocialPathId::P1, SocialPathId::P1)
            .unwrap();
        let pair = spgemm(&spgemm(&lf, &a).unwrap(), &rf).unwrap();
        assert_eq!(&pair, count(&s, &Diagram::Social(SocialPathId::P1)));
        let apair = attr_pair(&l, &r, AttrPathId::Location, AttrPathId::Location);
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
        let other = HetNetBuilder::new("R2", 3, 5, 2).build();
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
        let steps = SocialSteps::new(&l, &r);
        for (ii, &i) in SocialPathId::ALL.iter().enumerate() {
            for &j in &SocialPathId::ALL[ii..] {
                let (lf, rf) = steps.factors(i, j).unwrap();
                let lar = spgemm(&spgemm(&lf, &a).unwrap(), &rf).unwrap();
                let d = if i == j {
                    Diagram::Social(i)
                } else {
                    Diagram::SocialPair(i, j)
                };
                assert_eq!(&lar, count(&s, &d), "factor chain mismatch for {d}");
                assert!(matches!(s.nodes[node(&s, &d)], StoreNode::AnchorChain(..)));
            }
        }
        // Anchor-free diagrams do not factor through A.
        for d in [Diagram::Attr(AttrPathId::Location), Diagram::psi2()] {
            assert!(matches!(s.nodes[node(&s, &d)], StoreNode::AnchorFree(_)));
        }
        assert!(matches!(
            s.nodes[node(&s, &Diagram::psi3())],
            StoreNode::Stack(..)
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
            kind: NodeKind::Timestamp,
            left: 1,
            right: 2,
        };
        assert!(e.to_string().contains("Timestamp"));
        let e = EngineError::from(SparseError::InvalidStructure("bad".into()));
        assert!(e.to_string().contains("bad"));
    }
}
