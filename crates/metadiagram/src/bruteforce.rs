//! Exhaustive instance enumerators — the ground truth the store's counts
//! are verified against.
//!
//! These walk concrete nodes and count diagram instances literally, with no
//! linear algebra. Complexity is unbounded polynomial in network size; they
//! exist solely for tests on tiny worlds and for the doc examples.

use crate::diagram::{AttrPathId, Diagram, SocialPathId};
use hetnet::{AnchorLink, Direction, HetNet, LinkKind, UserId};
use sparsela::DenseMatrix;

/// Neighbors of user `u` along a follow step in `dir`.
fn follow_neighbors(net: &HetNet, u: usize, dir: Direction) -> Vec<usize> {
    net.adjacency(LinkKind::Follow, dir)
        .row(u)
        .map(|(v, _)| v)
        .collect()
}

/// Left/right step directions of a social path, mirroring
/// the step matrices of [`crate::count`] (independent re-derivation from
/// Table I).
fn social_dirs(p: SocialPathId) -> (Direction, Direction) {
    // (how u1 relates to x1, how x2 relates to u2 as a matrix from x2)
    match p {
        // P1: u1 -f-> x1 … u2 -f-> x2 (x2→u2 is the reverse adjacency).
        SocialPathId::P1 => (Direction::Forward, Direction::Reverse),
        // P2: x1 -f-> u1 … x2 -f-> u2.
        SocialPathId::P2 => (Direction::Reverse, Direction::Forward),
        // P3: u1 -f-> x1 … x2 -f-> u2.
        SocialPathId::P3 => (Direction::Forward, Direction::Forward),
        // P4: x1 -f-> u1 … u2 -f-> x2.
        SocialPathId::P4 => (Direction::Reverse, Direction::Reverse),
    }
}

/// Instance counts of a social meta path by enumeration over anchors.
pub fn social_path_counts(
    left: &HetNet,
    right: &HetNet,
    anchors: &[AnchorLink],
    p: SocialPathId,
) -> DenseMatrix {
    let (ldir, rdir) = social_dirs(p);
    let mut c = DenseMatrix::zeros(left.n_users(), right.n_users());
    for a in anchors {
        // u1 --ldir--> x1 means: x1's neighbors along the *flipped* left dir.
        let u1s = follow_neighbors(left, a.left.index(), ldir.flip());
        let u2s = follow_neighbors(right, a.right.index(), rdir);
        for &u1 in &u1s {
            for &u2 in &u2s {
                c[(u1, u2)] += 1.0;
            }
        }
    }
    c
}

/// Instance counts of a social middle-stacking Ψ(Pi × Pj): both paths share
/// the anchored intermediate pair, so `u1` must relate to `x1` along both
/// left steps and `u2` to `x2` along both right steps.
pub fn social_pair_counts(
    left: &HetNet,
    right: &HetNet,
    anchors: &[AnchorLink],
    i: SocialPathId,
    j: SocialPathId,
) -> DenseMatrix {
    let (li, ri) = social_dirs(i);
    let (lj, rj) = social_dirs(j);
    let mut c = DenseMatrix::zeros(left.n_users(), right.n_users());
    for a in anchors {
        let u1s: Vec<usize> = (0..left.n_users())
            .filter(|&u1| {
                has_follow(left, u1, a.left.index(), li) && has_follow(left, u1, a.left.index(), lj)
            })
            .collect();
        let u2s: Vec<usize> = (0..right.n_users())
            .filter(|&u2| {
                has_follow_from(right, a.right.index(), u2, ri)
                    && has_follow_from(right, a.right.index(), u2, rj)
            })
            .collect();
        for &u1 in &u1s {
            for &u2 in &u2s {
                c[(u1, u2)] += 1.0;
            }
        }
    }
    c
}

/// Does `u1` relate to `x1` along a left step of direction `dir`?
/// (`Forward` = `u1` follows `x1`.)
fn has_follow(net: &HetNet, u1: usize, x1: usize, dir: Direction) -> bool {
    match dir {
        Direction::Forward => net.follows(UserId::from_index(u1), UserId::from_index(x1)),
        Direction::Reverse => net.follows(UserId::from_index(x1), UserId::from_index(u1)),
    }
}

/// Does `x2` relate to `u2` along a right step matrix of direction `dir`?
/// (`Forward` = `x2` follows `u2`; `Reverse` = `u2` follows `x2`.)
fn has_follow_from(net: &HetNet, x2: usize, u2: usize, dir: Direction) -> bool {
    match dir {
        Direction::Forward => net.follows(UserId::from_index(x2), UserId::from_index(u2)),
        Direction::Reverse => net.follows(UserId::from_index(u2), UserId::from_index(x2)),
    }
}

fn attr_link(a: AttrPathId) -> LinkKind {
    match a {
        AttrPathId::Timestamp => LinkKind::At,
        AttrPathId::Location => LinkKind::Checkin,
    }
}

/// Shared-attribute multiplicity of a post pair.
fn shared_attrs(left: &HetNet, right: &HetNet, p1: usize, p2: usize, a: AttrPathId) -> usize {
    let kind = attr_link(a);
    let l: Vec<usize> = left
        .adjacency(kind, Direction::Forward)
        .row(p1)
        .map(|(v, _)| v)
        .collect();
    right
        .adjacency(kind, Direction::Forward)
        .row(p2)
        .filter(|(v, _)| l.contains(v))
        .count()
}

/// Instance counts of an attribute meta path by post-pair enumeration.
pub fn attr_path_counts(left: &HetNet, right: &HetNet, a: AttrPathId) -> DenseMatrix {
    let mut c = DenseMatrix::zeros(left.n_users(), right.n_users());
    for p1 in 0..left.n_posts() {
        let author1 = match left.author_of(hetnet::PostId::from_index(p1)) {
            Some(u) => u.index(),
            None => continue,
        };
        for p2 in 0..right.n_posts() {
            let author2 = match right.author_of(hetnet::PostId::from_index(p2)) {
                Some(u) => u.index(),
                None => continue,
            };
            let m = shared_attrs(left, right, p1, p2, a);
            if m > 0 {
                c[(author1, author2)] += m as f64;
            }
        }
    }
    c
}

/// Instance counts of an attribute middle-stacking Ψ(Pa × Pb): the post pair
/// must share both attribute types; multiplicities multiply (each choice of
/// shared `a`-attribute and shared `b`-attribute is one instance).
pub fn attr_pair_counts(
    left: &HetNet,
    right: &HetNet,
    a: AttrPathId,
    b: AttrPathId,
) -> DenseMatrix {
    if a == b {
        return attr_path_counts(left, right, a);
    }
    let mut c = DenseMatrix::zeros(left.n_users(), right.n_users());
    for p1 in 0..left.n_posts() {
        let author1 = match left.author_of(hetnet::PostId::from_index(p1)) {
            Some(u) => u.index(),
            None => continue,
        };
        for p2 in 0..right.n_posts() {
            let author2 = match right.author_of(hetnet::PostId::from_index(p2)) {
                Some(u) => u.index(),
                None => continue,
            };
            let ma = shared_attrs(left, right, p1, p2, a);
            let mb = shared_attrs(left, right, p1, p2, b);
            if ma > 0 && mb > 0 {
                c[(author1, author2)] += (ma * mb) as f64;
            }
        }
    }
    c
}

/// Instance counts of any diagram by exhaustive enumeration.
pub fn diagram_counts(
    left: &HetNet,
    right: &HetNet,
    anchors: &[AnchorLink],
    d: &Diagram,
) -> DenseMatrix {
    match d {
        Diagram::Social(p) => social_path_counts(left, right, anchors, *p),
        Diagram::Attr(a) => attr_path_counts(left, right, *a),
        Diagram::SocialPair(i, j) => {
            if i == j {
                social_path_counts(left, right, anchors, *i)
            } else {
                social_pair_counts(left, right, anchors, *i, *j)
            }
        }
        Diagram::AttrPair(a, b) => attr_pair_counts(left, right, *a, *b),
        Diagram::Stack(parts) => {
            let mut acc: Option<DenseMatrix> = None;
            for part in parts {
                let c = diagram_counts(left, right, anchors, part);
                acc = Some(match acc {
                    None => c,
                    Some(prev) => {
                        let mut out = DenseMatrix::zeros(prev.nrows(), prev.ncols());
                        for r in 0..prev.nrows() {
                            for col in 0..prev.ncols() {
                                out[(r, col)] = prev[(r, col)] * c[(r, col)];
                            }
                        }
                        out
                    }
                });
            }
            acc.expect("Stack diagrams have at least one branch")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetnet::{HetNetBuilder, LocationId, TimestampId};

    /// Same tiny world as the `count` tests, so the hand-derived expectations
    /// can be compared one-to-one.
    fn tiny_world() -> (HetNet, HetNet, Vec<AnchorLink>) {
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

        (left, right, vec![AnchorLink::new(UserId(1), UserId(1))])
    }

    #[test]
    fn p1_bruteforce_matches_hand_count() {
        let (l, r, a) = tiny_world();
        let c = social_path_counts(&l, &r, &a, SocialPathId::P1);
        assert_eq!(c[(0, 0)], 1.0);
        assert_eq!(c[(0, 2)], 1.0);
        assert_eq!(c[(2, 0)], 1.0);
        assert_eq!(c[(2, 2)], 1.0);
        assert_eq!(c[(1, 1)], 0.0);
    }

    #[test]
    fn psi2_bruteforce_rejects_dislocation() {
        let (l, r, _) = tiny_world();
        let c = attr_pair_counts(&l, &r, AttrPathId::Timestamp, AttrPathId::Location);
        assert_eq!(c[(0, 0)], 1.0);
        assert_eq!(c[(0, 2)], 0.0, "dislocated pair must not count");
    }

    #[test]
    fn attr_multiplicities_multiply() {
        // One left post with 2 locations and 1 timestamp; one right post
        // sharing both locations and the timestamp → 2 × 1 = 2 instances.
        let mut l = HetNetBuilder::new("L", 1, 2, 1);
        let p = l.add_post(UserId(0)).unwrap();
        l.add_checkin(p, LocationId(0)).unwrap();
        l.add_checkin(p, LocationId(1)).unwrap();
        l.add_at(p, TimestampId(0)).unwrap();
        let left = l.build();
        let mut r = HetNetBuilder::new("R", 1, 2, 1);
        let q = r.add_post(UserId(0)).unwrap();
        r.add_checkin(q, LocationId(0)).unwrap();
        r.add_checkin(q, LocationId(1)).unwrap();
        r.add_at(q, TimestampId(0)).unwrap();
        let right = r.build();
        let c = attr_pair_counts(&left, &right, AttrPathId::Timestamp, AttrPathId::Location);
        assert_eq!(c[(0, 0)], 2.0);
    }

    #[test]
    fn stack_bruteforce_multiplies() {
        let (l, r, a) = tiny_world();
        let d = Diagram::Stack(vec![
            Diagram::Social(SocialPathId::P1),
            Diagram::Attr(AttrPathId::Location),
        ]);
        let c = diagram_counts(&l, &r, &a, &d);
        let p1 = social_path_counts(&l, &r, &a, SocialPathId::P1);
        let p6 = attr_path_counts(&l, &r, AttrPathId::Location);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c[(i, j)], p1[(i, j)] * p6[(i, j)]);
            }
        }
    }

    #[test]
    fn no_anchors_means_no_social_instances() {
        let (l, r, _) = tiny_world();
        let c = social_path_counts(&l, &r, &[], SocialPathId::P1);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }
}
