//! Immutable attributed heterogeneous network storage.
//!
//! A [`HetNet`] is produced by [`crate::HetNetBuilder`] and stores, per link
//! kind, a binary CSR adjacency matrix in both directions. The count engine
//! pulls these matrices directly; traversal helpers are provided for the
//! brute-force verifiers and the generator.
//!
//! A network also keeps what a caller derives from it together with a
//! partner network ([`HetNet::pair_memo`]), for as long as both live.

use crate::ids::{LocationId, PostId, TimestampId, UserId};
use crate::schema::{Direction, LinkKind, NodeKind};
use sparsela::CsrMatrix;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// An immutable attributed heterogeneous social network.
#[derive(Debug, Clone)]
pub struct HetNet {
    pub(crate) name: String,
    pub(crate) n_users: usize,
    pub(crate) n_posts: usize,
    pub(crate) n_locations: usize,
    pub(crate) n_timestamps: usize,
    /// Follow adjacency, `U × U`; `follow[u][v] = 1` iff `u` follows `v`.
    pub(crate) follow: CsrMatrix,
    /// Authorship, `U × P`.
    pub(crate) write: CsrMatrix,
    /// Post→timestamp, `P × T`.
    pub(crate) at: CsrMatrix,
    /// Post→location, `P × L`.
    pub(crate) checkin: CsrMatrix,
    // Reverse (transposed) adjacency, built once.
    pub(crate) follow_rev: CsrMatrix,
    pub(crate) write_rev: CsrMatrix,
    pub(crate) at_rev: CsrMatrix,
    pub(crate) checkin_rev: CsrMatrix,
    /// Values derived from this network and a partner.
    pub(crate) memo: PairMemo,
}

/// Values derived from one network together with a partner network,
/// kept on the first and keyed by a `Weak` to the partner's identity, so
/// an entry lives no longer than either network. A clone is a new network
/// identity and starts empty.
pub(crate) struct PairMemo {
    /// This network's identity, which partners key their entries by.
    id: Arc<()>,
    entries: Mutex<Vec<MemoEntry>>,
}

/// A partner's identity and the value kept for it.
type MemoEntry = (Weak<()>, Arc<dyn Any + Send + Sync>);

impl PairMemo {
    pub(crate) fn new() -> Self {
        PairMemo {
            id: Arc::new(()),
            entries: Mutex::new(Vec::new()),
        }
    }
}

impl Clone for PairMemo {
    fn clone(&self) -> Self {
        PairMemo::new()
    }
}

impl fmt::Debug for PairMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("PairMemo")
            .field("entries", &entries.len())
            .finish()
    }
}

impl HetNet {
    /// The `T` this network keeps for the pair (`self`, `partner`),
    /// created by `T::default()` on first use. Every call for one pair and
    /// one `T` returns the same value, until either network is dropped; a
    /// clone of either network is a new pair. Entries whose partner is
    /// gone are dropped on the next call. The lock is held only to find or
    /// insert the entry, and a lock poisoned by a panic elsewhere is
    /// recovered: the list is valid after every step.
    pub fn pair_memo<T: Any + Send + Sync + Default>(&self, partner: &HetNet) -> Arc<T> {
        let key = Arc::as_ptr(&partner.memo.id);
        let mut entries = self
            .memo
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        entries.retain(|(partner, _)| partner.strong_count() > 0);
        let found = entries
            .iter()
            .filter(|(partner, _)| partner.as_ptr() == key)
            .find_map(|(_, value)| Arc::clone(value).downcast::<T>().ok());
        found.unwrap_or_else(|| {
            let value = Arc::new(T::default());
            entries.push((Arc::downgrade(&partner.memo.id), value.clone()));
            value
        })
    }

    /// Network display name (e.g. `"twitter"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Population of a node kind.
    pub fn count(&self, kind: NodeKind) -> usize {
        match kind {
            NodeKind::User => self.n_users,
            NodeKind::Post => self.n_posts,
            NodeKind::Location => self.n_locations,
            NodeKind::Timestamp => self.n_timestamps,
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of posts.
    pub fn n_posts(&self) -> usize {
        self.n_posts
    }

    /// The binary adjacency matrix of `kind` traversed in `dir`.
    ///
    /// `Forward` returns the `source-kind × target-kind` matrix; `Reverse`
    /// the transpose (precomputed).
    pub fn adjacency(&self, kind: LinkKind, dir: Direction) -> &CsrMatrix {
        match (kind, dir) {
            (LinkKind::Follow, Direction::Forward) => &self.follow,
            (LinkKind::Follow, Direction::Reverse) => &self.follow_rev,
            (LinkKind::Write, Direction::Forward) => &self.write,
            (LinkKind::Write, Direction::Reverse) => &self.write_rev,
            (LinkKind::At, Direction::Forward) => &self.at,
            (LinkKind::At, Direction::Reverse) => &self.at_rev,
            (LinkKind::Checkin, Direction::Forward) => &self.checkin,
            (LinkKind::Checkin, Direction::Reverse) => &self.checkin_rev,
        }
    }

    /// Number of stored links of `kind`.
    pub fn link_count(&self, kind: LinkKind) -> usize {
        self.adjacency(kind, Direction::Forward).nnz()
    }

    /// Users followed by `u`.
    pub fn followees(&self, u: UserId) -> impl Iterator<Item = UserId> + '_ {
        self.follow
            .row(u.index())
            .map(|(c, _)| UserId::from_index(c))
    }

    /// Users following `u`.
    pub fn followers(&self, u: UserId) -> impl Iterator<Item = UserId> + '_ {
        self.follow_rev
            .row(u.index())
            .map(|(c, _)| UserId::from_index(c))
    }

    /// Posts written by `u`.
    pub fn posts_of(&self, u: UserId) -> impl Iterator<Item = PostId> + '_ {
        self.write
            .row(u.index())
            .map(|(c, _)| PostId::from_index(c))
    }

    /// The author of post `p`, if any. Well-formed networks give every post
    /// exactly one author; the builder enforces at least one write link per
    /// post only if requested.
    pub fn author_of(&self, p: PostId) -> Option<UserId> {
        self.write_rev
            .row(p.index())
            .next()
            .map(|(c, _)| UserId::from_index(c))
    }

    /// Timestamps attached to post `p`.
    pub fn timestamps_of(&self, p: PostId) -> impl Iterator<Item = TimestampId> + '_ {
        self.at
            .row(p.index())
            .map(|(c, _)| TimestampId::from_index(c))
    }

    /// Locations attached to post `p`.
    pub fn locations_of(&self, p: PostId) -> impl Iterator<Item = LocationId> + '_ {
        self.checkin
            .row(p.index())
            .map(|(c, _)| LocationId::from_index(c))
    }

    /// True when `u` follows `v`.
    pub fn follows(&self, u: UserId, v: UserId) -> bool {
        // srclint: allow(float_eq, reason = "the follow matrix stores exact 0.0/1.0 entries; this is a membership test")
        self.follow.get(u.index(), v.index()) != 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HetNetBuilder;

    fn tiny() -> HetNet {
        let mut b = HetNetBuilder::new("tiny", 3, 2, 2);
        b.add_follow(UserId(0), UserId(1)).unwrap();
        b.add_follow(UserId(1), UserId(0)).unwrap();
        b.add_follow(UserId(0), UserId(2)).unwrap();
        let p0 = b.add_post(UserId(0)).unwrap();
        let p1 = b.add_post(UserId(2)).unwrap();
        b.add_checkin(p0, LocationId(1)).unwrap();
        b.add_at(p0, TimestampId(0)).unwrap();
        b.add_checkin(p1, LocationId(0)).unwrap();
        b.add_at(p1, TimestampId(1)).unwrap();
        b.build()
    }

    #[test]
    fn counts_are_reported() {
        let n = tiny();
        assert_eq!(n.count(NodeKind::User), 3);
        assert_eq!(n.count(NodeKind::Post), 2);
        assert_eq!(n.count(NodeKind::Location), 2);
        assert_eq!(n.count(NodeKind::Timestamp), 2);
        assert_eq!(n.n_users(), 3);
        assert_eq!(n.n_posts(), 2);
        assert_eq!(n.name(), "tiny");
    }

    #[test]
    fn traversal_helpers() {
        let n = tiny();
        let f0: Vec<_> = n.followees(UserId(0)).collect();
        assert_eq!(f0, vec![UserId(1), UserId(2)]);
        let followers2: Vec<_> = n.followers(UserId(2)).collect();
        assert_eq!(followers2, vec![UserId(0)]);
        assert!(n.follows(UserId(1), UserId(0)));
        assert!(!n.follows(UserId(2), UserId(0)));
    }

    #[test]
    fn post_attribute_traversal() {
        let n = tiny();
        let posts: Vec<_> = n.posts_of(UserId(0)).collect();
        assert_eq!(posts, vec![PostId(0)]);
        assert_eq!(n.author_of(PostId(1)), Some(UserId(2)));
        assert_eq!(
            n.locations_of(PostId(0)).collect::<Vec<_>>(),
            vec![LocationId(1)]
        );
        assert_eq!(
            n.timestamps_of(PostId(1)).collect::<Vec<_>>(),
            vec![TimestampId(1)]
        );
    }

    #[test]
    fn adjacency_reverse_is_transpose() {
        let n = tiny();
        for kind in LinkKind::ALL {
            let fwd = n.adjacency(kind, Direction::Forward);
            let rev = n.adjacency(kind, Direction::Reverse);
            assert_eq!(&fwd.transpose(), rev, "reverse of {kind:?}");
        }
    }

    #[test]
    fn link_counts() {
        let n = tiny();
        assert_eq!(n.link_count(LinkKind::Follow), 3);
        assert_eq!(n.link_count(LinkKind::Write), 2);
        assert_eq!(n.link_count(LinkKind::Checkin), 2);
        assert_eq!(n.link_count(LinkKind::At), 2);
    }

    #[derive(Default)]
    struct Tag(Mutex<u32>);

    #[test]
    fn pair_memo_is_one_value_per_live_pair() {
        let (a, b) = (tiny(), tiny());
        let ab = a.pair_memo::<Tag>(&b);
        *ab.0.lock().unwrap() = 7;
        assert!(Arc::ptr_eq(&ab, &a.pair_memo::<Tag>(&b)));
        // Kept on the first network, per partner, per type.
        assert!(!Arc::ptr_eq(&ab, &b.pair_memo::<Tag>(&a)));
        assert!(!Arc::ptr_eq(&ab, &a.pair_memo::<Tag>(&a)));
        assert_eq!(*a.pair_memo::<Mutex<u32>>(&b).lock().unwrap(), 0);
        // A clone is a new identity on either side.
        let a2 = a.clone();
        assert!(!Arc::ptr_eq(&ab, &a2.pair_memo::<Tag>(&b)));
        assert!(!Arc::ptr_eq(&ab, &a.pair_memo::<Tag>(&b.clone())));
        // An entry whose partner is gone is dropped on the next call.
        let weak = Arc::downgrade(&ab);
        drop((ab, b));
        assert!(weak.upgrade().is_some(), "kept until the next call");
        a.pair_memo::<Tag>(&a2);
        assert!(weak.upgrade().is_none(), "purged with its partner");
    }

    #[test]
    fn pair_memo_recovers_a_poisoned_lock() {
        let (a, b) = (tiny(), tiny());
        let kept = a.pair_memo::<Tag>(&b);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = a.memo.entries.lock().unwrap();
            panic!("poison the memo lock");
        }));
        assert!(poisoned.is_err() && a.memo.entries.is_poisoned());
        assert!(Arc::ptr_eq(&kept, &a.pair_memo::<Tag>(&b)));
        assert!(format!("{a:?}").contains("PairMemo"));
    }
}
