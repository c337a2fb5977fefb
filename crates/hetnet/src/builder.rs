//! Mutable builder for [`HetNet`].
//!
//! Edges are accumulated as triplets and finalized into binary CSR adjacency
//! (duplicates collapse to a single link — the networks are simple graphs
//! per link type, as in the paper's dataset).

use crate::error::{HetNetError, Result};
use crate::graph::{HetNet, PairMemo};
use crate::ids::{LocationId, PostId, TimestampId, UserId};
use crate::schema::NodeKind;
use sparsela::{CooMatrix, CsrMatrix};

/// Builder accumulating nodes and typed links for a [`HetNet`].
#[derive(Debug, Clone)]
pub struct HetNetBuilder {
    name: String,
    n_users: usize,
    n_posts: usize,
    n_locations: usize,
    n_timestamps: usize,
    follow: Vec<(u32, u32)>,
    write: Vec<(u32, u32)>,
    at: Vec<(u32, u32)>,
    checkin: Vec<(u32, u32)>,
}

impl HetNetBuilder {
    /// Starts a builder with fixed attribute universes.
    ///
    /// `n_users` user nodes exist immediately; posts are appended through
    /// [`HetNetBuilder::add_post`]. Location/timestamp universes are
    /// fixed up front because they are *shared* across aligned networks
    /// (paper §II-A: "lots of attribute types can be shared across
    /// networks").
    pub fn new(
        name: impl Into<String>,
        n_users: usize,
        n_locations: usize,
        n_timestamps: usize,
    ) -> Self {
        HetNetBuilder {
            name: name.into(),
            n_users,
            n_posts: 0,
            n_locations,
            n_timestamps,
            follow: Vec::new(),
            write: Vec::new(),
            at: Vec::new(),
            checkin: Vec::new(),
        }
    }

    fn check_user(&self, u: UserId) -> Result<()> {
        if u.index() >= self.n_users {
            return Err(HetNetError::NodeOutOfRange {
                kind: NodeKind::User,
                index: u.index(),
                count: self.n_users,
            });
        }
        Ok(())
    }

    fn check_post(&self, p: PostId) -> Result<()> {
        if p.index() >= self.n_posts {
            return Err(HetNetError::NodeOutOfRange {
                kind: NodeKind::Post,
                index: p.index(),
                count: self.n_posts,
            });
        }
        Ok(())
    }

    /// Number of users declared.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of posts added so far.
    pub fn n_posts(&self) -> usize {
        self.n_posts
    }

    /// Adds a follow link `u → v`. Self-loops are rejected (a user cannot
    /// follow themself in either source platform).
    pub fn add_follow(&mut self, u: UserId, v: UserId) -> Result<()> {
        self.check_user(u)?;
        self.check_user(v)?;
        if u == v {
            return Err(HetNetError::NotOneToOne {
                detail: format!("self-follow on user {}", u.0),
            });
        }
        self.follow.push((u.0, v.0));
        Ok(())
    }

    /// Creates a new post authored by `author` and returns its id.
    pub fn add_post(&mut self, author: UserId) -> Result<PostId> {
        self.check_user(author)?;
        let p = PostId::from_index(self.n_posts);
        self.n_posts += 1;
        self.write.push((author.0, p.0));
        Ok(p)
    }

    /// Attaches a timestamp attribute to a post.
    pub fn add_at(&mut self, p: PostId, t: TimestampId) -> Result<()> {
        self.check_post(p)?;
        if t.index() >= self.n_timestamps {
            return Err(HetNetError::NodeOutOfRange {
                kind: NodeKind::Timestamp,
                index: t.index(),
                count: self.n_timestamps,
            });
        }
        self.at.push((p.0, t.0));
        Ok(())
    }

    /// Attaches a location attribute to a post.
    pub fn add_checkin(&mut self, p: PostId, l: LocationId) -> Result<()> {
        self.check_post(p)?;
        if l.index() >= self.n_locations {
            return Err(HetNetError::NodeOutOfRange {
                kind: NodeKind::Location,
                index: l.index(),
                count: self.n_locations,
            });
        }
        self.checkin.push((p.0, l.0));
        Ok(())
    }

    fn to_binary_csr(edges: &[(u32, u32)], nrows: usize, ncols: usize) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(nrows, ncols, edges.len());
        for &(s, t) in edges {
            coo.push(s as usize, t as usize, 1.0)
                .expect("builder pre-validated endpoint ranges");
        }
        // Duplicate edges fold by summation; binarize to a simple graph.
        coo.to_csr().binarized()
    }

    /// Finalizes into an immutable [`HetNet`].
    pub fn build(self) -> HetNet {
        let follow = Self::to_binary_csr(&self.follow, self.n_users, self.n_users);
        let write = Self::to_binary_csr(&self.write, self.n_users, self.n_posts);
        let at = Self::to_binary_csr(&self.at, self.n_posts, self.n_timestamps);
        let checkin = Self::to_binary_csr(&self.checkin, self.n_posts, self.n_locations);
        let follow_rev = follow.transpose();
        let write_rev = write.transpose();
        let at_rev = at.transpose();
        let checkin_rev = checkin.transpose();
        HetNet {
            name: self.name,
            n_users: self.n_users,
            n_posts: self.n_posts,
            n_locations: self.n_locations,
            n_timestamps: self.n_timestamps,
            follow,
            write,
            at,
            checkin,
            follow_rev,
            write_rev,
            at_rev,
            checkin_rev,
            memo: PairMemo::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut b = HetNetBuilder::new("t", 2, 1, 1);
        assert!(b.add_follow(UserId(0), UserId(5)).is_err());
        assert!(b.add_post(UserId(9)).is_err());
        let p = b.add_post(UserId(0)).unwrap();
        assert!(b.add_at(p, TimestampId(3)).is_err());
        assert!(b.add_checkin(p, LocationId(1)).is_err());
        assert!(b.add_at(PostId(7), TimestampId(0)).is_err());
    }

    #[test]
    fn rejects_self_follow() {
        let mut b = HetNetBuilder::new("t", 2, 0, 0);
        assert!(b.add_follow(UserId(1), UserId(1)).is_err());
    }

    #[test]
    fn duplicate_links_collapse_to_binary() {
        let mut b = HetNetBuilder::new("t", 2, 1, 1);
        b.add_follow(UserId(0), UserId(1)).unwrap();
        b.add_follow(UserId(0), UserId(1)).unwrap();
        let p = b.add_post(UserId(1)).unwrap();
        b.add_checkin(p, LocationId(0)).unwrap();
        b.add_checkin(p, LocationId(0)).unwrap();
        let n = b.build();
        assert_eq!(n.link_count(crate::LinkKind::Follow), 1);
        assert_eq!(
            n.adjacency(crate::LinkKind::Follow, crate::Direction::Forward)
                .get(0, 1),
            1.0
        );
        assert_eq!(n.link_count(crate::LinkKind::Checkin), 1);
    }

    #[test]
    fn post_ids_are_sequential() {
        let mut b = HetNetBuilder::new("t", 1, 0, 0);
        let p0 = b.add_post(UserId(0)).unwrap();
        let p1 = b.add_post(UserId(0)).unwrap();
        assert_eq!(p0, PostId(0));
        assert_eq!(p1, PostId(1));
        assert_eq!(b.n_posts(), 2);
        assert_eq!(b.n_users(), 1);
    }

    #[test]
    fn empty_network_builds() {
        let n = HetNetBuilder::new("empty", 0, 0, 0).build();
        assert_eq!(n.n_users(), 0);
        assert_eq!(n.n_posts(), 0);
    }
}
