//! Network statistics in the shape of the paper's Table II.

use crate::graph::HetNet;
use crate::schema::LinkKind;
use std::fmt;

/// Summary statistics of one attributed heterogeneous network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkStats {
    /// Network display name.
    pub name: String,
    /// Number of user nodes.
    pub users: usize,
    /// Number of post (tweet/tip) nodes.
    pub posts: usize,
    /// Number of distinct locations actually referenced by posts.
    pub locations_used: usize,
    /// Number of distinct timestamps actually referenced by posts.
    pub timestamps_used: usize,
    /// Number of follow/friend links.
    pub follow_links: usize,
    /// Number of write links (== posts when every post has one author).
    pub write_links: usize,
    /// Number of checkin (post→location) links.
    pub checkin_links: usize,
}

impl NetworkStats {
    /// Computes the statistics of `net`.
    pub fn of(net: &HetNet) -> Self {
        let used = |m: &sparsela::CsrMatrix| m.col_sums().iter().filter(|&&s| s > 0.0).count();
        NetworkStats {
            name: net.name().to_string(),
            users: net.n_users(),
            posts: net.n_posts(),
            locations_used: used(net.adjacency(LinkKind::Checkin, crate::Direction::Forward)),
            timestamps_used: used(net.adjacency(LinkKind::At, crate::Direction::Forward)),
            follow_links: net.link_count(LinkKind::Follow),
            write_links: net.link_count(LinkKind::Write),
            checkin_links: net.link_count(LinkKind::Checkin),
        }
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "network: {}", self.name)?;
        writeln!(f, "  # node  user      {:>10}", self.users)?;
        writeln!(f, "  # node  tweet/tip {:>10}", self.posts)?;
        writeln!(f, "  # node  location  {:>10}", self.locations_used)?;
        writeln!(f, "  # link  follow    {:>10}", self.follow_links)?;
        write!(f, "  # link  write     {:>10}", self.write_links)
    }
}

/// Renders the two-column Table II layout for an aligned pair.
pub fn table2(left: &NetworkStats, right: &NetworkStats, anchors: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<24} {:>14} {:>14}\n",
        "property", left.name, right.name
    ));
    s.push_str(&format!(
        "{:<24} {:>14} {:>14}\n",
        "# node user", left.users, right.users
    ));
    s.push_str(&format!(
        "{:<24} {:>14} {:>14}\n",
        "# node tweet/tip", left.posts, right.posts
    ));
    s.push_str(&format!(
        "{:<24} {:>14} {:>14}\n",
        "# node location", left.locations_used, right.locations_used
    ));
    s.push_str(&format!(
        "{:<24} {:>14} {:>14}\n",
        "# link friend/follow", left.follow_links, right.follow_links
    ));
    s.push_str(&format!(
        "{:<24} {:>14} {:>14}\n",
        "# link write", left.write_links, right.write_links
    ));
    s.push_str(&format!("{:<24} {:>14}\n", "# anchor links", anchors));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HetNetBuilder;
    use crate::ids::{LocationId, TimestampId, UserId};

    fn sample() -> HetNet {
        let mut b = HetNetBuilder::new("sample", 4, 3, 2);
        b.add_follow(UserId(0), UserId(1)).unwrap();
        b.add_follow(UserId(1), UserId(2)).unwrap();
        let p0 = b.add_post(UserId(0)).unwrap();
        let p1 = b.add_post(UserId(1)).unwrap();
        let _p2 = b.add_post(UserId(1)).unwrap();
        b.add_checkin(p0, LocationId(2)).unwrap();
        b.add_checkin(p1, LocationId(2)).unwrap();
        b.add_at(p0, TimestampId(0)).unwrap();
        b.build()
    }

    #[test]
    fn stats_count_used_attributes_only() {
        let s = NetworkStats::of(&sample());
        assert_eq!(s.users, 4);
        assert_eq!(s.posts, 3);
        // Only location 2 is referenced even though 3 exist in the universe.
        assert_eq!(s.locations_used, 1);
        assert_eq!(s.timestamps_used, 1);
        assert_eq!(s.follow_links, 2);
        assert_eq!(s.write_links, 3);
        assert_eq!(s.checkin_links, 2);
    }

    #[test]
    fn display_and_table_render() {
        let s = NetworkStats::of(&sample());
        let shown = s.to_string();
        assert!(shown.contains("sample"));
        assert!(shown.contains("follow"));
        let t = table2(&s, &s, 42);
        assert!(t.contains("# anchor links"));
        assert!(t.contains("42"));
    }
}
