//! Community partitioning and cross-network partition matching — the
//! graph-side half of the partition-sharded alignment pipeline.
//!
//! Everything upstream of this module aligns two networks *globally*: one
//! candidate space, one catalog of meta-diagram counts, SpGEMM chains over
//! the full `n × n` anchor matrix. That is the scaling wall. Following the
//! synergistic-graph-partition line of work, this module supplies the two
//! pieces that let the session layer shard the problem:
//!
//! 1. **[`PartitionMap::detect`]** — seeded label propagation over the
//!    follow graph (forward ∪ reverse), producing a [`PartitionMap`]:
//!    per-user community ids, per-community member lists, and
//!    boundary-node tracking (users with a follow neighbor in another
//!    community — the ones whose anchors matter to more than one shard).
//!    Determinism is part of the contract: the same network and
//!    [`PartitionConfig`] produce the same map on every run (the visit
//!    order is seeded through the vendored `rand` stand-in and every
//!    tie-break is by smallest label).
//! 2. **[`match_partitions`]** — pairs communities *across* two networks:
//!    each partition gets a cheap Weisfeiler–Lehman-style structural
//!    signature (degree-bucket labels over the hetnet schema, a few
//!    refinement rounds over the follow graph, then a normalized label
//!    histogram), and partitions are matched greedily by histogram
//!    intersection — except where known anchor links already tie
//!    partitions together, which acts as a hard constraint that outranks
//!    any signature score.
//!
//! [`induce_subnet`] then materializes one partition as a standalone
//! [`HetNet`] (users compacted, attribute universes kept full-size so
//! shards still share universes with their cross-network partner), which
//! is exactly what a per-shard `AlignmentSession` consumes.
//!
//! ## Example
//!
//! ```
//! use hetnet::partition::{match_partitions, PartitionConfig, PartitionMap};
//! use hetnet::{HetNetBuilder, UserId};
//!
//! // Two triangles joined by one bridge edge.
//! let mut b = HetNetBuilder::new("demo", 6, 1, 1, 0);
//! for block in [0u32, 3] {
//!     for (i, j) in [(0, 1), (1, 2), (2, 0)] {
//!         b.add_follow(UserId(block + i), UserId(block + j)).unwrap();
//!     }
//! }
//! b.add_follow(UserId(2), UserId(3)).unwrap();
//! let net = b.build();
//!
//! let cfg = PartitionConfig { min_size: 2, ..PartitionConfig::default() };
//! let map = PartitionMap::detect(&net, &cfg);
//! assert_eq!(map.n_partitions(), 2);
//! assert!(map.is_boundary(UserId(2)) && map.is_boundary(UserId(3)));
//!
//! let anchors = vec![hetnet::AnchorLink::new(UserId(0), UserId(0))];
//! let matching = match_partitions(&net, &net, &map, &map, &anchors, 2).unwrap();
//! assert_eq!(matching.pairs.len(), 2);
//! ```

use crate::builder::HetNetBuilder;
use crate::error::{HetNetError, Result};
use crate::graph::HetNet;
use crate::ids::UserId;
use crate::schema::NodeKind;
use crate::AnchorLink;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Knobs of [`PartitionMap::detect`]. The defaults favor stable,
/// medium-grained communities; `min_size` exists because a shard smaller
/// than a handful of users cannot carry an alignment model and only adds
/// stitching overhead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Seed of the (deterministic) shuffled visit order.
    pub seed: u64,
    /// Maximum label-propagation rounds (propagation usually converges in
    /// far fewer; this is the runaway bound).
    pub max_rounds: usize,
    /// Communities smaller than this are dissolved into their
    /// best-connected surviving neighbor community.
    pub min_size: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            seed: 7,
            max_rounds: 20,
            min_size: 8,
        }
    }
}

/// A community assignment over one network's users, with boundary
/// tracking. Partition ids are dense (`0..n_partitions()`), assigned in
/// order of first appearance by ascending user index — fully determined
/// by the assignment itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Per-user partition id.
    part_of: Vec<u32>,
    /// Per-partition member list, ascending by user index.
    members: Vec<Vec<UserId>>,
    /// Per-user flag: has at least one follow neighbor (either direction)
    /// in a different partition.
    boundary: Vec<bool>,
}

impl PartitionMap {
    /// The single-partition map: every user in partition 0, no boundary
    /// nodes. Sharded alignment under the trivial map degenerates to the
    /// global pipeline — the equivalence the property tests pin down.
    pub fn trivial(n_users: usize) -> Self {
        PartitionMap {
            part_of: vec![0; n_users],
            members: vec![(0..n_users).map(UserId::from_index).collect()],
            boundary: vec![false; n_users],
        }
    }

    /// Builds a map from an explicit per-user assignment (any custom
    /// partitioner), compacting ids and recomputing boundary flags
    /// against `net`'s follow graph.
    ///
    /// # Panics
    /// Panics when `assignment.len() != net.n_users()` — a programming
    /// error, not a data condition.
    pub fn from_assignment(assignment: &[usize], net: &HetNet) -> Self {
        assert_eq!(
            assignment.len(),
            net.n_users(),
            "assignment must cover every user"
        );
        Self::compact(assignment, net)
    }

    /// Reassembles a map from its raw per-user arrays — the persistence
    /// path (a sharded-session manifest stores exactly these two arrays;
    /// members are derived). Boundary flags are taken as given, so the
    /// map round-trips without the original network.
    ///
    /// # Panics
    /// Panics when the arrays disagree in length or partition ids are not
    /// dense `0..k` in order of first appearance — corrupted inputs are
    /// the *caller's* job to reject (decode-side validation), not this
    /// constructor's.
    pub fn from_raw_parts(part_of: Vec<u32>, boundary: Vec<bool>) -> Self {
        assert_eq!(part_of.len(), boundary.len(), "array length mismatch");
        let mut members: Vec<Vec<UserId>> = Vec::new();
        for (u, &p) in part_of.iter().enumerate() {
            let p = p as usize;
            assert!(p <= members.len(), "partition ids must be dense");
            if p == members.len() {
                members.push(Vec::new());
            }
            members[p].push(UserId::from_index(u));
        }
        PartitionMap {
            part_of,
            members,
            boundary,
        }
    }

    /// The raw per-user arrays `(part_of, boundary)` —
    /// [`PartitionMap::from_raw_parts`]'s inverse, for persistence.
    pub fn raw_parts(&self) -> (&[u32], &[bool]) {
        (&self.part_of, &self.boundary)
    }

    /// Detects communities by seeded label propagation over the follow
    /// graph, forward and reverse edges both counted (a mutual follow
    /// counts twice, weighting reciprocity). Deterministic per
    /// `(network, config)`; see the module docs.
    pub fn detect(net: &HetNet, cfg: &PartitionConfig) -> Self {
        let n = net.n_users();
        if n == 0 {
            return PartitionMap::trivial(0);
        }
        let mut labels: Vec<usize> = (0..n).collect();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut vote = Vote::new(n);
        for _ in 0..cfg.max_rounds {
            order.shuffle(&mut rng);
            let mut changed = false;
            for &u in &order {
                let uid = UserId::from_index(u);
                for v in net.followees(uid).chain(net.followers(uid)) {
                    vote.add(labels[v.index()]);
                }
                let Some(best) = vote.take_majority() else {
                    continue;
                };
                if best != labels[u] {
                    labels[u] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Self::merge_undersized(&mut labels, net, cfg.min_size);
        Self::compact(&labels, net)
    }

    /// Dissolves communities smaller than `min_size`: each of their
    /// members joins the majority *surviving* community among its follow
    /// neighbors, falling back to the largest surviving community. When
    /// no community survives the threshold the whole network collapses to
    /// one partition. Labels are user indices, so every table here is
    /// dense over `0..labels.len()`.
    fn merge_undersized(labels: &mut [usize], net: &HetNet, min_size: usize) {
        let n = labels.len();
        let mut sizes = vec![0usize; n];
        for &l in labels.iter() {
            sizes[l] += 1;
        }
        let survives = |l: usize| sizes[l] >= min_size;
        if (0..n).all(|l| sizes[l] == 0 || survives(l)) {
            return;
        }
        // Largest survivor (ties → smallest label) is the fallback home
        // for users with no surviving neighbor.
        let Some(fallback) = (0..n)
            .filter(|&l| survives(l))
            .min_by_key(|&l| (std::cmp::Reverse(sizes[l]), l))
        else {
            labels.fill(0);
            return;
        };
        let snapshot: Vec<usize> = labels.to_vec();
        let mut vote = Vote::new(n);
        for u in 0..n {
            if survives(snapshot[u]) {
                continue;
            }
            let uid = UserId::from_index(u);
            for v in net.followees(uid).chain(net.followers(uid)) {
                let l = snapshot[v.index()];
                if survives(l) {
                    vote.add(l);
                }
            }
            labels[u] = vote.take_majority().unwrap_or(fallback);
        }
    }

    /// Compacts arbitrary labels to dense ids (first appearance by
    /// ascending user index) and computes members and boundary flags.
    fn compact(labels: &[usize], net: &HetNet) -> Self {
        let n = labels.len();
        let mut dense = std::collections::HashMap::new();
        let mut part_of = Vec::with_capacity(n);
        let mut members: Vec<Vec<UserId>> = Vec::new();
        for (u, &l) in labels.iter().enumerate() {
            let next = members.len();
            let p = *dense.entry(l).or_insert(next);
            if p == members.len() {
                members.push(Vec::new());
            }
            part_of.push(p as u32);
            members[p].push(UserId::from_index(u));
        }
        let mut boundary = vec![false; n];
        for u in 0..n {
            let uid = UserId::from_index(u);
            let home = part_of[u];
            boundary[u] = net.followees(uid).any(|v| part_of[v.index()] != home)
                || net.followers(uid).any(|v| part_of[v.index()] != home);
        }
        PartitionMap {
            part_of,
            members,
            boundary,
        }
    }

    /// Number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.members.len()
    }

    /// Number of users covered.
    pub fn n_users(&self) -> usize {
        self.part_of.len()
    }

    /// The partition of user `u`.
    ///
    /// # Panics
    /// Panics when `u` is out of range.
    pub fn part_of(&self, u: UserId) -> usize {
        self.part_of[u.index()] as usize
    }

    /// Members of partition `p`, ascending by user index.
    ///
    /// # Panics
    /// Panics when `p` is out of range.
    pub fn members(&self, p: usize) -> &[UserId] {
        &self.members[p]
    }

    /// True when `u` has a follow neighbor in another partition.
    ///
    /// # Panics
    /// Panics when `u` is out of range.
    pub fn is_boundary(&self, u: UserId) -> bool {
        self.boundary[u.index()]
    }

    /// All boundary users, ascending.
    pub fn boundary_nodes(&self) -> impl Iterator<Item = UserId> + '_ {
        self.boundary
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(u, _)| UserId::from_index(u))
    }

    /// Partition sizes, indexed by partition id.
    pub fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
}

/// A majority vote over labels in `0..n`, counted in a dense per-label
/// table; the touched list resets it in time proportional to the votes.
struct Vote {
    count: Vec<u32>,
    touched: Vec<usize>,
}

impl Vote {
    fn new(n_labels: usize) -> Self {
        Vote {
            count: vec![0; n_labels],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, label: usize) {
        if self.count[label] == 0 {
            self.touched.push(label);
        }
        self.count[label] += 1;
    }

    /// The label with the most votes, ties to the smallest label; `None`
    /// when no vote was cast. Clears the tally for the next vote.
    fn take_majority(&mut self) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for &l in &self.touched {
            let c = self.count[l];
            if best.is_none_or(|(bc, bl)| c > bc || (c == bc && l < bl)) {
                best = Some((c, l));
            }
            self.count[l] = 0;
        }
        self.touched.clear();
        best.map(|(_, l)| l)
    }
}

// --- WL-style structural signatures -----------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the 8 little-endian bytes of `v`. Hand-rolled because the
/// standard library's `RandomState` is seeded per process — cross-network
/// signature comparison needs labels that hash identically everywhere.
fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Log₂ degree bucket — WL initial labels must be robust to the exact
/// degree (two networks subsample the same latent graph differently), so
/// degrees collapse into coarse magnitude classes.
fn bucket(d: usize) -> u64 {
    (usize::BITS - d.leading_zeros()) as u64
}

/// A partition's structural signature: a normalized histogram of final
/// WL labels over its members, sorted by label. Two partitions that play
/// the same structural role in their respective networks land on similar
/// histograms even when their user ids share nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSignature {
    hist: Vec<(u64, f64)>,
}

impl PartitionSignature {
    /// Histogram-intersection similarity in `[0, 1]`: the mass the two
    /// label distributions share.
    pub fn similarity(&self, other: &PartitionSignature) -> f64 {
        let (mut i, mut j, mut shared) = (0usize, 0usize, 0.0f64);
        while i < self.hist.len() && j < other.hist.len() {
            match self.hist[i].0.cmp(&other.hist[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    shared += self.hist[i].1.min(other.hist[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        shared
    }

    /// The underlying `(label, mass)` histogram, sorted by label.
    pub fn histogram(&self) -> &[(u64, f64)] {
        &self.hist
    }
}

/// Computes one [`PartitionSignature`] per partition of `map`.
///
/// Initial per-user labels hash log₂-bucketed degrees across the hetnet
/// schema (follow out/in, post count, and the user's aggregate
/// timestamp/location/word attachment counts); `rounds` Weisfeiler–Lehman
/// refinements then fold each user's sorted followee/follower label
/// multisets back into its label. 2–3 rounds separate structural roles
/// without over-fragmenting (every extra round halves collision mass but
/// doubles sensitivity to subsampling noise).
pub fn wl_signatures(net: &HetNet, map: &PartitionMap, rounds: usize) -> Vec<PartitionSignature> {
    let n = net.n_users();
    debug_assert_eq!(map.n_users(), n, "map must describe this network");
    let mut labels: Vec<u64> = (0..n)
        .map(|u| {
            let uid = UserId::from_index(u);
            let mut h = FNV_OFFSET;
            h = fnv_u64(h, bucket(net.followees(uid).count()));
            h = fnv_u64(h, bucket(net.followers(uid).count()));
            let (mut posts, mut at, mut loc, mut words) = (0usize, 0usize, 0usize, 0usize);
            for p in net.posts_of(uid) {
                posts += 1;
                at += net.timestamps_of(p).count();
                loc += net.locations_of(p).count();
                words += net.words_of(p).count();
            }
            h = fnv_u64(h, bucket(posts));
            h = fnv_u64(h, bucket(at));
            h = fnv_u64(h, bucket(loc));
            h = fnv_u64(h, bucket(words));
            h
        })
        .collect();
    let mut scratch: Vec<u64> = Vec::new();
    for _ in 0..rounds {
        let next: Vec<u64> = (0..n)
            .map(|u| {
                let uid = UserId::from_index(u);
                let mut h = fnv_u64(FNV_OFFSET, labels[u]);
                scratch.clear();
                scratch.extend(net.followees(uid).map(|v| labels[v.index()]));
                scratch.sort_unstable();
                for &l in &scratch {
                    h = fnv_u64(h, l);
                }
                h = fnv_u64(h, u64::MAX); // separator between directions
                scratch.clear();
                scratch.extend(net.followers(uid).map(|v| labels[v.index()]));
                scratch.sort_unstable();
                for &l in &scratch {
                    h = fnv_u64(h, l);
                }
                h
            })
            .collect();
        labels = next;
    }
    (0..map.n_partitions())
        .map(|p| {
            let members = map.members(p);
            let mut ls: Vec<u64> = members.iter().map(|m| labels[m.index()]).collect();
            ls.sort_unstable();
            let total = ls.len().max(1) as f64;
            let mut hist = Vec::new();
            let mut i = 0;
            while i < ls.len() {
                let l = ls[i];
                let mut j = i;
                while j < ls.len() && ls[j] == l {
                    j += 1;
                }
                hist.push((l, (j - i) as f64 / total));
                i = j;
            }
            PartitionSignature { hist }
        })
        .collect()
}

// --- Cross-network partition matching ---------------------------------

/// One matched partition pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedPair {
    /// Left-network partition id.
    pub left: usize,
    /// Right-network partition id.
    pub right: usize,
    /// WL-signature similarity of the pair (in `[0, 1]`).
    pub similarity: f64,
    /// Known anchor links spanning the pair — `> 0` means the pair was
    /// fixed by the anchor hard constraint, not the signature.
    pub anchor_votes: usize,
}

/// Result of [`match_partitions`]: a one-to-one partial matching of
/// partitions across the two networks.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMatching {
    /// Matched pairs, sorted by left partition id.
    pub pairs: Vec<MatchedPair>,
    /// Left partitions without a partner.
    pub unmatched_left: Vec<usize>,
    /// Right partitions without a partner.
    pub unmatched_right: Vec<usize>,
}

impl PartitionMatching {
    /// The right-side partner of left partition `p`, if matched.
    pub fn partner_of_left(&self, p: usize) -> Option<usize> {
        self.pairs.iter().find(|m| m.left == p).map(|m| m.right)
    }
}

/// Greedily matches partitions across two networks.
///
/// Known `anchors` act as **hard constraints**: every anchor link votes
/// for the pair `(partition-of-left-endpoint, partition-of-right-endpoint)`,
/// and pairs are first fixed in descending vote order (ties by partition
/// id) — a signature can never override where confirmed anchors already
/// place a community. Remaining partitions are paired by descending
/// [`PartitionSignature`] similarity (computed with `wl_rounds`
/// refinement rounds), each partition used at most once. Leftovers are
/// reported unmatched rather than force-paired: aligning two communities
/// with no anchor and no structural resemblance only manufactures false
/// candidates.
///
/// # Errors
/// [`HetNetError::PartitionSize`] when a map covers a different number of
/// users than its network; [`HetNetError::NodeOutOfRange`] when an anchor
/// endpoint is outside its network's user range.
pub fn match_partitions(
    left_net: &HetNet,
    right_net: &HetNet,
    left: &PartitionMap,
    right: &PartitionMap,
    anchors: &[AnchorLink],
    wl_rounds: usize,
) -> Result<PartitionMatching> {
    for (side, net, map) in [("left", left_net, left), ("right", right_net, right)] {
        if map.n_users() != net.n_users() {
            return Err(HetNetError::PartitionSize {
                side,
                map_users: map.n_users(),
                net_users: net.n_users(),
            });
        }
    }
    let (kl, kr) = (left.n_partitions(), right.n_partitions());
    let mut votes = vec![0usize; kl * kr];
    for a in anchors {
        if a.left.index() >= left.n_users() {
            return Err(HetNetError::NodeOutOfRange {
                kind: NodeKind::User,
                index: a.left.index(),
                count: left.n_users(),
            });
        }
        if a.right.index() >= right.n_users() {
            return Err(HetNetError::NodeOutOfRange {
                kind: NodeKind::User,
                index: a.right.index(),
                count: right.n_users(),
            });
        }
        votes[left.part_of(a.left) * kr + right.part_of(a.right)] += 1;
    }

    let mut left_taken = vec![false; kl];
    let mut right_taken = vec![false; kr];
    let mut pairs: Vec<MatchedPair> = Vec::new();

    // Phase 1: anchor hard constraints, strongest vote first.
    let mut voted: Vec<(usize, usize, usize)> = (0..kl)
        .flat_map(|l| (0..kr).map(move |r| (l, r, 0)))
        .map(|(l, r, _)| (l, r, votes[l * kr + r]))
        .filter(|&(_, _, v)| v > 0)
        .collect();
    voted.sort_by_key(|&(l, r, v)| (std::cmp::Reverse(v), l, r));
    let sig_left = wl_signatures(left_net, left, wl_rounds);
    let sig_right = wl_signatures(right_net, right, wl_rounds);
    for (l, r, v) in voted {
        if !left_taken[l] && !right_taken[r] {
            left_taken[l] = true;
            right_taken[r] = true;
            pairs.push(MatchedPair {
                left: l,
                right: r,
                similarity: sig_left[l].similarity(&sig_right[r]),
                anchor_votes: v,
            });
        }
    }

    // Phase 2: signature similarity over the remaining partitions.
    let mut scored: Vec<(usize, usize, f64)> = Vec::new();
    for (l, sl) in sig_left.iter().enumerate().filter(|(l, _)| !left_taken[*l]) {
        for (r, sr) in sig_right
            .iter()
            .enumerate()
            .filter(|(r, _)| !right_taken[*r])
        {
            scored.push((l, r, sl.similarity(sr)));
        }
    }
    // Similarities are finite by construction (sums of finite mins), but
    // the comparator stays NaN-safe anyway: `unwrap_or(Equal)` on a NaN
    // would silently break the total order `sort_by` requires, so this
    // is the NaN-last `total_cmp` idiom with the id tie-break keeping
    // the order deterministic.
    scored.sort_by(|a, b| {
        cmp_similarity_desc(a.2, b.2)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    for (l, r, s) in scored {
        if !left_taken[l] && !right_taken[r] {
            left_taken[l] = true;
            right_taken[r] = true;
            pairs.push(MatchedPair {
                left: l,
                right: r,
                similarity: s,
                anchor_votes: 0,
            });
        }
    }

    pairs.sort_by_key(|m| m.left);
    Ok(PartitionMatching {
        pairs,
        unmatched_left: (0..kl).filter(|&l| !left_taken[l]).collect(),
        unmatched_right: (0..kr).filter(|&r| !right_taken[r]).collect(),
    })
}

/// Descending similarity with NaN **last** (total order): any real
/// similarity outranks NaN, NaNs tie among themselves — the `activeiter`
/// `cmp_scores_desc` idiom.
fn cmp_similarity_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

// --- Induced sub-networks ---------------------------------------------

/// One partition materialized as a standalone network: users compacted to
/// `0..members.len()`, posts re-attached under their compacted authors,
/// follow edges kept only when both endpoints are members. Attribute
/// universes stay **full-size** — they are shared across the aligned
/// networks (and therefore across shards), which is what lets a per-shard
/// count engine compose attribute matrices with its partner's.
#[derive(Debug, Clone)]
pub struct SubNet {
    /// The induced network.
    pub net: HetNet,
    /// Local user index → global [`UserId`] (ascending).
    pub global: Vec<UserId>,
}

impl SubNet {
    /// The local index of global user `u`, if a member.
    pub fn local_of(&self, u: UserId) -> Option<usize> {
        self.global.binary_search(&u).ok()
    }
}

/// Materializes the sub-network induced by `members` (must be ascending
/// and duplicate-free — the order [`PartitionMap`] hands out).
///
/// Posts are re-added in ascending member order, so a network whose posts
/// were built author-grouped (every generated network) round-trips the
/// trivial partition **bit-identically** — the property the
/// sharded-vs-global equivalence tests rest on.
///
/// # Errors
/// [`HetNetError::NodeOutOfRange`] when a member indexes past the network
/// (a partition map built for another network).
///
/// # Panics
/// Panics when `members` is unsorted or has duplicates (a programming
/// error; members come from a [`PartitionMap`]).
pub fn induce_subnet(net: &HetNet, members: &[UserId]) -> Result<SubNet> {
    assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "members must be ascending and duplicate-free"
    );
    if let Some(last) = members.last().filter(|m| m.index() >= net.n_users()) {
        return Err(HetNetError::NodeOutOfRange {
            kind: NodeKind::User,
            index: last.index(),
            count: net.n_users(),
        });
    }
    let mut local = vec![u32::MAX; net.n_users()];
    for (i, m) in members.iter().enumerate() {
        local[m.index()] = i as u32;
    }
    let mut b = HetNetBuilder::new(
        format!("{}[{}u]", net.name(), members.len()),
        members.len(),
        net.count(NodeKind::Location),
        net.count(NodeKind::Timestamp),
        net.count(NodeKind::Word),
    );
    for (i, &m) in members.iter().enumerate() {
        let u = UserId::from_index(i);
        for v in net.followees(m) {
            let lv = local[v.index()];
            if lv != u32::MAX {
                b.add_follow(u, UserId::from_index(lv as usize))?;
            }
        }
    }
    for (i, &m) in members.iter().enumerate() {
        let u = UserId::from_index(i);
        for p in net.posts_of(m) {
            let np = b.add_post(u)?;
            for t in net.timestamps_of(p) {
                b.add_at(np, t)?;
            }
            for l in net.locations_of(p) {
                b.add_checkin(np, l)?;
            }
            for w in net.words_of(p) {
                b.add_word(np, w)?;
            }
        }
    }
    Ok(SubNet {
        net: b.build(),
        global: members.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Direction, LinkKind};

    /// Two dense 5-cliques joined by a single bridge edge.
    fn two_cliques() -> HetNet {
        let mut b = HetNetBuilder::new("cliques", 10, 2, 2, 0);
        for block in [0usize, 5] {
            for i in 0..5 {
                for j in 0..5 {
                    if i != j {
                        b.add_follow(UserId::from_index(block + i), UserId::from_index(block + j))
                            .unwrap();
                    }
                }
            }
        }
        b.add_follow(UserId(4), UserId(5)).unwrap();
        // Mirrored posts keep the cliques structurally comparable for the
        // WL signature tests (a one-sided post would contaminate every
        // clique-A label after one refinement round).
        for author in [UserId(0), UserId(5)] {
            let p = b.add_post(author).unwrap();
            b.add_at(p, crate::TimestampId(0)).unwrap();
            b.add_checkin(p, crate::LocationId(1)).unwrap();
        }
        b.build()
    }

    #[test]
    fn detect_splits_the_cliques() {
        let net = two_cliques();
        let cfg = PartitionConfig {
            min_size: 2,
            ..Default::default()
        };
        let map = PartitionMap::detect(&net, &cfg);
        assert_eq!(map.n_partitions(), 2);
        for u in 0..5 {
            assert_eq!(map.part_of(UserId::from_index(u)), 0);
            assert_eq!(map.part_of(UserId::from_index(u + 5)), 1);
        }
        // Only the bridge endpoints are boundary nodes.
        assert!(map.is_boundary(UserId(4)));
        assert!(map.is_boundary(UserId(5)));
        assert_eq!(map.boundary_nodes().count(), 2);
        assert_eq!(map.sizes(), vec![5, 5]);
    }

    #[test]
    fn detect_is_deterministic_per_seed() {
        let net = two_cliques();
        let cfg = PartitionConfig::default();
        assert_eq!(
            PartitionMap::detect(&net, &cfg),
            PartitionMap::detect(&net, &cfg)
        );
    }

    #[test]
    fn undersized_partitions_are_dissolved() {
        let net = two_cliques();
        let cfg = PartitionConfig {
            min_size: 6, // both 5-cliques are undersized
            ..Default::default()
        };
        let map = PartitionMap::detect(&net, &cfg);
        assert_eq!(map.n_partitions(), 1);
        assert_eq!(map.boundary_nodes().count(), 0);
    }

    #[test]
    fn trivial_map_has_no_boundary() {
        let map = PartitionMap::trivial(7);
        assert_eq!(map.n_partitions(), 1);
        assert_eq!(map.members(0).len(), 7);
        assert_eq!(map.boundary_nodes().count(), 0);
    }

    #[test]
    fn from_assignment_compacts_and_flags_boundaries() {
        let net = two_cliques();
        let raw: Vec<usize> = (0..10).map(|u| if u < 5 { 42 } else { 7 }).collect();
        let map = PartitionMap::from_assignment(&raw, &net);
        assert_eq!(map.n_partitions(), 2);
        assert_eq!(map.part_of(UserId(0)), 0, "first appearance wins id 0");
        assert_eq!(map.part_of(UserId(9)), 1);
        assert!(map.is_boundary(UserId(4)));
        assert!(!map.is_boundary(UserId(0)));
    }

    #[test]
    fn wl_signatures_separate_roles_and_match_twins() {
        let net = two_cliques();
        let cfg = PartitionConfig {
            min_size: 2,
            ..Default::default()
        };
        let map = PartitionMap::detect(&net, &cfg);
        // One refinement round: the cliques are only *near*-isomorphic
        // (bridge edge + one post), and every extra WL round spreads that
        // asymmetry through the whole clique — by round 2 the histograms
        // are disjoint. At one round the shared structural core dominates.
        let sigs = wl_signatures(&net, &map, 1);
        assert_eq!(sigs.len(), 2);
        let s = sigs[0].similarity(&sigs[1]);
        assert!(s > 0.5, "clique similarity {s}");
        assert!(sigs[0].similarity(&sigs[0]) > 0.999);
    }

    #[test]
    fn anchors_override_signatures_in_matching() {
        let net_l = two_cliques();
        let net_r = two_cliques();
        let cfg = PartitionConfig {
            min_size: 2,
            ..Default::default()
        };
        let map_l = PartitionMap::detect(&net_l, &cfg);
        let map_r = PartitionMap::detect(&net_r, &cfg);
        // Anchors cross the cliques: left clique 0 ↔ right clique 1.
        let anchors = vec![
            AnchorLink::new(UserId(0), UserId(6)),
            AnchorLink::new(UserId(1), UserId(7)),
        ];
        let m = match_partitions(&net_l, &net_r, &map_l, &map_r, &anchors, 2).unwrap();
        assert_eq!(m.pairs.len(), 2);
        let fixed = &m.pairs[0];
        assert_eq!((fixed.left, fixed.right), (0, 1));
        assert_eq!(fixed.anchor_votes, 2);
        // The leftover pair follows by similarity.
        assert_eq!((m.pairs[1].left, m.pairs[1].right), (1, 0));
        assert_eq!(m.pairs[1].anchor_votes, 0);
        assert!(m.unmatched_left.is_empty() && m.unmatched_right.is_empty());
        assert_eq!(m.partner_of_left(0), Some(1));
        assert_eq!(m.partner_of_left(9), None);
    }

    #[test]
    fn matching_rejects_out_of_range_anchors() {
        let net = two_cliques();
        let map = PartitionMap::trivial(net.n_users());
        let bad = vec![AnchorLink::new(UserId(99), UserId(0))];
        assert!(matches!(
            match_partitions(&net, &net, &map, &map, &bad, 1),
            Err(HetNetError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn unequal_partition_counts_leave_leftovers_unmatched() {
        let net_l = two_cliques();
        let net_r = two_cliques();
        let cfg = PartitionConfig {
            min_size: 2,
            ..Default::default()
        };
        let map_l = PartitionMap::detect(&net_l, &cfg);
        let map_r = PartitionMap::trivial(net_r.n_users());
        let m = match_partitions(&net_l, &net_r, &map_l, &map_r, &[], 2).unwrap();
        assert_eq!(m.pairs.len(), 1);
        assert_eq!(m.unmatched_left.len(), 1);
        assert!(m.unmatched_right.is_empty());
    }

    #[test]
    fn induced_subnet_compacts_users_and_keeps_universes() {
        let net = two_cliques();
        let members: Vec<UserId> = (0..5).map(UserId::from_index).collect();
        let sub = induce_subnet(&net, &members).unwrap();
        assert_eq!(sub.net.n_users(), 5);
        // The bridge edge 4→5 is dropped; the clique's 20 edges survive.
        assert_eq!(sub.net.link_count(LinkKind::Follow), 20);
        assert_eq!(sub.net.count(NodeKind::Location), 2);
        assert_eq!(sub.net.count(NodeKind::Timestamp), 2);
        assert_eq!(sub.net.n_posts(), 1);
        assert_eq!(sub.local_of(UserId(3)), Some(3));
        assert_eq!(sub.local_of(UserId(8)), None);
    }

    #[test]
    fn trivial_induction_is_bit_identical_for_author_grouped_posts() {
        // Posts added in ascending author order — the invariant every
        // generated network satisfies (datagen's integration tests pin the
        // same property on real generated worlds).
        let mut b = HetNetBuilder::new("grouped", 4, 3, 3, 0);
        b.add_follow(UserId(0), UserId(2)).unwrap();
        b.add_follow(UserId(3), UserId(1)).unwrap();
        for u in 0..4u32 {
            for k in 0..=u {
                let p = b.add_post(UserId(u)).unwrap();
                b.add_at(p, crate::TimestampId(k % 3)).unwrap();
                b.add_checkin(p, crate::LocationId((u + k) % 3)).unwrap();
            }
        }
        let net = b.build();
        let members: Vec<UserId> = (0..net.n_users()).map(UserId::from_index).collect();
        let sub = induce_subnet(&net, &members).unwrap();
        for kind in LinkKind::ALL {
            assert_eq!(
                sub.net.adjacency(kind, Direction::Forward),
                net.adjacency(kind, Direction::Forward),
                "{kind:?} diverged under the trivial partition"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn induce_rejects_unsorted_members() {
        let net = two_cliques();
        let _ = induce_subnet(&net, &[UserId(3), UserId(1)]);
    }

    #[test]
    fn induce_refuses_a_member_past_the_network() {
        let net = two_cliques();
        assert!(matches!(
            induce_subnet(&net, &[UserId(3), UserId(10)]),
            Err(HetNetError::NodeOutOfRange {
                index: 10,
                count: 10,
                ..
            })
        ));
    }
}
