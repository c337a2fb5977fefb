//! Partition-sharded alignment: one [`AlignmentSession`](crate::AlignmentSession) per matched
//! community pair, stitched back into a single result.
//!
//! The global pipeline counts, featurizes and fits over the full
//! `n_left × n_right` anchor space; every stage scales with whole-network
//! size. [`ShardedSession`] splits the problem along community structure
//! instead:
//!
//! 1. both networks are partitioned ([`hetnet::partition`]), partitions
//!    are matched across the networks (anchors as hard constraints,
//!    WL-signature similarity for the rest), and each matched pair gets
//!    its own induced sub-network pair and its own
//!    [`AlignmentSession`](crate::AlignmentSession) — a slot on the existing [`SessionPool`];
//! 2. training anchors, candidates and confirmed-anchor updates are
//!    **routed** to the shard owning their partition pair; anchors whose
//!    endpoints span *unmatched* partitions go to a shared
//!    boundary-anchor ledger instead (they have no shard that could count
//!    them, but they are confirmed knowledge — they re-enter at stitch
//!    time as authoritative links);
//! 3. in-shard updates run through each shard's `C += L·ΔA·R` delta path
//!    ([`SessionPool::update_many`]), so the active loop stays
//!    incremental per shard;
//! 4. the shard build, featurization and fit each fan out one job per
//!    shard over the pool's worker budget ([`sparsela::map_claimed`],
//!    results in shard order), and [`ShardedSession::fit`] **stitches**
//!    the per-shard positives into one [`StitchedAlignment`]:
//!    boundary-ledger anchors win outright, then shard predictions enter
//!    by descending score under a global one-to-one constraint (conflicts
//!    at partition boundaries are dropped and counted, not silently
//!    kept).
//!
//! Cost intuition: with `k` balanced shards, counting and featurization
//! drop from one `O(n²)`-shaped problem to `k` problems of size
//! `O((n/k)²)` that also run concurrently — the `partition` bench bin
//! measures where the crossover against the global pipeline lands.
//!
//! A sharded session persists like the pool it wraps:
//! [`ShardedSession::save_dir`] calls [`SessionPool::save`] once per
//! shard (one base snapshot + ΔA journal each) and writes a thin
//! [`MANIFEST_FILE`] (partition maps, matching, boundary ledger) in the
//! snapshot container, and [`ShardedSession::open_dir`] restores the
//! whole ensemble without recounting. Once saved, updates are
//! write-ahead on both sides: shard edges through each shard's journal,
//! new boundary anchors through a manifest rewrite.
//!
//! ## Example
//!
//! ```
//! use session::sharded::{ShardedConfig, ShardedSession};
//! use activeiter::{ModelConfig, VecOracle};
//!
//! let world = datagen::generate(&datagen::presets::tiny(7));
//! let anchors = world.truth().links()[..10].to_vec();
//! let candidates: Vec<_> = world.truth().iter().map(|l| (l.left, l.right)).collect();
//!
//! let mut sharded = ShardedSession::new(
//!     world.left(),
//!     world.right(),
//!     anchors,
//!     &ShardedConfig::default(),
//! )
//! .unwrap();
//! let routing = sharded.featurize(candidates.clone()).unwrap();
//! assert_eq!(routing.routed + routing.pruned, candidates.len());
//!
//! let truth = vec![true; candidates.len()];
//! let config = ModelConfig { budget: 10, ..Default::default() };
//! let stitched = sharded
//!     .fit(&(0..10).collect::<Vec<_>>(), &VecOracle::new(truth), &config)
//!     .unwrap();
//! assert!(!stitched.links.is_empty());
//! ```

use crate::journal::CompactionPolicy;
use crate::pool::{PoolError, SessionId, SessionPool};
use crate::record;
use crate::snapshot::{self, SnapshotError};
use crate::stages::SessionBuilder;
use crate::{AnchorEdge, SessionError};
use activeiter::driver::ActiveLoop;
use activeiter::ord::cmp_scores_desc;
use activeiter::query::ConflictQuery;
use activeiter::{FitReport, ModelConfig, Oracle};
use hetnet::partition::{
    induce_subnet, match_partitions, PartitionConfig, PartitionMap, PartitionMatching,
};
use hetnet::{HetNet, HetNetError, UserId};
use metadiagram::DeltaStats;
use sparsela::codec::{Error as BinError, Reader, Writer};
use sparsela::map_claimed;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One shard's candidate batch, claimed exactly once by the worker that
/// featurizes that shard.
type CandidateJob = Mutex<Option<Vec<(UserId, UserId)>>>;

/// Magic prefix of a sharded-session manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"MDASHRD\0";
/// Manifest format version this build writes and the only one it reads;
/// any other version is refused, like a snapshot version bump (layout
/// and history in `docs/SNAPSHOT_FORMAT.md`).
pub const MANIFEST_VERSION: u32 = 3;
/// File name of the manifest inside a [`ShardedSession::save_dir`]
/// directory.
pub const MANIFEST_FILE: &str = "manifest.mdashard";

/// The manifest's one container section.
const SECTION_MANIFEST: [u8; 4] = *b"MANI";
/// WL refinement rounds for partition matching.
const WL_ROUNDS: usize = 2;
/// When a saved shard's ΔA journal folds back into its base: past 1 MiB,
/// so replay-on-open stays cheap while a typical round still persists at
/// k·O(|ΔA_k|).
const SHARD_COMPACTION: CompactionPolicy = CompactionPolicy::Bytes(1 << 20);

/// Everything a sharded-session operation can fail with.
#[derive(Debug)]
pub enum ShardedError {
    /// Partitioning or partition matching rejected its input
    /// (out-of-range anchor endpoints).
    Partition(HetNetError),
    /// Building a shard's session failed.
    Session(SessionError),
    /// A pooled shard operation failed.
    Pool(PoolError),
    /// Reading or writing the manifest (or a shard snapshot) failed.
    Manifest(SnapshotError),
    /// The operation needs the other stage (e.g. fitting before
    /// featurizing).
    WrongStage {
        /// The stage the operation required.
        expected: &'static str,
    },
    /// A labeled position passed to [`ShardedSession::fit`] does not index
    /// the featurized candidate list.
    LabeledOutOfRange {
        /// The offending position.
        index: usize,
        /// Number of featurized candidates.
        candidates: usize,
    },
    /// Two structures that must agree have drifted apart — a shard
    /// snapshot whose shape differs from the member lists the manifest
    /// routes into it, a user missing from its own partition's members,
    /// or a shard that vanished mid-operation. A damaged ensemble reports
    /// instead of aborting the process.
    Inconsistent {
        /// Which invariant broke.
        what: &'static str,
    },
}

impl fmt::Display for ShardedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardedError::Partition(e) => write!(f, "sharded partitioning: {e}"),
            ShardedError::Session(e) => write!(f, "sharded session: {e}"),
            ShardedError::Pool(e) => write!(f, "sharded pool: {e}"),
            ShardedError::Manifest(e) => write!(f, "sharded manifest: {e}"),
            ShardedError::WrongStage { expected } => {
                write!(f, "sharded session is not in the {expected} stage")
            }
            ShardedError::LabeledOutOfRange { index, candidates } => write!(
                f,
                "labeled position {index} out of range for {candidates} featurized candidates"
            ),
            ShardedError::Inconsistent { what } => {
                write!(f, "sharded session structures disagree: {what}")
            }
        }
    }
}

impl std::error::Error for ShardedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedError::Partition(e) => Some(e),
            ShardedError::Session(e) => Some(e),
            ShardedError::Pool(e) => Some(e),
            ShardedError::Manifest(e) => Some(e),
            ShardedError::WrongStage { .. }
            | ShardedError::LabeledOutOfRange { .. }
            | ShardedError::Inconsistent { .. } => None,
        }
    }
}

impl From<HetNetError> for ShardedError {
    fn from(e: HetNetError) -> Self {
        ShardedError::Partition(e)
    }
}

impl From<SessionError> for ShardedError {
    fn from(e: SessionError) -> Self {
        ShardedError::Session(e)
    }
}

impl From<PoolError> for ShardedError {
    fn from(e: PoolError) -> Self {
        ShardedError::Pool(e)
    }
}

impl From<SnapshotError> for ShardedError {
    fn from(e: SnapshotError) -> Self {
        ShardedError::Manifest(e)
    }
}

/// Knobs of a [`ShardedSession`]. Everything else is fixed: matching runs
/// two WL rounds, each shard counts the full catalog serially with the
/// [`SessionBuilder`] defaults (shards already run concurrently), and a
/// saved shard's journal folds into its base past 1 MiB.
#[derive(Debug, Clone, Default)]
pub struct ShardedConfig {
    /// Community-detection knobs ([`PartitionMap::detect`]).
    pub partition: PartitionConfig,
    /// Worker budget for the shard fan-out (`0` = one per available
    /// hardware thread). Results are bit-identical at any setting.
    pub workers: usize,
}

/// One shard: a pooled session over one matched partition pair — pair
/// `i` of the matching is shard `i`, its local ids index that pair's
/// member lists.
#[derive(Debug)]
struct Shard {
    session: SessionId,
    /// Global candidate index per local feature row (set by `featurize`).
    rows: Vec<usize>,
}

/// Where a global candidate went during routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// `(shard index, local row)`.
    Shard(usize, usize),
    /// No matched partition pair covers the candidate; it is predicted
    /// negative by construction.
    Pruned,
}

/// What [`ShardedSession::featurize`] did with the candidate list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingSummary {
    /// Candidates routed into some shard.
    pub routed: usize,
    /// Candidates spanning unmatched partition pairs — excluded from
    /// every shard and predicted negative in the stitched result.
    pub pruned: usize,
}

/// What [`ShardedSession::update_anchors`] did with an edge batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardedUpdate {
    /// Genuinely new anchors merged into shard sessions (through the
    /// delta recount path).
    pub applied: usize,
    /// Edges spanning unmatched partition pairs, appended to the shared
    /// boundary-anchor ledger (duplicates skipped).
    pub boundary: usize,
}

/// One stitched alignment link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StitchedLink {
    /// User in the left network (global id).
    pub left: UserId,
    /// User in the right network (global id).
    pub right: UserId,
    /// Model score ŷ; `f64::INFINITY` for confirmed boundary anchors.
    pub score: f64,
    /// The shard that predicted the link; `None` for boundary-ledger
    /// anchors.
    pub shard: Option<usize>,
    /// True when the link is a confirmed anchor from the boundary ledger
    /// rather than a model prediction.
    pub confirmed: bool,
}

/// One shard's fit, with the row translation back to global candidates.
#[derive(Debug, Clone)]
pub struct ShardFitReport {
    /// The matched partition pair `(left partition, right partition)`.
    pub pair: (usize, usize),
    /// Global candidate index per local report row.
    pub rows: Vec<usize>,
    /// The shard's [`FitReport`].
    pub report: FitReport,
}

/// The stitched result of [`ShardedSession::fit`]: per-shard positives
/// merged under a global one-to-one constraint, boundary-ledger anchors
/// included and authoritative.
#[derive(Debug, Clone)]
pub struct StitchedAlignment {
    /// Accepted links, sorted by `(left, right)`.
    pub links: Vec<StitchedLink>,
    /// Predicted-positive links rejected by boundary conflict resolution
    /// (a higher-scoring link or a confirmed anchor already claimed an
    /// endpoint).
    pub dropped_conflicts: usize,
    /// Candidates that never reached a shard ([`RoutingSummary::pruned`]).
    pub pruned_candidates: usize,
    /// Per-shard fit reports, in shard order.
    pub shard_reports: Vec<ShardFitReport>,
}

/// The partition-sharded alignment pipeline; see the [module docs](self).
pub struct ShardedSession {
    pool: SessionPool,
    shards: Vec<Shard>,
    left_map: PartitionMap,
    right_map: PartitionMap,
    matching: PartitionMatching,
    shard_of_pair: HashMap<(usize, usize), usize>,
    boundary_anchors: Vec<AnchorEdge>,
    /// The directory of the last `save_dir`/`open_dir`: where the shards'
    /// journals live and where a new boundary anchor is made durable.
    home: Option<PathBuf>,
    /// Global candidate routes; non-empty exactly when featurized.
    routes: Vec<Route>,
    featurized: bool,
}

impl fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.shards.len())
            .field("boundary_anchors", &self.boundary_anchors.len())
            .field("featurized", &self.featurized)
            .finish()
    }
}

impl ShardedSession {
    /// Detects communities on both networks, matches them, and spins one
    /// counted [`AlignmentSession`](crate::AlignmentSession) per matched pair.
    ///
    /// # Errors
    /// [`ShardedError::Partition`] on out-of-range anchor endpoints;
    /// [`ShardedError::Session`] when a shard's count fails.
    pub fn new(
        left: &HetNet,
        right: &HetNet,
        anchors: Vec<AnchorEdge>,
        config: &ShardedConfig,
    ) -> Result<Self, ShardedError> {
        let left_map = PartitionMap::detect(left, &config.partition);
        let right_map = PartitionMap::detect(right, &config.partition);
        Self::with_partitions(left, right, left_map, right_map, anchors, config)
    }

    /// Like [`ShardedSession::new`] with explicit partition maps — custom
    /// partitioners, restored maps, or [`PartitionMap::trivial`] for the
    /// degenerate single-shard session (bit-identical to a plain
    /// [`AlignmentSession`](crate::AlignmentSession); the property tests pin this).
    ///
    /// # Errors
    /// As [`ShardedSession::new`].
    pub fn with_partitions(
        left: &HetNet,
        right: &HetNet,
        left_map: PartitionMap,
        right_map: PartitionMap,
        anchors: Vec<AnchorEdge>,
        config: &ShardedConfig,
    ) -> Result<Self, ShardedError> {
        let matching = match_partitions(left, right, &left_map, &right_map, &anchors, WL_ROUNDS)?;
        let mut sharded = Self::assemble(config, left_map, right_map, matching, Vec::new());
        // Route the training anchors: in-shard ones seed their shard's
        // count; pair-spanning ones go to the boundary ledger.
        let mut shard_anchors: Vec<Vec<AnchorEdge>> =
            vec![Vec::new(); sharded.matching.pairs.len()];
        for a in &anchors {
            match sharded.route(a.left, a.right)? {
                Some((si, l, r)) => shard_anchors[si].push(AnchorEdge::new(l, r)),
                None => sharded.boundary_anchors.push(*a),
            }
        }
        // Build the per-shard counted sessions concurrently — each shard
        // pays a catalog count over its own sub-networks only.
        let s = &sharded;
        let built = map_claimed(shard_anchors.len(), s.pool.workers(), |i| {
            let m = &s.matching.pairs[i];
            let sub_left = induce_subnet(left, s.left_map.members(m.left))?;
            let sub_right = induce_subnet(right, s.right_map.members(m.right))?;
            SessionBuilder::new(&sub_left.net, &sub_right.net)
                .anchors(shard_anchors[i].clone())
                .count()
                .map_err(ShardedError::Session)
        });
        for session in built {
            let session = sharded.pool.insert(session?);
            sharded.shards.push(Shard {
                session,
                rows: Vec::new(),
            });
        }
        Ok(sharded)
    }

    /// The one constructor body: a shard-less session over `matching`
    /// with a pool on `config`'s worker budget. Both [`Self::with_partitions`]
    /// and [`Self::open_dir`] then add shard `i` for pair `i`.
    fn assemble(
        config: &ShardedConfig,
        left_map: PartitionMap,
        right_map: PartitionMap,
        matching: PartitionMatching,
        boundary_anchors: Vec<AnchorEdge>,
    ) -> Self {
        let mut pool = SessionPool::new(config.workers);
        pool.set_compaction(SHARD_COMPACTION);
        let shard_of_pair = matching
            .pairs
            .iter()
            .enumerate()
            .map(|(i, m)| ((m.left, m.right), i))
            .collect();
        ShardedSession {
            pool,
            shards: Vec::with_capacity(matching.pairs.len()),
            left_map,
            right_map,
            matching,
            shard_of_pair,
            boundary_anchors,
            home: None,
            routes: Vec::new(),
            featurized: false,
        }
    }

    /// Routes the global pair `(l, r)` to the shard owning its partition
    /// pair as `(shard, local l, local r)` — a binary search in the pair's
    /// sorted member lists, the lookup `SubNet::local_of` does — or `None`
    /// when the pair spans unmatched partitions.
    ///
    /// # Errors
    /// [`ShardedError::Partition`] on out-of-range endpoints.
    fn route(&self, l: UserId, r: UserId) -> Result<Option<(usize, UserId, UserId)>, ShardedError> {
        for (u, map) in [(l, &self.left_map), (r, &self.right_map)] {
            if u.index() >= map.n_users() {
                return Err(HetNetError::NodeOutOfRange {
                    kind: hetnet::NodeKind::User,
                    index: u.index(),
                    count: map.n_users(),
                }
                .into());
            }
        }
        let pair = (self.left_map.part_of(l), self.right_map.part_of(r));
        let Some(&si) = self.shard_of_pair.get(&pair) else {
            return Ok(None);
        };
        let local = |members: &[UserId], u| members.binary_search(&u).ok().map(UserId::from_index);
        match (
            local(self.left_map.members(pair.0), l),
            local(self.right_map.members(pair.1), r),
        ) {
            (Some(ll), Some(rr)) => Ok(Some((si, ll, rr))),
            _ => Err(ShardedError::Inconsistent {
                what: "a user is missing from its own partition's members",
            }),
        }
    }

    /// Number of shards (matched partition pairs).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The left network's partition map.
    pub fn left_partitions(&self) -> &PartitionMap {
        &self.left_map
    }

    /// The right network's partition map.
    pub fn right_partitions(&self) -> &PartitionMap {
        &self.right_map
    }

    /// The cross-network partition matching the shards were built from.
    pub fn matching(&self) -> &PartitionMatching {
        &self.matching
    }

    /// The shared boundary-anchor ledger: confirmed anchors spanning
    /// unmatched partition pairs. They seed no shard but are
    /// authoritative in every [`StitchedAlignment`].
    pub fn boundary_anchors(&self) -> &[AnchorEdge] {
        &self.boundary_anchors
    }

    /// Aggregated work counters over all shards (sums of each shard's
    /// [`DeltaStats`]).
    ///
    /// # Errors
    /// [`ShardedError::Pool`] when a shard slot is gone.
    pub fn stats(&self) -> Result<DeltaStats, ShardedError> {
        let mut total = DeltaStats::default();
        for s in &self.shards {
            let st = self.pool.stats(s.session)?;
            total.full_counts += st.full_counts;
            total.delta_updates += st.delta_updates;
            total.anchors_applied += st.anchors_applied;
        }
        Ok(total)
    }

    /// Routes `candidates` to their shards and featurizes every shard
    /// (concurrently). Candidates spanning unmatched partition pairs are
    /// pruned — no shard could score them — and reported.
    ///
    /// # Errors
    /// [`ShardedError::WrongStage`] when already featurized;
    /// [`ShardedError::Partition`] on out-of-range candidate endpoints.
    pub fn featurize(
        &mut self,
        candidates: Vec<(UserId, UserId)>,
    ) -> Result<RoutingSummary, ShardedError> {
        if self.featurized {
            return Err(ShardedError::WrongStage {
                expected: "Counted",
            });
        }
        let mut shard_cands: Vec<Vec<(UserId, UserId)>> = vec![Vec::new(); self.shards.len()];
        // Row tables are staged locally and committed only after every
        // shard featurizes, so an error mid-routing (or a failed shard)
        // leaves the session in its pre-call state.
        let mut shard_rows: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut routes = Vec::with_capacity(candidates.len());
        let mut pruned = 0usize;
        for (gi, &(l, r)) in candidates.iter().enumerate() {
            match self.route(l, r)? {
                Some((si, ll, rr)) => {
                    routes.push(Route::Shard(si, shard_cands[si].len()));
                    shard_cands[si].push((ll, rr));
                    shard_rows[si].push(gi);
                }
                None => {
                    routes.push(Route::Pruned);
                    pruned += 1;
                }
            }
        }
        let routed = candidates.len() - pruned;
        // Fan the featurizations out; each shard's slot lock serializes
        // against nothing (one job per shard).
        let jobs: Vec<CandidateJob> = shard_cands
            .into_iter()
            .map(|c| Mutex::new(Some(c)))
            .collect();
        let results = map_claimed(self.shards.len(), self.pool.workers(), |i| {
            let cands = jobs[i]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .ok_or(ShardedError::Inconsistent {
                    what: "a shard's candidate batch was claimed twice",
                })?;
            self.pool
                .featurize(self.shards[i].session, cands)
                .map_err(ShardedError::Pool)
        });
        for r in results {
            r?;
        }
        for (shard, rows) in self.shards.iter_mut().zip(shard_rows) {
            shard.rows = rows;
        }
        self.routes = routes;
        self.featurized = true;
        Ok(RoutingSummary { routed, pruned })
    }

    /// Applies newly confirmed anchors: in-shard edges go to their shard's
    /// `C += L·ΔA·R` delta path (fanned out as one
    /// [`SessionPool::update_many`] batch, refreshing featurized shards'
    /// downstream artifacts), pair-spanning edges join the boundary
    /// ledger. On a saved ensemble both sides are write-ahead: each shard
    /// journals its edges, and new boundary anchors reach the home
    /// directory's manifest (an atomic rewrite) after the shard updates
    /// succeed and before the in-memory ledger grows.
    ///
    /// An endpoint error changes nothing. A later failure can leave
    /// earlier shards' updates applied (and journaled); the ledger then
    /// stays as it was.
    ///
    /// # Errors
    /// [`ShardedError::Partition`] on out-of-range endpoints;
    /// [`ShardedError::Pool`] when a shard update fails;
    /// [`ShardedError::Manifest`] when the manifest rewrite fails.
    pub fn update_anchors(&mut self, edges: &[AnchorEdge]) -> Result<ShardedUpdate, ShardedError> {
        let mut per_shard: Vec<Vec<AnchorEdge>> = vec![Vec::new(); self.shards.len()];
        let mut boundary_new: Vec<AnchorEdge> = Vec::new();
        for e in edges {
            match self.route(e.left, e.right)? {
                Some((si, l, r)) => per_shard[si].push(AnchorEdge::new(l, r)),
                None if !self.boundary_anchors.contains(e) && !boundary_new.contains(e) => {
                    boundary_new.push(*e);
                }
                None => {}
            }
        }
        let jobs: Vec<(SessionId, Vec<AnchorEdge>)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, edges)| !edges.is_empty())
            .map(|(si, edges)| (self.shards[si].session, edges))
            .collect();
        let mut applied = 0usize;
        for r in self.pool.update_many(&jobs) {
            applied += r?;
        }
        let boundary = boundary_new.len();
        if boundary > 0 {
            let ledger = [self.boundary_anchors.as_slice(), &boundary_new].concat();
            if let Some(home) = &self.home {
                self.write_manifest(home, &ledger)?;
            }
            self.boundary_anchors = ledger;
        }
        Ok(ShardedUpdate { applied, boundary })
    }

    /// Fits every shard's active loop concurrently and stitches the
    /// results; see the [module docs](self) for the protocol.
    ///
    /// `labeled_pos` indexes the **global** candidate list passed to
    /// [`ShardedSession::featurize`]; so does every row the `oracle` is
    /// asked about. The query budget is split across shards proportionally
    /// to their candidate counts (largest-remainder, so a single shard
    /// receives the full budget — the degenerate case is exactly the
    /// global fit). Each shard queries through the paper's conflict
    /// strategy built from `config`.
    ///
    /// # Errors
    /// [`ShardedError::WrongStage`] before featurization;
    /// [`ShardedError::LabeledOutOfRange`] when a `labeled_pos` entry does
    /// not index the featurized candidates (checked before any shard fits);
    /// [`ShardedError::Pool`] when a shard slot is gone.
    pub fn fit(
        &self,
        labeled_pos: &[usize],
        oracle: &(dyn Oracle + Sync),
        config: &ModelConfig,
    ) -> Result<StitchedAlignment, ShardedError> {
        if !self.featurized {
            return Err(ShardedError::WrongStage {
                expected: "Featurized",
            });
        }
        // Translate the global labeled set to per-shard local rows.
        let mut labeled_local: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for &gi in labeled_pos {
            match self.routes.get(gi) {
                Some(Route::Shard(si, row)) => labeled_local[*si].push(*row),
                Some(Route::Pruned) => {}
                None => {
                    return Err(ShardedError::LabeledOutOfRange {
                        index: gi,
                        candidates: self.routes.len(),
                    })
                }
            }
        }
        let weights: Vec<usize> = self.shards.iter().map(|s| s.rows.len()).collect();
        let budgets = split_budget(config.budget, &weights);

        let fits = map_claimed(self.shards.len(), self.pool.workers(), |i| {
            let shard = &self.shards[i];
            if shard.rows.is_empty() {
                return Ok(empty_report());
            }
            let shard_config = ModelConfig {
                budget: budgets[i],
                ..config.clone()
            };
            let shard_oracle = RowOracle {
                inner: oracle,
                rows: &shard.rows,
            };
            self.pool.with_featurized(shard.session, |s| {
                let mut strategy =
                    ConflictQuery::new(shard_config.similar_tau, shard_config.margin_delta);
                ActiveLoop::new(s.instance(labeled_local[i].clone()), shard_config.clone())
                    .run(&mut strategy, &shard_oracle)
            })
        });

        let mut shard_reports = Vec::with_capacity(self.shards.len());
        for (i, fit) in fits.into_iter().enumerate() {
            shard_reports.push(ShardFitReport {
                pair: (self.matching.pairs[i].left, self.matching.pairs[i].right),
                rows: self.shards[i].rows.clone(),
                report: fit?,
            });
        }
        self.stitch(shard_reports)
    }

    /// Boundary-anchors-win, score-greedy, globally one-to-one stitching.
    fn stitch(
        &self,
        shard_reports: Vec<ShardFitReport>,
    ) -> Result<StitchedAlignment, ShardedError> {
        let mut proposed: Vec<StitchedLink> = Vec::new();
        for a in &self.boundary_anchors {
            proposed.push(StitchedLink {
                left: a.left,
                right: a.right,
                score: f64::INFINITY,
                shard: None,
                confirmed: true,
            });
        }
        for (si, sr) in shard_reports.iter().enumerate() {
            let shard = &self.shards[si];
            let local_cands = sr.report.labels.len();
            debug_assert_eq!(local_cands, shard.rows.len());
            let (left_ids, right_ids) = (
                self.left_map.members(sr.pair.0),
                self.right_map.members(sr.pair.1),
            );
            for row in 0..local_cands {
                // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
                if sr.report.labels[row] == 1.0 {
                    // Translate back through this shard's candidate list:
                    // the pool's featurized candidates hold local ids, the
                    // pair's member lists map them to global ones.
                    let (l, r) = self
                        .pool
                        .with_featurized(shard.session, |s| s.candidates()[row])?;
                    proposed.push(StitchedLink {
                        left: left_ids[l.index()],
                        right: right_ids[r.index()],
                        score: sr.report.scores[row],
                        shard: Some(si),
                        confirmed: false,
                    });
                }
            }
        }
        // Confirmed anchors first, then descending score (NaN last), then
        // ids — a total, deterministic order.
        proposed.sort_by(|a, b| {
            b.confirmed
                .cmp(&a.confirmed)
                .then(cmp_scores_desc(a.score, b.score))
                .then(a.left.cmp(&b.left))
                .then(a.right.cmp(&b.right))
        });
        let mut used_left = vec![false; self.left_map.n_users()];
        let mut used_right = vec![false; self.right_map.n_users()];
        let mut links = Vec::new();
        let mut dropped = 0usize;
        for link in proposed {
            if used_left[link.left.index()] || used_right[link.right.index()] {
                dropped += 1;
                continue;
            }
            used_left[link.left.index()] = true;
            used_right[link.right.index()] = true;
            links.push(link);
        }
        links.sort_by(|a, b| a.left.cmp(&b.left).then(a.right.cmp(&b.right)));
        Ok(StitchedAlignment {
            links,
            dropped_conflicts: dropped,
            pruned_candidates: self.routes.iter().filter(|r| **r == Route::Pruned).count(),
            shard_reports,
        })
    }

    /// Persists the ensemble to `dir` and makes `dir` its home: one base
    /// snapshot + ΔA journal per shard (`shard_NNNN.snap` / `.snap.jrnl`)
    /// plus [`MANIFEST_FILE`] holding the partition maps, the matching
    /// and the boundary-anchor ledger. Routing and features are derived
    /// state and are not persisted — reopen and re-featurize.
    ///
    /// Each shard persists through [`SessionPool::save`]: the **first**
    /// save of a shard into `dir` writes its full base and starts a
    /// journal there; from then on anchor updates are write-ahead
    /// appended per shard (and new boundary anchors rewrite the
    /// manifest), so a later `save_dir` costs k·O(|ΔA_k|) — an fsynced
    /// checkpoint record per shard plus the manifest — with each journal
    /// folded back into its base past 1 MiB, evaluated by the pool after
    /// every journaled write.
    ///
    /// Every shard is attempted even when one fails (a full-disk or
    /// vacated slot does not abort the batch); the manifest is written
    /// only when all shards persisted, and the **first** shard error is
    /// returned otherwise.
    ///
    /// # Errors
    /// [`ShardedError::Pool`] / [`ShardedError::Manifest`] on write
    /// failures.
    pub fn save_dir(&mut self, dir: impl AsRef<Path>) -> Result<(), ShardedError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(SnapshotError::Io)?;
        self.home = Some(dir.to_path_buf());
        let mut first_err: Option<ShardedError> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Err(e) = self.pool.save(shard.session, dir.join(shard_file(i))) {
                first_err.get_or_insert(ShardedError::Pool(e));
            }
        }
        // Per-shard saves may have enqueued background folds. Drain them
        // so a fold that fails is reported by this save instead of lost;
        // the failed shard stays durable as it was.
        for (_id, e) in self.pool.flush_compactions() {
            first_err.get_or_insert(ShardedError::Pool(PoolError::Journal(e)));
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(self.write_manifest(dir, &self.boundary_anchors)?),
        }
    }

    /// Atomically writes the manifest into `dir` with `ledger` as the
    /// boundary ledger.
    fn write_manifest(&self, dir: &Path, ledger: &[AnchorEdge]) -> Result<(), SnapshotError> {
        let mut w = Writer::new();
        encode_map(&mut w, &self.left_map);
        encode_map(&mut w, &self.right_map);
        w.usize(self.matching.pairs.len());
        for m in &self.matching.pairs {
            w.usize(m.left);
            w.usize(m.right);
            w.f64(m.similarity);
            w.usize(m.anchor_votes);
        }
        w.usize_slice(&self.matching.unmatched_left);
        w.usize_slice(&self.matching.unmatched_right);
        record::write_pairs(&mut w, ledger);
        let sections = [(SECTION_MANIFEST, w.into_bytes())];
        let bytes = snapshot::write_container(&MANIFEST_MAGIC, MANIFEST_VERSION, &sections);
        snapshot::write_atomic(&dir.join(MANIFEST_FILE), &bytes)
    }

    /// Restores a [`ShardedSession::save_dir`] directory and makes it the
    /// ensemble's home: decodes the manifest, opens every shard's
    /// base+journal across the worker budget, and rebuilds the routing
    /// tables. The session comes back in the counted stage (call
    /// [`ShardedSession::featurize`] next); `config` supplies the worker
    /// budget — the partition structure itself comes from the manifest.
    ///
    /// # Errors
    /// [`ShardedError::Manifest`] on a missing/corrupt manifest;
    /// [`ShardedError::Pool`] when a shard snapshot refuses to open (the
    /// error names the file); [`ShardedError::Inconsistent`] when a
    /// shard's anchor shape differs from the member lists the manifest
    /// routes into it (a shard file from another ensemble).
    pub fn open_dir(dir: impl AsRef<Path>, config: &ShardedConfig) -> Result<Self, ShardedError> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(dir.join(MANIFEST_FILE)).map_err(SnapshotError::Io)?;
        let (left_map, right_map, matching, ledger) = decode_manifest(&bytes)?;
        let mut sharded = Self::assemble(config, left_map, right_map, matching, ledger);
        sharded.home = Some(dir.to_path_buf());
        let paths: Vec<PathBuf> = (0..sharded.matching.pairs.len())
            .map(|i| dir.join(shard_file(i)))
            .collect();
        let opened = sharded.pool.open_many(&paths);
        for (session, m) in opened.into_iter().zip(&sharded.matching.pairs) {
            let session = session?;
            let expected = (
                sharded.left_map.members(m.left).len(),
                sharded.right_map.members(m.right).len(),
            );
            if sharded.pool.with_counted(session, |s| s.anchor().shape())? != expected {
                return Err(ShardedError::Inconsistent {
                    what: "a shard snapshot's shape differs from its manifest member lists",
                });
            }
            sharded.shards.push(Shard {
                session,
                rows: Vec::new(),
            });
        }
        Ok(sharded)
    }
}

/// Snapshot file name of shard `i`.
fn shard_file(i: usize) -> String {
    format!("shard_{i:04}.snap")
}

fn encode_map(w: &mut Writer, map: &PartitionMap) {
    let (part_of, boundary) = map.raw_parts();
    w.usize(part_of.len());
    w.reserve(part_of.len() * 4 + boundary.len());
    for &p in part_of {
        w.u32(p);
    }
    for &b in boundary {
        w.u8(b as u8);
    }
}

fn decode_map(r: &mut Reader<'_>) -> Result<PartitionMap, SnapshotError> {
    // Each user costs 4 bytes of partition id + 1 boundary byte, so the
    // length prefix is bounded by the remaining input before it sizes
    // any allocation (the PR 5 `seq_len` guard; `unguarded_prealloc`
    // enforces the pattern).
    let n = r.seq_len(5)?;
    let mut part_of = Vec::with_capacity(n);
    let mut next_dense = 0u32;
    for _ in 0..n {
        let p = r.u32()?;
        if p > next_dense {
            return Err(BinError::Malformed(format!(
                "partition ids must be dense; found {p} before {next_dense}"
            ))
            .into());
        }
        if p == next_dense {
            next_dense += 1;
        }
        part_of.push(p);
    }
    let mut boundary = Vec::with_capacity(n);
    for _ in 0..n {
        boundary.push(match r.u8()? {
            0 => false,
            1 => true,
            b => {
                return Err(BinError::Malformed(format!(
                    "boundary flags must be 0 or 1; found {b}"
                ))
                .into())
            }
        });
    }
    Ok(PartitionMap::from_raw_parts(part_of, boundary))
}

/// Decodes manifest bytes into `(left map, right map, matching, ledger)`.
fn decode_manifest(
    bytes: &[u8],
) -> Result<
    (
        PartitionMap,
        PartitionMap,
        PartitionMatching,
        Vec<AnchorEdge>,
    ),
    SnapshotError,
> {
    let [payload] =
        snapshot::read_container(bytes, &MANIFEST_MAGIC, MANIFEST_VERSION, [SECTION_MANIFEST])?;
    let mut p = Reader::new(payload);
    let left_map = decode_map(&mut p)?;
    let right_map = decode_map(&mut p)?;
    let n_pairs = p.seq_len(8 * 4)?;
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let left = p.usize()?;
        let right = p.usize()?;
        let similarity = p.f64()?;
        let anchor_votes = p.usize()?;
        if left >= left_map.n_partitions() || right >= right_map.n_partitions() {
            return Err(BinError::Malformed(format!(
                "matched pair ({left}, {right}) outside the partition maps"
            ))
            .into());
        }
        pairs.push(hetnet::partition::MatchedPair {
            left,
            right,
            similarity,
            anchor_votes,
        });
    }
    let unmatched_left = p.usize_slice()?;
    let unmatched_right = p.usize_slice()?;
    let ledger: Vec<AnchorEdge> = record::read_pairs(&mut p)?;
    p.expect_end("the manifest")?;
    if let Some(a) = ledger
        .iter()
        .find(|a| a.left.index() >= left_map.n_users() || a.right.index() >= right_map.n_users())
    {
        return Err(BinError::Malformed(format!(
            "boundary anchor ({}, {}) outside the networks",
            a.left.0, a.right.0
        ))
        .into());
    }
    let matching = PartitionMatching {
        pairs,
        unmatched_left,
        unmatched_right,
    };
    Ok((left_map, right_map, matching, ledger))
}

/// Splits `total` across `weights` proportionally (largest remainder;
/// ties to the smaller index). A single non-zero weight gets everything.
fn split_budget(total: usize, weights: &[usize]) -> Vec<usize> {
    let sum: usize = weights.iter().sum();
    if sum == 0 || total == 0 {
        return vec![0; weights.len()];
    }
    let mut quotas: Vec<usize> = weights.iter().map(|&w| total * w / sum).collect();
    let assigned: usize = quotas.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(total * weights[i] % sum), i));
    for &i in order.iter().take(total - assigned) {
        quotas[i] += 1;
    }
    quotas
}

/// An oracle view translating a shard's local rows to global candidate
/// indices.
struct RowOracle<'a> {
    inner: &'a (dyn Oracle + Sync),
    rows: &'a [usize],
}

impl Oracle for RowOracle<'_> {
    fn label(&self, idx: usize) -> bool {
        self.inner.label(self.rows[idx])
    }

    fn queries_answered(&self) -> usize {
        self.inner.queries_answered()
    }
}

/// The report of a shard with no candidates: nothing to fit, nothing
/// predicted.
fn empty_report() -> FitReport {
    FitReport {
        labels: Vec::new(),
        scores: Vec::new(),
        weights: Vec::new(),
        queried: Vec::new(),
        rounds: Vec::new(),
        elapsed: std::time::Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_budget_is_exact_and_proportional() {
        assert_eq!(split_budget(10, &[5]), vec![10]);
        assert_eq!(split_budget(10, &[1, 1]), vec![5, 5]);
        let q = split_budget(10, &[3, 1, 1]);
        assert_eq!(q.iter().sum::<usize>(), 10);
        assert_eq!(q[0], 6);
        assert_eq!(split_budget(0, &[3, 1]), vec![0, 0]);
        assert_eq!(split_budget(7, &[0, 0]), vec![0, 0]);
        // Largest remainder: 7 over [2, 2, 3] → quotas [2, 2, 3].
        assert_eq!(split_budget(7, &[2, 2, 3]), vec![2, 2, 3]);
    }

    #[test]
    fn manifest_decode_rejects_corruption() {
        assert!(matches!(
            decode_manifest(b"not a manifest at all"),
            Err(SnapshotError::BadMagic)
        ));
        let mut w = Writer::new();
        w.bytes(&MANIFEST_MAGIC);
        w.u32(99);
        w.u32(0);
        assert!(matches!(
            decode_manifest(w.as_bytes()),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn map_decode_rejects_a_non_canonical_boundary_byte() {
        let map = PartitionMap::from_raw_parts(vec![0, 0, 1], vec![false, true, false]);
        let mut w = Writer::new();
        encode_map(&mut w, &map);
        let mut bytes = w.as_bytes().to_vec();
        // The boundary flags are the map's last bytes, one per user.
        *bytes.last_mut().unwrap() = 2;
        assert!(matches!(
            decode_map(&mut Reader::new(&bytes)),
            Err(SnapshotError::Decode(BinError::Malformed(_)))
        ));
    }
}
