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
//! 4. fitting fans the per-shard active loops out over the pool's worker
//!    budget and [`ShardedSession::fit`] **stitches** the per-shard
//!    positives into one [`StitchedAlignment`]: boundary-ledger anchors
//!    win outright, then shard predictions enter by descending score
//!    under a global one-to-one constraint (conflicts at partition
//!    boundaries are dropped and counted, not silently kept).
//!
//! Cost intuition: with `k` balanced shards, counting and featurization
//! drop from one `O(n²)`-shaped problem to `k` problems of size
//! `O((n/k)²)` that also run concurrently — the `partition` bench bin
//! measures where the crossover against the global pipeline lands.
//!
//! A sharded session persists like the pool it wraps:
//! [`ShardedSession::save_dir`] calls [`SessionPool::save`] once per
//! shard (one base snapshot + ΔA journal each) and writes a
//! CRC-checked manifest (partition maps, matching, boundary ledger), and
//! [`ShardedSession::open_dir`] restores the whole ensemble without
//! recounting.
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
use crate::snapshot::{self, SnapshotError};
use crate::stages::SessionBuilder;
use crate::workers::run_ordered;
use crate::{AnchorEdge, SessionError};
use activeiter::driver::ActiveLoop;
use activeiter::query::ConflictQuery;
use activeiter::{FitReport, ModelConfig, Oracle};
use hetnet::partition::{
    induce_subnet, match_partitions, PartitionConfig, PartitionMap, PartitionMatching,
};
use hetnet::{HetNet, HetNetError, UserId};
use metadiagram::{DeltaStats, FeatureSet};
use serde::bin::{crc32, Error as BinError, Reader, Writer};
use sparsela::Threading;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

/// One shard's candidate batch, claimed exactly once by the worker that
/// featurizes that shard.
type CandidateJob = Mutex<Option<Vec<(UserId, UserId)>>>;

/// Magic prefix of a sharded-session manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"MDASHRD\0";
/// Manifest format version this build writes and reads. Version 2
/// appended the per-shard base+journal length table; any other version is
/// refused, like a snapshot version bump.
pub const MANIFEST_VERSION: u32 = 2;
/// File name of the manifest inside a [`ShardedSession::save_dir`]
/// directory.
pub const MANIFEST_FILE: &str = "manifest.mdashard";

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
    /// Two structures that must agree have drifted apart — a user the
    /// partition map routes to a shard is missing from that shard's id
    /// tables, or a shard vanished mid-operation. These invariants used
    /// to be `expect`s; as typed errors a damaged ensemble (e.g. a
    /// hand-edited manifest whose maps disagree with the shard
    /// snapshots) reports instead of aborting the process.
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
            ShardedError::WrongStage { .. } | ShardedError::Inconsistent { .. } => None,
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

/// Knobs of a [`ShardedSession`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Community-detection knobs ([`PartitionMap::detect`]).
    pub partition: PartitionConfig,
    /// WL refinement rounds for partition matching
    /// ([`hetnet::partition::wl_signatures`]).
    pub wl_rounds: usize,
    /// Feature-catalog slice each shard counts.
    pub feature_set: FeatureSet,
    /// Worker threading *inside* one shard's count/gather. Shards already
    /// run concurrently, so the default keeps each shard serial; raise it
    /// only when shards outnumber cores badly the other way.
    pub threading: Threading,
    /// Worker budget for the shard fan-out itself (`0` = one per
    /// available hardware thread). Results are bit-identical at any
    /// setting.
    pub workers: usize,
    /// When a saved shard's ΔA journal is folded back into its base
    /// snapshot (see [`crate::journal`]); the pool evaluates it after
    /// every journaled write — each update and each
    /// [`ShardedSession::save_dir`] checkpoint. The default
    /// bounds each shard's journal at 1 MiB, so replay-on-open stays
    /// cheap while a typical round still persists at k·O(|ΔA_k|).
    pub compaction: CompactionPolicy,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            partition: PartitionConfig::default(),
            wl_rounds: 2,
            feature_set: FeatureSet::Full,
            threading: Threading::Serial,
            workers: 0,
            compaction: CompactionPolicy::Bytes(1 << 20),
        }
    }
}

/// One shard: a pooled session over one matched partition pair, plus the
/// local↔global id translation tables.
#[derive(Debug)]
struct Shard {
    session: SessionId,
    /// Indices into `matching.pairs` — shard `i` serves pair `i`.
    left_ids: Vec<UserId>,
    right_ids: Vec<UserId>,
    /// Global candidate index per local feature row (set by `featurize`).
    rows: Vec<usize>,
}

impl Shard {
    fn local_left(&self, u: UserId) -> Option<u32> {
        self.left_ids.binary_search(&u).ok().map(|i| i as u32)
    }

    fn local_right(&self, u: UserId) -> Option<u32> {
        self.right_ids.binary_search(&u).ok().map(|i| i as u32)
    }
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
/// included and authoritative. Convertible to `eval`'s `MultiAlignment`
/// (see `eval::multi::stitched_to_alignment`).
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
    config: ShardedConfig,
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
        let matching = match_partitions(
            left,
            right,
            &left_map,
            &right_map,
            &anchors,
            config.wl_rounds,
        )?;
        let shard_of_pair: HashMap<(usize, usize), usize> = matching
            .pairs
            .iter()
            .enumerate()
            .map(|(i, m)| ((m.left, m.right), i))
            .collect();

        // Route the training anchors: in-shard ones seed their shard's
        // count; pair-spanning ones go to the boundary ledger.
        let mut shard_anchors: Vec<Vec<AnchorEdge>> = vec![Vec::new(); matching.pairs.len()];
        let mut boundary_anchors: Vec<AnchorEdge> = Vec::new();
        for a in &anchors {
            let pair = (left_map.part_of(a.left), right_map.part_of(a.right));
            match shard_of_pair.get(&pair) {
                Some(&si) => shard_anchors[si].push(*a),
                None => boundary_anchors.push(*a),
            }
        }

        // Build the per-shard counted sessions concurrently — each shard
        // pays a catalog count over its own sub-networks only.
        let mut pool = SessionPool::new(config.workers);
        pool.set_compaction(config.compaction);
        let workers = pool.workers();
        let mut built: Vec<
            Result<crate::stages::AlignmentSession<crate::stages::Counted>, ShardedError>,
        > = Vec::with_capacity(matching.pairs.len());
        let mut id_tables: Vec<(Vec<UserId>, Vec<UserId>)> = Vec::new();
        for m in &matching.pairs {
            id_tables.push((
                left_map.members(m.left).to_vec(),
                right_map.members(m.right).to_vec(),
            ));
        }
        run_ordered(
            matching.pairs.len(),
            workers,
            |i| {
                let (left_ids, right_ids) = &id_tables[i];
                let sub_left = induce_subnet(left, left_ids);
                let sub_right = induce_subnet(right, right_ids);
                let mut local: Vec<AnchorEdge> = Vec::with_capacity(shard_anchors[i].len());
                for a in &shard_anchors[i] {
                    // Routed here by the partition map, so both endpoints
                    // must be members of the induced sub-networks; a map
                    // that disagrees with its own member lists reports
                    // instead of aborting.
                    let (Some(l), Some(r)) =
                        (sub_left.local_of(a.left), sub_right.local_of(a.right))
                    else {
                        return Err(ShardedError::Inconsistent {
                            what: "anchor routed to a shard its partition does not contain",
                        });
                    };
                    local.push(AnchorEdge::new(UserId(l as u32), UserId(r as u32)));
                }
                SessionBuilder::new(&sub_left.net, &sub_right.net)
                    .anchors(local)
                    .feature_set(config.feature_set)
                    .threading(config.threading)
                    .count()
                    .map_err(ShardedError::from)
            },
            |r| built.push(r),
        );
        let mut shards = Vec::with_capacity(built.len());
        for (session, (left_ids, right_ids)) in built.into_iter().zip(id_tables) {
            let id = pool.insert(session?);
            shards.push(Shard {
                session: id,
                left_ids,
                right_ids,
                rows: Vec::new(),
            });
        }
        Ok(ShardedSession {
            pool,
            shards,
            left_map,
            right_map,
            matching,
            shard_of_pair,
            boundary_anchors,
            config: config.clone(),
            routes: Vec::new(),
            featurized: false,
        })
    }

    /// Number of shards (matched partition pairs).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration this session was built (or reopened) with.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
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
        for &(l, r) in &candidates {
            self.check_endpoints(l, r)?;
        }
        let mut shard_cands: Vec<Vec<(UserId, UserId)>> = vec![Vec::new(); self.shards.len()];
        // Row tables are staged locally and committed only after every
        // shard featurizes, so an error mid-routing (or a failed shard)
        // leaves the session in its pre-call state.
        let mut shard_rows: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut routes = Vec::with_capacity(candidates.len());
        let mut pruned = 0usize;
        for (gi, &(l, r)) in candidates.iter().enumerate() {
            let pair = (self.left_map.part_of(l), self.right_map.part_of(r));
            match self.shard_of_pair.get(&pair) {
                Some(&si) => {
                    let shard = &self.shards[si];
                    let (Some(ll), Some(rr)) = (shard.local_left(l), shard.local_right(r)) else {
                        return Err(ShardedError::Inconsistent {
                            what: "candidate routed to a shard its partition does not contain",
                        });
                    };
                    routes.push(Route::Shard(si, shard_cands[si].len()));
                    shard_cands[si].push((UserId(ll), UserId(rr)));
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
        let mut results: Vec<Result<(), ShardedError>> = Vec::with_capacity(self.shards.len());
        run_ordered(
            self.shards.len(),
            self.pool.workers(),
            |i| {
                let cands = jobs[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .ok_or(ShardedError::Inconsistent {
                        what: "a shard's candidate batch was claimed twice",
                    })?;
                Ok(self.pool.featurize(self.shards[i].session, cands)?)
            },
            |r| results.push(r),
        );
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

    fn check_endpoints(&self, l: UserId, r: UserId) -> Result<(), ShardedError> {
        if l.index() >= self.left_map.n_users() {
            return Err(HetNetError::NodeOutOfRange {
                kind: hetnet::NodeKind::User,
                index: l.index(),
                count: self.left_map.n_users(),
            }
            .into());
        }
        if r.index() >= self.right_map.n_users() {
            return Err(HetNetError::NodeOutOfRange {
                kind: hetnet::NodeKind::User,
                index: r.index(),
                count: self.right_map.n_users(),
            }
            .into());
        }
        Ok(())
    }

    /// Applies newly confirmed anchors: in-shard edges go to their shard's
    /// `C += L·ΔA·R` delta path (fanned out as one
    /// [`SessionPool::update_many`] batch, refreshing featurized shards'
    /// downstream artifacts), pair-spanning edges join the boundary
    /// ledger. Nothing changes on error.
    ///
    /// # Errors
    /// [`ShardedError::Partition`] on out-of-range endpoints;
    /// [`ShardedError::Pool`] when a shard update fails.
    pub fn update_anchors(&mut self, edges: &[AnchorEdge]) -> Result<ShardedUpdate, ShardedError> {
        for e in edges {
            self.check_endpoints(e.left, e.right)?;
        }
        let mut per_shard: Vec<Vec<AnchorEdge>> = vec![Vec::new(); self.shards.len()];
        let mut boundary_new: Vec<AnchorEdge> = Vec::new();
        for e in edges {
            let pair = (
                self.left_map.part_of(e.left),
                self.right_map.part_of(e.right),
            );
            match self.shard_of_pair.get(&pair) {
                Some(&si) => {
                    let shard = &self.shards[si];
                    let (Some(l), Some(r)) = (shard.local_left(e.left), shard.local_right(e.right))
                    else {
                        return Err(ShardedError::Inconsistent {
                            what: "anchor routed to a shard its partition does not contain",
                        });
                    };
                    per_shard[si].push(AnchorEdge::new(UserId(l), UserId(r)));
                }
                None => {
                    if !self.boundary_anchors.contains(e) && !boundary_new.contains(e) {
                        boundary_new.push(*e);
                    }
                }
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
        self.boundary_anchors.extend(boundary_new);
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
            if let Some(Route::Shard(si, row)) = self.routes.get(gi) {
                labeled_local[*si].push(*row);
            }
        }
        let weights: Vec<usize> = self.shards.iter().map(|s| s.rows.len()).collect();
        let budgets = split_budget(config.budget, &weights);

        let mut fits: Vec<Result<FitReport, PoolError>> = Vec::with_capacity(self.shards.len());
        run_ordered(
            self.shards.len(),
            self.pool.workers(),
            |i| {
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
                    let mut drv =
                        ActiveLoop::new(s.instance(labeled_local[i].clone()), shard_config.clone());
                    loop {
                        drv.converge();
                        if drv.remaining() == 0 {
                            break;
                        }
                        let selection = drv.select_queries(&mut strategy);
                        if selection.is_empty() {
                            break;
                        }
                        for idx in selection {
                            drv.apply_answer(idx, shard_oracle.label(idx));
                        }
                    }
                    drv.finish()
                })
            },
            |r| fits.push(r),
        );

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
            for row in 0..local_cands {
                // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
                if sr.report.labels[row] == 1.0 {
                    // Translate back through this shard's candidate list:
                    // proximate global ids live in the pool's featurized
                    // candidates (local ids), so recover them from the id
                    // tables.
                    let (l, r) = self
                        .pool
                        .with_featurized(shard.session, |s| s.candidates()[row])?;
                    proposed.push(StitchedLink {
                        left: shard.left_ids[l.index()],
                        right: shard.right_ids[r.index()],
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

    /// Persists the ensemble to `dir`: one base snapshot + ΔA journal
    /// per shard (`shard_NNNN.snap` / `.snap.jrnl`) plus the CRC-checked
    /// [`MANIFEST_FILE`] (v2) holding the partition maps, the matching,
    /// the boundary-anchor ledger, and the per-shard base+journal length
    /// table. Routing and features are derived state and are not
    /// persisted — reopen and re-featurize.
    ///
    /// Each shard persists through [`SessionPool::save`]: the **first**
    /// save of a shard into `dir` writes its full base and starts a
    /// journal there; from then on anchor updates are write-ahead
    /// appended per shard, so a later `save_dir` costs k·O(|ΔA_k|) — an
    /// fsynced checkpoint record per shard plus the manifest — with each
    /// journal folded back into its base per
    /// [`ShardedConfig::compaction`], evaluated by the pool after every
    /// journaled write.
    ///
    /// Every shard is attempted even when one fails (a full-disk or
    /// vacated slot does not abort the batch); the manifest is written
    /// only when all shards persisted, and the **first** shard error is
    /// returned otherwise.
    ///
    /// # Errors
    /// [`ShardedError::Pool`] / [`ShardedError::Manifest`] on write
    /// failures.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), ShardedError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(SnapshotError::Io)?;
        let mut first_err: Option<ShardedError> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let path = dir.join(shard_file(i));
            if let Err(e) = self.pool.save(shard.session, &path) {
                first_err.get_or_insert(ShardedError::Pool(e));
            }
        }
        // Per-shard saves may have enqueued background folds; the
        // manifest's byte table must describe the files as they are
        // after those folds land, so drain them first. A failed fold
        // leaves its shard durable as-is, but the save still reports it.
        for (_id, e) in self.pool.flush_compactions() {
            first_err.get_or_insert(ShardedError::Pool(crate::pool::PoolError::Journal(e)));
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let manifest = self.manifest_bytes()?;
        snapshot::write_atomic(&dir.join(MANIFEST_FILE), &manifest)?;
        Ok(())
    }

    fn manifest_bytes(&self) -> Result<Vec<u8>, ShardedError> {
        let mut payload = Writer::new();
        encode_map(&mut payload, &self.left_map);
        encode_map(&mut payload, &self.right_map);
        payload.usize(self.matching.pairs.len());
        for m in &self.matching.pairs {
            payload.usize(m.left);
            payload.usize(m.right);
            payload.f64(m.similarity);
            payload.usize(m.anchor_votes);
        }
        payload.usize_slice(&self.matching.unmatched_left);
        payload.usize_slice(&self.matching.unmatched_right);
        payload.usize(self.boundary_anchors.len());
        for a in &self.boundary_anchors {
            payload.u32(a.left.0);
            payload.u32(a.right.0);
        }
        // v2: the per-shard base+journal length table, as of this save.
        // Informational — integrity comes from each journal's CRC pairing
        // with its base — but it lets ops tooling spot a shard whose
        // files were swapped or truncated without decoding them.
        payload.usize(self.shards.len());
        for shard in &self.shards {
            let (base_len, journal_len) = match self.pool.journal_stats(shard.session)? {
                Some((b, j, _)) => (b, j),
                None => (0, 0),
            };
            payload.u64(base_len);
            payload.u64(journal_len);
        }
        let payload = payload.into_bytes();
        let mut out = Writer::with_capacity(MANIFEST_MAGIC.len() + 4 + payload.len() + 4);
        out.bytes(&MANIFEST_MAGIC);
        out.u32(MANIFEST_VERSION);
        out.bytes(&payload);
        out.u32(crc32(&payload));
        Ok(out.into_bytes())
    }

    /// Restores a [`ShardedSession::save_dir`] directory: decodes the
    /// manifest, opens every shard snapshot across the worker budget, and
    /// rebuilds the routing tables. The session comes back in the counted
    /// stage (call [`ShardedSession::featurize`] next); `config` supplies
    /// the runtime knobs (worker budget, threading) — the partition
    /// structure itself comes from the manifest.
    ///
    /// # Errors
    /// [`ShardedError::Manifest`] on a missing/corrupt manifest;
    /// [`ShardedError::Pool`] when a shard snapshot refuses to open (the
    /// error names the file).
    pub fn open_dir(dir: impl AsRef<Path>, config: &ShardedConfig) -> Result<Self, ShardedError> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(dir.join(MANIFEST_FILE)).map_err(SnapshotError::Io)?;
        let decoded = decode_manifest(&bytes)?;
        let (left_map, right_map, matching, boundary_anchors) = decoded.parts;

        let mut pool = SessionPool::new(config.workers);
        pool.set_compaction(config.compaction);
        let paths: Vec<std::path::PathBuf> = (0..matching.pairs.len())
            .map(|i| dir.join(shard_file(i)))
            .collect();
        let mut shards = Vec::with_capacity(paths.len());
        for (i, opened) in pool.open_many(&paths).into_iter().enumerate() {
            let id = opened?;
            let m = &matching.pairs[i];
            shards.push(Shard {
                session: id,
                left_ids: left_map.members(m.left).to_vec(),
                right_ids: right_map.members(m.right).to_vec(),
                rows: Vec::new(),
            });
        }
        let shard_of_pair = matching
            .pairs
            .iter()
            .enumerate()
            .map(|(i, m)| ((m.left, m.right), i))
            .collect();
        Ok(ShardedSession {
            pool,
            shards,
            left_map,
            right_map,
            matching,
            shard_of_pair,
            boundary_anchors,
            config: config.clone(),
            routes: Vec::new(),
            featurized: false,
        })
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
        boundary.push(r.u8()? != 0);
    }
    Ok(PartitionMap::from_raw_parts(part_of, boundary))
}

type ManifestParts = (
    PartitionMap,
    PartitionMap,
    PartitionMatching,
    Vec<AnchorEdge>,
);

/// Everything a manifest decodes to.
struct DecodedManifest {
    parts: ManifestParts,
    /// Per-shard `(base_len, journal_len)` as of the last save.
    shard_lens: Vec<(u64, u64)>,
}

/// What [`manifest_info`] reports about a saved sharded-session
/// directory without opening any shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestInfo {
    /// The manifest's format version (always [`MANIFEST_VERSION`]).
    pub version: u32,
    /// Number of shards (matched partition pairs) in the ensemble.
    pub n_shards: usize,
    /// Boundary-ledger anchors recorded in the manifest.
    pub boundary_anchors: usize,
    /// Per-shard `(base_len, journal_len)` in bytes as of the last save.
    pub shard_lens: Vec<(u64, u64)>,
}

/// Decodes the manifest in `dir` and reports its version and per-shard
/// base+journal lengths — the ops-facing view of a saved ensemble, no
/// shard snapshot is touched.
///
/// # Errors
/// [`ShardedError::Manifest`] on a missing/corrupt manifest.
pub fn manifest_info(dir: impl AsRef<Path>) -> Result<ManifestInfo, ShardedError> {
    let bytes = std::fs::read(dir.as_ref().join(MANIFEST_FILE)).map_err(SnapshotError::Io)?;
    let decoded = decode_manifest(&bytes)?;
    Ok(ManifestInfo {
        version: MANIFEST_VERSION,
        n_shards: decoded.parts.2.pairs.len(),
        boundary_anchors: decoded.parts.3.len(),
        shard_lens: decoded.shard_lens,
    })
}

fn decode_manifest(bytes: &[u8]) -> Result<DecodedManifest, SnapshotError> {
    let mut r = Reader::new(bytes);
    let magic = r
        .bytes(MANIFEST_MAGIC.len())
        .map_err(|_| SnapshotError::BadMagic)?;
    if magic != MANIFEST_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != MANIFEST_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: MANIFEST_VERSION,
        });
    }
    if r.remaining() < 4 {
        return Err(BinError::UnexpectedEof {
            needed: 4,
            remaining: r.remaining(),
        }
        .into());
    }
    let payload = r.bytes(r.remaining() - 4)?;
    let mut tail = Reader::new(bytes);
    let _ = tail.bytes(bytes.len() - 4)?;
    let recorded = tail.u32()?;
    if crc32(payload) != recorded {
        return Err(SnapshotError::Checksum {
            section: "MANI".to_string(),
        });
    }
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
    let n_anchors = p.seq_len(8)?;
    let mut boundary_anchors = Vec::with_capacity(n_anchors);
    for _ in 0..n_anchors {
        let l = p.u32()?;
        let rr = p.u32()?;
        if l as usize >= left_map.n_users() || rr as usize >= right_map.n_users() {
            return Err(BinError::Malformed(format!(
                "boundary anchor ({l}, {rr}) outside the networks"
            ))
            .into());
        }
        boundary_anchors.push(AnchorEdge::new(UserId(l), UserId(rr)));
    }
    // The per-shard (base_len, journal_len) table closes the payload.
    let n_shards = p.seq_len(16)?;
    if n_shards != pairs.len() {
        return Err(BinError::Malformed(format!(
            "shard-length table has {n_shards} rows for {} matched pairs",
            pairs.len()
        ))
        .into());
    }
    let mut shard_lens = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let base_len = p.u64()?;
        let journal_len = p.u64()?;
        shard_lens.push((base_len, journal_len));
    }
    if !p.is_exhausted() {
        return Err(
            BinError::Malformed(format!("{} trailing manifest bytes", p.remaining())).into(),
        );
    }
    Ok(DecodedManifest {
        parts: (
            left_map,
            right_map,
            PartitionMatching {
                pairs,
                unmatched_left,
                unmatched_right,
            },
            boundary_anchors,
        ),
        shard_lens,
    })
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

/// Descending, NaN-last score comparison (total order).
fn cmp_scores_desc(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
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
    fn score_order_is_total_and_nan_last() {
        let mut v = [0.2, f64::NAN, 0.9, f64::INFINITY, 0.2];
        v.sort_by(|a, b| cmp_scores_desc(*a, *b));
        assert_eq!(v[0], f64::INFINITY);
        assert_eq!(v[1], 0.9);
        assert!(v[4].is_nan());
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
}
