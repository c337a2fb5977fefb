//! Partition-sharded alignment: one [`AlignmentSession`] per matched
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
//!    its own induced sub-network pair and its own [`AlignmentSession`],
//!    owned by the sharded session;
//! 2. training anchors, candidates and confirmed-anchor updates are
//!    **routed** to the shard owning their partition pair; anchors whose
//!    endpoints span *unmatched* partitions go to a shared
//!    boundary-anchor ledger instead (they have no shard that could count
//!    them, but they are confirmed knowledge — they re-enter at stitch
//!    time as authoritative links);
//! 3. in-shard updates run through each shard's `C += L·ΔA·R` delta path
//!    ([`AlignmentSession::update_anchors`]), so the active loop stays
//!    incremental per shard;
//! 4. the shard build, featurization, updates and fit each fan out one
//!    job per shard over the [`ShardedConfig::workers`] budget
//!    ([`sparsela::map_claimed`], results in shard order), and
//!    [`ShardedSession::fit`] **stitches** the per-shard positives into
//!    one [`StitchedAlignment`]:
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
//! A sharded session lives in memory only: the partition maps, the
//! boundary-anchor ledger and the shard sessions are rebuilt from the
//! networks with [`ShardedSession::new`] or
//! [`ShardedSession::with_partitions`].
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

use crate::stages::{AlignmentSession, Counted, Featurized, SessionBuilder};
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
use sparsela::{map_claimed, Threading};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// One shard's session (owned or borrowed) together with its batch,
/// claimed exactly once by the worker that runs that shard.
type ShardJob<S, B> = Mutex<Option<(S, B)>>;

/// WL refinement rounds for partition matching.
const WL_ROUNDS: usize = 2;

/// Everything a sharded-session operation can fail with.
#[derive(Debug)]
pub enum ShardedError {
    /// Partitioning or partition matching rejected its input
    /// (out-of-range anchor endpoints).
    Partition(HetNetError),
    /// Building or updating a shard's session failed.
    Session(SessionError),
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
    /// Two structures that must agree have drifted apart — a user
    /// missing from its own partition's members, or a shard's job
    /// claimed twice. A damaged ensemble reports instead of aborting the
    /// process.
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

/// Knobs of a [`ShardedSession`]. Everything else is fixed: matching runs
/// two WL rounds, and each shard counts the full catalog serially with
/// the [`SessionBuilder`] defaults (shards already run concurrently).
#[derive(Debug, Clone, Default)]
pub struct ShardedConfig {
    /// Community-detection knobs ([`PartitionMap::detect`]).
    pub partition: PartitionConfig,
    /// Worker budget for the shard fan-out (`0` = one per available
    /// hardware thread). Results are bit-identical at any setting.
    pub workers: usize,
}

/// The shard sessions, one per matched partition pair — pair `i` of the
/// matching is shard `i`, its local ids index that pair's member lists.
/// Every shard is in the same stage.
enum Shards {
    Counted(Vec<AlignmentSession<Counted>>),
    Featurized(Vec<AlignmentSession<Featurized>>),
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
    shards: Shards,
    /// Per shard: the global candidate index per local feature row (set
    /// by `featurize`).
    rows: Vec<Vec<usize>>,
    /// The resolved [`ShardedConfig::workers`] budget.
    workers: usize,
    left_map: PartitionMap,
    right_map: PartitionMap,
    matching: PartitionMatching,
    shard_of_pair: HashMap<(usize, usize), usize>,
    boundary_anchors: Vec<AnchorEdge>,
    /// The global candidate list passed to `featurize`.
    candidates: Vec<(UserId, UserId)>,
    /// Global candidate routes, parallel to `candidates`.
    routes: Vec<Route>,
}

impl fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.n_shards())
            .field("boundary_anchors", &self.boundary_anchors.len())
            .field("featurized", &matches!(self.shards, Shards::Featurized(_)))
            .finish()
    }
}

impl ShardedSession {
    /// Detects communities on both networks, matches them, and spins one
    /// counted [`AlignmentSession`] per matched pair.
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
    /// partitioners or [`PartitionMap::trivial`] for the
    /// degenerate single-shard session (bit-identical to a plain
    /// [`AlignmentSession`]; the property tests pin this).
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
        let shard_of_pair = matching
            .pairs
            .iter()
            .enumerate()
            .map(|(i, m)| ((m.left, m.right), i))
            .collect();
        let mut sharded = ShardedSession {
            shards: Shards::Counted(Vec::new()),
            rows: vec![Vec::new(); matching.pairs.len()],
            workers: if config.workers == 0 {
                Threading::Auto.resolve()
            } else {
                config.workers
            },
            left_map,
            right_map,
            matching,
            shard_of_pair,
            boundary_anchors: Vec::new(),
            candidates: Vec::new(),
            routes: Vec::new(),
        };
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
        let built = map_claimed(shard_anchors.len(), s.workers, |i| {
            let m = &s.matching.pairs[i];
            let sub_left = induce_subnet(left, s.left_map.members(m.left))?;
            let sub_right = induce_subnet(right, s.right_map.members(m.right))?;
            SessionBuilder::new(&sub_left.net, &sub_right.net)
                .anchors(shard_anchors[i].clone())
                .count()
                .map_err(ShardedError::Session)
        });
        sharded.shards = Shards::Counted(built.into_iter().collect::<Result<_, _>>()?);
        Ok(sharded)
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
        self.rows.len()
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
    pub fn stats(&self) -> DeltaStats {
        let per_shard: Vec<DeltaStats> = match &self.shards {
            Shards::Counted(v) => v.iter().map(AlignmentSession::stats).collect(),
            Shards::Featurized(v) => v.iter().map(AlignmentSession::stats).collect(),
        };
        let mut total = DeltaStats::default();
        for st in per_shard {
            total.full_counts += st.full_counts;
            total.delta_updates += st.delta_updates;
            total.anchors_applied += st.anchors_applied;
        }
        total
    }

    /// Routes `candidates` to their shards and featurizes every shard
    /// (concurrently). Candidates spanning unmatched partition pairs are
    /// pruned — no shard could score them — and reported.
    ///
    /// # Errors
    /// [`ShardedError::WrongStage`] when already featurized;
    /// [`ShardedError::Partition`] on out-of-range candidate endpoints
    /// (the session is unchanged).
    pub fn featurize(
        &mut self,
        candidates: Vec<(UserId, UserId)>,
    ) -> Result<RoutingSummary, ShardedError> {
        // Routing finishes before any shard is touched, so an endpoint
        // error leaves the session in its pre-call state.
        let mut shard_cands: Vec<Vec<(UserId, UserId)>> = vec![Vec::new(); self.n_shards()];
        let mut shard_rows: Vec<Vec<usize>> = vec![Vec::new(); self.n_shards()];
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
        let counted = match std::mem::replace(&mut self.shards, Shards::Counted(Vec::new())) {
            Shards::Counted(v) => v,
            featurized => {
                self.shards = featurized;
                return Err(ShardedError::WrongStage {
                    expected: "Counted",
                });
            }
        };
        let jobs = counted.into_iter().zip(shard_cands).collect();
        // A claimed-twice job would leave the shards empty: the damaged
        // ensemble then reports `Inconsistent` instead of aborting.
        let featurized = claim_each(self.workers, jobs, AlignmentSession::featurize)?;
        self.shards = Shards::Featurized(featurized);
        self.rows = shard_rows;
        self.candidates = candidates;
        self.routes = routes;
        Ok(RoutingSummary { routed, pruned })
    }

    /// Applies newly confirmed anchors: in-shard edges go to their shard's
    /// `C += L·ΔA·R` delta path (one job per shard, fanned out over the
    /// worker budget, refreshing featurized shards' downstream artifacts;
    /// a shard with no edges is a no-op), pair-spanning edges join the
    /// boundary ledger once every shard update succeeds.
    ///
    /// An endpoint error changes nothing. A later failure can leave
    /// other shards' updates applied; the ledger then stays as it was.
    ///
    /// # Errors
    /// [`ShardedError::Partition`] on out-of-range endpoints;
    /// [`ShardedError::Session`] when a shard update fails.
    pub fn update_anchors(&mut self, edges: &[AnchorEdge]) -> Result<ShardedUpdate, ShardedError> {
        let mut per_shard: Vec<Vec<AnchorEdge>> = vec![Vec::new(); self.n_shards()];
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
        let results = match &mut self.shards {
            Shards::Counted(v) => claim_each(
                self.workers,
                v.iter_mut().zip(per_shard).collect(),
                |s, e| s.update_anchors(&e),
            )?,
            Shards::Featurized(v) => claim_each(
                self.workers,
                v.iter_mut().zip(per_shard).collect(),
                |s, e| s.update_anchors(&e),
            )?,
        };
        let mut applied = 0usize;
        for r in results {
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
    /// [`ShardedError::LabeledOutOfRange`] when a `labeled_pos` entry does
    /// not index the featurized candidates (checked before any shard fits).
    pub fn fit(
        &self,
        labeled_pos: &[usize],
        oracle: &(dyn Oracle + Sync),
        config: &ModelConfig,
    ) -> Result<StitchedAlignment, ShardedError> {
        let Shards::Featurized(shards) = &self.shards else {
            return Err(ShardedError::WrongStage {
                expected: "Featurized",
            });
        };
        // Translate the global labeled set to per-shard local rows.
        let mut labeled_local: Vec<Vec<usize>> = vec![Vec::new(); shards.len()];
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
        let weights: Vec<usize> = self.rows.iter().map(Vec::len).collect();
        let budgets = split_budget(config.budget, &weights);

        let fits = map_claimed(shards.len(), self.workers, |i| {
            let rows = &self.rows[i];
            if rows.is_empty() {
                return empty_report();
            }
            let shard_config = ModelConfig {
                budget: budgets[i],
                ..config.clone()
            };
            let shard_oracle = RowOracle {
                inner: oracle,
                rows,
            };
            let mut strategy =
                ConflictQuery::new(shard_config.similar_tau, shard_config.margin_delta);
            ActiveLoop::new(shards[i].instance(labeled_local[i].clone()), shard_config)
                .run(&mut strategy, &shard_oracle)
        });

        let shard_reports = fits
            .into_iter()
            .enumerate()
            .map(|(i, report)| ShardFitReport {
                pair: (self.matching.pairs[i].left, self.matching.pairs[i].right),
                rows: self.rows[i].clone(),
                report,
            })
            .collect();
        Ok(self.stitch(shard_reports))
    }

    /// Boundary-anchors-win, score-greedy, globally one-to-one stitching.
    fn stitch(&self, shard_reports: Vec<ShardFitReport>) -> StitchedAlignment {
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
            debug_assert_eq!(sr.report.labels.len(), sr.rows.len());
            for (row, &gi) in sr.rows.iter().enumerate() {
                // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
                if sr.report.labels[row] == 1.0 {
                    // A local row's global candidate holds the global ids.
                    let (left, right) = self.candidates[gi];
                    proposed.push(StitchedLink {
                        left,
                        right,
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
        StitchedAlignment {
            links,
            dropped_conflicts: dropped,
            pruned_candidates: self.routes.iter().filter(|r| **r == Route::Pruned).count(),
            shard_reports,
        }
    }
}

/// Runs `f` on every `(session, batch)` job, one claim-once job per
/// shard fanned over `workers` ([`map_claimed`]); results in shard order.
///
/// # Errors
/// [`ShardedError::Inconsistent`] when a job was claimed twice.
fn claim_each<S: Send, B: Send, R: Send>(
    workers: usize,
    jobs: Vec<(S, B)>,
    f: impl Fn(S, B) -> R + Sync,
) -> Result<Vec<R>, ShardedError> {
    let jobs: Vec<ShardJob<S, B>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    map_claimed(jobs.len(), workers, |i| {
        let (session, batch) = jobs[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .ok_or(ShardedError::Inconsistent {
                what: "a shard's job was claimed twice",
            })?;
        Ok(f(session, batch))
    })
    .into_iter()
    .collect()
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
}
