//! Multi-network alignment (the paper's §II extension to more than two
//! networks): run the pairwise ActiveIter pipeline on every network pair of
//! a [`datagen::MultiWorld`], then audit and enforce **transitive
//! consistency** — if account `a` (net *i*) aligns to `b` (net *j*) and `b`
//! aligns to `c` (net *k*), then `a` must align to `c`.
//!
//! Pairwise predictors are oblivious to each other, so triangle violations
//! are expected; [`consistency_report`] quantifies them and
//! [`resolve_by_score`] repairs the collection greedily, keeping the
//! highest-scoring pairwise links whose closure stays consistent.

use crate::experiment::effective_threads;
use crate::sampling::LinkSet;
use activeiter::ord::cmp_scores_desc;
use activeiter::query::ConflictQuery;
use activeiter::{ModelConfig, VecOracle};
use datagen::MultiWorld;
use hetnet::UserId;
use metadiagram::Threading;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use session::workers::run_ordered;
use session::SessionBuilder;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One predicted pairwise alignment link with its model score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairwiseLink {
    /// Network pair (a < b).
    pub nets: (usize, usize),
    /// Account in network `nets.0`.
    pub left: UserId,
    /// Account in network `nets.1`.
    pub right: UserId,
    /// Model score ŷ.
    pub score: f64,
    /// Whether the link is a true anchor (evaluation only).
    pub correct: bool,
}

/// The pairwise predictions over the whole collection.
#[derive(Debug, Clone, Default)]
pub struct MultiAlignment {
    /// Predicted positive links, all pairs mixed.
    pub links: Vec<PairwiseLink>,
}

/// Consistency audit of a [`MultiAlignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConsistencyReport {
    /// Closed triangles: a→b, b→c and the agreeing a→c all predicted.
    pub closed: usize,
    /// Open triangles: a→b and b→c predicted, a→c simply missing — a recall
    /// gap, not a contradiction.
    pub open: usize,
    /// Contradictions: a→b and b→c predicted while a→c points at a
    /// *different* account. These are what consistency resolution removes.
    pub contradictions: usize,
}

/// Protocol knobs for the multi-network run.
#[derive(Debug, Clone)]
pub struct MultiSpec {
    /// NP-ratio for the pairwise candidate sets.
    pub np_ratio: usize,
    /// Fraction of each pair's anchors revealed as training labels; must
    /// lie in `(0, 1]` ([`MultiSpec::validate`]).
    pub train_fraction: f64,
    /// Query budget per pair.
    pub budget: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread budget for per-pair feature extraction (`0` = auto).
    pub threads: usize,
}

/// A [`MultiSpec`] that cannot be run.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiSpecError {
    /// `train_fraction` outside `(0, 1]` (or NaN). Values above 1 would
    /// ask for more training anchors than the pool holds; 0 or below
    /// trains on nothing.
    TrainFraction(f64),
}

impl fmt::Display for MultiSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiSpecError::TrainFraction(v) => {
                write!(f, "train_fraction {v} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for MultiSpecError {}

impl MultiSpec {
    /// Checks the spec is runnable. Called by [`align_all_pairs`] /
    /// [`for_each_pair_alignment`] before any work starts.
    ///
    /// # Errors
    /// [`MultiSpecError::TrainFraction`] when `train_fraction` is NaN or
    /// outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), MultiSpecError> {
        if !(self.train_fraction > 0.0 && self.train_fraction <= 1.0) {
            return Err(MultiSpecError::TrainFraction(self.train_fraction));
        }
        Ok(())
    }
}

impl Default for MultiSpec {
    fn default() -> Self {
        MultiSpec {
            np_ratio: 5,
            train_fraction: 0.2,
            budget: 20,
            seed: 7,
            threads: 0,
        }
    }
}

/// One network pair's predictions, as streamed by
/// [`for_each_pair_alignment`].
#[derive(Debug, Clone)]
pub struct PairAlignment {
    /// The network pair (a < b).
    pub nets: (usize, usize),
    /// Predicted-positive links with scores, in candidate order.
    pub links: Vec<PairwiseLink>,
}

/// Runs the pairwise pipeline on every pair of the collection, **streaming**
/// each pair's link set to `sink` in pair order instead of materializing the
/// whole collection — with k networks the k·(k−1)/2 pairwise link sets never
/// coexist in memory: at most `2 × workers` claimed-but-unemitted pairs
/// exist at any moment (the claim window inside
/// [`session::workers::run_ordered`] throttles the workers, so a straggling
/// early pair cannot make the reorder buffer grow to k²).
///
/// The pairs are fully independent, so they are **sharded across the
/// bounded worker pool** (`spec.threads`, 0 = auto): each worker claims the
/// next unprocessed pair, runs the session pipeline (count → featurize →
/// fit), and streams the result through the order-preserving consumer.
/// Whatever budget the pair layer leaves unused flows into each pair's
/// feature extraction. Results are bit-identical at any thread budget.
///
/// # Errors
/// [`MultiSpecError`] when the spec is invalid ([`MultiSpec::validate`]);
/// `sink` is never called in that case.
pub fn for_each_pair_alignment(
    world: &MultiWorld,
    spec: &MultiSpec,
    sink: impl FnMut(PairAlignment),
) -> Result<(), MultiSpecError> {
    spec.validate()?;
    let pairs = world.pairs();
    if pairs.is_empty() {
        return Ok(());
    }
    let budget = effective_threads(spec.threads);
    let pair_workers = budget.min(pairs.len()).max(1);
    let extract_threads = (budget / pair_workers).max(1);
    run_ordered(
        pairs.len(),
        pair_workers,
        |i| {
            let (a, b) = pairs[i];
            align_pair(world, a, b, spec, extract_threads)
        },
        sink,
    );
    Ok(())
}

/// Runs the pairwise pipeline on every pair of the collection.
///
/// For each pair, `train_fraction` of the ground-truth anchors (sampled by
/// seed) become the labeled set; candidates are built as in the two-network
/// protocol; ActiveIter predicts the rest. Predicted-positive links are
/// collected with their scores.
///
/// This collects everything [`for_each_pair_alignment`] streams — callers
/// aligning large collections should prefer the streaming form.
///
/// # Errors
/// [`MultiSpecError`] when the spec is invalid; no pair runs in that case.
pub fn align_all_pairs(
    world: &MultiWorld,
    spec: &MultiSpec,
) -> Result<MultiAlignment, MultiSpecError> {
    let mut links = Vec::new();
    for_each_pair_alignment(world, spec, |pair| links.extend(pair.links))?;
    Ok(MultiAlignment { links })
}

/// The per-pair pipeline: sample training anchors, build the candidate
/// set, run one alignment session, collect predicted-positive links.
fn align_pair(
    world: &MultiWorld,
    a: usize,
    b: usize,
    spec: &MultiSpec,
    extract_threads: usize,
) -> PairAlignment {
    let truth = world.truth_between(a, b);
    let left = &world.nets[a];
    let right = &world.nets[b];

    // Sample training anchors.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ ((a as u64) << 32 | b as u64));
    let mut anchor_pool: Vec<hetnet::AnchorLink> = truth.links().to_vec();
    anchor_pool.shuffle(&mut rng);
    // Ceil can round past the pool (train_fraction == 1.0 exactly hits it,
    // float round-up can overshoot it); never index beyond what exists.
    let n_train = ((anchor_pool.len() as f64) * spec.train_fraction).ceil() as usize;
    let train = &anchor_pool[..n_train.max(1).min(anchor_pool.len())];

    // Candidate set: all anchors + sampled negatives (reuse the pairwise
    // LinkSet machinery through a lightweight shim world).
    let ls = pairwise_linkset(world, a, b, spec);

    let session = SessionBuilder::new(left, right)
        .anchors(train.to_vec())
        .threading(Threading::Threads(extract_threads))
        .count()
        .expect("multi-world networks share attribute universes")
        .featurize(ls.candidates.clone());

    let train_set: HashSet<(u32, u32)> = train.iter().map(|l| (l.left.0, l.right.0)).collect();
    let labeled_pos: Vec<usize> = ls
        .candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| train_set.contains(&(c.0 .0, c.1 .0)))
        .map(|(i, _)| i)
        .collect();
    let oracle = VecOracle::new(ls.truth.clone());
    let config = ModelConfig {
        budget: spec.budget,
        seed: spec.seed,
        ..Default::default()
    };
    let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
    let report = session
        .fit(labeled_pos, &oracle, &config, &mut strategy)
        .into_report();

    let links = report
        .labels
        .iter()
        .enumerate()
        // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
        .filter(|&(_, &label)| label == 1.0)
        .map(|(i, _)| PairwiseLink {
            nets: (a, b),
            left: ls.candidates[i].0,
            right: ls.candidates[i].1,
            score: report.scores[i],
            correct: ls.truth[i],
        })
        .collect();
    PairAlignment {
        nets: (a, b),
        links,
    }
}

/// Builds the candidate link set for one pair of the collection.
fn pairwise_linkset(world: &MultiWorld, a: usize, b: usize, spec: &MultiSpec) -> LinkSet {
    use rand::Rng;
    let truth = world.truth_between(a, b);
    let left = &world.nets[a];
    let right = &world.nets[b];
    let truth_set: HashSet<(u32, u32)> = truth.iter().map(|l| (l.left.0, l.right.0)).collect();
    let mut candidates: Vec<(UserId, UserId)> = truth.iter().map(|l| (l.left, l.right)).collect();
    let mut labels = vec![true; candidates.len()];
    let n_neg = candidates.len() * spec.np_ratio;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xbadc0de ^ ((a as u64) << 8 | b as u64));
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    while seen.len() < n_neg {
        let l = rng.gen_range(0..left.n_users()) as u32;
        let r = rng.gen_range(0..right.n_users()) as u32;
        if truth_set.contains(&(l, r)) || !seen.insert((l, r)) {
            continue;
        }
        candidates.push((UserId(l), UserId(r)));
        labels.push(false);
    }
    let n = candidates.len();
    LinkSet {
        candidates,
        truth: labels,
        fold_of: vec![0; n],
        n_folds: 1,
    }
}

/// Audits triangle consistency: every composable chain `a→b→c`
/// (`a < b < c`) is classified as closed, open, or contradictory.
pub fn consistency_report(alignment: &MultiAlignment, k: usize) -> ConsistencyReport {
    let map = link_maps(alignment);
    let mut report = ConsistencyReport::default();
    for a in 0..k {
        for b in (a + 1)..k {
            for c in (b + 1)..k {
                let ab = match map.get(&(a, b)) {
                    Some(m) => m,
                    None => continue,
                };
                let bc = match map.get(&(b, c)) {
                    Some(m) => m,
                    None => continue,
                };
                let ac = map.get(&(a, c));
                for (&u_a, &(u_b, _)) in ab {
                    if let Some(&(u_c, _)) = bc.get(&u_b) {
                        match ac.and_then(|m| m.get(&u_a)) {
                            Some(&(pred_c, _)) if pred_c == u_c => report.closed += 1,
                            Some(_) => report.contradictions += 1,
                            None => report.open += 1,
                        }
                    }
                }
            }
        }
    }
    report
}

type LinkMaps = HashMap<(usize, usize), HashMap<u32, (u32, f64)>>;

fn link_maps(alignment: &MultiAlignment) -> LinkMaps {
    let mut map: LinkMaps = HashMap::new();
    for l in &alignment.links {
        map.entry(l.nets)
            .or_default()
            .insert(l.left.0, (l.right.0, l.score));
    }
    map
}

/// Greedy consistency repair: process links by descending score; accept a
/// link only when adding it keeps every already-accepted triangle closed.
/// Returns the repaired alignment (a sub-set of the input links).
pub fn resolve_by_score(alignment: &MultiAlignment) -> MultiAlignment {
    // Union-find over (net, account) nodes: consistent alignment = every
    // connected component contains at most one account per network.
    let mut parent: HashMap<(usize, u32), (usize, u32)> = HashMap::new();
    let mut members: HashMap<(usize, u32), HashMap<usize, u32>> = HashMap::new();

    fn find(parent: &mut HashMap<(usize, u32), (usize, u32)>, x: (usize, u32)) -> (usize, u32) {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }

    let mut links: Vec<&PairwiseLink> = alignment.links.iter().collect();
    // NaN-scored links (degenerate pairwise fits) sort last — they are
    // considered only after every real-scored link has claimed its slots.
    links.sort_by(|a, b| cmp_scores_desc(a.score, b.score));

    let mut accepted = Vec::new();
    for l in links {
        let na = (l.nets.0, l.left.0);
        let nb = (l.nets.1, l.right.0);
        let ra = find(&mut parent, na);
        let rb = find(&mut parent, nb);
        if ra == rb {
            accepted.push(*l); // already implied; keeps closure explicit
            continue;
        }
        let ma = members.entry(ra).or_insert_with(|| {
            let mut m = HashMap::new();
            m.insert(ra.0, ra.1);
            m
        });
        let ma_snapshot = ma.clone();
        let mb = members.entry(rb).or_insert_with(|| {
            let mut m = HashMap::new();
            m.insert(rb.0, rb.1);
            m
        });
        // Merging is allowed only when the components hold disjoint networks
        // (otherwise some network would get two accounts in one identity).
        let conflict = ma_snapshot.keys().any(|net| mb.contains_key(net));
        if conflict {
            continue;
        }
        let mut merged = ma_snapshot;
        merged.extend(mb.iter().map(|(&n, &u)| (n, u)));
        members.remove(&ra);
        members.remove(&rb);
        parent.insert(ra, rb);
        members.insert(find(&mut parent, rb), merged);
        accepted.push(*l);
    }
    MultiAlignment { links: accepted }
}

/// Converts a sharded fit's [`session::StitchedAlignment`] into the
/// pairwise [`MultiAlignment`] shape the consistency and precision tooling
/// consumes, labelling correctness against `truth`.
///
/// The stitched result concerns one network pair, reported as `nets`
/// (confirmed boundary anchors keep their `f64::INFINITY` score, so
/// [`resolve_by_score`] always retains them first).
pub fn stitched_to_alignment(
    stitched: &session::StitchedAlignment,
    nets: (usize, usize),
    truth: &[hetnet::AnchorLink],
) -> MultiAlignment {
    let truth_set: std::collections::HashSet<(u32, u32)> =
        truth.iter().map(|l| (l.left.0, l.right.0)).collect();
    MultiAlignment {
        links: stitched
            .links
            .iter()
            .map(|l| PairwiseLink {
                nets,
                left: l.left,
                right: l.right,
                score: l.score,
                correct: truth_set.contains(&(l.left.0, l.right.0)),
            })
            .collect(),
    }
}

/// Precision of an alignment's links (evaluation convenience).
pub fn precision(alignment: &MultiAlignment) -> f64 {
    if alignment.links.is_empty() {
        return 0.0;
    }
    alignment.links.iter().filter(|l| l.correct).count() as f64 / alignment.links.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::presets;

    fn spec() -> MultiSpec {
        MultiSpec {
            np_ratio: 3,
            train_fraction: 0.3,
            budget: 10,
            seed: 3,
            threads: 0,
        }
    }

    fn aligned() -> (datagen::MultiWorld, MultiAlignment) {
        let world = datagen::generate_multi(&presets::tiny(7), 3);
        let alignment = align_all_pairs(&world, &spec()).unwrap();
        (world, alignment)
    }

    #[test]
    fn invalid_train_fractions_are_rejected_before_any_work() {
        let world = datagen::generate_multi(&presets::tiny(7), 2);
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let spec = MultiSpec {
                train_fraction: bad,
                ..spec()
            };
            let err = spec.validate().unwrap_err();
            assert!(matches!(err, MultiSpecError::TrainFraction(_)));
            assert!(err.to_string().contains("train_fraction"));
            assert!(align_all_pairs(&world, &spec).is_err());
            let mut called = false;
            assert!(for_each_pair_alignment(&world, &spec, |_| called = true).is_err());
            assert!(!called, "sink ran despite an invalid spec");
        }
    }

    #[test]
    fn full_train_fraction_clamps_to_the_anchor_pool() {
        // γ = 1.0: ceil lands exactly on pool.len(); must not index past
        // it (the pre-clamp code sliced `[..n_train]` unchecked).
        let world = datagen::generate_multi(&presets::tiny(5), 2);
        let alignment = align_all_pairs(
            &world,
            &MultiSpec {
                train_fraction: 1.0,
                ..spec()
            },
        )
        .unwrap();
        assert!(!alignment.links.is_empty());
    }

    #[test]
    fn streaming_emits_pairs_in_order_and_matches_the_collector() {
        let world = datagen::generate_multi(&presets::tiny(7), 3);
        let collected = align_all_pairs(&world, &spec()).unwrap();
        let mut streamed: Vec<PairAlignment> = Vec::new();
        for_each_pair_alignment(&world, &spec(), |pa| streamed.push(pa)).unwrap();
        // Pairs arrive in world.pairs() order despite sharded execution.
        let order: Vec<(usize, usize)> = streamed.iter().map(|p| p.nets).collect();
        assert_eq!(order, world.pairs());
        let flat: Vec<PairwiseLink> = streamed.into_iter().flat_map(|p| p.links).collect();
        assert_eq!(flat.len(), collected.links.len());
        for (a, b) in flat.iter().zip(collected.links.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sharded_execution_is_identical_across_thread_budgets() {
        let world = datagen::generate_multi(&presets::tiny(9), 3);
        let serial = align_all_pairs(
            &world,
            &MultiSpec {
                threads: 1,
                ..spec()
            },
        )
        .unwrap();
        let auto = align_all_pairs(
            &world,
            &MultiSpec {
                threads: 0,
                ..spec()
            },
        )
        .unwrap();
        assert_eq!(serial.links.len(), auto.links.len());
        for (a, b) in serial.links.iter().zip(auto.links.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pairwise_alignment_produces_links_for_every_pair() {
        let (world, alignment) = aligned();
        let mut pairs_seen: HashSet<(usize, usize)> =
            alignment.links.iter().map(|l| l.nets).collect();
        for p in world.pairs() {
            assert!(pairs_seen.remove(&p), "no predictions for pair {p:?}");
        }
        assert!(precision(&alignment) > 0.5, "pairwise precision too low");
    }

    #[test]
    fn consistency_report_counts_triangles() {
        let (world, alignment) = aligned();
        let report = consistency_report(&alignment, world.k());
        assert!(
            report.closed + report.open + report.contradictions > 0,
            "no composable triangles found at all"
        );
    }

    #[test]
    fn resolution_eliminates_contradictions() {
        let (world, alignment) = aligned();
        let resolved = resolve_by_score(&alignment);
        let after = consistency_report(&resolved, world.k());
        assert_eq!(
            after.contradictions, 0,
            "greedy resolution must remove every contradiction"
        );
        assert!(resolved.links.len() <= alignment.links.len());
    }

    #[test]
    fn resolution_preserves_or_improves_precision() {
        let (_, alignment) = aligned();
        let resolved = resolve_by_score(&alignment);
        assert!(
            precision(&resolved) >= precision(&alignment) - 0.05,
            "repair should not destroy precision: {} -> {}",
            precision(&alignment),
            precision(&resolved)
        );
    }

    #[test]
    fn consistency_on_hand_built_alignment() {
        // a(0)→b(0) and b(0)→c(0) predicted; consistent closure a(0)→c(0).
        let mk = |nets: (usize, usize), l: u32, r: u32| PairwiseLink {
            nets,
            left: UserId(l),
            right: UserId(r),
            score: 1.0,
            correct: true,
        };
        let closed = MultiAlignment {
            links: vec![mk((0, 1), 0, 0), mk((1, 2), 0, 0), mk((0, 2), 0, 0)],
        };
        assert_eq!(
            consistency_report(&closed, 3),
            ConsistencyReport {
                closed: 1,
                open: 0,
                contradictions: 0
            }
        );
        let contradictory = MultiAlignment {
            links: vec![mk((0, 1), 0, 0), mk((1, 2), 0, 0), mk((0, 2), 0, 5)],
        };
        assert_eq!(
            consistency_report(&contradictory, 3),
            ConsistencyReport {
                closed: 0,
                open: 0,
                contradictions: 1
            }
        );
        let open = MultiAlignment {
            links: vec![mk((0, 1), 0, 0), mk((1, 2), 0, 0)],
        };
        assert_eq!(
            consistency_report(&open, 3),
            ConsistencyReport {
                closed: 0,
                open: 1,
                contradictions: 0
            }
        );
    }

    #[test]
    fn resolve_tolerates_nan_scores_and_ranks_them_last() {
        let mk = |nets: (usize, usize), l: u32, r: u32, score: f64| PairwiseLink {
            nets,
            left: UserId(l),
            right: UserId(r),
            score,
            correct: true,
        };
        // The NaN-scored link conflicts with a real-scored one; the real
        // score must win, and nothing panics.
        let alignment = MultiAlignment {
            links: vec![mk((0, 1), 0, 0, f64::NAN), mk((0, 1), 1, 0, 0.2)],
        };
        let resolved = resolve_by_score(&alignment);
        assert_eq!(resolved.links.len(), 1);
        assert_eq!(resolved.links[0].left, UserId(1));
    }

    #[test]
    fn resolve_drops_the_weaker_conflicting_link() {
        let mk = |nets: (usize, usize), l: u32, r: u32, score: f64| PairwiseLink {
            nets,
            left: UserId(l),
            right: UserId(r),
            score,
            correct: true,
        };
        // Two links claim account 0 of net 1 for different identities.
        let alignment = MultiAlignment {
            links: vec![mk((0, 1), 0, 0, 0.9), mk((0, 1), 1, 0, 0.4)],
        };
        let resolved = resolve_by_score(&alignment);
        assert_eq!(resolved.links.len(), 1);
        assert_eq!(resolved.links[0].left, UserId(0));
    }
}
