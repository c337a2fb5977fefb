//! Property tests of the sharded pipeline.
//!
//! 1. Under the trivial single-partition map, [`ShardedSession`] is
//!    **bit-identical** to a plain [`AlignmentSession`] driven through the
//!    same active loop — at any worker budget.
//! 2. Boundary-ledger anchors, routed at build or by `update_anchors`,
//!    re-enter the stitched result as confirmed links.
//! 3. A labeled position past the featurized candidates is a typed error,
//!    raised before any shard fits.
//! 4. A multi-shard featurize → update → fit run is bit-identical at any
//!    worker budget.
//! 5. A sharded build over networks an earlier build used (warm: it
//!    reuses the memoized partition maps) is bit-identical to a cold
//!    build over clones, and the earlier session's anchor update stays
//!    out of it.

use activeiter::driver::ActiveLoop;
use activeiter::query::ConflictQuery;
use activeiter::{FitReport, ModelConfig, Oracle, VecOracle};
use hetnet::partition::PartitionMap;
use hetnet::HetNet;
use hetnet::{AnchorLink, UserId};
use metadiagram::DeltaStats;
use session::sharded::{
    ShardedConfig, ShardedError, ShardedSession, ShardedUpdate, StitchedAlignment,
};
use session::SessionBuilder;

/// The reference pipeline: one global session, the same manual loop the
/// sharded fit drives per shard.
fn reference_fit(
    world: &datagen::GeneratedWorld,
    anchors: &[AnchorLink],
    candidates: &[(UserId, UserId)],
    labeled_pos: &[usize],
    truth: &[bool],
    config: &ModelConfig,
) -> FitReport {
    let session = SessionBuilder::new(world.left(), world.right())
        .anchors(anchors.to_vec())
        .count()
        .expect("generated networks share attribute universes")
        .featurize(candidates.to_vec());
    let oracle = VecOracle::new(truth.to_vec());
    let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
    let mut drv = ActiveLoop::new(session.instance(labeled_pos.to_vec()), config.clone());
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
            drv.apply_answer(idx, oracle.label(idx));
        }
    }
    drv.finish()
}

#[test]
fn trivial_partition_is_bit_identical_to_global_session() {
    let world = datagen::generate(&datagen::presets::tiny(41));
    let truth_links = world.truth().links().to_vec();
    let anchors = truth_links[..8].to_vec();
    let candidates: Vec<_> = truth_links.iter().map(|l| (l.left, l.right)).collect();
    let labeled_pos: Vec<usize> = (0..8).collect();
    let truth = vec![true; candidates.len()];
    let config = ModelConfig {
        budget: 12,
        ..Default::default()
    };

    let reference = reference_fit(&world, &anchors, &candidates, &labeled_pos, &truth, &config);

    for workers in [1usize, 2, 8] {
        let mut sharded = ShardedSession::with_partitions(
            world.left(),
            world.right(),
            PartitionMap::trivial(world.left().n_users()),
            PartitionMap::trivial(world.right().n_users()),
            anchors.clone(),
            &ShardedConfig {
                workers,
                ..Default::default()
            },
        )
        .expect("trivial partitioning always matches");
        assert_eq!(sharded.n_shards(), 1);
        assert!(sharded.boundary_anchors().is_empty());

        let routing = sharded.featurize(candidates.clone()).unwrap();
        assert_eq!(routing.routed, candidates.len());
        assert_eq!(routing.pruned, 0);

        let stitched = sharded
            .fit(&labeled_pos, &VecOracle::new(truth.clone()), &config)
            .unwrap();

        let shard = &stitched.shard_reports[0];
        assert_eq!(
            shard.rows,
            (0..candidates.len()).collect::<Vec<_>>(),
            "single-shard routing must be the identity at {workers} workers"
        );
        assert_eq!(shard.report.labels, reference.labels, "{workers} workers");
        assert_eq!(shard.report.scores, reference.scores, "{workers} workers");
        assert_eq!(shard.report.weights, reference.weights, "{workers} workers");
        assert_eq!(shard.report.queried, reference.queried, "{workers} workers");
        assert_eq!(shard.report.rounds, reference.rounds, "{workers} workers");

        // The stitched links are exactly the reference's predicted
        // positives (no boundary anchors, no conflicts possible against a
        // one-to-one truth set).
        let mut expected: Vec<(UserId, UserId)> = reference
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == 1.0)
            .map(|(i, _)| candidates[i])
            .collect();
        expected.sort();
        let got: Vec<(UserId, UserId)> = stitched.links.iter().map(|l| (l.left, l.right)).collect();
        assert_eq!(got, expected, "{workers} workers");
        assert_eq!(stitched.pruned_candidates, 0);
    }
}

#[test]
fn fit_rejects_a_labeled_position_past_the_candidates() {
    let world = datagen::generate(&datagen::presets::tiny(41));
    let truth_links = world.truth().links().to_vec();
    let candidates: Vec<_> = truth_links.iter().map(|l| (l.left, l.right)).collect();
    let n = candidates.len();
    let mut sharded = ShardedSession::with_partitions(
        world.left(),
        world.right(),
        PartitionMap::trivial(world.left().n_users()),
        PartitionMap::trivial(world.right().n_users()),
        truth_links[..8].to_vec(),
        &ShardedConfig::default(),
    )
    .unwrap();
    sharded.featurize(candidates).unwrap();

    let oracle = VecOracle::new(vec![true; n]);
    let config = ModelConfig {
        budget: 4,
        ..Default::default()
    };
    let err = sharded.fit(&[0, 1, n], &oracle, &config).unwrap_err();
    assert!(
        matches!(
            err,
            ShardedError::LabeledOutOfRange { index, candidates } if index == n && candidates == n
        ),
        "{err}"
    );
    // Rejected up front: no shard fitted, so the oracle was never asked.
    assert_eq!(oracle.queries_answered(), 0);
    // The last valid position still fits.
    assert!(sharded.fit(&[0, 1, n - 1], &oracle, &config).is_ok());
}

#[test]
fn a_partition_map_sized_for_another_network_is_refused() {
    // One map too small (shards would silently miss users), one too large
    // (induction would index past the network): both are typed errors.
    let world = datagen::generate(&datagen::presets::tiny(41));
    let (n_left, n_right) = (world.left().n_users(), world.right().n_users());
    for (left_users, right_users) in [(n_left + 3, n_right), (n_left, n_right - 1)] {
        let err = ShardedSession::with_partitions(
            world.left(),
            world.right(),
            PartitionMap::trivial(left_users),
            PartitionMap::trivial(right_users),
            world.truth().links()[..8].to_vec(),
            &ShardedConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ShardedError::Partition(hetnet::HetNetError::PartitionSize { .. })
            ),
            "{err}"
        );
    }
}

#[test]
fn boundary_anchors_enter_the_stitched_result_as_confirmed_links() {
    let world = datagen::generate(&datagen::presets::tiny(43));
    let n_left = world.left().n_users();
    let n_right = world.right().n_users();
    let truth_links = world.truth().links().to_vec();

    // Left split in half, right left whole: matching pairs one left
    // partition with the right network; the other left partition is
    // unmatched, so every anchor rooted there lands in the boundary
    // ledger.
    let left_assign: Vec<usize> = (0..n_left).map(|u| usize::from(u >= n_left / 2)).collect();
    let left_map = PartitionMap::from_assignment(&left_assign);
    let right_map = PartitionMap::trivial(n_right);

    // Seven anchors in the lower half, three in the upper: the lower pair
    // wins the (hard-constrained) matching, the upper three become
    // boundary-ledger anchors.
    let mut anchors = truth_links[..7].to_vec();
    anchors.extend_from_slice(&truth_links[truth_links.len() - 3..]);
    let mut sharded = ShardedSession::with_partitions(
        world.left(),
        world.right(),
        left_map,
        right_map,
        anchors.clone(),
        &ShardedConfig::default(),
    )
    .unwrap();
    assert_eq!(sharded.n_shards(), 1);
    assert_eq!(sharded.matching().unmatched_left.len(), 1);
    let matched_left = sharded.matching().pairs[0].left;
    let in_shard = |a: &AnchorLink| sharded.left_partitions().part_of(a.left) == matched_left;
    let expected_boundary: Vec<AnchorLink> =
        anchors.iter().copied().filter(|a| !in_shard(a)).collect();
    assert!(
        !expected_boundary.is_empty(),
        "fixture must produce boundary anchors"
    );
    assert_eq!(sharded.boundary_anchors(), expected_boundary.as_slice());

    // Fresh links the session has not seen: one in-shard, two boundary.
    let (fresh_in, fresh_out): (Vec<AnchorLink>, Vec<AnchorLink>) = truth_links
        .iter()
        .filter(|a| !anchors.contains(a))
        .partition(|a| in_shard(a));
    let (in_shard_edge, boundary_edge, second_boundary) = (fresh_in[0], fresh_out[0], fresh_out[1]);

    // More anchors arrive mid-session via update_anchors: a duplicate
    // boundary edge is skipped.
    let update = sharded
        .update_anchors(&[boundary_edge, boundary_edge])
        .unwrap();
    assert_eq!(
        update,
        ShardedUpdate {
            applied: 0,
            boundary: 1
        }
    );
    // A mixed batch: the in-shard edge takes the shard's delta path and
    // the new boundary edge grows the live ledger.
    let update = sharded
        .update_anchors(&[in_shard_edge, second_boundary])
        .unwrap();
    assert_eq!(
        update,
        ShardedUpdate {
            applied: 1,
            boundary: 1
        }
    );
    let mut ledger = expected_boundary;
    ledger.extend([boundary_edge, second_boundary]);
    assert_eq!(sharded.boundary_anchors(), ledger.as_slice());
    assert_eq!(sharded.stats().anchors_applied, 1);

    // The session fits, and every boundary anchor enters the stitched
    // result as a confirmed link.
    let candidates: Vec<_> = truth_links.iter().map(|l| (l.left, l.right)).collect();
    let truth = vec![true; candidates.len()];
    let routing = sharded.featurize(candidates.clone()).unwrap();
    assert_eq!(routing.routed + routing.pruned, candidates.len());
    let labeled: Vec<usize> = (0..10).collect();
    let config = ModelConfig {
        budget: 8,
        ..Default::default()
    };
    let stitched = sharded
        .fit(&labeled, &VecOracle::new(truth), &config)
        .unwrap();
    for anchor in sharded.boundary_anchors() {
        let link = stitched
            .links
            .iter()
            .find(|l| l.left == anchor.left && l.right == anchor.right)
            .expect("boundary anchor must appear in the stitched alignment");
        assert!(link.confirmed);
        assert_eq!(link.score, f64::INFINITY);
        assert_eq!(link.shard, None);
    }
    assert_eq!(stitched.pruned_candidates, routing.pruned);
}

/// Every float of a stitched run as bits, so runs compare exactly.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One shard's fit report with every float as bits.
type ReportBits = (
    (usize, usize),
    Vec<usize>,
    Vec<u64>,
    Vec<u64>,
    Vec<u64>,
    Vec<(usize, bool)>,
    Vec<Vec<u64>>,
);

/// What a fitted sharded session produced, every float as bits.
#[derive(Debug, PartialEq)]
struct RunBits {
    links: Vec<(UserId, UserId, u64, Option<usize>, bool)>,
    reports: Vec<ReportBits>,
    dropped_conflicts: usize,
    stats: DeltaStats,
}

impl RunBits {
    fn of(sharded: &ShardedSession, stitched: &StitchedAlignment) -> Self {
        RunBits {
            links: stitched
                .links
                .iter()
                .map(|l| (l.left, l.right, l.score.to_bits(), l.shard, l.confirmed))
                .collect(),
            reports: stitched
                .shard_reports
                .iter()
                .map(|r| {
                    (
                        r.pair,
                        r.rows.clone(),
                        bits(&r.report.labels),
                        bits(&r.report.scores),
                        bits(&r.report.weights),
                        r.report.queried.clone(),
                        r.report.rounds.iter().map(|t| bits(&t.deltas)).collect(),
                    )
                })
                .collect(),
            dropped_conflicts: stitched.dropped_conflicts,
            stats: sharded.stats(),
        }
    }
}

#[test]
fn multi_shard_updates_and_fit_are_identical_at_any_worker_budget() {
    let world = datagen::generate(&datagen::presets::community_scale(160, 2, 5));
    let truth_links = world.truth().links().to_vec();
    let anchors: Vec<AnchorLink> = truth_links.iter().step_by(3).copied().collect();
    let fresh: Vec<AnchorLink> = truth_links
        .iter()
        .filter(|a| !anchors.contains(a))
        .copied()
        .collect();
    // Candidates: every true pair plus one shifted negative per pair.
    let mut candidates: Vec<(UserId, UserId)> =
        truth_links.iter().map(|l| (l.left, l.right)).collect();
    let n_true = candidates.len();
    candidates
        .extend((0..n_true).map(|i| (truth_links[i].left, truth_links[(i + 1) % n_true].right)));
    let truth: Vec<bool> = (0..candidates.len()).map(|i| i < n_true).collect();
    let labeled: Vec<usize> = (0..n_true).step_by(3).collect();
    let config = ModelConfig {
        budget: 16,
        ..Default::default()
    };

    // Planted-block partitions: shared users take their latent block
    // (right-side ids through the generator's σ permutation); unshared
    // users spread round-robin.
    let (n_shared, k) = (160, 2);
    let left_assign: Vec<usize> = (0..world.left().n_users())
        .map(|u| {
            if u < n_shared {
                datagen::follow::community_of(u, n_shared, k)
            } else {
                u % k
            }
        })
        .collect();
    let mut right_assign: Vec<usize> = (0..world.right().n_users()).map(|u| u % k).collect();
    for (i, &r) in world.sigma.iter().enumerate() {
        right_assign[r] = datagen::follow::community_of(i, n_shared, k);
    }

    let run = |workers: usize| {
        let mut sharded = ShardedSession::with_partitions(
            world.left(),
            world.right(),
            PartitionMap::from_assignment(&left_assign),
            PartitionMap::from_assignment(&right_assign),
            anchors.clone(),
            &ShardedConfig {
                workers,
                ..Default::default()
            },
        )
        .unwrap();
        let n_shards = sharded.n_shards();
        assert!(n_shards >= 2, "fixture must shard ({n_shards} shards)");
        sharded.featurize(candidates.clone()).unwrap();

        // One fresh in-shard edge per shard, plus one edge spanning the
        // left partition of shard 0 and the right partition of shard 1.
        let pairs = sharded.matching().pairs.clone();
        let (lp, rp) = (sharded.left_partitions(), sharded.right_partitions());
        let mut edges: Vec<AnchorLink> = pairs
            .iter()
            .filter_map(|m| {
                fresh
                    .iter()
                    .find(|a| lp.part_of(a.left) == m.left && rp.part_of(a.right) == m.right)
                    .copied()
            })
            .collect();
        assert!(edges.len() >= 2, "fixture must update several shards");
        let in_shard = edges.len();
        edges.push(AnchorLink::new(
            lp.members(pairs[0].left)[0],
            rp.members(pairs[1].right)[0],
        ));
        let update = sharded.update_anchors(&edges).unwrap();
        assert_eq!(
            update,
            ShardedUpdate {
                applied: in_shard,
                boundary: 1
            }
        );

        let stitched = sharded
            .fit(&labeled, &VecOracle::new(truth.clone()), &config)
            .unwrap();
        let run = RunBits::of(&sharded, &stitched);
        assert_eq!(run.stats.full_counts, n_shards, "updates must not recount");
        assert_eq!(run.stats.anchors_applied, in_shard);
        run
    };

    let serial = run(1);
    for workers in [2usize, 8] {
        let wide = run(workers);
        assert_eq!(
            wide.links, serial.links,
            "stitched links at {workers} workers"
        );
        assert_eq!(
            wide.reports, serial.reports,
            "shard reports at {workers} workers"
        );
        assert_eq!(
            wide.dropped_conflicts, serial.dropped_conflicts,
            "dropped conflicts at {workers} workers"
        );
        assert_eq!(wide.stats, serial.stats, "stats at {workers} workers");
    }
}

#[test]
fn warm_shard_builds_are_bit_identical_to_cold_ones_and_isolated() {
    let world = datagen::generate(&datagen::presets::community_scale(160, 3, 1));
    let truth_links = world.truth().links().to_vec();
    // Two training sets from disjoint thirds of the truth links.
    let anchor_sets: [Vec<AnchorLink>; 2] = [0, 1].map(|offset| {
        truth_links
            .iter()
            .skip(offset)
            .step_by(3)
            .copied()
            .collect()
    });
    let fresh: Vec<AnchorLink> = truth_links.iter().skip(2).step_by(3).copied().collect();
    let mut candidates: Vec<(UserId, UserId)> =
        truth_links.iter().map(|l| (l.left, l.right)).collect();
    let n_true = candidates.len();
    candidates
        .extend((0..n_true).map(|i| (truth_links[i].left, truth_links[(i + 1) % n_true].right)));
    let truth: Vec<bool> = (0..candidates.len()).map(|i| i < n_true).collect();
    let labeled: Vec<usize> = (0..n_true).step_by(3).collect();
    let config = ModelConfig {
        budget: 16,
        ..Default::default()
    };
    let finish = |mut sharded: ShardedSession| {
        sharded.featurize(candidates.clone()).unwrap();
        let stitched = sharded
            .fit(&labeled, &VecOracle::new(truth.clone()), &config)
            .unwrap();
        RunBits::of(&sharded, &stitched)
    };
    // The first session takes one fresh in-shard edge per shard and one
    // edge no shard owns.
    let update = |sharded: &mut ShardedSession| {
        let (lp, rp) = (sharded.left_partitions(), sharded.right_partitions());
        let owned: Vec<(usize, usize)> = sharded
            .matching()
            .pairs
            .iter()
            .map(|m| (m.left, m.right))
            .collect();
        let shard_of = |a: &AnchorLink| (lp.part_of(a.left), rp.part_of(a.right));
        let mut edges: Vec<AnchorLink> = owned
            .iter()
            .filter_map(|&pair| fresh.iter().find(|a| shard_of(a) == pair).copied())
            .collect();
        let in_shard = edges.len();
        let spanning = (0..lp.n_users())
            .flat_map(|l| {
                (0..rp.n_users())
                    .map(move |r| AnchorLink::new(UserId::from_index(l), UserId::from_index(r)))
            })
            .find(|a| !owned.contains(&shard_of(a)))
            .expect("fixture must leave a partition pair without a shard");
        edges.push(spanning);
        let applied = sharded.update_anchors(&edges).unwrap();
        assert_eq!(
            applied,
            ShardedUpdate {
                applied: in_shard,
                boundary: 1
            }
        );
        assert!(in_shard >= 1, "fixture must update a shard");
    };
    // The second session builds after the first one's update; over the
    // same two networks it reuses the maps the first build detected.
    let both = |nets: [(&HetNet, &HetNet); 2]| {
        let build = |(left, right): (&HetNet, &HetNet), anchors: &Vec<AnchorLink>| {
            ShardedSession::new(left, right, anchors.clone(), &ShardedConfig::default()).unwrap()
        };
        let mut first = build(nets[0], &anchor_sets[0]);
        update(&mut first);
        let second = finish(build(nets[1], &anchor_sets[1]));
        (finish(first), second)
    };

    let (first_warm, second_warm) = both([(world.left(), world.right()); 2]);
    // A clone is a new network identity, so every build over one is cold.
    let clones = [0, 1].map(|_| (world.left().clone(), world.right().clone()));
    let (first_cold, second_cold) = both([0, 1].map(|k| (&clones[k].0, &clones[k].1)));
    assert!(
        second_warm.reports.len() >= 2 && second_warm.stats.full_counts >= 2,
        "fixture must build several shards"
    );
    assert_eq!(second_warm, second_cold, "second session");
    assert_eq!(first_warm, first_cold, "first session");
    assert_eq!(second_warm.stats.anchors_applied, 0, "update leaked");
}
