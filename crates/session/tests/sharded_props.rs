//! Property tests of the sharded pipeline.
//!
//! 1. Under the trivial single-partition map, [`ShardedSession`] is
//!    **bit-identical** to a plain [`AlignmentSession`] driven through the
//!    same active loop — at any worker budget.
//! 2. Boundary-ledger anchors survive a `save_dir`/`open_dir` round-trip
//!    and re-enter the stitched result as confirmed links.
//! 3. A labeled position past the featurized candidates is a typed error,
//!    raised before any shard fits.

use activeiter::driver::ActiveLoop;
use activeiter::query::ConflictQuery;
use activeiter::{FitReport, ModelConfig, Oracle, VecOracle};
use hetnet::partition::PartitionMap;
use hetnet::{AnchorLink, UserId};
use session::sharded::{ShardedConfig, ShardedError, ShardedSession};
use session::{SessionBuilder, SnapshotError};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sharded-test-{}-{tag}", std::process::id()))
}

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
fn boundary_anchors_survive_save_open_round_trip() {
    let world = datagen::generate(&datagen::presets::tiny(43));
    let n_left = world.left().n_users();
    let n_right = world.right().n_users();
    let truth_links = world.truth().links().to_vec();

    // Left split in half, right left whole: matching pairs one left
    // partition with the right network; the other left partition is
    // unmatched, so every anchor rooted there lands in the boundary
    // ledger.
    let left_assign: Vec<usize> = (0..n_left).map(|u| usize::from(u >= n_left / 2)).collect();
    let left_map = PartitionMap::from_assignment(&left_assign, world.left());
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
    let expected_boundary: Vec<AnchorLink> = {
        let matched_left = sharded.matching().pairs[0].left;
        anchors
            .iter()
            .copied()
            .filter(|a| sharded.left_partitions().part_of(a.left) != matched_left)
            .collect()
    };
    assert!(
        !expected_boundary.is_empty(),
        "fixture must produce boundary anchors"
    );
    assert_eq!(sharded.boundary_anchors(), expected_boundary.as_slice());

    // More boundary anchors arrive mid-session via update_anchors; a
    // duplicate is skipped.
    let extra = truth_links[10];
    let update = sharded.update_anchors(&[extra, extra]).unwrap();
    let extra_is_boundary =
        sharded.left_partitions().part_of(extra.left) != sharded.matching().pairs[0].left;
    if extra_is_boundary {
        assert_eq!(update.boundary, 1);
    } else {
        assert_eq!(update.applied, 1);
    }

    let dir = temp_dir("roundtrip");
    sharded.save_dir(&dir).unwrap();
    let reopened = ShardedSession::open_dir(&dir, &ShardedConfig::default()).unwrap();

    assert_eq!(reopened.n_shards(), sharded.n_shards());
    assert_eq!(reopened.boundary_anchors(), sharded.boundary_anchors());
    assert_eq!(
        reopened.left_partitions().raw_parts(),
        sharded.left_partitions().raw_parts()
    );
    assert_eq!(
        reopened.right_partitions().raw_parts(),
        sharded.right_partitions().raw_parts()
    );
    assert_eq!(
        reopened.matching().pairs.len(),
        sharded.matching().pairs.len()
    );

    // The reopened ensemble fits, and every boundary anchor re-enters the
    // stitched result as a confirmed link.
    let mut reopened = reopened;
    let candidates: Vec<_> = truth_links.iter().map(|l| (l.left, l.right)).collect();
    let truth = vec![true; candidates.len()];
    let routing = reopened.featurize(candidates.clone()).unwrap();
    assert_eq!(routing.routed + routing.pruned, candidates.len());
    let labeled: Vec<usize> = (0..10).collect();
    let config = ModelConfig {
        budget: 8,
        ..Default::default()
    };
    let stitched = reopened
        .fit(&labeled, &VecOracle::new(truth), &config)
        .unwrap();
    for anchor in reopened.boundary_anchors() {
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

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_v2_reports_journal_lengths_and_v1_is_refused() {
    let world = datagen::generate(&datagen::presets::tiny(53));
    let truth_links = world.truth().links().to_vec();
    let mut sharded = ShardedSession::with_partitions(
        world.left(),
        world.right(),
        PartitionMap::trivial(world.left().n_users()),
        PartitionMap::trivial(world.right().n_users()),
        truth_links[..8].to_vec(),
        &ShardedConfig::default(),
    )
    .unwrap();
    let dir = temp_dir("manifest-v2");

    // First save attaches per-shard journals and writes a v2 manifest.
    sharded.save_dir(&dir).unwrap();
    let info1 = session::manifest_info(&dir).unwrap();
    assert_eq!(info1.version, session::sharded::MANIFEST_VERSION);
    assert_eq!(info1.n_shards, 1);
    assert_eq!(info1.shard_lens.len(), 1);
    assert!(info1.shard_lens[0].0 > 0, "base length must be recorded");
    assert!(info1.shard_lens[0].1 > 0, "journal length must be recorded");

    // A later round persists at journal cost: the base is untouched,
    // only the shard's journal grows.
    sharded.update_anchors(&truth_links[8..12]).unwrap();
    sharded.save_dir(&dir).unwrap();
    let info2 = session::manifest_info(&dir).unwrap();
    assert_eq!(
        info2.shard_lens[0].0, info1.shard_lens[0].0,
        "a journaled save must not rewrite the base"
    );
    assert!(
        info2.shard_lens[0].1 > info1.shard_lens[0].1,
        "a journaled save appends to the journal"
    );

    // Downgrade the manifest to v1 in place: strip the trailing
    // per-shard length table, stamp version 1, recompute the CRC. A
    // version bump is a refusal, never a migration.
    let manifest_path = dir.join(session::sharded::MANIFEST_FILE);
    let bytes = std::fs::read(&manifest_path).unwrap();
    let payload = &bytes[12..bytes.len() - 4];
    let table = 8 + 16 * info2.n_shards;
    let v1_payload = &payload[..payload.len() - table];
    let mut v1 = Vec::new();
    v1.extend_from_slice(&bytes[..8]);
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(v1_payload);
    v1.extend_from_slice(&serde::bin::crc32(v1_payload).to_le_bytes());
    std::fs::write(&manifest_path, &v1).unwrap();

    let refused = |e: ShardedError| {
        matches!(
            e,
            ShardedError::Manifest(SnapshotError::UnsupportedVersion {
                found: 1,
                supported: 2
            })
        )
    };
    assert!(refused(session::manifest_info(&dir).unwrap_err()));
    assert!(refused(
        ShardedSession::open_dir(&dir, &ShardedConfig::default()).unwrap_err()
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_sharded_round_trip_is_bit_stable() {
    // Save → update → save → open: the reopened ensemble replays the
    // shard journal to the exact state of the live one.
    let world = datagen::generate(&datagen::presets::tiny(59));
    let truth_links = world.truth().links().to_vec();
    let mut sharded = ShardedSession::with_partitions(
        world.left(),
        world.right(),
        PartitionMap::trivial(world.left().n_users()),
        PartitionMap::trivial(world.right().n_users()),
        truth_links[..8].to_vec(),
        &ShardedConfig::default(),
    )
    .unwrap();
    let dir = temp_dir("journaled-roundtrip");
    sharded.save_dir(&dir).unwrap();
    let update = sharded.update_anchors(&truth_links[8..12]).unwrap();
    assert!(update.applied > 0, "trivial partition routes every anchor");
    sharded.save_dir(&dir).unwrap();

    let mut reopened = ShardedSession::open_dir(&dir, &ShardedConfig::default()).unwrap();
    let candidates: Vec<_> = truth_links.iter().map(|l| (l.left, l.right)).collect();
    let truth = vec![true; candidates.len()];
    let config = ModelConfig {
        budget: 8,
        ..Default::default()
    };
    let labeled: Vec<usize> = (0..10).collect();
    sharded.featurize(candidates.clone()).unwrap();
    reopened.featurize(candidates).unwrap();
    let live = sharded
        .fit(&labeled, &VecOracle::new(truth.clone()), &config)
        .unwrap();
    let replayed = reopened
        .fit(&labeled, &VecOracle::new(truth), &config)
        .unwrap();
    assert_eq!(
        live.shard_reports[0].report.labels,
        replayed.shard_reports[0].report.labels
    );
    assert_eq!(
        live.shard_reports[0].report.scores,
        replayed.shard_reports[0].report.scores
    );
    assert_eq!(
        live.shard_reports[0].report.weights,
        replayed.shard_reports[0].report.weights
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_dir_rejects_a_corrupt_manifest() {
    let world = datagen::generate(&datagen::presets::tiny(47));
    let sharded = ShardedSession::with_partitions(
        world.left(),
        world.right(),
        PartitionMap::trivial(world.left().n_users()),
        PartitionMap::trivial(world.right().n_users()),
        world.truth().links()[..5].to_vec(),
        &ShardedConfig::default(),
    )
    .unwrap();
    let dir = temp_dir("corrupt");
    sharded.save_dir(&dir).unwrap();
    let manifest = dir.join(session::sharded::MANIFEST_FILE);
    let mut bytes = std::fs::read(&manifest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&manifest, &bytes).unwrap();
    let err = ShardedSession::open_dir(&dir, &ShardedConfig::default()).unwrap_err();
    assert!(
        matches!(
            err,
            session::sharded::ShardedError::Manifest(session::SnapshotError::Checksum { .. })
        ),
        "corrupting the manifest tail must trip the checksum, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
