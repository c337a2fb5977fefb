//! Snapshot round-trip and corruption properties.
//!
//! The contract under test (ISSUE 5 acceptance): a `Counted` session
//! saved to disk and reopened "in a fresh process" — modeled here as a
//! byte-level round trip through the full file codec, which is exactly
//! what a fresh process would read — produces **bit-identical**
//! `update_anchors` / `run_active` results, without ever recounting; and
//! a snapshot that was truncated or bit-flipped must refuse to open, not
//! mis-open.

use activeiter::query::ConflictQuery;
use activeiter::{ModelConfig, VecOracle};
use proptest::prelude::*;
use session::{snapshot, SessionBuilder};

fn world(seed: u64) -> datagen::GeneratedWorld {
    datagen::generate(&datagen::presets::tiny(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// save → open → update_anchors, against the never-persisted twin:
    /// every count matrix, margin, proximity and feature entry identical
    /// to the last bit, across random worlds, training splits and update
    /// batch shapes.
    #[test]
    fn reopened_sessions_update_bit_equal_to_live_ones(
        seed in 0u64..500,
        n_train in 5usize..12,
        batch in 1usize..5,
    ) {
        let w = world(seed);
        let links = w.truth().links();
        let train = links[..n_train].to_vec();
        let extra: Vec<_> = links[n_train..n_train + 8].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();

        let live = SessionBuilder::new(w.left(), w.right())
            .anchors(train)
            .count()
            .unwrap();
        let bytes = snapshot::to_bytes(&live);
        let reopened = snapshot::from_bytes(&bytes).unwrap();

        let mut live = live.featurize(candidates.clone());
        let mut reopened = reopened.featurize(candidates);
        for chunk in extra.chunks(batch) {
            prop_assert_eq!(
                live.update_anchors(chunk).unwrap(),
                reopened.update_anchors(chunk).unwrap()
            );
        }
        prop_assert_eq!(live.features().x.data(), reopened.features().x.data());
        for i in 0..live.catalog().len() {
            prop_assert_eq!(live.proximity_of(i), reopened.proximity_of(i), "prox {}", i);
            prop_assert_eq!(live.count_of(i), reopened.count_of(i), "count {}", i);
        }
        // The reopened session resumed without paying a second full count.
        prop_assert_eq!(live.stats(), reopened.stats());
        prop_assert_eq!(reopened.stats().full_counts, 1);
    }

    /// Any single bit flip anywhere in the file must make `open` fail —
    /// magic, version, table, and payload corruption all refuse, never
    /// mis-open (CRC-32 catches all single-bit errors; the header fields
    /// fail their own validation).
    #[test]
    fn single_bit_flips_never_mis_open(seed in 0u64..500, which in 0usize..4096) {
        let w = world(seed);
        let counted = SessionBuilder::new(w.left(), w.right())
            .anchors(w.truth().links()[..8].to_vec())
            .count()
            .unwrap();
        let bytes = snapshot::to_bytes(&counted);
        let mut corrupt = bytes.clone();
        // Spread the 4096 sampled positions across the WHOLE file (a
        // snapshot is ~1M bits, so a bare `which % total` would only
        // ever touch the first 4096 bits — the header).
        let total_bits = corrupt.len() * 8;
        let pos = (which * (total_bits / 4096 + 1)) % total_bits;
        corrupt[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(
            snapshot::from_bytes(&corrupt).is_err(),
            "bit {} flipped and the snapshot still opened",
            pos
        );
    }
}

/// `run_active` from a reopened session is bit-identical to the live
/// session's run: same labels, scores, weights, query sequence, and the
/// same per-round anchor bookkeeping (timings excluded — wall-clock is
/// not part of the contract).
#[test]
fn reopened_sessions_run_active_bit_equal() {
    let w = world(77);
    let train = w.truth().links()[..10].to_vec();
    let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
    let truth = vec![true; candidates.len()];
    let config = ModelConfig {
        budget: 12,
        ..Default::default()
    };

    let live = SessionBuilder::new(w.left(), w.right())
        .anchors(train)
        .count()
        .unwrap();
    let reopened = snapshot::from_bytes(&snapshot::to_bytes(&live)).unwrap();

    let run = |counted: session::AlignmentSession<session::Counted>| {
        let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
        counted
            .featurize(candidates.clone())
            .run_active(
                (0..10).collect(),
                &VecOracle::new(truth.clone()),
                &mut strategy,
                &config,
            )
            .unwrap()
    };
    let (fitted_live, run_live) = run(live);
    let (fitted_reopened, run_reopened) = run(reopened);

    assert_eq!(run_live.fit.labels, run_reopened.fit.labels);
    assert_eq!(run_live.fit.scores, run_reopened.fit.scores);
    assert_eq!(run_live.fit.weights, run_reopened.fit.weights);
    assert_eq!(run_live.fit.queried, run_reopened.fit.queried);
    assert_eq!(run_live.rounds.len(), run_reopened.rounds.len());
    for (a, b) in run_live.rounds.iter().zip(run_reopened.rounds.iter()) {
        assert_eq!(a.queried, b.queried);
        assert_eq!(a.confirmed, b.confirmed);
        assert_eq!(a.anchors_applied, b.anchors_applied);
    }
    // Both counted the catalog exactly once — the reopened one at its
    // original build, before it was persisted.
    assert_eq!(fitted_live.stats().full_counts, 1);
    assert_eq!(fitted_reopened.stats().full_counts, 1);
    assert_eq!(
        fitted_live.features().x.data(),
        fitted_reopened.features().x.data()
    );
}

/// Truncation at any point must error. Every cut of the header and
/// section table is tried exactly; payload cuts are sampled.
#[test]
fn truncated_snapshots_never_mis_open() {
    let w = world(41);
    let counted = SessionBuilder::new(w.left(), w.right())
        .anchors(w.truth().links()[..8].to_vec())
        .count()
        .unwrap();
    let bytes = snapshot::to_bytes(&counted);
    let header_and_table = 20 + 2 * 24;
    for cut in 0..header_and_table.min(bytes.len()) {
        assert!(
            snapshot::from_bytes(&bytes[..cut]).is_err(),
            "header cut at {cut} opened"
        );
    }
    let step = ((bytes.len() - header_and_table) / 211).max(1);
    for cut in (header_and_table..bytes.len()).step_by(step) {
        assert!(
            snapshot::from_bytes(&bytes[..cut]).is_err(),
            "payload cut at {cut} opened"
        );
    }
    // The untruncated bytes do open (the sweep above is meaningful).
    assert!(snapshot::from_bytes(&bytes).is_ok());
}

/// The version policy: a snapshot from a different format version is
/// refused with the typed error, not parsed approximately.
#[test]
fn unsupported_versions_are_refused() {
    let w = world(43);
    let counted = SessionBuilder::new(w.left(), w.right())
        .anchors(w.truth().links()[..6].to_vec())
        .count()
        .unwrap();
    // The older layout (version 1, which stored the node plan) and a
    // newer one are both refused. The version field sits right after the
    // 8-byte magic.
    for version in [1, snapshot::FORMAT_VERSION + 1] {
        let mut bytes = snapshot::to_bytes(&counted);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match snapshot::from_bytes(&bytes) {
            Err(session::SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, snapshot::FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
    // And a non-snapshot file is refused as such.
    assert!(matches!(
        snapshot::from_bytes(b"definitely not a snapshot"),
        Err(session::SnapshotError::BadMagic)
    ));
}

/// save/open through the filesystem: the docs' quickstart path, plus the
/// atomic-rename guarantee that no `.tmp` debris survives a save.
#[test]
fn save_and_open_round_trip_through_a_file() {
    let w = world(47);
    let counted = SessionBuilder::new(w.left(), w.right())
        .anchors(w.truth().links()[..9].to_vec())
        .count()
        .unwrap();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("snapshot-props-{}.snap", std::process::id()));
    snapshot::save(&counted, &path).unwrap();
    let reopened = snapshot::open(&path).unwrap();
    assert_eq!(reopened.n_anchors(), counted.n_anchors());
    assert_eq!(reopened.catalog().len(), counted.catalog().len());
    for i in 0..counted.catalog().len() {
        assert_eq!(reopened.count_of(i), counted.count_of(i));
    }
    // Saves stage through uniquely named `<path>.tmp.<pid>-<n>` siblings;
    // none may survive a completed save.
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let debris: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&format!("{name}.tmp")))
        .collect();
    assert!(debris.is_empty(), "save left temp files behind: {debris:?}");
    std::fs::remove_file(&path).ok();
}
