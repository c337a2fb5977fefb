//! SessionPool integration: opening slots from snapshots, updates that
//! match a standalone session, and the write-ahead journaling contract.

use session::pool::{PoolError, SessionPool};
use session::{snapshot, CompactionPolicy, Journal, SessionBuilder};
use std::path::{Path, PathBuf};

fn world(seed: u64) -> datagen::GeneratedWorld {
    datagen::generate(&datagen::presets::tiny(seed))
}

fn counted(w: &datagen::GeneratedWorld, n: usize) -> session::AlignmentSession<session::Counted> {
    SessionBuilder::new(w.left(), w.right())
        .anchors(w.truth().links()[..n].to_vec())
        .count()
        .unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pool-test-{}-{tag}.snap", std::process::id()))
}

/// Removes a base snapshot and the `.jrnl` sibling every pool open or
/// save leaves beside it.
fn remove_pair(base: &Path) {
    std::fs::remove_file(base).ok();
    std::fs::remove_file(Journal::path_for(base)).ok();
}

#[test]
fn reopened_slots_never_recount() {
    let w = world(61);
    let paths: Vec<PathBuf> = (0..3)
        .map(|i| {
            let p = temp_path(&format!("reopen-{i}"));
            snapshot::save(&counted(&w, 5 + i), &p).unwrap();
            p
        })
        .collect();
    let mut pool = SessionPool::new();
    // Open order ⇒ id order ⇒ anchor counts 5, 6, 7.
    for (i, p) in paths.iter().enumerate() {
        let id = pool.open(p).unwrap();
        assert_eq!(id.index(), i);
        assert_eq!(pool.n_anchors(id).unwrap(), 5 + i);
        assert_eq!(pool.stats(id).unwrap().full_counts, 1, "reopen recounted");
    }
    for p in &paths {
        remove_pair(p);
    }
}

#[test]
fn open_of_a_missing_path_consumes_no_slot() {
    let w = world(62);
    let good = temp_path("good");
    snapshot::save(&counted(&w, 6), &good).unwrap();
    let missing = temp_path("never-written");
    let mut pool = SessionPool::new();
    pool.open(&good).unwrap();
    assert!(matches!(
        pool.open(&missing),
        Err(PoolError::Journal(session::JournalError::Snapshot(
            session::SnapshotError::Io(_)
        )))
    ));
    assert_eq!(pool.len(), 1, "failed open must not consume a slot");
    remove_pair(&good);
}

#[test]
fn pooled_updates_match_a_standalone_session_bit_for_bit() {
    let w = world(63);
    let extra = w.truth().links()[8..16].to_vec();

    // Standalone reference.
    let mut reference = counted(&w, 8);
    reference.update_anchors(&extra).unwrap();

    // Pooled twin.
    let mut pool = SessionPool::new();
    let id = pool.insert(counted(&w, 8));
    assert_eq!(pool.update_anchors(id, &extra).unwrap(), 8);
    pool.with_counted(id, |s| {
        assert_eq!(s.stats(), reference.stats());
        for i in 0..s.catalog().len() {
            assert_eq!(s.count_of(i), reference.count_of(i));
        }
        // Margins: the proximity a featurization reads from the counts.
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        let (pooled, alone) = (
            s.clone().featurize(candidates.clone()),
            reference.clone().featurize(candidates),
        );
        assert_eq!(pooled.features().x.data(), alone.features().x.data());
        for i in 0..s.catalog().len() {
            assert_eq!(pooled.proximity_of(i), alone.proximity_of(i));
        }
    })
    .unwrap();
}

#[test]
fn unknown_ids_and_checkpointing_round_trip() {
    let w = world(66);
    let mut pool = SessionPool::new();
    let id = pool.insert(counted(&w, 7));
    // An id this pool never issued (from a larger pool) is rejected, not
    // conflated with a live slot.
    let mut other = SessionPool::new();
    other.insert(counted(&w, 5));
    let foreign = other.insert(counted(&w, 5));
    assert!(matches!(
        pool.n_anchors(foreign),
        Err(PoolError::UnknownSession(1))
    ));
    // Checkpoint a pooled session after an update, reopen it elsewhere,
    // states agree.
    pool.update_anchors(id, &w.truth().links()[7..12]).unwrap();
    let path = temp_path("checkpoint");
    pool.save(id, &path).unwrap();
    let reopened = snapshot::open(&path).unwrap();
    assert_eq!(reopened.n_anchors(), pool.n_anchors(id).unwrap());
    assert_eq!(
        reopened.stats().anchors_applied,
        pool.stats(id).unwrap().anchors_applied
    );
    remove_pair(&path);
}

#[test]
fn updates_are_write_ahead_journaled() {
    let w = world(67);
    let links = w.truth().links();
    let path = temp_path("wal");
    let mut pool = SessionPool::new();
    let id = pool.insert(counted(&w, 6));
    pool.save(id, &path).unwrap();

    // The delta record lands in the journal before it applies in memory:
    // with no save/checkpoint at all, a fresh open already replays it.
    pool.update_anchors(id, &links[6..10]).unwrap();
    let n = pool.n_anchors(id).unwrap();
    let (replayed, _) = Journal::open(&path).unwrap();
    assert_eq!(
        replayed.n_anchors(),
        n,
        "update must be journaled before it applies"
    );

    // A batch that fails validation is rejected BEFORE journaling —
    // otherwise a poison record would fail every later replay.
    let before = pool.journal_stats(id).unwrap().unwrap();
    let bad = [hetnet::AnchorLink::new(
        hetnet::UserId(9999),
        hetnet::UserId(0),
    )];
    assert!(matches!(
        pool.update_anchors(id, &bad),
        Err(PoolError::Session(_))
    ));
    assert_eq!(
        pool.journal_stats(id).unwrap().unwrap(),
        before,
        "a rejected batch must leave the journal untouched"
    );
    assert_eq!(pool.n_anchors(id).unwrap(), n);
    let (replayed, _) = Journal::open(&path).unwrap();
    assert_eq!(replayed.n_anchors(), n);

    remove_pair(&path);
}

#[test]
fn journaled_saves_checkpoint_and_compact_by_policy() {
    let w = world(68);
    let links = w.truth().links();
    let path = temp_path("policy");
    let mut pool = SessionPool::new();
    pool.set_compaction(CompactionPolicy::EveryN(2));
    let id = pool.insert(counted(&w, 6));
    pool.save(id, &path).unwrap();

    // First save: one delta record — below EveryN(2), checkpoint only.
    pool.update_anchors(id, &links[6..8]).unwrap();
    pool.save(id, &path).unwrap();
    let (base_len0, journal_len0, recs0) = pool.journal_stats(id).unwrap().unwrap();
    assert_eq!(
        recs0, 1,
        "below the policy threshold the journal keeps its deltas"
    );
    assert!(journal_len0 > 0);

    // Second save: two delta records — the policy folds the journal (in
    // the background now; flush to observe the folded state).
    pool.update_anchors(id, &links[8..10]).unwrap();
    pool.save(id, &path).unwrap();
    assert!(pool.flush_compactions().is_empty(), "the fold must succeed");
    let (base_len1, journal_len1, recs1) = pool.journal_stats(id).unwrap().unwrap();
    assert_eq!(recs1, 0, "EveryN(2) must compact at the second save");
    assert!(
        journal_len1 < journal_len0,
        "compaction must shrink the journal"
    );
    assert!(base_len1 >= base_len0);

    // The compacted base alone carries the full state.
    let reopened = snapshot::open(&path).unwrap();
    assert_eq!(reopened.n_anchors(), pool.n_anchors(id).unwrap());

    remove_pair(&path);
}

#[test]
fn save_reports_per_slot_failures() {
    let w = world(69);
    let mut pool = SessionPool::new();
    let a = pool.insert(counted(&w, 5));
    let b = pool.insert(counted(&w, 6));
    let good_a = temp_path("sm-a");
    let good_b = temp_path("sm-b");
    let bad = std::env::temp_dir()
        .join(format!("no-such-dir-{}", std::process::id()))
        .join("s.snap");

    assert!(
        pool.save(a, &bad).is_err(),
        "unwritable path must fail its own slot"
    );
    pool.save(b, &good_b).unwrap();
    pool.save(a, &good_a)
        .expect("a failed save must not poison the slot");
    assert_eq!(snapshot::open(&good_a).unwrap().n_anchors(), 5);
    assert_eq!(snapshot::open(&good_b).unwrap().n_anchors(), 6);

    remove_pair(&good_a);
    remove_pair(&good_b);
}

#[test]
fn open_refuses_a_base_a_live_slot_is_journaled_at() {
    let w = world(71);
    let base = temp_path("shared");
    snapshot::save(&counted(&w, 9), &base).unwrap();

    let mut pool = SessionPool::new();
    let a = pool.open(&base).unwrap();
    match pool.open(&base) {
        Err(PoolError::AlreadyOpen { path }) => assert_eq!(path, base),
        other => panic!("expected AlreadyOpen, got {other:?}"),
    }
    assert_eq!(pool.len(), 1, "a refused open must not consume a slot");

    // The one live slot owns the journal: replay sees its updates only.
    pool.update_anchors(a, &w.truth().links()[9..12]).unwrap();
    let (replayed, _) = Journal::open(&base).unwrap();
    assert_eq!(replayed.n_anchors(), 12);

    remove_pair(&base);
}

#[test]
fn every_n_policy_folds_without_any_save() {
    let w = world(72);
    let links = w.truth().links();
    let base = temp_path("fold-no-save");
    snapshot::save(&counted(&w, 6), &base).unwrap();
    let mut pool = SessionPool::new();
    pool.set_compaction(CompactionPolicy::EveryN(2));
    let id = pool.open(&base).unwrap();
    let (base_len0, _, _) = pool.journal_stats(id).unwrap().unwrap();

    pool.update_anchors(id, &links[6..8]).unwrap();
    pool.update_anchors(id, &links[8..10]).unwrap();
    assert!(pool.flush_compactions().is_empty(), "the fold must succeed");
    let (base_len1, _, recs) = pool.journal_stats(id).unwrap().unwrap();
    assert_eq!(recs, 0, "EveryN(2) must fold at the second update");
    assert!(base_len1 >= base_len0);
    // The folded base alone carries the full state.
    assert_eq!(snapshot::open(&base).unwrap().n_anchors(), 10);

    remove_pair(&base);
}

#[test]
fn save_to_another_path_moves_the_slot_home() {
    let w = world(73);
    let links = w.truth().links();
    let old = temp_path("home-old");
    let new = temp_path("home-new");
    snapshot::save(&counted(&w, 6), &old).unwrap();
    let mut pool = SessionPool::new();
    let id = pool.open(&old).unwrap();
    pool.update_anchors(id, &links[6..8]).unwrap();

    pool.save(id, &new).unwrap();
    pool.update_anchors(id, &links[8..11]).unwrap();
    pool.save(id, &new).unwrap();

    let (moved, _) = Journal::open(&new).unwrap();
    assert_eq!(
        moved.n_anchors(),
        11,
        "later updates replay from the new home"
    );
    let (left_behind, _) = Journal::open(&old).unwrap();
    assert_eq!(
        left_behind.n_anchors(),
        8,
        "the old pair keeps its last state"
    );
    // The old base is free again; the new one is claimed.
    assert!(pool.open(&old).is_ok());
    assert!(matches!(
        pool.open(&new),
        Err(PoolError::AlreadyOpen { .. })
    ));

    remove_pair(&old);
    remove_pair(&new);
}

#[test]
fn save_refuses_a_base_another_live_slot_holds() {
    let w = world(74);
    let links = w.truth().links();
    let held = temp_path("held");
    let own = temp_path("held-own");
    snapshot::save(&counted(&w, 9), &held).unwrap();
    let mut pool = SessionPool::new();
    let a = pool.open(&held).unwrap();
    let b = pool.insert(counted(&w, 6));
    pool.save(b, &own).unwrap();

    // Saving b over a's base would overwrite a's base and journal.
    match pool.save(b, &held) {
        Err(PoolError::AlreadyOpen { path }) => assert_eq!(path, held),
        other => panic!("expected AlreadyOpen, got {other:?}"),
    }
    // A slot's own home is a checkpoint, not a conflict.
    pool.save(a, &held).unwrap();

    // Both slots keep their homes: updates journal and replay apart.
    pool.update_anchors(a, &links[9..12]).unwrap();
    pool.update_anchors(b, &links[6..8]).unwrap();
    pool.save(a, &held).unwrap();
    pool.save(b, &own).unwrap();
    assert_eq!(pool.n_anchors(a).unwrap(), 12);
    assert_eq!(pool.n_anchors(b).unwrap(), 8);
    let (reopened_a, _) = Journal::open(&held).unwrap();
    let (reopened_b, _) = Journal::open(&own).unwrap();
    assert_eq!(reopened_a.n_anchors(), 12);
    assert_eq!(reopened_b.n_anchors(), 8);
    for i in 0..reopened_a.catalog().len() {
        pool.with_counted(a, |s| assert_eq!(s.count_of(i), reopened_a.count_of(i)))
            .unwrap();
        pool.with_counted(b, |s| assert_eq!(s.count_of(i), reopened_b.count_of(i)))
            .unwrap();
    }

    remove_pair(&held);
    remove_pair(&own);
}
