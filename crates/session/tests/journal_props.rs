//! Journal durability properties.
//!
//! The contract under test (ISSUE 9 acceptance): a session reopened
//! through base-snapshot + journal replay is **bit-equal** to one
//! reopened from a freshly saved monolithic snapshot; corruption either
//! rewinds to a state that actually existed (torn tail) or refuses with
//! a typed error — never a silently-wrong session; and a crash at any
//! point of the append/compact protocol recovers cleanly.

use proptest::prelude::*;
use serde::bin::{crc32, Writer};
use session::{snapshot, Journal, JournalError, SessionBuilder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("journal-props-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn world(seed: u64) -> datagen::GeneratedWorld {
    datagen::generate(&datagen::presets::tiny(seed))
}

fn counted(w: &datagen::GeneratedWorld, n: usize) -> session::AlignmentSession<session::Counted> {
    SessionBuilder::new(w.left(), w.right())
        .anchors(w.truth().links()[..n].to_vec())
        .count()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// create → append/apply → checkpoint → open replays to the exact
    /// bytes of the live session AND of a monolithic save→open of the
    /// same state; compacting and reopening stays bit-equal.
    #[test]
    fn journal_replay_is_bit_equal_to_monolithic_save(
        seed in 0u64..500,
        n_train in 5usize..10,
        batch in 1usize..4,
    ) {
        let w = world(seed);
        let links = w.truth().links();
        let mut live = counted(&w, n_train);
        let extra = links[n_train..n_train + 8].to_vec();

        let dir = temp_dir("replay");
        let base = dir.join("s.snap");
        let mut journal = Journal::create(&base, &snapshot::to_bytes(&live)).unwrap();
        for chunk in extra.chunks(batch) {
            // Write-ahead order: journal first, memory second.
            journal.append(chunk).unwrap();
            live.update_anchors(chunk).unwrap();
        }
        journal.checkpoint(live.n_anchors()).unwrap();
        drop(journal);

        let (replayed, j) = Journal::open(&base).unwrap();
        prop_assert_eq!(snapshot::to_bytes(&replayed), snapshot::to_bytes(&live));
        prop_assert_eq!(j.delta_records() as usize, extra.chunks(batch).count());
        drop(j);

        // The monolithic twin of the same state opens to the same bytes.
        let mono = dir.join("mono.snap");
        snapshot::save(&live, &mono).unwrap();
        let mono_open = snapshot::open(&mono).unwrap();
        prop_assert_eq!(snapshot::to_bytes(&mono_open), snapshot::to_bytes(&live));

        // Compaction folds the journal into the base with no state drift.
        let (compact_me, mut j) = Journal::open(&base).unwrap();
        let folded = snapshot::to_bytes(&compact_me);
        j.begin_compact(&folded).unwrap();
        let staged = Journal::stage_compacted_base(&base, &folded).unwrap();
        j.finish_compact(staged).unwrap();
        prop_assert_eq!(j.delta_records(), 0);
        drop(j);
        let (reopened, j) = Journal::open(&base).unwrap();
        prop_assert_eq!(snapshot::to_bytes(&reopened), snapshot::to_bytes(&live));
        prop_assert_eq!(j.delta_records(), 0);
        drop(j);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single bit flip in the journal file either refuses with a
    /// typed error or rewinds replay to a prefix state that actually
    /// existed — never a state that never was.
    #[test]
    fn journal_bit_flips_skip_or_refuse_cleanly(seed in 0u64..200, which in 0usize..2048) {
        let w = world(seed);
        let links = w.truth().links();
        let mut live = counted(&w, 6);
        let b1 = links[6..9].to_vec();
        let b2 = links[9..12].to_vec();

        let dir = temp_dir("flip");
        let base = dir.join("s.snap");
        let s0 = snapshot::to_bytes(&live);
        let mut j = Journal::create(&base, &s0).unwrap();
        j.append(&b1).unwrap();
        live.update_anchors(&b1).unwrap();
        let s1 = snapshot::to_bytes(&live);
        j.append(&b2).unwrap();
        live.update_anchors(&b2).unwrap();
        let s2 = snapshot::to_bytes(&live);
        j.checkpoint(live.n_anchors()).unwrap();
        drop(j);

        let jpath = Journal::path_for(&base);
        let mut bytes = std::fs::read(&jpath).unwrap();
        // Spread the sampled positions across the whole file, like the
        // snapshot bit-flip sweep.
        let total_bits = bytes.len() * 8;
        let pos = (which * (total_bits / 2048 + 1)) % total_bits;
        bytes[pos / 8] ^= 1 << (pos % 8);
        std::fs::write(&jpath, &bytes).unwrap();

        match Journal::open(&base) {
            Err(_) => {} // a typed refusal is always acceptable
            Ok((session, _)) => {
                let got = snapshot::to_bytes(&session);
                prop_assert!(
                    got == s0 || got == s1 || got == s2,
                    "bit {} flipped and replay produced a state that never existed",
                    pos
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A cut at EVERY byte of the last record is a torn tail: the open
/// succeeds, replays exactly the intact prefix, and truncates the file
/// back to it (so the next open does no repair work).
#[test]
fn torn_tail_truncation_sweep() {
    let w = world(83);
    let links = w.truth().links();
    let mut live = counted(&w, 6);
    let b1 = links[6..9].to_vec();
    let b2 = links[9..13].to_vec();

    let dir = temp_dir("torn");
    let base = dir.join("s.snap");
    let mut j = Journal::create(&base, &snapshot::to_bytes(&live)).unwrap();
    j.append(&b1).unwrap();
    live.update_anchors(&b1).unwrap();
    let prefix_len = j.journal_bytes();
    let s1 = snapshot::to_bytes(&live);
    j.append(&b2).unwrap();
    drop(j);

    let jpath = Journal::path_for(&base);
    let full = std::fs::read(&jpath).unwrap();
    assert!(
        full.len() as u64 > prefix_len,
        "fixture must have a last record"
    );
    for cut in prefix_len as usize..full.len() {
        std::fs::write(&jpath, &full[..cut]).unwrap();
        let (session, j) = Journal::open(&base).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(snapshot::to_bytes(&session), s1, "cut {cut}");
        assert_eq!(j.delta_records(), 1, "cut {cut}");
        drop(j);
        assert_eq!(
            std::fs::metadata(&jpath).unwrap().len(),
            prefix_len,
            "cut {cut}: torn tail must be truncated back to the intact prefix"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-build the compaction intent marker exactly as the journal
/// writes it: `len | crc | (kind=3, new_base_len u64, new_base_crc u32)`.
fn compacted_frame(base_len: u64, base_crc: u32) -> Vec<u8> {
    let mut p = Writer::new();
    p.u8(3);
    p.u64(base_len);
    p.u32(base_crc);
    let payload = p.into_bytes();
    let mut w = Writer::new();
    w.u32(payload.len() as u32);
    w.u32(crc32(&payload));
    w.bytes(&payload);
    w.into_bytes()
}

/// Both crash windows of the compaction protocol recover, and a journal
/// next to a foreign base without the intent marker refuses.
#[test]
fn crash_between_append_and_compact_recovers() {
    let w = world(89);
    let links = w.truth().links();
    let mut live = counted(&w, 6);
    let b1 = links[6..10].to_vec();

    let dir = temp_dir("crash");
    let base = dir.join("s.snap");
    let base0 = snapshot::to_bytes(&live);
    let mut j = Journal::create(&base, &base0).unwrap();
    j.append(&b1).unwrap();
    live.update_anchors(&b1).unwrap();
    drop(j);
    let journal_pre = std::fs::read(Journal::path_for(&base)).unwrap();
    // The base a compaction of this state would publish.
    let s1 = snapshot::to_bytes(&live);
    let (s1_len, s1_crc) = (s1.len() as u64, crc32(&s1));
    let mut journal_with_marker = journal_pre.clone();
    journal_with_marker.extend_from_slice(&compacted_frame(s1_len, s1_crc));

    // Window A: crash after the durable intent marker, before the new
    // base lands. Old base + old journal + marker naming a base that is
    // not on disk: the marker is inert, the deltas replay.
    let a = temp_dir("crash-a");
    let abase = a.join("s.snap");
    std::fs::write(&abase, &base0).unwrap();
    std::fs::write(Journal::path_for(&abase), &journal_with_marker).unwrap();
    let (sa, ja) = Journal::open(&abase).unwrap();
    assert_eq!(snapshot::to_bytes(&sa), s1);
    assert_eq!(ja.delta_records(), 1);
    drop(ja);

    // Window B: crash after the new base published, before the journal
    // swap. New base + old journal whose trailing marker names exactly
    // this base: recognized as a completed compaction, journal discarded.
    let b = temp_dir("crash-b");
    let bbase = b.join("s.snap");
    std::fs::write(&bbase, &s1).unwrap();
    std::fs::write(Journal::path_for(&bbase), &journal_with_marker).unwrap();
    let (sb, jb) = Journal::open(&bbase).unwrap();
    assert_eq!(snapshot::to_bytes(&sb), s1);
    assert_eq!(jb.delta_records(), 0);
    assert!(
        jb.journal_bytes() < journal_with_marker.len() as u64,
        "the stale journal must be replaced by a fresh header-only one"
    );
    assert_eq!(
        std::fs::metadata(Journal::path_for(&bbase)).unwrap().len(),
        jb.journal_bytes()
    );
    drop(jb);

    // No marker + a foreign base: refuse — replaying those deltas onto
    // the wrong state would corrupt it silently.
    let c = temp_dir("crash-c");
    let cbase = c.join("s.snap");
    std::fs::write(&cbase, &s1).unwrap();
    std::fs::write(Journal::path_for(&cbase), &journal_pre).unwrap();
    assert!(matches!(
        Journal::open(&cbase),
        Err(JournalError::BaseMismatch { .. })
    ));

    for d in [dir, a, b, c] {
        std::fs::remove_dir_all(&d).ok();
    }
}

/// The staged compaction protocol (begin → stage → finish) preserves
/// records appended *during* the fold: mid-compaction deltas land after
/// the fold mark and must survive into the fresh journal — and the crash
/// window between the base rename and the journal swap must replay
/// exactly that suffix onto the new base.
#[test]
fn staged_compaction_preserves_mid_fold_appends() {
    let w = world(91);
    let links = w.truth().links();
    let mut live = counted(&w, 6);
    let b1 = links[6..10].to_vec();
    let b2 = links[10..13].to_vec();

    let dir = temp_dir("staged");
    let base = dir.join("s.snap");
    let mut j = Journal::create(&base, &snapshot::to_bytes(&live)).unwrap();
    j.append(&b1).unwrap();
    live.update_anchors(&b1).unwrap();

    // Begin the fold at state s1, then keep appending while the base is
    // (conceptually) being staged off-lock.
    let s1 = snapshot::to_bytes(&live);
    j.begin_compact(&s1).unwrap();
    assert!(j.compaction_pending());
    assert!(
        !j.should_compact(session::CompactionPolicy::EveryN(1)),
        "policy checks must not double-trigger while a fold is pending"
    );
    j.append(&b2).unwrap();
    live.update_anchors(&b2).unwrap();
    let s2 = snapshot::to_bytes(&live);

    // Crash window B': new base published, journal not yet swapped, with
    // records after the marker. Replay must apply only the suffix.
    let bp = temp_dir("staged-crash");
    let bbase = bp.join("s.snap");
    std::fs::write(&bbase, &s1).unwrap();
    std::fs::copy(Journal::path_for(&base), Journal::path_for(&bbase)).unwrap();
    let (sbp, jbp) = Journal::open(&bbase).unwrap();
    assert_eq!(snapshot::to_bytes(&sbp), s2);
    assert_eq!(
        jbp.delta_records(),
        1,
        "only the post-mark delta survives into the rebuilt journal"
    );
    drop(jbp);
    // The rebuilt journal must itself reopen cleanly.
    let (sbp2, _) = Journal::open(&bbase).unwrap();
    assert_eq!(snapshot::to_bytes(&sbp2), s2);

    // Live path: stage + finish. The b2 record must survive the swap.
    let staged = Journal::stage_compacted_base(j.base_path(), &s1).unwrap();
    j.finish_compact(staged).unwrap();
    assert!(!j.compaction_pending());
    assert_eq!(j.delta_records(), 1, "mid-fold append survives the fold");
    drop(j);
    let (reopened, j) = Journal::open(&base).unwrap();
    assert_eq!(snapshot::to_bytes(&reopened), s2);
    assert_eq!(j.delta_records(), 1);
    drop(j);

    // A mismatched staged base is refused and the pending fold survives.
    let (_, mut j) = Journal::open(&base).unwrap();
    let now = snapshot::to_bytes(&reopened);
    j.begin_compact(&now).unwrap();
    let wrong = Journal::stage_compacted_base(j.base_path(), &s1).unwrap();
    assert!(j.finish_compact(wrong).is_err());
    assert!(
        j.compaction_pending(),
        "a bad stage must not clear the fold"
    );
    let right = Journal::stage_compacted_base(j.base_path(), &now).unwrap();
    j.finish_compact(right).unwrap();
    assert_eq!(j.delta_records(), 0);
    drop(j);

    for d in [dir, bp] {
        std::fs::remove_dir_all(&d).ok();
    }
}

/// `snapshot::save` is now a journal-layer wrapper: it must unlink a
/// stale sibling journal, or the next journal-aware open would refuse
/// with `BaseMismatch`.
#[test]
fn monolithic_save_unlinks_a_stale_journal() {
    let w = world(97);
    let links = w.truth().links();
    let mut live = counted(&w, 6);

    let dir = temp_dir("stale");
    let base = dir.join("s.snap");
    let mut j = Journal::create(&base, &snapshot::to_bytes(&live)).unwrap();
    j.append(&links[6..9]).unwrap();
    live.update_anchors(&links[6..9]).unwrap();
    j.checkpoint(live.n_anchors()).unwrap();
    drop(j);

    // A monolithic save over the same path supersedes base AND journal.
    snapshot::save(&live, &base).unwrap();
    assert!(
        !Journal::path_for(&base).exists(),
        "save must unlink the superseded journal"
    );
    let (reopened, j) = Journal::open(&base).unwrap();
    assert_eq!(snapshot::to_bytes(&reopened), snapshot::to_bytes(&live));
    assert_eq!(j.delta_records(), 0);
    drop(j);
    std::fs::remove_dir_all(&dir).ok();
}
