//! Block-pass determinism suite, run as a dedicated CI step: the store
//! build counts the catalog in one fused pass per flop-balanced row block
//! (`sparsela::fused_rows` over `sparsela::fan_out`), and must produce
//! **bit-equal** counts and margins to a serial build at every block
//! count. Bit-equality holds because every row is computed by the same
//! arithmetic whichever block holds it, and the counts are exact integers,
//! so the column margins' per-block partial sums add exactly — the cut
//! decides only *where* a row is counted, never *what*.
//!
//! A build is **cold** when its two networks have not been counted
//! together before, and **warm** when an earlier build over the same pair
//! left its factor chains and anchor-free counts to share. Both must be
//! bit-equal to a cold serial build: at any block count, over a memo an
//! earlier build of another catalog slice filled only in part, and with
//! several threads building one pair at once.
//!
//! The two fan-outs those builds run on are pinned here too:
//! `sparsela::fan_out` (one range per worker) and `sparsela::map_claimed`
//! (one claimed index at a time, results in index order).

use hetnet::aligned::anchor_matrix;
use hetnet::{AnchorLink, HetNet, HetNetBuilder, LocationId, TimestampId, UserId};
use metadiagram::{Catalog, DeltaCatalogCounts, FeatureSet, Threading};
use sparsela::{fan_out, map_claimed, CsrMatrix, MarginSums};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

fn world() -> datagen::GeneratedWorld {
    let mut cfg = datagen::presets::tiny(41);
    cfg.n_words = 40;
    cfg.words_per_post = 2;
    datagen::generate(&cfg)
}

/// Bit patterns of both margins, so `-0.0` and `0.0` differ.
fn margin_bits(m: &MarginSums) -> (Vec<u64>, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (bits(m.rows()), bits(m.cols()))
}

/// Asserts every count and margin of `got` bit-equal to `want`'s.
fn assert_bit_equal(got: &DeltaCatalogCounts, want: &DeltaCatalogCounts, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for i in 0..want.len() {
        assert_eq!(
            got.catalog_count(i),
            want.catalog_count(i),
            "entry {i} diverged: {what}"
        );
        assert_eq!(
            margin_bits(got.catalog_sums(i)),
            margin_bits(want.catalog_sums(i)),
            "entry {i} margins diverged: {what}"
        );
    }
}

/// A cold `Serial` build of `catalog` over fresh clones of the networks,
/// whose margins are checked against a rescan of its counts.
fn cold_serial(
    left: &HetNet,
    right: &HetNet,
    anchor: &CsrMatrix,
    catalog: &Catalog,
) -> DeltaCatalogCounts {
    let (left, right) = (left.clone(), right.clone());
    let serial =
        DeltaCatalogCounts::build(&left, &right, anchor.clone(), catalog, Threading::Serial)
            .unwrap();
    for i in 0..serial.len() {
        assert_eq!(
            margin_bits(serial.catalog_sums(i)),
            margin_bits(&MarginSums::of(serial.catalog_count(i))),
            "{:?} entry {i}: maintained margins differ from a rescan",
            catalog.feature_set()
        );
    }
    serial
}

/// Builds `catalog` at each block count of `blocks`, cold over fresh
/// clones of `left`/`right` and warm over `left`/`right` themselves after
/// one build over them, and checks every count and margin bit-equal to a
/// cold serial build.
fn assert_builds_agree(
    left: &HetNet,
    right: &HetNet,
    anchor: &CsrMatrix,
    catalog: &Catalog,
    blocks: &[usize],
) {
    let serial = cold_serial(left, right, anchor, catalog);
    let set = catalog.feature_set();
    let build = |left: &HetNet, right: &HetNet, threading| {
        DeltaCatalogCounts::build(left, right, anchor.clone(), catalog, threading).unwrap()
    };
    build(left, right, Threading::Serial);
    for &n in blocks {
        let threading = Threading::Threads(n);
        let cold = build(&left.clone(), &right.clone(), threading);
        assert_bit_equal(&cold, &serial, &format!("{set:?}, cold, {n} blocks"));
        let warm = build(left, right, threading);
        assert_bit_equal(&warm, &serial, &format!("{set:?}, warm, {n} blocks"));
    }
}

/// `set` over the shared test world, with 14 anchors.
fn assert_world_builds_agree(set: FeatureSet, blocks: &[usize]) {
    let w = world();
    let links: Vec<AnchorLink> = w.truth().links()[..14].to_vec();
    let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &links).unwrap();
    assert_builds_agree(w.left(), w.right(), &a, &Catalog::new(set), blocks);
}

#[test]
fn schedulers_are_bit_equal_to_serial_at_any_worker_count() {
    assert_world_builds_agree(FeatureSet::Full, &[1, 2, 8]);
}

#[test]
fn dag_warmed_store_build_is_deterministic_across_worker_counts() {
    // Every other catalog shape: no stacks at all, and the 58-feature
    // words catalog whose stacks outnumber its leaves.
    for set in [
        FeatureSet::MetaPathsOnly,
        FeatureSet::PathsAndSocialDiagrams,
        FeatureSet::PathsAndAttrDiagram,
        FeatureSet::FullWithWords,
    ] {
        assert_world_builds_agree(set, &[1, 2, 8]);
    }
}

#[test]
fn a_memo_filled_in_part_serves_the_larger_catalogs() {
    // A meta-paths-only build leaves P1–P6 to share; the full catalogs
    // count their pairs and stacks on top of them.
    let w = world();
    let links: Vec<AnchorLink> = w.truth().links()[..14].to_vec();
    let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &links).unwrap();
    let (left, right) = (w.left().clone(), w.right().clone());
    let paths = Catalog::new(FeatureSet::MetaPathsOnly);
    DeltaCatalogCounts::build(&left, &right, a.clone(), &paths, Threading::Serial).unwrap();
    for set in [FeatureSet::Full, FeatureSet::FullWithWords] {
        let catalog = Catalog::new(set);
        let serial = cold_serial(&left, &right, &a, &catalog);
        for n in [1, 2, 8] {
            let warm = DeltaCatalogCounts::build(
                &left,
                &right,
                a.clone(),
                &catalog,
                Threading::Threads(n),
            )
            .unwrap();
            assert_bit_equal(&warm, &serial, &format!("{set:?} after paths, {n} blocks"));
        }
    }
}

#[test]
fn four_threads_building_one_pair_at_once_agree() {
    let w = world();
    let links: Vec<AnchorLink> = w.truth().links()[..14].to_vec();
    let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &links).unwrap();
    let catalog = Catalog::new(FeatureSet::Full);
    let (left, right) = (w.left().clone(), w.right().clone());
    let serial = cold_serial(&left, &right, &a, &catalog);
    // All four start their cold build of the pair together.
    let start = Barrier::new(4);
    let stores: Vec<DeltaCatalogCounts> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    DeltaCatalogCounts::build(
                        &left,
                        &right,
                        a.clone(),
                        &catalog,
                        Threading::Threads(2),
                    )
                    .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, store) in stores.iter().enumerate() {
        assert_bit_equal(store, &serial, &format!("concurrent build {t}"));
    }
}

/// A `users`-user network: a follow chain, and one post per user at
/// location and timestamp `u % 2`.
fn small_net(name: &str, users: usize) -> HetNet {
    let mut b = HetNetBuilder::new(name, users, 2, 2, 0);
    for u in 0..users {
        if u + 1 < users {
            b.add_follow(UserId(u as u32), UserId(u as u32 + 1))
                .unwrap();
        }
        let p = b.add_post(UserId(u as u32)).unwrap();
        b.add_checkin(p, LocationId((u % 2) as u32)).unwrap();
        b.add_at(p, TimestampId((u % 2) as u32)).unwrap();
    }
    b.build()
}

#[test]
fn more_blocks_than_rows_match_serial() {
    let (left, right) = (small_net("L", 3), small_net("R", 3));
    let anchor = anchor_matrix(3, 3, &[AnchorLink::new(UserId(1), UserId(1))]).unwrap();
    assert_builds_agree(
        &left,
        &right,
        &anchor,
        &Catalog::new(FeatureSet::Full),
        &[4, 8, 64],
    );
}

#[test]
fn a_network_with_zero_users_counts_empty_matrices() {
    let (left, right) = (small_net("L", 0), small_net("R", 0));
    let anchor = CsrMatrix::zeros(0, 0);
    let catalog = Catalog::new(FeatureSet::Full);
    assert_builds_agree(&left, &right, &anchor, &catalog, &[2, 8]);
    let s =
        DeltaCatalogCounts::build(&left, &right, anchor, &catalog, Threading::Threads(2)).unwrap();
    for i in 0..s.len() {
        assert_eq!(s.catalog_count(i).shape(), (0, 0));
        assert_eq!(s.catalog_sums(i).shape(), (0, 0));
    }
}

#[test]
fn fan_out_runs_every_range_once_in_order() {
    for n in [1usize, 2, 4, 8] {
        let ranges = sparsela::balanced_ranges(&[1; 10], n);
        let got = fan_out(ranges.clone(), |r| r.collect::<Vec<_>>());
        assert_eq!(got.len(), ranges.len(), "{n} blocks");
        assert_eq!(got.concat(), (0..10).collect::<Vec<_>>(), "{n} blocks");
    }
}

#[test]
fn fan_out_of_no_ranges_is_empty() {
    assert!(fan_out(Vec::new(), |r| r.len()).is_empty());
}

#[test]
#[should_panic(expected = "block 1 failed")]
fn a_panic_inside_a_block_reaches_the_caller() {
    // Block 1 runs on a spawned worker; the caller runs block 0 and must
    // not wait for a result that never comes.
    fan_out(vec![0..1, 1..2, 2..3], |r| {
        assert_ne!(r.start, 1, "block 1 failed");
        r.start
    });
}

#[test]
#[should_panic(expected = "block 0 failed")]
fn a_panic_in_the_callers_block_reaches_the_caller() {
    fan_out(vec![0..1, 1..2], |r| {
        assert_ne!(r.start, 0, "block 0 failed");
        r.start
    });
}

#[test]
fn results_arrive_in_order_at_any_worker_count() {
    for workers in [0, 1, 2, 3, 8, 64] {
        let got = map_claimed(20, workers, |i| i * i);
        let want: Vec<usize> = (0..20).map(|i| i * i).collect();
        assert_eq!(got, want, "workers = {workers}");
    }
}

#[test]
fn zero_items_is_a_noop() {
    let called = AtomicUsize::new(0);
    let got = map_claimed(0, 4, |i| {
        called.fetch_add(1, Ordering::SeqCst);
        i
    });
    assert!(got.is_empty());
    assert_eq!(called.load(Ordering::SeqCst), 0);
}

#[test]
fn every_job_runs_exactly_once() {
    let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
    map_claimed(50, 4, |i| counters[i].fetch_add(1, Ordering::SeqCst));
    for (i, c) in counters.iter().enumerate() {
        assert_eq!(c.load(Ordering::SeqCst), 1, "job {i}");
    }
}

#[test]
fn one_worker_runs_every_index_inline_in_ascending_order() {
    // A serial batch's side effects (a pool's journal appends) happen in
    // index order, on the caller's thread.
    let caller = std::thread::current().id();
    let seen = Mutex::new(Vec::new());
    map_claimed(10, 1, |i| {
        assert_eq!(
            std::thread::current().id(),
            caller,
            "index {i} left the caller"
        );
        seen.lock().unwrap().push(i);
    });
    assert_eq!(seen.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
}

#[test]
fn panicking_worker_propagates_instead_of_hanging() {
    // A job that panics on a spawned worker must reach the caller once
    // its siblings drain the remaining jobs; a hang here would stall the
    // suite, which is the failure mode this pins.
    let result = std::panic::catch_unwind(|| {
        map_claimed(30, 3, |i| {
            assert_ne!(i, 5, "job 5 exploded");
            i
        })
    });
    assert!(result.is_err(), "worker panic must propagate");
}
