//! Block-pass determinism suite, run as a dedicated CI step: the store
//! build counts the catalog in one fused pass per flop-balanced row block
//! (`sparsela::fused_rows` over `sparsela::fan_out`), and must produce
//! **bit-equal** counts and margins to a serial build at every block
//! count. Bit-equality holds because every row is computed by the same
//! arithmetic whichever block holds it, and the counts are exact integers,
//! so the column margins' per-block partial sums add exactly — the cut
//! decides only *where* a row is counted, never *what*.

use hetnet::aligned::anchor_matrix;
use hetnet::{AnchorLink, HetNet, HetNetBuilder, LocationId, TimestampId, UserId};
use metadiagram::{Catalog, DeltaCatalogCounts, FeatureSet, Threading};
use sparsela::{fan_out, CsrMatrix, MarginSums};

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

/// Builds `catalog` over `left`/`right` at `Serial` and at each block
/// count of `blocks`, and checks every count and margin bit-equal to the
/// serial build, whose margins in turn equal a rescan of its counts.
fn assert_builds_agree(
    left: &HetNet,
    right: &HetNet,
    anchor: &CsrMatrix,
    catalog: &Catalog,
    blocks: &[usize],
) {
    let build = |threading| {
        DeltaCatalogCounts::build(left, right, anchor.clone(), catalog, threading).unwrap()
    };
    let serial = build(Threading::Serial);
    for i in 0..serial.len() {
        assert_eq!(
            margin_bits(serial.catalog_sums(i)),
            margin_bits(&MarginSums::of(serial.catalog_count(i))),
            "{:?} entry {i}: maintained margins differ from a rescan",
            catalog.feature_set()
        );
    }
    for &n in blocks {
        let par = build(Threading::Threads(n));
        assert_eq!(par.len(), serial.len());
        for i in 0..serial.len() {
            assert_eq!(
                par.catalog_count(i),
                serial.catalog_count(i),
                "{:?} entry {i} diverged at {n} blocks",
                catalog.feature_set()
            );
            assert_eq!(
                margin_bits(par.catalog_sums(i)),
                margin_bits(serial.catalog_sums(i)),
                "{:?} entry {i} margins diverged at {n} blocks",
                catalog.feature_set()
            );
        }
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
