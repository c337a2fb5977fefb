//! Scheduler-determinism suite, run as a dedicated CI step: the store
//! build fans its nodes out over their DAG (a stack waits for exactly its
//! parts), and must produce **bit-equal** counts and margins to a serial
//! build at every worker count. Bit-equality holds because every node is
//! counted exactly once and reads only its own parts — the schedule
//! decides only *when* each diagram is counted, never *what*.

use hetnet::aligned::anchor_matrix;
use hetnet::AnchorLink;
use metadiagram::{Catalog, DeltaCatalogCounts, FeatureSet, Threading};

fn world() -> datagen::GeneratedWorld {
    let mut cfg = datagen::presets::tiny(41);
    cfg.n_words = 40;
    cfg.words_per_post = 2;
    datagen::generate(&cfg)
}

/// Builds `set` at `Serial` and at each of `threads`, and checks every
/// catalog count and margin bit-equal.
fn assert_builds_agree(set: FeatureSet, threads: &[usize]) {
    let w = world();
    let links: Vec<AnchorLink> = w.truth().links()[..14].to_vec();
    let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &links).unwrap();
    let catalog = Catalog::new(set);
    let serial =
        DeltaCatalogCounts::build(w.left(), w.right(), a.clone(), &catalog, Threading::Serial)
            .unwrap();
    for &workers in threads {
        let par = DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            a.clone(),
            &catalog,
            Threading::Threads(workers),
        )
        .unwrap();
        assert_eq!(par.len(), serial.len());
        for i in 0..serial.len() {
            assert_eq!(
                par.catalog_count(i),
                serial.catalog_count(i),
                "{set:?} entry {i} diverged at {workers} workers"
            );
            assert_eq!(par.catalog_sums(i), serial.catalog_sums(i));
        }
    }
}

#[test]
fn schedulers_are_bit_equal_to_serial_at_any_worker_count() {
    assert_builds_agree(FeatureSet::Full, &[1, 2, 8]);
}

#[test]
fn dag_warmed_store_build_is_deterministic_across_worker_counts() {
    // Every other DAG shape: no stacks at all, and the 58-feature words
    // catalog whose stacks outnumber its leaves.
    for set in [
        FeatureSet::MetaPathsOnly,
        FeatureSet::PathsAndSocialDiagrams,
        FeatureSet::PathsAndAttrDiagram,
        FeatureSet::FullWithWords,
    ] {
        assert_builds_agree(set, &[2, 8]);
    }
}
