//! Scheduler-determinism suite, run as a dedicated CI step: the
//! dependency-DAG feature scheduler must produce **bit-equal** proximity
//! matrices to the serial reference at every worker count, and the
//! DAG-warmed store build must match the serial build. Bit-equality holds because every scheduled unit computes the same
//! Dice normalization over the same memoized counts — the schedule decides
//! only *when* each diagram is counted, never *what*.

use hetnet::aligned::anchor_matrix;
use hetnet::AnchorLink;
use metadiagram::{
    proximity_matrices, proximity_matrices_par, Catalog, CountEngine, DeltaCatalogCounts,
    FeatureSet, Threading,
};

fn world() -> datagen::GeneratedWorld {
    datagen::generate(&datagen::presets::tiny(41))
}

#[test]
fn schedulers_are_bit_equal_to_serial_at_any_worker_count() {
    let w = world();
    let links: Vec<AnchorLink> = w.truth().links()[..14].to_vec();
    let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &links).unwrap();
    let catalog = Catalog::new(FeatureSet::Full);

    let serial_engine = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
    let reference = proximity_matrices(&serial_engine, &catalog);
    assert_eq!(reference.len(), 31);

    for workers in [1usize, 2, 8] {
        // A fresh engine per run: the schedule decides the order the cache
        // is populated in, so a shared engine would hide scheduling bugs
        // behind warm hits.
        let engine = CountEngine::new(w.left(), w.right(), a.clone()).unwrap();
        let got = proximity_matrices_par(&engine, &catalog, Threading::Threads(workers));
        assert_eq!(
            got, reference,
            "DAG @ {workers} workers diverged from serial"
        );
        // Lemma-2 reuse survives the scheduler: each diagram is counted
        // exactly once, never recomputed by a racing worker.
        assert_eq!(engine.stats().cache_misses, catalog.len());
    }
}

#[test]
fn dag_warmed_store_build_is_deterministic_across_worker_counts() {
    let w = world();
    let links: Vec<AnchorLink> = w.truth().links()[..14].to_vec();
    let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &links).unwrap();
    let catalog = Catalog::new(FeatureSet::Full);

    let serial =
        DeltaCatalogCounts::build(w.left(), w.right(), a.clone(), &catalog, Threading::Serial)
            .unwrap();
    for workers in [2usize, 8] {
        let par = DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            a.clone(),
            &catalog,
            Threading::Threads(workers),
        )
        .unwrap();
        for i in 0..serial.len() {
            assert_eq!(
                par.catalog_count(i),
                serial.catalog_count(i),
                "entry {i} diverged at {workers} workers"
            );
            assert_eq!(par.catalog_sums(i), serial.catalog_sums(i));
        }
    }
}
