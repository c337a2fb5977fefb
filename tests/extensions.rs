//! Integration tests for the extension features: per-user ranking
//! metrics and the words catalog.

use social_align::prelude::*;

#[test]
fn ranking_improves_with_more_supervision() {
    let world = datagen::generate(&datagen::presets::tiny(23));
    let mk_spec = |gamma: f64| ExperimentSpec {
        np_ratio: 5,
        sample_ratio: gamma,
        n_folds: 5,
        rotations: 1,
        seed: 4,
        threads: 0,
    };
    let ls = LinkSet::build(&world, 5, 5, 4);
    let lo = eval::run_fold(&world, &ls, &mk_spec(0.3), Method::IterMpmd, 0);
    let hi = eval::run_fold(&world, &ls, &mk_spec(1.0), Method::IterMpmd, 0);
    assert!(
        hi.ranking.mrr >= lo.ranking.mrr - 0.05,
        "MRR should not degrade with more labels: {:.3} -> {:.3}",
        lo.ranking.mrr,
        hi.ranking.mrr
    );
    assert!(hi.ranking.hits_at_10 >= hi.ranking.hits_at_1);
}

#[test]
fn words_catalog_runs_through_the_extraction_pipeline() {
    use hetnet::aligned::anchor_matrix;
    use metadiagram::{extract_features, Catalog, DeltaCatalogCounts, FeatureSet, Threading};
    let mut cfg = datagen::presets::tiny(29);
    cfg.n_words = 30;
    cfg.words_per_post = 2;
    let world = datagen::generate(&cfg);
    let train: Vec<_> = world.truth().links()[..8].to_vec();
    let amat = anchor_matrix(world.left().n_users(), world.right().n_users(), &train).unwrap();
    let catalog = Catalog::new(FeatureSet::FullWithWords);
    let store = DeltaCatalogCounts::build(
        world.left(),
        world.right(),
        amat,
        &catalog,
        Threading::Serial,
    )
    .unwrap();
    let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
    let fm = extract_features(&store, &catalog, &candidates, Threading::Serial);
    assert_eq!(fm.n_features(), 58);
    // Word features must carry signal on a words-enabled world.
    let pw_col = catalog.names().iter().position(|&n| n == "PW").unwrap();
    let pw_sum: f64 = (0..fm.n_rows()).map(|r| fm.x[(r, pw_col)]).sum();
    assert!(pw_sum > 0.0, "PW proximity all-zero on a words world");
}
