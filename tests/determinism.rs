//! Reproducibility: every stage of the pipeline is a pure function of its
//! seed — worlds, link sets, features, fits, experiments.

use social_align::prelude::*;

#[test]
fn whole_experiment_is_deterministic() {
    let world = datagen::generate(&datagen::presets::tiny(99));
    let spec = ExperimentSpec {
        np_ratio: 4,
        sample_ratio: 0.8,
        n_folds: 5,
        rotations: 2,
        seed: 21,
        threads: 0,
    };
    for method in [
        Method::ActiveIter { budget: 10 },
        Method::ActiveIterRand { budget: 10 },
        Method::IterMpmd,
        Method::SvmMpmd,
    ] {
        let a = run_experiment(&world, &spec, method);
        let b = run_experiment(&world, &spec, method);
        assert_eq!(
            a.per_fold,
            b.per_fold,
            "{} not deterministic",
            method.name()
        );
    }
}

#[test]
fn different_world_seeds_give_different_worlds() {
    let a = datagen::generate(&datagen::presets::tiny(1));
    let b = datagen::generate(&datagen::presets::tiny(2));
    assert_ne!(a.sigma, b.sigma);
}

#[test]
fn different_protocol_seeds_change_fold_assignment() {
    let world = datagen::generate(&datagen::presets::tiny(7));
    let a = LinkSet::build(&world, 5, 10, 1);
    let b = LinkSet::build(&world, 5, 10, 2);
    assert_ne!(a.fold_of, b.fold_of);
    // But candidates' positives prefix (the truth set) is identical.
    let n_pos = world.truth().len();
    assert_eq!(a.candidates[..n_pos], b.candidates[..n_pos]);
}

#[test]
fn feature_extraction_is_deterministic() {
    use hetnet::aligned::anchor_matrix;
    use metadiagram::{extract_features, Catalog, DeltaCatalogCounts, FeatureSet, Threading};
    let world = datagen::generate(&datagen::presets::tiny(17));
    let train: Vec<_> = world.truth().links()[..10].to_vec();
    let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
    let catalog = Catalog::new(FeatureSet::Full);
    let run = || {
        let amat = anchor_matrix(world.left().n_users(), world.right().n_users(), &train).unwrap();
        let store = DeltaCatalogCounts::build(
            world.left(),
            world.right(),
            amat,
            &catalog,
            Threading::Serial,
        )
        .unwrap();
        extract_features(&store, &catalog, &candidates, Threading::Serial)
    };
    let a = run();
    let b = run();
    assert_eq!(a.x.data(), b.x.data());
}
