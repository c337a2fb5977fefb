//! No-leakage tests: anchor-dependent features must see only the training
//! anchors, never the ground truth.

use hetnet::aligned::anchor_matrix;
use metadiagram::{extract_features, Catalog, DeltaCatalogCounts, FeatureSet, Threading};
use social_align::prelude::*;

#[test]
fn anchor_features_depend_only_on_the_training_subset() {
    let world = datagen::generate(&datagen::presets::tiny(5));
    let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
    let catalog = Catalog::new(FeatureSet::Full);

    let features_for = |anchors: &[hetnet::AnchorLink]| {
        let amat = anchor_matrix(world.left().n_users(), world.right().n_users(), anchors).unwrap();
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

    let train: Vec<_> = world.truth().links()[..8].to_vec();
    let with_train = features_for(&train);
    let with_truth = features_for(world.truth().links());

    // Using all ground-truth anchors must change the social features —
    // if it did not, the no-leakage guarantee would be vacuous.
    assert!(
        with_train.x.max_abs_diff(&with_truth.x) > 1e-9,
        "training-anchor features suspiciously identical to truth-anchor features"
    );
}

#[test]
fn empty_anchor_set_zeroes_social_features_only() {
    let world = datagen::generate(&datagen::presets::tiny(5));
    let candidates: Vec<_> = world.truth().iter().map(|a| (a.left, a.right)).collect();
    let catalog = Catalog::new(FeatureSet::Full);
    let amat = anchor_matrix(world.left().n_users(), world.right().n_users(), &[]).unwrap();
    let store = DeltaCatalogCounts::build(
        world.left(),
        world.right(),
        amat,
        &catalog,
        Threading::Serial,
    )
    .unwrap();
    let fm = extract_features(&store, &catalog, &candidates, Threading::Serial);

    for (col, entry) in catalog.entries().iter().enumerate() {
        let covering = entry.diagram.covering_set();
        let uses_anchor = !covering.social_paths().is_empty();
        let col_sum: f64 = (0..fm.n_rows()).map(|r| fm.x[(r, col)]).sum();
        if uses_anchor {
            assert_eq!(
                col_sum, 0.0,
                "{} uses anchors and must vanish without them",
                entry.name
            );
        }
    }
    // The attribute-only features (P5, P6, Ψ2) still carry signal.
    let p5_col = catalog.names().iter().position(|&n| n == "P5").unwrap();
    let p5_sum: f64 = (0..fm.n_rows()).map(|r| fm.x[(r, p5_col)]).sum();
    assert!(
        p5_sum > 0.0,
        "attribute features must survive without anchors"
    );
}

#[test]
fn fold_harness_uses_gamma_sampled_anchor_count() {
    // The harness reports how many training positives were used; verify the
    // γ sub-sampling is actually applied to the anchor matrix inputs.
    let world = datagen::generate(&datagen::presets::tiny(5));
    let spec_full = ExperimentSpec {
        np_ratio: 4,
        sample_ratio: 1.0,
        n_folds: 5,
        rotations: 1,
        seed: 3,
        threads: 0,
    };
    let spec_half = ExperimentSpec {
        sample_ratio: 0.5,
        ..spec_full.clone()
    };
    let ls = LinkSet::build(&world, 4, 5, 3);
    let full = eval::run_fold(&world, &ls, &spec_full, Method::IterMpmd, 0);
    let half = eval::run_fold(&world, &ls, &spec_half, Method::IterMpmd, 0);
    assert!(half.n_train_pos < full.n_train_pos);
    assert!(half.n_train_pos >= 1);
}
