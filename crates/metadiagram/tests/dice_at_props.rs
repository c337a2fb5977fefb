//! Property tests for reading Dice proximities straight from counts:
//! [`dice_at`] over a store's count matrices and their incrementally
//! maintained margins must have the same bits as the full
//! [`dice_proximity`] pass at every cell, after every update — across
//! random `ΔA` batch shapes (truth links, arbitrary pairs, duplicates),
//! build thread counts, and catalog slices (paths only, social
//! stackings, attribute diagram, the full 31-feature catalog).

use hetnet::aligned::anchor_matrix;
use hetnet::{AnchorLink, UserId};
use metadiagram::{dice_at, dice_proximity, Catalog, DeltaCatalogCounts, FeatureSet, Threading};
use proptest::prelude::*;

fn world(seed: u64) -> datagen::GeneratedWorld {
    datagen::generate(&datagen::presets::tiny(seed))
}

/// Random anchor batches: a mix of held-out ground-truth links and
/// arbitrary user pairs, duplicates allowed on purpose (the counting
/// algebra does not require anchors to be true or one-to-one).
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    proptest::collection::vec(proptest::collection::vec((0u32..38, 0u32..40), 1..8), 1..4)
}

fn feature_set(pick: u8) -> FeatureSet {
    match pick % 4 {
        0 => FeatureSet::MetaPathsOnly,
        1 => FeatureSet::PathsAndSocialDiagrams,
        2 => FeatureSet::PathsAndAttrDiagram,
        _ => FeatureSet::Full,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dice_at_over_maintained_margins_is_bit_equal_to_full(
        seed in 0u64..3,
        initial_k in 1usize..20,
        set_pick in 0u8..4,
        batches in batches_strategy(),
        threads in 1usize..4
    ) {
        let w = world(13 + seed * 5);
        let initial: Vec<AnchorLink> = w.truth().links()[..initial_k].to_vec();
        let base = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
        let catalog = Catalog::new(feature_set(set_pick));
        let mut store = DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            base,
            &catalog,
            Threading::Threads(threads),
        )
        .unwrap();

        for batch in &batches {
            let links: Vec<AnchorLink> = batch
                .iter()
                .map(|&(l, r)| AnchorLink::new(UserId(l), UserId(r)))
                .collect();
            store.update_anchors(&links).unwrap();
            // Every cell of every catalog entry — changed by this batch or
            // not, stored or structurally zero — reads the full
            // re-normalization's bits.
            for (i, entry) in catalog.entries().iter().enumerate() {
                let count = store.catalog_count(i);
                let sums = store.catalog_sums(i);
                let full = dice_proximity(count);
                let (nrows, ncols) = count.shape();
                for l in 0..nrows {
                    for r in 0..ncols {
                        prop_assert_eq!(
                            dice_at(count, sums, l, r).to_bits(),
                            full.get(l, r).to_bits(),
                            "{} at ({}, {}) diverged after {} batches",
                            &entry.name,
                            l,
                            r,
                            batches.len()
                        );
                    }
                }
            }
        }
        prop_assert_eq!(store.stats().full_counts, 1);
    }
}
