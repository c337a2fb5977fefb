//! Property tests for the incremental anchor-update path: applying random
//! `ΔA` batches through [`DeltaCatalogCounts::update_anchors`] must be
//! **bit-equal** to a full recount from the merged anchor set — across
//! random batch shapes (truth links, arbitrary pairs, duplicates), build
//! thread counts, and every path template P1–P6 plus all stacked families
//! of the full 31-feature catalog.

use hetnet::aligned::anchor_matrix;
use hetnet::{AnchorLink, UserId};
use metadiagram::{Catalog, DeltaCatalogCounts, Diagram, FeatureSet, Threading};
use proptest::prelude::*;

fn world(seed: u64) -> datagen::GeneratedWorld {
    datagen::generate(&datagen::presets::tiny(seed))
}

/// The oracle: a fresh full count of `catalog` over `anchors`. It counts
/// over clones of the networks, so it shares no factor chain or count
/// with the store under test.
fn fresh_count(
    w: &datagen::GeneratedWorld,
    anchors: &[AnchorLink],
    catalog: &Catalog,
) -> DeltaCatalogCounts {
    let (left, right) = (w.left().clone(), w.right().clone());
    let a = anchor_matrix(left.n_users(), right.n_users(), anchors).unwrap();
    DeltaCatalogCounts::build(&left, &right, a, catalog, Threading::Serial).unwrap()
}

/// Random anchor batches: a mix of held-out ground-truth links and
/// arbitrary user pairs (the counting algebra does not require anchors to
/// be true or one-to-one), with duplicates allowed on purpose.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    proptest::collection::vec(proptest::collection::vec((0u32..38, 0u32..40), 1..8), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn update_anchors_is_bit_equal_to_full_recount(
        seed in 0u64..3,
        initial_k in 1usize..20,
        batches in batches_strategy(),
        threads in 1usize..4
    ) {
        let w = world(11 + seed * 7);
        let initial: Vec<AnchorLink> = w.truth().links()[..initial_k].to_vec();
        let base = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let mut store = DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            base,
            &catalog,
            Threading::Threads(threads),
        )
        .unwrap();

        // Drive the incremental path batch by batch.
        let mut merged = initial.clone();
        for batch in &batches {
            let links: Vec<AnchorLink> = batch
                .iter()
                .map(|&(l, r)| AnchorLink::new(UserId(l), UserId(r)))
                .collect();
            store.update_anchors(&links).unwrap();
            merged.extend(links);
        }

        // Reference: a fresh full count over the merged anchor matrix. The
        // merged list may contain duplicates; anchor_matrix binarizes.
        let fresh = fresh_count(&w, &merged, &catalog);
        for (i, entry) in catalog.entries().iter().enumerate() {
            prop_assert_eq!(
                store.catalog_count(i),
                fresh.catalog_count(i),
                "template {} diverged after {} batches",
                &entry.name,
                batches.len()
            );
        }
        // The store never fell back to full counting.
        prop_assert_eq!(store.stats().full_counts, 1);
    }

    /// End-to-end region soundness: after every random batch, each
    /// changed entry's reported [`metadiagram::TouchedRegion`] covers every
    /// row that actually changed and every column whose sum moved, and the
    /// store stays bit-equal to a fresh count over the merged anchors.
    /// Stack regions are also exact: every reported row holds a changed
    /// cell and every reported column's sum moved.
    #[test]
    fn touched_regions_are_sound_and_counts_match_a_fresh_count(
        seed in 0u64..3,
        initial_k in 1usize..20,
        batches in batches_strategy(),
    ) {
        let w = world(29 + seed * 5);
        let initial: Vec<AnchorLink> = w.truth().links()[..initial_k].to_vec();
        let base = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let mut store = DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            base,
            &catalog,
            Threading::Serial,
        )
        .unwrap();

        let mut merged = initial;
        for batch in &batches {
            let links: Vec<AnchorLink> = batch
                .iter()
                .map(|&(l, r)| AnchorLink::new(UserId(l), UserId(r)))
                .collect();
            let before: Vec<_> = (0..store.len())
                .map(|i| store.catalog_count(i).clone())
                .collect();
            let outcome = store.update_anchors(&links).unwrap();
            merged.extend(links);

            for chg in &outcome.changed {
                let region = chg.touched.as_ref().unwrap();
                let (old, new) = (&before[chg.catalog_pos], store.catalog_count(chg.catalog_pos));
                for i in 0..new.nrows() {
                    if region.rows.binary_search(&i).is_err() {
                        let old_row: Vec<_> = old.row(i).collect();
                        let new_row: Vec<_> = new.row(i).collect();
                        prop_assert_eq!(old_row, new_row, "row {} escaped the region", i);
                    }
                }
                let (old_cols, new_cols) = (old.col_sums(), new.col_sums());
                for j in 0..new.ncols() {
                    if region.cols.binary_search(&j).is_err() {
                        prop_assert_eq!(
                            old_cols[j],
                            new_cols[j],
                            "col {} sum escaped the region",
                            j
                        );
                    }
                }
                let entry = &catalog.entries()[chg.catalog_pos];
                if matches!(entry.diagram, Diagram::Stack(_)) {
                    for &i in &region.rows {
                        let old_row: Vec<_> = old.row(i).collect();
                        let new_row: Vec<_> = new.row(i).collect();
                        prop_assert!(
                            old_row != new_row,
                            "{} reports unchanged row {}",
                            &entry.name,
                            i
                        );
                    }
                    for &j in &region.cols {
                        prop_assert!(
                            old_cols[j] != new_cols[j],
                            "{} reports col {} whose sum did not move",
                            &entry.name,
                            j
                        );
                    }
                }
            }
            // The oracle: a fresh full count over the merged anchors.
            let fresh = fresh_count(&w, &merged, &catalog);
            for i in 0..catalog.len() {
                prop_assert_eq!(store.catalog_count(i), fresh.catalog_count(i));
            }
        }
    }
}
