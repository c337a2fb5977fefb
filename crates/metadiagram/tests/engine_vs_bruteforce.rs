//! The central correctness property of the reproduction: the production
//! count — the store build, [`DeltaCatalogCounts::catalog_count`] — is
//! exactly what an exhaustive enumerator finds, for every diagram in the
//! full catalog, on randomized small worlds — and Lemma 1's sound
//! direction holds structurally.

use datagen::presets;
use hetnet::aligned::anchor_matrix;
use hetnet::{AnchorLink, HetNet};
use metadiagram::bruteforce;
use metadiagram::{Catalog, DeltaCatalogCounts, Diagram, FeatureSet, Threading};
use proptest::prelude::*;
use sparsela::CsrMatrix;

fn world_and_anchors(
    seed: u64,
    n_train: usize,
) -> (datagen::GeneratedWorld, Vec<hetnet::AnchorLink>) {
    let w = datagen::generate(&presets::tiny(seed));
    let n = n_train.min(w.truth().len());
    let train: Vec<_> = w.truth().links()[..n].to_vec();
    (w, train)
}

/// The store counting `set` over `train`, with its catalog. It counts over
/// clones of the networks, so every count it holds is its own, checked
/// against the enumeration rather than taken from an earlier build.
fn counted(
    left: &HetNet,
    right: &HetNet,
    train: &[AnchorLink],
    set: FeatureSet,
) -> (DeltaCatalogCounts, Catalog) {
    let (left, right) = (&left.clone(), &right.clone());
    let a = anchor_matrix(left.n_users(), right.n_users(), train).unwrap();
    let catalog = Catalog::new(set);
    let store = DeltaCatalogCounts::build(left, right, a, &catalog, Threading::Serial).unwrap();
    (store, catalog)
}

/// The store's count of the catalog entry `d`.
fn count_of<'s>(store: &'s DeltaCatalogCounts, catalog: &Catalog, d: &Diagram) -> &'s CsrMatrix {
    let pos = catalog
        .entries()
        .iter()
        .position(|e| &e.diagram == d)
        .unwrap();
    store.catalog_count(pos)
}

proptest! {
    // Tiny worlds are still a few thousand node pairs; keep case counts sane.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The store's count == brute force for every entry in the full
    /// 31-feature catalog.
    #[test]
    fn engine_matches_bruteforce_on_full_catalog(seed in 0u64..500, n_train in 1usize..30) {
        let (w, train) = world_and_anchors(seed, n_train);
        let (store, catalog) = counted(w.left(), w.right(), &train, FeatureSet::Full);
        for (i, entry) in catalog.entries().iter().enumerate() {
            let fast = store.catalog_count(i).to_dense();
            let slow = bruteforce::diagram_counts(w.left(), w.right(), &train, &entry.diagram);
            prop_assert!(
                fast.max_abs_diff(&slow) < 1e-9,
                "mismatch on {} (seed {seed}, train {n_train})",
                entry.name
            );
        }
    }

    /// Lemma 1, sound direction: a pair connected by a diagram instance is
    /// connected by instances of every covering path.
    #[test]
    fn lemma1_projection(seed in 0u64..500) {
        let (w, train) = world_and_anchors(seed, 12);
        let (store, catalog) = counted(w.left(), w.right(), &train, FeatureSet::Full);
        for (i, entry) in catalog.entries().iter().enumerate() {
            let c = store.catalog_count(i);
            let covering = entry.diagram.covering_set();
            let mut path_counts = Vec::new();
            for p in covering.social_paths() {
                path_counts.push(count_of(&store, &catalog, &Diagram::Social(p)));
            }
            for p in covering.attr_paths() {
                path_counts.push(count_of(&store, &catalog, &Diagram::Attr(p)));
            }
            for (i, j, v) in c.iter() {
                if v > 0.0 {
                    for pc in &path_counts {
                        prop_assert!(
                            pc.get(i, j) > 0.0,
                            "{}: pair ({i},{j}) connected by diagram but not by a covering path",
                            entry.name
                        );
                    }
                }
            }
        }
    }

    /// Lemma 1, full equivalence for endpoint stackings: connectivity of the
    /// stack equals the conjunction of branch connectivities.
    #[test]
    fn lemma1_iff_for_endpoint_stackings(seed in 0u64..500) {
        let (w, train) = world_and_anchors(seed, 12);
        let (store, catalog) = counted(w.left(), w.right(), &train, FeatureSet::Full);
        let p1 = count_of(&store, &catalog, &Diagram::Social(metadiagram::SocialPathId::P1));
        let p5 = count_of(&store, &catalog, &Diagram::Attr(metadiagram::AttrPathId::Timestamp));
        let stack = count_of(&store, &catalog, &Diagram::Stack(vec![
            Diagram::Social(metadiagram::SocialPathId::P1),
            Diagram::Attr(metadiagram::AttrPathId::Timestamp),
        ]));
        for i in 0..w.left().n_users() {
            for j in 0..w.right().n_users() {
                let both = p1.get(i, j) > 0.0 && p5.get(i, j) > 0.0;
                prop_assert_eq!(stack.get(i, j) > 0.0, both);
            }
        }
    }
}

/// The paper's own dislocation example (§III-B.2), verbatim: two users whose
/// check-in records visit the same places and the same moments but never
/// together. P5 and P6 see strong signal; Ψ2 sees none.
#[test]
fn dislocation_example_from_paper() {
    use hetnet::{HetNetBuilder, LocationId, TimestampId, UserId};
    // Locations: 0=Chicago, 1=New York, 2=Los Angeles.
    // Timestamps: 0=Aug'16, 1=Jan'17, 2=May'17.
    let mut l = HetNetBuilder::new("twitter", 1, 3, 3);
    for (loc, ts) in [(0u32, 0u32), (1, 1), (2, 2)] {
        let p = l.add_post(UserId(0)).unwrap();
        l.add_checkin(p, LocationId(loc)).unwrap();
        l.add_at(p, TimestampId(ts)).unwrap();
    }
    let left = l.build();

    let mut r = HetNetBuilder::new("foursquare", 1, 3, 3);
    for (loc, ts) in [(2u32, 0u32), (0, 1), (1, 2)] {
        let p = r.add_post(UserId(0)).unwrap();
        r.add_checkin(p, LocationId(loc)).unwrap();
        r.add_at(p, TimestampId(ts)).unwrap();
    }
    let right = r.build();

    let (store, catalog) = counted(&left, &right, &[], FeatureSet::PathsAndAttrDiagram);
    let p5 = count_of(
        &store,
        &catalog,
        &Diagram::Attr(metadiagram::AttrPathId::Timestamp),
    );
    let p6 = count_of(
        &store,
        &catalog,
        &Diagram::Attr(metadiagram::AttrPathId::Location),
    );
    let psi2 = count_of(&store, &catalog, &Diagram::psi2());
    assert_eq!(p5.get(0, 0), 3.0, "three same-time coincidences");
    assert_eq!(p6.get(0, 0), 3.0, "three same-place coincidences");
    assert_eq!(
        psi2.get(0, 0),
        0.0,
        "but never the same place at the same time"
    );
}
