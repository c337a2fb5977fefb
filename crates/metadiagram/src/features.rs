//! Feature-matrix extraction for candidate anchor links.
//!
//! For every catalog entry, a [`DeltaCatalogCounts`] store holds the
//! instance count matrix and its maintained row/column margins;
//! [`crate::proximity::dice_at`] reads each candidate's Dice proximity
//! straight from them into a dense row — one row per candidate anchor
//! link, one column per meta diagram. This matrix (plus a bias column
//! added by the model layer) is the `X` of the paper's joint objective.
//! No proximity matrix is materialized.
//!
//! The store's build already fans the catalog count out over its node
//! DAG (a stack depends on exactly its parts); extraction
//! adds the **candidate fan-out**: the gather is split over contiguous
//! candidate batches by a [`Threading`] knob, bit-identical to the serial
//! path.

use crate::catalog::Catalog;
use crate::delta::DeltaCatalogCounts;
use crate::proximity::dice_at;
use hetnet::UserId;
use sparsela::{DenseMatrix, Threading};

/// The extracted feature matrix with column names.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    /// `candidates.len() × catalog.len()` dense matrix of proximities.
    pub x: DenseMatrix,
    /// Column names, aligned with `x`'s columns.
    pub names: Vec<String>,
}

impl FeatureMatrix {
    /// Number of candidate rows.
    pub fn n_rows(&self) -> usize {
        self.x.nrows()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.x.ncols()
    }
}

/// Extracts the dense `candidates × catalog` feature matrix from `store`,
/// which must count `catalog`.
///
/// Candidates are `(left user, right user)` pairs; rows follow their order.
/// Every cell is [`dice_at`] over the feature's count matrix and its
/// maintained margins, so the result is bit-equal to normalizing a fresh
/// count of the store's anchors. The gather is split over contiguous
/// candidate batches when `threading` allows; each cell is read exactly
/// once whatever the worker count, so results are identical at any
/// setting.
///
/// # Panics
/// When a candidate's user lies outside its network's user range, or when
/// `store` counts fewer features than `catalog` holds.
pub fn extract_features(
    store: &DeltaCatalogCounts,
    catalog: &Catalog,
    candidates: &[(UserId, UserId)],
    threading: Threading,
) -> FeatureMatrix {
    let names: Vec<String> = catalog.names().into_iter().map(String::from).collect();
    let ncols = names.len();
    let cell = |col: usize, l: UserId, r: UserId| {
        dice_at(
            store.catalog_count(col),
            store.catalog_sums(col),
            l.index(),
            r.index(),
        )
    };
    let mut x = DenseMatrix::zeros(candidates.len(), ncols);
    let workers = threading.resolve().min(candidates.len()).max(1);
    if workers <= 1 {
        for col in 0..ncols {
            for (row, &(l, r)) in candidates.iter().enumerate() {
                x[(row, col)] = cell(col, l, r);
            }
        }
    } else {
        // Contiguous candidate batches; each worker fills a private buffer
        // that is copied into the shared matrix after the join.
        let per_worker = candidates.len().div_ceil(workers);
        let cell = &cell;
        let blocks: Vec<(usize, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = candidates
                .chunks(per_worker)
                .enumerate()
                .map(|(block, batch)| {
                    scope.spawn(move || {
                        let mut buf = vec![0f64; batch.len() * ncols];
                        for col in 0..ncols {
                            for (row, &(l, r)) in batch.iter().enumerate() {
                                buf[row * ncols + col] = cell(col, l, r);
                            }
                        }
                        (block * per_worker, buf)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gather worker panicked"))
                .collect()
        });
        for (first_row, buf) in blocks {
            for (i, row_buf) in buf.chunks(ncols).enumerate() {
                x.row_mut(first_row + i).copy_from_slice(row_buf);
            }
        }
    }
    FeatureMatrix { x, names }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::catalog::FeatureSet;
    use crate::proximity::dice_proximity;
    use datagen::presets;
    use hetnet::aligned::anchor_matrix;
    use sparsela::CsrMatrix;

    fn setup() -> (datagen::GeneratedWorld, CsrMatrix) {
        let w = datagen::generate(&presets::tiny(21));
        // Use the first half of the anchors as "training" anchors.
        let train: Vec<_> = w.truth().links()[..15].to_vec();
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
        (w, a)
    }

    fn store(
        w: &datagen::GeneratedWorld,
        a: &CsrMatrix,
        catalog: &Catalog,
        threading: Threading,
    ) -> DeltaCatalogCounts {
        DeltaCatalogCounts::build(w.left(), w.right(), a.clone(), catalog, threading).unwrap()
    }

    #[test]
    fn feature_matrix_shape_and_names() {
        let (w, a) = setup();
        let catalog = Catalog::new(FeatureSet::Full);
        let counts = store(&w, &a, &catalog, Threading::Serial);
        let candidates: Vec<_> = w
            .truth()
            .iter()
            .map(|l| (l.left, l.right))
            .take(10)
            .collect();
        let fm = extract_features(&counts, &catalog, &candidates, Threading::Serial);
        assert_eq!(fm.n_rows(), 10);
        assert_eq!(fm.n_features(), 31);
        assert_eq!(fm.names.len(), 31);
        // Every value is a valid Dice proximity.
        for v in fm.x.data() {
            assert!((0.0..=1.0).contains(v), "proximity {v} out of range");
        }
    }

    #[test]
    fn true_pairs_score_higher_than_mismatched_pairs_on_average() {
        let (w, a) = setup();
        let catalog = Catalog::new(FeatureSet::Full);
        let counts = store(&w, &a, &catalog, Threading::Serial);

        // Held-out true pairs vs deliberately shifted (wrong) pairs.
        let held_out: Vec<_> = w.truth().links()[15..].to_vec();
        let true_cands: Vec<_> = held_out.iter().map(|l| (l.left, l.right)).collect();
        let wrong_cands: Vec<_> = held_out
            .iter()
            .zip(held_out.iter().cycle().skip(1))
            .map(|(a, b)| (a.left, b.right))
            .collect();

        let ft = extract_features(&counts, &catalog, &true_cands, Threading::Serial);
        let fw = extract_features(&counts, &catalog, &wrong_cands, Threading::Serial);
        let mean = |m: &DenseMatrix| m.data().iter().sum::<f64>() / m.data().len() as f64;
        assert!(
            mean(&ft.x) > mean(&fw.x),
            "true pairs {:.4} should outscore wrong pairs {:.4}",
            mean(&ft.x),
            mean(&fw.x)
        );
    }

    #[test]
    fn plan_order_equals_naive_order_in_results() {
        // Extraction must be independent of evaluation order: the store
        // counts its deduplicated nodes over their DAG, the reference
        // enumerates each diagram's instances in catalog order and
        // normalizes the counts in full.
        let (w, a) = setup();
        let catalog = Catalog::new(FeatureSet::Full);
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        let planned = extract_features(
            &store(&w, &a, &catalog, Threading::Serial),
            &catalog,
            &candidates,
            Threading::Serial,
        );

        let train = &w.truth().links()[..15];
        let mut x = DenseMatrix::zeros(candidates.len(), catalog.len());
        for (col, e) in catalog.entries().iter().enumerate() {
            let counts = bruteforce::diagram_counts(w.left(), w.right(), train, &e.diagram);
            let (n1, n2) = (counts.nrows(), counts.ncols());
            let prox = dice_proximity(&CsrMatrix::from_dense(n1, n2, counts.data()));
            for (row, &(l, r)) in candidates.iter().enumerate() {
                x[(row, col)] = prox.get(l.index(), r.index());
            }
        }
        assert_eq!(planned.x.data(), x.data());
    }

    #[test]
    fn parallel_extraction_is_bit_equal_to_serial() {
        // The candidate fan-out alone: one serially built store, gathered
        // over contiguous candidate batches.
        let (w, a) = setup();
        let catalog = Catalog::new(FeatureSet::Full);
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        let counts = store(&w, &a, &catalog, Threading::Serial);
        let serial = extract_features(&counts, &catalog, &candidates, Threading::Serial);

        for threads in [2usize, 3, 8] {
            let par = extract_features(&counts, &catalog, &candidates, Threading::Threads(threads));
            assert_eq!(par.names, serial.names);
            assert_eq!(
                par.x.data(),
                serial.x.data(),
                "parallel ({threads} threads) diverged from serial"
            );
        }
    }

    #[test]
    fn dag_schedule_is_bit_equal_to_serial_at_any_worker_count() {
        // The diagram fan-out alone: stores counted over their node DAG
        // at several worker counts, gathered serially.
        let (w, a) = setup();
        let catalog = Catalog::new(FeatureSet::Full);
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        let serial = extract_features(
            &store(&w, &a, &catalog, Threading::Serial),
            &catalog,
            &candidates,
            Threading::Serial,
        );
        for threads in [1usize, 2, 8] {
            let counts = store(&w, &a, &catalog, Threading::Threads(threads));
            let got = extract_features(&counts, &catalog, &candidates, Threading::Serial);
            assert_eq!(
                got.x.data(),
                serial.x.data(),
                "DAG at {threads} threads diverged"
            );
        }
    }

    #[test]
    fn empty_candidates_yield_empty_matrix() {
        let (w, a) = setup();
        let catalog = Catalog::new(FeatureSet::MetaPathsOnly);
        let counts = store(&w, &a, &catalog, Threading::Serial);
        let fm = extract_features(&counts, &catalog, &[], Threading::Serial);
        assert_eq!(fm.n_rows(), 0);
        assert_eq!(fm.n_features(), 6);
    }
}
