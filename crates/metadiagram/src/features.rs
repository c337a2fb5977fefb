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
//! The store's build already splits the catalog count into row blocks;
//! extraction adds the **candidate fan-out**: the gather is split over
//! contiguous candidate batches by a [`Threading`] knob
//! ([`sparsela::fan_out`]), bit-identical to the serial path.

use crate::catalog::Catalog;
use crate::delta::DeltaCatalogCounts;
use crate::proximity::dice_at;
use hetnet::UserId;
use sparsela::{fan_out, DenseMatrix, Threading};

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
    // Contiguous candidate batches, each gathered into a row-major buffer.
    // The first batch's buffer has room for every row, so the later
    // batches are appended to it, and a single batch is the matrix as is.
    let per_batch = candidates.len().div_ceil(threading.resolve()).max(1);
    let batches = (0..candidates.len())
        .step_by(per_batch)
        .map(|first| first..(first + per_batch).min(candidates.len()))
        .collect();
    let blocks = fan_out(batches, |rows| {
        let room = if rows.start == 0 {
            candidates.len()
        } else {
            rows.len()
        };
        let mut buf = Vec::with_capacity(room * ncols);
        buf.resize(rows.len() * ncols, 0.0);
        for col in 0..ncols {
            for (row, &(l, r)) in candidates[rows.clone()].iter().enumerate() {
                buf[row * ncols + col] = cell(col, l, r);
            }
        }
        buf
    });
    let data = blocks
        .into_iter()
        .reduce(|mut data, block| {
            data.extend_from_slice(&block);
            data
        })
        .unwrap_or_default();
    let x = DenseMatrix::from_rows(candidates.len(), ncols, data);
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
        // counts its deduplicated nodes by row blocks, the reference
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
        // The count's row blocks alone: stores counted at several block
        // counts, gathered serially.
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
                "count at {threads} blocks diverged"
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
