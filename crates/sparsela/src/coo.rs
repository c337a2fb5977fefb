//! Coordinate-format (triplet) matrix builder.
//!
//! The heterogeneous-network layer extracts typed adjacency matrices by
//! streaming edges; COO is the natural accumulation format. Conversion to
//! [`CsrMatrix`] sorts the triplets and folds duplicates by summation, so the
//! same (row, col) pushed twice counts twice — exactly the semantics needed
//! when counting multigraph path instances.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};

/// A growable sparse matrix in coordinate (triplet) format.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` builder.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty builder with room for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates not yet folded).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no triplet has been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends `value` at `(row, col)`. Duplicate coordinates accumulate on
    /// conversion to CSR.
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] when the coordinate falls
    /// outside the declared shape.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                shape: (self.nrows, self.ncols),
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
        Ok(())
    }

    /// Converts to CSR, sorting triplets and summing duplicates.
    ///
    /// Entries that sum to exactly `0.0` are kept (structural zeros are
    /// meaningful to some callers).
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row: O(nnz + nrows), stable within a row by the
        // subsequent per-row sort on column index.
        let nnz = self.vals.len();
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let row_starts = counts.clone();
        let mut cols = vec![0usize; nnz];
        let mut vals = vec![0f64; nnz];
        {
            let mut cursor = row_starts.clone();
            for i in 0..nnz {
                let r = self.rows[i];
                let dst = cursor[r];
                cols[dst] = self.cols[i];
                vals[dst] = self.vals[i];
                cursor[r] += 1;
            }
        }
        // Sort each row segment by column, then fold duplicates.
        let mut out_indptr = Vec::with_capacity(self.nrows + 1);
        let mut out_cols = Vec::with_capacity(nnz);
        let mut out_vals = Vec::with_capacity(nnz);
        out_indptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            let (lo, hi) = (row_starts[r], row_starts[r + 1]);
            scratch.clear();
            scratch.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut iter = scratch.iter().copied();
            if let Some((mut cur_c, mut cur_v)) = iter.next() {
                for (c, v) in iter {
                    if c == cur_c {
                        cur_v += v;
                    } else {
                        out_cols.push(cur_c);
                        out_vals.push(cur_v);
                        cur_c = c;
                        cur_v = v;
                    }
                }
                out_cols.push(cur_c);
                out_vals.push(cur_v);
            }
            out_indptr.push(out_cols.len());
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, out_indptr, out_cols, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_round_trips() {
        let coo = CooMatrix::new(3, 4);
        assert!(coo.is_empty());
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.ncols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn duplicates_fold_by_summation() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(0, 1, 2.5).unwrap();
        coo.push(1, 0, 4.0).unwrap();
        coo.push(0, 2, -1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 1), 3.5);
        assert_eq!(csr.get(0, 2), -1.0);
        assert_eq!(csr.get(1, 0), 4.0);
        assert_eq!(csr.get(1, 2), 0.0);
    }

    #[test]
    fn rows_are_sorted_after_conversion() {
        let mut coo = CooMatrix::new(1, 5);
        for &c in &[4usize, 0, 3, 1] {
            coo.push(0, c, c as f64).unwrap();
        }
        let csr = coo.to_csr();
        let cols: Vec<usize> = csr.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![0, 1, 3, 4]);
    }

    #[test]
    fn unsorted_rows_with_gaps_convert() {
        let mut coo = CooMatrix::new(4, 2);
        coo.push(3, 1, 7.0).unwrap();
        coo.push(1, 0, 5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.row(0).count(), 0);
        assert_eq!(csr.row(2).count(), 0);
        assert_eq!(csr.get(3, 1), 7.0);
        assert_eq!(csr.get(1, 0), 5.0);
    }

    #[test]
    fn with_capacity_reserves() {
        let coo = CooMatrix::with_capacity(2, 2, 16);
        assert_eq!(coo.len(), 0);
        assert_eq!(coo.nrows(), 2);
        assert_eq!(coo.ncols(), 2);
    }
}
