//! Incrementally maintained row/column margin sums.
//!
//! The Dice-style proximity normalization (paper Definition 6) divides every
//! count by `row_sum + col_sum`; a full rescan of a count matrix to rebuild
//! those denominators costs `O(nnz)` per update, which dominates the
//! per-round cost of the active-learning loop once counting itself is
//! incremental. [`MarginSums`] keeps both margins as first-class artifacts
//! that a low-rank count update maintains in `O(nnz(Δ))`:
//!
//! [`MarginSums::accumulate`] folds in the margins of an additive delta
//! matrix: the `L·ΔA·R` of an anchor update, or a stack's increment `ΔC∘B`
//! (its moving part's increment times its fixed parts). Counts only grow,
//! so the delta's entries are exactly what [`CsrMatrix::splice_add`] adds
//! to the count, and nothing has to be taken back.
//!
//! **Exactness.** All counts this library manipulates are small positive
//! integers stored in `f64`, so every margin is an exact integer and the
//! incremental additions are bit-equal to a full rescan as long as every
//! intermediate stays below `2^53` (far above any realistic instance
//! count). Property tests in `metadiagram` pin the equality.
//!
//! Margins are persisted alongside their matrix by the snapshot codec
//! ([`crate::codec::encode_margins`] / [`crate::codec::decode_margins`]);
//! on open, [`MarginSums::matches`] doubles as the cross-section
//! integrity check — stored margins that do not equal a rescan of the
//! decoded counts refuse the snapshot, because a drifted Dice
//! denominator would silently skew every downstream proximity.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};

/// The row and column sums of a sparse matrix, maintained incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginSums {
    row: Vec<f64>,
    col: Vec<f64>,
}

impl MarginSums {
    /// Computes both margins of `m` by a full scan (`O(nnz)`), the one
    /// mandatory rescan a maintained matrix ever pays.
    pub fn of(m: &CsrMatrix) -> Self {
        MarginSums {
            row: m.row_sums(),
            col: m.col_sums(),
        }
    }

    /// Reassembles margins from their raw arrays — the decode half of
    /// [`crate::codec::encode_margins`]. The caller asserts the arrays
    /// really are the margins of some matrix; [`MarginSums::matches`] is
    /// the cross-check (the snapshot layer runs it against every decoded
    /// count matrix before trusting either).
    pub fn from_parts(row: Vec<f64>, col: Vec<f64>) -> Self {
        MarginSums { row, col }
    }

    /// The shape these margins describe.
    pub fn shape(&self) -> (usize, usize) {
        (self.row.len(), self.col.len())
    }

    /// Sum of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> f64 {
        self.row[i]
    }

    /// Sum of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> f64 {
        self.col[j]
    }

    /// All row sums.
    pub fn rows(&self) -> &[f64] {
        &self.row
    }

    /// All column sums.
    pub fn cols(&self) -> &[f64] {
        &self.col
    }

    /// Folds in the margins of an additive update: after `C += delta`,
    /// `MarginSums::of(&C)` equals the accumulated sums bit-for-bit (exact
    /// integer arithmetic). Cost `O(nnz(delta) + delta.nrows())`.
    ///
    /// # Errors
    /// [`SparseError::DimMismatch`] when `delta`'s shape differs from the
    /// maintained shape (nothing is modified).
    pub fn accumulate(&mut self, delta: &CsrMatrix) -> Result<()> {
        if delta.shape() != self.shape() {
            return Err(SparseError::DimMismatch {
                op: "margin accumulate",
                lhs: self.shape(),
                rhs: delta.shape(),
            });
        }
        for i in 0..delta.nrows() {
            let mut row_delta = 0.0;
            for (j, v) in delta.row(i) {
                row_delta += v;
                self.col[j] += v;
            }
            self.row[i] += row_delta;
        }
        Ok(())
    }

    /// True when these margins equal a full rescan of `m` bit-for-bit —
    /// the invariant every incremental maintenance path must preserve.
    pub fn matches(&self, m: &CsrMatrix) -> bool {
        m.shape() == self.shape() && m.row_sums() == self.row && m.col_sums() == self.col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_dense(
            3,
            4,
            &[1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0, 4.0, 0.0, 0.0, 5.0],
        )
    }

    #[test]
    fn of_matches_direct_sums() {
        let m = sample();
        let s = MarginSums::of(&m);
        assert_eq!(s.rows(), m.row_sums().as_slice());
        assert_eq!(s.cols(), m.col_sums().as_slice());
        assert_eq!(s.shape(), m.shape());
        assert_eq!(s.row(2), 9.0);
        assert_eq!(s.col(0), 5.0);
        assert!(s.matches(&m));
    }

    #[test]
    fn accumulate_tracks_an_additive_update() {
        let m = sample();
        let delta = CsrMatrix::from_dense(
            3,
            4,
            &[0.0, 7.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
        );
        let mut s = MarginSums::of(&m);
        s.accumulate(&delta).unwrap();
        let merged = m.add(&delta).unwrap();
        assert!(s.matches(&merged));
    }

    #[test]
    fn accumulate_rejects_shape_mismatch() {
        let mut s = MarginSums::of(&sample());
        let before = s.clone();
        assert!(s.accumulate(&CsrMatrix::zeros(2, 4)).is_err());
        assert_eq!(s, before, "failed accumulate must not mutate");
    }

    #[test]
    fn matches_detects_drift() {
        let m = sample();
        let mut s = MarginSums::of(&m);
        s.row[0] += 1.0;
        assert!(!s.matches(&m));
    }
}
