//! Compressed sparse row matrices.
//!
//! The workhorse representation of the meta-path count engine: every typed
//! adjacency matrix and every path/diagram count matrix is a [`CsrMatrix`].
//! Column indices are kept sorted within each row, which the merge-based
//! operations ([`CsrMatrix::hadamard`], [`CsrMatrix::add`]) rely on.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};

/// An immutable sparse matrix in CSR format with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix after validating all structural invariants:
    /// `indptr` monotone with `indptr[0] == 0` and
    /// `indptr[nrows] == indices.len() == values.len()`, and column indices
    /// strictly increasing within each row (sorted, no duplicates) and within
    /// bounds.
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::InvalidStructure("indptr[0] != 0".into()));
        }
        // srclint: allow(panic_in_lib, reason = "indptr.len() == nrows + 1 >= 1 was validated two checks above")
        if *indptr.last().unwrap() != indices.len() || indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indptr end {} vs indices {} vs values {}",
                // srclint: allow(panic_in_lib, reason = "indptr.len() == nrows + 1 >= 1 was validated two checks above")
                indptr.last().unwrap(),
                indices.len(),
                values.len()
            )));
        }
        for r in 0..nrows {
            if indptr[r] > indptr[r + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "indptr not monotone at row {r}"
                )));
            }
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} columns not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= ncols {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} has column {last} >= ncols {ncols}"
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from parts that are already known to satisfy the
    /// invariants (e.g. produced by [`crate::CooMatrix::to_csr`] or by the
    /// kernels in this crate). Invariants are checked in debug builds only.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(
            Self::try_new(
                nrows,
                ncols,
                indptr.clone(),
                indices.clone(),
                values.clone()
            )
            .is_ok(),
            "from_parts_unchecked received malformed CSR parts"
        );
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// The all-zero `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from a dense row-major buffer, skipping zeros.
    ///
    /// # Panics
    /// Panics when `data.len() != nrows * ncols`.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense buffer size mismatch");
        let mut indptr = Vec::with_capacity(nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..nrows {
            for c in 0..ncols {
                let v = data[r * ncols + c];
                // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row-pointer array (length `nrows + 1`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column-index array.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates the `(column, value)` pairs of row `r` in ascending column
    /// order. Empty iterator for out-of-range rows would be a bug, so this
    /// panics instead.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Value at `(r, c)`, `0.0` when not stored. Binary search within the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        match self.indices[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Returns the transpose. O(nnz + nrows + ncols).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut cursor = indptr.clone();
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                let dst = cursor[c];
                indices[dst] = r;
                values[dst] = v;
                cursor[c] += 1;
            }
        }
        // Row indices are appended in increasing order of r, so each
        // transposed row is already sorted.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Adds `delta` into `self` **in place**, rewriting only the rows where
    /// `delta` stores entries. Each touched row is merged into packed
    /// buffers; a merged row is the union of both patterns, so no row gets
    /// shorter, and one right-to-left pass then moves the untouched spans
    /// with bulk copies (`copy_within`) and writes the merged rows into
    /// place. The cost is `O(nnz(touched rows) + nnz(delta))` merge work
    /// plus one move of the storage after the first touched row, not the
    /// full `O(nnz)` rebuild of [`CsrMatrix::add`].
    ///
    /// Precondition: every stored value of `delta` is `> 0`
    /// (debug-asserted), as every count increment `L·ΔA·R` or `ΔC∘B` is.
    /// With `self` positive too, as every count matrix is, no merged entry
    /// cancels, so the result is bit-equal to `self.add(delta)`.
    ///
    /// # Errors
    /// [`SparseError::DimMismatch`] when the shapes differ (`self` is not
    /// modified).
    pub fn splice_add(&mut self, delta: &CsrMatrix) -> Result<()> {
        if delta.shape() != self.shape() {
            return Err(SparseError::DimMismatch {
                op: "splice_add",
                lhs: self.shape(),
                rhs: delta.shape(),
            });
        }
        debug_assert!(
            delta.values.iter().all(|&v| v > 0.0),
            "splice_add needs a strictly positive delta"
        );
        let mut rows = Vec::new();
        let mut lens = Vec::new();
        let mut new_indices = Vec::with_capacity(delta.nnz());
        let mut new_values = Vec::with_capacity(delta.nnz());
        let mut grown = 0usize;
        for r in 0..self.nrows {
            if delta.row_nnz(r) == 0 {
                continue;
            }
            let before = new_indices.len();
            let mut ia = self.row(r).peekable();
            let mut ib = delta.row(r).peekable();
            loop {
                let next = match (ia.peek().copied(), ib.peek().copied()) {
                    (Some((ca, va)), Some((cb, vb))) => match ca.cmp(&cb) {
                        std::cmp::Ordering::Less => ia.next(),
                        std::cmp::Ordering::Greater => ib.next(),
                        std::cmp::Ordering::Equal => {
                            ib.next();
                            ia.next().map(|_| (ca, va + vb))
                        }
                    },
                    (Some(_), None) => ia.next(),
                    (None, _) => ib.next(),
                };
                let Some((c, v)) = next else {
                    break;
                };
                new_indices.push(c);
                new_values.push(v);
            }
            let len = new_indices.len() - before;
            grown += len - self.row_nnz(r);
            rows.push(r);
            lens.push(len);
        }
        // Right to left, so every read stays ahead of the writes. Each
        // step moves the untouched span after touched row `r` by the
        // growth of `r` and of the touched rows before it, shifts that
        // span's row starts, and writes row `r` just before it.
        let old_total = self.indices.len();
        let new_total = old_total + grown;
        self.indices.resize(new_total, 0);
        self.values.resize(new_total, 0.0);
        let mut read_end = old_total;
        let mut write_end = new_total;
        let mut packed_end = new_indices.len();
        let mut next_row = self.nrows;
        for (&r, &len) in rows.iter().zip(&lens).rev() {
            let seg_start = self.indptr[r + 1];
            let shift = write_end - read_end;
            if shift > 0 {
                self.indices
                    .copy_within(seg_start..read_end, seg_start + shift);
                self.values
                    .copy_within(seg_start..read_end, seg_start + shift);
                for start in &mut self.indptr[r + 1..=next_row] {
                    *start += shift;
                }
            }
            write_end = seg_start + shift - len;
            self.indices[write_end..write_end + len]
                .copy_from_slice(&new_indices[packed_end - len..packed_end]);
            self.values[write_end..write_end + len]
                .copy_from_slice(&new_values[packed_end - len..packed_end]);
            packed_end -= len;
            read_end = self.indptr[r];
            next_row = r;
        }
        debug_assert_eq!(write_end, read_end);
        debug_assert!(
            Self::try_new(
                self.nrows,
                self.ncols,
                self.indptr.clone(),
                self.indices.clone(),
                self.values.clone()
            )
            .is_ok(),
            "splice_add produced malformed CSR"
        );
        Ok(())
    }

    /// Converts to a dense matrix (tests and small problems only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Sum of each row; length `nrows`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Sum of each column; length `ncols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0f64; self.ncols];
        for (_, c, v) in self.iter() {
            sums[c] += v;
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_dense(3, 3, &[1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0])
    }

    #[test]
    fn try_new_validates_structure() {
        assert!(CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // indptr wrong length
        assert!(CsrMatrix::try_new(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // indptr not starting at zero
        assert!(CsrMatrix::try_new(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // non-monotone indptr
        assert!(CsrMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // duplicate column in a row
        assert!(CsrMatrix::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // unsorted columns in a row
        assert!(CsrMatrix::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // value/index length mismatch
        assert!(CsrMatrix::try_new(1, 2, vec![0, 1], vec![0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn get_and_row_access() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row_nnz(2), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let m = CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, 3.0, 4.0]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(1, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        assert_eq!(t.get(2, 1), 4.0);
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        let z = CsrMatrix::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.shape(), (2, 5));
    }

    #[test]
    fn sums_and_total() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(3, 3, d.data());
        assert_eq!(back, m);
    }

    #[test]
    fn splice_add_growth_matches_add() {
        // Rows 0 and 2 gain entries, and the empty row 1 gains one.
        let base = sample();
        let delta = CsrMatrix::from_dense(3, 3, &[0.0, 5.0, 0.0, 7.0, 0.0, 0.0, 0.0, 0.0, 6.0]);
        let mut spliced = base.clone();
        spliced.splice_add(&delta).unwrap();
        assert_eq!(spliced, base.add(&delta).unwrap());
        assert_eq!(spliced.get(1, 0), 7.0);
    }

    #[test]
    fn splice_add_that_keeps_every_row_length_matches_add() {
        // Values change at stored entries only: no row grows, nothing moves.
        let base = sample();
        let delta = CsrMatrix::from_dense(3, 3, &[2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let mut spliced = base.clone();
        spliced.splice_add(&delta).unwrap();
        assert_eq!(spliced, base.add(&delta).unwrap());
        assert_eq!(spliced.indptr(), base.indptr());
        assert_eq!(spliced.values(), &[3.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn splice_add_empty_delta_is_a_noop() {
        let base = sample();
        let mut spliced = base.clone();
        spliced.splice_add(&CsrMatrix::zeros(3, 3)).unwrap();
        assert_eq!(spliced, base);
    }

    #[test]
    fn splice_add_rejects_shape_mismatch() {
        let base = sample();
        let mut spliced = base.clone();
        assert!(spliced.splice_add(&CsrMatrix::zeros(2, 3)).is_err());
        assert_eq!(spliced, base, "failed splice must not mutate");
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = sample();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(
            triplets,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }
}
