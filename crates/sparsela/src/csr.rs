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

    /// Keeps only entries with `value > 0.0`, dropping explicit zeros and
    /// clamping away negative round-off residue — the invariant repair for
    /// count matrices, whose entries are nonnegative by construction.
    /// Returns `None` when no entry violates the invariant, so callers on a
    /// hot path can skip the rebuild entirely (the scan itself is a cheap
    /// branch-per-entry pass with no allocation).
    pub fn positive_part(&self) -> Option<CsrMatrix> {
        if self.values.iter().all(|&v| v > 0.0) {
            return None;
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for r in 0..self.nrows {
            for (c, v) in self.row(r) {
                if v > 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Some(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Merges `delta` into `self` **in place**, rewriting only the rows
    /// where `delta` stores entries and keeping only strictly positive
    /// merged values. Rows `delta` does not touch are moved wholesale
    /// (bulk `memmove` of the storage tail) instead of being re-walked
    /// entry by entry, so the cost is `O(nnz(touched rows) + nnz(delta))`
    /// merge work plus one splice pass — not the full `O(nnz)` rebuild of
    /// [`CsrMatrix::add`] + [`CsrMatrix::positive_part`].
    ///
    /// Every merged entry the positivity filter drops is reported through
    /// `on_drop(row, col, merged_value)` so a caller maintaining
    /// [`crate::MarginSums`] can repair the margins entry-locally
    /// ([`crate::MarginSums::retract`]) instead of rescanning.
    ///
    /// When `self` satisfies the count-matrix invariant (every stored
    /// value `> 0`), the result is bit-equal to
    /// `self.add(delta)` followed by `positive_part()`: both keep a merged
    /// entry exactly when its value is `> 0.0`. If `self` holds a
    /// non-positive entry in an *untouched* row, that entry is kept here
    /// but would be dropped by `positive_part` — callers outside the
    /// count-matrix invariant should use the rebuild pair instead.
    ///
    /// # Errors
    /// [`SparseError::DimMismatch`] when the shapes differ (`self` is not
    /// modified).
    pub fn splice_add_positive(
        &mut self,
        delta: &CsrMatrix,
        mut on_drop: impl FnMut(usize, usize, f64),
    ) -> Result<()> {
        if delta.shape() != self.shape() {
            return Err(SparseError::DimMismatch {
                op: "splice_add_positive",
                lhs: self.shape(),
                rhs: delta.shape(),
            });
        }
        let mut rows = Vec::new();
        let mut lens = Vec::new();
        let mut new_indices = Vec::with_capacity(delta.nnz());
        let mut new_values = Vec::with_capacity(delta.nnz());
        for r in 0..self.nrows {
            if delta.row_nnz(r) == 0 {
                continue;
            }
            let before = new_indices.len();
            let mut ia = self.row(r).peekable();
            let mut ib = delta.row(r).peekable();
            // Same keep-filter as add + positive_part combined: a merged
            // entry survives iff its value is strictly positive.
            let mut push = |c: usize, v: f64| {
                if v > 0.0 {
                    new_indices.push(c);
                    new_values.push(v);
                } else {
                    on_drop(r, c, v);
                }
            };
            loop {
                match (ia.peek().copied(), ib.peek().copied()) {
                    (Some((ca, va)), Some((cb, vb))) => match ca.cmp(&cb) {
                        std::cmp::Ordering::Less => {
                            push(ca, va);
                            ia.next();
                        }
                        std::cmp::Ordering::Greater => {
                            push(cb, vb);
                            ib.next();
                        }
                        std::cmp::Ordering::Equal => {
                            push(ca, va + vb);
                            ia.next();
                            ib.next();
                        }
                    },
                    (Some((ca, va)), None) => {
                        push(ca, va);
                        ia.next();
                    }
                    (None, Some((cb, vb))) => {
                        push(cb, vb);
                        ib.next();
                    }
                    (None, None) => break,
                }
            }
            rows.push(r);
            lens.push(new_indices.len() - before);
        }
        self.splice_apply(&rows, &lens, &new_indices, &new_values);
        Ok(())
    }

    /// Core of [`CsrMatrix::splice_add_positive`]: replaces the contents of `rows` (strictly
    /// increasing, in range) with the packed rows of `new_indices` /
    /// `new_values` (`lens[k]` entries for `rows[k]`), shifting the
    /// untouched spans with bulk copies. Single-direction in-place moves are
    /// only safe when the cumulative length shift never changes sign — a
    /// right-to-left pass with a shrinking prefix (or vice versa) would
    /// overwrite unread data — so mixed grow/shrink splices fall back to a
    /// rebuild that still bulk-copies every untouched span.
    fn splice_apply(
        &mut self,
        rows: &[usize],
        lens: &[usize],
        new_indices: &[usize],
        new_values: &[f64],
    ) {
        debug_assert_eq!(rows.len(), lens.len());
        debug_assert_eq!(new_indices.len(), new_values.len());
        debug_assert_eq!(new_indices.len(), lens.iter().sum::<usize>());
        if rows.is_empty() {
            return;
        }
        let old_total = self.indices.len();
        // Classify the cumulative shift after each touched row.
        let mut shift = 0isize;
        let mut any_pos = false;
        let mut any_neg = false;
        for (k, &r) in rows.iter().enumerate() {
            shift += lens[k] as isize - self.row_nnz(r) as isize;
            any_pos |= shift > 0;
            any_neg |= shift < 0;
        }
        let new_total = (old_total as isize + shift) as usize;
        if any_pos && any_neg {
            // Mixed grow/shrink: rebuild with wholesale span copies.
            let mut indices = Vec::with_capacity(new_total);
            let mut values = Vec::with_capacity(new_total);
            let mut read = 0usize;
            let mut packed = 0usize;
            for (k, &r) in rows.iter().enumerate() {
                indices.extend_from_slice(&self.indices[read..self.indptr[r]]);
                values.extend_from_slice(&self.values[read..self.indptr[r]]);
                indices.extend_from_slice(&new_indices[packed..packed + lens[k]]);
                values.extend_from_slice(&new_values[packed..packed + lens[k]]);
                packed += lens[k];
                read = self.indptr[r + 1];
            }
            indices.extend_from_slice(&self.indices[read..]);
            values.extend_from_slice(&self.values[read..]);
            self.indices = indices;
            self.values = values;
        } else if any_pos {
            // Every prefix grows (or is even): move right-to-left so reads
            // stay ahead of writes.
            self.indices.resize(new_total, 0);
            self.values.resize(new_total, 0.0);
            let mut read_end = old_total;
            let mut write_end = new_total;
            let mut packed_end = new_indices.len();
            for (k, &r) in rows.iter().enumerate().rev() {
                let seg_start = self.indptr[r + 1];
                let seg_len = read_end - seg_start;
                let dst = write_end - seg_len;
                if seg_len > 0 && dst != seg_start {
                    self.indices.copy_within(seg_start..read_end, dst);
                    self.values.copy_within(seg_start..read_end, dst);
                }
                write_end = dst;
                let len = lens[k];
                self.indices[write_end - len..write_end]
                    .copy_from_slice(&new_indices[packed_end - len..packed_end]);
                self.values[write_end - len..write_end]
                    .copy_from_slice(&new_values[packed_end - len..packed_end]);
                write_end -= len;
                packed_end -= len;
                read_end = self.indptr[r];
            }
            debug_assert_eq!(write_end, read_end);
        } else {
            // Every prefix shrinks (or is even): move left-to-right.
            let mut read = self.indptr[rows[0]];
            let mut write = read;
            let mut packed = 0usize;
            for (k, &r) in rows.iter().enumerate() {
                let gap = self.indptr[r] - read;
                if gap > 0 && write != read {
                    self.indices.copy_within(read..read + gap, write);
                    self.values.copy_within(read..read + gap, write);
                }
                write += gap;
                let len = lens[k];
                self.indices[write..write + len]
                    .copy_from_slice(&new_indices[packed..packed + len]);
                self.values[write..write + len].copy_from_slice(&new_values[packed..packed + len]);
                write += len;
                packed += len;
                read = self.indptr[r + 1];
            }
            let tail = old_total - read;
            if tail > 0 && write != read {
                self.indices.copy_within(read..old_total, write);
                self.values.copy_within(read..old_total, write);
            }
            write += tail;
            debug_assert_eq!(write, new_total);
            self.indices.truncate(new_total);
            self.values.truncate(new_total);
        }
        // Rewrite indptr with the running shift. indptr[r] is read before it
        // is overwritten and indptr[r + 1] is still the old value at that
        // point, so old row lengths stay available throughout the pass.
        let mut shift = 0isize;
        let mut k = 0usize;
        for r in rows[0]..self.nrows {
            let old_start = self.indptr[r];
            let old_len = self.indptr[r + 1] - old_start;
            let new_len = if k < rows.len() && rows[k] == r {
                k += 1;
                lens[k - 1]
            } else {
                old_len
            };
            self.indptr[r] = (old_start as isize + shift) as usize;
            shift += new_len as isize - old_len as isize;
        }
        self.indptr[self.nrows] = new_total;
        debug_assert!(
            Self::try_new(
                self.nrows,
                self.ncols,
                self.indptr.clone(),
                self.indices.clone(),
                self.values.clone()
            )
            .is_ok(),
            "splice_apply produced malformed CSR"
        );
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
    fn positive_part_skips_clean_matrices_and_repairs_dirty_ones() {
        // All-positive: no rebuild.
        assert!(sample().positive_part().is_none());
        // Explicit zero and negative residue: both dropped.
        let dirty = CsrMatrix::try_new(
            2,
            3,
            vec![0, 2, 4],
            vec![0, 2, 1, 2],
            vec![1.0, 0.0, -1e-17, 3.0],
        )
        .unwrap();
        let clean = dirty.positive_part().expect("residue must trigger repair");
        assert_eq!(clean.nnz(), 2);
        assert_eq!(clean.get(0, 0), 1.0);
        assert_eq!(clean.get(1, 2), 3.0);
        assert_eq!(clean.shape(), dirty.shape());
        assert!(clean.positive_part().is_none());
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(3, 3, d.data());
        assert_eq!(back, m);
    }

    /// Reference semantics for `splice_add_positive` on an all-positive base.
    fn add_then_positive(base: &CsrMatrix, delta: &CsrMatrix) -> CsrMatrix {
        let merged = base.add(delta).unwrap();
        merged.positive_part().unwrap_or(merged)
    }

    #[test]
    fn splice_add_positive_growth_matches_rebuild() {
        // Rows 0 and 2 gain entries; every cumulative shift is positive
        // (right-to-left in-place branch).
        let base = sample();
        let delta = CsrMatrix::from_dense(3, 3, &[0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6.0]);
        let mut spliced = base.clone();
        spliced
            .splice_add_positive(&delta, |_, _, _| panic!("nothing pruned"))
            .unwrap();
        assert_eq!(spliced, add_then_positive(&base, &delta));
    }

    #[test]
    fn splice_add_positive_shrink_matches_rebuild() {
        // Cancellations only: rows shrink (left-to-right in-place branch),
        // and every drop is reported with its merged value.
        let base = sample();
        let delta = CsrMatrix::from_dense(3, 3, &[-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -4.0, 0.0]);
        let mut spliced = base.clone();
        let mut drops = Vec::new();
        spliced
            .splice_add_positive(&delta, |r, c, v| drops.push((r, c, v)))
            .unwrap();
        assert_eq!(spliced, add_then_positive(&base, &delta));
        assert_eq!(drops, vec![(0, 0, 0.0), (2, 1, 0.0)]);
    }

    #[test]
    fn splice_add_positive_mixed_shift_matches_rebuild() {
        // Row 0 shrinks, row 2 grows: cumulative shifts change sign, so the
        // rebuild fallback runs. An empty row gaining entries rides along.
        let base = sample();
        let delta = CsrMatrix::from_dense(3, 3, &[-1.0, 0.0, -2.0, 7.0, 0.0, 8.0, 0.0, 1.0, 9.0]);
        let mut spliced = base.clone();
        let mut drops = Vec::new();
        spliced
            .splice_add_positive(&delta, |r, c, v| drops.push((r, c, v)))
            .unwrap();
        assert_eq!(spliced, add_then_positive(&base, &delta));
        assert_eq!(drops, vec![(0, 0, 0.0), (0, 2, 0.0)]);
        assert_eq!(spliced.get(1, 0), 7.0);
        assert_eq!(spliced.get(2, 2), 9.0);
    }

    #[test]
    fn splice_add_positive_reports_negative_delta_only_entries() {
        // A delta entry with no base counterpart that stays non-positive is
        // dropped and reported with the merged (= delta) value.
        let base = sample();
        let delta = CsrMatrix::from_dense(3, 3, &[0.0, 0.0, 0.0, 0.0, -3.0, 0.0, 0.0, 0.0, 0.0]);
        let mut spliced = base.clone();
        let mut drops = Vec::new();
        spliced
            .splice_add_positive(&delta, |r, c, v| drops.push((r, c, v)))
            .unwrap();
        assert_eq!(spliced, add_then_positive(&base, &delta));
        assert_eq!(drops, vec![(1, 1, -3.0)]);
    }

    #[test]
    fn splice_add_positive_empty_delta_is_a_noop() {
        let base = sample();
        let mut spliced = base.clone();
        spliced
            .splice_add_positive(&CsrMatrix::zeros(3, 3), |_, _, _| panic!("no drops"))
            .unwrap();
        assert_eq!(spliced, base);
    }

    #[test]
    fn splice_add_positive_rejects_shape_mismatch() {
        let base = sample();
        let mut spliced = base.clone();
        assert!(spliced
            .splice_add_positive(&CsrMatrix::zeros(2, 3), |_, _, _| {})
            .is_err());
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
