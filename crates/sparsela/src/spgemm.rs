//! Sparse × sparse matrix multiplication (SpGEMM).
//!
//! Meta-path instance counting reduces to chains of adjacency products
//! (PathSim-style). [`spgemm()`] is the Gustavson row-wise kernel: each
//! output row is accumulated into one dense scratch row (`DenseRow`, the
//! same accumulator the fused row pass [`crate::fused_rows`] runs per
//! step). A row of at least `ncols / 8` multiply-adds is added without a
//! branch and scanned in column order; a sparser row keeps a list of the
//! columns it touches and sorts it, so a very wide output with near-empty
//! rows costs its multiply-adds, not its width. Both paths add the same
//! products in the same order and give the same bits (property-tested
//! against a naive dense reference on both sides of the threshold).
//!
//! [`spgemm_lowrank`] is the `L·ΔA·R` update kernel behind incremental
//! anchor updates, built from two such products.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};

/// Computes `lhs * rhs`.
///
/// # Errors
/// [`SparseError::DimMismatch`] when `lhs.ncols() != rhs.nrows()`.
pub fn spgemm(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<CsrMatrix> {
    if lhs.ncols() != rhs.nrows() {
        return Err(SparseError::DimMismatch {
            op: "spgemm",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let (n, m) = (lhs.nrows(), rhs.ncols());
    let mut out = BlockOut {
        row_ends: Vec::with_capacity(n),
        ..BlockOut::default()
    };
    // The O(ncols) scratch is allocated at the first row with work, so a
    // product with none never pays the zero fill.
    let mut scratch: Option<DenseRow> = None;
    let mut cols = Vec::new();
    for i in 0..n {
        let flops = row_flops(lhs, rhs, i);
        if flops > 0 {
            let start = out.indices.len();
            let row = scratch.get_or_insert_with(|| DenseRow::new(m));
            row.accumulate(lhs.row(i), rhs, flops, &mut out, &mut cols);
            row.clear(&out.indices[start..]);
        }
        out.end_row();
    }
    Ok(join_blocks(n, m, vec![out]))
}

/// Multiply-adds of row `i` of `lhs · rhs`: `Σ nnz(rhs.row(k))` over the
/// row's stored columns `k`.
pub(crate) fn row_flops(lhs: &CsrMatrix, rhs: &CsrMatrix, i: usize) -> usize {
    lhs.row(i).map(|(k, _)| rhs.row_nnz(k)).sum()
}

/// One row block's CSR fragment: cumulative row ends (block-local), column
/// indices and values.
#[derive(Default)]
pub(crate) struct BlockOut {
    pub(crate) row_ends: Vec<usize>,
    pub(crate) indices: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

impl BlockOut {
    /// Closes the row whose entries were pushed since the last call.
    pub(crate) fn end_row(&mut self) {
        self.row_ends.push(self.indices.len());
    }
}

/// Joins row-block fragments, in block order, into one CSR matrix. The
/// first block's buffers grow (or have reserved room) to hold the rest,
/// and each later block is freed as soon as it is copied, so the product
/// is never held twice; a single block is moved without a copy.
pub(crate) fn join_blocks(nrows: usize, ncols: usize, blocks: Vec<BlockOut>) -> CsrMatrix {
    let total: usize = blocks.iter().map(|b| b.indices.len()).sum();
    let mut blocks = blocks.into_iter();
    let first = blocks.next().unwrap_or_default();
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0);
    indptr.extend(first.row_ends);
    let (mut indices, mut values) = (first.indices, first.values);
    indices.reserve_exact(total - indices.len());
    values.reserve_exact(total - values.len());
    for b in blocks {
        let base = indices.len();
        indptr.extend(b.row_ends.iter().map(|&end| base + end));
        indices.extend_from_slice(&b.indices);
        values.extend_from_slice(&b.values);
    }
    CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, indices, values)
}

/// A dense row whose multiply-adds reach `width >> SCAN_SHIFT` is scanned
/// in column order instead of sorting its touched-column list: on
/// `paper_scale(1000)` counts (output rows about 30% dense), the branch-free
/// scan of an eighth-full row costs about what sorting its list does.
const SCAN_SHIFT: u32 = 3;

/// A dense scratch row that output rows are accumulated into one at a
/// time. Every slot is `0.0` between rows; a row's values stay readable
/// ([`DenseRow::get`]) until [`DenseRow::clear`] resets them.
pub(crate) struct DenseRow {
    vals: Vec<f64>,
}

impl DenseRow {
    /// An all-zero scratch row of `width` slots.
    pub(crate) fn new(width: usize) -> Self {
        DenseRow {
            vals: vec![0.0; width],
        }
    }

    /// The value in slot `j`.
    #[inline]
    pub(crate) fn get(&self, j: usize) -> f64 {
        self.vals[j]
    }

    /// Accumulates `Σ lv · rhs.row(k)` over the `(k, lv)` of `lhs_row` and
    /// appends the row's nonzeros to `out` in column order; exact zeros
    /// (cancellations) are not stored. A row of at least
    /// `width >> SCAN_SHIFT` multiply-adds (`flops`) adds without a branch
    /// and then scans every slot in column order; a sparser row lists each
    /// slot it makes nonzero and sorts that list. Both paths add the same
    /// products in the same order, so they give the same bits. `cols` is
    /// working space, shared by the rows of a block.
    pub(crate) fn accumulate(
        &mut self,
        lhs_row: impl Iterator<Item = (usize, f64)>,
        rhs: &CsrMatrix,
        flops: usize,
        out: &mut BlockOut,
        cols: &mut Vec<usize>,
    ) {
        let vals = &mut self.vals[..];
        if flops >= vals.len() >> SCAN_SHIFT {
            for (k, lv) in lhs_row {
                for (j, rv) in rhs.row(k) {
                    vals[j] += lv * rv;
                }
            }
            // Branch-free compaction: every column is written, and the
            // write position advances past the nonzero ones only.
            if cols.len() < vals.len() {
                cols.resize(vals.len(), 0);
            }
            let mut n = 0;
            for (j, &v) in vals.iter().enumerate() {
                cols[n] = j;
                // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                n += usize::from(v != 0.0);
            }
            out.indices.extend_from_slice(&cols[..n]);
            out.values.extend(cols[..n].iter().map(|&j| vals[j]));
        } else {
            cols.clear();
            for (k, lv) in lhs_row {
                for (j, rv) in rhs.row(k) {
                    // srclint: allow(float_eq, reason = "0.0 marks an untouched scratch slot; the touched list depends on it")
                    if vals[j] == 0.0 {
                        cols.push(j);
                    }
                    vals[j] += lv * rv;
                }
            }
            // A slot that cancels to 0.0 and is hit again is listed twice.
            cols.sort_unstable();
            cols.dedup();
            for &j in cols.iter() {
                let v = vals[j];
                // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                if v != 0.0 {
                    out.indices.push(j);
                    out.values.push(v);
                }
            }
        }
    }

    /// Writes a stored row into the (all-zero) scratch so later steps can
    /// read it by column.
    pub(crate) fn scatter(&mut self, cols: &[usize], values: &[f64]) {
        for (&j, &v) in cols.iter().zip(values) {
            self.vals[j] = v;
        }
    }

    /// Zeroes the slots in `cols`, which must cover every nonzero slot —
    /// the stored columns of the row last accumulated or scattered.
    pub(crate) fn clear(&mut self, cols: &[usize]) {
        for &j in cols {
            self.vals[j] = 0.0;
        }
    }
}

/// Computes the sparse low-rank product `L·Δ·R` given the **transpose**
/// `Lᵀ` of the left factor.
///
/// This is the kernel behind incremental anchor updates: a count matrix of
/// the form `C = L·A·R` changes by exactly `L·ΔA·R` when the anchor matrix
/// gains the entries of `ΔA`, and `ΔA` carries a handful of nonzeros (the
/// newly confirmed anchors). Contracting `Δᵀ` against `Lᵀ` row-wise touches
/// only the columns of `L` that the new anchors select, so the cost scales
/// with `nnz(Δ) · degree` — not with `nnz(L)` or the catalog size. All
/// arithmetic is the same exact integer-valued f64 math as the full
/// product, so `(L·A·R) + (L·ΔA·R)` is **bit-equal** to `L·(A+ΔA)·R` for
/// the nonnegative count matrices this library manipulates.
///
/// # Errors
/// [`SparseError::DimMismatch`] when the shapes are inconsistent
/// (`Lᵀ` is `k×n`, `Δ` must be `n×m`, `R` must be `m×p`).
pub fn spgemm_lowrank(lt: &CsrMatrix, delta: &CsrMatrix, r: &CsrMatrix) -> Result<CsrMatrix> {
    if lt.nrows() != delta.nrows() {
        return Err(SparseError::DimMismatch {
            op: "spgemm_lowrank",
            lhs: (lt.ncols(), lt.nrows()),
            rhs: delta.shape(),
        });
    }
    // L·Δ = (Δᵀ·Lᵀ)ᵀ: the left operand of the inner product has one row per
    // *column* of Δ, so only the Δ-selected rows do any work.
    let dt = delta.transpose();
    let ldt = spgemm(&dt, lt)?;
    spgemm(&ldt.transpose(), r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{balanced_ranges, Threading};
    use crate::sums::MarginSums;

    fn a() -> CsrMatrix {
        CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0])
    }

    fn b() -> CsrMatrix {
        CsrMatrix::from_dense(3, 2, &[0.0, 1.0, 4.0, 0.0, 0.0, 5.0])
    }

    #[test]
    fn small_product_matches_hand_computation() {
        // a*b = [[0, 11], [12, 0]]
        let p = spgemm(&a(), &b()).unwrap();
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.get(0, 0), 0.0);
        assert_eq!(p.get(0, 1), 11.0);
        assert_eq!(p.get(1, 0), 12.0);
        assert_eq!(p.get(1, 1), 0.0);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let err = spgemm(&a(), &a()).unwrap_err();
        assert!(matches!(err, SparseError::DimMismatch { op: "spgemm", .. }));
    }

    #[test]
    fn identity_is_neutral() {
        let m = a();
        let l = spgemm(&CsrMatrix::identity(2), &m).unwrap();
        let r = spgemm(&m, &CsrMatrix::identity(3)).unwrap();
        assert_eq!(l, m);
        assert_eq!(r, m);
    }

    #[test]
    fn zero_factor_gives_zero() {
        let z = CsrMatrix::zeros(3, 4);
        let p = spgemm(&a(), &z).unwrap();
        assert_eq!(p.nnz(), 0);
        assert_eq!(p.shape(), (2, 4));
    }

    #[test]
    fn cancellation_produces_no_stored_zero() {
        // Row picks +1 and -1 contributions that cancel exactly.
        let l = CsrMatrix::from_dense(1, 2, &[1.0, 1.0]);
        let r = CsrMatrix::from_dense(2, 1, &[1.0, -1.0]);
        let p = spgemm(&l, &r).unwrap();
        assert_eq!(p.nnz(), 0);
    }

    #[test]
    fn auto_picks_per_row_on_skewed_matrices() {
        // A wide output (> 2^12 cols) with one dense hub row and one
        // near-empty row: the accumulator picks per row, so the hub is
        // scanned and the near-empty row keeps its touched list, and both
        // must be exact.
        let width = (1 << 12) + 50;
        let mut hub = vec![0.0; width];
        for (j, slot) in hub.iter_mut().enumerate() {
            if j % 2 == 0 {
                *slot = 1.0;
            }
        }
        let mut rows = hub.clone();
        let mut sparse_row = vec![0.0; width];
        sparse_row[17] = 3.0;
        rows.extend_from_slice(&sparse_row);
        let l = CsrMatrix::from_dense(2, width, &rows);
        let r = CsrMatrix::identity(width);
        let threshold = width >> SCAN_SHIFT;
        assert!(row_flops(&l, &r, 0) >= threshold);
        assert!(row_flops(&l, &r, 1) < threshold);
        assert_eq!(spgemm(&l, &r).unwrap(), l);
    }

    #[test]
    fn threading_resolves_to_at_least_one_worker() {
        assert_eq!(Threading::Serial.resolve(), 1);
        assert_eq!(Threading::Threads(0).resolve(), 1);
        assert_eq!(Threading::Threads(6).resolve(), 6);
        assert!(Threading::Auto.resolve() >= 1);
        assert_eq!(Threading::default(), Threading::Serial);
    }

    #[test]
    fn flop_balanced_partition_isolates_hub_rows() {
        // One hub row carrying ~all the FLOPs: the cut closes the hub's
        // block right after it (the even split 0..2|2..4|4..6 would instead
        // pair the hub with a light row and starve the last worker).
        let flops = [0usize, 1, 900, 1, 1, 1];
        let ranges = balanced_ranges(&flops, 3);
        assert_eq!(ranges, vec![0..3, 3..4, 4..6]);
        // Coverage: the blocks tile 0..6 in order.
        let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..6).collect::<Vec<_>>());
        // All-zero estimates reach every fair share at once: leading
        // single-row blocks, the trailing block takes the rest.
        assert_eq!(balanced_ranges(&[0; 6], 3), vec![0..1, 1..2, 2..6]);
        // No rows give no blocks; zero parts mean one.
        assert!(balanced_ranges(&[], 4).is_empty());
        assert_eq!(balanced_ranges(&[1, 1], 0), vec![0..2]);
    }

    #[test]
    fn lowrank_update_matches_full_product() {
        // L (3×3), Δ (3×2) with one entry, R (2×2).
        let l = CsrMatrix::from_dense(3, 3, &[1.0, 2.0, 0.0, 0.0, 1.0, 3.0, 4.0, 0.0, 1.0]);
        let delta = CsrMatrix::from_dense(3, 2, &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let r = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 0.0]);
        let full = spgemm(&spgemm(&l, &delta).unwrap(), &r).unwrap();
        let low = spgemm_lowrank(&l.transpose(), &delta, &r).unwrap();
        assert_eq!(low, full);
    }

    #[test]
    fn lowrank_with_sums_maintains_margins_exactly() {
        let l = CsrMatrix::from_dense(3, 3, &[1.0, 2.0, 0.0, 0.0, 1.0, 3.0, 4.0, 0.0, 1.0]);
        let r = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 0.0]);
        let a = CsrMatrix::from_dense(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = spgemm(&spgemm(&l, &a).unwrap(), &r).unwrap();
        let mut sums = MarginSums::of(&c);
        let delta = CsrMatrix::from_dense(3, 2, &[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let dc = spgemm_lowrank(&l.transpose(), &delta, &r).unwrap();
        sums.accumulate(&dc).unwrap();
        let merged = c.add(&dc).unwrap();
        assert!(sums.matches(&merged), "maintained sums must equal a rescan");
    }

    #[test]
    fn lowrank_rejects_bad_shapes() {
        let l = CsrMatrix::identity(3);
        let delta = CsrMatrix::zeros(4, 2);
        let r = CsrMatrix::identity(2);
        let err = spgemm_lowrank(&l, &delta, &r).unwrap_err();
        assert!(matches!(
            err,
            SparseError::DimMismatch {
                op: "spgemm_lowrank",
                ..
            }
        ));
        // Δ/R mismatch surfaces from the inner product.
        let delta = CsrMatrix::zeros(3, 5);
        assert!(spgemm_lowrank(&l, &delta, &r).is_err());
    }
}
