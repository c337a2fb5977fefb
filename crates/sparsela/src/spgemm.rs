//! Sparse × sparse matrix multiplication (SpGEMM).
//!
//! Meta-path instance counting reduces to chains of adjacency products
//! (PathSim-style); this module provides the Gustavson row-wise kernel used
//! by the count engine. Two accumulator strategies are provided:
//!
//! * a **dense accumulator** (O(ncols) scratch, fastest when output rows are
//!   moderately dense): a row of at least `ncols / 8` multiply-adds is
//!   added without a branch and scanned in column order, a sparser row
//!   keeps a list of the columns it touches, and
//! * a **sorted-merge (heap-free) sparse accumulator** that collects
//!   `(col, val)` pairs and sorts per row — better when the right-hand side
//!   is extremely wide and rows are very sparse.
//!
//! [`Accumulator::Auto`] picks **per row** from a FLOP/width estimate
//! (a whole-matrix choice mis-picks on skewed row distributions); all paths
//! produce identical results (property-tested against a naive dense
//! reference).
//!
//! The product is embarrassingly parallel over rows of the left operand:
//! [`spgemm_threaded`] splits the left operand into contiguous row blocks,
//! runs the Gustavson accumulation per block on scoped workers
//! ([`crate::par::fan_out`]), and joins the per-block CSR outputs. Because
//! row partitioning never changes the per-row computation, the parallel
//! kernels are **bit-identical** to the serial ones at any thread count.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::par::{balanced_ranges, fan_out};
use crate::sums::MarginSums;
use std::ops::Range;

/// Strategy for the per-row accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accumulator {
    /// O(ncols) dense scratch: scanned in column order when the row has at
    /// least `ncols / 8` multiply-adds, else with a touched-column list.
    Dense,
    /// Collect-then-sort sparse accumulation.
    SortMerge,
    /// Choose per output row: dense scratch unless the row is very sparse
    /// relative to a very wide output.
    Auto,
}

/// Worker-count knob for the parallel kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threading {
    /// Single-threaded execution (no worker threads spawned).
    #[default]
    Serial,
    /// Exactly this many workers (clamped to ≥ 1).
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Threading {
    /// The effective worker count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threading::Serial => 1,
            Threading::Threads(n) => n.max(1),
            Threading::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Computes `lhs * rhs`.
///
/// # Errors
/// [`SparseError::DimMismatch`] when `lhs.ncols() != rhs.nrows()`.
pub fn spgemm(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<CsrMatrix> {
    spgemm_threaded(lhs, rhs, Accumulator::Auto, Threading::Serial)
}

/// [`spgemm`] with an explicit accumulator strategy (single-threaded).
pub fn spgemm_with(lhs: &CsrMatrix, rhs: &CsrMatrix, acc: Accumulator) -> Result<CsrMatrix> {
    spgemm_threaded(lhs, rhs, acc, Threading::Serial)
}

/// The fully general entry point: explicit accumulator strategy and
/// explicit threading. The left operand is cut into contiguous row blocks
/// carrying ≈ `total_flops / workers` each, by the same per-row
/// `Σ nnz(rhs.row(k))` estimates that drive [`Accumulator::Auto`], so a
/// handful of dense hub rows among thousands of near-empty ones does not
/// leave most workers idle. The cut never changes a row's computation, so
/// the output is bit-identical at any thread count.
///
/// # Errors
/// [`SparseError::DimMismatch`] when `lhs.ncols() != rhs.nrows()`.
pub fn spgemm_threaded(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    acc: Accumulator,
    threading: Threading,
) -> Result<CsrMatrix> {
    if lhs.ncols() != rhs.nrows() {
        return Err(SparseError::DimMismatch {
            op: "spgemm",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let n = lhs.nrows();
    let flops: Vec<usize> = (0..n).map(|i| row_flops(lhs, rhs, i)).collect();
    let ranges = balanced_ranges(&flops, threading.resolve());
    let blocks = fan_out(ranges, |rows| accumulate_block(lhs, rhs, rows, acc, &flops));
    Ok(join_blocks(n, rhs.ncols(), blocks))
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

/// Below this output width the dense scratch always wins (the one-off
/// O(ncols) allocation is negligible).
const DENSE_ALWAYS_WIDTH: usize = 1 << 12;

/// Per-row strategy pick: dense scratch unless the row's FLOP estimate is a
/// vanishing fraction of a very wide output. Deciding per row (rather than
/// from whole-matrix `nnz` vs `ncols`) keeps skewed row distributions —
/// a handful of dense hub rows among thousands of near-empty ones — on the
/// right kernel for every row.
fn row_wants_dense(flops: usize, width: usize) -> bool {
    width <= DENSE_ALWAYS_WIDTH || flops >= width >> 6
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

/// Gustavson accumulation over `rows`, appending into block-local buffers.
/// `flops` carries the per-row FLOP estimates (indexed by absolute row).
fn accumulate_block(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    rows: Range<usize>,
    acc: Accumulator,
    flops: &[usize],
) -> BlockOut {
    let m = rhs.ncols();
    let mut out = BlockOut {
        row_ends: Vec::with_capacity(rows.len()),
        ..BlockOut::default()
    };
    // Dense scratch is sized lazily: an all-sort-merge block never pays the
    // O(ncols) zero fill.
    let mut dense: Option<DenseRow> = None;
    let mut cols: Vec<usize> = Vec::new();
    let mut row_buf: Vec<(usize, f64)> = Vec::new();

    for i in rows {
        let use_dense = match acc {
            Accumulator::Dense => true,
            Accumulator::SortMerge => false,
            Accumulator::Auto => row_wants_dense(flops[i], m),
        };
        if use_dense {
            let start = out.indices.len();
            let scratch = dense.get_or_insert_with(|| DenseRow::new(m));
            scratch.accumulate(lhs.row(i), rhs, flops[i], &mut out, &mut cols);
            scratch.clear(&out.indices[start..]);
        } else {
            row_buf.clear();
            for (k, lv) in lhs.row(i) {
                for (j, rv) in rhs.row(k) {
                    row_buf.push((j, lv * rv));
                }
            }
            row_buf.sort_unstable_by_key(|&(j, _)| j);
            let mut it = row_buf.iter().copied();
            if let Some((mut cur_j, mut cur_v)) = it.next() {
                for (j, v) in it {
                    if j == cur_j {
                        cur_v += v;
                    } else {
                        // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                        if cur_v != 0.0 {
                            out.indices.push(cur_j);
                            out.values.push(cur_v);
                        }
                        cur_j = j;
                        cur_v = v;
                    }
                }
                // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                if cur_v != 0.0 {
                    out.indices.push(cur_j);
                    out.values.push(cur_v);
                }
            }
        }
        out.end_row();
    }
    out
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
    let ldt = spgemm_with(&dt, lt, Accumulator::Auto)?;
    spgemm_with(&ldt.transpose(), r, Accumulator::Auto)
}

/// [`spgemm_lowrank`] that also applies the update's row/column-sum deltas
/// to `sums` — the margins the Dice normalization divides by, maintained as
/// a first-class artifact instead of being rescanned per round.
///
/// The low-rank kernel already walks every nonzero of `L·Δ·R` once to build
/// its CSR output; folding those entries into `sums` costs one more pass
/// over `nnz(L·Δ·R)`, so the whole call stays `O(nnz(Δ) · degree)`. After
/// `C += L·Δ·R`, `sums` equals `MarginSums::of(&C)` bit-for-bit (exact
/// integer arithmetic — see [`MarginSums`]).
///
/// # Errors
/// [`SparseError::DimMismatch`] on inconsistent factor shapes, or when
/// `sums` does not match the product's shape; `sums` is untouched on error.
pub fn spgemm_lowrank_with_sums(
    lt: &CsrMatrix,
    delta: &CsrMatrix,
    r: &CsrMatrix,
    sums: &mut MarginSums,
) -> Result<CsrMatrix> {
    let dc = spgemm_lowrank(lt, delta, r)?;
    sums.accumulate(&dc)?;
    Ok(dc)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn both_accumulators_agree() {
        let d = spgemm_with(&a(), &b(), Accumulator::Dense).unwrap();
        let s = spgemm_with(&a(), &b(), Accumulator::SortMerge).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let err = spgemm(&a(), &a()).unwrap_err();
        assert!(matches!(err, SparseError::DimMismatch { op: "spgemm", .. }));
        let err =
            spgemm_threaded(&a(), &a(), Accumulator::Auto, Threading::Threads(4)).unwrap_err();
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
        let p2 = spgemm_with(&l, &r, Accumulator::SortMerge).unwrap();
        assert_eq!(p2.nnz(), 0);
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
    fn parallel_equals_serial_on_small_product() {
        let serial = spgemm(&a(), &b()).unwrap();
        for t in [1, 2, 3, 8] {
            let par =
                spgemm_threaded(&a(), &b(), Accumulator::Auto, Threading::Threads(t)).unwrap();
            assert_eq!(par, serial, "threads = {t}");
        }
        let auto = spgemm_threaded(&a(), &b(), Accumulator::Auto, Threading::Auto).unwrap();
        assert_eq!(auto, serial);
    }

    #[test]
    fn parallel_handles_more_workers_than_rows() {
        let l = CsrMatrix::from_dense(1, 2, &[1.0, 2.0]);
        let r = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let p = spgemm_threaded(&l, &r, Accumulator::Auto, Threading::Threads(16)).unwrap();
        assert_eq!(p, spgemm(&l, &r).unwrap());
    }

    #[test]
    fn parallel_handles_empty_rows_between_blocks() {
        // 5 rows, middle ones empty; 3 workers put block boundaries inside
        // the empty stretch.
        let l = CsrMatrix::from_dense(5, 2, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
        let r = CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, 1.0, 3.0]);
        let p = spgemm_threaded(&l, &r, Accumulator::Auto, Threading::Threads(3)).unwrap();
        assert_eq!(p, spgemm(&l, &r).unwrap());
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
        let dc = spgemm_lowrank_with_sums(&l.transpose(), &delta, &r, &mut sums).unwrap();
        assert_eq!(dc, spgemm_lowrank(&l.transpose(), &delta, &r).unwrap());
        let merged = c.add(&dc).unwrap();
        assert!(sums.matches(&merged), "maintained sums must equal a rescan");
        // Shape errors leave the sums untouched.
        let before = sums.clone();
        assert!(spgemm_lowrank_with_sums(&l, &CsrMatrix::zeros(4, 2), &r, &mut sums).is_err());
        assert_eq!(sums, before);
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

    #[test]
    fn auto_picks_per_row_on_skewed_matrices() {
        // A wide output (> 2^12 cols) with one dense hub row and many
        // near-empty rows: the whole-matrix heuristic would force one
        // strategy everywhere; the per-row pick must still be exact.
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
        let auto = spgemm_with(&l, &r, Accumulator::Auto).unwrap();
        let dense = spgemm_with(&l, &r, Accumulator::Dense).unwrap();
        let sm = spgemm_with(&l, &r, Accumulator::SortMerge).unwrap();
        assert_eq!(auto, dense);
        assert_eq!(auto, sm);
    }
}
