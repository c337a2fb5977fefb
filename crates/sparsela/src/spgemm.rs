//! Sparse × sparse matrix multiplication (SpGEMM).
//!
//! Meta-path instance counting reduces to chains of adjacency products
//! (PathSim-style); this module provides the Gustavson row-wise kernel used
//! by the count engine. Two accumulator strategies are provided:
//!
//! * a **dense accumulator** (O(ncols) scratch, fastest when output rows are
//!   moderately dense), and
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
//! [`spgemm_par`] / [`spgemm_threaded`] split the left operand into
//! contiguous row blocks, run the Gustavson accumulation per block on scoped
//! workers, and stitch the per-block CSR outputs. Because row partitioning
//! never changes the per-row computation, the parallel kernels are
//! **bit-identical** to the serial ones at any thread count.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::sums::MarginSums;
use std::ops::Range;

/// Strategy for the per-row accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accumulator {
    /// O(ncols) dense scratch with a touched-column list.
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

/// Row-partitioned parallel [`spgemm`]: the left operand is split into
/// contiguous row blocks, one scoped worker accumulates each block, and the
/// per-block CSR outputs are stitched. Bit-identical to the serial kernel.
///
/// # Errors
/// [`SparseError::DimMismatch`] when `lhs.ncols() != rhs.nrows()`.
pub fn spgemm_par(lhs: &CsrMatrix, rhs: &CsrMatrix, threading: Threading) -> Result<CsrMatrix> {
    spgemm_threaded(lhs, rhs, Accumulator::Auto, threading)
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
    let workers = threading.resolve().min(n).max(1);
    if workers <= 1 {
        let block = accumulate_block(lhs, rhs, 0..n, acc, None);
        return Ok(block_into_csr(n, rhs.ncols(), block));
    }
    // Per-row FLOP estimates: needed once for the balanced cut, and reused
    // by every Auto accumulator pick instead of re-deriving them per row.
    let flops: Vec<usize> = (0..n)
        .map(|i| lhs.row(i).map(|(k, _)| rhs.row_nnz(k)).sum())
        .collect();
    let ranges = partition_flop_balanced(&flops, workers);
    let flops = &flops;
    let blocks: Vec<BlockOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|rows| scope.spawn(move || accumulate_block(lhs, rhs, rows, acc, Some(flops))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spgemm worker panicked"))
            .collect()
    });
    Ok(stitch_blocks(n, rhs.ncols(), blocks))
}

/// Contiguous row blocks cut so each carries ≈ `total / workers` of the
/// per-row FLOP estimates. A single hub row heavier than the fair share
/// gets a block of its own; the trailing block absorbs the remainder.
fn partition_flop_balanced(flops: &[usize], workers: usize) -> Vec<Range<usize>> {
    let n = flops.len();
    let total: usize = flops.iter().sum();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(workers);
    let mut start = 0usize;
    let mut cum: u128 = 0;
    for (i, &f) in flops.iter().enumerate() {
        cum += f as u128;
        // Cut after row i once this prefix has reached the next fair share;
        // the cross-multiplication avoids integer-division drift.
        if ranges.len() + 1 < workers
            && cum * workers as u128 >= total as u128 * (ranges.len() as u128 + 1)
        {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    ranges.push(start..n);
    ranges.into_iter().filter(|r| !r.is_empty()).collect()
}

/// One row block's CSR fragment: cumulative row ends (block-local), column
/// indices and values.
struct BlockOut {
    row_ends: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

/// Turns a single whole-matrix block into a CSR matrix by moving its
/// buffers — the serial fast path pays no copy over the pre-parallel
/// kernels.
fn block_into_csr(nrows: usize, ncols: usize, block: BlockOut) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0);
    indptr.extend(block.row_ends);
    CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, block.indices, block.values)
}

/// Concatenates per-block fragments into one CSR matrix, offsetting each
/// block's row pointers by the nnz of the blocks before it.
fn stitch_blocks(nrows: usize, ncols: usize, blocks: Vec<BlockOut>) -> CsrMatrix {
    let total: usize = blocks.iter().map(|b| b.indices.len()).sum();
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    indptr.push(0);
    let mut base = 0usize;
    for b in blocks {
        for &end in &b.row_ends {
            indptr.push(base + end);
        }
        base += b.indices.len();
        indices.extend_from_slice(&b.indices);
        values.extend_from_slice(&b.values);
    }
    debug_assert_eq!(indptr.len(), nrows + 1);
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

/// Gustavson accumulation over `rows`, appending into block-local buffers.
/// `flops` optionally carries precomputed per-row FLOP estimates (indexed by
/// absolute row) so the Auto pick does not re-derive them.
fn accumulate_block(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    rows: Range<usize>,
    acc: Accumulator,
    flops: Option<&[usize]>,
) -> BlockOut {
    let m = rhs.ncols();
    let mut row_ends = Vec::with_capacity(rows.len());
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();

    // Dense scratch is sized lazily: an all-sort-merge block never pays the
    // O(ncols) zero fill.
    let mut scratch: Vec<f64> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut row_buf: Vec<(usize, f64)> = Vec::new();

    for i in rows {
        let use_dense = match acc {
            Accumulator::Dense => true,
            Accumulator::SortMerge => false,
            Accumulator::Auto => {
                let estimate = match flops {
                    Some(f) => f[i],
                    None => lhs.row(i).map(|(k, _)| rhs.row_nnz(k)).sum(),
                };
                row_wants_dense(estimate, m)
            }
        };
        if use_dense {
            if scratch.is_empty() && m > 0 {
                scratch = vec![0f64; m];
            }
            touched.clear();
            for (k, lv) in lhs.row(i) {
                for (j, rv) in rhs.row(k) {
                    // srclint: allow(float_eq, reason = "0.0 marks an untouched scratch slot; the touched list depends on it")
                    if scratch[j] == 0.0 {
                        touched.push(j);
                    }
                    scratch[j] += lv * rv;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                let v = scratch[j];
                scratch[j] = 0.0;
                // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                if v != 0.0 {
                    indices.push(j);
                    values.push(v);
                }
            }
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
                            indices.push(cur_j);
                            values.push(cur_v);
                        }
                        cur_j = j;
                        cur_v = v;
                    }
                }
                // srclint: allow(float_eq, reason = "dropping exact-zero accumulation results keeps the output sparse")
                if cur_v != 0.0 {
                    indices.push(cur_j);
                    values.push(cur_v);
                }
            }
        }
        row_ends.push(indices.len());
    }
    BlockOut {
        row_ends,
        indices,
        values,
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
        let err = spgemm_par(&a(), &a(), Threading::Threads(4)).unwrap_err();
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
            let par = spgemm_par(&a(), &b(), Threading::Threads(t)).unwrap();
            assert_eq!(par, serial, "threads = {t}");
        }
        let auto = spgemm_par(&a(), &b(), Threading::Auto).unwrap();
        assert_eq!(auto, serial);
    }

    #[test]
    fn parallel_handles_more_workers_than_rows() {
        let l = CsrMatrix::from_dense(1, 2, &[1.0, 2.0]);
        let r = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let p = spgemm_par(&l, &r, Threading::Threads(16)).unwrap();
        assert_eq!(p, spgemm(&l, &r).unwrap());
    }

    #[test]
    fn parallel_handles_empty_rows_between_blocks() {
        // 5 rows, middle ones empty; 3 workers put block boundaries inside
        // the empty stretch.
        let l = CsrMatrix::from_dense(5, 2, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
        let r = CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, 1.0, 3.0]);
        let p = spgemm_par(&l, &r, Threading::Threads(3)).unwrap();
        assert_eq!(p, spgemm(&l, &r).unwrap());
    }

    #[test]
    fn flop_balanced_partition_isolates_hub_rows() {
        // One hub row carrying ~all the FLOPs: the cut closes the hub's
        // block right after it (the even split 0..2|2..4|4..6 would instead
        // pair the hub with a light row and starve the last worker).
        let flops = [0usize, 1, 900, 1, 1, 1];
        let ranges = partition_flop_balanced(&flops, 3);
        assert_eq!(ranges, vec![0..3, 3..4, 4..6]);
        // Coverage: the blocks tile 0..6 in order.
        let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..6).collect::<Vec<_>>());
        // All-zero estimates reach every fair share at once: leading
        // single-row blocks, the trailing block takes the rest.
        assert_eq!(partition_flop_balanced(&[0; 6], 3), vec![0..1, 1..2, 2..6]);
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
