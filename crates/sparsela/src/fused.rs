//! The fused row pass: a list of same-shape sparse products and Hadamard
//! products over them, computed one output row at a time.
//!
//! A meta-diagram catalog is such a list: leaves that are products
//! `lhs · rhs`, and endpoint stackings that are Hadamard products of
//! earlier entries. Computing it one whole matrix at a time reads every
//! stacked part back from memory once per stack. [`fused_rows`] walks the
//! output rows once instead. For each row it runs every step in order:
//!
//! * a **product** row is accumulated into the step's own dense scratch
//!   row (`DenseRow`) and compacted in column order;
//! * a **Hadamard** row walks the stored columns of its sparsest part and
//!   multiplies its parts' values, looked up in their scratch rows while
//!   they are still in cache, instead of merging whole matrices;
//! * every stored row is added into its step's row and column margins.
//!
//! The rows are cut into flop-balanced blocks, one per worker
//! ([`crate::par`]), and the block outputs are joined in block order.
//! Every row is computed by the same arithmetic whichever block holds it,
//! so the matrices and row sums are bit-identical at any block count. The
//! column sums add per-block partial sums, which is exact (and so
//! bit-identical) for integer-valued matrices below `2^53`, the counts
//! this pass is built for.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
use crate::par::{balanced_ranges, fan_out, Threading};
use crate::spgemm::{join_blocks, row_flops, BlockOut, DenseRow};
use crate::sums::MarginSums;
use std::ops::Range;

/// One step of a [`fused_rows`] pass. Every step yields one row per output
/// row, and a Hadamard step reads the rows of steps before it.
#[derive(Debug, Clone, Copy)]
pub enum RowStep<'m> {
    /// The product `lhs · rhs`.
    Product(&'m CsrMatrix, &'m CsrMatrix),
    /// A matrix that is already known: later Hadamard steps read its rows,
    /// and the pass does not output it again.
    Given(&'m CsrMatrix),
    /// The Hadamard product of the listed earlier steps, multiplied in the
    /// listed order.
    Hadamard(&'m [usize]),
}

/// Runs `steps` over the output rows of an `nrows × ncols` `shape` and
/// returns, per step, its matrix with its margins (`None` for a
/// [`RowStep::Given`] step). `threading` sets the number of row blocks.
/// The margins equal [`MarginSums::of`] the matrix bit-for-bit for
/// integer-valued inputs; the matrices are the same as
/// [`crate::spgemm()`] and [`CsrMatrix::hadamard`] would give for finite
/// values, exact zeros not stored.
///
/// # Errors
/// [`SparseError::DimMismatch`] when a product or given matrix does not
/// fit `shape`; [`SparseError::InvalidStructure`] when a Hadamard step
/// lists no part, or a part that is not an earlier step.
pub fn fused_rows(
    steps: &[RowStep<'_>],
    shape: (usize, usize),
    threading: Threading,
) -> Result<Vec<Option<(CsrMatrix, MarginSums)>>> {
    let (nrows, ncols) = shape;
    let mut resident = vec![false; steps.len()];
    for (n, step) in steps.iter().enumerate() {
        match *step {
            RowStep::Product(lhs, rhs) => {
                if lhs.nrows() != nrows || lhs.ncols() != rhs.nrows() || rhs.ncols() != ncols {
                    return Err(SparseError::DimMismatch {
                        op: "fused product",
                        lhs: lhs.shape(),
                        rhs: rhs.shape(),
                    });
                }
                resident[n] = true;
            }
            RowStep::Given(m) => {
                if m.shape() != shape {
                    return Err(SparseError::DimMismatch {
                        op: "fused given row",
                        lhs: m.shape(),
                        rhs: shape,
                    });
                }
            }
            RowStep::Hadamard(parts) => {
                if parts.is_empty() || parts.iter().any(|&p| p >= n) {
                    return Err(SparseError::InvalidStructure(format!(
                        "Hadamard step {n} needs earlier parts, got {parts:?}"
                    )));
                }
                parts.iter().for_each(|&p| resident[p] = true);
            }
        }
    }
    // Every product row's multiply-adds: they cut the flop-balanced row
    // blocks, pick each row's accumulator path, and bound each step's
    // entries, which its output reserves up front. The bound spares the
    // output its growth copies, and the pages past the final length are
    // never touched (so never resident). The first block reserves for the
    // whole matrix, so the join appends the later blocks without moving it.
    let flops: Vec<Vec<usize>> = steps
        .iter()
        .map(|step| match *step {
            RowStep::Product(lhs, rhs) => (0..nrows).map(|i| row_flops(lhs, rhs, i)).collect(),
            _ => Vec::new(),
        })
        .collect();
    let weights: Vec<usize> = (0..nrows)
        .map(|i| flops.iter().filter_map(|f| f.get(i)).sum::<usize>() + steps.len())
        .collect();
    let ranges = balanced_ranges(&weights, threading.resolve());
    let mut blocks = fan_out(ranges, |rows| {
        let reserved = if rows.start == 0 {
            0..nrows
        } else {
            rows.clone()
        };
        let capacity: Vec<usize> = flops
            .iter()
            .map(|f| {
                f.get(reserved.clone())
                    .unwrap_or_default()
                    .iter()
                    .map(|&f| f.min(ncols))
                    .sum()
            })
            .collect();
        run_block(steps, &resident, &flops, &capacity, ncols, rows)
    });
    Ok(steps
        .iter()
        .enumerate()
        .map(|(n, step)| {
            if let RowStep::Given(_) = step {
                return None;
            }
            let parts: Vec<StepOut> = blocks
                .iter_mut()
                .map(|b| std::mem::take(&mut b[n]))
                .collect();
            Some(join_step(nrows, ncols, parts))
        })
        .collect())
}

/// One step's output over one row block.
#[derive(Default)]
struct StepOut {
    csr: BlockOut,
    row_sums: Vec<f64>,
    col_sums: Vec<f64>,
}

/// The stored columns of step `p`'s current row `i`, whose entries start at
/// `start` in its block output.
fn row_cols<'a>(step: RowStep<'a>, out: &'a StepOut, start: usize, i: usize) -> &'a [usize] {
    match step {
        RowStep::Given(m) => &m.indices()[m.indptr()[i]..m.indptr()[i + 1]],
        _ => &out.csr.indices[start..],
    }
}

/// Runs every step over `rows`. `resident[n]` marks the steps whose rows
/// stay in a dense scratch row until the row is done: the products (their
/// accumulator) and every Hadamard part. `flops[n]` holds product step
/// `n`'s per-row multiply-adds, and `capacity[n]` the entries its output
/// reserves.
fn run_block(
    steps: &[RowStep<'_>],
    resident: &[bool],
    flops: &[Vec<usize>],
    capacity: &[usize],
    ncols: usize,
    rows: Range<usize>,
) -> Vec<StepOut> {
    let mut outs: Vec<StepOut> = steps
        .iter()
        .zip(capacity)
        .map(|(step, &capacity)| match step {
            RowStep::Given(_) => StepOut::default(),
            _ => StepOut {
                csr: BlockOut {
                    row_ends: Vec::with_capacity(rows.len()),
                    indices: Vec::with_capacity(capacity),
                    values: Vec::with_capacity(capacity),
                },
                row_sums: Vec::with_capacity(rows.len()),
                // Sized at the step's first entry in this block.
                col_sums: Vec::new(),
            },
        })
        .collect();
    let mut scratch: Vec<DenseRow> = resident
        .iter()
        .map(|&r| DenseRow::new(if r { ncols } else { 0 }))
        .collect();
    let mut starts = vec![0usize; steps.len()];
    let mut cols = Vec::new();
    for i in rows {
        for n in 0..steps.len() {
            let (done, rest) = outs.split_at_mut(n);
            let (done_scratch, rest_scratch) = scratch.split_at_mut(n);
            let (out, own) = (&mut rest[0], &mut rest_scratch[0]);
            let start = out.csr.indices.len();
            starts[n] = start;
            match steps[n] {
                RowStep::Product(lhs, rhs) => {
                    own.accumulate(lhs.row(i), rhs, flops[n][i], &mut out.csr, &mut cols);
                }
                RowStep::Given(m) => {
                    if resident[n] {
                        let span = m.indptr()[i]..m.indptr()[i + 1];
                        own.scatter(&m.indices()[span.clone()], &m.values()[span]);
                    }
                    continue;
                }
                RowStep::Hadamard(parts) => {
                    let cols = |p: usize| row_cols(steps[p], &done[p], starts[p], i);
                    let sparsest = parts.iter().map(|&p| cols(p)).min_by_key(|c| c.len());
                    for &j in sparsest.unwrap_or_default() {
                        let mut v = done_scratch[parts[0]].get(j);
                        for &p in &parts[1..] {
                            v *= done_scratch[p].get(j);
                        }
                        // srclint: allow(float_eq, reason = "an exact-zero product is no entry, as in CsrMatrix::hadamard")
                        if v != 0.0 {
                            out.csr.indices.push(j);
                            out.csr.values.push(v);
                        }
                    }
                    if resident[n] {
                        own.scatter(&out.csr.indices[start..], &out.csr.values[start..]);
                    }
                }
            }
            let values = &out.csr.values[start..];
            out.row_sums.push(values.iter().sum());
            if out.col_sums.is_empty() && !values.is_empty() {
                out.col_sums = vec![0.0; ncols];
            }
            for (&j, &v) in out.csr.indices[start..].iter().zip(values) {
                out.col_sums[j] += v;
            }
            out.csr.end_row();
        }
        for (n, own) in scratch.iter_mut().enumerate() {
            if resident[n] {
                own.clear(row_cols(steps[n], &outs[n], starts[n], i));
            }
        }
    }
    outs
}

/// Joins one step's block outputs in block order: the matrix through
/// [`join_blocks`], the row sums concatenated, the column sums added (a
/// block where the step has no entry has none).
fn join_step(nrows: usize, ncols: usize, parts: Vec<StepOut>) -> (CsrMatrix, MarginSums) {
    let mut row_sums = Vec::with_capacity(nrows);
    let mut col_sums: Vec<f64> = Vec::new();
    let mut csr = Vec::with_capacity(parts.len());
    for part in parts {
        row_sums.extend_from_slice(&part.row_sums);
        if col_sums.is_empty() {
            col_sums = part.col_sums;
        } else {
            for (c, v) in col_sums.iter_mut().zip(&part.col_sums) {
                *c += v;
            }
        }
        csr.push(part.csr);
    }
    if col_sums.is_empty() {
        col_sums = vec![0.0; ncols];
    }
    (
        join_blocks(nrows, ncols, csr),
        MarginSums::from_parts(row_sums, col_sums),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spgemm::spgemm;

    fn l() -> CsrMatrix {
        CsrMatrix::from_dense(3, 2, &[1.0, 2.0, 0.0, 0.0, 3.0, 1.0])
    }

    fn r() -> CsrMatrix {
        CsrMatrix::from_dense(2, 4, &[1.0, 0.0, 2.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    }

    #[test]
    fn products_and_hadamards_match_the_unfused_kernels() {
        let (l, r) = (l(), r());
        let given = CsrMatrix::from_dense(3, 4, &[2.0; 12]);
        let parts = [0usize, 1];
        let steps = [
            RowStep::Product(&l, &r),
            RowStep::Given(&given),
            RowStep::Hadamard(&parts),
        ];
        let p = spgemm(&l, &r).unwrap();
        let h = p.hadamard(&given).unwrap();
        for threads in [1, 2, 3, 8] {
            let out = fused_rows(&steps, (3, 4), Threading::Threads(threads)).unwrap();
            let (got_p, sums_p) = out[0].as_ref().unwrap();
            assert_eq!(got_p, &p, "{threads} blocks");
            assert_eq!(sums_p, &MarginSums::of(&p));
            assert!(out[1].is_none(), "a given step is not output again");
            let (got_h, sums_h) = out[2].as_ref().unwrap();
            assert_eq!(got_h, &h, "{threads} blocks");
            assert_eq!(sums_h, &MarginSums::of(&h));
        }
    }

    #[test]
    fn malformed_steps_are_refused() {
        let (l, r) = (l(), r());
        let wrong = [RowStep::Product(&r, &l)];
        assert!(matches!(
            fused_rows(&wrong, (3, 4), Threading::Serial),
            Err(SparseError::DimMismatch { .. })
        ));
        let given = CsrMatrix::zeros(2, 2);
        assert!(matches!(
            fused_rows(&[RowStep::Given(&given)], (3, 4), Threading::Serial),
            Err(SparseError::DimMismatch { .. })
        ));
        for parts in [&[][..], &[0][..]] {
            assert!(matches!(
                fused_rows(&[RowStep::Hadamard(parts)], (3, 4), Threading::Serial),
                Err(SparseError::InvalidStructure(_))
            ));
        }
    }
}
