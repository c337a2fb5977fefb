//! Meta diagram proximity (paper Definition 6).
//!
//! Given a diagram count matrix `C`, the proximity between users
//! `u⁽¹⁾ᵢ` and `u⁽²⁾ⱼ` is the Dice-style normalization
//!
//! ```text
//! s(i, j) = 2·C[i,j] / ( Σⱼ' C[i,j'] + Σᵢ' C[i',j] )
//! ```
//!
//! — instances *between* the pair, penalized by all instances going out
//! from `u⁽¹⁾ᵢ` and into `u⁽²⁾ⱼ` (so hub users are not spuriously similar
//! to everyone). Scores lie in `[0, 1]`; pairs with no connecting instance
//! score 0 and stay structurally absent, so proximity matrices remain as
//! sparse as the count matrices.

use sparsela::{CsrMatrix, MarginSums};

/// Applies the Dice normalization to a count matrix.
///
/// Row/column sums are taken over the *entire* user populations, exactly as
/// the `|P(u,·)|`/`|P(·,v)|` terms of Definition 6.
pub fn dice_proximity(counts: &CsrMatrix) -> CsrMatrix {
    let row_sums = counts.row_sums();
    let col_sums = counts.col_sums();
    let nrows = counts.nrows();
    let mut indptr = Vec::with_capacity(nrows + 1);
    let mut indices = Vec::with_capacity(counts.nnz());
    let mut values = Vec::with_capacity(counts.nnz());
    indptr.push(0);
    for (i, &row_sum) in row_sums.iter().enumerate() {
        for (j, v) in counts.row(i) {
            if let Some(s) = dice(v, row_sum, col_sums[j]) {
                indices.push(j);
                values.push(s);
            }
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts_unchecked(nrows, counts.ncols(), indptr, indices, values)
}

/// One cell of [`dice_proximity`], read straight from the count matrix
/// and its margins: `dice_at(c, &MarginSums::of(c), i, j)` has the same
/// bits as `dice_proximity(c).get(i, j)`, without materializing the
/// proximity matrix. Counts and margins are exact integers and the
/// expression is the one the full pass evaluates, so margins maintained
/// incrementally (bit-equal to a rescan) give bit-equal scores too
/// (property-tested in `tests/dice_at_props.rs`). Costs one binary search
/// in row `i`.
#[inline]
pub fn dice_at(counts: &CsrMatrix, sums: &MarginSums, i: usize, j: usize) -> f64 {
    dice(counts.get(i, j), sums.row(i), sums.col(j)).unwrap_or(0.0)
}

/// Definition 6 for one count `v` with its row and column sums; `None`
/// where the pair has no connecting instance.
#[inline]
fn dice(v: f64, row_sum: f64, col_sum: f64) -> Option<f64> {
    let denom = row_sum + col_sum;
    (v > 0.0 && denom > 0.0).then(|| 2.0 * v / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_instance_scores_one() {
        // A single instance between (0,0): r0 = 1, c0 = 1 → 2·1/(1+1) = 1.
        let c = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 0.0]);
        let s = dice_proximity(&c);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    fn hubs_are_penalized() {
        // User 0 connects to both right users; right user 0 only to user 0.
        let c = CsrMatrix::from_dense(2, 2, &[1.0, 1.0, 0.0, 0.0]);
        let s = dice_proximity(&c);
        // (0,0): 2/(2+1); (0,1): 2/(2+1).
        assert!((s.get(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multiplicity_raises_score() {
        // Three instances between the pair vs one stray instance elsewhere
        // in the same row.
        let c = CsrMatrix::from_dense(1, 2, &[3.0, 1.0]);
        let s = dice_proximity(&c);
        assert!((s.get(0, 0) - 2.0 * 3.0 / (4.0 + 3.0)).abs() < 1e-12);
        assert!((s.get(0, 1) - 2.0 * 1.0 / (4.0 + 1.0)).abs() < 1e-12);
        assert!(s.get(0, 0) > s.get(0, 1));
    }

    #[test]
    fn scores_are_bounded() {
        let c = CsrMatrix::from_dense(3, 3, &[5.0, 2.0, 0.0, 1.0, 0.0, 4.0, 0.0, 7.0, 3.0]);
        let s = dice_proximity(&c);
        for (_, _, v) in s.iter() {
            assert!(v > 0.0 && v <= 1.0, "score {v} out of (0,1]");
        }
    }

    #[test]
    fn empty_counts_give_empty_proximity() {
        let s = dice_proximity(&CsrMatrix::zeros(4, 5));
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.shape(), (4, 5));
    }

    #[test]
    fn delta_refresh_is_bit_equal_to_full() {
        let counts = CsrMatrix::from_dense(
            4,
            4,
            &[
                5.0, 2.0, 0.0, 0.0, //
                1.0, 0.0, 4.0, 0.0, //
                0.0, 7.0, 3.0, 0.0, //
                0.0, 0.0, 0.0, 9.0,
            ],
        );
        // Touches row 1 (new entry at col 1 + growth at col 0) and row 2;
        // rows 0 and 3 are untouched but row 0 has entries in touched
        // columns 0 and 1, whose denominators moved.
        let delta = CsrMatrix::from_dense(
            4,
            4,
            &[
                0.0, 0.0, 0.0, 0.0, //
                2.0, 6.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 0.0,
            ],
        );
        // Margins maintained through the delta, never rescanned.
        let mut sums = MarginSums::of(&counts);
        sums.accumulate(&delta).unwrap();
        let merged = counts.add(&delta).unwrap();
        let full = dice_proximity(&merged);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    dice_at(&merged, &sums, i, j).to_bits(),
                    full.get(i, j).to_bits(),
                    "cell ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn pattern_is_preserved() {
        let c = CsrMatrix::from_dense(2, 3, &[0.0, 2.0, 0.0, 1.0, 0.0, 1.0]);
        let s = dice_proximity(&c);
        assert_eq!(s.nnz(), c.nnz());
        for ((r1, c1, _), (r2, c2, _)) in c.iter().zip(s.iter()) {
            assert_eq!((r1, c1), (r2, c2));
        }
    }
}
