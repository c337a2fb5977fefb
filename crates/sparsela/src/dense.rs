//! Dense row-major matrices and the handful of dense kernels the model needs.
//!
//! The feature matrix `X ∈ R^{|H| × d}` is dense (d ≈ 32 meta-diagram
//! proximities + bias), and the closed-form ridge update needs `XᵀX`, `Xᵀy`
//! and matrix–vector products — all provided here.

use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// The all-zero `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != nrows * ncols`.
    pub fn from_rows(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense buffer size mismatch");
        DenseMatrix { nrows, ncols, data }
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

    /// Underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Gram matrix `selfᵀ * self` (`ncols × ncols`), exploiting symmetry.
    #[allow(clippy::needless_range_loop)] // upper-triangle index loop reads as the math
    pub fn gram(&self) -> DenseMatrix {
        let d = self.ncols;
        let mut g = DenseMatrix::zeros(d, d);
        for r in 0..self.nrows {
            let row = self.row(r);
            for i in 0..d {
                let xi = row[i];
                // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                if xi == 0.0 {
                    continue;
                }
                // Upper triangle only; mirrored below.
                for j in i..d {
                    g.data[i * d + j] += xi * row[j];
                }
            }
        }
        for i in 0..d {
            for j in 0..i {
                g.data[i * d + j] = g.data[j * d + i];
            }
        }
        g
    }

    /// `self * x` for a dense vector `x` of length `ncols`.
    ///
    /// # Panics
    /// Panics when `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        (0..self.nrows)
            .map(|r| self.row(r).iter().zip(x.iter()).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `selfᵀ * y` for a dense vector `y` of length `nrows`.
    ///
    /// # Panics
    /// Panics when `y.len() != nrows`.
    pub fn tr_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.nrows, "tr_matvec dimension mismatch");
        let mut out = vec![0.0; self.ncols];
        for (r, &w) in y.iter().enumerate() {
            // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
            if w == 0.0 {
                continue;
            }
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += w * v;
            }
        }
        out
    }

    /// Dense matrix product `self * other` (tests and small systems only).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self[(i, k)];
                // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Maximum absolute difference against `other`; `inf` when shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.ncols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.ncols + c]
    }
}

/// L1 norm of the difference of two equal-length vectors — the paper's
/// convergence measure `Δy = ‖yᵢ − yᵢ₋₁‖₁` (Fig. 3).
///
/// # Panics
/// Panics when lengths differ.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_distance length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_rows() {
        let mut m = DenseMatrix::zeros(2, 3);
        m[(0, 1)] = 5.0;
        m[(1, 2)] = 7.0;
        assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
        m.row_mut(1)[0] = 1.0;
        assert_eq!(m[(1, 0)], 1.0);
    }

    #[test]
    fn gram_matches_manual_transpose_product() {
        let x = DenseMatrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = x.gram();
        let manual = x.transpose().matmul(&x);
        assert!(g.max_abs_diff(&manual) < 1e-12);
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 0)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
    }

    #[test]
    fn matvec_and_tr_matvec() {
        let x = DenseMatrix::from_rows(2, 3, vec![1.0, 0.0, 2.0, 0.0, 3.0, 1.0]);
        assert_eq!(x.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 4.0]);
        assert_eq!(x.tr_matvec(&[1.0, 2.0]), vec![1.0, 6.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let x = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(x.transpose().transpose(), x);
    }

    #[test]
    fn identity_neutral_in_matmul() {
        let x = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x.matmul(&DenseMatrix::identity(2)), x);
        assert_eq!(DenseMatrix::identity(2).matmul(&x), x);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(l1_distance(&[1.0, -2.0], &[0.0, 2.0]), 5.0);
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.max_abs_diff(&b).is_infinite());
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_panics_on_bad_length() {
        DenseMatrix::zeros(2, 3).matvec(&[1.0]);
    }
}
