//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The ridge normal matrix `I + c·XᵀX` is SPD by construction, so Cholesky
//! is the right (and fastest stable) factorization for the paper's inner
//! update. The factor is computed once per feature matrix and reused across
//! inner iterations, because only `y` changes between solves.

use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    n: usize,
    /// Row-major lower triangle (full matrix storage, upper part unused).
    l: DenseMatrix,
}

impl CholeskyFactor {
    /// Factorizes an SPD matrix.
    ///
    /// # Errors
    /// [`SparseError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive (up to a tiny relative tolerance), or
    /// [`SparseError::DimMismatch`] when `a` is not square.
    #[allow(clippy::needless_range_loop)] // triangular index loops read as the math
    pub fn factor(a: &DenseMatrix) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(SparseError::DimMismatch {
                op: "cholesky",
                lhs: (a.nrows(), a.ncols()),
                rhs: (n, n),
            });
        }
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            // Diagonal element.
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(CholeskyFactor { n, l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` via forward and back substitution.
    ///
    /// # Panics
    /// Panics when `b.len() != dim()`.
    #[allow(clippy::needless_range_loop)] // triangular index loops read as the math
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "cholesky solve rhs length mismatch");
        // Forward: L z = b.
        let mut z = vec![0.0; self.n];
        for i in 0..self.n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * z[k];
            }
            z[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = z.
        let mut x = vec![0.0; self.n];
        for i in (0..self.n).rev() {
            let mut s = z[i];
            for k in (i + 1)..self.n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        // A = Bᵀ B + I for B = [[1,2,0],[0,1,1],[1,0,1]] is SPD.
        let b = DenseMatrix::from_rows(3, 3, vec![1.0, 2.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]);
        let mut a = b.gram();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    /// Reconstructs `L Lᵀ` from a factor.
    fn reconstruct(f: &CholeskyFactor) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(f.n, f.n);
        for i in 0..f.n {
            for j in 0..f.n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    s += f.l[(i, k)] * f.l[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let f = CholeskyFactor::factor(&a).unwrap();
        assert!(reconstruct(&f).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn solve_satisfies_system() {
        let a = spd3();
        let f = CholeskyFactor::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = f.solve(&b);
        let ax = a.matvec(&x);
        for (ai, bi) in ax.iter().zip(b.iter()) {
            assert!((ai - bi).abs() < 1e-10, "residual too large");
        }
    }

    #[test]
    fn identity_factors_to_identity() {
        let f = CholeskyFactor::factor(&DenseMatrix::identity(4)).unwrap();
        let x = f.solve(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rejects_indefinite() {
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(SparseError::NotPositiveDefinite { pivot: 0 })
        ));
        let neg = DenseMatrix::from_rows(1, 1, vec![-3.0]);
        assert!(CholeskyFactor::factor(&neg).is_err());
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(SparseError::DimMismatch { op: "cholesky", .. })
        ));
    }

    #[test]
    fn one_by_one() {
        let a = DenseMatrix::from_rows(1, 1, vec![4.0]);
        let f = CholeskyFactor::factor(&a).unwrap();
        assert_eq!(f.solve(&[8.0]), vec![2.0]);
    }
}
