//! Elementwise sparse operations: Hadamard (intersection) product, addition,
//! and pattern utilities.
//!
//! The Hadamard product is the algebraic form of **meta-diagram stacking**
//! (paper §III-B.2): a diagram whose covering paths share only their
//! endpoints has instance count `C₁ ⊙ C₂` where `Cᵢ` are the covering paths'
//! count matrices (Lemma 1). All kernels here are sorted-merge walks over CSR
//! rows, O(nnz₁ + nnz₂).

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};

fn check_same_shape(op: &'static str, a: &CsrMatrix, b: &CsrMatrix) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(SparseError::DimMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

impl CsrMatrix {
    /// Elementwise (Hadamard) product `self ⊙ other`.
    ///
    /// The output pattern is the intersection of the operand patterns, so
    /// this is also the "AND" of two connection structures — exactly the
    /// semantics of stacking two meta paths into a meta diagram.
    ///
    /// # Errors
    /// [`SparseError::DimMismatch`] when the shapes differ.
    pub fn hadamard(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        check_same_shape("hadamard", self, other)?;
        let mut indptr = Vec::with_capacity(self.nrows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..self.nrows() {
            let mut ia = self.row(r).peekable();
            let mut ib = other.row(r).peekable();
            while let (Some(&(ca, va)), Some(&(cb, vb))) = (ia.peek(), ib.peek()) {
                match ca.cmp(&cb) {
                    std::cmp::Ordering::Less => {
                        ia.next();
                    }
                    std::cmp::Ordering::Greater => {
                        ib.next();
                    }
                    std::cmp::Ordering::Equal => {
                        let v = va * vb;
                        // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                        if v != 0.0 {
                            indices.push(ca);
                            values.push(v);
                        }
                        ia.next();
                        ib.next();
                    }
                }
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix::from_parts_unchecked(
            self.nrows(),
            self.ncols(),
            indptr,
            indices,
            values,
        ))
    }

    /// Elementwise sum `self + other` (union of patterns).
    ///
    /// # Errors
    /// [`SparseError::DimMismatch`] when the shapes differ.
    pub fn add(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        check_same_shape("add", self, other)?;
        let mut indptr = Vec::with_capacity(self.nrows() + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..self.nrows() {
            let mut ia = self.row(r).peekable();
            let mut ib = other.row(r).peekable();
            loop {
                match (ia.peek().copied(), ib.peek().copied()) {
                    (Some((ca, va)), Some((cb, vb))) => match ca.cmp(&cb) {
                        std::cmp::Ordering::Less => {
                            indices.push(ca);
                            values.push(va);
                            ia.next();
                        }
                        std::cmp::Ordering::Greater => {
                            indices.push(cb);
                            values.push(vb);
                            ib.next();
                        }
                        std::cmp::Ordering::Equal => {
                            let v = va + vb;
                            // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                            if v != 0.0 {
                                indices.push(ca);
                                values.push(v);
                            }
                            ia.next();
                            ib.next();
                        }
                    },
                    (Some((ca, va)), None) => {
                        indices.push(ca);
                        values.push(va);
                        ia.next();
                    }
                    (None, Some((cb, vb))) => {
                        indices.push(cb);
                        values.push(vb);
                        ib.next();
                    }
                    (None, None) => break,
                }
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix::from_parts_unchecked(
            self.nrows(),
            self.ncols(),
            indptr,
            indices,
            values,
        ))
    }

    /// Replaces every stored value by `1.0` — the *pattern* (binarization)
    /// of the matrix. Used to turn weighted adjacency into existence
    /// indicators before instance counting.
    pub fn binarized(&self) -> CsrMatrix {
        CsrMatrix::from_parts_unchecked(
            self.nrows(),
            self.ncols(),
            self.indptr().to_vec(),
            self.indices().to_vec(),
            vec![1.0; self.nnz()],
        )
    }

    /// The symmetric part restricted to mutual edges: `self ⊙ selfᵀ`.
    ///
    /// For a 0/1 follow adjacency this is the *mutual-follow* indicator,
    /// which is how the paper's Ψ1 diagram stacks P1 × P2 within one network.
    pub fn mutual(&self) -> Result<CsrMatrix> {
        self.hadamard(&self.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> CsrMatrix {
        CsrMatrix::from_dense(2, 3, &[1.0, 2.0, 0.0, 0.0, 3.0, 4.0])
    }

    fn b() -> CsrMatrix {
        CsrMatrix::from_dense(2, 3, &[5.0, 0.0, 6.0, 0.0, 7.0, 0.0])
    }

    #[test]
    fn hadamard_is_pointwise_intersection() {
        let h = a().hadamard(&b()).unwrap();
        assert_eq!(h.nnz(), 2);
        assert_eq!(h.get(0, 0), 5.0);
        assert_eq!(h.get(1, 1), 21.0);
        assert_eq!(h.get(1, 2), 0.0);
    }

    #[test]
    fn hadamard_rejects_shape_mismatch() {
        let c = CsrMatrix::zeros(3, 3);
        assert!(a().hadamard(&c).is_err());
    }

    #[test]
    fn add_is_pointwise_union() {
        let s = a().add(&b()).unwrap();
        assert_eq!(s.get(0, 0), 6.0);
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(0, 2), 6.0);
        assert_eq!(s.get(1, 1), 10.0);
        assert_eq!(s.get(1, 2), 4.0);
    }

    #[test]
    fn add_cancellation_drops_entry() {
        let x = CsrMatrix::from_dense(1, 2, &[1.0, 2.0]);
        let y = CsrMatrix::from_dense(1, 2, &[-1.0, 2.0]);
        let s = x.add(&y).unwrap();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(0, 1), 4.0);
    }

    #[test]
    fn binarized_keeps_pattern() {
        let bin = a().binarized();
        assert_eq!(bin.nnz(), a().nnz());
        assert!(bin.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn mutual_extracts_bidirectional_edges() {
        // 0 -> 1, 1 -> 0 (mutual); 0 -> 2 one-way.
        let f = CsrMatrix::from_dense(3, 3, &[0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let m = f.mutual().unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn hadamard_of_disjoint_patterns_is_empty() {
        let x = CsrMatrix::from_dense(1, 4, &[1.0, 0.0, 2.0, 0.0]);
        let y = CsrMatrix::from_dense(1, 4, &[0.0, 3.0, 0.0, 4.0]);
        assert_eq!(x.hadamard(&y).unwrap().nnz(), 0);
    }
}
