//! Problem instances: candidate links with features and the labeled set.

use hetnet::UserId;
use sparsela::DenseMatrix;

/// One alignment problem: the candidate links `H`, their feature matrix
/// (bias column included), and the indices of the labeled positive anchor
/// links `L⁺`. Ground-truth labels live with the oracle/evaluation layer,
/// never in the instance the model sees.
#[derive(Debug, Clone)]
pub struct AlignmentInstance {
    /// The candidate anchor links, `(left user, right user)` per row of
    /// `features`.
    pub candidates: Vec<(UserId, UserId)>,
    /// `|H| × (d+1)` feature matrix — meta diagram proximities plus the
    /// trailing all-ones bias column (the paper's "dummy feature").
    pub features: DenseMatrix,
    /// Indices into `candidates` of the labeled positive links `L⁺`.
    pub labeled_pos: Vec<usize>,
}

/// Appends the all-ones bias column to a raw feature matrix.
pub fn with_bias(x: &DenseMatrix) -> DenseMatrix {
    let (n, d) = (x.nrows(), x.ncols());
    let mut out = DenseMatrix::zeros(n, d + 1);
    for r in 0..n {
        out.row_mut(r)[..d].copy_from_slice(x.row(r));
        out[(r, d)] = 1.0;
    }
    out
}

impl AlignmentInstance {
    /// Builds an instance, appending the bias column to `raw_features`.
    ///
    /// # Panics
    /// Panics when row counts disagree or a labeled index is out of range —
    /// these are harness programming errors.
    pub fn new(
        candidates: Vec<(UserId, UserId)>,
        raw_features: &DenseMatrix,
        labeled_pos: Vec<usize>,
    ) -> Self {
        assert_eq!(
            candidates.len(),
            raw_features.nrows(),
            "one feature row per candidate"
        );
        for &i in &labeled_pos {
            assert!(i < candidates.len(), "labeled index {i} out of range");
        }
        AlignmentInstance {
            candidates,
            features: with_bias(raw_features),
            labeled_pos,
        }
    }

    /// Number of candidate links `|H|`.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Feature dimensionality including the bias column.
    pub fn dim(&self) -> usize {
        self.features.ncols()
    }

    /// The unlabeled candidate indices `U = H \ L⁺`.
    pub fn unlabeled(&self) -> Vec<usize> {
        let labeled: std::collections::HashSet<usize> = self.labeled_pos.iter().copied().collect();
        (0..self.len()).filter(|i| !labeled.contains(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(n: usize) -> Vec<(UserId, UserId)> {
        (0..n)
            .map(|i| (UserId(i as u32), UserId(i as u32)))
            .collect()
    }

    #[test]
    fn bias_column_is_appended() {
        let x = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let inst = AlignmentInstance::new(cands(2), &x, vec![0]);
        assert_eq!(inst.dim(), 3);
        assert_eq!(inst.features[(0, 2)], 1.0);
        assert_eq!(inst.features[(1, 2)], 1.0);
        assert_eq!(inst.features[(1, 0)], 3.0);
    }

    #[test]
    fn unlabeled_complements_labeled() {
        let x = DenseMatrix::zeros(4, 1);
        let inst = AlignmentInstance::new(cands(4), &x, vec![1, 3]);
        assert_eq!(inst.unlabeled(), vec![0, 2]);
        assert_eq!(inst.len(), 4);
        assert!(!inst.is_empty());
    }

    #[test]
    #[should_panic(expected = "one feature row per candidate")]
    fn rejects_row_mismatch() {
        let x = DenseMatrix::zeros(3, 1);
        AlignmentInstance::new(cands(2), &x, vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label_index() {
        let x = DenseMatrix::zeros(2, 1);
        AlignmentInstance::new(cands(2), &x, vec![5]);
    }
}
