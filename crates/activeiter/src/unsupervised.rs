//! Unsupervised alignment baseline.
//!
//! The paper's related work (§V) contrasts supervised/PU alignment against
//! unsupervised models (IsoRank-style similarity + greedy matching; Zhang &
//! Yu's anonymized-network aligners). This module provides that reference
//! point for the harness: score every candidate by the *label-free* part of
//! its feature vector (attribute-path proximities — anchor-dependent social
//! features are zero without training anchors anyway) and run the same
//! greedy one-to-one matching, with no labels and no learning.
//!
//! It is deliberately simple: the value is a floor that any learning method
//! must clear, and a sanity check that the generator's attribute signal
//! alone does not trivialize the task.

use crate::greedy::greedy_select;
use hetnet::UserId;
use sparsela::DenseMatrix;

/// Result of the unsupervised matcher.
#[derive(Debug, Clone)]
pub struct UnsupervisedResult {
    /// Binary labels per candidate (greedy one-to-one matching).
    pub labels: Vec<f64>,
    /// The aggregate similarity scores used.
    pub scores: Vec<f64>,
}

/// Scores candidates by the mean of their (label-free) feature columns and
/// matches greedily under the one-to-one constraint.
///
/// `features` is the raw proximity matrix (no bias column); `min_score` is
/// the acceptance floor — candidates with average proximity at or below it
/// stay unmatched (0.0 keeps everything with any signal).
///
/// # Panics
/// Panics when row counts disagree.
pub fn unsupervised_align(
    candidates: &[(UserId, UserId)],
    features: &DenseMatrix,
    min_score: f64,
) -> UnsupervisedResult {
    assert_eq!(
        candidates.len(),
        features.nrows(),
        "one feature row per candidate"
    );
    let d = features.ncols().max(1) as f64;
    let scores: Vec<f64> = (0..features.nrows())
        .map(|r| features.row(r).iter().sum::<f64>() / d)
        .collect();
    let sel = greedy_select(&scores, candidates, &[], &[], min_score);
    UnsupervisedResult {
        labels: sel.labels,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(l: u32, r: u32) -> (UserId, UserId) {
        (UserId(l), UserId(r))
    }

    #[test]
    fn matches_highest_similarity_pairs() {
        let candidates = vec![c(0, 0), c(0, 1), c(1, 1)];
        // Feature rows: strong, weak, medium.
        let x = DenseMatrix::from_rows(3, 2, vec![0.9, 0.8, 0.1, 0.2, 0.5, 0.6]);
        let r = unsupervised_align(&candidates, &x, 0.0);
        assert_eq!(r.labels, vec![1.0, 0.0, 1.0]);
        assert!((r.scores[0] - 0.85).abs() < 1e-12);
    }

    #[test]
    fn respects_one_to_one() {
        let candidates = vec![c(0, 0), c(1, 0)];
        let x = DenseMatrix::from_rows(2, 1, vec![0.9, 0.8]);
        let r = unsupervised_align(&candidates, &x, 0.0);
        assert_eq!(r.labels.iter().filter(|&&l| l == 1.0).count(), 1);
        assert_eq!(r.labels[0], 1.0, "higher similarity wins the right user");
    }

    #[test]
    fn floor_filters_noise() {
        let candidates = vec![c(0, 0)];
        let x = DenseMatrix::from_rows(1, 2, vec![0.01, 0.02]);
        let r = unsupervised_align(&candidates, &x, 0.1);
        assert_eq!(r.labels, vec![0.0]);
    }

    #[test]
    fn finds_true_pairs_on_generated_attribute_signal() {
        // On a generated world, the unsupervised matcher with attribute-only
        // features should recover a non-trivial share of anchors — and far
        // more than a shifted (wrong) assignment would.
        use hetnet::aligned::anchor_matrix;
        use metadiagram::{extract_features, Catalog, DeltaCatalogCounts, FeatureSet, Threading};
        let w = datagen::generate(&datagen::presets::tiny(47));
        let amat = anchor_matrix(w.left().n_users(), w.right().n_users(), &[]).unwrap();
        // Paths-only catalog: without anchors the social features vanish,
        // leaving the label-free attribute proximities.
        let catalog = Catalog::new(FeatureSet::MetaPathsOnly);
        let store =
            DeltaCatalogCounts::build(w.left(), w.right(), amat, &catalog, Threading::Serial)
                .unwrap();
        // Candidates: all true pairs plus one shifted decoy per user.
        let truth: Vec<_> = w.truth().links().to_vec();
        let mut candidates: Vec<(UserId, UserId)> =
            truth.iter().map(|a| (a.left, a.right)).collect();
        let n_true = candidates.len();
        for (i, a) in truth.iter().enumerate() {
            let wrong = truth[(i + 1) % n_true].right;
            candidates.push((a.left, wrong));
        }
        let fm = extract_features(&store, &catalog, &candidates, Threading::Serial);
        let r = unsupervised_align(&candidates, &fm.x, 0.0);
        let correct = (0..n_true).filter(|&i| r.labels[i] == 1.0).count();
        let wrong = (n_true..candidates.len())
            .filter(|&i| r.labels[i] == 1.0)
            .count();
        assert!(
            correct > wrong,
            "unsupervised matcher should prefer true pairs: {correct} vs {wrong}"
        );
    }
}
