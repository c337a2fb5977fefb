//! NaN-safe score ordering, shared by every ranked selection in this
//! workspace.
//!
//! Scores come out of floating-point model evaluations; a degenerate
//! feature vector can make one NaN, and `partial_cmp(..).expect(..)`
//! inside a `sort_by` then takes down the whole selection round — the
//! incident fixed in `eval` (PR 2), fixed again in [`crate::greedy`]
//! (PR 4), and reintroduced twice more before `srclint` started gating
//! it (`docs/LINTS.md`, `nan_unsafe_comparator`). These comparators are
//! total: every real score outranks NaN, and NaNs tie among themselves.
//! `top_k_by` ranks only the prefix a query batch needs.

use std::cmp::Ordering;

/// Descending score order with NaN **last**: any real score outranks
/// NaN. The canonical ranking order ("best first").
pub fn cmp_scores_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN sorts after b
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Ascending order with NaN **last**: any real value sorts before NaN
/// (for "smallest distance first" rankings).
pub(crate) fn cmp_scores_asc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater, // NaN sorts after b
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// Keeps the first `k` elements of `v` in `cmp` order and drops the rest:
/// the same as `v.sort_by(cmp); v.truncate(k)` when `cmp` is a total order
/// with no ties between distinct elements (score, then index), but
/// `O(n + k log k)` — a selection pass moves the top `k` to the front and
/// only that prefix is sorted.
pub(crate) fn top_k_by<T>(v: &mut Vec<T>, k: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    if k == 0 {
        v.clear();
        return;
    }
    if k < v.len() {
        v.select_nth_unstable_by(k - 1, &mut cmp);
        v.truncate(k);
    }
    v.sort_unstable_by(cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_ranks_real_scores_first() {
        let mut v = [0.2, f64::NAN, 0.9, f64::INFINITY, 0.5];
        v.sort_by(|a, b| cmp_scores_desc(*a, *b));
        assert_eq!(v[..4], [f64::INFINITY, 0.9, 0.5, 0.2]);
        assert!(v[4].is_nan());
    }

    #[test]
    fn asc_ranks_real_scores_first() {
        let mut v = [0.2, f64::NAN, 0.9, 0.5];
        v.sort_by(|a, b| cmp_scores_asc(*a, *b));
        assert_eq!(v[..3], [0.2, 0.5, 0.9]);
        assert!(v[3].is_nan());
    }

    #[test]
    fn top_k_is_the_prefix_of_the_full_sort() {
        let scores = [0.2, f64::NAN, 0.9, 0.2, f64::INFINITY, 0.5, f64::NAN];
        let cmp = |a: &usize, b: &usize| cmp_scores_desc(scores[*a], scores[*b]).then(a.cmp(b));
        let mut full: Vec<usize> = (0..scores.len()).collect();
        full.sort_by(cmp);
        for k in 0..=scores.len() + 1 {
            let mut top: Vec<usize> = (0..scores.len()).collect();
            top_k_by(&mut top, k, cmp);
            assert_eq!(top, full[..k.min(full.len())], "k = {k}");
        }
    }

    #[test]
    fn both_are_total_orders_over_nan() {
        for cmp in [cmp_scores_desc, cmp_scores_asc] {
            assert_eq!(cmp(f64::NAN, f64::NAN), Ordering::Equal);
            assert_eq!(cmp(f64::NAN, 1.0), Ordering::Greater);
            assert_eq!(cmp(1.0, f64::NAN), Ordering::Less);
            assert_eq!(cmp(f64::NAN, f64::NEG_INFINITY), Ordering::Greater);
            assert_eq!(cmp(f64::NEG_INFINITY, f64::NAN), Ordering::Less);
        }
    }
}
