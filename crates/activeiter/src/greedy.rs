//! Greedy cardinality-constrained link selection — internal iteration step
//! (1-2).
//!
//! With `w` fixed, minimizing `‖ŷ − y‖²` over binary `y` under the
//! one-to-one degree constraints `0 ≤ A⁽¹⁾y ≤ 1`, `0 ≤ A⁽²⁾y ≤ 1` is an
//! integer program; assigning `y_l = 1` is worth `2ŷ_l − 1`, so the problem
//! is maximum-weight bipartite matching over the links with `ŷ_l` above the
//! break-even 0.5. The paper adopts the **greedy algorithm of Zhang et al.
//! (WSDM'17)**, which scans links by descending score and accepts any link
//! whose two endpoints are still free — a ½-approximation of the optimum
//! (property-tested here against an exact matcher).
//!
//! **Cost.** One call over `n` candidates is `O(n + L + R)` for the dense
//! fixed and endpoint-used tables, where `L` and `R` bound the left and
//! right endpoint ids (at most the two networks' user counts), plus
//! `O(m log m)` to sort the `m` free links above the threshold. The
//! driver calls it once per inner iteration.

use crate::ord::cmp_scores_desc;
use hetnet::UserId;
use std::collections::{HashMap, HashSet};

/// Lengths of the left and right user-id tables that index every endpoint
/// of `candidates`: one past the largest id on each side.
pub(crate) fn endpoint_table_lens(candidates: &[(UserId, UserId)]) -> (usize, usize) {
    candidates.iter().fold((0, 0), |(nl, nr), &(l, r)| {
        (nl.max(l.index() + 1), nr.max(r.index() + 1))
    })
}

/// Result of a greedy selection round.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Binary label per candidate (1.0 selected / fixed positive).
    pub labels: Vec<f64>,
    /// Total matching weight `Σ (2ŷ − 1)` over *freely* selected links.
    pub weight: f64,
}

/// Greedy selection under the one-to-one constraint.
///
/// * `scores` — current `ŷ` per candidate;
/// * `candidates` — endpoints per candidate;
/// * `fixed_pos` — indices whose label is fixed to 1 (labeled `L⁺` and
///   positively-queried links). Their endpoints are saturated first, which
///   is how "if one incident anchor link is positive the rest are negative
///   by default" enters the optimization;
/// * `fixed_neg` — indices whose label is fixed to 0 (negatively-queried);
/// * `threshold` — acceptance threshold on `ŷ` (0.5 in the paper).
pub fn greedy_select(
    scores: &[f64],
    candidates: &[(UserId, UserId)],
    fixed_pos: &[usize],
    fixed_neg: &[usize],
    threshold: f64,
) -> Selection {
    assert_eq!(scores.len(), candidates.len(), "score per candidate");
    let mut labels = vec![0.0; candidates.len()];
    let (n_left, n_right) = endpoint_table_lens(candidates);
    let mut left_used = vec![false; n_left];
    let mut right_used = vec![false; n_right];
    let mut fixed = vec![false; candidates.len()];
    for &i in fixed_neg {
        fixed[i] = true;
    }
    for &i in fixed_pos {
        labels[i] = 1.0;
        left_used[candidates[i].0.index()] = true;
        right_used[candidates[i].1.index()] = true;
        fixed[i] = true;
    }

    // Free links above threshold, by descending score with NaN last (a
    // NaN score from a degenerate fit must not poison the order or panic a
    // sweep); ties break by index for determinism.
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|&i| !fixed[i] && scores[i] > threshold)
        .collect();
    order.sort_unstable_by(|&a, &b| cmp_scores_desc(scores[a], scores[b]).then(a.cmp(&b)));

    let mut weight = 0.0;
    for i in order {
        let (l, r) = (candidates[i].0.index(), candidates[i].1.index());
        if !left_used[l] && !right_used[r] {
            labels[i] = 1.0;
            left_used[l] = true;
            right_used[r] = true;
            weight += 2.0 * scores[i] - 1.0;
        }
    }
    Selection { labels, weight }
}

/// Exact maximum-weight matching by exhaustive search — exponential, tests
/// only. Considers the same link set the greedy considers (free links above
/// `threshold`, endpoints not saturated by `fixed_pos`).
pub fn optimal_select(
    scores: &[f64],
    candidates: &[(UserId, UserId)],
    fixed_pos: &[usize],
    fixed_neg: &[usize],
    threshold: f64,
) -> f64 {
    let fixed_neg: HashSet<usize> = fixed_neg.iter().copied().collect();
    let mut left_used: HashSet<u32> = HashSet::new();
    let mut right_used: HashSet<u32> = HashSet::new();
    let mut fixed: HashSet<usize> = fixed_neg;
    for &i in fixed_pos {
        left_used.insert(candidates[i].0 .0);
        right_used.insert(candidates[i].1 .0);
        fixed.insert(i);
    }
    let free: Vec<usize> = (0..candidates.len())
        .filter(|i| {
            !fixed.contains(i)
                && scores[*i] > threshold
                && !left_used.contains(&candidates[*i].0 .0)
                && !right_used.contains(&candidates[*i].1 .0)
        })
        .collect();
    assert!(free.len() <= 20, "exact matcher is for tiny tests only");

    fn rec(
        free: &[usize],
        pos: usize,
        scores: &[f64],
        candidates: &[(UserId, UserId)],
        left: &mut HashMap<u32, bool>,
        right: &mut HashMap<u32, bool>,
    ) -> f64 {
        if pos == free.len() {
            return 0.0;
        }
        let skip = rec(free, pos + 1, scores, candidates, left, right);
        let i = free[pos];
        let (l, r) = candidates[i];
        let l_used = *left.get(&l.0).unwrap_or(&false);
        let r_used = *right.get(&r.0).unwrap_or(&false);
        if l_used || r_used {
            return skip;
        }
        left.insert(l.0, true);
        right.insert(r.0, true);
        let take = 2.0 * scores[i] - 1.0 + rec(free, pos + 1, scores, candidates, left, right);
        left.insert(l.0, false);
        right.insert(r.0, false);
        skip.max(take)
    }
    rec(
        &free,
        0,
        scores,
        candidates,
        &mut HashMap::new(),
        &mut HashMap::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(pairs: &[(u32, u32)]) -> Vec<(UserId, UserId)> {
        pairs.iter().map(|&(l, r)| (UserId(l), UserId(r))).collect()
    }

    #[test]
    fn selects_best_per_user() {
        // User 0 has two candidates; the higher-scored wins.
        let cands = c(&[(0, 0), (0, 1), (1, 1)]);
        let scores = vec![0.9, 0.7, 0.8];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(sel.labels, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn one_to_one_always_holds() {
        let cands = c(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let scores = vec![0.9, 0.8, 0.85, 0.7];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        let mut l_deg = HashMap::new();
        let mut r_deg = HashMap::new();
        for (i, &lab) in sel.labels.iter().enumerate() {
            if lab == 1.0 {
                *l_deg.entry(cands[i].0).or_insert(0) += 1;
                *r_deg.entry(cands[i].1).or_insert(0) += 1;
            }
        }
        assert!(l_deg.values().all(|&d| d <= 1));
        assert!(r_deg.values().all(|&d| d <= 1));
        // 0.9 picks (0,0); (1,1) remains for user 1 at 0.7.
        assert_eq!(sel.labels, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn threshold_blocks_low_scores() {
        let cands = c(&[(0, 0), (1, 1)]);
        let scores = vec![0.4, 0.500001];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(sel.labels, vec![0.0, 1.0]);
    }

    #[test]
    fn fixed_positives_saturate_endpoints() {
        let cands = c(&[(0, 0), (0, 1), (2, 1)]);
        let scores = vec![0.1, 0.99, 0.99];
        // (0,0) is a labeled positive: user 0 and right-user 0 are taken.
        let sel = greedy_select(&scores, &cands, &[0], &[], 0.5);
        assert_eq!(sel.labels[0], 1.0);
        assert_eq!(sel.labels[1], 0.0, "conflicts with fixed positive on left");
        assert_eq!(sel.labels[2], 1.0);
    }

    #[test]
    fn fixed_negatives_are_never_selected() {
        let cands = c(&[(0, 0)]);
        let scores = vec![0.99];
        let sel = greedy_select(&scores, &cands, &[], &[0], 0.5);
        assert_eq!(sel.labels, vec![0.0]);
    }

    #[test]
    fn deterministic_tie_break() {
        let cands = c(&[(0, 0), (1, 1), (0, 1)]);
        let scores = vec![0.8, 0.8, 0.8];
        let a = greedy_select(&scores, &cands, &[], &[], 0.5);
        let b = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(a, b);
        // Lower index wins the tie.
        assert_eq!(a.labels, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn nan_scores_never_poison_selection_or_panic() {
        // A NaN score sits between two real candidates sharing endpoints
        // with it; selection must ignore it (NaN > threshold is false) and
        // the real scores must keep their descending order.
        let cands = c(&[(0, 0), (0, 1), (1, 1), (2, 2)]);
        let scores = vec![0.9, f64::NAN, 0.8, f64::NAN];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        assert_eq!(sel.labels, vec![1.0, 0.0, 1.0, 0.0]);
        // Even a NaN threshold (every comparison false) must not panic —
        // nothing passes the filter, nothing is selected.
        let sel = greedy_select(&scores, &cands, &[], &[], f64::NAN);
        assert!(sel.labels.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn empty_input() {
        let sel = greedy_select(&[], &[], &[], &[], 0.5);
        assert!(sel.labels.is_empty());
        assert_eq!(sel.weight, 0.0);
    }

    #[test]
    fn greedy_weight_at_least_half_optimal_on_adversarial_case() {
        // Classic ½-approx adversarial shape: greedy grabs the 0.8 edge,
        // blocking two 0.79 edges.
        let cands = c(&[(0, 0), (1, 0), (0, 1)]);
        let scores = vec![0.80, 0.79, 0.79];
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        let opt = optimal_select(&scores, &cands, &[], &[], 0.5);
        assert!(sel.weight >= 0.5 * opt - 1e-12);
        assert!(sel.weight < opt, "greedy is suboptimal here by design");
    }

    #[test]
    fn exact_matcher_small_case() {
        let cands = c(&[(0, 0), (1, 1)]);
        let scores = vec![0.9, 0.9];
        let opt = optimal_select(&scores, &cands, &[], &[], 0.5);
        assert!((opt - 1.6).abs() < 1e-12);
    }
}
