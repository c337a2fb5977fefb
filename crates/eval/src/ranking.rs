//! Ranking metrics — Hits@k and MRR — the standard complementary view in
//! the network-alignment literature (the paper reports classification
//! metrics only; these extend the harness for per-user ranking evaluation).
//!
//! For each *left* user that has a true counterpart among the candidates,
//! the candidate right users are ranked by model score; Hits@k asks whether
//! the true counterpart ranks in the top k, MRR averages the reciprocal
//! rank.

use activeiter::ord::cmp_scores_desc;
use hetnet::UserId;
use std::collections::HashMap;

/// Ranking evaluation over a scored candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingReport {
    /// Number of left users evaluated (those with a true counterpart among
    /// the candidates).
    pub n_queries: usize,
    /// Hits@1.
    pub hits_at_1: f64,
    /// Hits@5.
    pub hits_at_5: f64,
    /// Hits@10.
    pub hits_at_10: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
}

/// Computes ranking metrics from candidate links, scores and ground truth.
///
/// `candidates[i]` is scored `scores[i]` with truth `truth[i]`; candidates
/// sharing a left user form one ranking query. Ties break by candidate
/// order (deterministic).
///
/// # Panics
/// Panics when slice lengths differ.
pub fn ranking_report(
    candidates: &[(UserId, UserId)],
    scores: &[f64],
    truth: &[bool],
) -> RankingReport {
    assert_eq!(candidates.len(), scores.len(), "score per candidate");
    assert_eq!(candidates.len(), truth.len(), "label per candidate");

    let mut per_left: HashMap<UserId, Vec<usize>> = HashMap::new();
    for (i, &(l, _)) in candidates.iter().enumerate() {
        per_left.entry(l).or_default().push(i);
    }

    let mut n_queries = 0usize;
    let mut hits1 = 0usize;
    let mut hits5 = 0usize;
    let mut hits10 = 0usize;
    let mut rr_sum = 0.0f64;

    // Deterministic query order.
    let mut lefts: Vec<UserId> = per_left.keys().copied().collect();
    lefts.sort();
    for l in lefts {
        let idxs = &per_left[&l];
        let Some(true_idx) = idxs.iter().copied().find(|&i| truth[i]) else {
            continue; // no true counterpart among candidates — not a query
        };
        n_queries += 1;
        let mut order: Vec<usize> = idxs.clone();
        order.sort_by(|&a, &b| cmp_scores_desc(scores[a], scores[b]).then(a.cmp(&b)));
        let rank = order
            .iter()
            .position(|&i| i == true_idx)
            .expect("true candidate is in its own query")
            + 1;
        if rank <= 1 {
            hits1 += 1;
        }
        if rank <= 5 {
            hits5 += 1;
        }
        if rank <= 10 {
            hits10 += 1;
        }
        rr_sum += 1.0 / rank as f64;
    }

    let denom = n_queries.max(1) as f64;
    RankingReport {
        n_queries,
        hits_at_1: hits1 as f64 / denom,
        hits_at_5: hits5 as f64 / denom,
        hits_at_10: hits10 as f64 / denom,
        mrr: rr_sum / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(l: u32, r: u32) -> (UserId, UserId) {
        (UserId(l), UserId(r))
    }

    #[test]
    fn perfect_ranking() {
        let candidates = vec![c(0, 0), c(0, 1), c(1, 1), c(1, 0)];
        let scores = vec![0.9, 0.1, 0.8, 0.2];
        let truth = vec![true, false, true, false];
        let r = ranking_report(&candidates, &scores, &truth);
        assert_eq!(r.n_queries, 2);
        assert_eq!(r.hits_at_1, 1.0);
        assert_eq!(r.mrr, 1.0);
    }

    #[test]
    fn second_place_gives_half_mrr() {
        let candidates = vec![c(0, 0), c(0, 1)];
        let scores = vec![0.2, 0.9]; // true candidate ranked second
        let truth = vec![true, false];
        let r = ranking_report(&candidates, &scores, &truth);
        assert_eq!(r.n_queries, 1);
        assert_eq!(r.hits_at_1, 0.0);
        assert_eq!(r.hits_at_5, 1.0);
        assert!((r.mrr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn users_without_true_counterpart_are_skipped() {
        let candidates = vec![c(0, 0), c(1, 1)];
        let scores = vec![0.5, 0.6];
        let truth = vec![false, true];
        let r = ranking_report(&candidates, &scores, &truth);
        assert_eq!(r.n_queries, 1, "left user 0 has no true pair — skipped");
    }

    #[test]
    fn hits_at_10_window() {
        // 12 candidates for one user; the true one ranked 7th.
        let mut candidates = Vec::new();
        let mut scores = Vec::new();
        let mut truth = Vec::new();
        for i in 0..12u32 {
            candidates.push(c(0, i));
            scores.push(1.0 - i as f64 / 100.0);
            truth.push(i == 6);
        }
        let r = ranking_report(&candidates, &scores, &truth);
        assert_eq!(r.hits_at_1, 0.0);
        assert_eq!(r.hits_at_5, 0.0);
        assert_eq!(r.hits_at_10, 1.0);
        assert!((r.mrr - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_zero_queries() {
        let r = ranking_report(&[], &[], &[]);
        assert_eq!(r.n_queries, 0);
        assert_eq!(r.mrr, 0.0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let candidates = vec![c(0, 0), c(0, 1)];
        let scores = vec![0.5, 0.5];
        let truth = vec![false, true];
        let a = ranking_report(&candidates, &scores, &truth);
        let b = ranking_report(&candidates, &scores, &truth);
        assert_eq!(a, b);
        // Index order breaks the tie: candidate 0 first → true one ranked 2.
        assert!((a.mrr - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "score per candidate")]
    fn length_mismatch_panics() {
        ranking_report(&[c(0, 0)], &[], &[true]);
    }

    #[test]
    fn nan_scores_rank_last_instead_of_panicking() {
        // A degenerate fit scored one candidate NaN: the report must not
        // panic, and the NaN candidate must rank below every real score.
        let candidates = vec![c(0, 0), c(0, 1), c(0, 2)];
        let scores = vec![0.5, f64::NAN, 0.9];
        let truth = vec![true, false, false];
        let r = ranking_report(&candidates, &scores, &truth);
        assert_eq!(r.n_queries, 1);
        // True candidate (0.5) beats the NaN but loses to 0.9 → rank 2.
        assert_eq!(r.hits_at_1, 0.0);
        assert_eq!(r.hits_at_5, 1.0);
        assert!((r.mrr - 0.5).abs() < 1e-12);

        // All-NaN query: the true candidate ties at the bottom; ties break
        // by candidate order, so index 0 still ranks first. No panic.
        let all_nan = ranking_report(&[c(1, 0), c(1, 1)], &[f64::NAN, f64::NAN], &[true, false]);
        assert_eq!(all_nan.n_queries, 1);
        assert_eq!(all_nan.hits_at_1, 1.0);
    }
}
