//! The paper's conflict-based false-negative query strategy (§III-D,
//! external iteration step 2).
//!
//! Candidate set:
//!
//! ```text
//! C = { l ∈ U⁻ | ∃ l′, l″ ∈ U⁺ conflicting with l,  ŷ_l′ ∼ ŷ_l ≫ ŷ_l″ > 0 }
//! ```
//!
//! A negative link `l` qualifies when one conflicting positive `l′` sits
//! within `τ` of `l`'s own score (so `l` lost the matching *narrowly* — a
//! plausible false negative) while another conflicting positive `l″` scores
//! clearly below `l` (so flipping `l` to positive would also evict a weak
//! winner — one query corrects several labels). Under the one-to-one
//! constraint each endpoint carries at most one positive, so `l′`/`l″` are
//! the positives at `l`'s two endpoints, in either role. Candidates are
//! ranked by `ŷ_l − ŷ_l″` and the top `k` are queried.
//!
//! **Fallback tiers.** The paper does not say what happens when `|C| < k`;
//! taken literally the remaining budget would be silently surrendered, yet
//! Fig. 5 shows performance improving all the way to `b = 100`. The default
//! strategy therefore fills the batch in tiers — (1) the strict conflict
//! set, (2) negatives that lost to a single conflicting winner narrowly
//! (one-sided near-ties), (3) the highest-scored remaining negatives — all
//! still "likely false negatives" in the paper's sense. The strict,
//! no-fallback variant is kept for the query-strategy ablation.

use super::{QueryContext, QueryStrategy};
use crate::ord::cmp_scores_desc;
use std::collections::{HashMap, HashSet};

/// The paper's query strategy (with tiered fallback by default).
#[derive(Debug, Clone)]
pub struct ConflictQuery {
    /// `∼` closeness threshold τ, as a fraction of the positive score scale.
    pub tau: f64,
    /// `≫` separation margin δ (same scale); the comparison is strict.
    pub delta: f64,
    /// Fill the batch from the fallback tiers when the strict set runs dry.
    pub fallback: bool,
}

impl ConflictQuery {
    /// Strategy with tiered fallback (the default model configuration).
    pub fn new(tau: f64, delta: f64) -> Self {
        ConflictQuery {
            tau,
            delta,
            fallback: true,
        }
    }

    /// The literal strict reading of the paper's candidate set (ablation).
    pub fn strict(tau: f64, delta: f64) -> Self {
        ConflictQuery {
            tau,
            delta,
            fallback: false,
        }
    }
}

impl QueryStrategy for ConflictQuery {
    fn select(&mut self, ctx: &QueryContext<'_>) -> Vec<usize> {
        // Positive link at each endpoint (one-to-one ⇒ at most one each).
        let mut left_pos: HashMap<u32, usize> = HashMap::new();
        let mut right_pos: HashMap<u32, usize> = HashMap::new();
        for (i, &lab) in ctx.labels.iter().enumerate() {
            // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
            if lab == 1.0 {
                left_pos.insert(ctx.candidates[i].0 .0, i);
                right_pos.insert(ctx.candidates[i].1 .0, i);
            }
        }
        // The paper's constants assume positive scores ≈ 1; multiply by the
        // current positive scale so the conditions are scale-invariant.
        let tau = self.tau * ctx.positive_scale;
        let delta = self.delta * ctx.positive_scale;

        // Tier 1: the strict conflict set, ranked by gain ŷ_l − ŷ_l″.
        let mut tier1: Vec<(usize, f64)> = Vec::new();
        // Tier 2: one-sided near-tie losers, ranked by score.
        let mut tier2: Vec<(usize, f64)> = Vec::new();
        // Tier 3: everything else queryable and negative, ranked by score.
        let mut tier3: Vec<(usize, f64)> = Vec::new();

        for i in 0..ctx.candidates.len() {
            // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
            if !ctx.queryable[i] || ctx.labels[i] == 1.0 {
                continue;
            }
            let (l, r) = ctx.candidates[i];
            let yi = ctx.scores[i];
            let cl = left_pos.get(&l.0).copied();
            let cr = right_pos.get(&r.0).copied();

            let mut best_gain: Option<f64> = None;
            if let (Some(cl), Some(cr)) = (cl, cr) {
                if cl != cr {
                    for (near, far) in [(cl, cr), (cr, cl)] {
                        let closeness = (ctx.scores[near] - yi).abs();
                        let gain = yi - ctx.scores[far];
                        if closeness <= tau && gain > delta && ctx.scores[far] > 0.0 {
                            best_gain = Some(best_gain.map_or(gain, |g: f64| g.max(gain)));
                        }
                    }
                }
            }
            if let Some(g) = best_gain {
                tier1.push((i, g));
                continue;
            }
            let near_one_side = [cl, cr]
                .into_iter()
                .flatten()
                .any(|w| (ctx.scores[w] - yi).abs() <= tau && yi > 0.0);
            if near_one_side {
                tier2.push((i, yi));
            } else {
                tier3.push((i, yi));
            }
        }

        let by_value_desc = |v: &mut Vec<(usize, f64)>| {
            v.sort_by(|a, b| cmp_scores_desc(a.1, b.1).then(a.0.cmp(&b.0)));
        };
        by_value_desc(&mut tier1);
        by_value_desc(&mut tier2);
        by_value_desc(&mut tier3);

        let mut out: Vec<usize> = Vec::with_capacity(ctx.batch);
        let mut seen: HashSet<usize> = HashSet::new();
        let tiers: &[Vec<(usize, f64)>] = if self.fallback {
            &[tier1, tier2, tier3]
        } else {
            &[tier1]
        };
        for tier in tiers {
            for &(i, _) in tier {
                if out.len() == ctx.batch {
                    return out;
                }
                if seen.insert(i) {
                    out.push(i);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{assert_valid_selection, testutil};
    use super::*;

    #[test]
    fn strict_picks_the_near_tie_false_negative() {
        let f = testutil::fixture();
        let mut s = ConflictQuery::strict(0.05, 0.05);
        let sel = s.select(&f.ctx(5));
        assert_valid_selection(&sel, &f.ctx(5));
        // Candidate 1 is the textbook case: lost to 0 by 0.02 (≤ τ) and
        // beats the weak winner 2 by 0.48 (> δ, and ŷ₂ = 0.30 > 0).
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn fallback_ranks_strict_candidates_first() {
        let f = testutil::fixture();
        let mut s = ConflictQuery::new(0.05, 0.05);
        let sel = s.select(&f.ctx(2));
        assert_eq!(sel[0], 1, "tier-1 candidate leads");
        assert_eq!(sel.len(), 2, "fallback fills the batch");
        assert_valid_selection(&sel, &f.ctx(2));
    }

    #[test]
    fn fallback_exhausts_pool_but_not_batch() {
        let f = testutil::fixture();
        let mut s = ConflictQuery::new(0.05, 0.05);
        // Only two negatives exist (1 and 4).
        let sel = s.select(&f.ctx(10));
        assert_eq!(sel, vec![1, 4]);
    }

    #[test]
    fn respects_batch_limit() {
        let f = testutil::fixture();
        let mut s = ConflictQuery::new(0.05, 0.05);
        let sel = s.select(&f.ctx(0));
        assert!(sel.is_empty());
    }

    #[test]
    fn strict_tau_gates_the_near_condition() {
        let f = testutil::fixture();
        // With τ = 0.001 the 0.02 gap no longer counts as "close".
        let mut s = ConflictQuery::strict(0.001, 0.05);
        assert!(s.select(&f.ctx(5)).is_empty());
    }

    #[test]
    fn strict_delta_gates_the_separation_condition() {
        let f = testutil::fixture();
        // Require a gain above 0.6 — the actual gain is 0.48.
        let mut s = ConflictQuery::strict(0.05, 0.6);
        assert!(s.select(&f.ctx(5)).is_empty());
    }

    #[test]
    fn skips_already_queried() {
        let mut f = testutil::fixture();
        f.queryable[1] = false;
        let mut s = ConflictQuery::strict(0.05, 0.05);
        assert!(s.select(&f.ctx(5)).is_empty());
        let mut s = ConflictQuery::new(0.05, 0.05);
        assert_eq!(
            s.select(&f.ctx(5)),
            vec![4],
            "fallback still respects the mask"
        );
    }

    #[test]
    fn strict_needs_conflicts_on_both_endpoints() {
        let mut f = testutil::fixture();
        f.labels[2] = 0.0; // right user 1 no longer has a positive
        let mut s = ConflictQuery::strict(0.05, 0.05);
        assert!(s.select(&f.ctx(5)).is_empty());
    }

    #[test]
    fn scale_invariance() {
        // Shrinking every score by 100× while scaling positive_scale the
        // same way must not change the selection.
        let f = testutil::fixture();
        let shrunk: Vec<f64> = f.scores.iter().map(|s| s / 100.0).collect();
        let ctx = QueryContext {
            scores: &shrunk,
            labels: &f.labels,
            candidates: &f.candidates,
            queryable: &f.queryable,
            threshold: 0.005,
            positive_scale: 0.01,
            batch: 5,
        };
        let mut s = ConflictQuery::strict(0.05, 0.05);
        assert_eq!(s.select(&ctx), vec![1]);
    }

    #[test]
    fn ranks_by_gain() {
        // Two strict candidates with different gains.
        use hetnet::UserId;
        let candidates = vec![
            (UserId(0), UserId(0)), // 0: + .80
            (UserId(0), UserId(1)), // 1: − .78, far winner at .30 → gain .48
            (UserId(2), UserId(1)), // 2: + .30
            (UserId(5), UserId(5)), // 3: + .70
            (UserId(5), UserId(6)), // 4: − .69, far winner at .60 → gain .09
            (UserId(7), UserId(6)), // 5: + .60
        ];
        let scores = vec![0.80, 0.78, 0.30, 0.70, 0.69, 0.60];
        let labels = vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        let queryable = vec![true; 6];
        let ctx = QueryContext {
            scores: &scores,
            labels: &labels,
            candidates: &candidates,
            queryable: &queryable,
            threshold: 0.5,
            positive_scale: 1.0,
            batch: 2,
        };
        let mut s = ConflictQuery::strict(0.05, 0.05);
        let sel = s.select(&ctx);
        assert_eq!(sel, vec![1, 4], "higher gain first");
        let ctx1 = QueryContext { batch: 1, ..ctx };
        assert_eq!(s.select(&ctx1), vec![1]);
    }
}
