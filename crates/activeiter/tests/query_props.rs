//! Property tests for the ranked query strategies: each one must return
//! exactly "sort every eligible candidate by the strategy's comparator,
//! then truncate to the batch" — ConflictQuery (tiered and strict),
//! TopScoreQuery and UncertaintyQuery — on instances with sparse large
//! user ids, tied scores, NaN and ±∞, at every batch from 0 to n + 1.

use activeiter::query::{TopScoreQuery, UncertaintyQuery};
use activeiter::{ConflictQuery, QueryContext, QueryStrategy, RandomQuery};
use hetnet::UserId;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;

/// One strategy input, owned.
#[derive(Debug, Clone)]
struct Instance {
    candidates: Vec<(UserId, UserId)>,
    scores: Vec<f64>,
    labels: Vec<f64>,
    queryable: Vec<bool>,
    threshold: f64,
    positive_scale: f64,
}

impl Instance {
    fn ctx(&self, batch: usize) -> QueryContext<'_> {
        QueryContext {
            scores: &self.scores,
            labels: &self.labels,
            candidates: &self.candidates,
            queryable: &self.queryable,
            threshold: self.threshold,
            positive_scale: self.positive_scale,
            batch,
        }
    }
}

/// Scores drawn from a coarse grid (many exact ties), the unit interval,
/// negatives, NaN and both infinities.
fn score() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (0..8u32).prop_map(|k| k as f64 / 8.0),
        4 => 0.0..1.0,
        1 => -1.0..0.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

/// Candidates whose endpoints come from small pools of sparse ids below
/// 10⁴, so endpoints collide (conflicts) while the id tables stay sparse.
/// Labels and the queryable mask are arbitrary.
fn instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec(0..10_000u32, 1..8),
        proptest::collection::vec(0..10_000u32, 1..8),
        proptest::collection::vec(
            (
                any::<usize>(),
                any::<usize>(),
                score(),
                any::<bool>(),
                any::<bool>(),
            ),
            0..40,
        ),
        0.0..1.0,
        0.25..2.0,
    )
        .prop_map(|(lpool, rpool, rows, threshold, positive_scale)| {
            let mut inst = Instance {
                candidates: Vec::new(),
                scores: Vec::new(),
                labels: Vec::new(),
                queryable: Vec::new(),
                threshold,
                positive_scale,
            };
            for (l, r, s, positive, queryable) in rows {
                inst.candidates.push((
                    UserId(lpool[l % lpool.len()]),
                    UserId(rpool[r % rpool.len()]),
                ));
                inst.scores.push(s);
                inst.labels.push(if positive { 1.0 } else { 0.0 });
                inst.queryable.push(queryable);
            }
            inst
        })
}

/// The reference order: real values by `total_cmp` (descending or
/// ascending), every NaN after every real value, NaNs tied.
fn nan_last(a: f64, b: f64, descending: bool) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) if descending => b.total_cmp(&a),
        (false, false) => a.total_cmp(&b),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// Full sort of `(index, key)` by key (ties by index), truncated.
fn sorted_prefix(mut v: Vec<(usize, f64)>, descending: bool, batch: usize) -> Vec<usize> {
    v.sort_by(|a, b| nan_last(a.1, b.1, descending).then(a.0.cmp(&b.0)));
    v.into_iter().take(batch).map(|(i, _)| i).collect()
}

/// The conflict strategy restated with hash maps and full sorts: classify
/// every queryable negative into its tier, sort each tier whole, then take
/// the batch from the concatenation.
fn conflict_reference(
    inst: &Instance,
    tau: f64,
    delta: f64,
    fallback: bool,
    batch: usize,
) -> Vec<usize> {
    let mut left_pos = HashMap::new();
    let mut right_pos = HashMap::new();
    for (i, &lab) in inst.labels.iter().enumerate() {
        if lab == 1.0 {
            left_pos.insert(inst.candidates[i].0, i);
            right_pos.insert(inst.candidates[i].1, i);
        }
    }
    let (tau, delta) = (tau * inst.positive_scale, delta * inst.positive_scale);
    let s = &inst.scores;
    let mut tiers: [Vec<(usize, f64)>; 3] = Default::default();
    for i in 0..inst.candidates.len() {
        if !inst.queryable[i] || inst.labels[i] == 1.0 {
            continue;
        }
        let yi = s[i];
        let cl = left_pos.get(&inst.candidates[i].0).copied();
        let cr = right_pos.get(&inst.candidates[i].1).copied();
        let mut gain: Option<f64> = None;
        if let (Some(a), Some(b)) = (cl, cr) {
            for (near, far) in [(a, b), (b, a)] {
                let g = yi - s[far];
                if a != b && (s[near] - yi).abs() <= tau && g > delta && s[far] > 0.0 {
                    gain = Some(gain.map_or(g, |best| best.max(g)));
                }
            }
        }
        let near_one_side = [cl, cr]
            .into_iter()
            .flatten()
            .any(|w| (s[w] - yi).abs() <= tau && yi > 0.0);
        match gain {
            Some(g) => tiers[0].push((i, g)),
            None if near_one_side => tiers[1].push((i, yi)),
            None => tiers[2].push((i, yi)),
        }
    }
    let n_tiers = if fallback { 3 } else { 1 };
    let ranked: Vec<usize> = tiers
        .into_iter()
        .take(n_tiers)
        .flat_map(|tier| sorted_prefix(tier, true, usize::MAX))
        .collect();
    ranked.into_iter().take(batch).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn conflict_is_the_full_tier_sort_truncated(
        inst in instance(),
        tau in 0.0..0.3,
        delta in 0.0..0.3,
    ) {
        for batch in 0..=inst.candidates.len() + 1 {
            for fallback in [true, false] {
                let mut s = if fallback {
                    ConflictQuery::new(tau, delta)
                } else {
                    ConflictQuery::strict(tau, delta)
                };
                prop_assert_eq!(
                    s.select(&inst.ctx(batch)),
                    conflict_reference(&inst, tau, delta, fallback, batch),
                    "fallback = {}, batch = {}", fallback, batch
                );
            }
        }
    }

    #[test]
    fn top_score_is_the_full_sort_truncated(inst in instance()) {
        let negatives: Vec<(usize, f64)> = (0..inst.candidates.len())
            .filter(|&i| inst.queryable[i] && inst.labels[i] == 0.0)
            .map(|i| (i, inst.scores[i]))
            .collect();
        for batch in 0..=inst.candidates.len() + 1 {
            prop_assert_eq!(
                TopScoreQuery.select(&inst.ctx(batch)),
                sorted_prefix(negatives.clone(), true, batch),
                "batch = {}", batch
            );
        }
    }

    #[test]
    fn uncertainty_is_the_full_sort_truncated(inst in instance()) {
        let distances: Vec<(usize, f64)> = (0..inst.candidates.len())
            .filter(|&i| inst.queryable[i])
            .map(|i| (i, (inst.scores[i] - inst.threshold).abs()))
            .collect();
        for batch in 0..=inst.candidates.len() + 1 {
            prop_assert_eq!(
                UncertaintyQuery.select(&inst.ctx(batch)),
                sorted_prefix(distances.clone(), false, batch),
                "batch = {}", batch
            );
        }
    }
}

#[test]
fn every_strategy_selects_nothing_from_an_empty_candidate_set() {
    let empty = Instance {
        candidates: Vec::new(),
        scores: Vec::new(),
        labels: Vec::new(),
        queryable: Vec::new(),
        threshold: 0.5,
        positive_scale: 1.0,
    };
    let mut strategies: Vec<Box<dyn QueryStrategy>> = vec![
        Box::new(ConflictQuery::new(0.05, 0.05)),
        Box::new(ConflictQuery::strict(0.05, 0.05)),
        Box::new(TopScoreQuery),
        Box::new(UncertaintyQuery),
        Box::new(RandomQuery::new(1)),
    ];
    for s in &mut strategies {
        for batch in 0..3 {
            assert!(s.select(&empty.ctx(batch)).is_empty());
        }
    }
}
