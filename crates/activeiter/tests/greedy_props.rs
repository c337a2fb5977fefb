//! Property tests for the greedy cardinality-constrained selection: validity
//! of the matching, the ½-approximation bound against an exact matcher, and
//! fixed-label handling — on randomized instances with sparse large user
//! ids and tied scores, plus bit-equality with a hash-set restatement.

use activeiter::greedy::{greedy_select, optimal_select, Selection};
use hetnet::UserId;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Up to `max_links - 1` distinct candidate pairs (possibly none) over
/// `max_users` sparse user ids per side below 10⁴, with scores on a coarse
/// grid so many tie (and some sit exactly on the 0.5 threshold).
fn instance(
    max_links: usize,
    max_users: usize,
) -> impl Strategy<Value = (Vec<(UserId, UserId)>, Vec<f64>)> {
    (
        proptest::collection::vec(0..10_000u32, max_users),
        proptest::collection::vec(0..10_000u32, max_users),
        proptest::collection::vec((0..max_users, 0..max_users, 0..=20u32), 0..max_links),
    )
        .prop_map(|(lpool, rpool, triples)| {
            // Deduplicate candidate pairs (the harness never emits duplicates).
            let mut seen = HashSet::new();
            let mut cands = Vec::new();
            let mut scores = Vec::new();
            for (l, r, s) in triples {
                let pair = (UserId(lpool[l]), UserId(rpool[r]));
                if seen.insert(pair) {
                    cands.push(pair);
                    scores.push(s as f64 / 20.0);
                }
            }
            (cands, scores)
        })
}

/// The greedy restated with hash sets and a full stable sort: fixed
/// positives saturate their endpoints, then free links above the
/// threshold are scanned by descending score (ties by index).
fn greedy_reference(
    scores: &[f64],
    cands: &[(UserId, UserId)],
    fixed_pos: &[usize],
    fixed_neg: &[usize],
    threshold: f64,
) -> Selection {
    let mut labels = vec![0.0; cands.len()];
    let (mut left, mut right) = (HashSet::new(), HashSet::new());
    let fixed: HashSet<usize> = fixed_pos.iter().chain(fixed_neg).copied().collect();
    for &i in fixed_pos {
        labels[i] = 1.0;
        left.insert(cands[i].0);
        right.insert(cands[i].1);
    }
    let mut order: Vec<usize> = (0..cands.len())
        .filter(|i| !fixed.contains(i) && scores[*i] > threshold)
        .collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let mut weight = 0.0;
    for i in order {
        if !left.contains(&cands[i].0) && !right.contains(&cands[i].1) {
            labels[i] = 1.0;
            left.insert(cands[i].0);
            right.insert(cands[i].1);
            weight += 2.0 * scores[i] - 1.0;
        }
    }
    Selection { labels, weight }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_matches_the_hash_set_reference(
        (cands, scores) in instance(40, 12),
        picks in proptest::collection::vec((0usize..40, any::<bool>()), 0..4),
    ) {
        let (mut fixed_pos, mut fixed_neg) = (Vec::new(), Vec::new());
        if !cands.is_empty() {
            for (pick, positive) in picks {
                let i = pick % cands.len();
                if positive { fixed_pos.push(i) } else { fixed_neg.push(i) }
            }
        }
        prop_assert_eq!(
            greedy_select(&scores, &cands, &fixed_pos, &fixed_neg, 0.5),
            greedy_reference(&scores, &cands, &fixed_pos, &fixed_neg, 0.5)
        );
    }

    #[test]
    fn selection_is_a_valid_matching((cands, scores) in instance(40, 12)) {
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        let mut left = HashMap::new();
        let mut right = HashMap::new();
        for (i, &l) in sel.labels.iter().enumerate() {
            prop_assert!(l == 0.0 || l == 1.0);
            if l == 1.0 {
                prop_assert!(scores[i] > 0.5, "accepted below threshold");
                *left.entry(cands[i].0).or_insert(0) += 1;
                *right.entry(cands[i].1).or_insert(0) += 1;
            }
        }
        prop_assert!(left.values().all(|&d| d <= 1));
        prop_assert!(right.values().all(|&d| d <= 1));
    }

    #[test]
    fn greedy_achieves_half_of_optimal((cands, scores) in instance(14, 5)) {
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        let eligible = (0..cands.len()).filter(|&i| scores[i] > 0.5).count();
        prop_assume!(eligible <= 14);
        let opt = optimal_select(&scores, &cands, &[], &[], 0.5);
        prop_assert!(
            sel.weight >= 0.5 * opt - 1e-9,
            "greedy {} < half of optimal {}",
            sel.weight,
            opt
        );
    }

    #[test]
    fn greedy_is_maximal((cands, scores) in instance(40, 10)) {
        // No rejected above-threshold link could still be added.
        let sel = greedy_select(&scores, &cands, &[], &[], 0.5);
        let mut left: HashSet<UserId> = HashSet::new();
        let mut right: HashSet<UserId> = HashSet::new();
        for (i, &l) in sel.labels.iter().enumerate() {
            if l == 1.0 {
                left.insert(cands[i].0);
                right.insert(cands[i].1);
            }
        }
        for i in 0..cands.len() {
            if sel.labels[i] == 0.0 && scores[i] > 0.5 {
                prop_assert!(
                    left.contains(&cands[i].0) || right.contains(&cands[i].1),
                    "link {i} could have been added — greedy not maximal"
                );
            }
        }
    }

    #[test]
    fn fixed_positives_always_survive((cands, scores) in instance(30, 8), pick in 0usize..30) {
        prop_assume!(!cands.is_empty());
        let fixed = pick % cands.len();
        // Fixing a link keeps it positive regardless of score, and no other
        // accepted link may collide with it.
        let sel = greedy_select(&scores, &cands, &[fixed], &[], 0.5);
        prop_assert_eq!(sel.labels[fixed], 1.0);
        for (i, &l) in sel.labels.iter().enumerate() {
            if i != fixed && l == 1.0 {
                prop_assert!(cands[i].0 != cands[fixed].0);
                prop_assert!(cands[i].1 != cands[fixed].1);
            }
        }
    }

    #[test]
    fn fixed_negatives_never_selected((cands, scores) in instance(30, 8), pick in 0usize..30) {
        prop_assume!(!cands.is_empty());
        let fixed = pick % cands.len();
        let sel = greedy_select(&scores, &cands, &[], &[fixed], 0.5);
        prop_assert_eq!(sel.labels[fixed], 0.0);
    }

    #[test]
    fn raising_threshold_shrinks_selection((cands, scores) in instance(40, 10)) {
        let lo = greedy_select(&scores, &cands, &[], &[], 0.3);
        let hi = greedy_select(&scores, &cands, &[], &[], 0.7);
        let count = |s: &activeiter::greedy::Selection| {
            s.labels.iter().filter(|&&l| l == 1.0).count()
        };
        prop_assert!(count(&hi) <= count(&lo));
    }
}

#[test]
fn empty_candidate_set_selects_nothing() {
    let sel = greedy_select(&[], &[], &[], &[], 0.5);
    assert!(sel.labels.is_empty());
    assert_eq!(sel.weight, 0.0);
}
