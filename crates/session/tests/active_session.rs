//! Acceptance tests for the session-driven active loop: with a budget of
//! ≥ 20 queries, the catalog is fully counted **exactly once** (at session
//! build); every subsequent round flows through `update_anchors`, and the
//! delta path is bit-identical to counting and featurizing a fresh session
//! over the merged anchors every round (the full-count oracle).

use activeiter::query::RandomQuery;
use activeiter::{ActiveLoop, FitReport, ModelConfig, Oracle, VecOracle};
use hetnet::UserId;
use metadiagram::FeatureSet;
use proptest::prelude::*;
use session::{AlignmentSession, AnchorEdge, Featurized, SessionBuilder};

struct Problem {
    world: datagen::GeneratedWorld,
    candidates: Vec<(UserId, UserId)>,
    truth: Vec<bool>,
    labeled: Vec<usize>,
}

/// All ground-truth anchors as positives plus two rings of mismatched
/// pairs as negatives; the first 8 positives are labeled.
fn problem(seed: u64) -> Problem {
    let world = datagen::generate(&datagen::presets::tiny(seed));
    let links = world.truth().links().to_vec();
    let mut candidates: Vec<(UserId, UserId)> = links.iter().map(|l| (l.left, l.right)).collect();
    let mut truth = vec![true; candidates.len()];
    for shift in [1usize, 2] {
        for (a, b) in links.iter().zip(links.iter().cycle().skip(shift)) {
            candidates.push((a.left, b.right));
            truth.push(false);
        }
    }
    Problem {
        world,
        candidates,
        truth,
        labeled: (0..8).collect(),
    }
}

fn config() -> ModelConfig {
    ModelConfig {
        budget: 20,
        ..Default::default()
    }
}

/// A session counted over `anchors` and featurized over the candidates.
fn session_over(p: &Problem, anchors: Vec<AnchorEdge>) -> AlignmentSession<Featurized> {
    SessionBuilder::new(p.world.left(), p.world.right())
        .anchors(anchors)
        .count()
        .expect("generated networks share attribute universes")
        .featurize(p.candidates.clone())
}

fn train(p: &Problem) -> Vec<AnchorEdge> {
    p.labeled
        .iter()
        .map(|&i| p.world.truth().links()[i])
        .collect()
}

fn featurized(p: &Problem) -> AlignmentSession<Featurized> {
    session_over(p, train(p))
}

fn run(p: &Problem) -> (session::ActiveRunReport, metadiagram::DeltaStats) {
    let mut strategy = RandomQuery::new(99);
    let oracle = VecOracle::new(p.truth.clone());
    let (fitted, report) = featurized(p)
        .run_active(p.labeled.clone(), &oracle, &mut strategy, &config())
        .expect("candidates live in the networks' universe");
    let stats = fitted.stats();
    (report, stats)
}

/// The reference loop: the same rounds as `run_active`, but every round
/// that merges new anchors replaces the session with a fresh one counted
/// and featurized over the merged anchors (the full-count oracle) instead
/// of taking the delta path. Returns the fit, the full counts paid and the
/// total anchors merged.
fn run_full_recount(p: &Problem) -> (FitReport, usize, usize) {
    let mut merged = train(p);
    let mut session = session_over(p, merged.clone());
    let mut full_counts = 1;
    let mut strategy = RandomQuery::new(99);
    let oracle = VecOracle::new(p.truth.clone());
    let mut drv = ActiveLoop::new(session.instance(p.labeled.clone()), config());
    let mut applied = 0;
    loop {
        drv.converge();
        if drv.remaining() == 0 {
            break;
        }
        let selection = drv.select_queries(&mut strategy);
        if selection.is_empty() {
            break;
        }
        let mut confirmed: Vec<AnchorEdge> = Vec::new();
        for idx in selection {
            let answer = oracle.label(idx);
            drv.apply_answer(idx, answer);
            if answer {
                let (l, r) = session.candidates()[idx];
                confirmed.push(AnchorEdge::new(l, r));
            }
        }
        if !confirmed.is_empty() {
            // The anchor matrix is binary: a repeated link counts once.
            merged.extend(confirmed);
            let fresh = session_over(p, merged.clone());
            let n = fresh.n_anchors() - session.n_anchors();
            if n > 0 {
                session = fresh;
                full_counts += 1;
                drv.replace_features(&session.features().x);
            }
            applied += n;
        }
    }
    (drv.finish(), full_counts, applied)
}

fn f1(labels: &[f64], truth: &[bool]) -> f64 {
    let (mut tp, mut f_p, mut f_n) = (0.0, 0.0, 0.0);
    for (&l, &t) in labels.iter().zip(truth) {
        match (l == 1.0, t) {
            (true, true) => tp += 1.0,
            (true, false) => f_p += 1.0,
            (false, true) => f_n += 1.0,
            (false, false) => {}
        }
    }
    2.0 * tp / (2.0 * tp + f_p + f_n)
}

#[test]
fn delta_loop_counts_once_and_matches_full_recount_bit_for_bit() {
    let p = problem(41);
    let (delta_run, delta_stats) = run(&p);
    let (full_fit, full_counts, full_applied) = run_full_recount(&p);

    // Budget ≥ 20 actually spent across multiple rounds.
    assert_eq!(delta_run.fit.queried.len(), 20, "budget fully consumed");
    assert!(delta_run.rounds.len() >= 4, "batch 5 → at least 4 rounds");
    let confirming_rounds = delta_run
        .rounds
        .iter()
        .filter(|r| r.anchors_applied > 0)
        .count();
    assert!(confirming_rounds >= 1, "some positives must be confirmed");

    // The tentpole guarantee: full catalog counting happened exactly once
    // for the delta loop — every later round went through update_anchors.
    assert_eq!(delta_stats.full_counts, 1);
    assert_eq!(delta_stats.delta_updates, confirming_rounds);
    // The reference loop counted afresh every confirming round instead.
    assert_eq!(full_counts, 1 + confirming_rounds);
    assert_eq!(
        delta_stats.anchors_applied, full_applied,
        "both loops merged the same anchors"
    );

    // Bit-identical models: labels, scores, query trajectory — hence F1.
    assert_eq!(delta_run.fit.queried, full_fit.queried);
    assert_eq!(delta_run.fit.labels, full_fit.labels);
    assert_eq!(delta_run.fit.scores, full_fit.scores);
    assert_eq!(delta_run.fit.weights, full_fit.weights);
    let (df1, ff1) = (
        f1(&delta_run.fit.labels, &p.truth),
        f1(&full_fit.labels, &p.truth),
    );
    assert_eq!(df1, ff1, "F1 must be bit-identical");
    assert!(df1 > 0.0, "the fit should find something");
    assert_eq!(delta_run.total_anchors_applied(), full_applied);
}

#[test]
fn session_loop_is_deterministic_under_seed() {
    let p = problem(43);
    let (a, _) = run(&p);
    let (b, _) = run(&p);
    assert_eq!(a.fit.labels, b.fit.labels);
    assert_eq!(a.fit.queried, b.fit.queried);
    // Round bookkeeping is deterministic apart from wall-clock.
    assert_eq!(a.rounds.len(), b.rounds.len());
    for (ra, rb) in a.rounds.iter().zip(b.rounds.iter()) {
        assert_eq!(
            (ra.queried, ra.confirmed, ra.anchors_applied),
            (rb.queried, rb.confirmed, rb.anchors_applied)
        );
    }
}

#[test]
fn feature_refresh_feeds_back_into_later_rounds() {
    // The refreshed features must actually differ from the static-feature
    // fit: confirmed anchors strengthen P1–P4 signals mid-loop.
    let p = problem(47);
    let (run_report, _) = run(&p);
    let mut strategy = RandomQuery::new(99);
    let static_fit = featurized(&p)
        .fit(
            p.labeled.clone(),
            &VecOracle::new(p.truth.clone()),
            &config(),
            &mut strategy,
        )
        .into_report();
    // Same query trajectory start, but the refreshed loop re-scores with
    // updated features — the score vectors must diverge somewhere.
    assert_ne!(
        run_report.fit.scores, static_fit.scores,
        "anchor feedback had no effect on the features"
    );
}

fn feature_set(pick: u8) -> FeatureSet {
    match pick % 4 {
        0 => FeatureSet::MetaPathsOnly,
        1 => FeatureSet::PathsAndSocialDiagrams,
        2 => FeatureSet::PathsAndAttrDiagram,
        _ => FeatureSet::Full,
    }
}

fn edges(pairs: &[(u32, u32)]) -> Vec<AnchorEdge> {
    pairs
        .iter()
        .map(|&(l, r)| AnchorEdge::new(UserId(l), UserId(r)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The per-user candidate index must reach every candidate a touched
    /// row or column moves: after random `update_anchors` batches the
    /// features equal a fresh count over the merged anchors, bit for bit.
    /// Candidate lists repeat users and whole pairs on purpose.
    #[test]
    fn featurized_updates_are_bit_equal_to_a_fresh_featurization(
        seed in 0u64..3,
        initial_k in 1usize..20,
        set_pick in 0u8..4,
        pairs in proptest::collection::vec((0u32..38, 0u32..40), 1..60),
        repeats in 1usize..20,
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..38, 0u32..40), 1..8),
            1..4
        ),
        threads in 1usize..4
    ) {
        let w = datagen::generate(&datagen::presets::tiny(13 + seed * 5));
        let initial = w.truth().links()[..initial_k].to_vec();
        // Truth pairs, random pairs, then a prefix of the random pairs
        // again: users recur across rows and some pairs are duplicates.
        let mut candidates: Vec<(UserId, UserId)> =
            initial.iter().map(|l| (l.left, l.right)).collect();
        candidates.extend(pairs.iter().map(|&(l, r)| (UserId(l), UserId(r))));
        candidates.extend_from_within(initial_k..initial_k + repeats.min(pairs.len()));

        let build = |anchors: Vec<AnchorEdge>| {
            SessionBuilder::new(w.left(), w.right())
                .anchors(anchors)
                .feature_set(feature_set(set_pick))
                .threading(sparsela::Threading::Threads(threads))
                .count()
                .unwrap()
                .featurize(candidates.clone())
        };
        let mut live = build(initial.clone());
        let mut merged = initial;
        for batch in &batches {
            let batch = edges(batch);
            live.update_anchors(&batch).unwrap();
            merged.extend_from_slice(&batch);
            let fresh = build(merged.clone());
            let bits = |s: &AlignmentSession<Featurized>| -> Vec<u64> {
                s.features().x.data().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&live), bits(&fresh));
        }
        prop_assert_eq!(live.stats().full_counts, 1);
    }
}
