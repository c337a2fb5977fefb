//! Active querying through the session API: per-round recount timings.
//!
//! Builds one world, opens a session, and drives the ActiveIter loop with
//! per-round anchor feedback. Every round applies the sparse low-rank
//! update `C += L·ΔA·R`, whose cost scales with the handful of anchors the
//! oracle just confirmed. The downstream refresh is delta-aware too: no
//! proximity matrix is stored or rebuilt — only the feature entries of
//! candidates in a touched row or column are re-read, each as one Dice
//! score from the counts and their maintained margin sums (no `O(nnz)`
//! denominator rescan), so the printed per-round recount-ms covers
//! counting *and* normalization.
//!
//! The session counts the full catalog exactly once, at build. The
//! delta-vs-full-recount cost comparison lives in the `session_delta`
//! bin (`cargo run --release -p bench --bin session_delta`).
//!
//! ```sh
//! cargo run --release --example active_query_demo
//! ```

use social_align::prelude::*;
use std::time::Duration;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let world = datagen::generate(&datagen::presets::small(42));
    let links = world.truth().links().to_vec();

    // Candidate set: all true anchors plus three rings of mismatched pairs.
    let mut candidates: Vec<(UserId, UserId)> = links.iter().map(|l| (l.left, l.right)).collect();
    for shift in [1usize, 2, 3] {
        for (a, b) in links.iter().zip(links.iter().cycle().skip(shift)) {
            candidates.push((a.left, b.right));
        }
    }
    let truth: Vec<bool> = (0..candidates.len()).map(|i| i < links.len()).collect();
    let labeled: Vec<usize> = (0..links.len() / 10).collect();
    let train: Vec<AnchorLink> = labeled.iter().map(|&i| links[i]).collect();

    let config = ModelConfig {
        budget: 30,
        ..Default::default()
    };
    println!(
        "world: {} + {} users, {} candidates, {} labeled anchors, budget {}\n",
        world.left().n_users(),
        world.right().n_users(),
        candidates.len(),
        labeled.len(),
        config.budget
    );

    let build_start = std::time::Instant::now();
    let session = SessionBuilder::new(world.left(), world.right())
        .anchors(train)
        .count()
        .expect("generated networks share attribute universes")
        .featurize(candidates);
    let build_time = build_start.elapsed();

    let mut strategy = activeiter::query::RandomQuery::new(7);
    let oracle = VecOracle::new(truth);
    let (fitted, run) = session
        .run_active(labeled, &oracle, &mut strategy, &config)
        .expect("candidates live in the networks' universe");

    println!("build + first full count: {:.1} ms", ms(build_time));
    println!("  round  queried  confirmed  recount-ms");
    for (i, r) in run.rounds.iter().enumerate() {
        println!(
            "  {:>5}  {:>7}  {:>9}  {:>10.2}",
            i + 1,
            r.queried,
            r.confirmed,
            ms(r.recount_time)
        );
    }
    let stats = fitted.stats();
    println!(
        "  totals: {:.2} ms recounting, {} anchors merged, \
         full catalog counts = {}, delta updates = {}",
        ms(run.total_recount_time()),
        run.total_anchors_applied(),
        stats.full_counts,
        stats.delta_updates,
    );
    assert_eq!(
        stats.full_counts, 1,
        "every round must go through the delta path"
    );
}
