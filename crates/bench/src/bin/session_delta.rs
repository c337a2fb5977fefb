//! Per-round recount cost of the session-driven active loop: the sparse
//! low-rank delta path (`update_anchors`: `C += L·ΔA·R`, the touched-region
//! Dice patch and the entry-local feature re-gather) against the
//! full-count oracle (a fresh `SessionBuilder::count` and `featurize` over
//! the merged anchors, sharing the networks' factor chains and anchor-free
//! counts as every later build over the same networks does), at several
//! confirmed-batch sizes and scales.
//!
//! What is enforced: bit-identical results, asserted here on every
//! scenario's setup; and wall-clock through `perf_gate --paired
//! delta:full`, which pairs the two cells of one run and fails a delta
//! cell only when it exceeds its full cell by more than the tolerance
//! (0.5 in CI) and by more than the slack (15 ms). The delta path is not
//! faster at every batch size: on a 2-vCPU host, table4-b20 read delta
//! 8.18 ms against full 6.30 ms, and tiny-b5/b20 were slower too, so
//! those cells pass only inside the slack. Porting this pair to a
//! within-run perfbench cell with a measured tolerance is on ROADMAP's
//! benchmark item.
//!
//! The bin writes `BENCH_session_delta.json` (mean wall-clock per path ×
//! scale × batch size, tiny and table IV) into the working directory, so
//! the perf-trajectory gate tracks the round cost across runs:
//!
//! ```sh
//! cargo run --release -p bench --bin session_delta
//! ```

use bench::record::BenchRecorder;
use eval::MetricSummary;
use hetnet::AnchorLink;
use session::{AlignmentSession, Featurized, SessionBuilder};
use std::time::{Duration, Instant};

struct Scenario {
    world: datagen::GeneratedWorld,
    train: Vec<AnchorLink>,
    held_out: Vec<AnchorLink>,
    candidates: Vec<(hetnet::UserId, hetnet::UserId)>,
}

fn scenario(cfg: &datagen::GeneratorConfig) -> Scenario {
    let world = datagen::generate(cfg);
    let links = world.truth().links().to_vec();
    let split = links.len() / 3;
    let candidates = links.iter().map(|l| (l.left, l.right)).collect();
    Scenario {
        train: links[..split].to_vec(),
        held_out: links[split..].to_vec(),
        world,
        candidates,
    }
}

/// A featurized session over `anchors`. The delta arm opens one per
/// scenario over the training anchors and clones it per iteration
/// (sessions are value-like), so its build is setup, not measured work.
fn open(s: &Scenario, anchors: Vec<AnchorLink>) -> AlignmentSession<Featurized> {
    SessionBuilder::new(s.world.left(), s.world.right())
        .anchors(anchors)
        .count()
        .expect("generated networks share attribute universes")
        .featurize(s.candidates.clone())
}

/// One round of the full-count oracle: a fresh session counted and
/// featurized over the training anchors plus `batch`.
fn full_round(s: &Scenario, batch: &[AnchorLink]) -> AlignmentSession<Featurized> {
    open(s, s.train.iter().chain(batch).copied().collect())
}

/// The delta path must be bit-identical to the full-count oracle; only
/// the cost differs.
fn assert_delta_matches_full(s: &Scenario) {
    let batch = &s.held_out[..5.min(s.held_out.len())];
    let mut delta = open(s, s.train.clone());
    delta.update_anchors(batch).unwrap();
    let full = full_round(s, batch);
    assert_eq!(delta.features().x.data(), full.features().x.data());
    for i in 0..delta.catalog().len() {
        assert_eq!(delta.proximity_of(i), full.proximity_of(i));
        assert_eq!(delta.count_of(i), full.count_of(i));
    }
}

/// Mean wall-clock of one measured `round`. Neither `setup`, which makes
/// the round's input, nor dropping the round's output is timed.
fn time_rounds<I, O>(
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut round: impl FnMut(I) -> O,
) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..samples {
        let input = setup();
        let start = Instant::now();
        let output = round(input);
        total += start.elapsed();
        drop(output);
    }
    total / samples as u32
}

/// Writes `BENCH_session_delta.json`: one `delta` and one `full` cell per
/// scale × batch size, which the perf-trajectory gate carries forward and
/// pairs within a single run (`perf_gate --paired delta:full`).
fn write_records() {
    let mut recorder = BenchRecorder::new("session_delta");
    let no_f1 = MetricSummary {
        mean: f64::NAN,
        std: 0.0,
    };
    for (scale, cfg, samples) in [
        ("tiny", datagen::presets::tiny(5), 20usize),
        ("table4", datagen::presets::paper_scale(200, 5), 10),
    ] {
        let s = scenario(&cfg);
        assert_delta_matches_full(&s);
        let base = open(&s, s.train.clone());
        for batch_size in [1usize, 5, 20] {
            let batch: Vec<AnchorLink> = s.held_out[..batch_size.min(s.held_out.len())].to_vec();
            let cell = format!("{scale}-b{batch_size}");
            let delta = time_rounds(
                samples,
                || base.clone(),
                |mut session| {
                    session.update_anchors(&batch).unwrap();
                    session
                },
            );
            recorder.record("delta", &cell, no_f1, delta);
            let full = time_rounds(samples, || (), |()| full_round(&s, &batch));
            recorder.record("full", cell, no_f1, full);
        }
    }

    let path = recorder.write().expect("BENCH_session_delta.json written");
    println!("wrote {}", path.display());
}

fn main() {
    write_records();
}
