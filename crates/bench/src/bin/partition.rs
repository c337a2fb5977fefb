//! Global vs **partition-sharded** alignment wall-clock across scales
//! (ISSUE 7 / ROADMAP "partition-sharded alignment").
//!
//! The scaling claim under test: the single global pipeline (one catalog
//! count over the full anchor space, one feature matrix, one active loop)
//! scales with whole-network size, while the sharded pipeline
//! (`session::sharded::ShardedSession` — detect communities, match them
//! across the networks, one pooled session per matched pair, stitch) pays
//! `k` community-sized problems that also run concurrently. The bin runs
//! both end to end (count → featurize → fit) on community-structured
//! worlds (`datagen::presets::community_scale`) at a ladder of multiples
//! of the table IV scale and writes `BENCH_partition.json` with both
//! methods sharing each scale cell, so the CI perf gate can pair them
//! (`perf_gate --paired sharded:global`).
//!
//! Partitioning is held at the generator's **latent block assignment**
//! (`ShardedSession::with_partitions` over `datagen::follow::community_of`):
//! the claim under test is how the sharded *pipeline* scales, and pinning
//! the maps keeps shard balance comparable across rungs. Label-propagation
//! recovery of latent blocks is covered by
//! `crates/datagen/tests/partition_induction.rs`; on these
//! preferential-attachment worlds its hub-bridged merges would fold rungs
//! into one giant shard and measure detection quality instead of scaling.
//!
//! The tiny rung exists for CI smoke coverage: at that size the fixed
//! partition/match overhead dominates, so it records without asserting.
//! The crossover lands within the quick ladder and widens with scale.
//!
//! ```sh
//! cargo run --release -p bench --bin partition [-- --tiny | --full]
//! ```

use activeiter::driver::ActiveLoop;
use activeiter::query::ConflictQuery;
use activeiter::{ModelConfig, VecOracle};
use eval::MetricSummary;
use hetnet::partition::PartitionMap;
use hetnet::UserId;
use session::sharded::{ShardedConfig, ShardedSession};
use session::SessionBuilder;
use std::time::{Duration, Instant};

/// One ladder rung: display label, table-IV multiple, community count.
struct Rung {
    label: &'static str,
    n_shared: usize,
    k: usize,
}

fn main() {
    let opts = bench::HarnessOpts::from_args();
    // The paper's table IV world has 250 shared users; community counts
    // follow the preset's k ≈ n/650 guidance (floored at 2 so the tiny
    // smoke rung still shards).
    let ladder: Vec<Rung> = match opts.scale {
        bench::Scale::Tiny => vec![Rung {
            label: "tiny",
            n_shared: 80,
            k: 2,
        }],
        bench::Scale::Quick => vec![
            Rung {
                label: "x1",
                n_shared: 250,
                k: 2,
            },
            Rung {
                label: "x4",
                n_shared: 1000,
                k: 3,
            },
        ],
        bench::Scale::Full => vec![
            Rung {
                label: "x1",
                n_shared: 250,
                k: 2,
            },
            Rung {
                label: "x4",
                n_shared: 1000,
                k: 3,
            },
            Rung {
                label: "x16",
                n_shared: 4000,
                k: 6,
            },
            Rung {
                label: "x64",
                n_shared: 16000,
                k: 25,
            },
        ],
    };

    let threads = eval::effective_threads(opts.threads);
    let config = ModelConfig {
        budget: 20,
        ..Default::default()
    };
    let no_f1 = MetricSummary {
        mean: f64::NAN,
        std: 0.0,
    };
    let mut recorder = opts.recorder("partition");
    recorder.annotate("budget", config.budget);

    println!(
        "partition bench — {} scale, {threads} threads",
        opts.scale.name()
    );
    let mut last: Option<(Duration, Duration, usize)> = None;
    for rung in &ladder {
        // community_scale defaults model messy real-world blocks; the
        // bench sharpens them (stronger bias, less noise) so label
        // propagation recovers the planted structure on the sparser right
        // network too — the claim under test is scaling, not detection
        // robustness.
        let world = datagen::generate(&datagen::GeneratorConfig {
            community_bias: 0.93,
            noise_edge_frac: 0.02,
            ..datagen::presets::community_scale(rung.n_shared, rung.k, opts.seed)
        });
        let links = world.truth().links().to_vec();
        // Train on every third anchor: a stratified ~33% sample whose
        // votes cover every block pair, so the matcher's hard constraints
        // pin all k pairings (a contiguous prefix would only vote for the
        // first block).
        let train: Vec<_> = links.iter().copied().step_by(3).collect();
        let candidates: Vec<(UserId, UserId)> = links.iter().map(|l| (l.left, l.right)).collect();
        let labeled: Vec<usize> = (0..links.len()).step_by(3).collect();
        let truth = vec![true; candidates.len()];

        // Global: one session over the whole pair, the same loop the
        // sharded fit drives per shard.
        let t = Instant::now();
        let session = SessionBuilder::new(world.left(), world.right())
            .anchors(train.clone())
            .threading(metadiagram::Threading::Threads(threads))
            .count()
            .expect("generated networks share attribute universes")
            .featurize(candidates.clone());
        let oracle = VecOracle::new(truth.clone());
        let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
        let report = ActiveLoop::new(session.instance(labeled.clone()), config.clone())
            .run(&mut strategy, &oracle);
        // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
        let global_positives = report.labels.iter().filter(|&&l| l == 1.0).count();
        let global = t.elapsed();
        drop(session);

        // Sharded: latent-block maps → match → per-shard
        // count/featurize/fit → stitch. Shared users take their planted
        // block (right-side indices go through the generator's σ
        // permutation); the extra (unshared) users spread round-robin so
        // no block is starved.
        let n_shared = rung.n_shared;
        let block_of = |shared: usize| datagen::follow::community_of(shared, n_shared, rung.k);
        let left_assign: Vec<usize> = (0..world.left().n_users())
            .map(|u| {
                if u < n_shared {
                    block_of(u)
                } else {
                    u % rung.k
                }
            })
            .collect();
        let mut right_assign: Vec<usize> =
            (0..world.right().n_users()).map(|u| u % rung.k).collect();
        for (i, &r) in world.sigma.iter().enumerate() {
            right_assign[r] = block_of(i);
        }
        let t = Instant::now();
        let mut sharded = ShardedSession::with_partitions(
            world.left(),
            world.right(),
            PartitionMap::from_assignment(&left_assign),
            PartitionMap::from_assignment(&right_assign),
            train.clone(),
            &ShardedConfig {
                workers: opts.threads,
                ..Default::default()
            },
        )
        .expect("sharded build");
        let routing = sharded.featurize(candidates.clone()).expect("featurize");
        let stitched = sharded
            .fit(&labeled, &VecOracle::new(truth), &config)
            .expect("fit");
        let sharded_wall = t.elapsed();

        recorder.record("global", rung.label, no_f1, global);
        recorder.record("sharded", rung.label, no_f1, sharded_wall);
        println!(
            "  {:>5} ({:>6} users/side): global {:>10.2?} ({} links) | sharded {:>10.2?} ({} shards, {} links, {} routed/{} pruned)",
            rung.label,
            rung.n_shared,
            global,
            global_positives,
            sharded_wall,
            sharded.n_shards(),
            stitched.links.len(),
            routing.routed,
            routing.pruned
        );
        last = Some((global, sharded_wall, sharded.n_shards()));
    }

    let json = recorder.write().expect("write BENCH_partition.json");
    println!("record: {}", json.display());

    // The scaling claim holds where sharding is for: the top of the
    // ladder, where each shard is itself a paper-sized problem. The tiny
    // smoke rung is dominated by fixed partition/match overhead, so it
    // records without asserting.
    if opts.scale != bench::Scale::Tiny {
        let (global, sharded_wall, n_shards) = last.expect("ladder is non-empty");
        assert!(
            n_shards > 1,
            "the top rung must actually shard (got {n_shards} shard)"
        );
        assert!(
            sharded_wall < global,
            "sharded ({sharded_wall:?}) must beat global ({global:?}) at the top rung"
        );
    }
}
