//! Partition-sharded alignment on a community-structured world.
//!
//! One global session scales with whole-network size; the sharded
//! pipeline splits along community structure instead. This example walks
//! the whole story on a generated world with planted communities:
//!
//! 1. **Partition + match**: detect communities on both networks (seeded
//!    label propagation), match them across networks (WL-style structural
//!    signatures, known anchors as hard constraints), and spin one pooled
//!    `AlignmentSession` per matched pair — timed against the single
//!    global count.
//! 2. **Route + fit**: candidates are routed to the shard owning their
//!    partition pair, per-shard active loops fan out over the pool's
//!    workers, and the predictions are stitched into one alignment
//!    (boundary-ledger anchors win, conflicts at partition boundaries are
//!    counted).
//!
//! ```sh
//! cargo run --release --example sharded_alignment
//! ```

use social_align::prelude::*;
use std::collections::HashSet;
use std::time::Instant;

fn main() {
    // A community-structured world: latent blocks the detector recovers.
    let cfg = GeneratorConfig {
        n_communities: 4,
        community_bias: 0.97,
        noise_edge_frac: 0.02,
        ..datagen::presets::small(42)
    };
    let world = datagen::generate(&cfg);
    let links = world.truth().links().to_vec();
    let train = links[..links.len() / 3].to_vec();
    let candidates: Vec<(UserId, UserId)> = links.iter().map(|l| (l.left, l.right)).collect();
    let labeled: Vec<usize> = (0..train.len()).collect();
    let truth = vec![true; candidates.len()];
    let config = ModelConfig {
        budget: 20,
        ..Default::default()
    };

    // The global reference: one session over the whole pair.
    let t = Instant::now();
    let global = SessionBuilder::new(world.left(), world.right())
        .anchors(train.clone())
        .count()
        .expect("generated networks share attribute universes");
    let global_count_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(global);

    // 1. Partition, match, count per shard.
    let t = Instant::now();
    let mut sharded = ShardedSession::new(
        world.left(),
        world.right(),
        train.clone(),
        &ShardedConfig {
            partition: PartitionConfig {
                min_size: 12,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("sharded build");
    let shard_count_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "global count: {global_count_ms:7.2} ms | sharded count ({} shards): {shard_count_ms:7.2} ms",
        sharded.n_shards()
    );
    println!(
        "left partitions: {:?} | right partitions: {:?} | boundary-ledger anchors: {}",
        sharded.left_partitions().sizes(),
        sharded.right_partitions().sizes(),
        sharded.boundary_anchors().len()
    );

    // 2. Route candidates, fit per shard, stitch.
    let routing = sharded.featurize(candidates.clone()).expect("featurize");
    println!(
        "candidates: {} routed into shards, {} pruned (span unmatched partitions)",
        routing.routed, routing.pruned
    );
    let t = Instant::now();
    let stitched = sharded
        .fit(&labeled, &VecOracle::new(truth), &config)
        .expect("fit");
    println!(
        "fit+stitch: {:7.2} ms → {} links ({} confirmed from the boundary ledger, {} boundary conflicts dropped)",
        t.elapsed().as_secs_f64() * 1e3,
        stitched.links.len(),
        stitched.links.iter().filter(|l| l.confirmed).count(),
        stitched.dropped_conflicts
    );
    let truth_set: HashSet<(UserId, UserId)> = links.iter().map(|l| (l.left, l.right)).collect();
    let correct = stitched
        .links
        .iter()
        .filter(|l| truth_set.contains(&(l.left, l.right)))
        .count();
    println!(
        "precision over routed candidates: {:.3}",
        correct as f64 / stitched.links.len().max(1) as f64
    );
}
