//! `align-sharded`: one op is a partition-sharded alignment of a
//! community-structured world — community detection on both networks,
//! one counted session per matched partition pair (fanned out over
//! `nproc` workers), routed featurization, per-shard ActiveIter-50 fits,
//! and the stitched one-to-one output, scored over every candidate with
//! pruned candidates counted as negatives. Ops rotate through the ten
//! folds' training anchors: partition matching is anchor-voted, so one
//! fixed anchor sample would pin the run to one shard layout.

use super::{f1, Ctx, Outcome, WORLD_SEED};
use crate::trace::Tracer;
use activeiter::{ModelConfig, VecOracle};
use eval::LinkSet;
use hetnet::partition::PartitionMap;
use hetnet::{AnchorLink, UserId};
use session::sharded::{ShardedConfig, ShardedSession};
use std::collections::HashSet;
use std::time::Instant;

const NP_RATIO: usize = 5;
const FOLDS: usize = 10;
const COMMUNITIES: usize = 4;
/// Nominal ops per second on the reference host (sizes the op count).
const RATE: f64 = 14.0;

struct Inputs {
    world: datagen::GeneratedWorld,
    ls: LinkSet,
    /// Per fold: the γ-sampled training positives and their anchors.
    folds: Vec<(Vec<usize>, Vec<AnchorLink>)>,
    oracle: VecOracle,
}

#[derive(Clone)]
struct Op {
    f1: f64,
    write_ms: f64,
    read_ms: f64,
    shards: usize,
    pruned: usize,
    boundary: usize,
    dropped: usize,
    one_to_one: bool,
}

fn align(tr: &mut Tracer, inp: &Inputs, fold: usize, nproc: usize) -> Result<Op, String> {
    let (labeled, anchors) = &inp.folds[fold];
    let config = ShardedConfig {
        workers: nproc,
        ..Default::default()
    };
    let (left, right) = (inp.world.left(), inp.world.right());
    let ((left_map, right_map), partition_ms) = tr.span("partition", || {
        (
            PartitionMap::detect(left, &config.partition),
            PartitionMap::detect(right, &config.partition),
        )
    });
    let (sharded, build_ms) = tr.span("sharded.build", || {
        ShardedSession::with_partitions(left, right, left_map, right_map, anchors.clone(), &config)
    });
    let mut sharded = sharded.map_err(|e| format!("sharded build: {e}"))?;
    let (routing, featurize_ms) = tr.span("sharded.featurize", || {
        sharded.featurize(inp.ls.candidates.clone())
    });
    let routing = routing.map_err(|e| format!("sharded featurize: {e}"))?;
    let model = ModelConfig {
        budget: 50,
        ..Default::default()
    };
    let (stitched, fit_ms) = tr.span("sharded.fit", || sharded.fit(labeled, &inp.oracle, &model));
    let stitched = stitched.map_err(|e| format!("sharded fit: {e}"))?;
    let linked: HashSet<(UserId, UserId)> =
        stitched.links.iter().map(|l| (l.left, l.right)).collect();
    let lefts: HashSet<UserId> = stitched.links.iter().map(|l| l.left).collect();
    let rights: HashSet<UserId> = stitched.links.iter().map(|l| l.right).collect();
    let n = stitched.links.len();
    let pred: Vec<bool> = inp
        .ls
        .candidates
        .iter()
        .map(|c| linked.contains(c))
        .collect();
    Ok(Op {
        f1: f1(&pred, &inp.ls.truth),
        write_ms: partition_ms + build_ms,
        read_ms: featurize_ms + fit_ms,
        shards: sharded.n_shards(),
        pruned: routing.pruned,
        boundary: sharded.boundary_anchors().len(),
        dropped: stitched.dropped_conflicts,
        one_to_one: lefts.len() == n && rights.len() == n,
    })
}

/// Runs the workload; see the module docs.
///
/// # Errors
/// When a shard build, featurization or fit fails outright.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (n_shared, k) = if ctx.tiny {
        (160, 2)
    } else {
        (2000, COMMUNITIES)
    };
    let mut out = Outcome {
        world: format!(
            "community_scale({n_shared}, {k}), theta={NP_RATIO}, {FOLDS} folds, gamma=0.6 anchors, \
             ActiveIter-50 per stitched ensemble"
        ),
        threads: ctx.nproc,
        ..Default::default()
    };
    let (world, _) = tr.span("datagen", || {
        datagen::generate(&datagen::presets::community_scale(n_shared, k, WORLD_SEED))
    });
    let (ls, _) = tr.span("linkset", || {
        LinkSet::build(&world, NP_RATIO, FOLDS, ctx.seed)
    });
    let folds = (0..FOLDS)
        .map(|f| {
            let (labeled, _) = ls.train_indices(f, 0.6, ctx.seed);
            let anchors = labeled
                .iter()
                .map(|&i| AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
                .collect();
            (labeled, anchors)
        })
        .collect();
    let oracle = VecOracle::new(ls.truth.clone());
    let inp = Inputs {
        world,
        ls,
        folds,
        oracle,
    };
    // Warm-up op.
    align(tr, &inp, FOLDS - 1, ctx.nproc)?;
    out.setup_s = ctx.start.elapsed().as_secs_f64();
    if ctx.setup_only {
        return Ok(out);
    }

    let n_ops = ctx.ops(RATE, 2 * FOLDS, 2 * FOLDS);
    let mut first: Vec<Option<Op>> = vec![None; FOLDS];
    let (mut repeat, mut one_to_one) = (true, true);
    let (mut f1_sum, mut shards, mut pruned, mut boundary, mut dropped) = (0.0, 0, 0, 0, 0);
    let timed = Instant::now();
    for i in 0..n_ops {
        let fold = i % FOLDS;
        let traced = ctx.trace_op(tr, i, FOLDS);
        let op = tr.op_begin(i as u64);
        let r = align(tr, &inp, fold, ctx.nproc);
        let ms = tr.op_end(op);
        out.attempted += 1;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: op {i} failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        out.op(ms, traced);
        out.write_ms.push(r.write_ms);
        out.read_ms.push(r.read_ms);
        one_to_one &= r.one_to_one;
        f1_sum += r.f1;
        shards += r.shards;
        pruned += r.pruned;
        boundary += r.boundary;
        dropped += r.dropped;
        let f = first[fold].get_or_insert_with(|| r.clone());
        repeat &= f.f1.to_bits() == r.f1.to_bits()
            && (f.shards, f.pruned, f.boundary, f.dropped)
                == (r.shards, r.pruned, r.boundary, r.dropped);
    }
    out.timed_s = timed.elapsed().as_secs_f64();
    tr.set_on(false);

    out.check("every op aligned", out.failed == 0);
    out.check("stitched links are one-to-one", one_to_one);
    out.check("repeats of a fold give bit-equal F1 and counts", repeat);
    // Means over the fixed op sequence, so they repeat exactly.
    let done = out.op_ms.len().max(1) as f64;
    let n_cand = inp.ls.candidates.len() as f64;
    out.f1 = f1_sum / done;
    out.counters
        .insert("partition.shards", shards as f64 / done);
    out.counters
        .insert("partition.pruned_frac", pruned as f64 / done / n_cand);
    out.counters
        .insert("sharded.boundary_anchors", boundary as f64 / done);
    out.counters
        .insert("sharded.dropped_conflicts", dropped as f64 / done);
    Ok(out)
}
