//! `align-cold`: one op aligns one fold from scratch — a full catalog
//! count on `nproc` threads, featurize, and an ActiveIter-50 fit with the
//! paper's conflict query — and is scored on the fold's test set. Folds
//! rotate. The delta, journal and serve layers do no work here.

use super::{f1, Ctx, Outcome, WORLD_SEED};
use crate::trace::Tracer;
use activeiter::query::ConflictQuery;
use activeiter::{ModelConfig, VecOracle};
use datagen::GeneratedWorld;
use eval::{ExperimentSpec, LinkSet, Method};
use hetnet::AnchorLink;
use metadiagram::Threading;
use session::SessionBuilder;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

const NP_RATIO: usize = 5;
const FOLDS: usize = 10;
const METHOD: Method = Method::ActiveIter { budget: 50 };
/// Nominal ops per second on the reference host (sizes the op count).
const RATE: f64 = 9.0;

struct Fold {
    f1: f64,
    count_ms: f64,
    read_ms: f64,
    nnz: usize,
    cells: usize,
}

/// Aligns `fold` exactly as `eval::run_fold` does for [`METHOD`], through
/// the session API, with a span around each layer call.
fn align_fold(
    tr: &mut Tracer,
    world: &GeneratedWorld,
    ls: &LinkSet,
    spec: &ExperimentSpec,
    fold: usize,
) -> Result<Fold, String> {
    let (train_pos, _) = ls.train_indices(fold, spec.sample_ratio, spec.seed);
    let anchors: Vec<AnchorLink> = train_pos
        .iter()
        .map(|&i| AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
        .collect();
    let (counted, count_ms) = tr.span("count", || {
        SessionBuilder::new(world.left(), world.right())
            .anchors(anchors)
            .feature_set(METHOD.feature_set())
            .threading(Threading::Threads(spec.threads))
            .count()
    });
    let counted = counted.map_err(|e| format!("count: {e}"))?;
    let nnz = (0..counted.catalog().len())
        .map(|i| counted.count_of(i).nnz())
        .sum();
    let (session, featurize_ms) = tr.span("featurize", || counted.featurize(ls.candidates.clone()));
    let cells = session.candidates().len() * session.features().n_features();
    let oracle = VecOracle::new(ls.truth.clone());
    let config = ModelConfig {
        budget: METHOD.budget(),
        seed: spec.seed ^ (fold as u64) << 8,
        ..Default::default()
    };
    let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
    let (fitted, fit_ms) = tr.span("fit", || {
        session.fit(train_pos, &oracle, &config, &mut strategy)
    });
    let report = fitted.report();
    // Scored as in the paper (§IV-B.3): the test folds, queried links
    // removed.
    let queried: HashSet<usize> = report.queried.iter().map(|&(i, _)| i).collect();
    let eval_idx: Vec<usize> = ls
        .test_indices(fold)
        .into_iter()
        .filter(|i| !queried.contains(i))
        .collect();
    // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
    let pred: Vec<bool> = eval_idx.iter().map(|&i| report.labels[i] == 1.0).collect();
    let truth: Vec<bool> = eval_idx.iter().map(|&i| ls.truth[i]).collect();
    Ok(Fold {
        f1: f1(&pred, &truth),
        count_ms,
        read_ms: featurize_ms + fit_ms,
        nnz,
        cells,
    })
}

/// Runs the workload; see the module docs.
///
/// # Errors
/// When a count fails outright.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let n_shared = if ctx.tiny { 80 } else { 1000 };
    let spec = ExperimentSpec {
        np_ratio: NP_RATIO,
        sample_ratio: 0.6,
        n_folds: FOLDS,
        rotations: FOLDS,
        seed: ctx.seed,
        threads: ctx.nproc,
    };
    let mut out = Outcome {
        world: format!(
            "paper_scale({n_shared}), theta={NP_RATIO}, {FOLDS} folds, gamma=0.6, ActiveIter-50"
        ),
        threads: ctx.nproc,
        ..Default::default()
    };

    let (world, _) = tr.span("datagen", || {
        datagen::generate(&datagen::presets::paper_scale(n_shared, WORLD_SEED))
    });
    let (ls, _) = tr.span("linkset", || {
        LinkSet::build(&world, NP_RATIO, FOLDS, ctx.seed)
    });
    // Warm-up: the first op in a process is markedly slower.
    align_fold(tr, &world, &ls, &spec, FOLDS - 1)?;
    out.setup_s = ctx.start.elapsed().as_secs_f64();
    if ctx.setup_only {
        return Ok(out);
    }

    let n_ops = ctx.ops(RATE, 2 * FOLDS, 2 * FOLDS);
    let mut f1_of_fold: BTreeMap<usize, u64> = BTreeMap::new();
    let mut deterministic = true;
    let (mut f1_sum, mut nnz_sum, mut cells) = (0.0, 0usize, 0usize);
    let timed = Instant::now();
    for i in 0..n_ops {
        let fold = i % FOLDS;
        let traced = ctx.trace_op(tr, i, FOLDS);
        let op = tr.op_begin(i as u64);
        let r = align_fold(tr, &world, &ls, &spec, fold);
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
        out.write_ms.push(r.count_ms);
        out.read_ms.push(r.read_ms);
        deterministic &= *f1_of_fold.entry(fold).or_insert(r.f1.to_bits()) == r.f1.to_bits();
        f1_sum += r.f1;
        nnz_sum += r.nnz;
        cells = r.cells;
    }
    out.timed_s = timed.elapsed().as_secs_f64();
    tr.set_on(false);

    let done = out.op_ms.len().max(1);
    out.f1 = f1_sum / done as f64;
    out.counters
        .insert("count.nnz", nnz_sum as f64 / done as f64);
    out.counters.insert("featurize.cells", cells as f64);
    out.check("every op aligned its fold", out.failed == 0);
    out.check("repeats of a fold give bit-equal F1", deterministic);
    let reference = eval::run_fold(&world, &ls, &spec, METHOD, 0).metrics.f1;
    out.check(
        "fold 0 F1 is bit-equal to eval::run_fold",
        f1_of_fold.get(&0) == Some(&reference.to_bits()),
    );
    Ok(out)
}
