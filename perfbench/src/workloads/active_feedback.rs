//! `active-feedback`: one op is one round of the session-driven active
//! loop — converge, select a top-score batch of 5, take the truth
//! oracle's answers, fold the confirmed anchors into the counts through
//! the delta path, and hand the refreshed features back to the model.
//! Rounds run in fixed-length episodes, each from a clone of a base
//! session counted and featurized in set-up, so the full count never runs
//! in the timed phase. There is one base per fold (its γ-sampled training
//! positives as anchors) and episodes rotate through them, so a run's
//! work does not hinge on one anchor sample.

use super::{f1, Ctx, Outcome, WORLD_SEED};
use crate::trace::Tracer;
use activeiter::driver::ActiveLoop;
use activeiter::query::TopScoreQuery;
use activeiter::ModelConfig;
use eval::LinkSet;
use hetnet::AnchorLink;
use session::{AlignmentSession, Featurized, SessionBuilder};
use sparsela::CsrMatrix;
use std::time::Instant;

const NP_RATIO: usize = 5;
const FOLDS: usize = 10;
const BATCH: usize = 5;
/// Nominal rounds per second on the reference host (sizes the op count).
const RATE: f64 = 75.0;

/// One fold's starting point.
struct Base {
    labeled: Vec<usize>,
    anchors: Vec<AnchorLink>,
    session: AlignmentSession<Featurized>,
}

/// What one episode did, beyond its per-round timings.
struct Episode {
    f1: f64,
    full_counts: usize,
    inner_iters: usize,
    converges: usize,
    offered: usize,
    applied: usize,
    all_selected: bool,
    confirmed: Vec<AnchorLink>,
    session: Option<AlignmentSession<Featurized>>,
}

/// Runs one `rounds`-round episode from a clone of `base`. Ops are
/// numbered from `first_op`; with `out`, every round is recorded as a
/// timed op.
fn episode(
    ctx: &Ctx,
    tr: &mut Tracer,
    ls: &LinkSet,
    base: &Base,
    rounds: usize,
    first_op: usize,
    mut out: Option<&mut Outcome>,
) -> Result<Episode, String> {
    let (mut session, _) = tr.span("clone", || base.session.clone());
    let config = ModelConfig {
        budget: rounds * BATCH,
        query_batch: BATCH,
        ..Default::default()
    };
    let mut drv = ActiveLoop::new(session.instance(base.labeled.clone()), config);
    let mut strategy = TopScoreQuery;
    let truth = &ls.truth;
    let mut ep = Episode {
        f1: 0.0,
        full_counts: 0,
        inner_iters: 0,
        converges: 0,
        offered: 0,
        applied: 0,
        all_selected: true,
        confirmed: Vec::new(),
        session: None,
    };
    for r in 0..rounds {
        let i = first_op + r;
        // Recording alternates in blocks of one episode per fold.
        let traced = out.is_some() && ctx.trace_op(tr, i, rounds * FOLDS);
        let op = tr.op_begin(i as u64);
        let ((), converge_ms) = tr.span("converge", || drv.converge());
        let (selection, select_ms) = tr.span("select", || drv.select_queries(&mut strategy));
        ep.all_selected &= !selection.is_empty();
        let (confirmed, _) = tr.span("oracle", || {
            let mut confirmed = Vec::new();
            for idx in selection {
                drv.apply_answer(idx, truth[idx]);
                if truth[idx] {
                    let (l, r) = ls.candidates[idx];
                    confirmed.push(AnchorLink::new(l, r));
                }
            }
            confirmed
        });
        let (applied, delta_ms) = if confirmed.is_empty() {
            (Ok(0), 0.0)
        } else {
            tr.span("delta", || session.update_anchors(&confirmed))
        };
        let applied = applied.map_err(|e| format!("update_anchors: {e}"))?;
        if applied > 0 {
            tr.span("refit", || drv.replace_features(&session.features().x));
        }
        let ms = tr.op_end(op);
        ep.offered += confirmed.len();
        ep.applied += applied;
        ep.confirmed.extend(confirmed);
        if let Some(out) = out.as_deref_mut() {
            out.attempted += 1;
            out.op(ms, traced);
            out.write_ms.push(delta_ms);
            out.read_ms.push(converge_ms + select_ms);
        }
    }
    // The model's answer after the last batch, outside any op.
    tr.span("converge", || drv.converge());
    let report = drv.finish();
    let known: Vec<bool> = {
        let mut known = vec![false; truth.len()];
        for &i in &base.labeled {
            known[i] = true;
        }
        for &(i, _) in &report.queried {
            known[i] = true;
        }
        known
    };
    let scored: Vec<usize> = (0..truth.len()).filter(|&i| !known[i]).collect();
    // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
    let pred: Vec<bool> = scored.iter().map(|&i| report.labels[i] == 1.0).collect();
    let want: Vec<bool> = scored.iter().map(|&i| truth[i]).collect();
    ep.f1 = f1(&pred, &want);
    ep.full_counts = session.stats().full_counts;
    ep.inner_iters = report.total_inner_iterations();
    ep.converges = report.rounds.len();
    ep.session = Some(session);
    Ok(ep)
}

fn bit_equal(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    a.shape() == b.shape()
        && a.indptr() == b.indptr()
        && a.indices() == b.indices()
        && a.values()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.values().iter().map(|v| v.to_bits()))
}

/// Runs the workload; see the module docs.
///
/// # Errors
/// When a count or an anchor update fails outright.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let n_shared = if ctx.tiny { 80 } else { 600 };
    let rounds = if ctx.tiny { 4 } else { 40 };
    let mut out = Outcome {
        world: format!(
            "paper_scale({n_shared}), theta={NP_RATIO}, one base per fold ({FOLDS}, gamma=0.6 \
             anchors), TopScoreQuery batch {BATCH}, {rounds}-round episodes"
        ),
        threads: 1,
        ..Default::default()
    };

    let (world, _) = tr.span("datagen", || {
        datagen::generate(&datagen::presets::paper_scale(n_shared, WORLD_SEED))
    });
    let (ls, _) = tr.span("linkset", || {
        LinkSet::build(&world, NP_RATIO, FOLDS, ctx.seed)
    });
    let mut bases = Vec::with_capacity(FOLDS);
    for fold in 0..FOLDS {
        let (labeled, _) = ls.train_indices(fold, 0.6, ctx.seed);
        let anchors: Vec<AnchorLink> = labeled
            .iter()
            .map(|&i| AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
            .collect();
        let (counted, _) = tr.span("count", || {
            SessionBuilder::new(world.left(), world.right())
                .anchors(anchors.clone())
                .count()
        });
        let counted = counted.map_err(|e| format!("count: {e}"))?;
        let (session, _) = tr.span("featurize", || counted.featurize(ls.candidates.clone()));
        bases.push(Base {
            labeled,
            anchors,
            session,
        });
    }
    // Warm-up: a short episode, untimed.
    episode(ctx, tr, &ls, &bases[0], rounds.min(5), 0, None)?;
    out.setup_s = ctx.start.elapsed().as_secs_f64();
    if ctx.setup_only {
        return Ok(out);
    }
    let sizes = |b: &Base| {
        let s = &b.session;
        let nnz: usize = (0..s.catalog().len()).map(|i| s.count_of(i).nnz()).sum();
        (nnz, s.candidates().len() * s.features().n_features())
    };
    let per_fold: Vec<(usize, usize)> = bases.iter().map(sizes).collect();
    out.counters.insert(
        "count.nnz",
        per_fold.iter().map(|p| p.0).sum::<usize>() as f64 / FOLDS as f64,
    );
    out.counters.insert("featurize.cells", per_fold[0].1 as f64);

    let n_ops = ctx.ops(RATE, 2 * FOLDS * rounds, FOLDS * rounds);
    let n_episodes = n_ops / rounds;
    let timed = Instant::now();
    let mut episodes = Vec::with_capacity(n_episodes);
    for e in 0..n_episodes {
        let fold = e % FOLDS;
        let mut ep = episode(
            ctx,
            tr,
            &ls,
            &bases[fold],
            rounds,
            e * rounds,
            Some(&mut out),
        )?;
        // Keep only the last episode's session alive.
        if e + 1 < n_episodes {
            ep.session = None;
        }
        episodes.push((fold, ep));
    }
    out.timed_s = timed.elapsed().as_secs_f64();
    tr.set_on(false);

    // Means over the fixed episode sequence, so they repeat exactly.
    let n = episodes.len() as f64;
    let sum = |f: &dyn Fn(&Episode) -> f64| episodes.iter().map(|(_, ep)| f(ep)).sum::<f64>();
    out.f1 = sum(&|ep| ep.f1) / n;
    out.counters.insert(
        "converge.inner_iters",
        sum(&|ep| ep.inner_iters as f64) / sum(&|ep| ep.converges as f64),
    );
    out.counters
        .insert("delta.applied", sum(&|ep| ep.applied as f64) / n);
    out.counters.insert(
        "delta.useful_ratio",
        sum(&|ep| ep.applied as f64) / sum(&|ep| ep.offered as f64).max(1.0),
    );
    out.counters
        .insert("delta.full_counts", sum(&|ep| ep.full_counts as f64) / n);
    out.check(
        "full_counts == 1 after every episode",
        episodes.iter().all(|(_, ep)| ep.full_counts == 1),
    );
    out.check(
        "every round selected a query batch",
        episodes.iter().all(|(_, ep)| ep.all_selected),
    );
    out.check(
        "episodes of one fold repeat bit-equal (F1, anchors, inner iterations)",
        episodes.iter().all(|(fold, ep)| {
            let (_, first) = &episodes[*fold];
            ep.f1.to_bits() == first.f1.to_bits()
                && ep.confirmed == first.confirmed
                && ep.inner_iters == first.inner_iters
        }),
    );
    // The delta-maintained counts must equal a fresh full count over the
    // merged anchors.
    let (last_fold, last) = episodes.last().ok_or("no episode ran")?;
    let merged: Vec<AnchorLink> = bases[*last_fold]
        .anchors
        .iter()
        .chain(&last.confirmed)
        .copied()
        .collect();
    let fresh = SessionBuilder::new(world.left(), world.right())
        .anchors(merged)
        .count()
        .map_err(|e| format!("reference count: {e}"))?;
    let served = last
        .session
        .as_ref()
        .ok_or("the last episode lost its session")?;
    out.check(
        "last episode's counts are bit-equal to a fresh count",
        fresh.catalog().len() == served.catalog().len()
            && (0..fresh.catalog().len()).all(|i| bit_equal(fresh.count_of(i), served.count_of(i))),
    );
    Ok(out)
}
