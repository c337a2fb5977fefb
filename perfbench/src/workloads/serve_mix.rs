//! `serve-mix`: a fixed 20-request cycle against a two-process serving
//! tier — 10 `Query` of 64 pairs, 4 `Align` (k = 10), 5 `UpdateAnchors`
//! of 2 held-out true anchors each, 1 `Checkpoint` — round-robin over 4
//! slots opened from per-slot copies of one counted base. Updates are
//! write-ahead journaled and folded in the background every 64 deltas.
//!
//! A slot is never sent an anchor it already holds: each slot draws from
//! its own permutation of the held-out anchors, and when that would run
//! dry the run moves on to the next *epoch* — four more slots, opened in
//! set-up from fresh copies of the same base and fed the same streams, so
//! every epoch does the same work.

use super::{Ctx, Outcome, WORLD_SEED};
use crate::host;
use crate::trace::Tracer;
use hetnet::AnchorLink;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use session::serve::{Coordinator, ServeConfig, WorkerSpec};
use session::{snapshot, Journal, SessionBuilder};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SLOTS: usize = 4;
/// One traffic cycle: `Q`uery, `U`pdateAnchors, `A`lign, `C`heckpoint.
const CYCLE: &[u8; 20] = b"QUQAQUQAQUQAQUQAQUQC";
const QUERY_PAIRS: usize = 64;
const QUERY_BATCHES: usize = 16;
const ALIGN_K: u32 = 10;
const PER_UPDATE: usize = 2;
/// Nominal requests per second on the reference host (sizes the op count).
const RATE: f64 = 470.0;

/// Everything derived from the seed before the tier starts.
struct Inputs {
    world: datagen::GeneratedWorld,
    base_anchors: Vec<AnchorLink>,
    /// Held-out `(left, right)` truth pairs `Align` is scored on; never
    /// sent as updates.
    probe: Vec<(u32, u32)>,
    /// Per-slot update streams over the remaining truth anchors.
    streams: Vec<Vec<AnchorLink>>,
    queries: Vec<Vec<(u32, u32)>>,
}

fn inputs(n_shared: usize, seed: u64, n_probe: usize, n_base: usize) -> Inputs {
    let world = datagen::generate(&datagen::presets::paper_scale(n_shared, WORLD_SEED));
    let mut links = world.truth().links().to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_1234);
    links.shuffle(&mut rng);
    let probe: Vec<(u32, u32)> = links[..n_probe]
        .iter()
        .map(|a| (a.left.0, a.right.0))
        .collect();
    let base_anchors = links[n_probe..n_probe + n_base].to_vec();
    let pool = &links[n_probe + n_base..];
    let streams = (0..SLOTS)
        .map(|_| {
            let mut s = pool.to_vec();
            s.shuffle(&mut rng);
            s
        })
        .collect();
    let (n_left, n_right) = (
        world.left().n_users() as u32,
        world.right().n_users() as u32,
    );
    // Half true pairs (which score), half uniform pairs (mostly zeros).
    let queries = (0..QUERY_BATCHES)
        .map(|b| {
            (0..QUERY_PAIRS)
                .map(|j| {
                    if j % 2 == 0 {
                        probe[(b * QUERY_PAIRS / 2 + j / 2) % probe.len()]
                    } else {
                        (rng.gen_range(0..n_left), rng.gen_range(0..n_right))
                    }
                })
                .collect()
        })
        .collect();
    Inputs {
        world,
        base_anchors,
        probe,
        streams,
        queries,
    }
}

/// A running tier with its slots open, and the files behind them.
struct Tier {
    coord: Coordinator,
    dir: PathBuf,
    /// Base snapshot path per slot id.
    slots: Vec<PathBuf>,
}

/// Cycle-position bookkeeping: how many requests of each kind went out
/// (kinds round-robin over the slots independently) and how many
/// updates each slot lane took.
#[derive(Default)]
struct Traffic {
    sent: [usize; 4],
    updates: [usize; SLOTS],
}

impl Traffic {
    /// Advances `kind`'s counter; returns `(lane, nth)`: the slot lane
    /// the request goes to and how many of its kind went before it.
    fn next(&mut self, kind: u8) -> (usize, usize) {
        let k = match kind {
            b'Q' => 0,
            b'A' => 1,
            b'U' => 2,
            _ => 3,
        };
        let nth = self.sent[k];
        self.sent[k] += 1;
        (nth % SLOTS, nth)
    }
}

/// Per-request results the caller folds into metrics.
#[derive(Default)]
struct Tally {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    aligns: usize,
    predicted: usize,
    hits: usize,
    bad_acks: usize,
}

fn stream_edges(inp: &Inputs, s: usize, k: usize) -> Result<Vec<AnchorLink>, String> {
    inp.streams[s]
        .get(k * PER_UPDATE..(k + 1) * PER_UPDATE)
        .map(<[AnchorLink]>::to_vec)
        .ok_or_else(|| format!("slot stream {s} ran dry at update {k}"))
}

/// Sends the `nth` request of `kind` to `slot`, which is fed from update
/// stream `lane`. Returns `Ok(false)` when the tier answered with an
/// error.
#[allow(clippy::too_many_arguments)]
fn request(
    tr: &mut Tracer,
    tier: &Tier,
    inp: &Inputs,
    kind: u8,
    slot: u64,
    lane: usize,
    nth: usize,
    updates: &mut [usize; SLOTS],
    tally: &mut Tally,
) -> Result<bool, String> {
    let base_n = inp.base_anchors.len() as u64;
    let ok = match kind {
        b'Q' => {
            let pairs = inp.queries[nth % QUERY_BATCHES].clone();
            let (r, ms) = tr.span("serve.query", || tier.coord.query(slot, pairs));
            tally.read_ms.push(ms);
            r.map(|scores| scores.len() == QUERY_PAIRS)
                .map_err(|e| e.to_string())
        }
        b'A' => {
            let (left, right) = inp.probe[nth % inp.probe.len()];
            let (r, ms) = tr.span("serve.align", || tier.coord.align(slot, left, ALIGN_K));
            tally.read_ms.push(ms);
            r.map(|hits| {
                tally.aligns += 1;
                if let Some(&(top, _)) = hits.first() {
                    tally.predicted += 1;
                    tally.hits += usize::from(top == right);
                }
                hits.len() <= ALIGN_K as usize
            })
            .map_err(|e| e.to_string())
        }
        b'U' => {
            let k = updates[lane];
            let edges = stream_edges(inp, lane, k)?;
            updates[lane] += 1;
            let want = base_n + (PER_UPDATE * (k + 1)) as u64;
            let (r, ms) = tr.span("serve.update", || tier.coord.update_anchors(slot, edges));
            tally.write_ms.push(ms);
            r.map(|(applied, n)| applied == PER_UPDATE as u64 && n == want)
                .map_err(|e| e.to_string())
        }
        b'C' => {
            let want = base_n + (PER_UPDATE * updates[lane]) as u64;
            let (r, _) = tr.span("serve.checkpoint", || tier.coord.checkpoint(slot));
            r.map(|n| n == want).map_err(|e| e.to_string())
        }
        other => return Err(format!("unknown request kind {other}")),
    };
    match ok {
        Ok(true) => Ok(true),
        Ok(false) => {
            tally.bad_acks += 1;
            Ok(true)
        }
        Err(e) => {
            eprintln!("perfbench: request failed: {e}");
            Ok(false)
        }
    }
}

/// Counts and saves the base, copies it per slot, starts the tier, and
/// opens every slot.
fn start_tier(
    ctx: &Ctx,
    tr: &mut Tracer,
    inp: &Inputs,
    dir: &Path,
    n_slots: usize,
    out: &mut Outcome,
) -> Result<Tier, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (base, _) = tr.span("count", || {
        SessionBuilder::new(inp.world.left(), inp.world.right())
            .anchors(inp.base_anchors.clone())
            .count()
    });
    let base = base.map_err(|e| format!("count: {e}"))?;
    let base_path = dir.join("base.snap");
    let (saved, _) = tr.span("snapshot.save", || snapshot::save(&base, &base_path));
    saved.map_err(|e| format!("snapshot save: {e}"))?;
    drop(base);
    let bytes = std::fs::metadata(&base_path)
        .map_err(|e| e.to_string())?
        .len();
    out.counters.insert("snapshot.bytes", bytes as f64);
    let mut slots = Vec::with_capacity(n_slots);
    for id in 0..n_slots {
        let p = dir.join(format!("slot-{id}.snap"));
        std::fs::copy(&base_path, &p).map_err(|e| format!("{}: {e}", p.display()))?;
        slots.push(p);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spec = WorkerSpec {
        exe,
        args: vec!["--serve-worker".to_string()],
        envs: vec![("SERVE_COMPACT".to_string(), "everyn:64".to_string())],
    };
    let config = ServeConfig {
        workers: ctx.nproc.min(2),
        max_in_flight: 4,
        deadline: Duration::from_secs(60),
        restart_limit: 3,
    };
    let (coord, _) = tr.span("serve.spawn", || Coordinator::spawn(spec, config));
    let coord = coord.map_err(|e| format!("spawn: {e}"))?;
    let tier = Tier {
        coord,
        dir: dir.to_path_buf(),
        slots,
    };
    for (id, p) in tier.slots.iter().enumerate() {
        let path = p.to_string_lossy().into_owned();
        let (n, _) = tr.span("journal.open", || tier.coord.open(id as u64, path));
        let n = n.map_err(|e| format!("open slot {id}: {e}"))?;
        if n != inp.base_anchors.len() as u64 {
            return Err(format!("slot {id} opened with {n} anchors"));
        }
    }
    Ok(tier)
}

fn stop_tier(tier: Tier) -> Result<(), String> {
    tier.coord
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    std::fs::remove_dir_all(&tier.dir).map_err(|e| format!("{}: {e}", tier.dir.display()))
}

/// Runs the workload; see the module docs.
///
/// # Errors
/// When the tier cannot start, or its files cannot be written or read.
pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Result<Outcome, String> {
    let (n_shared, n_probe, n_base, epoch_cycles) = if ctx.tiny {
        (80, 16, 8, 8)
    } else {
        (600, 128, 60, 160)
    };
    let epoch_ops = epoch_cycles * CYCLE.len();
    let n_ops = ctx.ops(RATE, epoch_ops, epoch_ops);
    let epochs = n_ops / epoch_ops;
    // Slots 0..4·epochs carry the timed traffic; the last one is the
    // warm-up slot.
    let n_slots = epochs * SLOTS + 1;
    let warm_slot = (epochs * SLOTS) as u64;
    let mut out = Outcome {
        world: format!(
            "paper_scale({n_shared}), {n_base} base anchors, {n_probe} probe users, \
             {epochs} epochs x {epoch_cycles} cycles x 20 requests, {SLOTS} slots/epoch"
        ),
        threads: ctx.nproc.min(2),
        ..Default::default()
    };

    let (inp, _) = tr.span("datagen", || inputs(n_shared, ctx.seed, n_probe, n_base));
    let tier = start_tier(
        ctx,
        tr,
        &inp,
        &ctx.work_dir.join("serve"),
        n_slots,
        &mut out,
    )?;
    // Warm-up: one cycle, every request on the warm-up slot (fed from
    // lane 0's stream).
    let mut traffic = Traffic::default();
    let mut tally = Tally::default();
    for &kind in CYCLE {
        let (_, nth) = traffic.next(kind);
        let updates = &mut traffic.updates;
        if !request(
            tr, &tier, &inp, kind, warm_slot, 0, nth, updates, &mut tally,
        )? {
            return Err("warm-up request failed".to_string());
        }
    }
    out.setup_s = ctx.start.elapsed().as_secs_f64();
    if ctx.setup_only {
        stop_tier(tier)?;
        return Ok(out);
    }

    let mut tally = Tally::default();
    let timed = Instant::now();
    let mut i = 0usize;
    for e in 0..epochs {
        let mut traffic = Traffic::default();
        for _ in 0..epoch_cycles {
            for &kind in CYCLE {
                let (lane, nth) = traffic.next(kind);
                let slot = (e * SLOTS + lane) as u64;
                let updates = &mut traffic.updates;
                let traced = ctx.trace_op(tr, i, CYCLE.len());
                let op = tr.op_begin(i as u64);
                let ok = request(tr, &tier, &inp, kind, slot, lane, nth, updates, &mut tally)?;
                let ms = tr.op_end(op);
                out.attempted += 1;
                if ok {
                    out.op(ms, traced);
                } else {
                    out.failed += 1;
                }
                i += 1;
            }
        }
    }
    out.timed_s = timed.elapsed().as_secs_f64();
    tr.set_on(false);
    out.read_ms = std::mem::take(&mut tally.read_ms);
    out.write_ms = std::mem::take(&mut tally.write_ms);
    let precision = tally.hits as f64 / tally.predicted.max(1) as f64;
    let recall = tally.hits as f64 / tally.aligns.max(1) as f64;
    out.f1 = if tally.hits == 0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    out.check("every response is Ok", out.failed == 0);
    out.check(
        "every ack reports the expected anchors",
        tally.bad_acks == 0,
    );

    // Served scores against the in-process counts for the same anchors.
    let updates_per_slot = epoch_cycles * 5 / SLOTS;
    let sample = inp.queries[0].clone();
    let mut scores_match = true;
    for s in 0..SLOTS {
        let sent = &inp.streams[s][..updates_per_slot * PER_UPDATE];
        let merged: Vec<AnchorLink> = inp.base_anchors.iter().chain(sent).copied().collect();
        let fresh = SessionBuilder::new(inp.world.left(), inp.world.right())
            .anchors(merged)
            .count()
            .map_err(|e| format!("reference count: {e}"))?;
        let want: Vec<u64> = sample
            .iter()
            .map(|&(l, r)| {
                let sum: f64 = (0..fresh.catalog().len())
                    .map(|c| fresh.count_of(c).get(l as usize, r as usize))
                    .sum();
                sum.to_bits()
            })
            .collect();
        for e in 0..epochs {
            let slot = (e * SLOTS + s) as u64;
            let got = tier
                .coord
                .query(slot, sample.clone())
                .map_err(|e| format!("sample query: {e}"))?;
            scores_match &= got.iter().map(|v| v.to_bits()).eq(want.iter().copied());
        }
    }
    out.check(
        "sampled Query scores equal in-process count sums",
        scores_match,
    );
    let restarts: u32 = (0..tier.coord.workers())
        .map(|w| tier.coord.restarts(w))
        .sum();
    out.counters.insert("serve.restarts", f64::from(restarts));
    out.check("no worker restarted", restarts == 0);
    out.child_rss_kb = host::child_pids().into_iter().map(host::vm_hwm_kb).sum();
    tier.coord
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;

    // Each timed slot's base+journal replays to the anchors it served.
    let served = (inp.base_anchors.len() + updates_per_slot * PER_UPDATE) as u64;
    let mut journal_bytes = 0u64;
    let mut replayed = true;
    for p in &tier.slots[..epochs * SLOTS] {
        journal_bytes += std::fs::metadata(Journal::path_for(p)).map_or(0, |m| m.len());
        let (session, _) = Journal::open(p).map_err(|e| format!("replay {}: {e}", p.display()))?;
        replayed &= session.n_anchors() as u64 == served;
    }
    out.counters.insert("journal.bytes", journal_bytes as f64);
    out.check(
        "every slot's base+journal replays to its served anchors",
        replayed,
    );
    stop_tier(tier)?;
    Ok(out)
}
