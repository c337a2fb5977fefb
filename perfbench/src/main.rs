//! perfbench — the alignment system's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <align-cold|active-feedback|serve-mix|align-sharded> \
//!     --seed <n> --seconds <n> --trace <0|1> [--tiny]
//! ```
//!
//! One run sets a seeded world up, runs a fixed number of closed-loop
//! ops sized for `--seconds`, checks the outputs, and prints a meta
//! record and then, as its last line, the result: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics from benchmark-side spans (`--trace 1`). `setup_s`
//! is the median over [`SETUP_PROBES`] fresh processes that each set the
//! same world up from process start and stop before the first timed op.
//! A failed output check exits 1. NOTES.md explains the workloads, the
//! metrics and how steady they are.

mod host;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = [
    "align-cold",
    "active-feedback",
    "serve-mix",
    "align-sharded",
];

/// Where runs leave span records; scratch files go in a per-process
/// subdirectory that is removed when the run ends.
const OUT_DIR: &str = ".perfbench_out";

/// Set-up probe processes per untraced run; `setup_s` is their median.
const SETUP_PROBES: usize = 3;

/// The flag that turns a process into a set-up probe: it sets up, prints
/// its `setup_s` and exits.
const SETUP_PROBE_FLAG: &str = "--setup-probe";

const USAGE: &str =
    "usage: perfbench --workload <align-cold|active-feedback|serve-mix|align-sharded> \
                     --seed <n> --seconds <n> --trace <0|1> [--tiny]";

#[derive(Debug, PartialEq)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    setup_probe: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny, mut setup_probe) =
        (None, None, None, None, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        if flag == SETUP_PROBE_FLAG {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tiny,
        setup_probe,
    })
}

/// How a per-layer metric is derived.
enum Src {
    /// Mean self time per call of the named span, ms.
    Mean(&'static str),
    /// Median duration of the named span, ms.
    P50(&'static str),
    /// Tail percentile (see [`stats::tail`]) of the named span, ms.
    Tail(&'static str),
    /// A counter the workload set (0 when the layer did not run).
    Counter,
}

/// Every per-layer metric, printed on every workload; a layer a workload
/// never calls reads 0 there.
const PER_LAYER: &[(&str, &str, Src)] = &[
    // The op latency tail (see `stats::tail`). It is the run's slowest
    // few ops, too noisy on a shared host to carry a bound, so it is
    // reported here rather than among the bounded end-to-end metrics.
    ("op_ms_tail", "ms", Src::Counter),
    ("count.ms", "ms", Src::Mean("count")),
    ("count.nnz", "count", Src::Counter),
    ("featurize.ms", "ms", Src::Mean("featurize")),
    ("featurize.cells", "count", Src::Counter),
    ("fit.ms", "ms", Src::Mean("fit")),
    ("converge.ms", "ms", Src::Mean("converge")),
    ("converge.inner_iters", "count", Src::Counter),
    ("select.ms", "ms", Src::Mean("select")),
    ("refit.ms", "ms", Src::Mean("refit")),
    ("delta.ms", "ms", Src::Mean("delta")),
    ("delta.applied", "count", Src::Counter),
    ("delta.useful_ratio", "ratio", Src::Counter),
    ("delta.full_counts", "count", Src::Counter),
    ("partition.ms", "ms", Src::Mean("partition")),
    ("partition.shards", "count", Src::Counter),
    ("partition.pruned_frac", "ratio", Src::Counter),
    ("sharded.build_ms", "ms", Src::Mean("sharded.build")),
    ("sharded.featurize_ms", "ms", Src::Mean("sharded.featurize")),
    ("sharded.fit_ms", "ms", Src::Mean("sharded.fit")),
    ("sharded.boundary_anchors", "count", Src::Counter),
    ("sharded.dropped_conflicts", "count", Src::Counter),
    ("snapshot.save_ms", "ms", Src::Mean("snapshot.save")),
    ("snapshot.bytes", "B", Src::Counter),
    ("journal.open_ms", "ms", Src::Mean("journal.open")),
    ("journal.bytes", "B", Src::Counter),
    ("serve.spawn_ms", "ms", Src::Mean("serve.spawn")),
    ("serve.query_ms_p50", "ms", Src::P50("serve.query")),
    ("serve.align_ms_p50", "ms", Src::P50("serve.align")),
    ("serve.update_ms_p50", "ms", Src::P50("serve.update")),
    ("serve.update_ms_tail", "ms", Src::Tail("serve.update")),
    (
        "serve.checkpoint_ms_p50",
        "ms",
        Src::P50("serve.checkpoint"),
    ),
    ("serve.restarts", "count", Src::Counter),
    ("host.calib_ms", "ms", Src::Counter),
    ("trace.unattributed_ms", "ms", Src::Counter),
    ("trace.overhead_frac", "ratio", Src::Counter),
];

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The serve-mix tier re-executes this binary as its worker processes.
    if args.first().map(String::as_str) == Some("--serve-worker") {
        return ExitCode::from(session::serve::worker_main() as u8);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts, start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Sets `opts.workload` up in this process, runs its ops unless this is
/// a set-up probe, and removes its scratch files.
fn run_workload(opts: &Opts, start: Instant, tr: &mut Tracer) -> Result<(Ctx, Outcome), String> {
    let work_dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        tiny: opts.tiny,
        trace: opts.trace,
        nproc: host::nproc(),
        setup_only: opts.setup_probe,
        start,
        work_dir,
    };
    let result = workloads::run(&opts.workload, &ctx, tr);
    let cleanup = std::fs::remove_dir_all(&ctx.work_dir);
    let out = result?;
    cleanup.map_err(|e| format!("{}: {e}", ctx.work_dir.display()))?;
    Ok((ctx, out))
}

/// Runs [`SETUP_PROBES`] set-up probe processes one after another, each
/// waited for, and returns their `setup_s`.
fn setup_probes(opts: &Opts) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (seed, seconds) = (opts.seed.to_string(), opts.seconds.to_string());
    let mut args = vec![
        SETUP_PROBE_FLAG,
        "--workload",
        &opts.workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        "0",
    ];
    if opts.tiny {
        args.push("--tiny");
    }
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(&args)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up probe exited with {}", out.status));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed {text:?}: {e}"))
        })
        .collect()
}

/// Runs one workload and prints its meta record and result line; returns
/// whether every output check passed. A set-up probe prints only its
/// `setup_s`.
fn run(opts: &Opts, start: Instant) -> Result<bool, String> {
    if opts.setup_probe {
        let (_, out) = run_workload(opts, start, &mut Tracer::new(false))?;
        println!("{}", report::json_number(out.setup_s));
        return Ok(true);
    }
    let calib_before = host::calib_ms();
    let mut tr = Tracer::new(opts.trace);
    let (ctx, mut out) = run_workload(opts, start, &mut tr)?;
    // Read before the closing drift probe, whose table would otherwise count.
    let rss_kb = host::vm_hwm_kb(std::process::id()) + out.child_rss_kb;
    // `setup_s` is an end-to-end metric; the traced run does not report it.
    let setup_s = if opts.trace {
        Vec::new()
    } else {
        setup_probes(opts)?
    };
    let calib_after = host::calib_ms();
    out.counters
        .insert("host.calib_ms", (calib_before + calib_after) / 2.0);

    let tail = stats::tail(&out.op_ms).ok_or("too few ops for a tail percentile")?;
    let metrics = if opts.trace {
        out.counters.insert("op_ms_tail", tail.value);
        let by_name = tr.self_ms_by_name();
        trace_counters(&mut out, &by_name);
        per_layer(&out, &tr, &by_name)
    } else {
        end_to_end(&out, &setup_s, rss_kb)
    };
    let correct = out.correct();
    println!(
        "{}",
        meta(
            opts,
            &ctx,
            &out,
            &tail,
            &setup_s,
            [calib_before, calib_after],
            &tr
        )
    );
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)?
    );
    if opts.trace {
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(correct)
}

/// The end-to-end metrics of an untraced run; `setup_s` holds the set-up
/// probes' times and `rss_kb` is the peak resident set of the process and
/// its serve workers.
fn end_to_end(out: &Outcome, setup_s: &[f64], rss_kb: u64) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", stats::median(setup_s)),
        m("op_ms_p50", "ms", stats::median(&out.op_ms)),
        m("ops_per_s", "1/s", out.op_ms.len() as f64 / out.timed_s),
        m("read_ms_p50", "ms", stats::median(&out.read_ms)),
        m("write_ms_p50", "ms", stats::median(&out.write_ms)),
        m("f1", "ratio", out.f1),
        m(
            "ok_frac",
            "ratio",
            1.0 - report::fail_frac(out.attempted, out.failed),
        ),
        m("peak_rss_mb", "MB", rss_kb as f64 / 1024.0),
    ]
}

/// Derives `trace.unattributed_ms` (mean self time of the op spans —
/// op time no layer span covers) and `trace.overhead_frac` (median
/// latency of recorded ops over unrecorded ones, minus 1).
fn trace_counters(out: &mut Outcome, by_name: &BTreeMap<&str, Vec<f64>>) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let unattributed = by_name.get("op").map_or(0.0, |v| mean(v));
    out.counters.insert("trace.unattributed_ms", unattributed);
    let split = |want: bool| -> Vec<f64> {
        out.op_ms
            .iter()
            .zip(&out.op_traced)
            .filter(|(_, &t)| t == want)
            .map(|(&ms, _)| ms)
            .collect()
    };
    let (on, off) = (split(true), split(false));
    if !on.is_empty() && !off.is_empty() {
        out.counters.insert(
            "trace.overhead_frac",
            stats::median(&on) / stats::median(&off) - 1.0,
        );
    }
}

/// The per-layer metrics of a traced run; `by_name` is the spans' self
/// time grouped by name.
fn per_layer(out: &Outcome, tr: &Tracer, by_name: &BTreeMap<&str, Vec<f64>>) -> Vec<Metric> {
    let durations = |name: &str| -> Vec<f64> {
        tr.spans()
            .iter()
            .filter(|s| s.name == name && s.op != trace::NO_OP)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    let value = |name: &str, src: &Src| match src {
        Src::Mean(span) => by_name
            .get(span)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64),
        Src::P50(span) => {
            let d = durations(span);
            if d.is_empty() {
                0.0
            } else {
                stats::median(&d)
            }
        }
        Src::Tail(span) => stats::tail(&durations(span)).map_or(0.0, |t| t.value),
        Src::Counter => out.counters.get(name).copied().unwrap_or(0.0),
    };
    PER_LAYER
        .iter()
        .map(|(name, unit, src)| Metric {
            name,
            unit,
            value: value(name, src),
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The run's meta record: host, budget, sizes, tail definition, checks,
/// and — on the traced run — each layer's total self time.
fn meta(
    opts: &Opts,
    ctx: &Ctx,
    out: &Outcome,
    tail: &stats::Tail,
    setup_s: &[f64],
    calib: [f64; 2],
    tr: &Tracer,
) -> String {
    let n = report::json_number;
    let mut s = String::from("{\"meta\": {");
    let _ = write!(
        s,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu\": {}, \"threads\": {}, \"world\": {}, \"ops\": {}, \"setup_s_probes\": [{}], \
         \"setup_s_own\": {}, \
         \"op_ms_tail_pct\": {}, \"op_ms_tail_beyond\": {}, \"fail_frac\": {}, \
         \"host_calib_ms\": [{}, {}], \"malloc_arena_max\": {}",
        json_str(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        ctx.nproc,
        json_str(&host::cpu_model()),
        out.threads,
        json_str(&out.world),
        out.attempted,
        setup_s.iter().map(|&v| n(v)).collect::<Vec<_>>().join(", "),
        n(out.setup_s),
        n(tail.pct),
        tail.beyond,
        n(report::fail_frac(out.attempted, out.failed)),
        n(calib[0]),
        n(calib[1]),
        std::env::var("MALLOC_ARENA_MAX").map_or("null".to_string(), |v| json_str(&v)),
    );
    s.push_str(", \"checks\": {");
    for (i, (name, ok)) in out.checks.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {ok}",
            if i == 0 { "" } else { ", " },
            json_str(name)
        );
    }
    s.push('}');
    if opts.trace {
        s.push_str(", \"self_ms_total\": {");
        for (i, (name, v)) in tr.self_ms_by_name().iter().enumerate() {
            let total: f64 = v.iter().sum();
            let _ = write!(
                s,
                "{}{}: {}",
                if i == 0 { "" } else { ", " },
                json_str(name),
                n(total)
            );
        }
        s.push('}');
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse(&args(
            "--workload serve-mix --seed 3 --seconds 10 --trace 1",
        ))
        .expect("ok");
        assert_eq!(
            o,
            Opts {
                workload: "serve-mix".into(),
                seed: 3,
                seconds: 10,
                trace: true,
                tiny: false,
                setup_probe: false
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-mix --seed 1 --seconds 1 --trace 2",
            "--workload serve-mix --seed x --seconds 1 --trace 0",
            "--workload serve-mix --seconds 1 --trace 0",
            "--workload serve-mix --seed 1 --seconds 0 --trace 0",
            "--workload serve-mix --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload serve-mix --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn per_layer_names_and_units_are_valid_and_unique() {
        for (i, (name, unit, _)) in PER_LAYER.iter().enumerate() {
            assert!(report::valid_name(name), "{name}");
            assert!(report::valid_unit(unit), "{unit}");
            assert!(PER_LAYER[..i].iter().all(|(o, _, _)| o != name), "{name}");
        }
    }
}
