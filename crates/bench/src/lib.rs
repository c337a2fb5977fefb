//! # bench — the table/figure regeneration harness
//!
//! One binary per table/figure of the paper (see EXPERIMENTS.md and
//! `src/bin/`), plus the perf-trajectory record bins (`snapshot`,
//! `partition`, `serve`, `session_delta`) and `perf_gate`, which diffs
//! their records. This library holds the shared plumbing: the benchmark
//! worlds, experiment presets, the record writer, and a tiny argument
//! parser (no CLI dependency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use datagen::{GeneratedWorld, GeneratorConfig};
use eval::methods::StrategyKind;
use eval::{run_experiment, CellResult, ExperimentSpec, Method};
use std::time::{Duration, Instant};

pub mod record;

/// Harness scale, switchable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test preset: tiny world, 2 fold rotations. Seconds per table —
    /// the CI perf-trajectory runs use this.
    Tiny,
    /// Reduced-but-faithful defaults: small world, 3 fold rotations.
    /// Finishes in minutes on a laptop.
    Quick,
    /// Paper-proportioned world and the full 10-fold rotation.
    Full,
}

impl Scale {
    /// The scale's name as used in the BENCH_*.json records.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Common options parsed from `std::env::args`.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Run scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Override for the number of fold rotations (`0` = scale default).
    pub rotations: usize,
    /// Worker-thread budget (`0` = one per available hardware thread).
    pub threads: usize,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::Quick,
            seed: 42,
            rotations: 0,
            threads: 0,
        }
    }
}

impl HarnessOpts {
    /// Parses `--full`, `--tiny`, `--seed N`, `--rotations N`,
    /// `--threads N`; ignores unknown flags (prints a note so typos are
    /// visible).
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => opts.scale = Scale::Full,
                "--tiny" => opts.scale = Scale::Tiny,
                "--threads" => {
                    i += 1;
                    opts.threads = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        // srclint: allow(panic_in_lib, reason = "CLI flag validation: aborting with a message is the bench harness contract")
                        .expect("--threads needs an integer");
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        // srclint: allow(panic_in_lib, reason = "CLI flag validation: aborting with a message is the bench harness contract")
                        .expect("--seed needs an integer");
                }
                "--rotations" => {
                    i += 1;
                    opts.rotations = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        // srclint: allow(panic_in_lib, reason = "CLI flag validation: aborting with a message is the bench harness contract")
                        .expect("--rotations needs an integer");
                }
                other => eprintln!("note: ignoring unknown flag {other}"),
            }
            i += 1;
        }
        opts
    }

    /// The benchmark world for this scale.
    pub fn world_config(&self) -> GeneratorConfig {
        match self.scale {
            Scale::Tiny => datagen::presets::tiny(self.seed),
            Scale::Quick => datagen::presets::small(self.seed),
            Scale::Full => datagen::presets::paper_scale(250, self.seed),
        }
    }

    /// Generates the benchmark world.
    pub fn world(&self) -> GeneratedWorld {
        datagen::generate(&self.world_config())
    }

    /// Fold rotations for this scale (paper: 10).
    pub fn rotations(&self) -> usize {
        if self.rotations > 0 {
            return self.rotations;
        }
        match self.scale {
            Scale::Tiny => 2,
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }

    /// An [`ExperimentSpec`] at (θ, γ) under these options.
    ///
    /// θ is clamped to the scale's world capacity: the tiny smoke world
    /// cannot supply `θ × positives` distinct negatives at the top of the
    /// paper's sweep, so the largest feasible ratio is used instead (the
    /// clamp is reported on stderr).
    pub fn spec(&self, np_ratio: usize, sample_ratio: f64) -> ExperimentSpec {
        let cfg = self.world_config();
        let n_pos = cfg.n_shared_users;
        let universe = cfg.n_left_users() * cfg.n_right_users() - n_pos;
        let max_np = (universe / n_pos).max(1);
        if np_ratio > max_np {
            // Sweep loops call spec() once per cell; note the clamp once.
            static CLAMP_NOTE: std::sync::Once = std::sync::Once::new();
            CLAMP_NOTE.call_once(|| {
                eprintln!("note: clamping θ = {np_ratio} to {max_np} (world capacity)")
            });
        }
        ExperimentSpec {
            np_ratio: np_ratio.min(max_np),
            sample_ratio,
            n_folds: 10,
            rotations: self.rotations(),
            seed: self.seed,
            threads: self.threads,
        }
    }

    /// A [`record::BenchRecorder`] pre-annotated with these options.
    pub fn recorder(&self, bench_name: &str) -> record::BenchRecorder {
        let mut r = record::BenchRecorder::new(bench_name);
        r.annotate("scale", self.scale.name());
        r.annotate("seed", self.seed);
        r.annotate("rotations", self.rotations());
        r.annotate("threads", eval::effective_threads(self.threads));
        r
    }
}

/// One paper table's sweep: a spec per column, and the rows are
/// [`Method::paper_lineup`].
#[derive(Debug, Clone)]
pub struct TableSweep {
    /// The swept parameter's symbol (`θ` or `γ`).
    pub axis: &'static str,
    /// Per column: its header label and its spec.
    pub columns: Vec<(String, ExperimentSpec)>,
}

/// One finished cell of a [`TableSweep`].
#[derive(Debug)]
pub struct TableCell<'s> {
    /// Column index.
    pub column: usize,
    /// The column's spec.
    pub spec: &'s ExperimentSpec,
    /// Row index into [`Method::paper_lineup`].
    pub row: usize,
    /// The row's method.
    pub method: Method,
    /// The cell's metrics.
    pub result: CellResult,
    /// Wall-clock time of the cell.
    pub wall: Duration,
}

impl TableSweep {
    /// **Table III**: θ over [`theta_sweep`] at γ = 60%.
    pub fn table3(opts: &HarnessOpts) -> Self {
        TableSweep {
            axis: "θ",
            columns: theta_sweep()
                .into_iter()
                .map(|theta| (theta.to_string(), opts.spec(theta, 0.6)))
                .collect(),
        }
    }

    /// **Table IV**: γ over [`gamma_sweep`] at θ = 50.
    pub fn table4(opts: &HarnessOpts) -> Self {
        TableSweep {
            axis: "γ",
            columns: gamma_sweep()
                .into_iter()
                .map(|gamma| (format!("{:.0}%", gamma * 100.0), opts.spec(50, gamma)))
                .collect(),
        }
    }

    /// Runs every cell on `world`, column by column and in lineup order
    /// within a column, handing each finished cell to `each`.
    pub fn run(&self, world: &GeneratedWorld, mut each: impl FnMut(TableCell<'_>)) {
        let methods = Method::paper_lineup();
        for (column, (label, spec)) in self.columns.iter().enumerate() {
            for (row, &method) in methods.iter().enumerate() {
                let start = Instant::now();
                let result = run_experiment(world, spec, method);
                each(TableCell {
                    column,
                    spec,
                    row,
                    method,
                    result,
                    wall: start.elapsed(),
                });
            }
            eprintln!("{} = {label} done", self.axis);
        }
    }
}

/// **Figure 5**'s cells in the order the `fig5` bin runs and prints them:
/// the Iter-MPMD reference lines at γ = 60% and γ = 70%, then ActiveIter
/// and ActiveIter-Rand at γ = 60% for each budget of [`budget_sweep`]
/// (θ = 50 throughout).
pub fn fig5_cells(opts: &HarnessOpts) -> Vec<(ExperimentSpec, Method)> {
    let spec60 = opts.spec(50, 0.6);
    let mut cells = vec![
        (spec60.clone(), Method::IterMpmd),
        (opts.spec(50, 0.7), Method::IterMpmd),
    ];
    for budget in budget_sweep() {
        cells.push((spec60.clone(), Method::ActiveIter { budget }));
        cells.push((spec60.clone(), Method::ActiveIterRand { budget }));
    }
    cells
}

/// The query strategies the `ablation_query` bin compares, in row order.
pub const ABLATION_STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Conflict,
    StrategyKind::Random,
    StrategyKind::Uncertainty,
    StrategyKind::TopScore,
];

/// The query-strategy ablation's cells in the order the `ablation_query`
/// bin runs and prints them: the Iter-MPMD (b = 0) reference, then each of
/// [`ABLATION_STRATEGIES`] across [`budget_sweep`] (θ = 30, γ = 60%).
pub fn query_ablation_cells(opts: &HarnessOpts) -> Vec<(ExperimentSpec, Method)> {
    let spec = opts.spec(30, 0.6);
    let mut cells = vec![(spec.clone(), Method::IterMpmd)];
    for strategy in ABLATION_STRATEGIES {
        for budget in budget_sweep() {
            cells.push((spec.clone(), Method::ActiveIterWith { budget, strategy }));
        }
    }
    cells
}

/// Runs `cells` on `world` in order, one result per cell.
pub fn run_cells(world: &GeneratedWorld, cells: &[(ExperimentSpec, Method)]) -> Vec<CellResult> {
    cells
        .iter()
        .map(|(spec, method)| run_experiment(world, spec, *method))
        .collect()
}

/// The paper's θ sweep (Tables III, Fig. 4): 5..=50 step 5.
pub fn theta_sweep() -> Vec<usize> {
    (1..=10).map(|k| k * 5).collect()
}

/// The paper's γ sweep (Table IV): 10%..=100% step 10%.
pub fn gamma_sweep() -> Vec<f64> {
    (1..=10).map(|k| k as f64 / 10.0).collect()
}

/// The paper's budget sweep (Fig. 5).
pub fn budget_sweep() -> Vec<usize> {
    vec![10, 25, 50, 75, 100]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper() {
        assert_eq!(theta_sweep(), vec![5, 10, 15, 20, 25, 30, 35, 40, 45, 50]);
        assert_eq!(gamma_sweep().len(), 10);
        assert!((gamma_sweep()[5] - 0.6).abs() < 1e-12);
        assert_eq!(budget_sweep(), vec![10, 25, 50, 75, 100]);
    }

    #[test]
    fn quick_defaults() {
        let o = HarnessOpts::default();
        assert_eq!(o.rotations(), 3);
        let spec = o.spec(10, 0.6);
        assert_eq!(spec.np_ratio, 10);
        assert_eq!(spec.n_folds, 10);
    }

    #[test]
    fn full_scale_uses_ten_rotations() {
        let o = HarnessOpts {
            scale: Scale::Full,
            ..Default::default()
        };
        assert_eq!(o.rotations(), 10);
        assert!(o.world_config().n_shared_users >= 250);
    }

    #[test]
    fn tiny_scale_presets_for_ci() {
        let o = HarnessOpts {
            scale: Scale::Tiny,
            ..Default::default()
        };
        assert_eq!(o.rotations(), 2);
        assert_eq!(o.scale.name(), "tiny");
        assert_eq!(o.world_config().n_shared_users, 30);
        let spec = o.spec(3, 1.0);
        assert_eq!(spec.threads, 0, "auto thread budget by default");
        assert!(o.recorder("t").is_empty());
    }

    #[test]
    fn rotation_override_wins() {
        let o = HarnessOpts {
            rotations: 7,
            ..Default::default()
        };
        assert_eq!(o.rotations(), 7);
    }
}
