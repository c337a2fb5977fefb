//! Regenerates **Table IV**: the same metrics at θ = 50 across the
//! sample-ratio sweep γ ∈ {10%, …, 100%}, including the paper's headline
//! comparison — ActiveIter-100 at γ vs Iter-MPMD at γ+10%.
//!
//! ```sh
//! cargo run --release -p bench --bin table4 [-- --full]
//! ```

use bench::TableSweep;
use eval::{Method, Metrics, Table};

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let sweep = TableSweep::table4(&opts);

    let mut table = Table::new(
        format!(
            "Table IV — performance vs sample-ratio γ (θ = 50, {} fold rotations, seed {})",
            opts.rotations(),
            opts.seed
        ),
        sweep.axis,
        sweep
            .columns
            .iter()
            .map(|(label, _)| label.clone())
            .collect(),
        Method::paper_lineup().iter().map(|m| m.name()).collect(),
        Metrics::NAMES.iter().map(|s| s.to_string()).collect(),
    );

    let mut recorder = opts.recorder("table4");
    // The record names the θ actually run (the tiny preset clamps θ = 50
    // down to the world's capacity).
    recorder.annotate("theta", opts.spec(50, 0.6).np_ratio);
    // (ActiveIter-100, Iter-MPMD) F1 per γ.
    let mut f1_by_gamma = vec![(0.0, 0.0); sweep.columns.len()];
    sweep.run(&world, |cell| {
        let (label, _) = &sweep.columns[cell.column];
        recorder.record(cell.method.name(), label, cell.result.f1, cell.wall);
        if matches!(cell.method, Method::ActiveIter { budget: 100 }) {
            f1_by_gamma[cell.column].0 = cell.result.f1.mean;
        }
        if cell.method == Method::IterMpmd {
            f1_by_gamma[cell.column].1 = cell.result.f1.mean;
        }
        for metric in Metrics::NAMES {
            table.set(metric, cell.row, cell.column, cell.result.get(metric));
        }
    });
    println!("{table}");
    match recorder.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench record: {e}"),
    }

    println!();
    println!("=== §IV-D headline: ActiveIter-100 @ γ vs Iter-MPMD @ γ+10% (F1) ===");
    println!("ActiveIter queries ≤ 100 labels; the Iter-MPMD column gets the whole extra");
    println!("10% of the training fold instead.");
    for i in 0..f1_by_gamma.len().saturating_sub(1) {
        let gamma = (i + 1) as f64 / 10.0;
        let active = f1_by_gamma[i].0;
        let pu_plus = f1_by_gamma[i + 1].1;
        println!(
            "γ = {:>4.0}%: ActiveIter-100 {:.3} vs Iter-MPMD@{:.0}% {:.3}  {}",
            gamma * 100.0,
            active,
            (gamma + 0.1) * 100.0,
            pu_plus,
            if active >= pu_plus {
                "← active wins"
            } else {
                ""
            }
        );
    }
}
