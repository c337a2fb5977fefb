//! Regenerates **Table III**: F1 / Precision / Recall / Accuracy of all six
//! methods at γ = 60% across the NP-ratio sweep θ ∈ {5, 10, …, 50}.
//!
//! ```sh
//! cargo run --release -p bench --bin table3 [-- --full]
//! ```

use bench::TableSweep;
use eval::{Method, Metrics, Table};

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let sweep = TableSweep::table3(&opts);

    let mut table = Table::new(
        format!(
            "Table III — performance vs NP-ratio θ (γ = 60%, {} fold rotations, seed {})",
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

    let mut recorder = opts.recorder("table3");
    sweep.run(&world, |cell| {
        // spec.np_ratio, not the column label: the tiny preset clamps θ to
        // the world's capacity and the record must name the θ actually run.
        recorder.record(
            cell.method.name(),
            cell.spec.np_ratio,
            cell.result.f1,
            cell.wall,
        );
        for metric in Metrics::NAMES {
            table.set(metric, cell.row, cell.column, cell.result.get(metric));
        }
    });
    println!("{table}");
    match recorder.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write bench record: {e}"),
    }
}
