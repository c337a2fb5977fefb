//! The paper's tables and query sweeps pinned bit-for-bit: the
//! `f64::to_bits` F1 of every (method, cell) of Table III and Table IV at
//! the settings of `table3 --tiny --rotations 1` and
//! `table4 --tiny --rotations 1`, and of every cell of `fig5 --tiny` (the
//! budget sweep) and `ablation_query --tiny` (each query strategy across
//! the budgets), regenerated at one and at two threads. The sweeps run
//! through the bins' own cell lists ([`bench::fig5_cells`],
//! [`bench::query_ablation_cells`]), so they pin the query paths the tables
//! leave out: Random, Uncertainty, TopScore and the tiered Conflict
//! strategy at every budget.
//!
//! `f1_golden.txt` holds one line per cell: table (or bin), column, method
//! and the F1 bits in hex. All cells share one world, so every cell after
//! the first counts over networks an earlier cell already counted. A
//! change to the golden file is a deliberate edit, logged in CHANGES.md
//! with its cause; on a mismatch the assertion prints the current values.

use bench::{fig5_cells, query_ablation_cells, run_cells, HarnessOpts, Scale, TableSweep};
use std::fmt::Write;

/// Every table and sweep cell's F1 bits, one golden line each, with
/// `threads` as the harness thread budget.
fn f1_bits(threads: usize) -> String {
    let opts = HarnessOpts {
        scale: Scale::Tiny,
        rotations: 1,
        threads,
        ..HarnessOpts::default()
    };
    let world = opts.world();
    let mut out = String::new();
    for (name, sweep) in [
        ("table3", TableSweep::table3(&opts)),
        ("table4", TableSweep::table4(&opts)),
    ] {
        sweep.run(&world, |cell| {
            let (label, _) = &sweep.columns[cell.column];
            writeln!(
                out,
                "{name} {}={label} {} {:016x}",
                sweep.axis,
                cell.method.name(),
                cell.result.f1.mean.to_bits()
            )
            .expect("writing to a String cannot fail");
        });
    }
    // The sweep bins run at the tiny preset's own rotation count.
    let opts = HarnessOpts {
        rotations: 0,
        ..opts
    };
    for (name, cells) in [
        ("fig5", fig5_cells(&opts)),
        ("ablation_query", query_ablation_cells(&opts)),
    ] {
        for ((spec, method), result) in cells.iter().zip(run_cells(&world, &cells)) {
            writeln!(
                out,
                "{name} γ={:.0}% {} {:016x}",
                spec.sample_ratio * 100.0,
                method.name(),
                result.f1.mean.to_bits()
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

#[test]
fn table_f1_is_bit_equal_to_the_golden_at_one_and_two_threads() {
    let golden = include_str!("f1_golden.txt");
    for threads in [1, 2] {
        let got = f1_bits(threads);
        assert!(
            got == golden,
            "threads = {threads}: F1 drifted from tests/f1_golden.txt; the current values \
             are:\n{got}"
        );
    }
}
