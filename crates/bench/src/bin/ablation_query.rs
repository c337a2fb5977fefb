//! Query-strategy ablation: the paper's conflict strategy (tiered and
//! strict-literal) against random, uncertainty sampling, and plain
//! top-score querying across budgets.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_query [-- --full]
//! ```

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let budgets = bench::budget_sweep();

    println!(
        "Query-strategy ablation — θ = 30, γ = 60%, {} rotations, seed {}",
        opts.rotations(),
        opts.seed
    );
    println!();
    print!("{:<14}", "strategy \\ b");
    for b in &budgets {
        print!(" {b:>8}");
    }
    println!();
    let results = bench::run_cells(&world, &bench::query_ablation_cells(&opts));
    println!(
        "{:<14} {:>8.3} (b = 0 reference)",
        "none", results[0].f1.mean
    );
    for (strategy, row) in bench::ABLATION_STRATEGIES
        .iter()
        .zip(results[1..].chunks(budgets.len()))
    {
        print!("{:<14}", format!("{strategy:?}"));
        for cell in row {
            print!(" {:>8.3}", cell.f1.mean);
        }
        println!();
    }
    println!();
    println!("cells are mean F1; the conflict strategy should dominate at equal budget");
}
