//! Regenerates **Figure 5** (performance vs query budget): ActiveIter and
//! ActiveIter-Rand across b ∈ {10, 25, 50, 75, 100} at θ = 50, γ = 60%,
//! against the Iter-MPMD reference lines at γ = 60% and γ = 70% (the paper's
//! "1,670 extra labels" comparison).
//!
//! ```sh
//! cargo run --release -p bench --bin fig5 [-- --full]
//! ```

use eval::Metrics;

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let results = bench::run_cells(&world, &bench::fig5_cells(&opts));
    let (pu60, pu70) = (&results[0], &results[1]);

    println!(
        "Figure 5 — metrics vs budget b (θ = 50, γ = 60%, {} fold rotations, seed {})",
        opts.rotations(),
        opts.seed
    );
    println!();
    for metric in Metrics::NAMES {
        println!(
            "[{metric}] Iter-MPMD reference: γ=60% → {:.4}, γ=70% → {:.4}",
            pu60.get(metric).mean,
            pu70.get(metric).mean
        );
    }
    println!();
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "budget", "ActiveIter F1", "Rand F1", "ActiveIter P", "ActiveIter R"
    );
    for (budget, pair) in bench::budget_sweep()
        .into_iter()
        .zip(results[2..].chunks(2))
    {
        let (act, rnd) = (&pair[0], &pair[1]);
        println!(
            "{:>8} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
            budget, act.f1.mean, rnd.f1.mean, act.precision.mean, act.recall.mean
        );
    }
    println!();
    println!(
        "Paper's reading: ActiveIter improves monotonically with b and, past\n\
         b ≈ 50, overtakes the Iter-MPMD reference that was given the whole\n\
         extra 10% of training labels; random queries barely move."
    );
}
