//! Feature-family ablation (beyond the paper's SVM-MP vs SVM-MPMD pair):
//! Iter-MPMD run on four catalog slices — meta paths only, paths + social
//! diagrams, paths + the attribute diagram, and the full catalog — so the
//! contribution of each diagram family is visible in isolation.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_features [-- --full]
//! ```

use eval::{run_experiment, Method};
use metadiagram::FeatureSet;

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let slices = [
        FeatureSet::MetaPathsOnly,
        FeatureSet::PathsAndSocialDiagrams,
        FeatureSet::PathsAndAttrDiagram,
        FeatureSet::Full,
    ];

    println!(
        "Feature-family ablation — Iter-MPMD on catalog slices ({} rotations, seed {})",
        opts.rotations(),
        opts.seed
    );
    println!();
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8}",
        "features \\ θ", "10", "20", "30", "50"
    );
    for features in slices {
        let mut row = format!("{:<28}", format!("{features:?}"));
        for theta in [10usize, 20, 30, 50] {
            let spec = opts.spec(theta, 0.6);
            let cell = run_experiment(&world, &spec, Method::IterMpmdFeatures { features });
            row.push_str(&format!(" {:>8.3}", cell.f1.mean));
        }
        println!("{row}");
    }
    println!();
    println!("cells are mean F1; expect Full ≥ each partial slice ≥ MetaPathsOnly");
}
