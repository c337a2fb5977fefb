//! Prints the **Table I** meta diagram catalog, then regenerates
//! **Table II** (dataset statistics) for the synthetic Foursquare/Twitter
//! stand-in.
//!
//! ```sh
//! cargo run --release -p bench --bin table2 [-- --full]
//! ```

use hetnet::stats::{table2, NetworkStats};
use metadiagram::{Catalog, FeatureSet};

fn main() {
    let opts = bench::HarnessOpts::from_args();

    let catalog = Catalog::new(FeatureSet::Full);
    println!(
        "=== Table I: the meta diagram catalog Φ ({} features) ===",
        catalog.len()
    );
    for (i, entry) in catalog.entries().iter().enumerate() {
        println!(
            "{:>3}  {:<22} covering = {{{}}}",
            i + 1,
            entry.name,
            entry
                .diagram
                .covering_set()
                .social_paths()
                .iter()
                .map(|p| p.name().to_string())
                .chain(
                    entry
                        .diagram
                        .covering_set()
                        .attr_paths()
                        .iter()
                        .map(|a| a.name().to_string())
                )
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!();

    let world = opts.world();
    println!("=== Table II: properties of the heterogeneous networks ===");
    println!(
        "(synthetic stand-in; proportions follow the paper's crawl — see the datagen crate docs)"
    );
    println!();
    let left = NetworkStats::of(world.left());
    let right = NetworkStats::of(world.right());
    print!("{}", table2(&left, &right, world.truth().len()));
    println!();
    println!(
        "shared-user fraction: {:.1}% (left) / {:.1}% (right); paper: 62.8% / 60.9%",
        100.0 * world.truth().len() as f64 / world.left().n_users() as f64,
        100.0 * world.truth().len() as f64 / world.right().n_users() as f64,
    );
    println!(
        "follow density: {:.1} (left) vs {:.1} (right) out-links/user; paper: 31.6 vs 14.3",
        left.follow_links as f64 / left.users as f64,
        right.follow_links as f64 / right.users as f64,
    );
}
