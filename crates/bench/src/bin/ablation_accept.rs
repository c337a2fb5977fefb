//! Acceptance-rule ablation (DESIGN.md §5.1): the literal fixed 0.5
//! threshold the objective implies vs the self-calibrating relative rule
//! the reproduction defaults to, across α values.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_accept [-- --full]
//! ```

use activeiter::config::AcceptRule;
use activeiter::model::iter_mpmd;
use activeiter::{AlignmentInstance, ModelConfig};
use eval::{Confusion, LinkSet};
use hetnet::aligned::anchor_matrix;
use metadiagram::{extract_features, Catalog, DeltaCatalogCounts, FeatureSet, Threading};

fn main() {
    let opts = bench::HarnessOpts::from_args();
    let world = opts.world();
    let theta = 15usize;
    let ls = LinkSet::build(&world, theta, 10, opts.seed);
    let spec = opts.spec(theta, 0.6);
    let (train_pos, _) = ls.train_indices(0, spec.sample_ratio, spec.seed);

    let train_anchors: Vec<hetnet::AnchorLink> = train_pos
        .iter()
        .map(|&i| hetnet::AnchorLink::new(ls.candidates[i].0, ls.candidates[i].1))
        .collect();
    let amat = anchor_matrix(
        world.left().n_users(),
        world.right().n_users(),
        &train_anchors,
    )
    .expect("in range");
    let catalog = Catalog::new(FeatureSet::Full);
    let store = DeltaCatalogCounts::build(
        world.left(),
        world.right(),
        amat,
        &catalog,
        Threading::Serial,
    )
    .expect("universes match");
    let fm = extract_features(&store, &catalog, &ls.candidates, Threading::Serial);
    let inst = AlignmentInstance::new(ls.candidates.clone(), &fm.x, train_pos);
    let test = ls.test_indices(0);

    println!(
        "Acceptance-rule ablation — Iter-MPMD, θ = {theta}, γ = 60%, fold 0, seed {}",
        opts.seed
    );
    println!();
    println!(
        "{:<26} {:>8} {:>10} {:>8} {:>10}",
        "rule", "F1", "precision", "recall", "positives"
    );
    let rules = [
        ("Fixed(0.5) [literal]", AcceptRule::Fixed(0.5)),
        ("Relative α=0.3", AcceptRule::Relative { alpha: 0.3 }),
        (
            "Relative α=0.5 [default]",
            AcceptRule::Relative { alpha: 0.5 },
        ),
        ("Relative α=0.7", AcceptRule::Relative { alpha: 0.7 }),
        ("Relative α=0.9", AcceptRule::Relative { alpha: 0.9 }),
    ];
    for (name, rule) in rules {
        let config = ModelConfig {
            accept_rule: rule,
            ..Default::default()
        };
        let report = iter_mpmd(&inst, &config);
        // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
        let preds: Vec<bool> = test.iter().map(|&i| report.labels[i] == 1.0).collect();
        let truth: Vec<bool> = test.iter().map(|&i| ls.truth[i]).collect();
        let m = Confusion::from_predictions(&preds, &truth).metrics();
        // srclint: allow(float_eq, reason = "labels are exact 0.0/1.0 sentinels assigned by the driver, never computed")
        let n_pos = report.labels.iter().filter(|&&l| l == 1.0).count();
        println!(
            "{:<26} {:>8.3} {:>10.3} {:>8.3} {:>10}",
            name, m.f1, m.precision, m.recall, n_pos
        );
    }
    println!();
    println!(
        "The literal Fixed(0.5) rule degenerates under PU imbalance (selects\n\
         only the labeled positives); the relative rule trades precision for\n\
         recall as α decreases. See DESIGN.md §5, decision 1."
    );
}
