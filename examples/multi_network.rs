//! Multi-network alignment: the paper's §II extension to more than two
//! aligned networks, with transitive-consistency auditing and repair.
//!
//! Three networks share one latent population; every pair is aligned with
//! the standard ActiveIter pipeline; triangle contradictions (a→b, b→c but
//! a→c′ with c′ ≠ c) are then counted and repaired by score-greedy
//! resolution.
//!
//! ```sh
//! cargo run --release --example multi_network
//! ```

use eval::multi::{align_all_pairs, consistency_report, precision, resolve_by_score, MultiSpec};

fn main() {
    let world = datagen::generate_multi(&datagen::presets::small(11), 3);
    println!(
        "generated {} networks over {} shared users:",
        world.k(),
        world.n_shared
    );
    for (i, net) in world.nets.iter().enumerate() {
        println!(
            "  net{i}: {} users, {} posts, {} follow links",
            net.n_users(),
            net.n_posts(),
            net.link_count(hetnet::LinkKind::Follow)
        );
    }

    let spec = MultiSpec {
        np_ratio: 5,
        train_fraction: 0.2,
        budget: 25,
        seed: 11,
        threads: 0,
    };
    let alignment = align_all_pairs(&world, &spec).expect("spec is valid");
    println!();
    println!(
        "pairwise alignment: {} predicted links, precision {:.3}",
        alignment.links.len(),
        precision(&alignment)
    );

    let before = consistency_report(&alignment, world.k());
    println!(
        "triangles before repair: {} closed, {} open, {} contradictions",
        before.closed, before.open, before.contradictions
    );

    let resolved = resolve_by_score(&alignment);
    let after = consistency_report(&resolved, world.k());
    println!(
        "triangles after repair:  {} closed, {} open, {} contradictions",
        after.closed, after.open, after.contradictions
    );
    println!(
        "links kept: {}/{} — precision {:.3}",
        resolved.links.len(),
        alignment.links.len(),
        precision(&resolved)
    );
    assert_eq!(after.contradictions, 0);
    println!();
    println!(
        "Score-greedy resolution drops the weakest contradicting links, so\n\
         the surviving alignment is globally consistent — the property the\n\
         ground truth of a shared population necessarily has."
    );
}
