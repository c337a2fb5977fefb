//! Cross-crate invariants between generated worlds and the partition
//! layer: generated networks are author-grouped, so the trivial induced
//! sub-network is bit-identical, and community-structured worlds actually
//! partition along their latent blocks.

use hetnet::partition::{induce_subnet, PartitionConfig, PartitionMap};
use hetnet::{Direction, LinkKind, UserId};

#[test]
fn trivial_induction_is_bit_identical_on_generated_worlds() {
    let w = datagen::generate(&datagen::presets::tiny(17));
    for net in [w.left(), w.right()] {
        let members: Vec<UserId> = (0..net.n_users()).map(UserId::from_index).collect();
        let sub = induce_subnet(net, &members).unwrap();
        for kind in LinkKind::ALL {
            assert_eq!(
                sub.net.adjacency(kind, Direction::Forward),
                net.adjacency(kind, Direction::Forward),
                "{kind:?} diverged under the trivial partition of {}",
                net.name()
            );
        }
    }
}

#[test]
fn detected_partitions_recover_latent_communities() {
    let cfg = datagen::GeneratorConfig {
        n_communities: 4,
        community_bias: 0.9,
        noise_edge_frac: 0.02,
        ..datagen::presets::small(23)
    };
    let w = datagen::generate(&cfg);
    let map = PartitionMap::detect(
        w.left(),
        &PartitionConfig {
            min_size: 10,
            ..Default::default()
        },
    );
    assert!(
        map.n_partitions() >= 2,
        "expected multiple communities, got {}",
        map.n_partitions()
    );
    // Detected partitions should mostly respect the latent contiguous
    // blocks: measure purity of each detected partition against the
    // dominant latent community of its shared members.
    let n_shared = 120;
    let (mut agree, mut total) = (0usize, 0usize);
    for p in 0..map.n_partitions() {
        let mut per_latent = std::collections::HashMap::new();
        let shared: Vec<usize> = map
            .members(p)
            .iter()
            .map(|u| u.index())
            .filter(|&u| u < n_shared)
            .collect();
        for &u in &shared {
            *per_latent
                .entry(datagen::follow::community_of(u, n_shared, 4))
                .or_insert(0usize) += 1;
        }
        if let Some(&best) = per_latent.values().max() {
            agree += best;
            total += shared.len();
        }
    }
    let purity = agree as f64 / total.max(1) as f64;
    assert!(purity > 0.7, "partition purity vs latent blocks: {purity}");
}

#[test]
fn boundary_nodes_exist_between_latent_communities() {
    let cfg = datagen::GeneratorConfig {
        n_communities: 3,
        community_bias: 0.85,
        ..datagen::presets::tiny(31)
    };
    let w = datagen::generate(&cfg);
    let map = PartitionMap::detect(
        w.left(),
        &PartitionConfig {
            min_size: 4,
            ..Default::default()
        },
    );
    if map.n_partitions() > 1 {
        assert!(
            map.boundary_nodes().count() > 0,
            "multiple partitions must expose boundary nodes"
        );
    }
}
