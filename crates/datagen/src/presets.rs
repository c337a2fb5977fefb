//! Ready-made configurations.
//!
//! `paper_scale` mirrors the *proportions* of the paper's Table II
//! (Foursquare + Twitter crawl) at a configurable user count. The absolute
//! post volume of Twitter (9.49M tweets for 5,223 users ≈ 1,817 per user) is
//! capped — feature signal saturates long before that, and DESIGN.md
//! documents the substitution. Follow densities and the shared-user fraction
//! (3,282 / 5,223 ≈ 63%) are preserved.

use crate::config::GeneratorConfig;

/// Minimal world for unit tests: runs in milliseconds.
pub fn tiny(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed,
        n_shared_users: 30,
        n_extra_left: 8,
        n_extra_right: 10,
        n_locations: 60,
        n_timestamps: 40,
        base_degree: 8.0,
        keep_left: 0.8,
        keep_right: 0.6,
        noise_edge_frac: 0.1,
        extra_degree: 4.0,
        pa_strength: 0.5,
        n_communities: 0,
        community_bias: 0.0,
        posts_per_user_left: 8.0,
        posts_per_user_right: 5.0,
        n_habits: 3,
        n_archetypes: 6,
        archetype_mix: 0.6,
        profile_noise: 0.35,
        popularity_skew: 0.8,
    }
}

/// Small world for integration tests and the quickstart example.
pub fn small(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed,
        n_shared_users: 120,
        n_extra_left: 45,
        n_extra_right: 50,
        n_locations: 120,
        n_timestamps: 60,
        base_degree: 12.0,
        keep_left: 0.8,
        keep_right: 0.6,
        noise_edge_frac: 0.15,
        extra_degree: 6.0,
        pa_strength: 0.6,
        n_communities: 0,
        community_bias: 0.0,
        posts_per_user_left: 8.0,
        posts_per_user_right: 5.0,
        n_habits: 2,
        n_archetypes: 10,
        archetype_mix: 0.8,
        profile_noise: 0.5,
        popularity_skew: 1.1,
    }
}

/// Table II proportions at `n_shared` anchored users.
///
/// Ratios preserved from the paper's crawl:
/// * shared fraction: 3,282 anchors for 5,223 / 5,392 users →
///   extra_left ≈ 0.59 · shared, extra_right ≈ 0.64 · shared;
/// * follow density: Twitter 164,920 / 5,223 ≈ 31.6 out-links per user,
///   Foursquare 76,972 / 5,392 ≈ 14.3 — we derive the latent degree and
///   keep-probabilities to land near those per-network densities;
/// * activity asymmetry: Twitter posts ≫ Foursquare tips (capped at 24 vs 9
///   posts per user);
/// * attribute universe: locations ≈ 0.8 · posts-right (Foursquare had
///   38,921 venues for 48,756 tips).
pub fn paper_scale(n_shared: usize, seed: u64) -> GeneratorConfig {
    let n_extra_left = (n_shared as f64 * 0.59).round() as usize;
    let n_extra_right = (n_shared as f64 * 0.64).round() as usize;
    let posts_right = 9.0;
    let n_right_users = n_shared + n_extra_right;
    let n_locations = ((n_right_users as f64 * posts_right) * 0.8).round() as usize;
    GeneratorConfig {
        seed,
        n_shared_users: n_shared,
        n_extra_left,
        n_extra_right,
        n_locations: n_locations.max(100),
        n_timestamps: (n_locations / 2).max(60),
        // Latent degree 36 with keep 0.88/0.40 ≈ 31.6 / 14.3 per-user density.
        base_degree: 36.0,
        keep_left: 0.88,
        keep_right: 0.40,
        noise_edge_frac: 0.12,
        extra_degree: 10.0,
        pa_strength: 0.7,
        n_communities: 0,
        community_bias: 0.0,
        posts_per_user_left: 24.0,
        posts_per_user_right: posts_right,
        n_habits: 3,
        n_archetypes: 20,
        archetype_mix: 0.75,
        profile_noise: 0.5,
        popularity_skew: 0.9,
    }
}

/// Scale-free, community-structured world for the partition-sharded
/// pipeline — the preset that reaches 100×–1000× beyond the paper's
/// Table IV (≈3.3k anchors), where the partition crossover is
/// demonstrable.
///
/// Built on [`paper_scale`]'s Table II proportions, with three changes
/// that keep generation (and the global reference pipeline it is compared
/// against) tractable as `n_shared` grows into the millions:
/// * users split into `n_communities` latent blocks, `community_bias`
///   0.85 — in-community targets are preferential-attachment weighted
///   *within the community slice*, so target sampling is
///   `O(n / n_communities)` instead of the global `O(n)` walk;
/// * per-user activity trimmed (degree 16, posts 6/3) — the signal
///   saturates far below Twitter's raw post volume, and at 100× scale the
///   full Table II activity would dominate wall-clock without changing
///   the crossover story;
/// * fewer noise edges (0.05), since cross-community escapes already
///   supply inter-block confusion.
///
/// `community_scale(n, k, seed)` with `k ≈ n / 650` keeps community sizes
/// near the paper's whole-network scale, so each shard is itself a
/// table-IV-sized alignment problem.
pub fn community_scale(n_shared: usize, n_communities: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n_communities,
        community_bias: 0.85,
        base_degree: 16.0,
        posts_per_user_left: 6.0,
        posts_per_user_right: 3.0,
        noise_edge_frac: 0.05,
        extra_degree: 6.0,
        ..paper_scale(n_shared, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn presets_validate() {
        tiny(1).validate();
        small(1).validate();
        paper_scale(200, 1).validate();
        community_scale(400, 8, 1).validate();
    }

    #[test]
    fn community_scale_worlds_have_block_structure() {
        let cfg = community_scale(240, 6, 11);
        let w = generate(&cfg);
        // In-community follow fraction among shared users far exceeds the
        // uniform 1/6 baseline (shared users are 0..240 on the left).
        let follow = w
            .left()
            .adjacency(hetnet::LinkKind::Follow, hetnet::Direction::Forward);
        let (mut inside, mut total) = (0usize, 0usize);
        for u in 0..240 {
            for (v, _) in follow.row(u) {
                if v < 240 {
                    total += 1;
                    if crate::follow::community_of(u, 240, 6)
                        == crate::follow::community_of(v, 240, 6)
                    {
                        inside += 1;
                    }
                }
            }
        }
        let frac = inside as f64 / total.max(1) as f64;
        assert!(frac > 0.5, "in-community follow fraction {frac}");
    }

    #[test]
    fn tiny_generates_quickly_and_fully() {
        let w = generate(&tiny(3));
        assert_eq!(w.truth().len(), 30);
        assert!(w.left().n_posts() > 0);
        assert!(w.right().n_posts() > 0);
    }

    #[test]
    fn paper_scale_matches_table2_proportions() {
        let cfg = paper_scale(300, 5);
        // Shared fraction ≈ 63% of each side.
        let frac_left = 300.0 / cfg.n_left_users() as f64;
        assert!((frac_left - 0.629).abs() < 0.02, "left share {frac_left}");
        let frac_right = 300.0 / cfg.n_right_users() as f64;
        assert!(
            (frac_right - 0.609).abs() < 0.02,
            "right share {frac_right}"
        );
        // Asymmetry in activity and follow retention.
        assert!(cfg.posts_per_user_left > 2.0 * cfg.posts_per_user_right);
        assert!(cfg.keep_left > cfg.keep_right);
    }

    #[test]
    fn paper_scale_generates_denser_left_follow_graph() {
        let w = generate(&paper_scale(150, 9));
        let left_density =
            w.left().link_count(hetnet::LinkKind::Follow) as f64 / w.left().n_users() as f64;
        let right_density =
            w.right().link_count(hetnet::LinkKind::Follow) as f64 / w.right().n_users() as f64;
        assert!(
            left_density > 1.5 * right_density,
            "left {left_density} vs right {right_density}"
        );
    }
}
