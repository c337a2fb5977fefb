//! World assembly: latent graph → two networks → aligned pair.

use crate::activity::{
    generate_posts, sample_archetypes, sample_profile, PopularitySampler, Profile,
};
use crate::config::GeneratorConfig;
use crate::follow::{latent_graph, materialize_network};
use hetnet::{
    AlignedPair, AnchorLink, AnchorSet, HetNet, HetNetBuilder, LocationId, PostId, TimestampId,
    UserId,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The generated world: the aligned pair plus generation metadata useful to
/// experiments and tests.
#[derive(Debug, Clone)]
pub struct GeneratedWorld {
    /// The two aligned networks with ground-truth anchors.
    pub pair: AlignedPair,
    /// The permutation mapping left shared user `i` to its right-network
    /// account (`sigma[i]`), as generated.
    pub sigma: Vec<usize>,
    /// Configuration used.
    pub config: GeneratorConfig,
}

/// Generates a world from the configuration. Deterministic in `cfg.seed`.
///
/// Left shared users occupy indices `0..n_shared_users` in the left network;
/// their right-network accounts are at `sigma[i]` — a random permutation of
/// `0..n_shared_users`, so alignment is never the identity. Extra users fill
/// the remaining indices on each side.
pub fn generate(cfg: &GeneratorConfig) -> GeneratedWorld {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_shared = cfg.n_shared_users;
    let n_left = cfg.n_left_users();
    let n_right = cfg.n_right_users();

    // Ground-truth matching: left i <-> right sigma[i].
    let mut sigma: Vec<usize> = (0..n_shared).collect();
    sigma.shuffle(&mut rng);

    // Social structure.
    let latent = latent_graph(&mut rng, cfg);
    let left_edges = materialize_network(
        &mut rng,
        &latent,
        cfg.keep_left,
        &|u| u,
        n_left,
        cfg,
        n_shared,
    );
    let sigma_ref = sigma.clone();
    let right_edges = materialize_network(
        &mut rng,
        &latent,
        cfg.keep_right,
        &|u| sigma_ref[u],
        n_right,
        cfg,
        n_shared,
    );

    // Activity structure.
    let loc_sampler = PopularitySampler::new(cfg.n_locations, cfg.popularity_skew);
    let ts_sampler = PopularitySampler::new(cfg.n_timestamps, 0.0);

    // Archetype pools and per-user archetype assignment. A shared user and
    // its counterpart have the same archetype by construction (the profile
    // itself is shared); extra users get their own assignment.
    let archetypes = sample_archetypes(&mut rng, cfg, &loc_sampler, &ts_sampler);
    let pick_archetype = |rng: &mut StdRng| -> Option<usize> {
        if archetypes.is_empty() {
            None
        } else {
            Some(rng.gen_range(0..archetypes.len()))
        }
    };

    // Shared users' profiles (reused on both sides). Extra users get fresh
    // independent profiles below.
    let shared_profiles: Vec<Profile> = (0..n_shared)
        .map(|_| {
            let arch = pick_archetype(&mut rng).map(|i| &archetypes[i]);
            sample_profile(&mut rng, cfg, &loc_sampler, &ts_sampler, arch)
        })
        .collect();

    let mut left_builder = HetNetBuilder::new(
        "left(twitter-like)",
        n_left,
        cfg.n_locations,
        cfg.n_timestamps,
    );
    let mut right_builder = HetNetBuilder::new(
        "right(foursquare-like)",
        n_right,
        cfg.n_locations,
        cfg.n_timestamps,
    );

    for &(u, v) in &left_edges.edges {
        left_builder
            .add_follow(UserId::from_index(u), UserId::from_index(v))
            .expect("generator produced in-range users");
    }
    for &(u, v) in &right_edges.edges {
        right_builder
            .add_follow(UserId::from_index(u), UserId::from_index(v))
            .expect("generator produced in-range users");
    }

    // Posts: left network.
    populate_posts(
        &mut rng,
        &mut left_builder,
        n_left,
        n_shared,
        |i| &shared_profiles[i],
        cfg.posts_per_user_left,
        cfg,
        &loc_sampler,
        &ts_sampler,
        &archetypes,
    );
    // Posts: right network — shared user at right index sigma[i] uses
    // profile i. Build the inverse map first.
    let mut inv_sigma = vec![usize::MAX; n_shared];
    for (i, &r) in sigma.iter().enumerate() {
        inv_sigma[r] = i;
    }
    populate_posts(
        &mut rng,
        &mut right_builder,
        n_right,
        n_shared,
        |r| &shared_profiles[inv_sigma[r]],
        cfg.posts_per_user_right,
        cfg,
        &loc_sampler,
        &ts_sampler,
        &archetypes,
    );

    let left = left_builder.build();
    let right = right_builder.build();

    let anchors = AnchorSet::try_new(
        sigma
            .iter()
            .enumerate()
            .map(|(i, &r)| AnchorLink::new(UserId::from_index(i), UserId::from_index(r)))
            .collect(),
    )
    .expect("sigma is a permutation, hence one-to-one");

    let pair = AlignedPair::new(left, right, anchors).expect("generator indices are in range");
    GeneratedWorld {
        pair,
        sigma,
        config: cfg.clone(),
    }
}

/// Adds every user's posts (and attribute links) to `builder`.
///
/// Users `< n_shared` (by this network's indexing) take their profile from
/// `profile_of`; extra users draw a fresh one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn populate_posts<'a>(
    rng: &mut StdRng,
    builder: &mut HetNetBuilder,
    n_users: usize,
    n_shared: usize,
    profile_of: impl Fn(usize) -> &'a Profile,
    mean_posts: f64,
    cfg: &GeneratorConfig,
    loc_sampler: &PopularitySampler,
    ts_sampler: &PopularitySampler,
    archetypes: &[crate::activity::ArchetypePool],
) {
    for u in 0..n_users {
        let fresh;
        let profile = if u < n_shared {
            profile_of(u)
        } else {
            let arch = if archetypes.is_empty() {
                None
            } else {
                Some(&archetypes[rng.gen_range(0..archetypes.len())])
            };
            fresh = sample_profile(rng, cfg, loc_sampler, ts_sampler, arch);
            &fresh
        };
        let posts = generate_posts(rng, profile, mean_posts, cfg, loc_sampler, ts_sampler);
        for rec in posts {
            let pid: PostId = builder
                .add_post(UserId::from_index(u))
                .expect("user index in range");
            builder
                .add_checkin(pid, LocationId::from_index(rec.location))
                .expect("location in range");
            builder
                .add_at(pid, TimestampId::from_index(rec.timestamp))
                .expect("timestamp in range");
        }
    }
}

/// Convenience accessors used widely in tests and experiments.
impl GeneratedWorld {
    /// The left network.
    pub fn left(&self) -> &HetNet {
        self.pair.left()
    }

    /// The right network.
    pub fn right(&self) -> &HetNet {
        self.pair.right()
    }

    /// Ground-truth anchors.
    pub fn truth(&self) -> &AnchorSet {
        self.pair.truth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            n_shared_users: 40,
            n_extra_left: 10,
            n_extra_right: 12,
            ..Default::default()
        }
    }

    #[test]
    fn world_has_requested_populations() {
        let w = generate(&small_cfg());
        assert_eq!(w.left().n_users(), 50);
        assert_eq!(w.right().n_users(), 52);
        assert_eq!(w.truth().len(), 40);
    }

    #[test]
    fn sigma_is_a_permutation_and_matches_truth() {
        let w = generate(&small_cfg());
        let mut seen = [false; 40];
        for &r in &w.sigma {
            assert!(!seen[r], "sigma repeats {r}");
            seen[r] = true;
        }
        for a in w.truth().iter() {
            assert_eq!(w.sigma[a.left.index()], a.right.index());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(
            a.left().link_count(hetnet::LinkKind::Follow),
            b.left().link_count(hetnet::LinkKind::Follow)
        );
        assert_eq!(a.right().n_posts(), b.right().n_posts());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg().with_seed(12345));
        // Permutations of 40 elements collide with probability ~1/40!.
        assert_ne!(a.sigma, b.sigma);
    }

    #[test]
    fn posts_have_checkin_and_timestamp() {
        let w = generate(&small_cfg());
        for p in 0..w.left().n_posts() {
            let pid = hetnet::PostId::from_index(p);
            assert_eq!(w.left().locations_of(pid).count(), 1);
            assert_eq!(w.left().timestamps_of(pid).count(), 1);
            assert!(w.left().author_of(pid).is_some());
        }
    }

    #[test]
    fn anchored_pairs_share_habit_checkins_more_than_random() {
        // The core signal: count joint (loc, ts) key overlaps for anchored
        // vs mismatched pairs.
        use std::collections::HashSet;
        let cfg = GeneratorConfig {
            n_shared_users: 60,
            profile_noise: 0.2,
            posts_per_user_left: 12.0,
            posts_per_user_right: 8.0,
            ..Default::default()
        };
        let w = generate(&cfg);
        let keys = |net: &hetnet::HetNet, u: usize| -> HashSet<(usize, usize)> {
            net.posts_of(hetnet::UserId::from_index(u))
                .map(|p| {
                    let l = net.locations_of(p).next().unwrap().index();
                    let t = net.timestamps_of(p).next().unwrap().index();
                    (l, t)
                })
                .collect()
        };
        let mut aligned_overlap = 0usize;
        let mut shifted_overlap = 0usize;
        for i in 0..60 {
            let kl = keys(w.left(), i);
            let kr = keys(w.right(), w.sigma[i]);
            aligned_overlap += kl.intersection(&kr).count();
            let wrong = w.sigma[(i + 7) % 60];
            let kw = keys(w.right(), wrong);
            shifted_overlap += kl.intersection(&kw).count();
        }
        assert!(
            aligned_overlap > 2 * shifted_overlap.max(1),
            "aligned {aligned_overlap} vs shifted {shifted_overlap}: habit signal too weak"
        );
    }

    #[test]
    fn anchored_pairs_share_neighbors_more_than_random() {
        let cfg = GeneratorConfig {
            n_shared_users: 60,
            keep_left: 0.9,
            keep_right: 0.7,
            ..Default::default()
        };
        let w = generate(&cfg);
        use std::collections::HashSet;
        // Compare followee overlap through sigma for aligned vs shifted pairs.
        let mut aligned = 0usize;
        let mut shifted = 0usize;
        for i in 0..60 {
            let fl: HashSet<usize> = w
                .left()
                .followees(hetnet::UserId::from_index(i))
                .filter(|v| v.index() < 60)
                .map(|v| w.sigma[v.index()])
                .collect();
            let fr: HashSet<usize> = w
                .right()
                .followees(hetnet::UserId::from_index(w.sigma[i]))
                .map(|v| v.index())
                .collect();
            aligned += fl.intersection(&fr).count();
            let fr_wrong: HashSet<usize> = w
                .right()
                .followees(hetnet::UserId::from_index(w.sigma[(i + 11) % 60]))
                .map(|v| v.index())
                .collect();
            shifted += fl.intersection(&fr_wrong).count();
        }
        assert!(
            aligned > 2 * shifted.max(1),
            "aligned {aligned} vs shifted {shifted}: neighborhood signal too weak"
        );
    }
}
