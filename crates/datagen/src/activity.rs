//! Post / check-in generation.
//!
//! Every user owns a **habit profile**: a small set of (location, timestamp)
//! pairs. Shared (anchored) users use the *same* profile on both networks,
//! so their accounts co-check-in at the same place *and* time — the joint
//! signal only the Ψ2 meta diagram can see. With probability
//! `profile_noise` a post instead draws location and timestamp
//! *independently* from global popularity distributions: two users may then
//! share locations (P6) and timestamps (P5) without ever sharing a
//! (location, timestamp) pair — the paper's "dislocated" false-positive
//! pattern that motivates meta diagrams in §III-B.2.

use crate::config::GeneratorConfig;
use rand::rngs::StdRng;
use rand::Rng;

/// A user's spatio-temporal habit profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Habitual (location, timestamp) pairs, reused across networks for
    /// anchored users.
    pub habits: Vec<(usize, usize)>,
}

/// One generated post: author is implicit (callers track it), the rest are
/// attribute node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostRecord {
    /// Location index of the check-in.
    pub location: usize,
    /// Timestamp index of the check-in.
    pub timestamp: usize,
}

/// Zipf-like sampler over `0..n`: weight of rank `i` is `(i+1)^-skew`.
/// Precomputes the CDF once; sampling is a binary search.
#[derive(Debug, Clone)]
pub struct PopularitySampler {
    cdf: Vec<f64>,
}

impl PopularitySampler {
    /// Builds the sampler for a universe of `n` items with skew `s ≥ 0`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-skew);
            cdf.push(acc);
        }
        // srclint: allow(panic_in_lib, reason = "cdf is non-empty: the constructor asserts n > 0 above")
        let total = *cdf.last().unwrap();
        for v in &mut cdf {
            *v /= total;
        }
        PopularitySampler { cdf }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|probe| probe.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// A shared pool of habitual (location, timestamp) pairs — the hangouts of
/// one community/archetype. Users of the same archetype draw part of their
/// profile from this pool, which makes them *confusable* with each other
/// (the property the active query strategy exploits on real data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchetypePool {
    /// The pool's habit pairs.
    pub habits: Vec<(usize, usize)>,
}

/// Samples the archetype pools (each 4× a single profile's habit count).
pub fn sample_archetypes(
    rng: &mut StdRng,
    cfg: &GeneratorConfig,
    loc_sampler: &PopularitySampler,
    ts_sampler: &PopularitySampler,
) -> Vec<ArchetypePool> {
    (0..cfg.n_archetypes)
        .map(|_| ArchetypePool {
            habits: (0..cfg.n_habits * 4)
                .map(|_| (loc_sampler.sample(rng), ts_sampler.sample(rng)))
                .collect(),
        })
        .collect()
}

/// Draws a habit profile: `n_habits` (location, timestamp) pairs — an
/// `archetype_mix` fraction from the user's archetype pool (when one is
/// given), the rest sampled from the global popularity distributions.
pub fn sample_profile(
    rng: &mut StdRng,
    cfg: &GeneratorConfig,
    loc_sampler: &PopularitySampler,
    ts_sampler: &PopularitySampler,
    archetype: Option<&ArchetypePool>,
) -> Profile {
    let habits = (0..cfg.n_habits)
        .map(|_| match archetype {
            Some(pool) if !pool.habits.is_empty() && rng.gen::<f64>() < cfg.archetype_mix => {
                pool.habits[rng.gen_range(0..pool.habits.len())]
            }
            _ => (loc_sampler.sample(rng), ts_sampler.sample(rng)),
        })
        .collect();
    Profile { habits }
}

/// Generates the posts of one user on one network.
///
/// `mean_posts` is the expected count (geometric-ish, ≥ 0). Habit posts pick
/// one of the profile's joint pairs; noise posts draw location and timestamp
/// independently.
pub fn generate_posts(
    rng: &mut StdRng,
    profile: &Profile,
    mean_posts: f64,
    cfg: &GeneratorConfig,
    loc_sampler: &PopularitySampler,
    ts_sampler: &PopularitySampler,
) -> Vec<PostRecord> {
    let n = sample_count(rng, mean_posts);
    let mut posts = Vec::with_capacity(n);
    for _ in 0..n {
        let noise = profile.habits.is_empty() || rng.gen::<f64>() < cfg.profile_noise;
        let (location, timestamp) = if noise {
            (loc_sampler.sample(rng), ts_sampler.sample(rng))
        } else {
            profile.habits[rng.gen_range(0..profile.habits.len())]
        };
        posts.push(PostRecord {
            location,
            timestamp,
        });
    }
    posts
}

/// Geometric-flavoured non-negative count with the requested mean.
fn sample_count(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (mean + 1.0);
    let mut k = 0usize;
    let cap = (10.0 * mean).ceil() as usize + 4;
    while k < cap && rng.gen::<f64>() > p {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn popularity_sampler_prefers_head_when_skewed() {
        let s = PopularitySampler::new(100, 1.2);
        let mut r = rng();
        let mut head = 0;
        let trials = 4000;
        for _ in 0..trials {
            if s.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // With skew 1.2 over 100 items, the top-10 mass is far above the
        // uniform 10%.
        assert!(
            head as f64 / trials as f64 > 0.4,
            "head mass {head}/{trials}"
        );
    }

    #[test]
    fn popularity_sampler_uniform_when_unskewed() {
        let s = PopularitySampler::new(50, 0.0);
        let mut r = rng();
        let mut head = 0;
        let trials = 5000;
        for _ in 0..trials {
            if s.sample(&mut r) < 25 {
                head += 1;
            }
        }
        let frac = head as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "uniform head mass {frac}");
    }

    #[test]
    fn sampler_output_in_range() {
        let s = PopularitySampler::new(7, 2.0);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(s.sample(&mut r) < 7);
        }
    }

    #[test]
    fn profiles_have_requested_shape() {
        let cfg = GeneratorConfig::default();
        let loc = PopularitySampler::new(cfg.n_locations, cfg.popularity_skew);
        let ts = PopularitySampler::new(cfg.n_timestamps, 0.0);
        let p = sample_profile(&mut rng(), &cfg, &loc, &ts, None);
        assert_eq!(p.habits.len(), cfg.n_habits);
        for &(l, t) in &p.habits {
            assert!(l < cfg.n_locations);
            assert!(t < cfg.n_timestamps);
        }
    }

    #[test]
    fn habit_posts_reuse_profile_pairs() {
        let cfg = GeneratorConfig {
            profile_noise: 0.0,
            ..Default::default()
        };
        let loc = PopularitySampler::new(cfg.n_locations, cfg.popularity_skew);
        let ts = PopularitySampler::new(cfg.n_timestamps, 0.0);
        let mut r = rng();
        let profile = sample_profile(&mut r, &cfg, &loc, &ts, None);
        let posts = generate_posts(&mut r, &profile, 20.0, &cfg, &loc, &ts);
        for p in &posts {
            assert!(
                profile.habits.contains(&(p.location, p.timestamp)),
                "noise-free post must come from the profile"
            );
        }
    }

    #[test]
    fn pure_noise_posts_need_no_profile() {
        let cfg = GeneratorConfig {
            profile_noise: 1.0,
            ..Default::default()
        };
        let loc = PopularitySampler::new(cfg.n_locations, 0.0);
        let ts = PopularitySampler::new(cfg.n_timestamps, 0.0);
        let empty = Profile { habits: vec![] };
        let posts = generate_posts(&mut rng(), &empty, 5.0, &cfg, &loc, &ts);
        for p in &posts {
            assert!(p.location < cfg.n_locations);
            assert!(p.timestamp < cfg.n_timestamps);
        }
    }

    #[test]
    fn archetype_members_share_habits() {
        let cfg = GeneratorConfig {
            archetype_mix: 1.0,
            ..Default::default()
        };
        let loc = PopularitySampler::new(cfg.n_locations, 0.0);
        let ts = PopularitySampler::new(cfg.n_timestamps, 0.0);
        let mut r = rng();
        let pools = sample_archetypes(&mut r, &cfg, &loc, &ts);
        assert_eq!(pools.len(), cfg.n_archetypes);
        let a = sample_profile(&mut r, &cfg, &loc, &ts, Some(&pools[0]));
        let b = sample_profile(&mut r, &cfg, &loc, &ts, Some(&pools[0]));
        // With mix = 1.0 every habit comes from the pool.
        for h in a.habits.iter().chain(b.habits.iter()) {
            assert!(pools[0].habits.contains(h));
        }
    }

    #[test]
    fn zero_mix_ignores_archetype() {
        let cfg = GeneratorConfig {
            archetype_mix: 0.0,
            n_habits: 64,
            ..Default::default()
        };
        let loc = PopularitySampler::new(cfg.n_locations, 0.0);
        let ts = PopularitySampler::new(cfg.n_timestamps, 0.0);
        let mut r = rng();
        let pool = ArchetypePool {
            habits: vec![(0, 0)],
        };
        let p = sample_profile(&mut r, &cfg, &loc, &ts, Some(&pool));
        // 64 independent draws over 120×80 pairs virtually never all equal (0,0).
        assert!(p.habits.iter().any(|&h| h != (0, 0)));
    }

    #[test]
    fn post_count_mean_is_close() {
        let mut r = rng();
        let total: usize = (0..3000).map(|_| sample_count(&mut r, 6.0)).sum();
        let mean = total as f64 / 3000.0;
        assert!(mean > 4.8 && mean < 7.2, "mean {mean}");
    }

    #[test]
    fn zero_mean_gives_no_posts() {
        let mut r = rng();
        assert_eq!(sample_count(&mut r, 0.0), 0);
    }
}
