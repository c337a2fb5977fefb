//! Generator configuration.

/// All knobs of the synthetic world. See the crate docs for how each knob
/// maps to a feature-family signal. Defaults produce a small but non-trivial
/// world suitable for tests; the presets in [`crate::presets`] mirror the
/// paper's Table II proportions at configurable scale.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Master seed; the entire world is a pure function of it.
    pub seed: u64,
    /// Users present in both networks (ground-truth anchors).
    pub n_shared_users: usize,
    /// Users present only in the left network.
    pub n_extra_left: usize,
    /// Users present only in the right network.
    pub n_extra_right: usize,
    /// Size of the shared location universe.
    pub n_locations: usize,
    /// Size of the shared (discretized) timestamp universe.
    pub n_timestamps: usize,

    /// Mean out-degree of the latent social graph over shared users.
    pub base_degree: f64,
    /// Probability a latent edge materializes in the left network.
    pub keep_left: f64,
    /// Probability a latent edge materializes in the right network.
    pub keep_right: f64,
    /// Per-network random extra follow edges, as a fraction of kept edges.
    pub noise_edge_frac: f64,
    /// Mean out-degree of the extra (non-shared) users in each network.
    pub extra_degree: f64,
    /// Preferential-attachment mixing weight (0 = uniform targets,
    /// 1 = fully degree-proportional).
    pub pa_strength: f64,
    /// Number of latent communities the shared users are split into
    /// (contiguous, near-equal blocks). `0` or `1` disables community
    /// structure entirely — the generator then draws **exactly** the same
    /// random sequence as before the knob existed, so existing presets
    /// and seeds reproduce bit-identically.
    pub n_communities: usize,
    /// Probability a latent follow edge stays inside its source's
    /// community (when communities are enabled). In-community targets are
    /// preferential-attachment weighted over the community only, which
    /// keeps target sampling `O(n / n_communities)` — the property that
    /// makes 100×–1000× table-IV scales generable.
    pub community_bias: f64,

    /// Mean number of posts per user in the left network.
    pub posts_per_user_left: f64,
    /// Mean number of posts per user in the right network (Foursquare-style
    /// networks are less chatty).
    pub posts_per_user_right: f64,
    /// Number of habitual (location, timestamp) pairs per user profile.
    pub n_habits: usize,
    /// Number of shared habit archetypes (communities whose members frequent
    /// the same venues at the same times). `0` disables archetypes. Without
    /// them, uniformly sampled negative pairs share nothing and the task is
    /// unrealistically easy — real networks are full of *confusable* users,
    /// which is what the active query strategy feeds on.
    pub n_archetypes: usize,
    /// Fraction of each profile's habits drawn from the user's archetype
    /// pool (the rest are personal).
    pub archetype_mix: f64,
    /// Probability that a post ignores the profile and draws location and
    /// timestamp independently from the global popularity distributions.
    /// This is what creates "dislocated" coincidences (paper §III-B.2).
    pub profile_noise: f64,
    /// Zipf-like skew of global location popularity (0 = uniform).
    pub popularity_skew: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 7,
            n_shared_users: 100,
            n_extra_left: 40,
            n_extra_right: 45,
            n_locations: 120,
            n_timestamps: 80,
            base_degree: 10.0,
            keep_left: 0.8,
            keep_right: 0.6,
            noise_edge_frac: 0.15,
            extra_degree: 6.0,
            pa_strength: 0.6,
            n_communities: 0,
            community_bias: 0.0,
            posts_per_user_left: 10.0,
            posts_per_user_right: 6.0,
            n_habits: 4,
            n_archetypes: 8,
            archetype_mix: 0.5,
            profile_noise: 0.3,
            popularity_skew: 0.8,
        }
    }
}

impl GeneratorConfig {
    /// Total users in the left network.
    pub fn n_left_users(&self) -> usize {
        self.n_shared_users + self.n_extra_left
    }

    /// Total users in the right network.
    pub fn n_right_users(&self) -> usize {
        self.n_shared_users + self.n_extra_right
    }

    /// Returns a copy with a different seed (for fold-rotation style reuse).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sanity-checks ranges; called by the generator.
    ///
    /// # Panics
    /// Panics with a descriptive message on nonsensical settings — these are
    /// programming errors in experiment setup, not runtime conditions.
    pub fn validate(&self) {
        assert!(self.n_shared_users > 0, "need at least one shared user");
        assert!(self.n_locations > 0, "need a non-empty location universe");
        assert!(self.n_timestamps > 0, "need a non-empty timestamp universe");
        for (name, p) in [
            ("keep_left", self.keep_left),
            ("keep_right", self.keep_right),
            ("profile_noise", self.profile_noise),
            ("pa_strength", self.pa_strength),
            ("archetype_mix", self.archetype_mix),
            ("community_bias", self.community_bias),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
        assert!(self.base_degree >= 0.0 && self.extra_degree >= 0.0);
        assert!(self.posts_per_user_left >= 0.0 && self.posts_per_user_right >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        GeneratorConfig::default().validate();
    }

    #[test]
    fn totals() {
        let c = GeneratorConfig::default();
        assert_eq!(c.n_left_users(), 140);
        assert_eq!(c.n_right_users(), 145);
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let c = GeneratorConfig::default();
        let c2 = c.clone().with_seed(99);
        assert_eq!(c2.seed, 99);
        assert_eq!(c2.n_shared_users, c.n_shared_users);
    }

    #[test]
    #[should_panic(expected = "shared user")]
    fn rejects_zero_users() {
        GeneratorConfig {
            n_shared_users: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "keep_left")]
    fn rejects_bad_probability() {
        GeneratorConfig {
            keep_left: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "community_bias")]
    fn rejects_bad_community_bias() {
        GeneratorConfig {
            n_communities: 4,
            community_bias: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
