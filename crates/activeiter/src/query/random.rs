//! Uniform random query selection — the **ActiveIter-Rand** baseline, which
//! the paper uses to show that *which* labels are queried matters (random
//! extra labels barely help; see Table III/IV and Fig. 5).

use super::{QueryContext, QueryStrategy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Picks `batch` queryable candidates uniformly at random.
#[derive(Debug)]
pub struct RandomQuery {
    rng: StdRng,
}

impl RandomQuery {
    /// Seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomQuery {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl QueryStrategy for RandomQuery {
    fn select(&mut self, ctx: &QueryContext<'_>) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..ctx.candidates.len())
            .filter(|&i| ctx.queryable[i])
            .collect();
        pool.shuffle(&mut self.rng);
        pool.truncate(ctx.batch);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::super::{assert_valid_selection, testutil};
    use super::*;

    #[test]
    fn selects_within_pool_and_batch() {
        let f = testutil::fixture();
        let mut s = RandomQuery::new(3);
        let sel = s.select(&f.ctx(3));
        assert_eq!(sel.len(), 3);
        assert_valid_selection(&sel, &f.ctx(3));
    }

    #[test]
    fn deterministic_under_seed() {
        let f = testutil::fixture();
        let a = RandomQuery::new(9).select(&f.ctx(4));
        let b = RandomQuery::new(9).select(&f.ctx(4));
        assert_eq!(a, b);
    }

    #[test]
    fn respects_queryable_mask() {
        let mut f = testutil::fixture();
        f.queryable = vec![false, true, false, false, false];
        let mut s = RandomQuery::new(1);
        let sel = s.select(&f.ctx(5));
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn empty_pool_gives_empty_selection() {
        let mut f = testutil::fixture();
        f.queryable = vec![false; 5];
        let mut s = RandomQuery::new(1);
        assert!(s.select(&f.ctx(5)).is_empty());
    }
}
