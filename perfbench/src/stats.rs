//! Order statistics over latency samples.

/// Percentiles the tail search walks, highest first, in per-mille so the
/// rank arithmetic stays exact.
const TAIL_LADDER_PERMILLE: [u64; 8] = [999, 995, 990, 980, 950, 900, 750, 500];

/// The tail a latency series supports: the highest ladder percentile with
/// at least [`MIN_BEYOND`] samples strictly above its nearest-rank value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// Samples that must rank beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty series or a NaN sample — both are harness bugs.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// ranked beyond it; `None` when the series is too short for any.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len() as u64;
    TAIL_LADDER_PERMILLE.iter().find_map(|&pm| {
        // Nearest rank, 1-based: ceil(pm·n / 1000).
        let rank = (pm * n).div_ceil(1000).max(1);
        let beyond = (n - rank) as usize;
        (beyond >= MIN_BEYOND).then(|| Tail {
            pct: pm as f64 / 10.0,
            value: v[rank as usize - 1],
            beyond,
            n: n as usize,
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending n..=1 so sorting is exercised.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p95 has rank 190 and 10 beyond; p98 would have 4.
        let t = tail(&ramp(200)).expect("200 samples support a tail");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (95.0, 190.0, 10, 200));
        // 1000 samples: p99 has exactly 10 beyond, p99.5 only 5.
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.pct, t.beyond), (99.0, 10));
        // 10 000 samples reach the top of the ladder.
        let t = tail(&ramp(10_000)).expect("tail");
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
    }

    #[test]
    fn tail_walks_down_the_ladder_and_gives_up_when_short() {
        // 40 samples: p75 has rank 30 and 10 beyond; p90 only 4.
        let t = tail(&ramp(40)).expect("tail");
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        // 20 samples: p50 has rank 10 and 10 beyond.
        assert_eq!(tail(&ramp(20)).map(|t| t.pct), Some(50.0));
        // 19 samples cannot put 10 beyond any ladder percentile.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_tail_has_at_least_ten_beyond() {
        for n in 20..600 {
            let t = tail(&ramp(n)).expect("n >= 20 supports p50");
            assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.value, (t.n - t.beyond) as f64, "n={n}");
        }
    }
}
