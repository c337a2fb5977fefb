//! The library's one range fan-out.
//!
//! Every parallel kernel here cuts its work into contiguous index ranges
//! ([`balanced_ranges`]) and runs one range per scoped worker
//! ([`fan_out`]), joining the results in range order; [`Threading`] sets
//! how many ranges. A range's result never depends on where the cuts
//! fall, so the kernels built on this are bit-identical at any worker
//! count.

use std::ops::Range;

/// How many ranges a fan-out cuts its work into, and so how many workers
/// it runs: the fused row pass's row blocks, the store build's per-node
/// preparation, the feature extraction's candidate batches. Results are
/// bit-identical at every setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threading {
    /// One range, run on the caller's thread (no worker spawned).
    #[default]
    Serial,
    /// Exactly this many ranges (clamped to ≥ 1).
    Threads(usize),
    /// One range per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Threading {
    /// The effective worker count (always ≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threading::Serial => 1,
            Threading::Threads(n) => n.max(1),
            Threading::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Contiguous ranges over `weights.len()` items, cut so each carries
/// ≈ `total / parts` of the weight. A single item heavier than the fair
/// share gets a range of its own; the trailing range absorbs the
/// remainder. Empty ranges are dropped, so no items give no ranges.
pub fn balanced_ranges(weights: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    let parts = parts.max(1);
    let total: usize = weights.iter().sum();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut cum: u128 = 0;
    for (i, &w) in weights.iter().enumerate() {
        cum += w as u128;
        // Cut after item i once this prefix has reached the next fair
        // share; the cross-multiplication avoids integer-division drift.
        if ranges.len() + 1 < parts
            && cum * parts as u128 >= total as u128 * (ranges.len() as u128 + 1)
        {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    ranges.push(start..n);
    ranges.into_iter().filter(|r| !r.is_empty()).collect()
}

/// Runs `f` once per range, each on its own scoped thread (the first on
/// the caller's), and returns the results in range order. One range runs
/// inline with no thread spawned.
///
/// # Panics
/// A panic inside `f` reaches the caller with its own payload once every
/// worker has returned; it never leaves a worker waiting.
pub fn fan_out<R: Send>(ranges: Vec<Range<usize>>, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let mut ranges = ranges.into_iter();
    let Some(first) = ranges.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges.map(|r| scope.spawn(move || f(r))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                // The scope joins the remaining workers before this
                // unwinds past it.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}
