//! Meta diagram covering sets (paper Definition 7, Lemmas 1–2).
//!
//! A covering set records which base meta paths compose a diagram. Two facts
//! follow from it:
//!
//! * **Lemma 1** — a user pair is connected by a diagram instance iff it is
//!   connected by instances of *every* covering path (property-tested in
//!   `tests/engine_vs_bruteforce.rs`);
//! * **Lemma 2** — if `C(Ψᵢ) ⊆ C(Ψⱼ)`, any pair connected by Ψⱼ is
//!   connected by Ψᵢ, so a count for Ψᵢ bounds (and, for endpoint
//!   stackings, *factors*) the computation of Ψⱼ. The store build uses the
//!   factoring directly: it counts each endpoint stacking as the Hadamard
//!   of its already-counted parts, scheduled by `run_dag` over a DAG in
//!   which a stack depends on exactly its parts.

use crate::diagram::{AttrPathId, SocialPathId};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex, OnceLock};

/// A small bitset over the base meta paths {P1..P4} ∪ {P5, P6, PW}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoveringSet {
    bits: u8,
}

const SOCIAL_BASE: u8 = 0; // bits 0..4
const ATTR_BASE: u8 = 4; // bits 4..7

fn social_bit(p: SocialPathId) -> u8 {
    let i = match p {
        SocialPathId::P1 => 0,
        SocialPathId::P2 => 1,
        SocialPathId::P3 => 2,
        SocialPathId::P4 => 3,
    };
    1 << (SOCIAL_BASE + i)
}

fn attr_bit(a: AttrPathId) -> u8 {
    let i = match a {
        AttrPathId::Timestamp => 0,
        AttrPathId::Location => 1,
        AttrPathId::Word => 2,
    };
    1 << (ATTR_BASE + i)
}

impl CoveringSet {
    /// The empty set.
    pub fn empty() -> Self {
        CoveringSet { bits: 0 }
    }

    /// Adds a social path.
    pub fn insert_social(&mut self, p: SocialPathId) {
        self.bits |= social_bit(p);
    }

    /// Adds an attribute path.
    pub fn insert_attr(&mut self, a: AttrPathId) {
        self.bits |= attr_bit(a);
    }

    /// Membership test for a social path.
    pub fn contains_social(&self, p: SocialPathId) -> bool {
        self.bits & social_bit(p) != 0
    }

    /// Membership test for an attribute path.
    pub fn contains_attr(&self, a: AttrPathId) -> bool {
        self.bits & attr_bit(a) != 0
    }

    /// Number of distinct covering paths.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// True when no path is present.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Subset relation (Lemma 2's premise).
    pub fn is_subset_of(&self, other: &CoveringSet) -> bool {
        self.bits & other.bits == self.bits
    }

    /// Set union (covering set of an endpoint stacking).
    pub fn union(&self, other: &CoveringSet) -> CoveringSet {
        CoveringSet {
            bits: self.bits | other.bits,
        }
    }

    /// The social paths present, in Table I order.
    pub fn social_paths(&self) -> Vec<SocialPathId> {
        SocialPathId::ALL
            .into_iter()
            .filter(|&p| self.contains_social(p))
            .collect()
    }

    /// The attribute paths present.
    pub fn attr_paths(&self) -> Vec<AttrPathId> {
        [
            AttrPathId::Timestamp,
            AttrPathId::Location,
            AttrPathId::Word,
        ]
        .into_iter()
        .filter(|&a| self.contains_attr(a))
        .collect()
    }
}

/// Executes `f(i, parts)` once per node of a DAG, fanning out over
/// `workers` threads. `deps[i]` lists the nodes `i` reads, every one of
/// them before `i` (the store build hands over its dependency-ordered
/// node list, where a stack reads exactly its parts). `parts` holds the
/// results of `deps[i]`, in that order. A node becomes ready the moment
/// its own dependencies complete, so one slow node never stalls
/// unrelated work, and the whole run pays a single thread-spawn wave.
/// Results come back in node-index order.
///
/// Determinism: each node runs exactly once and reads only its own
/// dependencies' results, so the output is a pure function of `f` —
/// bit-equal at any worker count as long as `f` is itself deterministic.
/// A panic in `f` stops the run and propagates to the caller.
pub(crate) fn run_dag<R: Send + Sync>(
    deps: &[Vec<usize>],
    workers: usize,
    f: impl Fn(usize, &[&R]) -> R + Sync,
) -> Vec<R> {
    assert!(
        deps.iter()
            .enumerate()
            .all(|(i, d)| d.iter().all(|&p| p < i)),
        "run_dag: every dependency must precede its node"
    );
    let n = deps.len();
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let run = |i: usize| {
        let parts: Vec<&R> = deps[i]
            .iter()
            .map(|&p| slots[p].get().expect("a node runs after its dependencies"))
            .collect();
        // Each node runs once, so its slot is still empty.
        let _ = slots[i].set(f(i, &parts));
    };

    if workers.min(n) <= 1 {
        (0..n).for_each(run);
    } else {
        let mut dependents = vec![Vec::new(); n];
        for (i, d) in deps.iter().enumerate() {
            for &p in d {
                dependents[p].push(i);
            }
        }
        let state = Mutex::new(SchedState {
            ready: (0..n).filter(|&i| deps[i].is_empty()).collect(),
            remaining: deps.iter().map(Vec::len).collect(),
            completed: 0,
            panic: None,
        });
        let done = Condvar::new();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(n) {
                scope.spawn(|| loop {
                    let next = {
                        let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                        loop {
                            if st.panic.is_some() {
                                break None;
                            }
                            if let Some(i) = st.ready.pop_front() {
                                break Some(i);
                            }
                            if st.completed == n {
                                break None;
                            }
                            st = done.wait(st).unwrap_or_else(|e| e.into_inner());
                        }
                    };
                    let Some(i) = next else {
                        return;
                    };
                    if let Err(panic) = std::panic::catch_unwind(AssertUnwindSafe(|| run(i))) {
                        // Wake the idle workers: the nodes behind this one
                        // will never become ready.
                        state.lock().unwrap_or_else(|e| e.into_inner()).panic = Some(panic);
                        done.notify_all();
                        return;
                    }
                    let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                    st.completed += 1;
                    for &d in &dependents[i] {
                        st.remaining[d] -= 1;
                        if st.remaining[d] == 0 {
                            st.ready.push_back(d);
                        }
                    }
                    drop(st);
                    done.notify_all();
                });
            }
        });
        if let Some(panic) = state.into_inner().unwrap_or_else(|e| e.into_inner()).panic {
            std::panic::resume_unwind(panic);
        }
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every dag node ran"))
        .collect()
}

struct SchedState {
    ready: VecDeque<usize>,
    remaining: Vec<usize>,
    completed: usize,
    /// A node's panic, re-raised once every worker has returned.
    panic: Option<Box<dyn Any + Send>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut s = CoveringSet::empty();
        assert!(s.is_empty());
        s.insert_social(SocialPathId::P2);
        s.insert_attr(AttrPathId::Location);
        assert_eq!(s.len(), 2);
        assert!(s.contains_social(SocialPathId::P2));
        assert!(!s.contains_social(SocialPathId::P1));
        assert!(s.contains_attr(AttrPathId::Location));
        assert!(!s.contains_attr(AttrPathId::Timestamp));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut s = CoveringSet::empty();
        s.insert_social(SocialPathId::P1);
        s.insert_social(SocialPathId::P1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn subset_and_union() {
        let mut a = CoveringSet::empty();
        a.insert_attr(AttrPathId::Timestamp);
        let mut b = a;
        b.insert_attr(AttrPathId::Location);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        let u = a.union(&b);
        assert_eq!(u, b);
    }

    #[test]
    fn path_listings_are_ordered() {
        let mut s = CoveringSet::empty();
        s.insert_social(SocialPathId::P4);
        s.insert_social(SocialPathId::P1);
        s.insert_attr(AttrPathId::Word);
        assert_eq!(s.social_paths(), vec![SocialPathId::P1, SocialPathId::P4]);
        assert_eq!(s.attr_paths(), vec![AttrPathId::Word]);
    }

    /// A five-node DAG in dependency order: 0 and 1 are roots, 2 reads
    /// 0, 3 reads 0 and 2, 4 reads 1 twice.
    fn sample_deps() -> Vec<Vec<usize>> {
        vec![vec![], vec![], vec![0], vec![0, 2], vec![1, 1]]
    }

    #[test]
    fn run_dag_respects_dependencies_at_any_worker_count() {
        use std::sync::Mutex;
        let deps = sample_deps();
        for workers in [1, 2, 4, 8] {
            let finished: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let results = run_dag(&deps, workers, |i, parts: &[&usize]| {
                // A node may only start after all of its dependencies have
                // been recorded as finished, and sees their results in
                // dependency-list order.
                {
                    let done = finished.lock().unwrap();
                    for &d in &deps[i] {
                        assert!(
                            done.contains(&d),
                            "node {i} started before dep {d} ({workers} workers)"
                        );
                    }
                }
                let want: Vec<usize> = deps[i].iter().map(|&d| d * 10).collect();
                assert_eq!(parts.iter().map(|&&p| p).collect::<Vec<_>>(), want);
                std::thread::yield_now();
                finished.lock().unwrap().push(i);
                i * 10
            });
            assert_eq!(results, vec![0, 10, 20, 30, 40], "{workers} workers");
            // Every node ran exactly once.
            let mut done = finished.into_inner().unwrap();
            done.sort_unstable();
            assert_eq!(done, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn run_dag_of_empty_plan_is_empty() {
        assert!(run_dag(&[], 4, |i, _: &[&usize]| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "node 0 failed")]
    fn run_dag_propagates_a_node_panic_instead_of_hanging() {
        // Node 2 waits on node 0, which panics; the idle worker must not
        // wait for node 2 forever.
        run_dag(&[vec![], vec![], vec![0]], 2, |i, _: &[&usize]| {
            assert_ne!(i, 0, "node 0 failed");
            i
        });
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn run_dag_refuses_a_dependency_after_its_node() {
        run_dag(&[vec![1], vec![]], 2, |i, _: &[&usize]| i);
    }
}
