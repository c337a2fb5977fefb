//! Meta diagram covering sets (paper Definition 7, Lemmas 1–2).
//!
//! A covering set records which base meta paths compose a diagram. Two facts
//! drive the count engine:
//!
//! * **Lemma 1** — a user pair is connected by a diagram instance iff it is
//!   connected by instances of *every* covering path (property-tested in
//!   `tests/engine_vs_bruteforce.rs`);
//! * **Lemma 2** — if `C(Ψᵢ) ⊆ C(Ψⱼ)`, any pair connected by Ψⱼ is
//!   connected by Ψᵢ, so a cached count for Ψᵢ bounds (and, for endpoint
//!   stackings, *factors*) the computation of Ψⱼ. The
//!   [`plan_order`] helper topologically orders a catalog so smaller
//!   covering sets are computed first and larger diagrams reuse them.

use crate::diagram::{AttrPathId, SocialPathId};

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

/// Orders catalog indices so that diagrams with smaller covering sets come
/// first — the evaluation order under which every endpoint-stacked diagram
/// finds its factors already cached (Lemma 2 reuse). Stable within equal
/// sizes to keep reports deterministic.
pub fn plan_order(coverings: &[CoveringSet]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..coverings.len()).collect();
    order.sort_by_key(|&i| (coverings[i].len(), i));
    order
}

/// The dependency DAG of a catalog: node `i` depends on node `j` when `j`'s
/// covering set is a **strict subset** of `i`'s — exactly the Lemma-2
/// factors the count engine reuses when it assembles `i`. The DAG lets a
/// scheduler start a diagram the moment its own factors are done,
/// regardless of what the rest of its size class is still computing.
#[derive(Debug, Clone)]
pub struct DagPlan {
    deps: Vec<Vec<usize>>,
    dependents: Vec<Vec<usize>>,
    topo: Vec<usize>,
}

impl DagPlan {
    /// Number of nodes (catalog entries).
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Nodes `i` depends on (strict covering subsets of `i`), ascending.
    pub fn deps(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Nodes that depend on `i`, ascending.
    pub fn dependents(&self, i: usize) -> &[usize] {
        &self.dependents[i]
    }

    /// A topological order ([`plan_order`]): every node's dependencies have
    /// strictly smaller covering sets and therefore precede it.
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }
}

/// Builds the strict-subset dependency DAG of a catalog. `O(n²)` bitset
/// comparisons over the catalog size (a few dozen diagrams), negligible
/// next to a single count.
pub fn plan_dag(coverings: &[CoveringSet]) -> DagPlan {
    let n = coverings.len();
    let mut deps = vec![Vec::new(); n];
    let mut dependents = vec![Vec::new(); n];
    for i in 0..n {
        for (j, cj) in coverings.iter().enumerate() {
            if i != j && cj.is_subset_of(&coverings[i]) && cj.len() < coverings[i].len() {
                deps[i].push(j);
                dependents[j].push(i);
            }
        }
    }
    DagPlan {
        deps,
        dependents,
        topo: plan_order(coverings),
    }
}

/// Executes `f(i)` once per node of `plan`, fanning out over `workers`
/// threads with **dependency-edge** synchronization instead of level
/// barriers: a node becomes ready the moment its own dependencies complete,
/// so one slow diagram never stalls unrelated work, and the whole run pays
/// a single thread-spawn wave instead of one per level. Results come back
/// in node-index order.
///
/// Determinism: each worker collects `(node, result)` pairs locally and the
/// pairs are merged by node index after every worker joins, so the output
/// is a pure function of `f` — bit-equal at any worker count as long as
/// `f(i)` is itself deterministic in `i` (the count engine's per-diagram
/// gates guarantee that even though workers share a cache).
pub fn run_dag<R: Send>(plan: &DagPlan, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let n = plan.len();
    if n == 0 {
        return Vec::new();
    }
    if workers.min(n) <= 1 {
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for &i in plan.topo_order() {
            slots[i] = Some(f(i));
        }
        return slots
            .into_iter()
            .map(|r| r.expect("topo order visits every node"))
            .collect();
    }
    let workers = workers.min(n);

    use std::collections::VecDeque;
    use std::sync::{Condvar, Mutex};

    struct SchedState {
        ready: VecDeque<usize>,
        remaining: Vec<usize>,
        completed: usize,
    }

    let remaining: Vec<usize> = (0..n).map(|i| plan.deps(i).len()).collect();
    // Seed the ready queue in topological order so roots drain smallest-first.
    let ready: VecDeque<usize> = plan
        .topo_order()
        .iter()
        .copied()
        .filter(|&i| remaining[i] == 0)
        .collect();
    let state = Mutex::new(SchedState {
        ready,
        remaining,
        completed: 0,
    });
    let done = Condvar::new();

    let batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let next = {
                            let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                            loop {
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
                            return local;
                        };
                        let r = f(i);
                        local.push((i, r));
                        let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                        st.completed += 1;
                        for &d in plan.dependents(i) {
                            st.remaining[d] -= 1;
                            if st.remaining[d] == 0 {
                                st.ready.push_back(d);
                            }
                        }
                        drop(st);
                        done.notify_all();
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dag worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for batch in batches {
        for (i, r) in batch {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every dag node completed"))
        .collect()
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

    #[test]
    fn plan_order_sorts_by_covering_size() {
        let mut small = CoveringSet::empty();
        small.insert_social(SocialPathId::P1);
        let mut mid = small;
        mid.insert_social(SocialPathId::P2);
        let mut big = mid;
        big.insert_attr(AttrPathId::Timestamp);
        let order = plan_order(&[big, small, mid]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn plan_order_is_stable_for_ties() {
        let a = CoveringSet::empty();
        let b = CoveringSet::empty();
        assert_eq!(plan_order(&[a, b]), vec![0, 1]);
    }

    /// A four-node chain-plus-branch: {P1} and {P3} are roots, {P1,P2}
    /// depends on {P1} only, {P1,P2,T} depends on both smaller sets built
    /// from P1.
    fn sample_coverings() -> Vec<CoveringSet> {
        let mut small = CoveringSet::empty();
        small.insert_social(SocialPathId::P1);
        let mut small2 = CoveringSet::empty();
        small2.insert_social(SocialPathId::P3);
        let mut mid = small;
        mid.insert_social(SocialPathId::P2);
        let mut big = mid;
        big.insert_attr(AttrPathId::Timestamp);
        vec![big, small, mid, small2]
    }

    #[test]
    fn plan_dag_edges_are_strict_subsets() {
        let coverings = sample_coverings();
        let dag = plan_dag(&coverings);
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.deps(1), &[] as &[usize]);
        assert_eq!(dag.deps(3), &[] as &[usize]);
        assert_eq!(dag.deps(2), &[1]);
        assert_eq!(dag.deps(0), &[1, 2]);
        assert_eq!(dag.dependents(1), &[0, 2]);
        assert_eq!(dag.dependents(3), &[] as &[usize]);
        // Equal sets must not produce edges (no cycles).
        let dup = plan_dag(&[coverings[1], coverings[1]]);
        assert!(dup.deps(0).is_empty() && dup.deps(1).is_empty());
        // Topological order matches plan_order, and every dependency
        // precedes its dependent in it.
        assert_eq!(dag.topo_order(), plan_order(&coverings).as_slice());
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (rank, &i) in dag.topo_order().iter().enumerate() {
                p[i] = rank;
            }
            p
        };
        for i in 0..4 {
            for &d in dag.deps(i) {
                assert!(pos[d] < pos[i], "dep {d} must precede {i}");
            }
        }
    }

    #[test]
    fn run_dag_respects_dependencies_at_any_worker_count() {
        use std::sync::Mutex;
        let coverings = sample_coverings();
        let dag = plan_dag(&coverings);
        for workers in [1, 2, 4, 8] {
            let finished: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let results = run_dag(&dag, workers, |i| {
                // A node may only start after all of its dependencies have
                // been recorded as finished.
                {
                    let done = finished.lock().unwrap();
                    for &d in dag.deps(i) {
                        assert!(
                            done.contains(&d),
                            "node {i} started before dep {d} ({workers} workers)"
                        );
                    }
                }
                std::thread::yield_now();
                finished.lock().unwrap().push(i);
                i * 10
            });
            assert_eq!(results, vec![0, 10, 20, 30], "{workers} workers");
            let mut done = finished.into_inner().unwrap();
            done.sort_unstable();
            assert_eq!(done, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn run_dag_of_empty_plan_is_empty() {
        let dag = plan_dag(&[]);
        assert!(dag.is_empty());
        assert!(run_dag(&dag, 4, |i| i).is_empty());
    }
}
