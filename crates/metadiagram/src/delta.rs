//! Incremental catalog recounting under anchor updates (the `L·ΔA·R` path).
//!
//! Every Iter-MPMD/ActiveIter round confirms a handful of anchor links and
//! re-derives the meta-diagram counts from the grown anchor matrix. A full
//! recount pays the whole SpGEMM catalog again; this module exploits the
//! structure [`CountEngine::anchor_chain_factors`] exposes instead:
//!
//! * **social paths / social middle-stackings** count as `C = L·A·R` with
//!   anchor-independent factors, so `C(A+ΔA) = C(A) + L·ΔA·R` — a sparse
//!   low-rank update ([`sparsela::spgemm_lowrank`]) whose cost scales with
//!   `|ΔA|`, not with the catalog;
//! * **attribute paths / attribute middle-stackings** never touch `A` and
//!   are carried over untouched;
//! * **endpoint stackings** are Hadamard products of already-updated
//!   factors — an `O(nnz)` re-combination, no SpGEMM.
//!
//! All arithmetic is exact (counts are small nonnegative integers stored in
//! `f64`), so the delta path is **bit-equal** to a full recount from the
//! merged anchor set — property-tested in `tests/delta_props.rs`.
//!
//! A [`DeltaCatalogCounts`] is also the unit of **persistence**: it owns
//! everything an update needs (factor chains included, networks
//! excluded), so [`crate::codec::encode_store`] /
//! [`crate::codec::decode_store`] can write it to disk and a fresh
//! process can resume updates bit-equal to the store that was saved —
//! the payload behind `session::snapshot`.

use crate::catalog::Catalog;
use crate::count::{CountEngine, EngineError};
use crate::covering::{plan_dag, run_dag};
use crate::diagram::Diagram;
use hetnet::{AnchorLink, HetNet};
use sparsela::{
    spgemm_lowrank_with_sums, spgemm_threaded, Accumulator, CooMatrix, CsrMatrix, MarginSums,
    SparseError, Threading,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Errors raised when applying an anchor update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An anchor endpoint exceeds its user population.
    AnchorOutOfRange {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// The offending user index.
        index: usize,
        /// The population size.
        count: usize,
    },
    /// Two persisted artifacts that must share a shape have drifted apart —
    /// the signature of a malformed (hand-edited or version-skewed)
    /// snapshot-restored store. Consistency is validated *before* any
    /// mutation, so the store is unchanged and a `session::SessionPool`
    /// worker degrades to this error instead of aborting on a panic.
    ShapeDrift {
        /// Which artifact disagreed, e.g. `"factor chain L"`.
        what: &'static str,
        /// Index into the store's materialization order.
        node: usize,
        /// The artifact's actual shape.
        found: (usize, usize),
        /// The shape the store's invariants require.
        expected: (usize, usize),
    },
    /// A store invariant that is not a plain shape equality broke, or a
    /// sparse kernel rejected its operands mid-propagation. Carries the
    /// underlying message.
    Inconsistent(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::AnchorOutOfRange { side, index, count } => {
                write!(f, "{side} anchor endpoint {index} out of range (< {count})")
            }
            DeltaError::ShapeDrift {
                what,
                node,
                found,
                expected,
            } => write!(
                f,
                "store node {node}: {what} is {}x{}, must be {}x{}",
                found.0, found.1, expected.0, expected.1
            ),
            DeltaError::Inconsistent(msg) => write!(f, "inconsistent delta store: {msg}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<SparseError> for DeltaError {
    fn from(e: SparseError) -> Self {
        DeltaError::Inconsistent(e.to_string())
    }
}

/// Work counters of a [`DeltaCatalogCounts`] store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Full catalog counts performed (1 at build, +1 per
    /// [`DeltaCatalogCounts::recount_anchors`]).
    pub full_counts: usize,
    /// Applied incremental updates ([`DeltaCatalogCounts::update_anchors`]
    /// calls that had at least one genuinely new anchor).
    pub delta_updates: usize,
    /// Total new anchors merged since the build.
    pub anchors_applied: usize,
}

/// The rows and columns of a count matrix that an update touched —
/// sorted ascending, duplicate-free. Rows outside `rows` are
/// **bit-identical** to before the update (pattern and values — the
/// guarantee region-local stack re-Hadamards rely on when they carry
/// untouched rows over); columns outside `cols` kept their column sum.
/// So a Dice score `2·C[l,r] / (row_sum[l] + col_sum[r])` can move only
/// where `l` is a touched row or `r` a touched column, which is how the
/// session re-reads just those features. Regions may overapproximate
/// (claim more than actually changed); they must never underapproximate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchedRegion {
    /// Touched row indices, sorted.
    pub rows: Vec<usize>,
    /// Touched column indices, sorted.
    pub cols: Vec<usize>,
}

impl TouchedRegion {
    /// The region covering exactly the stored entries of `delta`.
    fn of_pattern(delta: &CsrMatrix) -> Self {
        let rows: Vec<usize> = (0..delta.nrows())
            .filter(|&i| delta.row_nnz(i) > 0)
            .collect();
        let mut cols: Vec<usize> = delta.indices().to_vec();
        cols.sort_unstable();
        cols.dedup();
        TouchedRegion { rows, cols }
    }

    /// Merges another region into this one (sorted-set union).
    fn absorb(&mut self, other: &TouchedRegion) {
        fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                match (a.get(i), b.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        out.push(x);
                        i += 1;
                        j += 1;
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        out.push(x);
                        i += 1;
                    }
                    (Some(_), Some(&y)) => {
                        out.push(y);
                        j += 1;
                    }
                    (Some(&x), None) => {
                        out.push(x);
                        i += 1;
                    }
                    (None, Some(&y)) => {
                        out.push(y);
                        j += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
            out
        }
        self.rows = union_sorted(&self.rows, &other.rows);
        self.cols = union_sorted(&self.cols, &other.cols);
    }

    /// True when nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.cols.is_empty()
    }
}

/// One catalog feature whose count matrix changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangedCount {
    /// Catalog position of the changed count matrix.
    pub catalog_pos: usize,
    /// Where the change landed. `Some` on the incremental path — downstream
    /// layers refresh only this region; `None` on the full-recount path
    /// (treat the whole matrix as touched).
    pub touched: Option<TouchedRegion>,
}

/// What an anchor update changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Genuinely new anchors merged (duplicates and already-present links
    /// are skipped silently).
    pub applied: usize,
    /// Catalog positions whose count matrices changed, in catalog order,
    /// each with the touched row/col sets when the update was incremental.
    /// Anchor-free features (attribute paths and their middle-stackings)
    /// never appear here — downstream layers can skip re-deriving them.
    pub changed: Vec<ChangedCount>,
}

impl DeltaOutcome {
    /// The changed catalog positions alone, in catalog order.
    pub fn changed_positions(&self) -> Vec<usize> {
        self.changed.iter().map(|c| c.catalog_pos).collect()
    }
}

/// The anchor-chain factorization `C = L·A·R`, with `Lᵀ` cached for the
/// low-rank update kernel.
#[derive(Clone)]
pub(crate) struct FactorChain {
    pub(crate) l: CsrMatrix,
    pub(crate) lt: CsrMatrix,
    pub(crate) r: CsrMatrix,
}

/// How one materialized diagram reacts to an anchor update.
#[derive(Clone)]
pub(crate) enum NodeKind {
    /// `C = L·A·R`: keeps the factor chain (boxed — most nodes are stacks).
    AnchorChain(Box<FactorChain>),
    /// Anchor-independent: carried over untouched.
    AnchorFree,
    /// Hadamard of other materialized nodes (indices into the store).
    Stack(Vec<usize>),
}

/// An owning store of one catalog's count matrices plus everything needed
/// to update them incrementally when anchors are confirmed.
///
/// Built once from a pair of networks (which it does **not** keep borrowed
/// — the factor chains make the networks unnecessary afterwards), then
/// driven by [`DeltaCatalogCounts::update_anchors`]. This is the counting
/// core of `session::AlignmentSession`.
///
/// The store is a plain value (`Clone` duplicates every owned artifact),
/// so callers can checkpoint a counting state and explore updates from it.
#[derive(Clone)]
pub struct DeltaCatalogCounts {
    pub(crate) anchor: CsrMatrix,
    /// Materialized diagrams in dependency order (stack parts first).
    pub(crate) order: Vec<Diagram>,
    pub(crate) kinds: Vec<NodeKind>,
    pub(crate) counts: Vec<CsrMatrix>,
    /// Row/column margins of every materialized count, maintained
    /// incrementally alongside `counts` (the Dice denominators).
    pub(crate) sums: Vec<MarginSums>,
    /// Catalog position → index into `order`/`counts`.
    pub(crate) catalog_pos: Vec<usize>,
    pub(crate) threading: Threading,
    pub(crate) stats: DeltaStats,
}

impl fmt::Debug for DeltaCatalogCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaCatalogCounts")
            .field("anchors", &self.anchor.nnz())
            .field("catalog", &self.catalog_pos.len())
            .field("materialized", &self.order.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DeltaCatalogCounts {
    /// Counts the whole catalog once (the store's single mandatory full
    /// count) and harvests the factor chains for every anchor-dependent
    /// diagram. `threading` fans the initial count out over the covering
    /// dependency DAG exactly like [`crate::proximity_matrices_par`];
    /// results are bit-identical at any setting.
    ///
    /// Factor harvesting is eager because the networks are not retained
    /// after the build — a batch caller that never updates pays for it
    /// too. That cost is `O(nnz)` clones/transposes of ~10 step matrices,
    /// measured within run-to-run noise of the catalog's SpGEMMs on the
    /// quick eval preset (perf-gated in CI); if it ever matters, a
    /// build-without-update-support mode is the escape hatch.
    ///
    /// # Errors
    /// Propagates [`CountEngine::new`] validation (anchor shape, shared
    /// attribute universes).
    pub fn build(
        left: &HetNet,
        right: &HetNet,
        anchor: CsrMatrix,
        catalog: &Catalog,
        threading: Threading,
    ) -> Result<Self, EngineError> {
        let engine = CountEngine::new(left, right, anchor.clone())?;
        // Warm the engine cache over the strict-subset dependency DAG: one
        // spawn wave for the whole catalog, and a diagram starts as soon as
        // its own Lemma-2 factors are cached. The engine's per-diagram
        // gates keep the cached counts bit-identical at any worker count
        // (run_dag runs the topological order serially when workers <= 1).
        let coverings = catalog.coverings();
        run_dag(&plan_dag(&coverings), threading.resolve(), |idx| {
            let _ = engine.count(&catalog.entries()[idx].diagram);
        });
        // Harvest counts and factor chains in dependency order.
        let mut store = DeltaCatalogCounts {
            anchor,
            order: Vec::new(),
            kinds: Vec::new(),
            counts: Vec::new(),
            sums: Vec::new(),
            catalog_pos: Vec::with_capacity(catalog.len()),
            threading,
            stats: DeltaStats {
                full_counts: 1,
                ..DeltaStats::default()
            },
        };
        let mut index: HashMap<Diagram, usize> = HashMap::new();
        for entry in catalog.entries() {
            let pos = store.materialize(&engine, &entry.diagram, &mut index);
            store.catalog_pos.push(pos);
        }
        Ok(store)
    }

    fn materialize(
        &mut self,
        engine: &CountEngine<'_>,
        diagram: &Diagram,
        index: &mut HashMap<Diagram, usize>,
    ) -> usize {
        if let Some(&i) = index.get(diagram) {
            return i;
        }
        let kind = match diagram {
            Diagram::Stack(parts) => NodeKind::Stack(
                parts
                    .iter()
                    .map(|p| self.materialize(engine, p, index))
                    .collect(),
            ),
            _ => match engine.anchor_chain_factors(diagram) {
                Some((l, r)) => NodeKind::AnchorChain(Box::new(FactorChain {
                    lt: l.transpose(),
                    l,
                    r,
                })),
                None => NodeKind::AnchorFree,
            },
        };
        let count = (*engine.count(diagram)).clone();
        let i = self.order.len();
        self.order.push(diagram.clone());
        self.kinds.push(kind);
        self.sums.push(MarginSums::of(&count));
        self.counts.push(count);
        index.insert(diagram.clone(), i);
        i
    }

    /// The current (merged) anchor matrix.
    pub fn anchor(&self) -> &CsrMatrix {
        &self.anchor
    }

    /// Number of anchors currently counted against.
    pub fn n_anchors(&self) -> usize {
        self.anchor.nnz()
    }

    /// Number of catalog features.
    pub fn len(&self) -> usize {
        self.catalog_pos.len()
    }

    /// Catalogs are never empty.
    pub fn is_empty(&self) -> bool {
        self.catalog_pos.is_empty()
    }

    /// The count matrix of catalog feature `i` (catalog order).
    pub fn catalog_count(&self, i: usize) -> &CsrMatrix {
        &self.counts[self.catalog_pos[i]]
    }

    /// The incrementally maintained row/column margins of catalog feature
    /// `i`'s count matrix — always bit-equal to a fresh
    /// `MarginSums::of(catalog_count(i))`, without the rescan.
    pub fn catalog_sums(&self, i: usize) -> &MarginSums {
        &self.sums[self.catalog_pos[i]]
    }

    /// Work counters.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// The worker threading the store was built with (persisted with the
    /// store by [`crate::codec`] — the single source of truth a restored
    /// session's own knob is set from).
    pub fn threading(&self) -> Threading {
        self.threading
    }

    /// Validates the cross-artifact shape invariants a propagation relies
    /// on, **before** any mutation: margins against their counts, factor
    /// chains against the anchor and count shapes, stack parts against
    /// their stack. Every store this crate builds passes by construction;
    /// a malformed snapshot-restored store fails here with a typed error
    /// and the store untouched. `O(catalog)` comparisons.
    fn check_consistent(&self) -> Result<(), DeltaError> {
        let (a1, a2) = self.anchor.shape();
        let n = self.order.len();
        if self.kinds.len() != n || self.counts.len() != n || self.sums.len() != n {
            return Err(DeltaError::Inconsistent(format!(
                "{n} diagrams vs {} kinds, {} counts, {} sums",
                self.kinds.len(),
                self.counts.len(),
                self.sums.len()
            )));
        }
        for (i, kind) in self.kinds.iter().enumerate() {
            let shape = self.counts[i].shape();
            if self.sums[i].shape() != shape {
                return Err(DeltaError::ShapeDrift {
                    what: "margin sums",
                    node: i,
                    found: self.sums[i].shape(),
                    expected: shape,
                });
            }
            match kind {
                NodeKind::AnchorChain(chain) => {
                    // C = L·A·R: L is (c1 × a1), Lᵀ its transpose, R (a2 × c2).
                    if chain.l.shape() != (shape.0, a1) {
                        return Err(DeltaError::ShapeDrift {
                            what: "factor chain L",
                            node: i,
                            found: chain.l.shape(),
                            expected: (shape.0, a1),
                        });
                    }
                    if chain.lt.shape() != (a1, shape.0) {
                        return Err(DeltaError::ShapeDrift {
                            what: "factor chain Lᵀ",
                            node: i,
                            found: chain.lt.shape(),
                            expected: (a1, shape.0),
                        });
                    }
                    if chain.r.shape() != (a2, shape.1) {
                        return Err(DeltaError::ShapeDrift {
                            what: "factor chain R",
                            node: i,
                            found: chain.r.shape(),
                            expected: (a2, shape.1),
                        });
                    }
                }
                NodeKind::AnchorFree => {}
                NodeKind::Stack(parts) => {
                    if parts.is_empty() {
                        return Err(DeltaError::Inconsistent(format!(
                            "stack node {i} has no parts"
                        )));
                    }
                    for &p in parts {
                        if p >= i {
                            return Err(DeltaError::Inconsistent(format!(
                                "stack node {i} references part {p} out of dependency order"
                            )));
                        }
                        if self.counts[p].shape() != shape {
                            return Err(DeltaError::ShapeDrift {
                                what: "stack part",
                                node: i,
                                found: self.counts[p].shape(),
                                expected: shape,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Validates and dedups `links` against the current anchors, returning
    /// the genuinely new `(row, col)` pairs.
    fn fresh_links(&self, links: &[AnchorLink]) -> Result<Vec<(usize, usize)>, DeltaError> {
        let (n1, n2) = self.anchor.shape();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut fresh = Vec::new();
        for a in links {
            let (i, j) = (a.left.index(), a.right.index());
            if i >= n1 {
                return Err(DeltaError::AnchorOutOfRange {
                    side: "left",
                    index: i,
                    count: n1,
                });
            }
            if j >= n2 {
                return Err(DeltaError::AnchorOutOfRange {
                    side: "right",
                    index: j,
                    count: n2,
                });
            }
            // srclint: allow(float_eq, reason = "anchor entries are exact 0.0/1.0; this is a membership test, not arithmetic")
            if self.anchor.get(i, j) != 0.0 || !seen.insert((i, j)) {
                continue;
            }
            fresh.push((i, j));
        }
        Ok(fresh)
    }

    fn merge_links(&mut self, fresh: &[(usize, usize)]) -> CsrMatrix {
        let (n1, n2) = self.anchor.shape();
        let mut coo = CooMatrix::with_capacity(n1, n2, fresh.len());
        for &(i, j) in fresh {
            coo.push(i, j, 1.0).expect("fresh links pre-validated");
        }
        let delta = coo.to_csr();
        self.anchor = self
            .anchor
            .add(&delta)
            .expect("delta shares the anchor shape");
        self.stats.anchors_applied += fresh.len();
        delta
    }

    /// Applies `ΔA` incrementally: every anchor-chain count gains
    /// `L·ΔA·R`, every stacking over a changed factor re-Hadamards, and
    /// anchor-free counts are untouched. Cost scales with `|ΔA|`.
    ///
    /// Links already present (and duplicates within the batch) are skipped;
    /// an all-duplicate batch is a no-op that leaves the stats untouched.
    ///
    /// # Errors
    /// [`DeltaError::AnchorOutOfRange`] on endpoints outside the user
    /// populations, [`DeltaError::ShapeDrift`] /
    /// [`DeltaError::Inconsistent`] when a (snapshot-restored) store's
    /// artifacts violate the shape invariants. The store is unchanged in
    /// every error case: consistency is validated before the merge.
    pub fn update_anchors(&mut self, links: &[AnchorLink]) -> Result<DeltaOutcome, DeltaError> {
        let fresh = self.fresh_links(links)?;
        if fresh.is_empty() {
            return Ok(DeltaOutcome::default());
        }
        self.check_consistent()?;
        let delta = self.merge_links(&fresh);
        let changed = self.repropagate(Some(&delta))?;
        self.stats.delta_updates += 1;
        Ok(DeltaOutcome {
            applied: fresh.len(),
            changed,
        })
    }

    /// Merges `links` and recounts every anchor-dependent chain **from the
    /// full merged anchor matrix** (`L·A·R` from scratch). This is the
    /// reference full-recount path the delta path is measured against; the
    /// results are bit-identical, only the cost differs.
    ///
    /// Like [`DeltaCatalogCounts::update_anchors`], a batch with no
    /// genuinely new anchor is a no-op: nothing recounts and the stats are
    /// untouched, so the two paths stay round-for-round comparable.
    ///
    /// # Errors
    /// [`DeltaError::AnchorOutOfRange`] on endpoints outside the user
    /// populations, [`DeltaError::ShapeDrift`] /
    /// [`DeltaError::Inconsistent`] on a malformed store. The store is
    /// unchanged in every error case.
    pub fn recount_anchors(&mut self, links: &[AnchorLink]) -> Result<DeltaOutcome, DeltaError> {
        let fresh = self.fresh_links(links)?;
        if fresh.is_empty() {
            return Ok(DeltaOutcome::default());
        }
        self.check_consistent()?;
        let applied = fresh.len();
        self.merge_links(&fresh);
        let changed = self.repropagate(None)?;
        self.stats.full_counts += 1;
        Ok(DeltaOutcome { applied, changed })
    }

    /// One propagation pass in dependency order. `delta` selects the
    /// incremental path; `None` recomputes chains from the merged anchors.
    /// Returns the changed catalog entries, with per-entry touched regions
    /// on the incremental path.
    ///
    /// On the incremental path anchor chains absorb `L·ΔA·R` by in-place
    /// row splicing: margins fold in the low-rank product's sums and every
    /// entry the positivity filter prunes is retracted entry-locally, so
    /// delta-updated counts keep the exact nnz pattern a full recount
    /// would produce without a margin rescan. Stacks re-Hadamard only the
    /// candidate rows (where a part changed), diff them against the stored
    /// rows and splice, reporting the exactly-changed region.
    ///
    /// # Errors
    /// Shape violations surface as [`DeltaError::ShapeDrift`] /
    /// [`DeltaError::Inconsistent`] via the callers' pre-validation;
    /// kernel-level rejections inside the pass are mapped to
    /// [`DeltaError::Inconsistent`] instead of panicking.
    fn repropagate(&mut self, delta: Option<&CsrMatrix>) -> Result<Vec<ChangedCount>, DeltaError> {
        let mut touched: Vec<Option<TouchedRegion>> = vec![None; self.order.len()];
        let mut changed = vec![false; self.order.len()];
        for i in 0..self.order.len() {
            match &self.kinds[i] {
                NodeKind::AnchorChain(chain) => {
                    match delta {
                        Some(d) => {
                            let dc = spgemm_lowrank_with_sums(
                                &chain.lt,
                                d,
                                &chain.r,
                                &mut self.sums[i],
                            )?;
                            touched[i] = Some(TouchedRegion::of_pattern(&dc));
                            let sums = &mut self.sums[i];
                            self.counts[i]
                                .splice_add_positive(&dc, |r, c, v| sums.retract(r, c, v))?;
                        }
                        None => {
                            let la = spgemm_threaded(
                                &chain.l,
                                &self.anchor,
                                Accumulator::Auto,
                                self.threading,
                            )?;
                            self.counts[i] =
                                spgemm_threaded(&la, &chain.r, Accumulator::Auto, self.threading)?;
                            self.sums[i] = MarginSums::of(&self.counts[i]);
                        }
                    }
                    changed[i] = true;
                }
                NodeKind::AnchorFree => {}
                NodeKind::Stack(parts) => {
                    if !parts.iter().any(|&p| changed[p]) {
                        continue;
                    }
                    if delta.is_some() {
                        let parts = parts.clone();
                        self.restack_exact(i, &parts, &mut touched, &changed)?;
                        changed[i] = true;
                        continue;
                    }
                    let mut acc = self.counts[parts[0]].clone();
                    for &p in &parts[1..] {
                        acc = acc.hadamard(&self.counts[p])?;
                    }
                    self.counts[i] = acc;
                    self.sums[i] = MarginSums::of(&self.counts[i]);
                    changed[i] = true;
                }
            }
        }
        Ok(self
            .catalog_pos
            .iter()
            .enumerate()
            .filter(|&(_, &ord)| changed[ord])
            .map(|(cat, &ord)| ChangedCount {
                catalog_pos: cat,
                touched: touched[ord].clone(),
            })
            .collect())
    }

    /// Region-exact re-combination of stack node `i`: a Hadamard entry exists only where *every* part has one, and a part is
    /// bit-identical outside its touched rows, so the stack can only change
    /// on the union of the changed parts' touched rows. Those candidate rows
    /// are re-Hadamarded (same left-fold association and zero filter as
    /// [`CsrMatrix::hadamard`], hence bit-equal values), diffed against the
    /// stored rows, and the rows that actually moved are spliced in place
    /// with their margins exchanged — the reported region is exact. When the
    /// candidate rows cover a quarter or more of the stack, the per-row diff
    /// no longer pays for itself and the node falls back to
    /// [`Self::restack_union`] (the region degrades to the sound union).
    fn restack_exact(
        &mut self,
        i: usize,
        parts: &[usize],
        touched: &mut [Option<TouchedRegion>],
        part_changed: &[bool],
    ) -> Result<(), DeltaError> {
        let mut cand: Vec<usize> = Vec::new();
        for &p in parts {
            if part_changed[p] {
                if let Some(reg) = &touched[p] {
                    cand.extend_from_slice(&reg.rows);
                }
            }
        }
        cand.sort_unstable();
        cand.dedup();
        // Density cutoff: once the candidate rows cover a quarter of the
        // stack, per-row re-Hadamard + diff costs more than one wholesale
        // Hadamard — fall back to the union path
        // (identical values; the reported region degrades to the union,
        // which stays a superset-consistent over-approximation).
        if cand.len() * 4 >= self.counts[i].nrows() {
            return self.restack_union(i, parts, touched);
        }
        let mut rows: Vec<usize> = Vec::new();
        let mut new_rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut cols: Vec<usize> = Vec::new();
        for &r in &cand {
            // Hadamard of the parts restricted to row r.
            let mut acc: Vec<(usize, f64)> = self.counts[parts[0]].row(r).collect();
            for &p in &parts[1..] {
                let part = &self.counts[p];
                let mut merged = Vec::with_capacity(acc.len().min(part.row_nnz(r)));
                let mut ia = acc.into_iter().peekable();
                let mut ib = part.row(r).peekable();
                while let (Some(&(ca, va)), Some(&(cb, vb))) = (ia.peek(), ib.peek()) {
                    match ca.cmp(&cb) {
                        std::cmp::Ordering::Less => {
                            ia.next();
                        }
                        std::cmp::Ordering::Greater => {
                            ib.next();
                        }
                        std::cmp::Ordering::Equal => {
                            let v = va * vb;
                            // srclint: allow(float_eq, reason = "exact sparsity test: skips explicitly-stored zeros, no arithmetic involved")
                            if v != 0.0 {
                                merged.push((ca, v));
                            }
                            ia.next();
                            ib.next();
                        }
                    }
                }
                acc = merged;
            }
            // Diff against the stored row: record exactly the entries that
            // moved (integer-valued floats — bitwise equality, no NaN).
            let mut row_changed = false;
            let mut io = self.counts[i].row(r).peekable();
            let mut inw = acc.iter().copied().peekable();
            loop {
                match (io.peek().copied(), inw.peek().copied()) {
                    (Some((co, vo)), Some((cn, vn))) => {
                        if co < cn {
                            cols.push(co);
                            row_changed = true;
                            io.next();
                        } else if co > cn {
                            cols.push(cn);
                            row_changed = true;
                            inw.next();
                        } else {
                            if vo != vn {
                                cols.push(co);
                                row_changed = true;
                            }
                            io.next();
                            inw.next();
                        }
                    }
                    (Some((co, _)), None) => {
                        cols.push(co);
                        row_changed = true;
                        io.next();
                    }
                    (None, Some((cn, _))) => {
                        cols.push(cn);
                        row_changed = true;
                        inw.next();
                    }
                    (None, None) => break,
                }
            }
            if row_changed {
                rows.push(r);
                new_rows.push(acc);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        // Exchange margins while the old rows are still in place, then
        // splice the replacements in.
        let sums = &mut self.sums[i];
        for (k, &r) in rows.iter().enumerate() {
            sums.exchange_row(r, self.counts[i].row(r), new_rows[k].iter().copied());
        }
        self.counts[i].splice_rows(&rows, &new_rows)?;
        touched[i] = Some(TouchedRegion { rows, cols });
        Ok(())
    }

    /// Union-region re-combination of stack node `i`, the dense fallback of
    /// [`Self::restack_exact`]: recompute the full Hadamard and report the
    /// union of the parts' touched regions — a sound over-approximation,
    /// since a stack entry can only change where one of its parts changed.
    /// Margins are rewritten over the union rows only.
    fn restack_union(
        &mut self,
        i: usize,
        parts: &[usize],
        touched: &mut [Option<TouchedRegion>],
    ) -> Result<(), DeltaError> {
        let mut acc = self.counts[parts[0]].clone();
        for &p in &parts[1..] {
            acc = acc.hadamard(&self.counts[p])?;
        }
        let mut region = TouchedRegion::default();
        for &p in parts.iter() {
            if let Some(part_region) = &touched[p] {
                region.absorb(part_region);
            }
        }
        self.sums[i].rewrite_rows(&self.counts[i], &acc, &region.rows)?;
        touched[i] = Some(region);
        self.counts[i] = acc;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, FeatureSet};
    use crate::count::CountEngine;
    use hetnet::aligned::anchor_matrix;
    use hetnet::UserId;

    fn world() -> datagen::GeneratedWorld {
        datagen::generate(&datagen::presets::tiny(17))
    }

    fn split_links(w: &datagen::GeneratedWorld) -> (Vec<AnchorLink>, Vec<AnchorLink>) {
        let links = w.truth().links();
        (links[..12].to_vec(), links[12..].to_vec())
    }

    fn store(w: &datagen::GeneratedWorld, initial: &[AnchorLink]) -> DeltaCatalogCounts {
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), initial).unwrap();
        DeltaCatalogCounts::build(
            w.left(),
            w.right(),
            a,
            &Catalog::new(FeatureSet::Full),
            Threading::Serial,
        )
        .unwrap()
    }

    fn reference_counts(w: &datagen::GeneratedWorld, anchors: &[AnchorLink]) -> Vec<CsrMatrix> {
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), anchors).unwrap();
        let engine = CountEngine::new(w.left(), w.right(), a).unwrap();
        Catalog::new(FeatureSet::Full)
            .entries()
            .iter()
            .map(|e| (*engine.count(&e.diagram)).clone())
            .collect()
    }

    #[test]
    fn build_matches_engine_counts() {
        let w = world();
        let (initial, _) = split_links(&w);
        let s = store(&w, &initial);
        let reference = reference_counts(&w, &initial);
        assert_eq!(s.len(), 31);
        assert!(!s.is_empty());
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(s.catalog_count(i), want, "catalog entry {i}");
        }
        assert_eq!(s.stats().full_counts, 1);
        assert_eq!(s.stats().delta_updates, 0);
        assert_eq!(s.n_anchors(), initial.len());
    }

    #[test]
    fn delta_update_is_bit_equal_to_full_recount() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut s = store(&w, &initial);
        // Two rounds of confirmed anchors.
        for batch in held_out.chunks(7) {
            let outcome = s.update_anchors(batch).unwrap();
            assert_eq!(outcome.applied, batch.len());
            assert!(!outcome.changed.is_empty());
        }
        let merged: Vec<AnchorLink> = w.truth().links().to_vec();
        let reference = reference_counts(&w, &merged);
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(s.catalog_count(i), want, "catalog entry {i} diverged");
        }
        assert_eq!(s.stats().full_counts, 1, "delta path must not recount");
        assert_eq!(s.stats().delta_updates, 3.min(held_out.chunks(7).count()));
        assert_eq!(s.stats().anchors_applied, held_out.len());
    }

    #[test]
    fn recount_path_matches_delta_path() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut delta = store(&w, &initial);
        let mut full = store(&w, &initial);
        let o1 = delta.update_anchors(&held_out).unwrap();
        let o2 = full.recount_anchors(&held_out).unwrap();
        assert_eq!(o1.applied, o2.applied);
        assert_eq!(o1.changed_positions(), o2.changed_positions());
        // The incremental path knows where it landed; the recount doesn't.
        assert!(o1.changed.iter().all(|c| c.touched.is_some()));
        assert!(o2.changed.iter().all(|c| c.touched.is_none()));
        for i in 0..delta.len() {
            assert_eq!(delta.catalog_count(i), full.catalog_count(i));
            assert_eq!(delta.catalog_sums(i), full.catalog_sums(i));
        }
        assert_eq!(full.stats().full_counts, 2);
        assert_eq!(full.stats().delta_updates, 0);
    }

    #[test]
    fn maintained_sums_match_a_rescan_after_updates() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut s = store(&w, &initial);
        for i in 0..s.len() {
            assert!(s.catalog_sums(i).matches(s.catalog_count(i)));
        }
        for batch in held_out.chunks(5) {
            s.update_anchors(batch).unwrap();
            for i in 0..s.len() {
                assert!(
                    s.catalog_sums(i).matches(s.catalog_count(i)),
                    "margins of catalog entry {i} drifted from the counts"
                );
            }
        }
    }

    #[test]
    fn touched_regions_cover_every_actual_change() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut s = store(&w, &initial);
        let before: Vec<CsrMatrix> = (0..s.len()).map(|i| s.catalog_count(i).clone()).collect();
        let outcome = s.update_anchors(&held_out[..4]).unwrap();
        for chg in &outcome.changed {
            let region = chg.touched.as_ref().expect("delta path reports regions");
            assert!(region.rows.windows(2).all(|w| w[0] < w[1]), "rows sorted");
            assert!(region.cols.windows(2).all(|w| w[0] < w[1]), "cols sorted");
            let (old, new) = (&before[chg.catalog_pos], s.catalog_count(chg.catalog_pos));
            // Any entry differing between old and new must sit in a
            // touched row; any column-sum difference in a touched col.
            for i in 0..new.nrows() {
                if region.rows.binary_search(&i).is_err() {
                    let old_row: Vec<_> = old.row(i).collect();
                    let new_row: Vec<_> = new.row(i).collect();
                    assert_eq!(old_row, new_row, "row {i} changed outside the region");
                }
            }
            let (old_cols, new_cols) = (old.col_sums(), new.col_sums());
            for j in 0..new.ncols() {
                if region.cols.binary_search(&j).is_err() {
                    assert_eq!(old_cols[j], new_cols[j], "col {j} sum moved outside region");
                }
            }
        }
    }

    #[test]
    fn delta_updated_counts_keep_the_full_recount_nnz_pattern() {
        // The residue regression: low-rank updates must never leave
        // explicit zeros or negative round-off in the merged CSR — the
        // delta-updated pattern is identical to a from-scratch recount's.
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut s = store(&w, &initial);
        for batch in held_out.chunks(3) {
            s.update_anchors(batch).unwrap();
        }
        let reference = reference_counts(&w, w.truth().links());
        for (i, want) in reference.iter().enumerate() {
            let got = s.catalog_count(i);
            assert_eq!(got.nnz(), want.nnz(), "entry {i}: nnz drifted");
            assert_eq!(
                got.indptr(),
                want.indptr(),
                "entry {i}: row pattern drifted"
            );
            assert_eq!(
                got.indices(),
                want.indices(),
                "entry {i}: col pattern drifted"
            );
            assert!(
                got.values().iter().all(|&v| v > 0.0),
                "entry {i}: non-positive residue survived"
            );
        }
    }

    #[test]
    fn anchor_free_features_are_not_reported_changed() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut s = store(&w, &initial);
        let outcome = s.update_anchors(&held_out[..3]).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        // P5, P6 and Ψ[P5×P6] never touch the anchor matrix.
        let changed = outcome.changed_positions();
        for (i, entry) in catalog.entries().iter().enumerate() {
            let anchor_free = matches!(entry.diagram, Diagram::Attr(_) | Diagram::AttrPair(_, _));
            assert_eq!(
                !changed.contains(&i),
                anchor_free,
                "entry {} ({})",
                i,
                entry.name
            );
        }
        assert_eq!(outcome.changed.len(), 28);
    }

    #[test]
    fn duplicate_and_known_links_are_noops() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut s = store(&w, &initial);
        let before = s.stats();
        // Already-present links and in-batch duplicates vanish.
        let outcome = s
            .update_anchors(&[initial[0], initial[1], initial[0]])
            .unwrap();
        assert_eq!(outcome, DeltaOutcome::default());
        assert_eq!(s.stats(), before);
        // A mixed batch applies only the new part.
        let outcome = s
            .update_anchors(&[initial[0], held_out[0], held_out[0]])
            .unwrap();
        assert_eq!(outcome.applied, 1);
        // The full-recount path shares the no-op contract: an
        // all-duplicate batch must not pay a catalog recount.
        let before = s.stats();
        let outcome = s.recount_anchors(&[initial[0], held_out[0]]).unwrap();
        assert_eq!(outcome, DeltaOutcome::default());
        assert_eq!(s.stats(), before, "no-op recount must not bump stats");
    }

    #[test]
    fn out_of_range_links_are_rejected_without_mutation() {
        let w = world();
        let (initial, _) = split_links(&w);
        let mut s = store(&w, &initial);
        let n_anchors = s.n_anchors();
        let bad = AnchorLink::new(UserId(u32::MAX), UserId(0));
        let err = s.update_anchors(&[bad]).unwrap_err();
        assert!(matches!(
            err,
            DeltaError::AnchorOutOfRange { side: "left", .. }
        ));
        assert!(err.to_string().contains("left"));
        assert_eq!(s.n_anchors(), n_anchors, "store mutated on error");
        let bad = AnchorLink::new(UserId(0), UserId(u32::MAX));
        assert!(matches!(
            s.update_anchors(&[bad]).unwrap_err(),
            DeltaError::AnchorOutOfRange { side: "right", .. }
        ));
    }

    /// Regression for the pruning repair: when the low-rank product
    /// drives entries non-positive, the splice must retract exactly the
    /// pruned entries from the maintained margins — no full rescan.
    /// Confirmed-anchor deltas are non-negative, so pruning is forced here
    /// by negating the chains' `Lᵀ` factors, which makes every low-rank
    /// product `≤ 0`.
    #[test]
    fn pruned_entries_repair_margins_without_a_rescan() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let mut s = store(&w, &initial);
        for kind in &mut s.kinds {
            if let NodeKind::AnchorChain(chain) = kind {
                chain.lt = chain.lt.scaled(-1.0);
            }
        }
        let nnz_before: usize = s.counts.iter().map(CsrMatrix::nnz).sum();
        s.update_anchors(&held_out).unwrap();
        for i in 0..s.len() {
            let c = s.catalog_count(i);
            assert!(
                s.catalog_sums(i).matches(c),
                "entry {i}: margins drifted after pruning"
            );
            assert!(c.values().iter().all(|&v| v > 0.0), "entry {i}: residue");
        }
        let nnz_after: usize = s.counts.iter().map(CsrMatrix::nnz).sum();
        assert!(nnz_after < nnz_before, "no entry was actually pruned");
    }

    /// A malformed store (e.g. restored from a corrupted snapshot) must
    /// degrade to a typed error before any merge happens — never panic,
    /// never mutate.
    #[test]
    fn malformed_store_fails_with_a_typed_error_and_no_mutation() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let good = store(&w, &initial);

        // Margin sums whose shape drifted from their count matrix.
        let mut s = good.clone();
        s.sums[0] = MarginSums::from_parts(vec![0.0], vec![0.0]);
        let err = s.update_anchors(&held_out).unwrap_err();
        assert!(matches!(
            err,
            DeltaError::ShapeDrift {
                what: "margin sums",
                node: 0,
                ..
            }
        ));
        assert!(err.to_string().contains("margin sums"));
        assert_eq!(s.n_anchors(), good.n_anchors(), "store mutated on error");
        assert_eq!(s.counts, good.counts, "counts mutated on error");

        // A factor chain that no longer matches the anchor shape.
        let mut s = good.clone();
        for kind in &mut s.kinds {
            if let NodeKind::AnchorChain(chain) = kind {
                chain.r = CsrMatrix::zeros(1, 1);
                break;
            }
        }
        assert!(matches!(
            s.update_anchors(&held_out).unwrap_err(),
            DeltaError::ShapeDrift {
                what: "factor chain R",
                ..
            }
        ));

        // Mismatched parallel arrays.
        let mut s = good.clone();
        s.sums.pop();
        assert!(matches!(
            s.update_anchors(&held_out).unwrap_err(),
            DeltaError::Inconsistent(_)
        ));

        // A stack referencing itself (dependency order violated).
        let mut s = good.clone();
        let stack_at = s
            .kinds
            .iter()
            .position(|k| matches!(k, NodeKind::Stack(_)))
            .unwrap();
        if let NodeKind::Stack(parts) = &mut s.kinds[stack_at] {
            parts[0] = stack_at;
        }
        let err = s.recount_anchors(&held_out).unwrap_err();
        assert!(matches!(err, DeltaError::Inconsistent(_)));
        assert!(err.to_string().contains("dependency order"));
        assert_eq!(s.counts, good.counts, "recount mutated a malformed store");
    }

    #[test]
    fn threaded_build_is_bit_equal_to_serial() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let serial =
            DeltaCatalogCounts::build(w.left(), w.right(), a.clone(), &catalog, Threading::Serial)
                .unwrap();
        for threads in [2usize, 4] {
            let mut par = DeltaCatalogCounts::build(
                w.left(),
                w.right(),
                a.clone(),
                &catalog,
                Threading::Threads(threads),
            )
            .unwrap();
            for i in 0..serial.len() {
                assert_eq!(par.catalog_count(i), serial.catalog_count(i));
            }
            // And the threaded full-recount path agrees with the reference.
            par.recount_anchors(&held_out).unwrap();
            let reference = reference_counts(&w, w.truth().links());
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(par.catalog_count(i), want);
            }
        }
    }
}
