//! Incremental catalog recounting under anchor updates (the `L·ΔA·R` path).
//!
//! Every Iter-MPMD/ActiveIter round confirms a handful of anchor links and
//! re-derives the meta-diagram counts from the grown anchor matrix. A full
//! recount pays the whole SpGEMM catalog again; this module exploits the
//! structure of the count algebra ([`crate::count`]) instead:
//!
//! * **social paths / social middle-stackings** count as `C = L·A·R` with
//!   anchor-independent factors, so `C(A+ΔA) = C(A) + L·ΔA·R` — a sparse
//!   low-rank update ([`sparsela::spgemm_lowrank`]) whose cost scales with
//!   `|ΔA|`, not with the catalog;
//! * **attribute paths / attribute middle-stackings** never touch `A` and
//!   are carried over untouched;
//! * **endpoint stackings** `S = C∘B` multiply one anchor-dependent part
//!   `C` by anchor-free parts `B` (Lemma 1), so `ΔS = ΔC∘B`: a stack
//!   splices its part's increment times the fixed parts, work over
//!   `ΔC`'s nonempty rows only, with no SpGEMM and no re-Hadamard.
//!
//! All arithmetic is exact (counts are small nonnegative integers stored in
//! `f64`), so the delta path is **bit-equal** to a full recount from the
//! merged anchor set — property-tested in `tests/delta_props.rs`.
//!
//! [`DeltaCatalogCounts::build`] is also the crate's only full count: it
//! plans each distinct diagram of the catalog once, in dependency order,
//! computes each leaf's right-hand operand once, and counts every node in
//! one fused pass per flop-balanced row block ([`sparsela::fused_rows`]):
//! per row, every leaf row, then every stack row from its parts' rows
//! while they are in cache, each added into its margins. A fresh build
//! over the merged anchors is also the oracle the delta path is tested and
//! benchmarked against.
//!
//! **Owned and shared parts.** A store owns its anchor matrix and its
//! anchor-dependent counts (anchor chains and stacks) with their margins.
//! Each factor chain and each anchor-free count with its margins depends
//! only on the two networks: the first build over a pair computes them,
//! keeps them on the left network for the pair ([`HetNet::pair_memo`]),
//! and every store built over the same two networks shares them by `Arc`,
//! immutably. So the folds of one world count its anchor-independent part
//! once, and one copy of it is held however many stores there are.
//!
//! A [`DeltaCatalogCounts`] is also the unit of **persistence**: it holds
//! everything an update needs (factor chains included, networks
//! excluded), so [`crate::codec::encode_store`] /
//! [`crate::codec::decode_store`] can write it to disk and a fresh
//! process can resume updates bit-equal to the store that was saved —
//! the payload behind `session::snapshot`. A decoded store holds its own,
//! unshared copies of the shared parts.

use crate::catalog::Catalog;
use crate::count::{self, EngineError, SocialSteps};
use crate::diagram::Diagram;
use hetnet::{AnchorLink, HetNet};
use sparsela::{
    fused_rows, map_claimed, spgemm, spgemm_lowrank, CooMatrix, CsrMatrix, MarginSums, RowStep,
    SparseError, Threading,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// A sparse kernel rejected its operands mid-propagation. No store made
    /// by [`DeltaCatalogCounts::build`] or [`crate::codec::decode_store`]
    /// (which refuses every store whose shapes or stack parts do not fit
    /// together) raises it; it surfaces a kernel error as a value instead
    /// of a panic. Carries the underlying message.
    Inconsistent(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::AnchorOutOfRange { side, index, count } => {
                write!(f, "{side} anchor endpoint {index} out of range (< {count})")
            }
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
    /// Full catalog counts performed: 1, the build's (a decoded store
    /// keeps the counters it was saved with).
    pub full_counts: usize,
    /// Applied incremental updates ([`DeltaCatalogCounts::update_anchors`]
    /// calls that had at least one genuinely new anchor).
    pub delta_updates: usize,
    /// Total new anchors merged since the build.
    pub anchors_applied: usize,
}

/// The rows and columns of a count matrix that an update touched —
/// sorted ascending, duplicate-free. Rows outside `rows` are
/// **bit-identical** to before the update (pattern and values); columns
/// outside `cols` kept their column sum. So a Dice score
/// `2·C[l,r] / (row_sum[l] + col_sum[r])` can move only where `l` is a
/// touched row or `r` a touched column, which is how the session
/// re-reads just those features. The incremental path reports the
/// pattern of the node's increment, so every reported row holds a
/// changed cell; consumers may treat a region as an overapproximation,
/// and a region must never underapproximate.
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
        let mut hit = vec![false; delta.ncols()];
        for &c in delta.indices() {
            hit[c] = true;
        }
        let cols: Vec<usize> = (0..delta.ncols()).filter(|&c| hit[c]).collect();
        TouchedRegion { rows, cols }
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
    /// Where the change landed: downstream layers refresh only this
    /// region.
    pub touched: TouchedRegion,
}

/// What an anchor update changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Genuinely new anchors merged (duplicates and already-present links
    /// are skipped silently).
    pub applied: usize,
    /// Catalog positions whose count matrices changed, in catalog order,
    /// each with its touched row/col sets.
    /// Anchor-free features (attribute paths and their middle-stackings)
    /// never appear here — downstream layers can skip re-deriving them.
    pub changed: Vec<ChangedCount>,
}

/// The anchor-chain factorization `C = L·A·R`, with `Lᵀ` cached for the
/// low-rank update kernel.
#[derive(Clone)]
pub(crate) struct FactorChain {
    pub(crate) l: CsrMatrix,
    pub(crate) lt: CsrMatrix,
    pub(crate) r: CsrMatrix,
}

impl FactorChain {
    pub(crate) fn new(l: CsrMatrix, r: CsrMatrix) -> Self {
        FactorChain {
            lt: l.transpose(),
            l,
            r,
        }
    }
}

/// A count matrix with its row/column margins (the Dice denominators).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct NodeCount {
    pub(crate) count: CsrMatrix,
    pub(crate) sums: MarginSums,
}

impl NodeCount {
    fn of((count, sums): (CsrMatrix, MarginSums)) -> Self {
        NodeCount { count, sums }
    }

    /// Adds `delta` into the count, keeping the positive entries, and
    /// retracts every entry the filter prunes from the margins.
    fn splice(&mut self, delta: &CsrMatrix) -> Result<(), SparseError> {
        let sums = &mut self.sums;
        self.count
            .splice_add_positive(delta, |r, c, v| sums.retract(r, c, v))
    }
}

/// Appends `diagram` and (first) its stack parts to the node plan unless
/// already planned, and returns its node index. Each distinct diagram is
/// planned once, every stack after its parts.
fn plan_node(
    diagram: &Diagram,
    order: &mut Vec<Diagram>,
    parts: &mut Vec<Vec<usize>>,
    index: &mut HashMap<Diagram, usize>,
) -> usize {
    if let Some(&i) = index.get(diagram) {
        return i;
    }
    let node_parts = match diagram {
        Diagram::Stack(ds) => ds
            .iter()
            .map(|d| plan_node(d, order, parts, index))
            .collect(),
        _ => Vec::new(),
    };
    let i = order.len();
    order.push(diagram.clone());
    parts.push(node_parts);
    index.insert(diagram.clone(), i);
    i
}

/// One network pair's anchor-independent leaves, by diagram: each social
/// leaf's factor chain and each anchor-free leaf's count. The first build
/// over the pair computes them and every later build shares them by
/// `Arc`. They are kept on the left network ([`HetNet::pair_memo`]), so
/// they live exactly as long as the two networks do.
#[derive(Default)]
struct PairLeaves(Mutex<HashMap<Diagram, Leaf>>);

/// The shared part of one leaf diagram.
#[derive(Clone)]
enum Leaf {
    Chain(Arc<FactorChain>),
    Free(Arc<NodeCount>),
}

impl PairLeaves {
    /// The lock is held only to read or insert entries, never while
    /// counting, so a poisoned lock still guards a valid map.
    fn entries(&self) -> MutexGuard<'_, HashMap<Diagram, Leaf>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The known leaf of each diagram of `order`.
    fn known(&self, order: &[Diagram]) -> Vec<Option<Leaf>> {
        let entries = self.entries();
        order.iter().map(|d| entries.get(d).cloned()).collect()
    }

    /// Adds the leaves of `nodes` that are not known yet. A leaf another
    /// build published first wins, and the node takes it in place of its
    /// own bit-identical one.
    fn publish(&self, order: &[Diagram], nodes: &mut [Node]) {
        let mut entries = self.entries();
        for (diagram, node) in order.iter().zip(nodes) {
            let Some(leaf) = node.leaf() else {
                continue;
            };
            match (entries.entry(diagram.clone()).or_insert(leaf), node) {
                (Leaf::Chain(known), Node::AnchorChain(chain, _)) => *chain = known.clone(),
                (Leaf::Free(known), Node::AnchorFree(count)) => *count = known.clone(),
                _ => {}
            }
        }
    }
}

/// A node's operands in a build.
enum Prepared {
    /// An anchor chain and its `A·R`.
    Chain(Arc<FactorChain>, CsrMatrix),
    /// An anchor-free leaf counted before.
    Known(Arc<NodeCount>),
    /// An anchor-free leaf's `UL` and `URᵀ` (see [`count::attr_factors`]).
    Free(CsrMatrix, CsrMatrix),
    /// A stack over its parts.
    Stack(Vec<usize>),
}

impl Prepared {
    /// The operands of `diagram`, taking a `known` leaf as it is.
    fn of(
        social: &SocialSteps,
        anchor: &CsrMatrix,
        diagram: &Diagram,
        parts: &[usize],
        known: Option<Leaf>,
    ) -> Result<Self, EngineError> {
        let [left, right] = social.nets;
        // `A·R`, the right-hand operand of the chain's rows `L·(A·R)`.
        let chain = |chain: Arc<FactorChain>| -> Result<Prepared, EngineError> {
            let ar = spgemm(anchor, &chain.r)?;
            Ok(Prepared::Chain(chain, ar))
        };
        let factors = |(l, r)| Arc::new(FactorChain::new(l, r));
        let free = |(ul, urt)| Prepared::Free(ul, urt);
        #[cfg(test)]
        tests::fault_point();
        Ok(match (diagram, known) {
            (_, Some(Leaf::Chain(known))) => chain(known)?,
            (_, Some(Leaf::Free(known))) => Prepared::Known(known),
            (Diagram::Social(p), None) => chain(factors(social.factors(*p, *p)?))?,
            (Diagram::SocialPair(i, j), None) => chain(factors(social.factors(*i, *j)?))?,
            (Diagram::Attr(a), None) => free(count::attr_factors(left, right, *a, *a)?),
            (Diagram::AttrPair(a, b), None) => free(count::attr_factors(left, right, *a, *b)?),
            (Diagram::Stack(_), None) => Prepared::Stack(parts.to_vec()),
        })
    }

    /// The node's step in the row pass: a product is counted, a known
    /// leaf is given, and a stack is the Hadamard of its parts.
    fn step(&self) -> RowStep<'_> {
        match self {
            Prepared::Chain(chain, ar) => RowStep::Product(&chain.l, ar),
            Prepared::Known(known) => RowStep::Given(&known.count),
            Prepared::Free(ul, urt) => RowStep::Product(ul, urt),
            Prepared::Stack(parts) => RowStep::Hadamard(parts),
        }
    }

    /// The node, given the pass's output for it (`None` for a known leaf).
    fn into_node(self, out: Option<(CsrMatrix, MarginSums)>) -> Result<Node, EngineError> {
        Ok(match (self, out) {
            (Prepared::Known(known), _) => Node::AnchorFree(known),
            (Prepared::Chain(chain, _), Some(out)) => Node::AnchorChain(chain, NodeCount::of(out)),
            (Prepared::Free(..), Some(out)) => Node::AnchorFree(Arc::new(NodeCount::of(out))),
            (Prepared::Stack(parts), Some(out)) => Node::Stack(parts, NodeCount::of(out)),
            (_, None) => {
                return Err(EngineError::Kernel(SparseError::InvalidStructure(
                    "the row pass gave no rows for a counted node".into(),
                )))
            }
        })
    }
}

/// One materialized diagram: how it reacts to an anchor update, and its
/// count.
#[derive(Clone)]
pub(crate) enum Node {
    /// `C = L·A·R`: the pair's shared factor chain and the node's own
    /// count.
    AnchorChain(Arc<FactorChain>, NodeCount),
    /// Anchor-independent: the pair's shared count, carried over untouched.
    AnchorFree(Arc<NodeCount>),
    /// Hadamard of other materialized nodes (indices into the store), with
    /// its own count.
    Stack(Vec<usize>, NodeCount),
}

impl Node {
    /// The node's shared part, if it is a leaf.
    fn leaf(&self) -> Option<Leaf> {
        match self {
            Node::AnchorChain(chain, _) => Some(Leaf::Chain(chain.clone())),
            Node::AnchorFree(count) => Some(Leaf::Free(count.clone())),
            Node::Stack(..) => None,
        }
    }

    pub(crate) fn counted(&self) -> &NodeCount {
        match self {
            Node::AnchorChain(_, own) | Node::Stack(_, own) => own,
            Node::AnchorFree(shared) => shared,
        }
    }

    /// Whether this node's count moves with the anchors, given
    /// `dependent[p]` for every earlier node `p`. A stack may have at most
    /// one anchor-dependent part: the increment rule `Δ(C∘B) = ΔC∘B`
    /// needs every other part fixed. No catalog builds such a stack, so
    /// finding one means the store is malformed.
    pub(crate) fn anchor_dependent(&self, dependent: &[bool]) -> Result<bool, String> {
        match self {
            Node::AnchorChain(..) => Ok(true),
            Node::AnchorFree(_) => Ok(false),
            Node::Stack(parts, _) => {
                let moving = parts
                    .iter()
                    .filter(|&&p| dependent.get(p) == Some(&true))
                    .count();
                if moving > 1 {
                    return Err(format!(
                        "stack parts {parts:?} hold {moving} anchor-dependent parts, at most one \
                         is allowed"
                    ));
                }
                Ok(moving == 1)
            }
        }
    }
}

/// A store of one catalog's count matrices plus everything needed to
/// update them incrementally when anchors are confirmed.
///
/// Built once from a pair of networks (which it does **not** keep borrowed
/// — the factor chains make the networks unnecessary afterwards), then
/// driven by [`DeltaCatalogCounts::update_anchors`]. This is the counting
/// core of `session::AlignmentSession`.
///
/// The store owns its anchor matrix and its anchor-dependent counts (the
/// anchor chains' and the stacks') with their margins. The parts that
/// depend only on the two networks — each factor chain and each
/// anchor-free count with its margins — are immutable and shared by `Arc`
/// with every other store built over the same pair of networks. The store
/// is a plain value: `Clone` copies the owned counts and shares the rest,
/// so callers can checkpoint a counting state and explore updates from it.
#[derive(Clone)]
pub struct DeltaCatalogCounts {
    pub(crate) anchor: CsrMatrix,
    /// Materialized diagrams in dependency order (stack parts first).
    pub(crate) order: Vec<Diagram>,
    /// The node of each diagram of `order`; counts and margins maintained
    /// incrementally alongside each other.
    pub(crate) nodes: Vec<Node>,
    /// Catalog position → index into `order`/`nodes`.
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
    /// count) and keeps the factor chains of every anchor-dependent
    /// diagram. The build plans each distinct diagram once, in dependency
    /// order (stack parts first), prepares the right-hand operands once
    /// per leaf (`A·R` per anchor chain, `URᵀ` per anchor-free diagram),
    /// and then counts every node in one fused row pass
    /// ([`sparsela::fused_rows`]): for each row, every leaf row, then every
    /// stack row from its parts' rows while they are in cache, each added
    /// into its margins. `threading` sets the number of flop-balanced row
    /// blocks. Counts are exact integers, so results are bit-identical at
    /// any setting.
    ///
    /// The factor chains and the anchor-free counts depend only on the two
    /// networks, so the first build over a pair computes them and keeps
    /// them on `left` for the pair ([`HetNet::pair_memo`]); every later
    /// build over the same two networks — another fold, another catalog
    /// slice — shares them and counts only `A·R`, the chain rows and the
    /// stacks. A clone of a network is a new pair and counts afresh.
    ///
    /// # Errors
    /// [`EngineError::AnchorShape`] / [`EngineError::AttributeUniverseMismatch`]
    /// when the anchor matrix or the networks do not fit together;
    /// [`EngineError::Kernel`] when a sparse kernel rejects its operands.
    pub fn build(
        left: &HetNet,
        right: &HetNet,
        anchor: CsrMatrix,
        catalog: &Catalog,
        threading: Threading,
    ) -> Result<Self, EngineError> {
        count::check_networks(left, right, &anchor)?;
        let mut order = Vec::new();
        let mut parts = Vec::new();
        let mut index = HashMap::new();
        let catalog_pos = catalog
            .entries()
            .iter()
            .map(|e| plan_node(&e.diagram, &mut order, &mut parts, &mut index))
            .collect();
        let leaves = left.pair_memo::<PairLeaves>(right);
        let known = leaves.known(&order);
        // The social steps' Hadamards are dropped before the pass.
        let social = SocialSteps::new(left, right);
        // A catalog plans its cheap single paths first and its costlier
        // pairs after them, so the nodes are claimed from the last one
        // back: the costliest first, the cheap ones filling in.
        let n = order.len();
        let prepared = map_claimed(n, threading.resolve(), |k| {
            let i = n - 1 - k;
            Prepared::of(&social, &anchor, &order[i], &parts[i], known[i].clone())
        })
        .into_iter()
        .rev()
        .collect::<Result<Vec<_>, _>>()?;
        drop(social);
        let steps: Vec<RowStep<'_>> = prepared.iter().map(Prepared::step).collect();
        let built = fused_rows(&steps, anchor.shape(), threading)?;
        let mut nodes = prepared
            .into_iter()
            .zip(built)
            .map(|(node, out)| node.into_node(out))
            .collect::<Result<Vec<_>, _>>()?;
        leaves.publish(&order, &mut nodes);
        Ok(DeltaCatalogCounts {
            anchor,
            order,
            nodes,
            catalog_pos,
            threading,
            stats: DeltaStats {
                full_counts: 1,
                ..DeltaStats::default()
            },
        })
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
        &self.nodes[self.catalog_pos[i]].counted().count
    }

    /// The incrementally maintained row/column margins of catalog feature
    /// `i`'s count matrix — always bit-equal to a fresh
    /// `MarginSums::of(catalog_count(i))`, without the rescan.
    pub fn catalog_sums(&self, i: usize) -> &MarginSums {
        &self.nodes[self.catalog_pos[i]].counted().sums
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

    /// Checks that every endpoint of `links` lies inside its user
    /// population: the one range check of an anchor batch, which a
    /// write-ahead caller also runs before it journals the batch.
    ///
    /// # Errors
    /// [`DeltaError::AnchorOutOfRange`] on the first endpoint outside its
    /// population.
    pub fn check_links(&self, links: &[AnchorLink]) -> Result<(), DeltaError> {
        let (n1, n2) = self.anchor.shape();
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
        }
        Ok(())
    }

    /// Checks and dedups `links` against the current anchors, returning
    /// the genuinely new `(row, col)` pairs.
    fn fresh_links(&self, links: &[AnchorLink]) -> Result<Vec<(usize, usize)>, DeltaError> {
        self.check_links(links)?;
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut fresh = Vec::new();
        for a in links {
            let (i, j) = (a.left.index(), a.right.index());
            // srclint: allow(float_eq, reason = "anchor entries are exact 0.0/1.0; this is a membership test, not arithmetic")
            if self.anchor.get(i, j) != 0.0 || !seen.insert((i, j)) {
                continue;
            }
            fresh.push((i, j));
        }
        Ok(fresh)
    }

    /// Adds the pre-validated `fresh` links to the anchor matrix and
    /// returns them as `ΔA`. The store is unchanged on error.
    fn merge_links(&mut self, fresh: &[(usize, usize)]) -> Result<CsrMatrix, DeltaError> {
        let (n1, n2) = self.anchor.shape();
        let mut coo = CooMatrix::with_capacity(n1, n2, fresh.len());
        for &(i, j) in fresh {
            coo.push(i, j, 1.0)?;
        }
        let delta = coo.to_csr();
        self.anchor = self.anchor.add(&delta)?;
        self.stats.anchors_applied += fresh.len();
        Ok(delta)
    }

    /// Applies `ΔA` incrementally: every anchor-chain count gains
    /// `L·ΔA·R`, every stacking over a changed part gains that part's
    /// increment times its fixed parts, and anchor-free counts are
    /// untouched. Cost scales with `|ΔA|`.
    ///
    /// Links already present (and duplicates within the batch) are skipped;
    /// an all-duplicate batch is a no-op that leaves the stats untouched.
    ///
    /// # Errors
    /// [`DeltaError::AnchorOutOfRange`] on endpoints outside the user
    /// populations, with the store unchanged.
    /// [`DeltaError::Inconsistent`] if a sparse kernel rejects its
    /// operands, which no built or decoded store makes it do.
    pub fn update_anchors(&mut self, links: &[AnchorLink]) -> Result<DeltaOutcome, DeltaError> {
        let fresh = self.fresh_links(links)?;
        if fresh.is_empty() {
            return Ok(DeltaOutcome::default());
        }
        let delta = self.merge_links(&fresh)?;
        let changed = self.repropagate(&delta)?;
        self.stats.delta_updates += 1;
        Ok(DeltaOutcome {
            applied: fresh.len(),
            changed,
        })
    }

    /// The incremental propagation pass of `ΔA = delta`, in dependency
    /// order. Returns the changed catalog entries with their touched
    /// regions.
    ///
    /// Every changed node keeps its increment for the rest of the pass. An
    /// anchor chain's increment is `L·ΔA·R`; a stack's is its one changed
    /// part's increment `∘` each fixed part, in part order, so
    /// `C∘B + ΔC∘B = (C+ΔC)∘B` (exact integers below `2^53`). Each node
    /// splices its increment in place: the margins fold in the increment's
    /// sums and every entry the positivity filter prunes is retracted
    /// entry-locally. A chain cell pruned at `C+ΔC ≤ 0` gives
    /// `(C+ΔC)·B ≤ 0` in the stack, which its own splice prunes too, so
    /// every count keeps the exact nnz pattern of a full count without a
    /// margin rescan. A node's touched region is the pattern of its
    /// increment.
    ///
    /// # Errors
    /// Kernel-level rejections inside the pass are mapped to
    /// [`DeltaError::Inconsistent`] instead of panicking.
    fn repropagate(&mut self, delta: &CsrMatrix) -> Result<Vec<ChangedCount>, DeltaError> {
        let mut increments: Vec<Option<CsrMatrix>> = vec![None; self.nodes.len()];
        for i in 0..self.nodes.len() {
            let (done, rest) = self.nodes.split_at_mut(i);
            match &mut rest[0] {
                Node::AnchorChain(chain, own) => {
                    let dc = spgemm_lowrank(&chain.lt, delta, &chain.r)?;
                    own.sums.accumulate(&dc)?;
                    own.splice(&dc)?;
                    increments[i] = Some(dc);
                }
                Node::AnchorFree(_) => {}
                Node::Stack(parts, own) => {
                    // A stack has at most one anchor-dependent part
                    // (`Node::anchor_dependent`; no catalog builds another
                    // and the decoder refuses one), so at most one part
                    // kept an increment.
                    let Some((moving, inc)) = parts
                        .iter()
                        .enumerate()
                        .find_map(|(k, &p)| increments[p].as_ref().map(|inc| (k, inc)))
                    else {
                        continue;
                    };
                    let mut ds: Option<CsrMatrix> = None;
                    for (k, &p) in parts.iter().enumerate() {
                        if k != moving {
                            let lhs = ds.as_ref().unwrap_or(inc);
                            ds = Some(lhs.hadamard(&done[p].counted().count)?);
                        }
                    }
                    let ds = ds.unwrap_or_else(|| inc.clone());
                    own.sums.accumulate(&ds)?;
                    own.splice(&ds)?;
                    increments[i] = Some(ds);
                }
            }
        }
        Ok(self
            .catalog_pos
            .iter()
            .enumerate()
            .filter_map(|(catalog_pos, &ord)| {
                Some(ChangedCount {
                    catalog_pos,
                    touched: TouchedRegion::of_pattern(increments[ord].as_ref()?),
                })
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce;
    use crate::catalog::{Catalog, FeatureSet};
    use hetnet::aligned::anchor_matrix;
    use hetnet::UserId;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Weak;

    thread_local! {
        /// Arms a one-shot panic at the next [`fault_point`] on this thread.
        static FAULT: Cell<bool> = const { Cell::new(false) };
    }

    /// Where a build prepares a node's operands: panics once if armed.
    pub(super) fn fault_point() {
        if FAULT.with(|armed| armed.replace(false)) {
            panic!("injected fault in a cold build");
        }
    }

    impl Node {
        /// The node's count, made private to it first if it is shared.
        pub(crate) fn counted_mut(&mut self) -> &mut NodeCount {
            match self {
                Node::AnchorChain(_, own) | Node::Stack(_, own) => own,
                Node::AnchorFree(shared) => Arc::make_mut(shared),
            }
        }
    }

    /// Asserts that `a` and `b` hold bit-identical counts, margins and
    /// factor chains.
    fn assert_bit_equal(a: &DeltaCatalogCounts, b: &DeltaCatalogCounts) {
        assert_eq!(a.order, b.order);
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(x.counted(), y.counted(), "node {i}: count or margins");
            match (x, y) {
                (Node::AnchorChain(x, _), Node::AnchorChain(y, _)) => {
                    assert!(x.l == y.l && x.lt == y.lt && x.r == y.r, "node {i}: chain");
                }
                (Node::AnchorFree(_), Node::AnchorFree(_)) => {}
                (Node::Stack(x, _), Node::Stack(y, _)) => assert_eq!(x, y, "node {i}"),
                _ => panic!("node {i}: kinds differ"),
            }
        }
    }

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

    /// A store of `w`'s full catalog over clones of its networks, so it
    /// shares nothing with a store built over `w` itself.
    fn independent_store(
        w: &datagen::GeneratedWorld,
        anchors: &[AnchorLink],
    ) -> DeltaCatalogCounts {
        let (left, right) = (w.left().clone(), w.right().clone());
        let a = anchor_matrix(left.n_users(), right.n_users(), anchors).unwrap();
        DeltaCatalogCounts::build(
            &left,
            &right,
            a,
            &Catalog::new(FeatureSet::Full),
            Threading::Serial,
        )
        .unwrap()
    }

    /// The oracle: a fresh full count over `anchors`, independent of every
    /// store under test.
    fn reference_counts(w: &datagen::GeneratedWorld, anchors: &[AnchorLink]) -> Vec<CsrMatrix> {
        let s = independent_store(w, anchors);
        (0..s.len()).map(|i| s.catalog_count(i).clone()).collect()
    }

    #[test]
    fn build_matches_engine_counts() {
        // The build's count of every catalog entry equals the exhaustive
        // instance enumeration.
        let w = world();
        let (initial, _) = split_links(&w);
        let s = store(&w, &initial);
        assert_eq!(s.len(), 31);
        assert!(!s.is_empty());
        for (i, e) in Catalog::new(FeatureSet::Full).entries().iter().enumerate() {
            let want = bruteforce::diagram_counts(w.left(), w.right(), &initial, &e.diagram);
            assert_eq!(s.catalog_count(i).to_dense(), want, "catalog entry {i}");
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
        let reference = independent_store(&w, w.truth().links());
        for i in 0..s.len() {
            assert_eq!(
                s.catalog_count(i),
                reference.catalog_count(i),
                "catalog entry {i} diverged"
            );
            assert_eq!(
                s.catalog_sums(i),
                reference.catalog_sums(i),
                "margins of catalog entry {i} diverged"
            );
        }
        assert_eq!(s.stats().full_counts, 1, "delta path must not recount");
        assert_eq!(s.stats().delta_updates, 3.min(held_out.chunks(7).count()));
        assert_eq!(s.stats().anchors_applied, held_out.len());
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
            let region = &chg.touched;
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
        let changed: Vec<usize> = outcome.changed.iter().map(|c| c.catalog_pos).collect();
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
        // The link just merged is known now: repeating it is a no-op too.
        let before = s.stats();
        let outcome = s.update_anchors(&[initial[0], held_out[0]]).unwrap();
        assert_eq!(outcome, DeltaOutcome::default());
        assert_eq!(s.stats(), before, "a no-op batch must not bump stats");
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
        let other = store(&w, &initial);
        let mut s = other.clone();
        for node in &mut s.nodes {
            if let Node::AnchorChain(chain, _) = node {
                let chain = Arc::make_mut(chain);
                let lt = &chain.lt;
                chain.lt = CsrMatrix::from_parts_unchecked(
                    lt.nrows(),
                    lt.ncols(),
                    lt.indptr().to_vec(),
                    lt.indices().to_vec(),
                    lt.values().iter().map(|v| -v).collect(),
                );
            }
        }
        let nnz = |s: &DeltaCatalogCounts| -> usize {
            s.nodes.iter().map(|node| node.counted().count.nnz()).sum()
        };
        let nnz_before = nnz(&s);
        s.update_anchors(&held_out).unwrap();
        for i in 0..s.len() {
            let c = s.catalog_count(i);
            assert!(
                s.catalog_sums(i).matches(c),
                "entry {i}: margins drifted after pruning"
            );
            assert!(c.values().iter().all(|&v| v > 0.0), "entry {i}: residue");
        }
        assert!(nnz(&s) < nnz_before, "no entry was actually pruned");
        // The edits went to private copies: the store `s` was cloned from,
        // which shares its chains with every other store of the world, is
        // bit-unchanged.
        assert_bit_equal(&other, &independent_store(&w, &initial));
    }

    #[test]
    fn each_distinct_diagram_is_materialized_once() {
        fn collect<'d>(d: &'d Diagram, into: &mut HashSet<&'d Diagram>) {
            into.insert(d);
            if let Diagram::Stack(parts) = d {
                parts.iter().for_each(|p| collect(p, into));
            }
        }
        let w = world();
        let (initial, _) = split_links(&w);
        for set in [
            FeatureSet::PathsAndAttrDiagram,
            FeatureSet::Full,
            FeatureSet::FullWithWords,
        ] {
            let catalog = Catalog::new(set);
            let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
            let s =
                DeltaCatalogCounts::build(w.left(), w.right(), a, &catalog, Threading::Threads(2))
                    .unwrap();
            // One node per distinct diagram of the catalog or of a stack's
            // parts, none twice, each with one count and one margin.
            let mut distinct = HashSet::new();
            catalog
                .entries()
                .iter()
                .for_each(|e| collect(&e.diagram, &mut distinct));
            assert_eq!(s.order.len(), distinct.len(), "{set:?}");
            assert_eq!(s.order.iter().collect::<HashSet<_>>(), distinct, "{set:?}");
            assert_eq!(s.nodes.len(), s.order.len());
            // A stack reads the earlier nodes of its own parts, in order.
            for (i, node) in s.nodes.iter().enumerate() {
                if let (Node::Stack(parts, _), Diagram::Stack(ds)) = (node, &s.order[i]) {
                    assert_eq!(parts.len(), ds.len());
                    for (&p, d) in parts.iter().zip(ds) {
                        assert!(p < i, "part {p} of node {i} is out of order");
                        assert_eq!(&s.order[p], d);
                    }
                }
            }
            for (cat, e) in catalog.entries().iter().enumerate() {
                assert_eq!(s.order[s.catalog_pos[cat]], e.diagram);
            }
        }
    }

    #[test]
    fn threaded_build_is_bit_equal_to_serial() {
        let w = world();
        let (initial, _) = split_links(&w);
        let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
        let merged =
            anchor_matrix(w.left().n_users(), w.right().n_users(), w.truth().links()).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let reference = reference_counts(&w, w.truth().links());
        let serial =
            DeltaCatalogCounts::build(w.left(), w.right(), a.clone(), &catalog, Threading::Serial)
                .unwrap();
        for threads in [2usize, 4] {
            let par = |anchor: &CsrMatrix| {
                DeltaCatalogCounts::build(
                    w.left(),
                    w.right(),
                    anchor.clone(),
                    &catalog,
                    Threading::Threads(threads),
                )
                .unwrap()
            };
            let initial = par(&a);
            for i in 0..serial.len() {
                assert_eq!(initial.catalog_count(i), serial.catalog_count(i));
            }
            // And a threaded count over the merged anchors agrees with the
            // serial oracle.
            let merged = par(&merged);
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(merged.catalog_count(i), want);
            }
        }
    }

    /// The shared leaves of `s`, by diagram.
    fn leaves(s: &DeltaCatalogCounts) -> Vec<(Diagram, Leaf)> {
        s.order
            .iter()
            .zip(&s.nodes)
            .filter_map(|(d, node)| Some((d.clone(), node.leaf()?)))
            .collect()
    }

    fn same_leaf(a: &Leaf, b: &Leaf) -> bool {
        match (a, b) {
            (Leaf::Chain(a), Leaf::Chain(b)) => Arc::ptr_eq(a, b),
            (Leaf::Free(a), Leaf::Free(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    #[test]
    fn builds_of_one_pair_share_their_leaves_and_a_clones_build_does_not() {
        let w = world();
        let (initial, held_out) = split_links(&w);
        let first = store(&w, &initial);
        // Another fold: other anchors, the same networks.
        let second = store(&w, &held_out);
        let (a, b) = (leaves(&first), leaves(&second));
        assert_eq!(a.len(), 13, "10 social leaves, P5, P6 and Ψ[P5×P6]");
        for ((d, x), (_, y)) in a.iter().zip(&b) {
            assert!(same_leaf(x, y), "{d} is not shared");
        }
        // A meta-paths-only catalog shares P1–P6 with the full one.
        let catalog = Catalog::new(FeatureSet::MetaPathsOnly);
        let anchor = anchor_matrix(w.left().n_users(), w.right().n_users(), &initial).unwrap();
        let paths =
            DeltaCatalogCounts::build(w.left(), w.right(), anchor, &catalog, Threading::Serial)
                .unwrap();
        for (d, x) in leaves(&paths) {
            let (_, y) = a.iter().find(|(e, _)| *e == d).unwrap();
            assert!(same_leaf(&x, y), "{d} is not shared across catalogs");
        }
        // A clone of a network is a new pair: nothing is shared, and every
        // bit agrees.
        let cloned = independent_store(&w, &initial);
        for ((d, x), (_, y)) in a.iter().zip(leaves(&cloned)) {
            assert!(!same_leaf(x, &y), "{d} is shared with a clone's build");
        }
        assert_bit_equal(&first, &cloned);
        // A store's clone shares the leaves and copies its own counts.
        let copy = first.clone();
        for ((_, x), (_, y)) in a.iter().zip(leaves(&copy)) {
            assert!(same_leaf(x, &y));
        }
        assert_bit_equal(&first, &copy);
    }

    #[test]
    fn shared_leaves_are_dropped_with_the_networks_and_stores() {
        let w = world();
        let (initial, _) = split_links(&w);
        let (left, right) = (w.left().clone(), w.right().clone());
        let anchor = anchor_matrix(left.n_users(), right.n_users(), &initial).unwrap();
        let catalog = Catalog::new(FeatureSet::Full);
        let s =
            DeltaCatalogCounts::build(&left, &right, anchor, &catalog, Threading::Serial).unwrap();
        let chains: Vec<Weak<FactorChain>> = s
            .nodes
            .iter()
            .filter_map(|node| match node {
                Node::AnchorChain(chain, _) => Some(Arc::downgrade(chain)),
                _ => None,
            })
            .collect();
        let frees: Vec<Weak<NodeCount>> = s
            .nodes
            .iter()
            .filter_map(|node| match node {
                Node::AnchorFree(count) => Some(Arc::downgrade(count)),
                _ => None,
            })
            .collect();
        let alive = |yes: bool| {
            chains.iter().all(|c| c.upgrade().is_some() == yes)
                && frees.iter().all(|f| f.upgrade().is_some() == yes)
        };
        drop(s);
        assert!(alive(true), "the networks keep them for the next build");
        drop((left, right));
        assert!(alive(false), "nothing else holds them");
    }

    #[test]
    fn a_panic_in_a_cold_build_reaches_the_caller_and_the_next_build_succeeds() {
        let w = world();
        let (initial, _) = split_links(&w);
        let (left, right) = (w.left().clone(), w.right().clone());
        let catalog = Catalog::new(FeatureSet::Full);
        let build = || {
            let a = anchor_matrix(left.n_users(), right.n_users(), &initial).unwrap();
            DeltaCatalogCounts::build(&left, &right, a, &catalog, Threading::Serial)
        };
        FAULT.with(|armed| armed.set(true));
        let caught = catch_unwind(AssertUnwindSafe(build)).unwrap_err();
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"injected fault in a cold build")
        );
        // Nothing half-built was published.
        assert!(left.pair_memo::<PairLeaves>(&right).entries().is_empty());
        // A lock poisoned by a panic elsewhere is recovered too.
        let leaves = left.pair_memo::<PairLeaves>(&right);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _held = leaves.0.lock();
            panic!("poison the leaves lock");
        }));
        assert!(leaves.0.is_poisoned());
        let cold = build().unwrap();
        assert_bit_equal(&cold, &independent_store(&w, &initial));
        let warm = build().unwrap();
        assert_bit_equal(&cold, &warm);
    }
}
