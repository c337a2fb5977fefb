//! The builder and the typed session stages.

use crate::{AnchorEdge, SessionError};
use activeiter::driver::ActiveLoop;
use activeiter::{AlignmentInstance, ModelConfig, Oracle, QueryStrategy};
use hetnet::aligned::anchor_matrix;
use hetnet::{HetNet, UserId};
use metadiagram::delta::{DeltaCatalogCounts, DeltaOutcome, DeltaStats};
use metadiagram::{dice_at, dice_proximity, extract_features, Catalog, FeatureMatrix, FeatureSet};
use sparsela::{CsrMatrix, Threading};

/// Configures and opens an [`AlignmentSession`].
///
/// The builder borrows the two networks only until
/// [`SessionBuilder::count`]; every later stage holds its artifacts
/// (anchor matrix, count matrices, factor chains, features, model) and
/// never touches the networks again. The factor chains and anchor-free
/// counts depend only on the two networks: the first count over a pair
/// computes them and every later count over the same two networks shares
/// them (see [`DeltaCatalogCounts::build`]).
///
/// ```
/// use session::SessionBuilder;
/// use metadiagram::FeatureSet;
/// use sparsela::Threading;
///
/// let world = datagen::generate(&datagen::presets::tiny(3));
/// let session = SessionBuilder::new(world.left(), world.right())
///     .anchors(world.truth().links()[..8].to_vec())
///     .feature_set(FeatureSet::MetaPathsOnly)
///     .threading(Threading::Threads(2))
///     .count()
///     .expect("generated networks share attribute universes");
/// assert_eq!(session.n_anchors(), 8);
/// assert_eq!(session.catalog().len(), 6);
/// ```
#[derive(Debug)]
pub struct SessionBuilder<'w> {
    left: &'w HetNet,
    right: &'w HetNet,
    anchors: Vec<AnchorEdge>,
    feature_set: FeatureSet,
    threading: Threading,
}

impl<'w> SessionBuilder<'w> {
    /// A builder over one aligned pair, with the full 31-feature catalog,
    /// no anchors and serial counting.
    pub fn new(left: &'w HetNet, right: &'w HetNet) -> Self {
        SessionBuilder {
            left,
            right,
            anchors: Vec::new(),
            feature_set: FeatureSet::Full,
            threading: Threading::Serial,
        }
    }

    /// The **training** anchors the counts start from. Passing ground-truth
    /// test anchors here leaks labels into the features — callers hold
    /// these to the training fold, exactly as with
    /// [`DeltaCatalogCounts::build`].
    #[must_use]
    pub fn anchors(mut self, anchors: Vec<AnchorEdge>) -> Self {
        self.anchors = anchors;
        self
    }

    /// Selects the feature-catalog slice (default: [`FeatureSet::Full`]).
    #[must_use]
    pub fn feature_set(mut self, set: FeatureSet) -> Self {
        self.feature_set = set;
        self
    }

    /// Worker threading for the initial catalog count and the feature
    /// gather. Results are bit-identical at any setting.
    #[must_use]
    pub fn threading(mut self, threading: Threading) -> Self {
        self.threading = threading;
        self
    }

    /// Performs the session's one full catalog count and harvests the
    /// `L`/`Lᵀ`/`R` factor chains that make later updates incremental. A
    /// count over two networks counted together before shares their
    /// anchor-independent part and counts only what the anchors change.
    ///
    /// # Errors
    /// [`SessionError::Anchors`] when an anchor endpoint is out of range;
    /// [`SessionError::Engine`] when the networks disagree on a shared
    /// attribute universe.
    pub fn count(self) -> Result<AlignmentSession<Counted>, SessionError> {
        let anchor = anchor_matrix(self.left.n_users(), self.right.n_users(), &self.anchors)?;
        let catalog = Catalog::new(self.feature_set);
        let counts =
            DeltaCatalogCounts::build(self.left, self.right, anchor, &catalog, self.threading)?;
        Ok(AlignmentSession {
            catalog,
            counts,
            stage: Counted(()),
        })
    }
}

/// A staged alignment pipeline; see the [crate docs](crate) for the stage
/// diagram. `S` is one of [`Counted`], [`Featurized`], [`Fitted`].
///
/// Sessions are plain values: `Clone` copies every artifact an update can
/// change and shares the immutable anchor-independent ones (factor chains
/// and anchor-free counts) by `Arc`, so a caller can checkpoint a stage
/// and explore updates (or fits) from it without re-counting.
#[derive(Debug, Clone)]
pub struct AlignmentSession<S> {
    pub(crate) catalog: Catalog,
    pub(crate) counts: DeltaCatalogCounts,
    pub(crate) stage: S,
}

/// Stage 1: count matrices and factor chains exist; no features yet.
#[derive(Debug, Clone)]
pub struct Counted(());

impl Counted {
    /// Stage marker for sessions restored by [`crate::snapshot`].
    pub(crate) fn new() -> Self {
        Counted(())
    }
}

/// Stage 2: [`Counted`] plus the dense candidate feature matrix, whose
/// cells are Dice proximities read straight from the counts and their
/// maintained margins ([`dice_at`]) — no proximity matrix is stored.
#[derive(Debug, Clone)]
pub struct Featurized {
    pub(crate) candidates: Vec<(UserId, UserId)>,
    /// Candidate rows by left user — the rows a touched count row reaches.
    by_left: UserRows,
    /// Candidate rows by right user — the rows a touched count column
    /// reaches.
    by_right: UserRows,
    pub(crate) features: FeatureMatrix,
}

/// Candidate rows grouped by user: the rows of user `u` are
/// `rows[start[u]..start[u + 1]]`, ascending. One flat offset array and
/// one flat row array rather than a `Vec` per user, so the index is two
/// allocations at any user count.
#[derive(Debug, Clone)]
struct UserRows {
    start: Vec<usize>,
    rows: Vec<usize>,
}

impl UserRows {
    /// Groups candidate rows by user, where `users` yields each row's
    /// user (below `n_users`) in row order.
    fn group(n_users: usize, users: impl Iterator<Item = usize> + Clone) -> Self {
        let mut start = vec![0usize; n_users + 1];
        for u in users.clone() {
            start[u + 1] += 1;
        }
        for u in 0..n_users {
            start[u + 1] += start[u];
        }
        let mut next = start[..n_users].to_vec();
        let mut rows = vec![0usize; start[n_users]];
        for (row, u) in users.enumerate() {
            rows[next[u]] = row;
            next[u] += 1;
        }
        UserRows { start, rows }
    }

    /// The candidate rows of user `u`.
    fn of(&self, u: usize) -> &[usize] {
        &self.rows[self.start[u]..self.start[u + 1]]
    }
}

/// Stage 3: [`Featurized`] plus a fitted model. Terminal: it reads out
/// the report, candidates and features, and has no `update_anchors`, so a
/// fit is never observed next to counts it was not trained on.
#[derive(Debug, Clone)]
pub struct Fitted {
    pub(crate) featurized: Featurized,
    pub(crate) report: activeiter::FitReport,
}

impl<S> AlignmentSession<S> {
    /// The feature catalog this session counts.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current (merged) anchor matrix.
    pub fn anchor(&self) -> &CsrMatrix {
        self.counts.anchor()
    }

    /// Number of anchors currently counted against.
    pub fn n_anchors(&self) -> usize {
        self.counts.n_anchors()
    }

    /// The count matrix of catalog feature `i`.
    pub fn count_of(&self, i: usize) -> &CsrMatrix {
        self.counts.catalog_count(i)
    }

    /// Work counters: how many full catalog counts this session has paid
    /// for (always 1, the build's) and how many incremental updates it
    /// applied.
    pub fn stats(&self) -> DeltaStats {
        self.counts.stats()
    }

    /// The worker threading the session was built with (persisted with
    /// the count store, its single source of truth).
    pub fn threading(&self) -> Threading {
        self.counts.threading()
    }
}

impl AlignmentSession<Counted> {
    /// Applies newly confirmed anchors as the low-rank delta recount
    /// `C += L·ΔA·R`. Already-known links and in-batch duplicates are
    /// skipped; returns the number of genuinely new anchors merged.
    ///
    /// # Errors
    /// [`SessionError::Delta`] on out-of-range endpoints (nothing changes).
    pub fn update_anchors(&mut self, edges: &[AnchorEdge]) -> Result<usize, SessionError> {
        Ok(self.counts.update_anchors(edges)?.applied)
    }

    /// Advances to [`Featurized`]: gathers the dense `candidates ×
    /// catalog` feature matrix with [`extract_features`], which reads every
    /// cell's Dice proximity straight from the counts and their maintained
    /// margins ([`dice_at`]), and indexes the candidates by user for later
    /// refreshes.
    ///
    /// # Panics
    /// When a candidate's user lies outside its network's user range.
    pub fn featurize(self, candidates: Vec<(UserId, UserId)>) -> AlignmentSession<Featurized> {
        let features = extract_features(
            &self.counts,
            &self.catalog,
            &candidates,
            self.counts.threading(),
        );
        let (n_left, n_right) = self.counts.anchor().shape();
        let by_left = UserRows::group(n_left, candidates.iter().map(|c| c.0.index()));
        let by_right = UserRows::group(n_right, candidates.iter().map(|c| c.1.index()));
        AlignmentSession {
            catalog: self.catalog,
            counts: self.counts,
            stage: Featurized {
                candidates,
                by_left,
                by_right,
                features,
            },
        }
    }
}

impl AlignmentSession<Featurized> {
    /// The candidate links the features describe (row order).
    pub fn candidates(&self) -> &[(UserId, UserId)] {
        &self.stage.candidates
    }

    /// The dense feature matrix (no bias column — models append their own).
    pub fn features(&self) -> &FeatureMatrix {
        &self.stage.features
    }

    /// The Dice proximity matrix of catalog feature `i`, normalized on
    /// demand from its count matrix — a view for tests and debugging; the
    /// session itself stores no proximity matrices.
    pub fn proximity_of(&self, i: usize) -> CsrMatrix {
        dice_proximity(self.count_of(i))
    }

    /// Builds an [`AlignmentInstance`] over this session's candidates and
    /// features (bias appended), with `labeled_pos` as the labeled set.
    pub fn instance(&self, labeled_pos: Vec<usize>) -> AlignmentInstance {
        AlignmentInstance::new(
            self.stage.candidates.clone(),
            &self.stage.features.x,
            labeled_pos,
        )
    }

    /// Applies newly confirmed anchors incrementally and refreshes exactly
    /// the downstream artifacts that depend on them: the changed count
    /// matrices (`C += L·ΔA·R`) with their margins, and the affected
    /// feature *entries* — only candidates whose left user sits in a
    /// touched row or whose right user sits in a touched column are
    /// re-read. Anchor-free attribute features are untouched. Returns the
    /// number of genuinely new anchors merged.
    ///
    /// # Errors
    /// [`SessionError::Delta`] on out-of-range endpoints (nothing changes).
    pub fn update_anchors(&mut self, edges: &[AnchorEdge]) -> Result<usize, SessionError> {
        let outcome = self.counts.update_anchors(edges)?;
        self.refresh(&outcome);
        Ok(outcome.applied)
    }

    /// Re-reads the feature values of the changed catalog entries.
    ///
    /// A cell `(l, r)` of column `c` depends on `C[l, r]`, row sum `l` and
    /// column sum `r` of `c`'s counts, so only the candidates of the
    /// touched rows (through the left-user index) and of the touched
    /// columns (through the right-user index) are re-read; a candidate
    /// reached from both sides is simply read twice. Every read is
    /// [`dice_at`], as in featurization, so the result is bit-identical to
    /// a fresh featurization.
    fn refresh(&mut self, outcome: &DeltaOutcome) {
        for chg in &outcome.changed {
            let col = chg.catalog_pos;
            let counts = self.counts.catalog_count(col);
            let sums = self.counts.catalog_sums(col);
            let Featurized {
                candidates,
                by_left,
                by_right,
                features,
            } = &mut self.stage;
            let rows = chg.touched.rows.iter().flat_map(|&u| by_left.of(u));
            let cols = chg.touched.cols.iter().flat_map(|&u| by_right.of(u));
            for &row in rows.chain(cols) {
                let (l, r) = candidates[row];
                features.x[(row, col)] = dice_at(counts, sums, l.index(), r.index());
            }
        }
    }

    /// Advances to [`Fitted`] by running the paper's alternating
    /// optimization over a **fixed** feature matrix (the batch semantics of
    /// `eval::run_fold`): converge, query `strategy`, apply the oracle's
    /// answers, repeat until the budget is spent. Confirmed anchors do
    /// *not* flow back into the counts here — use
    /// [`AlignmentSession::run_active`] for the incremental loop.
    pub fn fit(
        self,
        labeled_pos: Vec<usize>,
        oracle: &dyn Oracle,
        config: &ModelConfig,
        strategy: &mut dyn QueryStrategy,
    ) -> AlignmentSession<Fitted> {
        let report =
            ActiveLoop::new(self.instance(labeled_pos), config.clone()).run(strategy, oracle);
        AlignmentSession {
            catalog: self.catalog,
            counts: self.counts,
            stage: Fitted {
                featurized: self.stage,
                report,
            },
        }
    }
}

impl AlignmentSession<Fitted> {
    /// The fitted model's report.
    pub fn report(&self) -> &activeiter::FitReport {
        &self.stage.report
    }

    /// The candidate links the fit scored (row order).
    pub fn candidates(&self) -> &[(UserId, UserId)] {
        &self.stage.featurized.candidates
    }

    /// The feature matrix the fit was trained on.
    pub fn features(&self) -> &FeatureMatrix {
        &self.stage.featurized.features
    }

    /// Consumes the session into the fit report alone.
    pub fn into_report(self) -> activeiter::FitReport {
        self.stage.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activeiter::query::ConflictQuery;
    use activeiter::VecOracle;
    use hetnet::aligned::anchor_matrix;

    fn world() -> datagen::GeneratedWorld {
        datagen::generate(&datagen::presets::tiny(23))
    }

    #[test]
    fn featurize_is_bit_equal_to_fresh_engine_proximity() {
        let w = world();
        let train = w.truth().links()[..12].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        for threading in [Threading::Serial, Threading::Threads(3)] {
            let session = SessionBuilder::new(w.left(), w.right())
                .anchors(train.clone())
                .threading(threading)
                .count()
                .unwrap()
                .featurize(candidates.clone());
            // Reference: a fresh serial count, normalized in full.
            let a = anchor_matrix(w.left().n_users(), w.right().n_users(), &train).unwrap();
            let catalog = session.catalog();
            let fresh =
                DeltaCatalogCounts::build(w.left(), w.right(), a, catalog, Threading::Serial)
                    .unwrap();
            let mut reference = sparsela::DenseMatrix::zeros(candidates.len(), catalog.len());
            for col in 0..catalog.len() {
                let prox = dice_proximity(fresh.catalog_count(col));
                for (row, &(l, r)) in candidates.iter().enumerate() {
                    reference[(row, col)] = prox.get(l.index(), r.index());
                }
            }
            assert_eq!(session.features().names, catalog.names());
            assert_eq!(session.features().x.data(), reference.data());
        }
    }

    #[test]
    fn featurized_update_matches_fresh_featurization() {
        let w = world();
        let train = w.truth().links()[..10].to_vec();
        let extra = w.truth().links()[10..20].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();

        let mut incremental = SessionBuilder::new(w.left(), w.right())
            .anchors(train.clone())
            .count()
            .unwrap()
            .featurize(candidates.clone());
        assert_eq!(incremental.update_anchors(&extra).unwrap(), extra.len());

        let merged: Vec<_> = train.iter().chain(extra.iter()).copied().collect();
        let fresh = SessionBuilder::new(w.left(), w.right())
            .anchors(merged)
            .count()
            .unwrap()
            .featurize(candidates);
        assert_eq!(incremental.features().x.data(), fresh.features().x.data());
        for i in 0..incremental.catalog().len() {
            assert_eq!(incremental.proximity_of(i), fresh.proximity_of(i));
            assert_eq!(incremental.count_of(i), fresh.count_of(i));
        }
        // One full count at build; the update went through the delta path.
        assert_eq!(incremental.stats().full_counts, 1);
        assert_eq!(incremental.stats().delta_updates, 1);
        assert_eq!(fresh.stats().full_counts, 1);
    }

    #[test]
    fn counted_stage_accepts_updates_before_featurization() {
        let w = world();
        let train = w.truth().links()[..5].to_vec();
        let extra = w.truth().links()[5..15].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();

        let mut counted = SessionBuilder::new(w.left(), w.right())
            .anchors(train.clone())
            .count()
            .unwrap();
        assert_eq!(counted.update_anchors(&extra).unwrap(), extra.len());
        assert_eq!(counted.n_anchors(), 15);
        let session = counted.featurize(candidates.clone());

        let merged: Vec<_> = train.iter().chain(extra.iter()).copied().collect();
        let fresh = SessionBuilder::new(w.left(), w.right())
            .anchors(merged)
            .count()
            .unwrap()
            .featurize(candidates);
        assert_eq!(session.features().x.data(), fresh.features().x.data());
    }

    #[test]
    fn fit_stage_produces_a_report_over_its_candidates() {
        let w = world();
        let train = w.truth().links()[..10].to_vec();
        let candidates: Vec<_> = w.truth().iter().map(|l| (l.left, l.right)).collect();
        let truth = vec![true; candidates.len()];
        let session = SessionBuilder::new(w.left(), w.right())
            .anchors(train)
            .count()
            .unwrap()
            .featurize(candidates);
        let labeled: Vec<usize> = (0..10).collect();
        let config = ModelConfig {
            budget: 5,
            ..Default::default()
        };
        let mut strategy = ConflictQuery::new(config.similar_tau, config.margin_delta);
        let fitted = session.fit(labeled, &VecOracle::new(truth), &config, &mut strategy);
        assert!(fitted.report().queried.len() <= 5);
        assert_eq!(fitted.candidates().len(), fitted.features().n_rows());
    }

    #[test]
    fn builder_surfaces_validation_errors() {
        let w = world();
        let bad = vec![AnchorEdge::new(UserId(u32::MAX), UserId(0))];
        let err = SessionBuilder::new(w.left(), w.right())
            .anchors(bad)
            .count()
            .unwrap_err();
        assert!(matches!(err, SessionError::Anchors(_)));
        assert!(err.to_string().contains("anchor"));
    }
}
