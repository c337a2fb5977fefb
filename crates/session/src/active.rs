//! The session-driven ActiveIter round loop.
//!
//! `ActiveIterModel::fit` optimizes against a *fixed* feature matrix; this
//! module is the incremental variant the session API exists for: after
//! every external query round, the anchors the oracle confirmed flow back
//! into the session ([`AlignmentSession::update_anchors`]), the features
//! are refreshed by the `L·ΔA·R` delta path, and the loop resumes on the
//! updated instance. The catalog is fully counted exactly once, at session
//! build; every subsequent round's counting cost scales with the number of
//! newly confirmed anchors.

use crate::stages::{AlignmentSession, Featurized, Fitted};
use crate::{AnchorEdge, SessionError};
use activeiter::driver::ActiveLoop;
use activeiter::model::FitReport;
use activeiter::{ModelConfig, Oracle, QueryStrategy};
use std::time::{Duration, Instant};

/// One external round's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStat {
    /// Oracle queries answered this round.
    pub queried: usize,
    /// Positives confirmed (= candidate anchors fed back into the counts).
    pub confirmed: usize,
    /// Genuinely new anchors merged (duplicates skipped).
    pub anchors_applied: usize,
    /// Wall-clock of the delta recount + feature refresh. Zero when no
    /// anchor was confirmed.
    pub recount_time: Duration,
}

/// What a session-driven active run produced.
#[derive(Debug, Clone)]
pub struct ActiveRunReport {
    /// The final fit (labels, scores, queried links, convergence traces).
    pub fit: FitReport,
    /// Per-round bookkeeping, one entry per external query round.
    pub rounds: Vec<RoundStat>,
}

impl ActiveRunReport {
    /// Total wall-clock spent recounting across all rounds.
    pub fn total_recount_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.recount_time).sum()
    }

    /// Total anchors merged across all rounds.
    pub fn total_anchors_applied(&self) -> usize {
        self.rounds.iter().map(|r| r.anchors_applied).sum()
    }
}

impl AlignmentSession<Featurized> {
    /// Runs the ActiveIter loop with per-round anchor feedback: converge,
    /// query `strategy`, apply the oracle's answers, fold the confirmed
    /// anchors back into the counts through
    /// [`AlignmentSession::update_anchors`], refresh the features, and
    /// repeat until the budget is spent or the candidate set runs dry.
    ///
    /// The fit is **bit-identical** to one driven with
    /// [`AlignmentSession::recount_anchors`] each round (the delta recount
    /// is exact); only the per-round cost differs. The session's stats
    /// prove the economics: after a run, `stats().full_counts == 1` — the
    /// build's count — no matter how many rounds ran.
    ///
    /// # Errors
    /// [`SessionError::Delta`] if a confirmed candidate's endpoints fall
    /// outside the user populations (impossible when candidates came from
    /// the same universe as the networks).
    pub fn run_active(
        mut self,
        labeled_pos: Vec<usize>,
        oracle: &dyn Oracle,
        strategy: &mut dyn QueryStrategy,
        config: &ModelConfig,
    ) -> Result<(AlignmentSession<Fitted>, ActiveRunReport), SessionError> {
        let mut drv = ActiveLoop::new(self.instance(labeled_pos), config.clone());
        let mut rounds: Vec<RoundStat> = Vec::new();
        loop {
            drv.converge();
            if drv.remaining() == 0 {
                break;
            }
            let selection = drv.select_queries(strategy);
            if selection.is_empty() {
                break;
            }
            let queried = selection.len();
            let mut confirmed: Vec<AnchorEdge> = Vec::new();
            for idx in selection {
                let answer = oracle.label(idx);
                drv.apply_answer(idx, answer);
                if answer {
                    let (l, r) = self.stage.candidates[idx];
                    confirmed.push(AnchorEdge::new(l, r));
                }
            }
            // Fold the round's confirmed anchors back into the counts and
            // hand the refreshed features to the driver.
            let recount_start = Instant::now();
            let applied = if confirmed.is_empty() {
                0
            } else {
                self.update_anchors(&confirmed)?
            };
            if applied > 0 {
                drv.replace_features(&self.stage.features.x);
            }
            rounds.push(RoundStat {
                queried,
                confirmed: confirmed.len(),
                anchors_applied: applied,
                recount_time: recount_start.elapsed(),
            });
        }
        let fit = drv.finish();
        let report = ActiveRunReport {
            fit: fit.clone(),
            rounds,
        };
        let fitted = AlignmentSession {
            catalog: self.catalog,
            counts: self.counts,
            stage: Fitted {
                featurized: self.stage,
                report: fit,
            },
        };
        Ok((fitted, report))
    }
}
