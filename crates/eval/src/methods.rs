//! The comparison methods of §IV-B.2 (plus ablation variants).

use metadiagram::FeatureSet;

/// Query-strategy selector for the ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// The paper's conflict-based strategy.
    Conflict,
    /// Uniform random (ActiveIter-Rand).
    Random,
    /// Uncertainty sampling (ablation).
    Uncertainty,
    /// Highest-scored negatives (ablation).
    TopScore,
}

/// A method under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// **ActiveIter-b**: the paper's model with query budget `b`.
    ActiveIter {
        /// Query budget.
        budget: usize,
    },
    /// **ActiveIter-Rand-b**: random query baseline.
    ActiveIterRand {
        /// Query budget.
        budget: usize,
    },
    /// **Iter-MPMD**: PU iterative model, no queries.
    IterMpmd,
    /// **SVM-MPMD**: supervised SVM on meta-path + meta-diagram features.
    SvmMpmd,
    /// **SVM-MP**: supervised SVM on meta-path features only.
    SvmMp,
    /// Ablation: ActiveIter with an alternative query strategy.
    ActiveIterWith {
        /// Query budget.
        budget: usize,
        /// Strategy to use.
        strategy: StrategyKind,
    },
    /// Ablation: Iter-MPMD restricted to a feature-catalog slice.
    IterMpmdFeatures {
        /// Catalog slice.
        features: AblationFeatures,
    },
    /// Unsupervised baseline: attribute-similarity greedy matching, no
    /// labels, no learning (related-work reference point, §V).
    Unsupervised,
}

/// Serializable mirror of [`FeatureSet`] for the ablation method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationFeatures {
    /// P1..P6 only.
    MetaPathsOnly,
    /// P plus Ψf².
    PathsAndSocialDiagrams,
    /// P plus Ψa².
    PathsAndAttrDiagram,
    /// Everything.
    Full,
}

impl From<AblationFeatures> for FeatureSet {
    fn from(a: AblationFeatures) -> FeatureSet {
        match a {
            AblationFeatures::MetaPathsOnly => FeatureSet::MetaPathsOnly,
            AblationFeatures::PathsAndSocialDiagrams => FeatureSet::PathsAndSocialDiagrams,
            AblationFeatures::PathsAndAttrDiagram => FeatureSet::PathsAndAttrDiagram,
            AblationFeatures::Full => FeatureSet::Full,
        }
    }
}

impl Method {
    /// The paper's six Table III/IV rows, in row order.
    pub fn paper_lineup() -> Vec<Method> {
        vec![
            Method::ActiveIter { budget: 100 },
            Method::ActiveIter { budget: 50 },
            Method::ActiveIterRand { budget: 50 },
            Method::IterMpmd,
            Method::SvmMpmd,
            Method::SvmMp,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Method::ActiveIter { budget } => format!("ActiveIter-{budget}"),
            Method::ActiveIterRand { budget } => format!("ActiveIter-Rand-{budget}"),
            Method::IterMpmd => "Iter-MPMD".to_string(),
            Method::SvmMpmd => "SVM-MPMD".to_string(),
            Method::SvmMp => "SVM-MP".to_string(),
            Method::ActiveIterWith { budget, strategy } => {
                format!("ActiveIter-{budget}[{strategy:?}]")
            }
            Method::IterMpmdFeatures { features } => format!("Iter-MPMD[{features:?}]"),
            Method::Unsupervised => "Unsupervised".to_string(),
        }
    }

    /// Which feature catalog the method consumes. Only SVM-MP uses the
    /// paths-only catalog in the paper's lineup.
    pub fn feature_set(&self) -> FeatureSet {
        match self {
            // The unsupervised matcher sees no anchors, so only the
            // label-free attribute paths carry information.
            Method::SvmMp | Method::Unsupervised => FeatureSet::MetaPathsOnly,
            Method::IterMpmdFeatures { features } => (*features).into(),
            _ => FeatureSet::Full,
        }
    }

    /// Query budget (0 for non-active methods).
    pub fn budget(&self) -> usize {
        match self {
            Method::ActiveIter { budget }
            | Method::ActiveIterRand { budget }
            | Method::ActiveIterWith { budget, .. } => *budget,
            _ => 0,
        }
    }

    /// The query strategy of the ActiveIter family (Iter-MPMD is its
    /// zero-budget special case: the strategy is never consulted); `None`
    /// for the SVM and unsupervised baselines, which fit no active loop.
    pub fn strategy(&self) -> Option<StrategyKind> {
        match self {
            Method::IterMpmd | Method::IterMpmdFeatures { .. } | Method::ActiveIter { .. } => {
                Some(StrategyKind::Conflict)
            }
            Method::ActiveIterRand { .. } => Some(StrategyKind::Random),
            Method::ActiveIterWith { strategy, .. } => Some(*strategy),
            Method::SvmMpmd | Method::SvmMp | Method::Unsupervised => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_paper_rows() {
        let names: Vec<String> = Method::paper_lineup().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "ActiveIter-100",
                "ActiveIter-50",
                "ActiveIter-Rand-50",
                "Iter-MPMD",
                "SVM-MPMD",
                "SVM-MP"
            ]
        );
    }

    #[test]
    fn feature_sets() {
        assert_eq!(Method::SvmMp.feature_set(), FeatureSet::MetaPathsOnly);
        assert_eq!(Method::SvmMpmd.feature_set(), FeatureSet::Full);
        assert_eq!(Method::IterMpmd.feature_set(), FeatureSet::Full);
        assert_eq!(
            Method::IterMpmdFeatures {
                features: AblationFeatures::PathsAndAttrDiagram
            }
            .feature_set(),
            FeatureSet::PathsAndAttrDiagram
        );
    }

    #[test]
    fn budgets() {
        assert_eq!(Method::ActiveIter { budget: 100 }.budget(), 100);
        assert_eq!(Method::IterMpmd.budget(), 0);
        assert_eq!(Method::SvmMp.budget(), 0);
        assert_eq!(
            Method::ActiveIterWith {
                budget: 25,
                strategy: StrategyKind::Uncertainty
            }
            .budget(),
            25
        );
    }

    #[test]
    fn unsupervised_method() {
        assert_eq!(Method::Unsupervised.name(), "Unsupervised");
        assert_eq!(Method::Unsupervised.budget(), 0);
    }

    #[test]
    fn only_the_active_iter_family_has_a_strategy() {
        for m in Method::paper_lineup() {
            assert_eq!(
                m.strategy().is_none(),
                matches!(m, Method::SvmMp | Method::SvmMpmd),
                "{}",
                m.name()
            );
        }
        assert_eq!(Method::Unsupervised.strategy(), None);
        assert_eq!(
            Method::ActiveIterRand { budget: 5 }.strategy(),
            Some(StrategyKind::Random)
        );
        assert_eq!(
            Method::ActiveIterWith {
                budget: 5,
                strategy: StrategyKind::TopScore
            }
            .strategy(),
            Some(StrategyKind::TopScore)
        );
    }
}
