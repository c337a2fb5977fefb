//! Binary-classification metrics (the paper's F1, Precision, Recall,
//! Accuracy) and mean ± std aggregation across folds.

/// A confusion matrix over binary predictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Tallies predictions against ground truth.
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn from_predictions(pred: &[bool], truth: &[bool]) -> Self {
        assert_eq!(pred.len(), truth.len(), "prediction/truth length mismatch");
        let mut c = Confusion::default();
        for (&p, &t) in pred.iter().zip(truth.iter()) {
            match (p, t) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Total number of instances.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision `tp / (tp + fp)`; 0 when no positive predictions (the
    /// paper reports 0.000 for collapsed models, e.g. SVM-MP at high θ).
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 0 when there are no positives.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// F1, the harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        // srclint: allow(float_eq, reason = "p + r is exactly 0.0 only when both counts are zero; guards the division")
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accuracy `(tp + tn) / total`; 0 for empty sets.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// All four paper metrics at once.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            f1: self.f1(),
            precision: self.precision(),
            recall: self.recall(),
            accuracy: self.accuracy(),
        }
    }
}

/// The four metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// F1 score.
    pub f1: f64,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// Accuracy.
    pub accuracy: f64,
}

impl Metrics {
    /// Metric by paper column name (report plumbing).
    pub fn get(&self, name: &str) -> f64 {
        match name {
            "F1" => self.f1,
            "Precision" => self.precision,
            "Recall" => self.recall,
            "Accuracy" => self.accuracy,
            other => panic!("unknown metric {other}"),
        }
    }

    /// The paper's metric names, in Table III row-block order.
    pub const NAMES: [&'static str; 4] = ["F1", "Precision", "Recall", "Accuracy"];
}

/// `mean ± std` of one metric across folds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation (the paper reports ±std over the 10
    /// fold rotations).
    pub std: f64,
}

/// Summarizes a slice of per-fold values.
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> MetricSummary {
    assert!(!values.is_empty(), "cannot summarize zero runs");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    MetricSummary {
        mean,
        std: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_tallies() {
        let pred = [true, true, false, false, true];
        let truth = [true, false, true, false, true];
        let c = Confusion::from_predictions(&pred, &truth);
        assert_eq!(
            c,
            Confusion {
                tp: 2,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn metric_formulas() {
        let c = Confusion {
            tp: 2,
            fp: 1,
            tn: 1,
            fn_: 1,
        };
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
        let m = c.metrics();
        assert_eq!(m.get("F1"), c.f1());
        assert_eq!(m.get("Accuracy"), c.accuracy());
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        // No positive predictions at all — SVM-MP's collapse mode.
        let c = Confusion::from_predictions(&[false, false], &[true, false]);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.f1(), 0.0);
        assert!(c.recall() == 0.0);
        // No true positives in the data.
        let c = Confusion::from_predictions(&[false], &[false]);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.accuracy(), 1.0);
        // Empty set.
        let c = Confusion::default();
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn class_imbalance_inflates_accuracy_only() {
        // The paper's point about accuracy under imbalance: predict all
        // negative at θ = 50 → accuracy ≈ 0.98, F1 = 0.
        let mut truth = vec![false; 500];
        truth[0] = true;
        let pred = vec![false; 500];
        let c = Confusion::from_predictions(&pred, &truth);
        assert!(c.accuracy() > 0.99);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn summarize_mean_and_std() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let single = summarize(&[5.0]);
        assert_eq!(single.mean, 5.0);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn summarize_rejects_empty() {
        summarize(&[]);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_name_panics() {
        Confusion::default().metrics().get("AUC");
    }
}
