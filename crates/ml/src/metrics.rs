//! Classification metrics.

/// A 2×2 confusion matrix at a fixed threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Positive predicted positive.
    pub tp: usize,
    /// Negative predicted positive.
    pub fp: usize,
    /// Negative predicted negative.
    pub tn: usize,
    /// Positive predicted negative.
    pub fn_: usize,
}

impl Confusion {
    /// Accuracy over all four cells.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }
}

/// Build the confusion matrix of probability predictions against labels
/// at `threshold`.
pub fn confusion(probs: &[f64], labels: &[bool], threshold: f64) -> Confusion {
    assert_eq!(probs.len(), labels.len());
    let mut c = Confusion::default();
    for (&p, &y) in probs.iter().zip(labels) {
        match (p >= threshold, y) {
            (true, true) => c.tp += 1,
            (true, false) => c.fp += 1,
            (false, false) => c.tn += 1,
            (false, true) => c.fn_ += 1,
        }
    }
    c
}

/// Classification accuracy at `threshold`.
pub fn accuracy(probs: &[f64], labels: &[bool], threshold: f64) -> f64 {
    confusion(probs, labels, threshold).accuracy()
}

/// Mean binary cross-entropy, with probabilities clamped away from 0/1
/// for numerical safety.
pub fn log_loss(probs: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(probs.len(), labels.len());
    if probs.is_empty() {
        return 0.0;
    }
    let eps = 1e-12;
    let total: f64 = probs
        .iter()
        .zip(labels)
        .map(|(&p, &y)| {
            let p = p.clamp(eps, 1.0 - eps);
            if y {
                -p.ln()
            } else {
                -(1.0 - p).ln()
            }
        })
        .sum();
    total / probs.len() as f64
}

/// ROC-AUC via the rank-sum (Mann–Whitney U) formulation, with midrank
/// handling for tied scores.
///
/// Returns 0.5 when either class is absent (no ranking information).
pub fn roc_auc(probs: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(probs.len(), labels.len());
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Sort indices by score ascending; assign midranks to ties.
    let mut idx: Vec<usize> = (0..probs.len()).collect();
    idx.sort_by(|&a, &b| probs[a].partial_cmp(&probs[b]).expect("finite scores"));
    let mut ranks = vec![0.0f64; probs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && probs[idx[j + 1]] == probs[idx[i]] {
            j += 1;
        }
        // Ranks are 1-based; midrank of positions i..=j.
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = midrank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, &y)| y)
        .map(|(&r, _)| r)
        .sum();
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let probs = [0.9, 0.8, 0.3, 0.1, 0.6];
        let labels = [true, false, true, false, true];
        let c = confusion(&probs, &labels, 0.5);
        assert_eq!(
            c,
            Confusion {
                tp: 2,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn degenerate_confusion_is_zero_not_nan() {
        let c = Confusion::default();
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn perfect_classifier() {
        let probs = [0.99, 0.98, 0.01, 0.02];
        let labels = [true, true, false, false];
        assert_eq!(accuracy(&probs, &labels, 0.5), 1.0);
        assert_eq!(roc_auc(&probs, &labels), 1.0);
        assert!(log_loss(&probs, &labels) < 0.03);
    }

    #[test]
    fn inverted_classifier() {
        let probs = [0.01, 0.02, 0.99, 0.98];
        let labels = [true, true, false, false];
        assert_eq!(accuracy(&probs, &labels, 0.5), 0.0);
        assert_eq!(roc_auc(&probs, &labels), 0.0);
    }

    #[test]
    fn auc_of_random_scores_is_half() {
        // Uniform interleaving: alternate labels with increasing scores.
        let probs: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let labels: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let auc = roc_auc(&probs, &labels);
        assert!((auc - 0.5).abs() < 0.02, "auc = {auc}");
    }

    #[test]
    fn auc_handles_ties_with_midranks() {
        // All scores tied: AUC must be exactly 0.5.
        let probs = [0.7; 10];
        let labels = [
            true, false, true, false, true, false, true, false, true, false,
        ];
        assert!((roc_auc(&probs, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(roc_auc(&[0.1, 0.9], &[true, true]), 0.5);
        assert_eq!(roc_auc(&[0.1, 0.9], &[false, false]), 0.5);
    }

    #[test]
    fn log_loss_of_half_is_ln2() {
        let probs = [0.5, 0.5];
        let labels = [true, false];
        assert!((log_loss(&probs, &labels) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn log_loss_clamps_extremes() {
        // p = 0 on a true label would be +inf without clamping.
        let l = log_loss(&[0.0], &[true]);
        assert!(l.is_finite());
        assert!(l > 20.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(log_loss(&[], &[]), 0.0);
        assert_eq!(accuracy(&[], &[], 0.5), 0.0);
    }
}
