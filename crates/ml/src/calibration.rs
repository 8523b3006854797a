//! Score calibration for threshold-gated decisions.
//!
//! Lean speculation skips the speculative build for a change when its
//! predicted conflict probability falls below a threshold. Choosing
//! that threshold from the raw model scores is unsafe unless the
//! scores are *calibrated*: a score of 0.05 should mean roughly 5% of
//! such pairs really conflict. This module measures calibration on a
//! labeled holdout and picks the largest threshold whose *empirical*
//! miss rate — the fraction of below-threshold examples that are in
//! fact positive — stays within a caller-supplied budget. Everything
//! here is deterministic: same scores, same labels, same answer.

/// Calibration measured on a labeled score set.
///
/// Holds the `(score, label)` pairs sorted by score so empirical
/// queries (`empirical_rate_below`) are exact.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// `(score, positive)` pairs sorted ascending by score.
    sorted: Vec<(f64, bool)>,
}

impl Calibration {
    /// Measure calibration of `scores` against boolean `labels`
    /// (`true` = positive).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn fit(scores: &[f64], labels: &[bool]) -> Self {
        assert_eq!(scores.len(), labels.len(), "scores/labels must align");
        let mut sorted: Vec<(f64, bool)> =
            scores.iter().copied().zip(labels.iter().copied()).collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        Calibration { sorted }
    }

    /// Number of labeled examples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no examples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Exact empirical positive rate among examples whose score is
    /// strictly below `threshold`; `None` when no example qualifies.
    pub fn empirical_rate_below(&self, threshold: f64) -> Option<f64> {
        let below = self.sorted.partition_point(|(s, _)| *s < threshold);
        if below == 0 {
            return None;
        }
        let positives = self.sorted[..below].iter().filter(|(_, y)| *y).count();
        Some(positives as f64 / below as f64)
    }

    /// Largest threshold from `grid` whose empirical below-threshold
    /// positive rate stays ≤ `max_rate`. Thresholds that select no
    /// examples are accepted (they can't miss anything). Returns
    /// `None` when every candidate overshoots the budget.
    pub fn largest_threshold_with_rate_below(&self, grid: &[f64], max_rate: f64) -> Option<f64> {
        let mut best = None;
        for &t in grid {
            let ok = match self.empirical_rate_below(t) {
                None => true,
                Some(rate) => rate <= max_rate,
            };
            if ok && best.is_none_or(|b: f64| t > b) {
                best = Some(t);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> (Vec<f64>, Vec<bool>) {
        // 100 examples, score i/100; label positive iff score ≥ 0.5 —
        // a perfectly calibrated-at-the-extremes, sharp classifier.
        let scores: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let labels: Vec<bool> = scores.iter().map(|&s| s >= 0.5).collect();
        (scores, labels)
    }

    #[test]
    fn empirical_rate_is_exact() {
        let (s, y) = ramp();
        let c = Calibration::fit(&s, &y);
        assert_eq!(c.len(), 100);
        assert_eq!(c.empirical_rate_below(0.5), Some(0.0));
        // Below 0.6: 60 examples, 10 positives (0.50..0.59).
        let r = c.empirical_rate_below(0.6).unwrap();
        assert!((r - 10.0 / 60.0).abs() < 1e-12);
        assert_eq!(c.empirical_rate_below(0.0), None);
    }

    #[test]
    fn threshold_search_picks_largest_safe_cut() {
        let (s, y) = ramp();
        let c = Calibration::fit(&s, &y);
        let grid: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
        // Zero-miss budget: anything ≤ 0.5 is safe, 0.6 admits misses.
        assert_eq!(c.largest_threshold_with_rate_below(&grid, 0.0), Some(0.5));
        // A 20% budget tolerates the 0.6 cut (miss rate 1/6) but not 0.7.
        assert_eq!(c.largest_threshold_with_rate_below(&grid, 0.2), Some(0.6));
    }

    #[test]
    fn no_safe_threshold_yields_none() {
        let scores = vec![0.1, 0.2, 0.3];
        let labels = vec![true, true, true];
        let c = Calibration::fit(&scores, &labels);
        assert_eq!(c.largest_threshold_with_rate_below(&[0.5, 0.9], 0.1), None);
    }

    #[test]
    fn fit_is_deterministic() {
        let (s, y) = ramp();
        let a = Calibration::fit(&s, &y);
        let b = Calibration::fit(&s, &y);
        assert_eq!(
            a.largest_threshold_with_rate_below(&[0.1, 0.5], 0.0),
            b.largest_threshold_with_rate_below(&[0.1, 0.5], 0.0)
        );
    }
}
