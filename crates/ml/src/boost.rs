//! Gradient-boosted decision stumps.
//!
//! Paper Section 10 ("Other ML Techniques"): "exploring other ML
//! techniques such as Gradient Boosting for our prediction model remains
//! an interesting future work." This module implements that future work:
//! gradient boosting of depth-1 regression trees (stumps) on the
//! logistic loss — the standard binary-classification GBM — so the
//! benchmark harness can compare it against the production logistic
//! model on the same features.
//!
//! Algorithm (Friedman's gradient boosting, logistic deviance):
//! start from the log-odds prior; each round fits a stump to the
//! negative gradient (residuals `y − p`), with Newton-step leaf values
//! `Σr / Σp(1−p)`, scaled by a learning rate.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// One decision stump: a single (feature, threshold) split with a value
/// per side.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stump {
    feature: usize,
    threshold: f64,
    left_value: f64,  // x[feature] <= threshold
    right_value: f64, // x[feature] > threshold
}

impl Stump {
    fn predict(&self, row: &[f64]) -> f64 {
        if row[self.feature] <= self.threshold {
            self.left_value
        } else {
            self.right_value
        }
    }
}

/// Boosting hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoostConfig {
    /// Number of boosting rounds (stumps).
    pub rounds: usize,
    /// Shrinkage per round.
    pub learning_rate: f64,
    /// Candidate thresholds per feature (quantile grid size).
    pub candidate_splits: usize,
}

impl Default for BoostConfig {
    fn default() -> Self {
        BoostConfig {
            rounds: 150,
            learning_rate: 0.2,
            candidate_splits: 16,
        }
    }
}

/// A trained gradient-boosted stump ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoostedStumps {
    prior: f64,
    stumps: Vec<Stump>,
    learning_rate: f64,
}

impl GradientBoostedStumps {
    /// Fit on a dataset. Returns the model and the per-round training
    /// log-loss curve.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset, config: &BoostConfig) -> (GradientBoostedStumps, Vec<f64>) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n = data.len();
        let d = data.n_features();
        let ys: Vec<f64> = data
            .labels()
            .iter()
            .map(|&l| if l { 1.0 } else { 0.0 })
            .collect();
        // Prior: log-odds of the base rate (clamped away from degeneracy).
        let pos = ys.iter().sum::<f64>() / n as f64;
        let pos = pos.clamp(1e-6, 1.0 - 1e-6);
        let prior = (pos / (1.0 - pos)).ln();
        let mut scores = vec![prior; n];

        // Candidate thresholds: per-feature quantile grid, precomputed.
        let mut candidates: Vec<Vec<f64>> = Vec::with_capacity(d);
        for f in 0..d {
            let mut vals: Vec<f64> = data.rows().iter().map(|r| r[f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            vals.dedup();
            let mut cands = Vec::new();
            if vals.len() > 1 {
                let k = config.candidate_splits.min(vals.len() - 1);
                for i in 1..=k {
                    let idx = i * (vals.len() - 1) / (k + 1);
                    let t = (vals[idx] + vals[idx + 1]) / 2.0;
                    if cands.last() != Some(&t) {
                        cands.push(t);
                    }
                }
            }
            candidates.push(cands);
        }

        let mut stumps = Vec::with_capacity(config.rounds);
        let mut losses = Vec::with_capacity(config.rounds);
        for _ in 0..config.rounds {
            // Gradient and Hessian of the logistic loss.
            let ps: Vec<f64> = scores
                .iter()
                .map(|&s| crate::logistic::sigmoid(s))
                .collect();
            let grad: Vec<f64> = ys.iter().zip(&ps).map(|(y, p)| y - p).collect();
            let hess: Vec<f64> = ps.iter().map(|p| (p * (1.0 - p)).max(1e-12)).collect();

            // Best stump: maximize the Newton gain over all candidate splits.
            let mut best: Option<(f64, Stump)> = None;
            for f in 0..d {
                for &t in &candidates[f] {
                    let mut gl = 0.0;
                    let mut hl = 0.0;
                    let mut gr = 0.0;
                    let mut hr = 0.0;
                    for (row, (&g, &h)) in data.rows().iter().zip(grad.iter().zip(&hess)) {
                        if row[f] <= t {
                            gl += g;
                            hl += h;
                        } else {
                            gr += g;
                            hr += h;
                        }
                    }
                    if hl < 1e-9 || hr < 1e-9 {
                        continue;
                    }
                    let gain = gl * gl / hl + gr * gr / hr;
                    if best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                        best = Some((
                            gain,
                            Stump {
                                feature: f,
                                threshold: t,
                                left_value: gl / hl,
                                right_value: gr / hr,
                            },
                        ));
                    }
                }
            }
            let Some((_, stump)) = best else { break };
            for (score, row) in scores.iter_mut().zip(data.rows()) {
                *score += config.learning_rate * stump.predict(row);
            }
            stumps.push(stump);
            // Track training loss.
            let probs: Vec<f64> = scores
                .iter()
                .map(|&s| crate::logistic::sigmoid(s))
                .collect();
            losses.push(crate::metrics::log_loss(&probs, data.labels()));
        }
        (
            GradientBoostedStumps {
                prior,
                stumps,
                learning_rate: config.learning_rate,
            },
            losses,
        )
    }

    /// `P(y = 1 | x)` for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let score = self.prior
            + self.learning_rate * self.stumps.iter().map(|s| s.predict(row)).sum::<f64>();
        crate::logistic::sigmoid(score)
    }

    /// Predicted probabilities for a dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        data.rows().iter().map(|r| self.predict_row(r)).collect()
    }

    /// Accuracy at threshold 0.5.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        crate::metrics::accuracy(&self.predict(data), data.labels(), 0.5)
    }

    /// Number of stumps in the ensemble.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.stumps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_sim::Xoshiro256StarStar;

    /// A non-monotone additive concept a linear model cannot express:
    /// label = |f0| > 0.5 (a band), plus noise features. Boosted stumps
    /// represent it with two splits on f0; a linear separator scores
    /// chance level.
    fn band_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut d = Dataset::new((0..4).map(|i| format!("f{i}")).collect());
        for _ in 0..n {
            let row: Vec<f64> = (0..4).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let label = row[0].abs() > 0.5;
            d.push(row, label);
        }
        d
    }

    fn linear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut d = Dataset::new((0..3).map(|i| format!("f{i}")).collect());
        for _ in 0..n {
            let row: Vec<f64> = (0..3).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let label = 2.0 * row[0] - row[1] > 0.0;
            d.push(row, label);
        }
        d
    }

    #[test]
    fn learns_linear_concepts() {
        let train = linear_dataset(2000, 1);
        let test = linear_dataset(500, 2);
        let (model, losses) = GradientBoostedStumps::fit(&train, &BoostConfig::default());
        assert!(
            model.accuracy(&test) > 0.93,
            "acc = {}",
            model.accuracy(&test)
        );
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn learns_nonlinear_band_where_logistic_cannot() {
        let train = band_dataset(3000, 3);
        let test = band_dataset(800, 4);
        let (gbm, _) = GradientBoostedStumps::fit(&train, &BoostConfig::default());
        let (logit, _) = crate::logistic::LogisticRegression::fit(
            &train,
            &crate::logistic::TrainConfig::default(),
        );
        let gbm_acc = gbm.accuracy(&test);
        let logit_acc = logit.accuracy(&test);
        assert!(gbm_acc > 0.9, "gbm acc = {gbm_acc}");
        assert!(
            logit_acc < 0.7,
            "a linear model cannot express a band, acc = {logit_acc}"
        );
        assert!(gbm_acc > logit_acc + 0.2);
    }

    #[test]
    fn predictions_are_probabilities() {
        let train = linear_dataset(500, 5);
        let (model, _) = GradientBoostedStumps::fit(&train, &BoostConfig::default());
        for p in model.predict(&train) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn constant_labels_yield_prior_only_model() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            d.push(vec![i as f64], true);
        }
        let (model, _) = GradientBoostedStumps::fit(&d, &BoostConfig::default());
        // All-positive labels: residuals ~0; predictions near 1.
        for p in model.predict(&d) {
            assert!(p > 0.95, "p = {p}");
        }
    }

    #[test]
    fn deterministic_fit() {
        let train = linear_dataset(500, 9);
        let (m1, _) = GradientBoostedStumps::fit(&train, &BoostConfig::default());
        let (m2, _) = GradientBoostedStumps::fit(&train, &BoostConfig::default());
        let p1 = m1.predict(&train);
        let p2 = m2.predict(&train);
        assert_eq!(p1, p2);
        assert!(!m1.stumps.is_empty());
        assert!(m1.len() <= BoostConfig::default().rounds);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_rejected() {
        let d = Dataset::new(vec!["x".into()]);
        GradientBoostedStumps::fit(&d, &BoostConfig::default());
    }
}
