//! Binary logistic regression trained with mini-batch SGD.
//!
//! The paper: "SubmitQueue uses the conventional regression model for
//! predicting probabilities of a change success or a change failure"
//! (Section 4.2.1) trained offline with scikit-learn (Section 7.2). The
//! model here is the same mathematical object — `P(y=1|x) = σ(w·x + b)`
//! minimizing L2-regularized log-loss — with a plain SGD optimizer.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};
use sq_sim::Xoshiro256StarStar;

/// The numerically-stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 regularization strength (applied per batch, scaled by lr).
    pub l2: f64,
    /// RNG seed for batch shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.1,
            epochs: 60,
            batch_size: 32,
            l2: 1e-4,
            seed: 42,
        }
    }
}

/// A trained (or in-training) logistic model.
///
/// ```
/// use sq_ml::{Dataset, LogisticRegression, TrainConfig};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in -50..50 {
///     data.push(vec![i as f64], i > 0);
/// }
/// let (model, _losses) = LogisticRegression::fit(&data, &TrainConfig::default());
/// assert!(model.predict_row(&[10.0]) > 0.9);
/// assert!(model.predict_row(&[-10.0]) < 0.1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// An untrained model of the given dimensionality (all-zero weights
    /// ⇒ predicts 0.5 everywhere).
    pub fn zeros(n_features: usize) -> Self {
        LogisticRegression {
            weights: vec![0.0; n_features],
            bias: 0.0,
        }
    }

    /// Fit on a dataset. Returns the per-epoch training log-loss so
    /// callers can check convergence.
    ///
    /// # Panics
    /// Panics on an empty dataset or zero batch size.
    pub fn fit(data: &Dataset, config: &TrainConfig) -> (LogisticRegression, Vec<f64>) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(config.batch_size > 0);
        let d = data.n_features();
        let mut model = LogisticRegression::zeros(d);
        let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for batch in order.chunks(config.batch_size) {
                let mut grad_w = vec![0.0; d];
                let mut grad_b = 0.0;
                for &i in batch {
                    let row = &data.rows()[i];
                    let y = if data.labels()[i] { 1.0 } else { 0.0 };
                    let p = model.predict_row(row);
                    let err = p - y;
                    for (g, &x) in grad_w.iter_mut().zip(row) {
                        *g += err * x;
                    }
                    grad_b += err;
                }
                let scale = config.learning_rate / batch.len() as f64;
                for (w, g) in model.weights.iter_mut().zip(&grad_w) {
                    *w -= scale * g + config.learning_rate * config.l2 * *w;
                }
                model.bias -= scale * grad_b;
            }
            losses.push(model.log_loss(data));
        }
        (model, losses)
    }

    /// `P(y = 1 | x)` for one feature row.
    ///
    /// # Panics
    /// Panics if the row width does not match the model.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.weights.len(), "feature width mismatch");
        let z: f64 = self
            .weights
            .iter()
            .zip(row)
            .map(|(w, x)| w * x)
            .sum::<f64>()
            + self.bias;
        sigmoid(z)
    }

    /// Predicted probabilities for every row of a dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        data.rows().iter().map(|r| self.predict_row(r)).collect()
    }

    /// Mean log-loss over a dataset.
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        crate::metrics::log_loss(&self.predict(data), data.labels())
    }

    /// Classification accuracy at threshold 0.5.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        crate::metrics::accuracy(&self.predict(data), data.labels(), 0.5)
    }

    /// Feature indices ranked by |weight| descending — the importance
    /// ranking RFE and the Section 7.2 feature report use. Only
    /// meaningful on standardized features.
    pub fn importance_ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| {
            self.weights[b]
                .abs()
                .partial_cmp(&self.weights[a].abs())
                .expect("weights are finite")
                .then(a.cmp(&b))
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Scaler;

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999999);
        assert!(sigmoid(-30.0) < 1e-6);
        // Stable at extremes.
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        // Symmetry σ(-z) = 1 - σ(z).
        for z in [-3.0, -0.5, 0.7, 2.2] {
            assert!((sigmoid(-z) - (1.0 - sigmoid(z))).abs() < 1e-12);
        }
    }

    /// A linearly separable dataset: label = (2x₀ − x₁ > 0), plus noise
    /// features.
    fn separable(n: usize, seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["signal0".into(), "signal1".into(), "noise".into()]);
        for _ in 0..n {
            let x0 = rng.next_f64() * 4.0 - 2.0;
            let x1 = rng.next_f64() * 4.0 - 2.0;
            let noise = rng.next_f64();
            d.push(vec![x0, x1, noise], 2.0 * x0 - x1 > 0.0);
        }
        d
    }

    #[test]
    fn learns_a_separable_problem() {
        let data = separable(2000, 1);
        let (model, losses) = LogisticRegression::fit(&data, &TrainConfig::default());
        assert!(
            model.accuracy(&data) > 0.97,
            "acc = {}",
            model.accuracy(&data)
        );
        // Loss decreased from the first epoch to the last.
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn generalizes_to_unseen_data() {
        let train = separable(2000, 2);
        let test = separable(500, 3);
        let (model, _) = LogisticRegression::fit(&train, &TrainConfig::default());
        assert!(
            model.accuracy(&test) > 0.95,
            "acc = {}",
            model.accuracy(&test)
        );
    }

    #[test]
    fn weight_signs_match_the_generating_rule() {
        let data = separable(2000, 4);
        let scaler = Scaler::fit(&data);
        let z = scaler.transform(&data);
        let (model, _) = LogisticRegression::fit(&z, &TrainConfig::default());
        let w = &model.weights;
        assert!(w[0] > 0.0, "x0 enters positively");
        assert!(w[1] < 0.0, "x1 enters negatively");
        // On standardized features, the noise weight is far smaller.
        assert!(w[2].abs() < w[0].abs() / 5.0, "weights = {w:?}");
        // Importance ranking puts the two signals first.
        let ranking = model.importance_ranking();
        assert_eq!(&ranking[2..], &[2]);
    }

    #[test]
    fn untrained_model_predicts_half() {
        let m = LogisticRegression::zeros(3);
        assert_eq!(m.predict_row(&[1.0, -4.0, 9.0]), 0.5);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = separable(500, 5);
        let (m1, _) = LogisticRegression::fit(&data, &TrainConfig::default());
        let (m2, _) = LogisticRegression::fit(&data, &TrainConfig::default());
        assert_eq!(m1.weights, m2.weights);
        assert_eq!(m1.bias, m2.bias);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_rejected() {
        let d = Dataset::new(vec!["a".into()]);
        LogisticRegression::fit(&d, &TrainConfig::default());
    }

    #[test]
    #[should_panic]
    fn width_mismatch_rejected() {
        let m = LogisticRegression::zeros(2);
        m.predict_row(&[1.0]);
    }

    #[test]
    fn l2_shrinks_weights() {
        let data = separable(1000, 6);
        let weak = TrainConfig {
            l2: 0.0,
            ..TrainConfig::default()
        };
        let strong = TrainConfig {
            l2: 0.5,
            ..TrainConfig::default()
        };
        let (m_weak, _) = LogisticRegression::fit(&data, &weak);
        let (m_strong, _) = LogisticRegression::fit(&data, &strong);
        let norm =
            |m: &LogisticRegression| -> f64 { m.weights.iter().map(|w| w * w).sum::<f64>().sqrt() };
        assert!(norm(&m_strong) < norm(&m_weak));
    }
}
