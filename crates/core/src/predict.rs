//! Outcome prediction — `P_succ(Cᵢ)` and `P_conf(Cᵢ, Cⱼ)`.
//!
//! "SubmitQueue uses the conventional regression model for predicting
//! probabilities of a change success or a change failure … by correctly
//! estimating `P_succ` and `P_conf`, SubmitQueue's performance becomes
//! close to the performance of a system with an oracle" (Section 4.2.1).
//!
//! The estimators:
//! * [`LearnedPredictor`] — the paper's production pair of logistic
//!   models, trained on historical changes (Section 7.2), including the
//!   dynamic speculation counters that dominated the learned weights.
//! * [`OraclePredictor`] — perfect foresight; the normalization baseline
//!   of Section 8.
//! * [`UniformPredictor`] — 50/50, which turns the speculation engine
//!   into the Speculate-all baseline.
//!
//! Developers come through a [`Roster`], which a [`Workload`] is.

use sq_ml::{Dataset, LogisticRegression, Scaler, TrainConfig};
use sq_sim::Xoshiro256StarStar;
use sq_workload::features::{
    conflict_features, success_features, CONFLICT_FEATURES, SUCCESS_FEATURES,
};
use sq_workload::{change::DevId, ChangeSpec, DevProfile, GroundTruth, Workload};

/// Who wrote a change: the developer profiles a predictor scores with,
/// the one thing it reads beyond the changes themselves.
pub trait Roster {
    /// The profile of developer `id`.
    fn developer(&self, id: DevId) -> &DevProfile;
}

impl Roster for Workload {
    fn developer(&self, id: DevId) -> &DevProfile {
        Workload::developer(self, id)
    }
}

/// Dynamic per-change counters the planner feeds back into prediction
/// ("the number of speculations that succeeded or failed were also
/// included for training" — Section 7.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationCounters {
    /// Speculative builds containing the change that succeeded.
    pub succeeded: u32,
    /// Speculative builds containing the change that failed.
    pub failed: u32,
}

/// A `P_succ`/`P_conf` estimator.
pub trait Predictor {
    /// Probability the change's build steps pass in isolation.
    fn p_success(&self, w: &dyn Roster, c: &ChangeSpec, counters: SpeculationCounters) -> f64;

    /// Probability the two changes really conflict, *given* the conflict
    /// analyzer flagged them as potentially conflicting.
    fn p_conflict(&self, w: &dyn Roster, a: &ChangeSpec, b: &ChangeSpec) -> f64;
}

/// Perfect foresight (Section 8's Oracle).
#[derive(Debug, Clone)]
pub struct OraclePredictor {
    truth: GroundTruth,
}

impl OraclePredictor {
    /// Build from the workload's ground truth.
    pub fn new(w: &Workload) -> Self {
        OraclePredictor { truth: w.truth() }
    }
}

impl Predictor for OraclePredictor {
    fn p_success(&self, _w: &dyn Roster, c: &ChangeSpec, _k: SpeculationCounters) -> f64 {
        if self.truth.succeeds_alone(c) {
            1.0
        } else {
            0.0
        }
    }

    fn p_conflict(&self, _w: &dyn Roster, a: &ChangeSpec, b: &ChangeSpec) -> f64 {
        if self.truth.real_conflict(a, b) {
            1.0
        } else {
            0.0
        }
    }
}

/// Fixed 50/50 odds — drives Speculate-all.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformPredictor;

impl Predictor for UniformPredictor {
    fn p_success(&self, _w: &dyn Roster, _c: &ChangeSpec, _k: SpeculationCounters) -> f64 {
        0.5
    }

    fn p_conflict(&self, _w: &dyn Roster, _a: &ChangeSpec, _b: &ChangeSpec) -> f64 {
        0.5
    }
}

/// Accuracy report from training (the Section 7.2 numbers).
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Validation accuracy of the success model (paper: 97%).
    pub success_accuracy: f64,
    /// Validation ROC-AUC of the success model.
    pub success_auc: f64,
    /// Validation accuracy of the conflict model.
    pub conflict_accuracy: f64,
    /// Success-model features ranked by |standardized weight|, strongest
    /// first — compare with the paper's reported top features.
    pub success_feature_ranking: Vec<String>,
}

/// The production predictor: two trained logistic models.
#[derive(Debug, Clone)]
pub struct LearnedPredictor {
    success_model: LogisticRegression,
    success_scaler: Scaler,
    conflict_model: LogisticRegression,
    conflict_scaler: Scaler,
}

impl LearnedPredictor {
    /// Train on a historical workload (the paper trained on changes that
    /// previously went through SubmitQueue, 70/30 split).
    ///
    /// The dynamic speculation counters in the history are synthesized
    /// from each change's eventual outcome — in production they come from
    /// earlier speculations of the same change and correlate with the
    /// outcome the same way.
    pub fn train(history: &Workload, seed: u64) -> (LearnedPredictor, TrainingReport) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let truth = history.truth();

        // ---- Success model ----
        let mut data = Dataset::new(SUCCESS_FEATURES.iter().map(|s| s.to_string()).collect());
        for c in &history.changes {
            let dev = history.developer(c.developer);
            // The label comes from the oracle, not the raw intrinsic
            // coin, so part-correlated flaky-test failures (adversarial
            // scenarios) are part of the signal the model learns.
            let label = truth.succeeds_alone(c);
            // Synthetic dynamic counters, correlated with the outcome.
            let (ok, fail) = if label {
                (rng.next_below(4) as u32 + 1, rng.next_below(2) as u32)
            } else {
                (rng.next_below(2) as u32, rng.next_below(4) as u32 + 1)
            };
            data.push(success_features(c, dev, ok, fail), label);
        }
        let split = data.split(0.7, &mut rng);
        let scaler = Scaler::fit(&split.train);
        let z_train = scaler.transform(&split.train);
        let z_test = scaler.transform(&split.test);
        let (success_model, _) = LogisticRegression::fit(&z_train, &TrainConfig::default());
        let success_accuracy = success_model.accuracy(&z_test);
        let success_auc = sq_ml::roc_auc(&success_model.predict(&z_test), z_test.labels());
        let ranking = success_model
            .importance_ranking()
            .into_iter()
            .map(|i| SUCCESS_FEATURES[i].to_string())
            .collect();

        // ---- Conflict model (potentially-conflicting pairs only) ----
        let mut cdata = Dataset::new(CONFLICT_FEATURES.iter().map(|s| s.to_string()).collect());
        let changes = &history.changes;
        for (i, a) in changes.iter().enumerate() {
            // Pair with a handful of later changes to bound the dataset.
            for b in changes[i + 1..].iter().take(12) {
                if !a.potentially_conflicts(b) {
                    continue;
                }
                let label = truth.real_conflict(a, b);
                cdata.push(
                    conflict_features(
                        a,
                        history.developer(a.developer),
                        b,
                        history.developer(b.developer),
                    ),
                    label,
                );
            }
        }
        let (conflict_model, conflict_scaler, conflict_accuracy) = if cdata.len() >= 50 {
            let csplit = cdata.split(0.7, &mut rng);
            let cscaler = Scaler::fit(&csplit.train);
            let zc_train = cscaler.transform(&csplit.train);
            let zc_test = cscaler.transform(&csplit.test);
            let (m, _) = LogisticRegression::fit(&zc_train, &TrainConfig::default());
            let acc = m.accuracy(&zc_test);
            (m, cscaler, acc)
        } else {
            // Degenerate history: fall back to a prior-rate model.
            (
                LogisticRegression::zeros(CONFLICT_FEATURES.len()),
                Scaler::fit(&cdata),
                0.0,
            )
        };

        (
            LearnedPredictor {
                success_model,
                success_scaler: scaler,
                conflict_model,
                conflict_scaler,
            },
            TrainingReport {
                success_accuracy,
                success_auc,
                conflict_accuracy,
                success_feature_ranking: ranking,
            },
        )
    }

    /// Calibrate a lean-speculation skip threshold against `history`:
    /// the largest conflict-probability cutoff whose *empirical* miss
    /// rate — the fraction of potentially-conflicting pairs scored
    /// below the cutoff that really conflict — stays within
    /// `max_miss_rate`. Scores come from this predictor over the same
    /// pair enumeration used at training time, so the threshold is
    /// calibrated in the score space the planner will consult.
    ///
    /// Returns `0.0` (never skip) when no cutoff on the grid is safe —
    /// a deliberately conservative fallback: lean speculation degrades
    /// to plain SubmitQueue rather than guessing.
    pub fn calibrate_skip_threshold(&self, history: &Workload, max_miss_rate: f64) -> f64 {
        let truth = history.truth();
        let changes = &history.changes;
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for (i, a) in changes.iter().enumerate() {
            for b in changes[i + 1..].iter().take(12) {
                if !a.potentially_conflicts(b) {
                    continue;
                }
                scores.push(self.p_conflict(history, a, b));
                labels.push(truth.real_conflict(a, b));
            }
        }
        if scores.len() < 50 {
            return 0.0; // too little evidence to gate anything
        }
        let calibration = sq_ml::Calibration::fit(&scores, &labels);
        // Candidate cutoffs span the *low-risk* regime only: skipping is
        // for changes the model is confident about, so the grid tops out
        // well below coin-flip odds. (The empirical-rate curve goes
        // nearly flat above this range — few pairs score there — and an
        // unbounded grid would let the budget leap to absurd cutoffs on
        // tail noise.)
        const GRID: [f64; 6] = [0.005, 0.01, 0.02, 0.03, 0.05, 0.08];
        calibration
            .largest_threshold_with_rate_below(&GRID, max_miss_rate)
            .unwrap_or(0.0)
    }
}

impl Predictor for LearnedPredictor {
    fn p_success(&self, w: &dyn Roster, c: &ChangeSpec, k: SpeculationCounters) -> f64 {
        let dev = w.developer(c.developer);
        let mut row = success_features(c, dev, k.succeeded, k.failed);
        self.success_scaler.transform_row(&mut row);
        self.success_model.predict_row(&row)
    }

    fn p_conflict(&self, w: &dyn Roster, a: &ChangeSpec, b: &ChangeSpec) -> f64 {
        let mut row = conflict_features(a, w.developer(a.developer), b, w.developer(b.developer));
        self.conflict_scaler.transform_row(&mut row);
        self.conflict_model.predict_row(&row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn workload(n: usize, seed: u64) -> Workload {
        WorkloadBuilder::new(WorkloadParams::ios())
            .seed(seed)
            .n_changes(n)
            .build()
            .unwrap()
    }

    #[test]
    fn oracle_is_perfect() {
        let w = workload(300, 1);
        let p = OraclePredictor::new(&w);
        let truth = w.truth();
        for c in &w.changes {
            let prob = p.p_success(&w, c, SpeculationCounters::default());
            assert_eq!(prob, if truth.succeeds_alone(c) { 1.0 } else { 0.0 });
        }
        for pair in w.changes.windows(2) {
            let prob = p.p_conflict(&w, &pair[0], &pair[1]);
            assert_eq!(
                prob,
                if truth.real_conflict(&pair[0], &pair[1]) {
                    1.0
                } else {
                    0.0
                }
            );
        }
    }

    #[test]
    fn uniform_constants() {
        let w = workload(10, 2);
        let c = &w.changes[0];
        let k = SpeculationCounters::default();
        assert_eq!(UniformPredictor.p_success(&w, c, k), 0.5);
        assert_eq!(UniformPredictor.p_conflict(&w, c, &w.changes[1]), 0.5);
    }

    #[test]
    fn learned_model_reaches_paper_accuracy_regime() {
        let history = workload(12_000, 3);
        let (_, report) = LearnedPredictor::train(&history, 7);
        // The paper reports 97%; the synthetic feature signal is designed
        // to support ≥90%.
        assert!(
            report.success_accuracy > 0.90,
            "accuracy = {}",
            report.success_accuracy
        );
        assert!(report.success_auc > 0.9, "auc = {}", report.success_auc);
    }

    #[test]
    fn learned_model_ranks_dynamic_counters_highly() {
        // Paper: "number of succeeded speculations" had the highest
        // positive correlation. Our synthetic counters mirror that.
        let history = workload(12_000, 5);
        let (_, report) = LearnedPredictor::train(&history, 7);
        let top3 = &report.success_feature_ranking[..3];
        assert!(
            top3.iter().any(|f| f.starts_with("speculations_")),
            "top3 = {top3:?}"
        );
    }

    #[test]
    fn learned_predictions_are_probabilities_and_responsive() {
        let history = workload(8_000, 11);
        let (predictor, _) = LearnedPredictor::train(&history, 7);
        let fresh = workload(200, 13);
        let mut sum_ok = 0.0;
        let mut n_ok = 0;
        let mut sum_bad = 0.0;
        let mut n_bad = 0;
        for c in &fresh.changes {
            let p = predictor.p_success(&fresh, c, SpeculationCounters::default());
            assert!((0.0..=1.0).contains(&p));
            if c.intrinsic_success {
                sum_ok += p;
                n_ok += 1;
            } else {
                sum_bad += p;
                n_bad += 1;
            }
        }
        if n_ok > 10 && n_bad > 10 {
            assert!(
                sum_ok / n_ok as f64 > sum_bad / n_bad as f64,
                "model should separate good from bad changes"
            );
        }
        // Dynamic counters move the estimate in the right direction.
        let c = &fresh.changes[0];
        let p_neutral = predictor.p_success(&fresh, c, SpeculationCounters::default());
        let p_good = predictor.p_success(
            &fresh,
            c,
            SpeculationCounters {
                succeeded: 5,
                failed: 0,
            },
        );
        let p_bad = predictor.p_success(
            &fresh,
            c,
            SpeculationCounters {
                succeeded: 0,
                failed: 5,
            },
        );
        assert!(p_good > p_neutral, "succeeded speculations raise P_succ");
        assert!(p_bad < p_neutral, "failed speculations lower P_succ");
    }

    #[test]
    fn calibrated_skip_threshold_is_deterministic_and_bounded() {
        let history = workload(4_000, 17);
        let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
        let t1 = predictor.calibrate_skip_threshold(&history, 0.02);
        let t2 = predictor.calibrate_skip_threshold(&history, 0.02);
        assert_eq!(t1, t2, "calibration must be deterministic");
        assert!((0.0..=0.5).contains(&t1));
        // Loosening the miss budget never tightens the threshold.
        let loose = predictor.calibrate_skip_threshold(&history, 0.2);
        assert!(loose >= t1);
    }
}
