//! # sq-ml — the prediction model substrate (paper Section 7.2)
//!
//! SubmitQueue trains two logistic-regression models in a supervised
//! manner: `predictSuccess(Cᵢ)` estimating `P_succ(Cᵢ)` and
//! `predictConflict(Cᵢ, Cⱼ)` estimating `P_conf(Cᵢ,Cⱼ)`. The paper used
//! scikit-learn offline with ~100 handpicked features, a 70/30
//! train/validation split, 97% accuracy, and recursive feature
//! elimination (RFE) to shrink the feature set.
//!
//! This crate reimplements that pipeline in Rust with no external ML
//! dependency:
//!
//! * [`dataset`] — feature matrices, labels, named columns, seeded
//!   train/test splits, and z-score standardization.
//! * [`logistic`] — binary logistic regression trained by mini-batch SGD
//!   with L2 regularization.
//! * [`metrics`] — accuracy, ROC-AUC, log-loss, confusion matrices.
//! * [`rfe`] — recursive feature elimination over standardized weights.
//! * [`boost`] — gradient-boosted decision stumps, the Section 10
//!   "future work" model, for head-to-head comparison.
//! * [`calibration`] — empirical threshold search for probability-gated
//!   decisions (lean speculation skipping).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boost;
pub mod calibration;
pub mod dataset;
pub mod logistic;
pub mod metrics;
pub mod rfe;

pub use boost::{BoostConfig, GradientBoostedStumps};
pub use calibration::Calibration;
pub use dataset::{Dataset, Scaler, Split};
pub use logistic::{LogisticRegression, TrainConfig};
pub use metrics::{accuracy, confusion, log_loss, roc_auc, Confusion};
pub use rfe::{recursive_feature_elimination, RfeReport};
