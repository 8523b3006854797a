//! Adversarial workload generators.
//!
//! The paper's evaluation replays benign Poisson traffic; a submit queue
//! earns its keep on the pathological days. This module layers three
//! named adversaries on top of [`crate::generate`]'s statistical model —
//! each one a deterministic *post-pass* over the generated change stream
//! driven by its own RNG split, so enabling an adversary never perturbs
//! the baseline trace drawn from the same seed:
//!
//! * [`RevertStorm`] — bursts of follow-up changes touching the same
//!   parts as a recently landed "epicenter" change (mass reverts and
//!   fix-forwards after a bad landing), which spikes the number of
//!   potentially-conflicting concurrent changes (Figure 1's x-axis).
//! * [`FlakyClusters`] — test-level nondeterminism *correlated with
//!   specific parts*. Unlike `sq-exec`'s infra faults (machine-level,
//!   retried, never grounds for rejection), these failures flow through
//!   [`crate::truth::GroundTruth::succeeds_alone`]: a flake-afflicted
//!   change genuinely fails its build steps, so rejecting it is
//!   *justified* and the learned predictor can pick up the signal from
//!   the part-correlated features.
//! * [`HubTouches`] — changes that also touch a small set of
//!   dependency-hub parts (the Zipf-hottest ranks), making them
//!   potentially conflict with nearly everything in flight.

use crate::change::PartId;
use serde::{Deserialize, Serialize};

/// A burst of changes re-touching a recent change's parts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RevertStorm {
    /// Probability that any given change becomes a storm epicenter.
    pub epicenter_prob: f64,
    /// Number of subsequent changes pulled into the storm.
    pub burst: usize,
    /// Only changes submitted within this window of the epicenter are
    /// pulled in (at high rates the burst cap binds first).
    pub window_mins: f64,
}

impl RevertStorm {
    /// Sanity-check the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.epicenter_prob) {
            return Err("revert_storm.epicenter_prob must be a probability".into());
        }
        if self.burst == 0 {
            return Err("revert_storm.burst must be positive".into());
        }
        if !(self.window_mins.is_finite() && self.window_mins > 0.0) {
            return Err("revert_storm.window_mins must be positive".into());
        }
        Ok(())
    }
}

/// Part-correlated test flakiness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlakyClusters {
    /// The afflicted parts (low ids are the Zipf-hottest, so afflicting
    /// them exposes many changes).
    pub parts: Vec<PartId>,
    /// Per-(change, afflicted part) probability that the flaky tests
    /// fail the change's build steps.
    pub failure_prob: f64,
}

impl FlakyClusters {
    /// Sanity-check the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.parts.is_empty() {
            return Err("flaky.parts must name at least one part".into());
        }
        if !(0.0..=1.0).contains(&self.failure_prob) {
            return Err("flaky.failure_prob must be a probability".into());
        }
        Ok(())
    }

    /// Is this part afflicted?
    pub fn afflicts(&self, part: PartId) -> bool {
        self.parts.contains(&part)
    }
}

/// Changes that additionally touch dependency-hub parts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HubTouches {
    /// Probability that a change also touches the hub.
    pub prob: f64,
    /// The hub is parts `0..span` — the hottest Zipf ranks, which the
    /// organic footprint distribution already concentrates on.
    pub span: usize,
}

impl HubTouches {
    /// Sanity-check the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.prob) {
            return Err("hub.prob must be a probability".into());
        }
        if self.span == 0 {
            return Err("hub.span must be positive".into());
        }
        Ok(())
    }
}

/// Which adversaries a workload enables (all off by default).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Revert-storm bursts.
    pub revert_storm: Option<RevertStorm>,
    /// Part-correlated flaky tests.
    pub flaky: Option<FlakyClusters>,
    /// Dependency-hub touches.
    pub hub: Option<HubTouches>,
}

impl AdversaryPlan {
    /// The benign plan: no adversaries.
    pub fn none() -> Self {
        Self::default()
    }

    /// Sanity-check every enabled adversary.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(s) = &self.revert_storm {
            s.validate()?;
        }
        if let Some(f) = &self.flaky {
            f.validate()?;
        }
        if let Some(h) = &self.hub {
            h.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_benign_plan_validates() {
        assert!(AdversaryPlan::none().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let plan = AdversaryPlan {
            revert_storm: Some(RevertStorm {
                epicenter_prob: 1.5,
                burst: 4,
                window_mins: 30.0,
            }),
            ..AdversaryPlan::none()
        };
        assert!(plan.validate().is_err());
        let plan = AdversaryPlan {
            flaky: Some(FlakyClusters {
                parts: vec![],
                failure_prob: 0.3,
            }),
            ..AdversaryPlan::none()
        };
        assert!(plan.validate().is_err());
        let plan = AdversaryPlan {
            hub: Some(HubTouches { prob: 0.2, span: 0 }),
            ..AdversaryPlan::none()
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn round_trips_through_serde() {
        let plan = AdversaryPlan {
            revert_storm: Some(RevertStorm {
                epicenter_prob: 0.05,
                burst: 6,
                window_mins: 30.0,
            }),
            flaky: Some(FlakyClusters {
                parts: vec![PartId(0), PartId(3)],
                failure_prob: 0.35,
            }),
            hub: Some(HubTouches { prob: 0.2, span: 3 }),
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: AdversaryPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // A benign plan round-trips too (Options as nulls).
        let none = AdversaryPlan::none();
        let back: AdversaryPlan = serde_json::from_str(&serde_json::to_string(&none).unwrap())
            .expect("benign plan parses");
        assert_eq!(back, none);
    }
}
