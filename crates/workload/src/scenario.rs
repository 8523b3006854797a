//! Named scenario manifests.
//!
//! A scenario is a reproducible experiment: a platform preset plus
//! parameter overrides, an arrival-curve shape, an adversary plan, an
//! infra-fault rate and a worker fleet — everything needed to replay the
//! same adversarial day through every scheduling strategy. Manifests are
//! serde-backed so they can live in JSON next to the benchmark results
//! they produced, and [`ScenarioManifest::matrix`] is the single source
//! of truth for the named CI matrix
//! (`baseline`, `revert-storm`, `flaky-cluster`, `hub-touch`,
//! `diurnal-spike`) that `bench_scenarios` runs.

use crate::adversary::{AdversaryPlan, FlakyClusters, HubTouches, RevertStorm};
use crate::change::{PartId, Platform};
use crate::curves::ArrivalCurve;
use crate::generate::{Workload, WorkloadBuilder};
use crate::params::WorkloadParams;
use serde::{Deserialize, Serialize};

/// Optional overrides applied on top of the platform preset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParamOverrides {
    /// Ingestion rate in changes/hour.
    pub changes_per_hour: Option<f64>,
    /// Probability a potentially-conflicting pair really conflicts.
    pub pairwise_conflict_prob: Option<f64>,
    /// Zipf exponent of part popularity.
    pub part_zipf_s: Option<f64>,
    /// Mean number of parts one change touches.
    pub mean_parts_per_change: Option<f64>,
}

/// One named, fully-specified adversarial experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioManifest {
    /// Stable name (doubles as the JSON artifact file stem).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// Which platform preset the workload starts from.
    pub platform: Platform,
    /// Parameter overrides on top of the preset.
    pub overrides: ParamOverrides,
    /// Arrival-curve shape.
    pub arrival: ArrivalCurve,
    /// Adversary plan.
    pub adversary: AdversaryPlan,
    /// Replayed span in hours (sets the change count at the configured
    /// rate).
    pub duration_hours: f64,
    /// Per-attempt infra-fault probability handed to the planner's
    /// `SimFaults` (machine flakes — retried, never grounds for
    /// rejection; distinct from the adversary's flaky-test clusters).
    pub infra_fault_rate: f64,
    /// Worker fleet size.
    pub workers: usize,
    /// Shards the planner partitions the part space into (`0` = the
    /// classic single planning queue). Older manifests without the
    /// field deserialize as unsharded.
    #[serde(default)]
    pub shards: usize,
}

impl ScenarioManifest {
    /// The benign control: the paper's constant-rate replay.
    pub fn baseline() -> Self {
        ScenarioManifest {
            name: "baseline".into(),
            description: "constant-rate Poisson traffic, no adversary".into(),
            platform: Platform::Ios,
            overrides: ParamOverrides {
                changes_per_hour: Some(200.0),
                ..ParamOverrides::default()
            },
            arrival: ArrivalCurve::Constant,
            adversary: AdversaryPlan::none(),
            duration_hours: 1.0,
            infra_fault_rate: 0.03,
            workers: 120,
            shards: 0,
        }
    }

    /// Bursts of changes re-touching a recently landed change's parts.
    pub fn revert_storm() -> Self {
        ScenarioManifest {
            name: "revert-storm".into(),
            description: "bursts of follow-ups re-touching a recent change's parts".into(),
            adversary: AdversaryPlan {
                revert_storm: Some(RevertStorm {
                    epicenter_prob: 0.04,
                    burst: 6,
                    window_mins: 30.0,
                }),
                ..AdversaryPlan::none()
            },
            ..Self::baseline()
        }
    }

    /// Part-correlated flaky tests flowing through the ground truth.
    pub fn flaky_cluster() -> Self {
        ScenarioManifest {
            name: "flaky-cluster".into(),
            description: "part-correlated flaky tests on the three hottest parts".into(),
            adversary: AdversaryPlan {
                flaky: Some(FlakyClusters {
                    parts: vec![PartId(0), PartId(1), PartId(2)],
                    failure_prob: 0.3,
                }),
                ..AdversaryPlan::none()
            },
            ..Self::baseline()
        }
    }

    /// Changes that also touch the dependency-hub parts.
    pub fn hub_touch() -> Self {
        ScenarioManifest {
            name: "hub-touch".into(),
            description: "15% of changes also touch the three dependency-hub parts".into(),
            adversary: AdversaryPlan {
                hub: Some(HubTouches {
                    prob: 0.15,
                    span: 3,
                }),
                ..AdversaryPlan::none()
            },
            ..Self::baseline()
        }
    }

    /// Rush-hour spikes at 6× the mean rate.
    pub fn diurnal_spike() -> Self {
        ScenarioManifest {
            name: "diurnal-spike".into(),
            description: "arrival spikes at 6x the mean rate every half hour".into(),
            arrival: ArrivalCurve::Diurnal {
                peak_multiplier: 6.0,
                peak_fraction: 0.15,
                period_hours: 0.5,
            },
            ..Self::baseline()
        }
    }

    /// Sharded planning under an arbiter-hostile footprint mix: wide
    /// changes that straddle shards and hub touches that drag otherwise
    /// shard-local changes into the arbiter lane, so the cross-shard
    /// path (not the per-shard fast path) carries the load.
    pub fn shard_stress() -> Self {
        ScenarioManifest {
            name: "shard-stress".into(),
            description: "sharded planner with wide footprints forcing the arbiter lane".into(),
            overrides: ParamOverrides {
                changes_per_hour: Some(200.0),
                mean_parts_per_change: Some(3.0),
                ..ParamOverrides::default()
            },
            adversary: AdversaryPlan {
                hub: Some(HubTouches {
                    prob: 0.25,
                    span: 3,
                }),
                ..AdversaryPlan::none()
            },
            shards: 4,
            ..Self::baseline()
        }
    }

    /// The named CI matrix, in reporting order. `bench_scenarios`, the
    /// committed `BENCH_scenarios.json` and the smoke gate all iterate
    /// exactly this list.
    pub fn matrix() -> Vec<ScenarioManifest> {
        vec![
            Self::baseline(),
            Self::revert_storm(),
            Self::flaky_cluster(),
            Self::hub_touch(),
            Self::diurnal_spike(),
            Self::shard_stress(),
        ]
    }

    /// Resolve the platform preset plus overrides into validated
    /// workload parameters.
    pub fn params(&self) -> Result<WorkloadParams, String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".into());
        }
        if !(self.duration_hours.is_finite() && self.duration_hours > 0.0) {
            return Err("duration_hours must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.infra_fault_rate) {
            return Err("infra_fault_rate must be a probability".into());
        }
        if self.workers == 0 {
            return Err("workers must be positive".into());
        }
        let mut p = match self.platform {
            Platform::Ios => WorkloadParams::ios(),
            Platform::Android => WorkloadParams::android(),
            Platform::Backend => WorkloadParams::backend(),
        };
        if let Some(rate) = self.overrides.changes_per_hour {
            p.changes_per_hour = rate;
        }
        if let Some(q) = self.overrides.pairwise_conflict_prob {
            p.pairwise_conflict_prob = q;
        }
        if let Some(s) = self.overrides.part_zipf_s {
            p.part_zipf_s = s;
        }
        if let Some(m) = self.overrides.mean_parts_per_change {
            p.mean_parts_per_change = m;
        }
        p.arrival = self.arrival.clone();
        p.adversary = self.adversary.clone();
        p.validate()?;
        Ok(p)
    }

    /// Number of changes a full-duration replay generates.
    pub fn n_changes(&self) -> Result<usize, String> {
        let p = self.params()?;
        Ok((p.changes_per_hour * self.duration_hours).round() as usize)
    }

    /// Generate the scenario's workload. `n_changes` trims or extends
    /// the replay (pass [`ScenarioManifest::n_changes`] for the full
    /// configured duration; smoke runs pass something smaller).
    pub fn workload(&self, seed: u64, n_changes: usize) -> Result<Workload, String> {
        WorkloadBuilder::new(self.params()?)
            .seed(seed)
            .n_changes(n_changes)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_names_are_unique_and_stable() {
        let names: Vec<String> = ScenarioManifest::matrix()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "baseline",
                "revert-storm",
                "flaky-cluster",
                "hub-touch",
                "diurnal-spike",
                "shard-stress"
            ]
        );
    }

    #[test]
    fn every_matrix_scenario_validates_and_generates() {
        for m in ScenarioManifest::matrix() {
            let p = m.params().unwrap_or_else(|e| panic!("{}: {e}", m.name));
            assert!(p.changes_per_hour > 0.0);
            let n = m.n_changes().unwrap();
            assert!(n >= 100, "{}: n = {n}", m.name);
            let w = m.workload(1, 50).unwrap();
            assert_eq!(w.changes.len(), 50);
        }
    }

    #[test]
    fn invalid_manifests_are_rejected() {
        let mut m = ScenarioManifest::baseline();
        m.duration_hours = 0.0;
        assert!(m.params().is_err());
        let mut m = ScenarioManifest::baseline();
        m.infra_fault_rate = 1.5;
        assert!(m.params().is_err());
        let mut m = ScenarioManifest::baseline();
        m.workers = 0;
        assert!(m.params().is_err());
        let mut m = ScenarioManifest::baseline();
        m.name.clear();
        assert!(m.params().is_err());
        // Bad nested pieces surface through the same path.
        let mut m = ScenarioManifest::diurnal_spike();
        m.arrival = ArrivalCurve::Diurnal {
            peak_multiplier: 6.0,
            peak_fraction: 0.5,
            period_hours: 0.5,
        };
        assert!(m.params().is_err());
    }

    #[test]
    fn overrides_apply_on_top_of_the_preset() {
        let mut m = ScenarioManifest::baseline();
        m.platform = Platform::Backend;
        m.overrides.pairwise_conflict_prob = Some(0.08);
        m.overrides.part_zipf_s = Some(1.1);
        let p = m.params().unwrap();
        assert_eq!(p.platform, Platform::Backend);
        assert_eq!(p.pairwise_conflict_prob, 0.08);
        assert_eq!(p.part_zipf_s, 1.1);
        // Untouched knobs keep the preset value.
        assert_eq!(
            p.graph_change_fraction,
            WorkloadParams::backend().graph_change_fraction
        );
    }
}
