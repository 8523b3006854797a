//! Lean speculation — the Uber 2025 follow-up optimizations.
//!
//! *CI at Scale: Lean, Green, and Fast* reports that most of
//! SubmitQueue's speculative builds are wasted on changes that were
//! never going to conflict, and recovers the cost with three
//! mechanisms layered on the unchanged always-green core:
//!
//! 1. **Probability-gated skipping** ([`LeanConfig::skip_threshold`]):
//!    when the learned conflict model scores a change's total conflict
//!    risk below a calibrated threshold, the planner requests no
//!    speculative patterns for it — only the plain mainline build.
//! 2. **Change prioritization** ([`LeanConfig::prioritize`]): the
//!    speculation budget is value-weighted by conflict risk, so risky
//!    changes surface their conflicts early while low-risk changes
//!    batch cheaply.
//! 3. **Bypass lanes** ([`LeanConfig::bypass`] + [`bypass_eligible`]):
//!    changes matching a low-risk footprint policy — or explicitly
//!    flagged as emergencies — land after a single non-speculative
//!    verify against the current mainline.
//!
//! None of the three touch the *gating* path: a change still commits
//! only through its realized build, so a wrong skip or bypass is
//! contradicted, aborted, and rebuilt — costing latency, never
//! greenness. That safety argument is audited, not assumed: every
//! lean benchmark cell asserts `audit_green` and zero wrongful
//! rejections (see `sq-bench`'s `bench_lean`).

use sq_obs::MetricsRegistry;
use sq_workload::ChangeSpec;

use crate::strategy::StrategyKind;

/// Empirical miss-rate budget used when calibrating the skip
/// threshold: among potentially-conflicting pairs scored below the
/// chosen cutoff, at most this fraction may really conflict. A missed
/// skip costs one contradicted build's latency, so a small budget
/// trades almost all of the waste reduction for near-zero added delay.
pub const SKIP_MISS_BUDGET: f64 = 0.05;

/// Which lean optimizations are active. All three are independently
/// toggleable so benchmarks can ablate them; the all-off
/// [`LeanConfig::baseline`] is decision-identical to plain SubmitQueue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeanConfig {
    /// Skip speculation for changes whose predicted conflict risk is
    /// strictly below this threshold (`None` = never skip).
    pub skip_threshold: Option<f64>,
    /// Weight the speculation budget by predicted conflict risk.
    pub prioritize: bool,
    /// Route policy-eligible changes through the bypass lane.
    pub bypass: bool,
}

impl LeanConfig {
    /// Everything off — byte-identical planning to SubmitQueue.
    pub fn baseline() -> LeanConfig {
        LeanConfig {
            skip_threshold: None,
            prioritize: false,
            bypass: false,
        }
    }

    /// Probability-gated skipping only.
    pub fn lean(threshold: f64) -> LeanConfig {
        LeanConfig {
            skip_threshold: Some(threshold),
            ..Self::baseline()
        }
    }

    /// Risk prioritization only.
    pub fn prioritized() -> LeanConfig {
        LeanConfig {
            prioritize: true,
            ..Self::baseline()
        }
    }

    /// Bypass lanes only.
    pub fn bypass_only() -> LeanConfig {
        LeanConfig {
            bypass: true,
            ..Self::baseline()
        }
    }

    /// All three optimizations on.
    pub fn all_on(threshold: f64) -> LeanConfig {
        LeanConfig {
            skip_threshold: Some(threshold),
            prioritize: true,
            bypass: true,
        }
    }

    /// Stable ablation-cell label ("baseline", "skip", "skip+bypass", …).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.skip_threshold.is_some() {
            parts.push("skip");
        }
        if self.prioritize {
            parts.push("prioritize");
        }
        if self.bypass {
            parts.push("bypass");
        }
        if parts.is_empty() {
            "baseline".to_string()
        } else {
            parts.join("+")
        }
    }

    /// The [`StrategyKind`] this configuration reports as: the lean
    /// kinds in precedence order (skip > prioritize > bypass), or
    /// SubmitQueue for the baseline.
    pub fn canonical_kind(&self) -> StrategyKind {
        if self.skip_threshold.is_some() {
            StrategyKind::LeanSpeculation
        } else if self.prioritize {
            StrategyKind::Prioritized
        } else if self.bypass {
            StrategyKind::BypassLane
        } else {
            StrategyKind::SubmitQueue
        }
    }
}

/// Most files a bypassed change may touch, and most build targets it
/// may affect: doc-sized, leaf-sized changes. Kept deliberately tight —
/// every bypassed change trades its whole speculation fan-out for one
/// front-of-queue verify, so a generous policy starves speculation for
/// the rest of the window.
const BYPASS_MAX_FILES: u32 = 2;
const BYPASS_MAX_AFFECTED_TARGETS: u32 = 2;

/// Is `c` eligible for the bypass lane? A pure, deterministic predicate
/// over what is observable at submission time. Emergencies always are;
/// everything else must have a small, graph-preserving, presubmit-clean
/// footprint confined to at most one repository part. Footprint-monotone
/// by construction — shrinking a change's footprint (fewer files, fewer
/// affected targets, fewer parts) never revokes eligibility.
pub fn bypass_eligible(c: &ChangeSpec) -> bool {
    if c.emergency {
        return true;
    }
    !c.alters_build_graph
        && c.presubmit_passed
        && c.files_changed <= BYPASS_MAX_FILES
        && c.affected_targets <= BYPASS_MAX_AFFECTED_TARGETS
        && c.parts.len() <= 1
}

/// Per-run accounting of lean decisions, resolved change by resolved
/// change: the planner counts the marks `strategy::Plan` put
/// on each change while it was pending. A *hit* is a skipped change
/// that landed without a single aborted build — the speculation we
/// didn't run would have been waste. A *miss* is a skipped change that
/// had a build contradicted before landing — the skip cost one rebuild
/// of latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeanReport {
    /// Resolved changes whose speculation was probability-gated away.
    pub skipped: u64,
    /// Skipped changes that resolved with zero aborted builds.
    pub skip_hits: u64,
    /// Skipped changes that had at least one build aborted.
    pub skip_misses: u64,
    /// Resolved changes routed through the bypass lane.
    pub bypassed: u64,
}

impl LeanReport {
    /// Export into a metrics registry. Idempotent across repeated
    /// exports of the same snapshot (watermarked totals, not `add`),
    /// per the workspace's periodic-export discipline.
    pub fn record_into(&self, m: &mut MetricsRegistry) {
        m.record_total("lean.skips", self.skipped);
        m.record_total("lean.skip_hits", self.skip_hits);
        m.record_total("lean.skip_misses", self.skip_misses);
        m.record_total("lean.bypassed", self.bypassed);
    }

    /// Observed miss rate among skips (0 when nothing was skipped).
    pub fn miss_rate(&self) -> f64 {
        if self.skipped == 0 {
            0.0
        } else {
            self.skip_misses as f64 / self.skipped as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_sim::{SimDuration, SimTime};
    use sq_workload::change::{DevId, PartId};
    use sq_workload::ChangeId;

    fn small_change() -> ChangeSpec {
        ChangeSpec {
            id: ChangeId(1),
            submit_time: SimTime::ZERO,
            build_duration: SimDuration::from_mins(30),
            developer: DevId(0),
            revision: 1,
            revision_attempt: 0,
            has_revert_plan: false,
            has_test_plan: true,
            files_changed: 2,
            lines_added: 10,
            lines_removed: 2,
            git_commits: 1,
            affected_targets: 2,
            presubmit_passed: true,
            parts: vec![PartId(4)],
            alters_build_graph: false,
            emergency: false,
            intrinsic_success: true,
            intrinsic_success_prob: 0.9,
        }
    }

    #[test]
    fn labels_and_canonical_kinds() {
        assert_eq!(LeanConfig::baseline().label(), "baseline");
        assert_eq!(LeanConfig::lean(0.05).label(), "skip");
        assert_eq!(LeanConfig::prioritized().label(), "prioritize");
        assert_eq!(LeanConfig::bypass_only().label(), "bypass");
        assert_eq!(LeanConfig::all_on(0.05).label(), "skip+prioritize+bypass");
        assert_eq!(
            LeanConfig::baseline().canonical_kind(),
            StrategyKind::SubmitQueue
        );
        assert_eq!(
            LeanConfig::lean(0.05).canonical_kind(),
            StrategyKind::LeanSpeculation
        );
        assert_eq!(
            LeanConfig::all_on(0.05).canonical_kind(),
            StrategyKind::LeanSpeculation
        );
        assert_eq!(
            LeanConfig::prioritized().canonical_kind(),
            StrategyKind::Prioritized
        );
        assert_eq!(
            LeanConfig::bypass_only().canonical_kind(),
            StrategyKind::BypassLane
        );
    }

    #[test]
    fn bypass_policy_is_footprint_monotone() {
        let base = small_change();
        assert!(bypass_eligible(&base));
        // Shrinking any footprint dimension preserves eligibility.
        for (files, targets) in [(1, 1), (0, 0), (2, 2)] {
            let mut c = base.clone();
            c.files_changed = files;
            c.affected_targets = targets;
            assert!(bypass_eligible(&c), "files={files} targets={targets}");
        }
        // Growing past the policy revokes it.
        let mut big = base.clone();
        big.files_changed = BYPASS_MAX_FILES + 1;
        assert!(!bypass_eligible(&big));
        let mut wide = base.clone();
        wide.affected_targets = BYPASS_MAX_AFFECTED_TARGETS + 1;
        assert!(!bypass_eligible(&wide));
        let mut multi = base.clone();
        multi.parts = vec![PartId(1), PartId(2)];
        assert!(!bypass_eligible(&multi));
        let mut graph = base.clone();
        graph.alters_build_graph = true;
        assert!(!bypass_eligible(&graph));
        let mut failed = base;
        failed.presubmit_passed = false;
        assert!(!bypass_eligible(&failed));
    }

    #[test]
    fn emergency_flag_overrides_the_footprint_policy() {
        let mut huge = small_change();
        huge.files_changed = 400;
        huge.affected_targets = 900;
        huge.alters_build_graph = true;
        huge.presubmit_passed = false;
        assert!(!bypass_eligible(&huge));
        huge.emergency = true;
        assert!(bypass_eligible(&huge));
    }

    #[test]
    fn report_export_is_idempotent() {
        let report = LeanReport {
            skipped: 12,
            skip_hits: 11,
            skip_misses: 1,
            bypassed: 4,
        };
        sq_obs::check::assert_idempotent_export(|m| report.record_into(m));
        assert!((report.miss_rate() - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(LeanReport::default().miss_rate(), 0.0);
    }
}
