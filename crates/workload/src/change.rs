//! Change, revision and developer records.
//!
//! Mirrors the paper's data model (Section 3.1): a *revision* is a
//! container for *changes*; a change is a code patch plus build steps and
//! metadata. The metadata fields here are exactly the feature groups of
//! Section 7.2 (change, revision, developer) so the ML pipeline can be
//! reproduced.

use serde::{Deserialize, Serialize};
use sq_sim::{SimDuration, SimTime};
use std::fmt;

/// Which monorepo a workload models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// The iOS monorepo (Mac Mini build fleet, UI tests).
    Ios,
    /// The Android monorepo.
    Android,
    /// The backend monorepo.
    Backend,
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Platform::Ios => f.write_str("iOS"),
            Platform::Android => f.write_str("Android"),
            Platform::Backend => f.write_str("Backend"),
        }
    }
}

/// Identifier of a change, dense and ordered by submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChangeId(pub u64);

impl fmt::Display for ChangeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Identifier of a logical repository part (hot-spot category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PartId(pub u32);

/// Identifier of a developer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DevId(pub u32);

/// A developer profile — the Section 7.2 "developer" feature group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DevProfile {
    /// Identifier.
    pub id: DevId,
    /// Experience in [0, 1]; experienced developers "do due diligence
    /// before landing their changes" (paper).
    pub experience: f64,
    /// Employment length in months.
    pub tenure_months: f64,
    /// Team index; same-team developers "conflict with each other more
    /// often" (paper).
    pub team: u32,
    /// Whether this developer works on fragile code paths (core
    /// libraries) — raises failure odds.
    pub fragile_code_paths: bool,
}

/// One submitted change — everything observable at submission time, plus
/// the (hidden) ground-truth outcome used by the simulation oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChangeSpec {
    /// Dense id, ordered by submission time.
    pub id: ChangeId,
    /// Submission (enqueue) time.
    pub submit_time: SimTime,
    /// Duration of this change's full build (all steps).
    pub build_duration: SimDuration,
    /// The submitting developer.
    pub developer: DevId,
    /// Revision container id.
    pub revision: u64,
    /// How many times changes were submitted to this revision before
    /// (the paper: resubmission count correlates *negatively*).
    pub revision_attempt: u32,
    /// Whether the revision includes a revert plan (positive signal).
    pub has_revert_plan: bool,
    /// Whether the revision includes a test plan (positive signal).
    pub has_test_plan: bool,
    /// Files touched.
    pub files_changed: u32,
    /// Lines added.
    pub lines_added: u32,
    /// Lines removed.
    pub lines_removed: u32,
    /// Local git commits squashed into the change.
    pub git_commits: u32,
    /// Number of affected build targets (paper change-feature (i)).
    pub affected_targets: u32,
    /// Whether pre-submit checks passed (paper: "status of initial
    /// tests/checks run before submitting").
    pub presubmit_passed: bool,
    /// Logical parts of the repository this change touches; overlapping
    /// parts make two changes *potentially conflicting*.
    pub parts: Vec<PartId>,
    /// Whether this change edits BUILD files (alters the build graph) —
    /// disables the analyzer's fast path.
    pub alters_build_graph: bool,
    /// Explicit emergency flag: the submitter requested the bypass lane
    /// (hotfix/rollback). Defaults to `false`; bypass-lane strategies
    /// honor it regardless of footprint.
    #[serde(default)]
    pub emergency: bool,
    /// Hidden ground truth: would this change's build steps pass against
    /// the submitted-from HEAD in isolation?
    pub intrinsic_success: bool,
    /// Hidden ground truth: the probability the outcome was drawn from
    /// (used to verify model calibration, never exposed to strategies).
    pub intrinsic_success_prob: f64,
}

impl ChangeSpec {
    /// True iff this change and `other` touch at least one common part —
    /// the paper's "potentially conflicting" relation.
    pub fn potentially_conflicts(&self, other: &ChangeSpec) -> bool {
        // Part lists are tiny (mean < 2); the quadratic scan beats set
        // construction.
        self.parts.iter().any(|p| other.parts.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, parts: &[u32]) -> ChangeSpec {
        ChangeSpec {
            id: ChangeId(id),
            submit_time: SimTime::ZERO,
            build_duration: SimDuration::from_mins(30),
            developer: DevId(0),
            revision: id,
            revision_attempt: 0,
            has_revert_plan: false,
            has_test_plan: true,
            files_changed: 3,
            lines_added: 100,
            lines_removed: 20,
            git_commits: 2,
            affected_targets: 5,
            presubmit_passed: true,
            parts: parts.iter().map(|&p| PartId(p)).collect(),
            alters_build_graph: false,
            emergency: false,
            intrinsic_success: true,
            intrinsic_success_prob: 0.9,
        }
    }

    #[test]
    fn potential_conflict_is_part_overlap() {
        let a = spec(1, &[1, 2]);
        let b = spec(2, &[2, 3]);
        let c = spec(3, &[4]);
        assert!(a.potentially_conflicts(&b));
        assert!(b.potentially_conflicts(&a));
        assert!(!a.potentially_conflicts(&c));
        assert!(!c.potentially_conflicts(&b));
    }

    #[test]
    fn no_parts_never_conflicts() {
        let a = spec(1, &[]);
        let b = spec(2, &[1]);
        assert!(!a.potentially_conflicts(&b));
        assert!(!a.potentially_conflicts(&a));
    }

    #[test]
    fn ids_order_by_submission() {
        assert!(ChangeId(1) < ChangeId(2));
        assert_eq!(ChangeId(7).to_string(), "C7");
    }
}
