//! Pending-change lifecycle.
//!
//! Every change submitted to SubmitQueue "has two possible outcomes:
//! (i) all build steps for the change succeed, and it gets committed …
//! (ii) some build step fails, and the change is rejected" (Section 4).

use serde::{Deserialize, Serialize};
use sq_sim::{SimDuration, SimTime};
use sq_workload::ChangeId;

/// Terminal outcome of a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChangeOutcome {
    /// Patch merged into the mainline.
    Committed,
    /// Rejected: its gating build failed (individually or due to a real
    /// conflict with a change that committed before it).
    Rejected,
}

/// Per-change accounting produced by a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChangeRecord {
    /// The change.
    pub id: ChangeId,
    /// Submission time.
    pub submitted: SimTime,
    /// Resolution time (commit or reject).
    pub resolved: SimTime,
    /// The outcome.
    pub outcome: ChangeOutcome,
    /// Turnaround: resolution − submission.
    pub turnaround: SimDuration,
    /// Number of speculative builds scheduled that contained this change
    /// as subject.
    pub builds_scheduled: u32,
    /// Of those, how many were aborted before finishing (wasted work).
    pub builds_aborted: u32,
}

impl ChangeRecord {
    /// Construct, computing turnaround.
    pub fn new(
        id: ChangeId,
        submitted: SimTime,
        resolved: SimTime,
        outcome: ChangeOutcome,
        builds_scheduled: u32,
        builds_aborted: u32,
    ) -> Self {
        ChangeRecord {
            id,
            submitted,
            resolved,
            outcome,
            turnaround: resolved.since(submitted),
            builds_scheduled,
            builds_aborted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turnaround_is_resolution_minus_submission() {
        let r = ChangeRecord::new(
            ChangeId(3),
            SimTime::from_secs(10 * 60),
            SimTime::from_secs(45 * 60),
            ChangeOutcome::Committed,
            2,
            1,
        );
        assert_eq!(r.turnaround, SimDuration::from_mins(35));
    }
}
