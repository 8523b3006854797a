//! Greenness audits.
//!
//! "A mainline is called green if all build steps can successfully
//! execute for every commit point in the history" (Section 1). The
//! simulator doesn't *assume* SubmitQueue achieves this — after every
//! run, the commit log is replayed against the ground truth:
//!
//! 1. every committed change must pass its build steps in isolation;
//! 2. no two committed changes that were *concurrently in flight* may
//!    really conflict (a change submitted after another committed was
//!    developed against a HEAD already containing it, so only
//!    overlapping windows can break a commit point).

use crate::planner::SimResult;
use sq_sim::SimTime;
use sq_workload::{ChangeId, Workload};
use std::collections::{HashMap, HashSet};

/// Verify the always-green invariant for a finished run.
///
/// Returns `Err` with a human-readable description of the first red
/// commit point found.
pub fn audit_green(workload: &Workload, result: &SimResult) -> Result<(), String> {
    let truth = workload.truth();
    let resolved_at: HashMap<ChangeId, SimTime> =
        result.records.iter().map(|r| (r.id, r.resolved)).collect();
    let spec = |id: ChangeId| &workload.changes[id.0 as usize];
    for (k, &c_id) in result.commit_log.iter().enumerate() {
        let c = spec(c_id);
        if !truth.succeeds_alone(c) {
            return Err(format!(
                "commit #{k} ({c_id}) fails its own build steps — red mainline"
            ));
        }
        for &d_id in &result.commit_log[..k] {
            let d = spec(d_id);
            let d_committed = resolved_at
                .get(&d_id)
                .copied()
                .ok_or_else(|| format!("{d_id} committed but has no record"))?;
            // Concurrency window: c was already submitted when d landed.
            if c.submit_time < d_committed && truth.real_conflict(c, d) {
                return Err(format!(
                    "commit #{k} ({c_id}) really conflicts with earlier commit {d_id} \
                     — composing them breaks the mainline"
                ));
            }
        }
    }
    Ok(())
}

/// Verify that every rejection in a finished run is justified by the
/// ground truth: the change either fails its own build steps in
/// isolation, or really conflicts with a change that committed while it
/// was in flight.
///
/// Infra faults are never a justification — a run that rejects a
/// genuinely-passing, unconflicted change fails this audit, which is
/// exactly the "wrongly rejected change" count the flake-rate sweeps
/// must hold at zero.
pub fn audit_rejections_justified(workload: &Workload, result: &SimResult) -> Result<(), String> {
    match wrongful_rejections(workload, result).first() {
        Some(id) => Err(format!(
            "{id} passes alone and conflicts with nothing that landed in its window — \
             it was wrongly rejected"
        )),
        None => Ok(()),
    }
}

/// Count the wrongful rejections in a finished run: changes that pass
/// alone and conflict with nothing that landed in their window, yet were
/// rejected anyway. [`audit_rejections_justified`] is the all-or-nothing
/// form; the scenario matrix reports (and gates on) this count.
pub fn count_wrongful_rejections(workload: &Workload, result: &SimResult) -> usize {
    wrongful_rejections(workload, result).len()
}

/// The wrongful rejections themselves, in record order — the per-shard
/// reports attribute each one to the lane that owned the change.
pub fn wrongful_rejections(workload: &Workload, result: &SimResult) -> Vec<ChangeId> {
    let truth = workload.truth();
    let committed: HashSet<ChangeId> = result.commit_log.iter().copied().collect();
    let resolved_at: HashMap<ChangeId, SimTime> =
        result.records.iter().map(|r| (r.id, r.resolved)).collect();
    result
        .records
        .iter()
        .filter(|rec| {
            if committed.contains(&rec.id) {
                return false;
            }
            let c = &workload.changes[rec.id.0 as usize];
            truth.succeeds_alone(c)
                && !result.commit_log.iter().any(|&d_id| {
                    let d = &workload.changes[d_id.0 as usize];
                    let d_committed = resolved_at.get(&d_id).copied().unwrap_or(SimTime::ZERO);
                    c.submit_time < d_committed && truth.real_conflict(c, d)
                })
        })
        .map(|rec| rec.id)
        .collect()
}

/// Surface a run's recovery picture next to the greenness audits: infra
/// retries, charged backoff, and the quarantine list of chronically
/// flaky changes.
pub fn recovery_report(result: &SimResult) -> String {
    if result.infra_retries == 0 && result.quarantined.is_empty() {
        return "no infra faults observed".into();
    }
    let quarantined: Vec<String> = result.quarantined.iter().map(|c| c.to_string()).collect();
    format!(
        "{} infra-red build attempt(s) retried, {:.1} min of backoff charged, \
         quarantined: [{}]",
        result.infra_retries,
        result.infra_backoff.as_mins_f64(),
        quarantined.join(", ")
    )
}

/// Count how many commit points would be red in a commit log (used by
/// the trunk-based baseline where breakage is expected).
pub fn count_red_commits(workload: &Workload, commit_log: &[ChangeId]) -> usize {
    let truth = workload.truth();
    let spec = |id: ChangeId| &workload.changes[id.0 as usize];
    let mut red = 0;
    for (k, &c_id) in commit_log.iter().enumerate() {
        let c = spec(c_id);
        let broken = !truth.succeeds_alone(c)
            || commit_log[..k]
                .iter()
                .any(|&d_id| truth.real_conflict(c, spec(d_id)));
        if broken {
            red += 1;
        }
    }
    red
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pending::{ChangeOutcome, ChangeRecord};
    use crate::strategy::StrategyKind;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn workload(n: usize, seed: u64) -> Workload {
        WorkloadBuilder::new(WorkloadParams::ios())
            .seed(seed)
            .n_changes(n)
            .build()
            .unwrap()
    }

    fn result_with(w: &Workload, log: Vec<ChangeId>) -> SimResult {
        let records = w
            .changes
            .iter()
            .map(|c| {
                ChangeRecord::new(
                    c.id,
                    c.submit_time,
                    SimTime::from_hours(1000), // everything resolved late
                    if log.contains(&c.id) {
                        ChangeOutcome::Committed
                    } else {
                        ChangeOutcome::Rejected
                    },
                    1,
                    0,
                )
            })
            .collect();
        SimResult {
            strategy: StrategyKind::Oracle,
            records,
            commit_log: log,
            makespan: SimTime::from_hours(1000),
            builds_started: 0,
            builds_aborted: 0,
            utilization: 0.0,
            infra_retries: 0,
            infra_backoff: sq_sim::SimDuration::ZERO,
            quarantined: Vec::new(),
            lean: None,
        }
    }

    #[test]
    fn empty_log_is_green() {
        let w = workload(10, 1);
        audit_green(&w, &result_with(&w, vec![])).unwrap();
    }

    #[test]
    fn intrinsically_broken_commit_is_red() {
        let w = workload(300, 2);
        let broken = w
            .changes
            .iter()
            .find(|c| !c.intrinsic_success)
            .expect("some change fails");
        let err = audit_green(&w, &result_with(&w, vec![broken.id])).unwrap_err();
        assert!(err.contains("fails its own build steps"));
    }

    #[test]
    fn conflicting_concurrent_commits_are_red() {
        let w = workload(3000, 3);
        let truth = w.truth();
        // Find a really-conflicting pair of individually-good changes.
        let mut found = None;
        'outer: for (i, a) in w.changes.iter().enumerate() {
            if !a.intrinsic_success {
                continue;
            }
            for b in &w.changes[i + 1..] {
                if b.intrinsic_success && truth.real_conflict(a, b) {
                    found = Some((a.id, b.id));
                    break 'outer;
                }
            }
        }
        let (a, b) = found.expect("workload contains a conflicting pair");
        // Committing both (with everything resolved after all arrivals,
        // so the windows overlap) must be flagged.
        let err = audit_green(&w, &result_with(&w, vec![a, b])).unwrap_err();
        assert!(err.contains("really conflicts"), "err = {err}");
    }

    #[test]
    fn committing_only_good_independent_changes_is_green() {
        let w = workload(500, 4);
        let truth = w.truth();
        // Greedily build a conflict-free prefix of good changes.
        let mut log: Vec<ChangeId> = Vec::new();
        for c in &w.changes {
            if !c.intrinsic_success {
                continue;
            }
            if log
                .iter()
                .all(|&d| !truth.real_conflict(c, &w.changes[d.0 as usize]))
            {
                log.push(c.id);
            }
            if log.len() >= 100 {
                break;
            }
        }
        audit_green(&w, &result_with(&w, log)).unwrap();
    }

    #[test]
    fn rejecting_a_good_unconflicted_change_fails_the_justification_audit() {
        let w = workload(50, 6);
        let good = w.changes.iter().filter(|c| c.intrinsic_success).count();
        assert!(good > 0, "workload has a passing change");
        // Nothing commits, so every intrinsically-good rejection is
        // unjustified (no conflicting landing can explain it).
        let err = audit_rejections_justified(&w, &result_with(&w, vec![])).unwrap_err();
        assert!(err.contains("wrongly rejected"), "err = {err}");
        // The counting form agrees with the all-or-nothing form.
        assert_eq!(
            count_wrongful_rejections(&w, &result_with(&w, vec![])),
            good
        );
    }

    #[test]
    fn rejecting_only_intrinsically_broken_changes_is_justified() {
        let w = workload(200, 7);
        let good: Vec<ChangeId> = w
            .changes
            .iter()
            .filter(|c| c.intrinsic_success)
            .map(|c| c.id)
            .collect();
        // Everything that passes alone commits; only broken changes are
        // rejected — all justified.
        audit_rejections_justified(&w, &result_with(&w, good)).unwrap();
    }

    #[test]
    fn recovery_report_surfaces_retries_and_quarantine() {
        let w = workload(10, 8);
        let mut r = result_with(&w, vec![]);
        assert_eq!(recovery_report(&r), "no infra faults observed");
        r.infra_retries = 3;
        r.infra_backoff = sq_sim::SimDuration::from_mins(2);
        r.quarantined = vec![ChangeId(5)];
        let report = recovery_report(&r);
        assert!(report.contains("3 infra-red"), "report = {report}");
        assert!(report.contains("C5"), "report = {report}");
    }

    #[test]
    fn count_red_commits_counts() {
        let w = workload(300, 5);
        let bad: Vec<ChangeId> = w
            .changes
            .iter()
            .filter(|c| !c.intrinsic_success)
            .take(3)
            .map(|c| c.id)
            .collect();
        assert!(count_red_commits(&w, &bad) >= 3);
        assert_eq!(count_red_commits(&w, &[]), 0);
    }
}
