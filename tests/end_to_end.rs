//! End-to-end integration: a generated workload flows through the real
//! stack — materialized monorepo, three-way rebases, the Section 5
//! conflict analyzer, real parallel builds with artifact caching — and
//! the mainline stays green at every commit point.

use keeping_master_green::core::service::{SubmitQueueService, TicketState};
use keeping_master_green::exec::StepOutcome;
use keeping_master_green::vcs::{FileOp, Patch, RepoPath};
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{WorkloadBuilder, WorkloadParams};

/// Render a change as a patch, planting a visible bug marker when the
/// ground truth says the change is intrinsically broken.
fn patch_with_truth(m: &MaterializedRepo, c: &sq_workload::ChangeSpec) -> Patch {
    let mut patch = m.patch_for(c);
    if !c.intrinsic_success {
        let pkg = m.package_of(c.parts[0]);
        patch.push(FileOp::Write {
            path: RepoPath::new(format!("{pkg}/bug_marker_{}.txt", c.id.0)).unwrap(),
            content: "this change is broken".into(),
        });
    }
    patch
}

/// Build steps fail for any target whose package contains a bug marker.
fn truth_action(
    step: &keeping_master_green::exec::BuildStep,
    tree: &keeping_master_green::vcs::Tree,
) -> StepOutcome {
    let pkg = step.target.package();
    let has_bug = tree
        .paths_under(pkg)
        .any(|p| p.file_name().starts_with("bug_marker"));
    if has_bug {
        StepOutcome::Failure(format!("bug marker present in {pkg}"))
    } else {
        StepOutcome::Success
    }
}

fn small_params() -> WorkloadParams {
    let mut p = WorkloadParams::ios();
    p.n_parts = 16;
    p
}

#[test]
fn workload_through_the_full_stack_keeps_master_green() {
    let params = small_params();
    let m = MaterializedRepo::generate(&params).unwrap();
    let w = WorkloadBuilder::new(params)
        .seed(42)
        .n_changes(40)
        .build()
        .unwrap();
    let service = SubmitQueueService::new(m.repo.clone(), 4);

    let mut landed = 0;
    let mut rejected = 0;
    for c in &w.changes {
        let base = service.head(); // developer syncs before submitting
        let ticket = service
            .submit(
                format!("dev{}", c.developer.0),
                format!("change {}", c.id),
                base,
                patch_with_truth(&m, c),
            )
            .unwrap();
        service.run_until_idle(&truth_action).unwrap();
        match service.status(ticket).unwrap() {
            TicketState::Landed(_) => {
                landed += 1;
                assert!(
                    c.intrinsic_success,
                    "broken change {} landed on the mainline",
                    c.id
                );
            }
            TicketState::Rejected(reason) => {
                rejected += 1;
                assert!(
                    !c.intrinsic_success,
                    "good change {} was rejected: {reason}",
                    c.id
                );
            }
            TicketState::Queued => panic!("queue drained but ticket still queued"),
        }
    }
    assert!(landed > 0, "some changes must land");
    assert!(rejected > 0, "the workload contains broken changes");
    assert_eq!(landed + rejected, 40);

    // Every commit point in history rebuilds green from scratch.
    let verified = service.verify_history(&truth_action).unwrap();
    assert_eq!(verified, landed + 1, "root + every landed change");
}

#[test]
fn stale_submissions_race_and_the_loser_is_rebased_or_rejected() {
    let params = small_params();
    let m = MaterializedRepo::generate(&params).unwrap();
    let w = WorkloadBuilder::new(params)
        .seed(17)
        .n_changes(30)
        .build()
        .unwrap();
    // Everyone branches from the same HEAD (release-crunch style), so
    // later submissions are stale by construction.
    let service = SubmitQueueService::new(m.repo.clone(), 4);
    let base = service.head();
    let tickets: Vec<_> = w
        .changes
        .iter()
        .filter(|c| c.intrinsic_success)
        .take(20)
        .map(|c| {
            (
                c.id,
                service
                    .submit(
                        format!("dev{}", c.developer.0),
                        format!("change {}", c.id),
                        base,
                        patch_with_truth(&m, c),
                    )
                    .unwrap(),
            )
        })
        .collect();
    service.run_until_idle(&truth_action).unwrap();
    let mut landed = 0;
    let mut merge_rejected = 0;
    for (id, t) in tickets {
        match service.status(t).unwrap() {
            TicketState::Landed(_) => landed += 1,
            TicketState::Rejected(reason) => {
                merge_rejected += 1;
                assert!(
                    reason.contains("merge conflict") || reason.contains("failed"),
                    "change {id} rejected for an unexpected reason: {reason}"
                );
            }
            TicketState::Queued => panic!("still queued"),
        }
    }
    assert!(
        landed >= 10,
        "disjoint-file stale changes rebase cleanly (landed {landed})"
    );
    // History is green regardless of how the race resolved.
    service.verify_history(&truth_action).unwrap();
    let _ = merge_rejected;
}

#[test]
fn artifact_cache_makes_incremental_builds_cheap() {
    let params = small_params();
    let m = MaterializedRepo::generate(&params).unwrap();
    let service = SubmitQueueService::new(m.repo.clone(), 4);
    // Land several single-part changes; each build should only rebuild
    // the affected package (plus dependents), not the world.
    let w = WorkloadBuilder::new(small_params())
        .seed(5)
        .n_changes(12)
        .build()
        .unwrap();
    for c in w.changes.iter().filter(|c| c.intrinsic_success).take(8) {
        let base = service.head();
        service
            .submit("dev", format!("{}", c.id), base, patch_with_truth(&m, c))
            .unwrap();
        service.run_until_idle(&truth_action).unwrap();
    }
    let stats = service.stats();
    // The whole repo has 16 packages; if caching failed, every change
    // would rebuild all 16. Affected-set builds keep misses near the
    // number of actually-affected targets.
    assert!(
        stats.cache_misses < 8 * 8,
        "too many rebuilt targets: {stats:?}"
    );
}
