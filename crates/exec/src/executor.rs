//! A real (thread-based) build executor.
//!
//! The simulator models build time; this executor actually *runs* build
//! steps, so the examples and integration tests can exercise the system
//! end to end with genuine parallel execution. A target becomes ready
//! when all its requested dependencies finished, and artifacts are
//! recorded in the shared [`ArtifactCache`].
//!
//! ## How a worker waits
//!
//! The calling thread is worker 0 and `threads − 1` scoped helpers run
//! beside it (never more than one worker per requested target). A
//! worker with nothing to run *parks* on a condvar paired with the one
//! scheduling mutex; it is woken only by an event that changes what it
//! would do — a surplus ready target, the last in-flight target
//! finishing, or an abort — and every one of those is written under
//! that mutex by a worker that notifies before it unlocks, so a wake-up
//! cannot be lost and nothing polls. A worker that finishes a target
//! records it, releases its dependents and claims its next target in
//! one hold of the lock; it keeps one released dependent for itself and
//! wakes one parked worker per *surplus* one, so a dependency chain
//! runs start to finish on one thread with no wake-up at all.
//! [`ExecReport::idle_wakeups`] counts the wake-ups that found nothing
//! to do.
//!
//! Failure policy is fail-fast: once any step fails, no new targets are
//! dispatched (in-flight ones drain), mirroring how the paper's build
//! controller aborts doomed speculations early.
//!
//! Failures come in two colors (the [`fault`](crate::fault) module's
//! taxonomy): a genuine [`StepOutcome::Failure`] means the change is
//! bad and resolves immediately, while a [`StepOutcome::InfraFailure`]
//! is environmental and is retried under the caller's [`RetryPolicy`].
//! Artifacts enter the cache only for steps whose *final* outcome is
//! success, so a flaky or crashed step can never poison the cache.

use crate::cache::ArtifactCache;
use crate::fault::{InfraFault, RetryPolicy};
use crate::step::{steps_for, BuildStep};
use parking_lot::Mutex;
use sq_build::{BuildGraph, TargetHashes, TargetName};
use std::collections::{HashMap, HashSet};
use std::sync::Condvar;

/// Result of one step action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step succeeded.
    Success,
    /// The step genuinely failed with a reason: the change is bad.
    /// Never retried — a red compile stays red.
    Failure(String),
    /// The step failed for infrastructure reasons (worker crash,
    /// timeout, transient tooling): says nothing about the change.
    /// Retried under the executor's [`RetryPolicy`].
    InfraFailure(InfraFault),
}

impl StepOutcome {
    /// True iff the outcome is [`StepOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, StepOutcome::Success)
    }
}

/// Report from an execution run.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Steps that ran, in completion order.
    pub executed: Vec<BuildStep>,
    /// Steps skipped via the artifact cache.
    pub cache_hits: usize,
    /// The first genuine failure observed, if any.
    pub failure: Option<(BuildStep, String)>,
    /// The infra failure that exhausted its retry budget, if any.
    pub infra_failure: Option<(BuildStep, InfraFault)>,
    /// Every infra fault observed, including ones recovered by retry
    /// (completion order; feeds flakiness attribution upstream).
    pub infra_events: Vec<(BuildStep, InfraFault)>,
    /// Step attempts that were retried after an infra fault.
    pub infra_retries: u64,
    /// Times a parked worker woke and found neither a ready target nor
    /// a reason to exit. Exact, not a timing: a dependency chain costs
    /// none, however many workers wait beside it.
    pub idle_wakeups: u64,
}

impl ExecReport {
    /// True iff every step succeeded (no genuine or infra failure).
    pub fn is_success(&self) -> bool {
        self.failure.is_none() && self.infra_failure.is_none()
    }

    /// Append what one target's pipeline produced, in completion order.
    /// Only the first failure of each color is kept.
    fn absorb(&mut self, done: ExecReport) {
        self.executed.extend(done.executed);
        self.cache_hits += done.cache_hits;
        self.infra_events.extend(done.infra_events);
        self.infra_retries += done.infra_retries;
        if self.failure.is_none() {
            self.failure = done.failure;
        }
        if self.infra_failure.is_none() {
            self.infra_failure = done.infra_failure;
        }
    }
}

/// A scoped-thread executor over a build graph: the caller plus
/// `threads − 1` helpers, parked while idle (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct RealExecutor {
    threads: usize,
}

impl RealExecutor {
    /// An executor with `threads` worker threads. Panics if zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        RealExecutor { threads }
    }

    /// Execute the pipelines of `targets` (a subset of `graph`) in
    /// dependency order.
    ///
    /// * Dependencies of a requested target that are themselves requested
    ///   are ordered before it; unrequested dependencies are assumed
    ///   up to date (the caller passes the affected set).
    /// * `action` runs each step; it must be thread-safe. Steps of one
    ///   target run sequentially; distinct ready targets run in parallel.
    /// * Steps whose `(target hash, step kind)` is cached are skipped.
    /// * A step that returns [`StepOutcome::InfraFailure`] is re-run up
    ///   to `policy`'s attempt bound ([`RetryPolicy::none`]: never), at
    ///   once: no backoff is slept. Genuine failures are never retried.
    ///   A step whose final outcome is not success never reaches the
    ///   artifact cache.
    pub fn execute_with_recovery<F>(
        &self,
        graph: &BuildGraph,
        targets: &HashSet<TargetName>,
        hashes: &TargetHashes,
        cache: &Mutex<ArtifactCache>,
        policy: &RetryPolicy,
        action: F,
    ) -> ExecReport
    where
        F: Fn(&BuildStep) -> StepOutcome + Sync,
    {
        // Restrict the dependency relation to the requested set.
        let mut remaining: HashMap<&TargetName, usize> = HashMap::new();
        let mut dependents: HashMap<&TargetName, Vec<&TargetName>> = HashMap::new();
        for name in targets {
            let Some(t) = graph.get(name) else { continue };
            let in_set: Vec<&TargetName> = t.deps.iter().filter(|d| targets.contains(*d)).collect();
            remaining.insert(name, in_set.len());
            for d in in_set {
                dependents
                    .entry(graph.get(d).map(|t| &t.name).unwrap_or(d))
                    .or_default()
                    .push(name);
            }
        }

        let sched = Scheduler {
            state: std::sync::Mutex::new(ExecState {
                ready: remaining
                    .iter()
                    .filter(|(_, &n)| n == 0)
                    .map(|(&t, _)| t)
                    .collect(),
                remaining,
                in_flight: 0,
                parked: 0,
                aborted: false,
                report: ExecReport::default(),
            }),
            wake: Condvar::new(),
            dependents,
        };
        let run_target =
            |name: &TargetName| run_pipeline(graph, hashes, cache, policy, &action, name);

        // The calling thread is worker 0; a helper beyond one per
        // requested target could never claim anything.
        let helpers = (self.threads - 1).min(targets.len().saturating_sub(1));
        crossbeam::scope(|scope| {
            for _ in 0..helpers {
                let (sched, run_target) = (&sched, &run_target);
                scope.spawn(move |_| sched.work(run_target));
            }
            sched.work(&run_target);
        })
        .expect("executor threads must not panic");

        sched.state.into_inner().expect(POISONED).report
    }
}

const POISONED: &str = "an executor worker panicked while scheduling";

/// Run every step of one target: cache check, attempt loop (infra
/// failures retry under the policy, genuine outcomes resolve at once),
/// cache insert on success. Returns what happened as a report of its
/// own, which the scheduler merges under the completion lock.
fn run_pipeline<F>(
    graph: &BuildGraph,
    hashes: &TargetHashes,
    cache: &Mutex<ArtifactCache>,
    policy: &RetryPolicy,
    action: &F,
    target_name: &TargetName,
) -> ExecReport
where
    F: Fn(&BuildStep) -> StepOutcome + Sync,
{
    let mut done = ExecReport::default();
    let target = graph.get(target_name).expect("target in graph");
    let hash = hashes.get(target_name);
    for &kind in steps_for(target.kind) {
        let step = BuildStep::new(target_name.clone(), kind);
        if let Some(h) = hash {
            if cache.lock().lookup(h, kind).is_some() {
                done.cache_hits += 1;
                continue;
            }
        }
        let mut attempt = 1u32;
        let outcome = loop {
            match action(&step) {
                StepOutcome::InfraFailure(fault) => {
                    done.infra_events.push((step.clone(), fault.clone()));
                    if policy.should_retry(attempt) {
                        done.infra_retries += 1;
                        attempt += 1;
                        continue;
                    }
                    break StepOutcome::InfraFailure(fault);
                }
                other => break other,
            }
        };
        match outcome {
            StepOutcome::Success => {
                if let Some(h) = hash {
                    let inserted = cache.lock().insert_if_success(h, kind, &outcome);
                    debug_assert!(inserted.is_some());
                }
                done.executed.push(step);
            }
            StepOutcome::Failure(reason) => {
                done.failure = Some((step, reason));
                break;
            }
            // Retry budget exhausted: the build is infra-red. Fail fast
            // like a genuine failure, but keep the colors apart so the
            // caller can rebuild instead of rejecting the change.
            StepOutcome::InfraFailure(fault) => {
                done.infra_failure = Some((step, fault));
                break;
            }
        }
    }
    done
}

/// The scheduling core: one mutex over everything a worker's next move
/// depends on, and the condvar idle workers park on. Every condition a
/// parked worker waits for — a ready target, the last in-flight target
/// finishing, an abort — changes only under `state`, and whoever changes
/// it notifies before unlocking, so no wake-up can be lost.
struct Scheduler<'a> {
    state: std::sync::Mutex<ExecState<'a>>,
    wake: Condvar,
    dependents: HashMap<&'a TargetName, Vec<&'a TargetName>>,
}

struct ExecState<'a> {
    ready: Vec<&'a TargetName>,
    remaining: HashMap<&'a TargetName, usize>,
    in_flight: usize,
    /// Workers inside `wake.wait`: a notify nobody would hear is skipped.
    parked: usize,
    /// Set by the first failed target: nothing new is dispatched after.
    aborted: bool,
    report: ExecReport,
}

impl<'a> Scheduler<'a> {
    /// One worker's life: claim a target, run it, hand it back for the
    /// next, until the run is over.
    fn work(&self, run_target: &impl Fn(&TargetName) -> ExecReport) {
        let _unpark_on_panic = AbortOnPanic(self);
        let mut claimed = self.next(None);
        while let Some(target) = claimed {
            let done = run_target(target);
            claimed = self.next(Some((target, done)));
        }
    }

    /// Record the target this worker just `finished` (if any), release
    /// its dependents, and claim the next target — all in one hold of
    /// the lock. A worker that released dependents takes one itself, so
    /// a dependency chain stays on one thread, and wakes one parked
    /// worker per *surplus* ready target; with nothing ready it parks
    /// while a target in flight may still release some. `None` once the
    /// run is over: aborted, or nothing ready and nothing in flight.
    fn next(&self, finished: Option<(&TargetName, ExecReport)>) -> Option<&'a TargetName> {
        let mut st = self.state.lock().expect(POISONED);
        if let Some((target, done)) = finished {
            st.aborted |= !done.is_success();
            st.report.absorb(done);
            st.in_flight -= 1;
            let mut released = 0usize;
            if !st.aborted {
                for &d in self.dependents.get(target).into_iter().flatten() {
                    let n = st.remaining.get_mut(d).expect("dependent tracked");
                    *n -= 1;
                    if *n == 0 {
                        st.ready.push(d);
                        released += 1;
                    }
                }
            }
            if st.aborted || (st.in_flight == 0 && st.ready.is_empty()) {
                if st.parked > 0 {
                    self.wake.notify_all();
                }
            } else {
                for _ in 0..released.saturating_sub(1).min(st.parked) {
                    self.wake.notify_one();
                }
            }
        }
        loop {
            if st.aborted {
                return None;
            }
            if let Some(t) = st.ready.pop() {
                st.in_flight += 1;
                return Some(t);
            }
            if st.in_flight == 0 {
                return None;
            }
            st.parked += 1;
            st = self.wake.wait(st).expect(POISONED);
            st.parked -= 1;
            if !st.aborted && st.ready.is_empty() && st.in_flight > 0 {
                st.report.idle_wakeups += 1;
            }
        }
    }
}

/// A worker that unwinds (a panicking step action) never hands its
/// target back, so the workers parked on it would wait forever: abort
/// the run and wake them, and let the scope report the panic.
struct AbortOnPanic<'s, 'a>(&'s Scheduler<'a>);

impl Drop for AbortOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            st.aborted = true;
            self.0.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_build::{RuleKind, Target};
    use sq_vcs::{ObjectStore, RepoPath, Tree};
    use std::str::FromStr;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn n(s: &str) -> TargetName {
        TargetName::from_str(s).unwrap()
    }

    fn p(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    /// chain: a ← b ← c, plus independent d.
    fn fixture() -> (BuildGraph, TargetHashes, HashSet<TargetName>) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (path, content) in [
            ("a/s.rs", "a"),
            ("b/s.rs", "b"),
            ("c/s.rs", "c"),
            ("d/s.rs", "d"),
        ] {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(p(path), id).unwrap();
        }
        let graph = BuildGraph::from_targets([
            Target::new(n("//a:a"), RuleKind::Library, vec![p("a/s.rs")], vec![]),
            Target::new(
                n("//b:b"),
                RuleKind::Library,
                vec![p("b/s.rs")],
                vec![n("//a:a")],
            ),
            Target::new(
                n("//c:c"),
                RuleKind::Test,
                vec![p("c/s.rs")],
                vec![n("//b:b")],
            ),
            Target::new(n("//d:d"), RuleKind::Library, vec![p("d/s.rs")], vec![]),
        ])
        .unwrap();
        let hashes = TargetHashes::compute(&graph, &tree, &store).unwrap();
        let targets: HashSet<TargetName> = ["//a:a", "//b:b", "//c:c", "//d:d"]
            .iter()
            .map(|s| n(s))
            .collect();
        (graph, hashes, targets)
    }

    #[test]
    fn executes_all_steps_in_dependency_order() {
        let (graph, hashes, targets) = fixture();
        let cache = Mutex::new(ArtifactCache::new());
        let report = RealExecutor::new(4).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| StepOutcome::Success,
        );
        assert!(report.is_success());
        // a, b, d: 1 compile each; c: compile + run-tests = 5 steps.
        assert_eq!(report.executed.len(), 5);
        let pos = |t: &str| {
            report
                .executed
                .iter()
                .position(|s| s.target == n(t))
                .unwrap()
        };
        assert!(pos("//a:a") < pos("//b:b"));
        assert!(pos("//b:b") < pos("//c:c"));
    }

    #[test]
    fn parallel_execution_actually_happens() {
        // Two independent targets and 2 threads: both actions must be able
        // to overlap. We detect overlap with a rendezvous: each action
        // waits until the other has started (bounded, to avoid hangs).
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (path, content) in [("a/s.rs", "a"), ("b/s.rs", "b")] {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(p(path), id).unwrap();
        }
        let graph = BuildGraph::from_targets([
            Target::new(n("//a:a"), RuleKind::Library, vec![p("a/s.rs")], vec![]),
            Target::new(n("//b:b"), RuleKind::Library, vec![p("b/s.rs")], vec![]),
        ])
        .unwrap();
        let hashes = TargetHashes::compute(&graph, &tree, &store).unwrap();
        let targets: HashSet<TargetName> = [n("//a:a"), n("//b:b")].into_iter().collect();
        let cache = Mutex::new(ArtifactCache::new());
        let started = AtomicUsize::new(0);
        let report = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| {
                started.fetch_add(1, Ordering::SeqCst);
                // Wait (bounded) for the sibling to start too.
                for _ in 0..10_000 {
                    if started.load(Ordering::SeqCst) >= 2 {
                        return StepOutcome::Success;
                    }
                    std::thread::yield_now();
                }
                StepOutcome::Failure("sibling never started: no parallelism".into())
            },
        );
        assert!(report.is_success(), "failure: {:?}", report.failure);
    }

    #[test]
    fn failure_stops_dependents() {
        let (graph, hashes, targets) = fixture();
        let cache = Mutex::new(ArtifactCache::new());
        let report = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |step| {
                if step.target == n("//b:b") {
                    StepOutcome::Failure("compile error".into())
                } else {
                    StepOutcome::Success
                }
            },
        );
        assert!(!report.is_success());
        let (failed_step, reason) = report.failure.as_ref().unwrap();
        assert_eq!(failed_step.target, n("//b:b"));
        assert_eq!(reason, "compile error");
        // c depends on b and must not have run.
        assert!(report.executed.iter().all(|s| s.target != n("//c:c")));
    }

    #[test]
    fn cache_skips_previously_built_targets() {
        let (graph, hashes, targets) = fixture();
        let cache = Mutex::new(ArtifactCache::new());
        let r1 = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| StepOutcome::Success,
        );
        assert_eq!(r1.executed.len(), 5);
        // Second run: everything cached.
        let r2 = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| StepOutcome::Success,
        );
        assert_eq!(r2.executed.len(), 0);
        assert_eq!(r2.cache_hits, 5);
    }

    #[test]
    fn subset_execution_ignores_outside_deps() {
        let (graph, hashes, _) = fixture();
        // Request only c: its dependency b is outside the set, so c is
        // immediately ready (the caller vouches b is up to date).
        let targets: HashSet<TargetName> = [n("//c:c")].into_iter().collect();
        let cache = Mutex::new(ArtifactCache::new());
        let report = RealExecutor::new(1).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| StepOutcome::Success,
        );
        assert!(report.is_success());
        assert_eq!(report.executed.len(), 2); // compile + run-tests
    }

    #[test]
    fn flaky_step_recovers_via_retries() {
        let (graph, hashes, targets) = fixture();
        let cache = Mutex::new(ArtifactCache::new());
        let policy = RetryPolicy::standard(3, 42);
        // Every step infra-fails on its first attempt, passes after.
        let attempts: Mutex<HashMap<BuildStep, u32>> = Mutex::new(HashMap::new());
        let report = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &policy,
            |step| {
                let mut a = attempts.lock();
                let n = a.entry(step.clone()).or_insert(0);
                *n += 1;
                if *n == 1 {
                    StepOutcome::InfraFailure(InfraFault {
                        kind: crate::fault::InfraFaultKind::Timeout,
                        attempt: 1,
                    })
                } else {
                    StepOutcome::Success
                }
            },
        );
        assert!(report.is_success(), "flakes must be absorbed: {report:?}");
        assert_eq!(report.executed.len(), 5);
        assert_eq!(report.infra_retries, 5, "one retry per step");
        assert_eq!(report.infra_events.len(), 5);
        // Recovered steps are cached like any success.
        assert_eq!(cache.lock().stats().entries, 5);
    }

    #[test]
    fn exhausted_retries_are_infra_red_not_change_red() {
        let (graph, hashes, targets) = fixture();
        let cache = Mutex::new(ArtifactCache::new());
        let policy = RetryPolicy::standard(3, 7);
        let report = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &policy,
            |step| {
                if step.target == n("//b:b") {
                    StepOutcome::InfraFailure(InfraFault {
                        kind: crate::fault::InfraFaultKind::WorkerCrash,
                        attempt: 0,
                    })
                } else {
                    StepOutcome::Success
                }
            },
        );
        assert!(!report.is_success());
        assert!(report.failure.is_none(), "no genuine failure happened");
        let (step, _) = report.infra_failure.as_ref().unwrap();
        assert_eq!(step.target, n("//b:b"));
        // All three attempts were observed, two of them retried.
        assert_eq!(report.infra_retries, 2);
        assert_eq!(report.infra_events.len(), 3);
        // Fail-fast still applies: c (dependent of b) never ran.
        assert!(report.executed.iter().all(|s| s.target != n("//c:c")));
    }

    /// Acceptance criterion: the cache never contains an artifact from a
    /// step whose final outcome was not `Success` — neither infra-failed
    /// steps, nor steps that retried and then genuinely failed.
    #[test]
    fn cache_never_poisoned_by_failed_or_retried_then_failed_steps() {
        let (graph, hashes, targets) = fixture();
        let cache = Mutex::new(ArtifactCache::new());
        let policy = RetryPolicy::standard(4, 9);
        // //b:b infra-fails forever (exhausts retries); //d:d infra-fails
        // once and then fails genuinely; the rest succeed.
        let attempts: Mutex<HashMap<BuildStep, u32>> = Mutex::new(HashMap::new());
        let report = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &policy,
            |step| {
                let mut a = attempts.lock();
                let cnt = a.entry(step.clone()).or_insert(0);
                *cnt += 1;
                if step.target == n("//b:b") {
                    StepOutcome::InfraFailure(InfraFault {
                        kind: crate::fault::InfraFaultKind::TransientTooling,
                        attempt: *cnt,
                    })
                } else if step.target == n("//d:d") {
                    if *cnt == 1 {
                        StepOutcome::InfraFailure(InfraFault {
                            kind: crate::fault::InfraFaultKind::Timeout,
                            attempt: 1,
                        })
                    } else {
                        StepOutcome::Failure("genuine breakage".into())
                    }
                } else {
                    StepOutcome::Success
                }
            },
        );
        assert!(!report.is_success());
        let mut cache = cache.lock();
        for (target, must_be_absent) in [("//b:b", true), ("//d:d", true)] {
            let h = hashes.get(&n(target)).unwrap();
            for &kind in steps_for(graph.get(&n(target)).unwrap().kind) {
                assert!(
                    cache.lookup(h, kind).is_none(),
                    "{target} {kind} cached despite non-success final outcome \
                     (must_be_absent={must_be_absent})"
                );
            }
        }
        // Only steps whose final outcome was Success are cached.
        assert_eq!(cache.stats().entries, report.executed.len());
    }

    /// Satellite regression: fail-fast drain. After the first failure,
    /// no *new* target is dispatched, while in-flight targets complete.
    #[test]
    fn fail_fast_drains_in_flight_without_new_dispatches() {
        // f and s are independent and ready; p1, p2 depend on both, so
        // they become dispatchable only once f and s complete.
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (path, content) in [
            ("f/s.rs", "f"),
            ("s/s.rs", "s"),
            ("p1/s.rs", "p1"),
            ("p2/s.rs", "p2"),
        ] {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(p(path), id).unwrap();
        }
        let graph = BuildGraph::from_targets([
            Target::new(n("//f:f"), RuleKind::Library, vec![p("f/s.rs")], vec![]),
            Target::new(n("//s:s"), RuleKind::Library, vec![p("s/s.rs")], vec![]),
            Target::new(
                n("//p1:p1"),
                RuleKind::Library,
                vec![p("p1/s.rs")],
                vec![n("//f:f"), n("//s:s")],
            ),
            Target::new(
                n("//p2:p2"),
                RuleKind::Library,
                vec![p("p2/s.rs")],
                vec![n("//f:f"), n("//s:s")],
            ),
        ])
        .unwrap();
        let hashes = TargetHashes::compute(&graph, &tree, &store).unwrap();
        let targets: HashSet<TargetName> = ["//f:f", "//s:s", "//p1:p1", "//p2:p2"]
            .iter()
            .map(|s| n(s))
            .collect();
        let cache = Mutex::new(ArtifactCache::new());
        let s_started = AtomicBool::new(false);
        let f_failed = AtomicBool::new(false);
        let dispatched_after_failure = AtomicUsize::new(0);
        let report = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |step| {
                if step.target == n("//f:f") {
                    // Wait until the sibling is genuinely in flight, then fail.
                    for _ in 0..100_000 {
                        if s_started.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    f_failed.store(true, Ordering::SeqCst);
                    StepOutcome::Failure("first failure".into())
                } else if step.target == n("//s:s") {
                    s_started.store(true, Ordering::SeqCst);
                    // Drain window: linger until the failure has been
                    // delivered, giving a buggy scheduler every chance to
                    // dispatch p1/p2 behind our back.
                    for _ in 0..100_000 {
                        if f_failed.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    for _ in 0..1_000 {
                        std::thread::yield_now();
                    }
                    StepOutcome::Success
                } else {
                    // p1/p2 must never be dispatched.
                    if f_failed.load(Ordering::SeqCst) {
                        dispatched_after_failure.fetch_add(1, Ordering::SeqCst);
                    }
                    StepOutcome::Success
                }
            },
        );
        assert!(!report.is_success());
        assert_eq!(report.failure.as_ref().unwrap().0.target, n("//f:f"));
        // The in-flight target drained to completion...
        assert!(
            report.executed.iter().any(|s| s.target == n("//s:s")),
            "in-flight step must complete: {:?}",
            report.executed
        );
        // ...and nothing new was dispatched after the failure.
        assert_eq!(dispatched_after_failure.load(Ordering::SeqCst), 0);
        assert!(report
            .executed
            .iter()
            .all(|s| s.target != n("//p1:p1") && s.target != n("//p2:p2")));
    }

    #[test]
    fn empty_target_set() {
        let (graph, hashes, _) = fixture();
        let cache = Mutex::new(ArtifactCache::new());
        let report = RealExecutor::new(2).execute_with_recovery(
            &graph,
            &HashSet::new(),
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| StepOutcome::Success,
        );
        assert!(report.is_success());
        assert!(report.executed.is_empty());
    }
}
