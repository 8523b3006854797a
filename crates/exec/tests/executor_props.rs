//! The executor's scheduling core under random graphs and under the
//! three shapes its wake-up rule is built around: a chain (no wake-up
//! at all), a fan-out (one wake-up per surplus target) and a failure
//! while the other workers are parked (every one of them woken).
//!
//! A lost wake-up shows as a test that never returns, which is why CI
//! runs this crate's tests under `timeout`.

use parking_lot::Mutex;
use proptest::prelude::*;
use sq_build::{BuildGraph, RuleKind, Target, TargetHashes, TargetName};
use sq_exec::{
    steps_for, ArtifactCache, BuildStep, InfraFault, InfraFaultKind, RealExecutor, RetryPolicy,
    StepOutcome,
};
use sq_vcs::{ObjectStore, RepoPath, Tree};
use std::collections::{HashMap, HashSet};
use std::str::FromStr;
use std::sync::Condvar;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn name(i: usize) -> TargetName {
    TargetName::from_str(&format!("//t{i}:t{i}")).unwrap()
}

/// A graph of `deps.len()` targets, target `i` of kind `kinds[i]`
/// depending on `deps[i]` (indices below `i`), each over one source
/// file so every target has a hash and its steps are cacheable.
fn dag(kinds: &[RuleKind], deps: &[Vec<usize>]) -> (BuildGraph, TargetHashes) {
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    let targets: Vec<Target> = deps
        .iter()
        .enumerate()
        .map(|(i, ds)| {
            let src = RepoPath::new(format!("t{i}/s.rs")).unwrap();
            let blob = store.put(format!("source {i}").into_bytes());
            tree.insert(src.clone(), blob).unwrap();
            Target::new(
                name(i),
                kinds[i],
                vec![src],
                ds.iter().map(|&d| name(d)).collect(),
            )
        })
        .collect();
    let graph = BuildGraph::from_targets(targets).unwrap();
    let hashes = TargetHashes::compute(&graph, &tree, &store).unwrap();
    (graph, hashes)
}

fn libraries(deps: &[Vec<usize>]) -> (BuildGraph, TargetHashes, HashSet<TargetName>) {
    let (graph, hashes) = dag(&vec![RuleKind::Library; deps.len()], deps);
    (graph, hashes, (0..deps.len()).map(name).collect())
}

/// Every arrival waits until `expected` have arrived, or gives up after
/// ten seconds: a bounded barrier, so missing parallelism is a failed
/// assertion rather than a hung test.
struct Rendezvous {
    arrived: std::sync::Mutex<usize>,
    all_here: Condvar,
    expected: usize,
}

impl Rendezvous {
    fn new(expected: usize) -> Self {
        Rendezvous {
            arrived: std::sync::Mutex::new(0),
            all_here: Condvar::new(),
            expected,
        }
    }

    fn meet(&self) -> bool {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_here.notify_all();
        let (arrived, _) = self
            .all_here
            .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < self.expected)
            .unwrap();
        *arrived >= self.expected
    }
}

/// What a generated target does when its steps run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Pass,
    /// Every step infra-fails on its first `n` attempts, then passes.
    Flaky(u32),
    /// Genuinely red at its first step.
    Red,
    /// Infra-fails for as long as it is retried.
    Dead,
}

fn fate(code: u8) -> Fate {
    match code {
        0..=8 => Fate::Pass,
        9..=11 => Fate::Flaky(u32::from(code) - 8),
        12 => Fate::Red,
        _ => Fate::Dead,
    }
}

fn kind(code: u8) -> RuleKind {
    [
        RuleKind::Library,
        RuleKind::Binary,
        RuleKind::Test,
        RuleKind::Config,
    ][usize::from(code % 4)]
}

const MAX_ATTEMPTS: u32 = 3;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random DAG × 1..=8 threads × random red, flaky and dead targets,
    /// some targets left out of the request: every requested step runs
    /// exactly once or is skipped by fail-fast, dependencies complete
    /// before dependents start, the report's counters add up to what
    /// the action saw, only final successes reach the cache — and the
    /// call returns.
    #[test]
    fn random_dags_schedule_every_step_once_in_dependency_order(
        spec in proptest::collection::vec((0u8..4, any::<u32>(), 0u8..14, 0u8..8), 1..28),
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let kinds: Vec<RuleKind> = spec.iter().map(|s| kind(s.0)).collect();
        // Up to three dependencies among the targets before it, one per
        // byte of the mask, each present about two times in three.
        let deps: Vec<Vec<usize>> = spec
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let picks = s.1.to_le_bytes().into_iter().take(3);
                let set: HashSet<usize> = picks
                    .filter(|&b| i > 0 && b < 170)
                    .map(|b| usize::from(b) % i)
                    .collect();
                set.into_iter().collect()
            })
            .collect();
        let fates: Vec<Fate> = spec.iter().map(|s| fate(s.2)).collect();
        let requested: Vec<usize> = (0..spec.len()).filter(|&i| spec[i].3 != 0).collect();
        let targets: HashSet<TargetName> = requested.iter().map(|&i| name(i)).collect();
        let index: HashMap<TargetName, usize> = (0..spec.len()).map(|i| (name(i), i)).collect();
        let (graph, hashes) = dag(&kinds, &deps);
        let cache = Mutex::new(ArtifactCache::new());
        let policy = RetryPolicy::standard(MAX_ATTEMPTS, seed);

        // The action's own account: attempts per step.
        let attempts: Mutex<HashMap<BuildStep, u32>> = Mutex::new(HashMap::new());
        let report = RealExecutor::new(threads).execute_with_recovery(
            &graph, &targets, &hashes, &cache, &policy,
            |step| {
                let attempt = {
                    let mut a = attempts.lock();
                    let n = a.entry(step.clone()).or_insert(0);
                    *n += 1;
                    *n
                };
                let infra = |kind| StepOutcome::InfraFailure(InfraFault { kind, attempt });
                match fates[index[&step.target]] {
                    Fate::Pass => StepOutcome::Success,
                    Fate::Flaky(n) if attempt <= n.min(MAX_ATTEMPTS - 1) => {
                        infra(InfraFaultKind::Timeout)
                    }
                    Fate::Flaky(_) => StepOutcome::Success,
                    Fate::Red => StepOutcome::Failure(format!("{step} is red")),
                    Fate::Dead => infra(InfraFaultKind::WorkerCrash),
                }
            },
        );
        let attempts = attempts.into_inner();

        // Exactly once: no step twice in `executed`, and a step was
        // called more than once only to retry an infra fault.
        let position: HashMap<&BuildStep, usize> =
            report.executed.iter().enumerate().map(|(i, s)| (s, i)).collect();
        prop_assert_eq!(position.len(), report.executed.len(), "a step executed twice");
        for (step, &n) in &attempts {
            prop_assert!(targets.contains(&step.target), "{step} was never requested");
            let infra = report.infra_events.iter().filter(|(s, _)| s == step).count() as u32;
            let expected = match fates[index[&step.target]] {
                Fate::Pass => (1, 0),
                Fate::Flaky(k) => (k.min(MAX_ATTEMPTS - 1) + 1, k.min(MAX_ATTEMPTS - 1)),
                Fate::Red => (1, 0),
                Fate::Dead => (MAX_ATTEMPTS, MAX_ATTEMPTS),
            };
            prop_assert_eq!((n, infra), expected, "attempts and infra events of {}", step);
        }

        // Dependency order: a target whose action was called at all had
        // every requested dependency fully executed, and earlier.
        let steps_of = |i: usize| steps_for(kinds[i]).iter().map(move |&k| BuildStep::new(name(i), k));
        for &i in &requested {
            let first = steps_of(i).filter_map(|s| position.get(&s).copied()).min();
            let called = steps_of(i).any(|s| attempts.contains_key(&s));
            for &d in deps[i].iter().filter(|d| targets.contains(&name(**d))) {
                for dep_step in steps_of(d) {
                    let at = position.get(&dep_step).copied();
                    prop_assert!(!called || at.is_some(), "{} ran before {}", name(i), dep_step);
                    if let (Some(first), Some(at)) = (first, at) {
                        prop_assert!(at < first, "{} completed after {} started", dep_step, name(i));
                    }
                }
            }
        }

        // The counters add up to what the action saw.
        let calls: u32 = attempts.values().sum();
        let red_calls = attempts
            .keys()
            .filter(|s| fates[index[&s.target]] == Fate::Red)
            .count();
        prop_assert_eq!(
            report.executed.len() + report.infra_events.len() + red_calls,
            calls as usize
        );
        let retried = |s: &BuildStep| {
            let events = report.infra_events.iter().filter(|(e, _)| e == s).count() as u32;
            events.min(MAX_ATTEMPTS - 1)
        };
        prop_assert_eq!(report.infra_retries, attempts.keys().map(|s| u64::from(retried(s))).sum::<u64>());
        prop_assert_eq!(report.cache_hits, 0);

        // Verdict: green iff no called step was red or dead; a green run
        // executed every requested step, a red one names a culprit.
        let total: usize = requested.iter().map(|&i| steps_for(kinds[i]).len()).sum();
        let culprit = |f: Fate| attempts.keys().any(|s| fates[index[&s.target]] == f);
        prop_assert_eq!(report.failure.is_some(), culprit(Fate::Red));
        prop_assert_eq!(report.infra_failure.is_some(), culprit(Fate::Dead));
        if report.is_success() {
            prop_assert_eq!(report.executed.len(), total);
        }

        // Only final successes were cached: a second, all-green run hits
        // exactly the steps the first one executed and runs the rest.
        prop_assert_eq!(cache.lock().stats().entries, report.executed.len());
        let rerun = RealExecutor::new(threads)
            .execute_with_recovery(&graph, &targets, &hashes, &cache, &RetryPolicy::none(), |_| StepOutcome::Success);
        prop_assert!(rerun.is_success());
        prop_assert_eq!(rerun.cache_hits, report.executed.len());
        prop_assert_eq!(rerun.executed.len(), total - report.executed.len());
    }
}

/// A dependency chain has one ready target at a time: the worker that
/// finishes a link keeps the next for itself, so the whole chain runs
/// on one thread and nobody is woken before the end — run after run.
#[test]
fn a_chain_runs_on_one_worker_without_waking_the_others() {
    const LINKS: usize = 64;
    const THREADS: usize = 8;
    let deps: Vec<Vec<usize>> = (0..LINKS)
        .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let (graph, hashes, targets) = libraries(&deps);
    for run in 0..25 {
        let cache = Mutex::new(ArtifactCache::new());
        let ran_on: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let report = RealExecutor::new(THREADS).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| {
                ran_on.lock().insert(std::thread::current().id());
                StepOutcome::Success
            },
        );
        assert!(report.is_success());
        assert_eq!(report.executed.len(), LINKS);
        for (i, step) in report.executed.iter().enumerate() {
            assert_eq!(step.target, name(i), "run {run}: chain out of order");
        }
        assert_eq!(
            ran_on.lock().len(),
            1,
            "run {run}: the chain changed threads"
        );
        assert!(
            report.idle_wakeups <= (THREADS - 1) as u64,
            "run {run}: {} idle wake-ups on a chain",
            report.idle_wakeups
        );
    }
}

/// One root releases eight leaves at once: the finishing worker keeps
/// one and wakes a parked worker for each of the other seven, so all
/// eight are inside their step at the same moment.
#[test]
fn a_fan_out_wakes_one_worker_per_surplus_target() {
    const LEAVES: usize = 8;
    let deps: Vec<Vec<usize>> = (0..=LEAVES)
        .map(|i| if i == 0 { vec![] } else { vec![0] })
        .collect();
    let (graph, hashes, targets) = libraries(&deps);
    let cache = Mutex::new(ArtifactCache::new());
    let leaves = Rendezvous::new(LEAVES);
    let report = RealExecutor::new(LEAVES).execute_with_recovery(
        &graph,
        &targets,
        &hashes,
        &cache,
        &RetryPolicy::none(),
        |step| {
            if step.target == name(0) {
                // Give the seven helpers time to find nothing and park.
                std::thread::sleep(Duration::from_millis(20));
                StepOutcome::Success
            } else if leaves.meet() {
                StepOutcome::Success
            } else {
                StepOutcome::Failure(
                    "a leaf's siblings never started: a worker stayed parked".into(),
                )
            }
        },
    );
    assert!(report.is_success(), "failure: {:?}", report.failure);
    assert_eq!(report.executed.len(), LEAVES + 1);
    assert_eq!(report.executed[0].target, name(0));
}

/// The head of a chain fails while every other worker is parked waiting
/// for it: the abort wakes them all and the call returns at once — the
/// executor has no time-out to fall back on.
#[test]
fn a_failure_wakes_every_parked_worker() {
    let (graph, hashes, targets) = libraries(&[vec![], vec![0], vec![1]]);
    for red in [true, false] {
        let cache = Mutex::new(ArtifactCache::new());
        let started = Instant::now();
        let report = RealExecutor::new(4).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |step| {
                assert_eq!(step.target, name(0), "a dependent of the failed target ran");
                std::thread::sleep(Duration::from_millis(20));
                if red {
                    StepOutcome::Failure("red".into())
                } else {
                    StepOutcome::InfraFailure(InfraFault {
                        kind: InfraFaultKind::WorkerCrash,
                        attempt: 1,
                    })
                }
            },
        );
        assert_eq!(report.failure.is_some(), red);
        assert_eq!(report.infra_failure.is_some(), !red);
        assert!(report.executed.is_empty());
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}

/// A step action that panics never hands its target back. The workers
/// parked on it are woken and the panic reaches the caller; before, they
/// waited on that target for ever.
#[test]
fn a_panicking_action_unparks_the_workers_and_reaches_the_caller() {
    let (graph, hashes, targets) = libraries(&[vec![], vec![0], vec![0]]);
    let cache = Mutex::new(ArtifactCache::new());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        RealExecutor::new(3).execute_with_recovery(
            &graph,
            &targets,
            &hashes,
            &cache,
            &RetryPolicy::none(),
            |_| {
                std::thread::sleep(Duration::from_millis(20));
                panic!("step action panicked (expected by this test)")
            },
        )
    }));
    assert!(outcome.is_err());
}
