//! Deterministic fault injection and infra-failure recovery.
//!
//! The paper's always-green argument (Section 4) implicitly assumes a
//! red build means a bad change. Production fleets violate that: Uber's
//! follow-up *CI at Scale* reports flaky tests and infrastructure
//! failures as the dominant source of wrongly-rejected changes. This
//! module supplies the two pieces needed to study the guarantee under
//! realistic noise:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seeded model of *infra*
//!   failures (worker crashes, timeouts, transient tooling errors) that
//!   wraps any step action and injects [`StepOutcome::InfraFailure`]
//!   at one configured rate. Decisions are a pure function of `(seed,
//!   target, step kind, attempt)`, so they are bit-identical across
//!   runs *and* independent of worker-thread interleaving — no shared
//!   RNG stream whose draw order could differ.
//! * [`RetryPolicy`] — bounded retries with deterministic exponential
//!   backoff, charged as build time. Genuine failures
//!   ([`StepOutcome::Failure`]) are never retried: retrying a
//!   compile error cannot turn a bad change good, it only hides the
//!   distinction the planner needs.
//!
//! [`StepOutcome::InfraFailure`]: crate::executor::StepOutcome::InfraFailure
//! [`StepOutcome::Failure`]: crate::executor::StepOutcome::Failure

use crate::executor::StepOutcome;
use crate::step::BuildStep;
use parking_lot::Mutex;
use sq_sim::SimDuration;
use std::collections::HashMap;
use std::fmt;

/// The taxonomy of infrastructure failures (change-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InfraFaultKind {
    /// The worker executing the step died (OOM-kill, hardware loss).
    WorkerCrash,
    /// The step exceeded its time budget for environmental reasons.
    Timeout,
    /// A transient tooling error (fetch failure, signing service blip).
    TransientTooling,
}

impl InfraFaultKind {
    /// All kinds, in the order the injector cycles through them.
    pub const ALL: [InfraFaultKind; 3] = [
        InfraFaultKind::WorkerCrash,
        InfraFaultKind::Timeout,
        InfraFaultKind::TransientTooling,
    ];
}

impl fmt::Display for InfraFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InfraFaultKind::WorkerCrash => "worker-crash",
            InfraFaultKind::Timeout => "timeout",
            InfraFaultKind::TransientTooling => "transient-tooling",
        };
        f.write_str(s)
    }
}

/// One concrete infrastructure failure observed on a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfraFault {
    /// What kind of infra failure.
    pub kind: InfraFaultKind,
    /// Which attempt (1-based) it hit.
    pub attempt: u32,
}

impl fmt::Display for InfraFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (attempt {})", self.kind, self.attempt)
    }
}

/// SplitMix64 finalizer: a strong 64-bit mixer, the same one the sim
/// crate uses for RNG seeding. Pure function — safe under concurrency.
/// Public so other fault models (e.g. the simulator's) draw decisions
/// from the same deterministic primitive.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Fold a step identity into a 64-bit hash (FNV-1a over the target name
/// plus the step-kind discriminant).
fn step_hash(step: &BuildStep) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in step.target.to_string().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h ^ mix64(step.kind as u64)
}

/// Map a 64-bit hash to a uniform fraction in `[0, 1)`.
pub fn fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded plan of infrastructure faults: every attempt of every step
/// fails with the same probability.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
}

impl FaultPlan {
    /// A plan injecting faults uniformly at `rate` on every step.
    /// Panics unless `rate` is a probability in `[0, 1]`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        FaultPlan { seed, rate }
    }

    /// A plan that never injects (identity wrapper).
    pub fn none() -> Self {
        Self::uniform(0, 0.0)
    }

    /// The seed the plan draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide whether `attempt` (1-based) of `step` hits an infra fault.
    ///
    /// Pure function of `(seed, step, attempt)` — identical across runs
    /// and thread schedules.
    pub fn decide(&self, step: &BuildStep, attempt: u32) -> Option<InfraFault> {
        if self.rate <= 0.0 {
            return None;
        }
        let h = mix64(self.seed ^ step_hash(step) ^ mix64(u64::from(attempt)));
        if fraction(h) >= self.rate {
            return None;
        }
        // A second independent draw picks the fault kind.
        let pick = mix64(h ^ 0xF4017) as usize % InfraFaultKind::ALL.len();
        Some(InfraFault {
            kind: InfraFaultKind::ALL[pick],
            attempt,
        })
    }
}

/// Wraps a step action, injecting faults from a [`FaultPlan`].
///
/// The injector counts invocations per step so a retried step sees a
/// fresh draw on each attempt (a flaky step can pass on retry). The
/// counter is behind a mutex; the *decisions* stay deterministic because
/// they depend only on the per-step attempt ordinal, not on global
/// ordering.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    attempts: Mutex<HashMap<BuildStep, u32>>,
}

impl FaultInjector {
    /// An injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Reset attempt counters (a fresh build of the same steps re-draws
    /// from attempt 1 — used when a whole build is retried).
    pub fn reset(&self) {
        self.attempts.lock().clear();
    }

    /// Decide the outcome of the next attempt of `step`, injecting a
    /// fault or delegating to `real` for the genuine result.
    pub fn run<F>(&self, step: &BuildStep, real: F) -> StepOutcome
    where
        F: FnOnce(&BuildStep) -> StepOutcome,
    {
        let attempt = {
            let mut attempts = self.attempts.lock();
            let n = attempts.entry(step.clone()).or_insert(0);
            *n += 1;
            *n
        };
        match self.plan.decide(step, attempt) {
            Some(fault) => StepOutcome::InfraFailure(fault),
            None => real(step),
        }
    }
}

/// Bounded retries with deterministic exponential backoff.
///
/// Only [`StepOutcome::InfraFailure`] is retried; genuine failures
/// resolve immediately. Backoff for attempt `k` (1-based, i.e. the delay
/// charged before attempt `k+1`) is `base · multiplier^(k−1)`, capped at
/// `max_backoff`, then scaled by a deterministic per-seed jitter in
/// `[0.5, 1.0)` — the classic decorrelated schedule, but reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per step (≥ 1). `1` means never retry.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base: SimDuration,
    /// Multiplier applied per further attempt. Must be ≥ 1.
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: SimDuration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl RetryPolicy {
    /// Never retry (attempt bound 1, zero backoff).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: SimDuration::ZERO,
            multiplier: 1.0,
            max_backoff: SimDuration::ZERO,
            seed: 0,
        }
    }

    /// A sensible production-shaped default: up to `max_attempts`
    /// attempts, 10 s base backoff doubling to a 5 min cap.
    pub fn standard(max_attempts: u32, seed: u64) -> Self {
        assert!(max_attempts >= 1, "need at least one attempt");
        RetryPolicy {
            max_attempts,
            base: SimDuration::from_secs(10),
            multiplier: 2.0,
            max_backoff: SimDuration::from_mins(5),
            seed,
        }
    }

    /// True iff a step that infra-failed on `attempt` (1-based) should
    /// run again.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }

    /// The backoff charged after failed attempt `attempt` (1-based),
    /// before attempt `attempt + 1` starts.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        assert!(attempt >= 1, "attempts are 1-based");
        let exp = self.multiplier.powi(attempt as i32 - 1);
        let raw = self.base.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        // Deterministic jitter in [0.5, 1.0): same seed ⇒ same schedule.
        let jitter = 0.5 + 0.5 * fraction(mix64(self.seed ^ mix64(u64::from(attempt))));
        SimDuration::from_secs_f64(capped * jitter)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepKind;
    use sq_build::TargetName;
    use std::str::FromStr;

    fn step(name: &str, kind: StepKind) -> BuildStep {
        BuildStep::new(TargetName::from_str(name).unwrap(), kind)
    }

    #[test]
    fn zero_rate_never_injects() {
        let plan = FaultPlan::none();
        for attempt in 1..50 {
            assert_eq!(
                plan.decide(&step("//a:a", StepKind::Compile), attempt),
                None
            );
        }
    }

    #[test]
    fn unit_rate_always_injects() {
        let plan = FaultPlan::uniform(7, 1.0);
        for attempt in 1..50 {
            assert!(plan
                .decide(&step("//a:a", StepKind::Compile), attempt)
                .is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let s = step("//pkg:t", StepKind::RunTests);
        let a = FaultPlan::uniform(42, 0.5);
        let b = FaultPlan::uniform(42, 0.5);
        let c = FaultPlan::uniform(43, 0.5);
        let seq = |p: &FaultPlan| (1..200).map(|k| p.decide(&s, k)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b), "same seed must give identical faults");
        assert_ne!(seq(&a), seq(&c), "distinct seeds must diverge");
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let plan = FaultPlan::uniform(9, 0.3);
        let mut hits = 0;
        let n = 20_000;
        for i in 0..n {
            let s = step(&format!("//p{i}:t"), StepKind::Compile);
            if plan.decide(&s, 1).is_some() {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / f64::from(n);
        assert!((rate - 0.3).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn injector_draws_fresh_per_attempt() {
        // With rate 1.0 on attempt draws a retried step keeps failing;
        // with a 0.5 plan some attempt eventually passes through.
        let plan = FaultPlan::uniform(5, 0.5);
        let injector = FaultInjector::new(plan);
        let s = step("//a:a", StepKind::Compile);
        let mut saw_success = false;
        for _ in 0..64 {
            if injector.run(&s, |_| StepOutcome::Success) == StepOutcome::Success {
                saw_success = true;
                break;
            }
        }
        assert!(saw_success, "a 0.5-flaky step must eventually pass");
    }

    #[test]
    fn injector_reset_replays_identically() {
        let mk = || FaultInjector::new(FaultPlan::uniform(11, 0.4));
        let s = step("//a:a", StepKind::Link);
        let run = |inj: &FaultInjector| {
            (0..32)
                .map(|_| inj.run(&s, |_| StepOutcome::Success))
                .collect::<Vec<_>>()
        };
        let i1 = mk();
        let first = run(&i1);
        i1.reset();
        let replay = run(&i1);
        let second = run(&mk());
        assert_eq!(first, replay);
        assert_eq!(first, second);
    }

    #[test]
    fn injector_never_masks_genuine_failures() {
        // Where no fault fires, the real outcome (including Failure)
        // passes through untouched.
        let injector = FaultInjector::new(FaultPlan::none());
        let s = step("//a:a", StepKind::Compile);
        assert_eq!(
            injector.run(&s, |_| StepOutcome::Failure("bad code".into())),
            StepOutcome::Failure("bad code".into())
        );
    }

    #[test]
    fn retry_policy_none_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.should_retry(1));
        assert_eq!(p.backoff(5), SimDuration::ZERO);
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base: SimDuration::from_secs(10),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(60),
            seed: 3,
        };
        // Jitter is within [0.5, 1.0): bounds scale accordingly.
        for a in 1..=9 {
            let b = p.backoff(a).as_secs_f64();
            let raw = (10.0 * 2f64.powi(a as i32 - 1)).min(60.0);
            assert!(b >= raw * 0.5 - 1e-9 && b < raw + 1e-9, "attempt {a}: {b}");
        }
        // Deeply-retried attempts all hit the cap band.
        assert!(p.backoff(9).as_secs_f64() <= 60.0);
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let p1 = RetryPolicy::standard(6, 77);
        let p2 = RetryPolicy::standard(6, 77);
        let p3 = RetryPolicy::standard(6, 78);
        let sched = |p: &RetryPolicy| (1..=8).map(|a| p.backoff(a)).collect::<Vec<_>>();
        assert_eq!(sched(&p1), sched(&p2));
        assert_ne!(sched(&p1), sched(&p3));
    }
}
