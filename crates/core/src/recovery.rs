//! Infra-failure recovery: rebuild accounting, quarantine of
//! chronically flaky targets, and the audit log of every recovery
//! decision.
//!
//! The paper's Section 4 proof of the always-green invariant assumes a
//! red build implicates the change under test. Infra failures break the
//! implication, so recovery decisions must themselves be auditable:
//! every retry, rebuild, quarantine entry, and infra-rejection is
//! recorded as a [`RecoveryEvent`], and the quarantine list is surfaced
//! through [`crate::audit`] next to the greenness checks. Determinism is
//! preserved end to end: faults are seeded, backoff schedules are pure
//! functions, so two runs with equal seeds produce equal logs.

use sq_exec::{BuildStep, InfraFault, RetryPolicy};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Build-level (as opposed to step-level) infra-recovery policy.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Step-level retry policy handed to the build controller.
    pub retry: RetryPolicy,
    /// How many times an infra-red *build* is redone before the change
    /// is rejected with an explicit infrastructure reason.
    pub max_rebuilds: u32,
    /// Infra-fault observations on one target before it is quarantined.
    pub quarantine_threshold: u32,
}

impl RecoveryConfig {
    /// No recovery: infra failures surface immediately (the seed
    /// behaviour before the failure model existed).
    pub fn disabled() -> Self {
        RecoveryConfig {
            retry: RetryPolicy::none(),
            max_rebuilds: 0,
            quarantine_threshold: u32::MAX,
        }
    }

    /// Production-shaped defaults: 3 step attempts with exponential
    /// backoff, 3 whole-build redos, quarantine after 3 observed flakes.
    pub fn standard(seed: u64) -> Self {
        RecoveryConfig {
            retry: RetryPolicy::standard(3, seed),
            max_rebuilds: 3,
            quarantine_threshold: 3,
        }
    }
}

/// One recovery decision, recorded in the audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// Step-level infra faults were absorbed by in-place retries during
    /// one build of `subject`.
    StepRetries {
        /// The change (ticket or change id) whose build retried.
        subject: String,
        /// How many step attempts were retried.
        retries: u64,
    },
    /// A whole build of `subject` ended infra-red and was scheduled for
    /// rebuild `attempt` (1-based).
    Rebuild {
        /// The change being rebuilt.
        subject: String,
        /// Rebuild ordinal.
        attempt: u32,
        /// The step whose retries were exhausted.
        step: BuildStep,
        /// The final fault observed.
        fault: InfraFault,
    },
    /// A target crossed the flake threshold and entered quarantine.
    Quarantined {
        /// The chronically flaky target.
        target: String,
        /// Total infra faults observed on it so far.
        observations: u32,
    },
    /// The rebuild budget ran out: the change was rejected for
    /// infrastructure reasons (explicitly *not* blamed on the change).
    InfraRejected {
        /// The rejected change.
        subject: String,
        /// Builds attempted in total.
        attempts: u32,
    },
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEvent::StepRetries { subject, retries } => {
                write!(f, "{subject}: absorbed {retries} step retr(y/ies)")
            }
            RecoveryEvent::Rebuild {
                subject,
                attempt,
                step,
                fault,
            } => write!(
                f,
                "{subject}: rebuild #{attempt} after step '{step}' hit {fault}"
            ),
            RecoveryEvent::Quarantined {
                target,
                observations,
            } => write!(f, "quarantined {target} after {observations} infra faults"),
            RecoveryEvent::InfraRejected { subject, attempts } => write!(
                f,
                "{subject}: rejected after {attempts} infra-red builds (infrastructure, \
                 not the change)"
            ),
        }
    }
}

/// Log of recovery decisions: lifetime totals per kind of decision, and
/// the most recent [`RecoveryLog::WINDOW`] events. A long-lived server
/// on flaky infrastructure pushes without bound, so the log keeps a
/// bounded window and counts what scrolls out of it.
#[derive(Debug, Clone, Default)]
pub struct RecoveryLog {
    events: VecDeque<RecoveryEvent>,
    step_retries: u64,
    rebuilds: usize,
    infra_rejections: usize,
}

impl RecoveryLog {
    /// How many of the most recent events are kept.
    pub const WINDOW: usize = 1024;

    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event, dropping the oldest once the window is full.
    pub fn push(&mut self, event: RecoveryEvent) {
        match &event {
            RecoveryEvent::StepRetries { retries, .. } => self.step_retries += retries,
            RecoveryEvent::Rebuild { .. } => self.rebuilds += 1,
            RecoveryEvent::InfraRejected { .. } => self.infra_rejections += 1,
            RecoveryEvent::Quarantined { .. } => {}
        }
        if self.events.len() == Self::WINDOW {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// The most recent events, oldest first, in decision order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &RecoveryEvent> {
        self.events.iter()
    }

    /// Total step retries absorbed since the log was created.
    pub fn step_retries(&self) -> u64 {
        self.step_retries
    }

    /// Whole-build rebuilds scheduled since the log was created.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Changes rejected for infrastructure reasons since the log was
    /// created.
    pub fn infra_rejections(&self) -> usize {
        self.infra_rejections
    }
}

/// Flake accounting with a quarantine threshold.
///
/// Keyed generically: the service quarantines build targets, the
/// simulator quarantines changes (its builds have no per-target
/// granularity). `BTreeMap`/`BTreeSet` keep iteration order — and hence
/// logs and reports — deterministic.
#[derive(Debug, Clone)]
pub struct QuarantineList<K: Ord + Clone> {
    threshold: u32,
    counts: BTreeMap<K, u32>,
    quarantined: BTreeSet<K>,
}

impl<K: Ord + Clone> QuarantineList<K> {
    /// An empty list quarantining after `threshold` observations.
    /// Panics if the threshold is zero (everything would quarantine
    /// before its first flake).
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "quarantine threshold must be positive");
        QuarantineList {
            threshold,
            counts: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        }
    }

    /// Record one infra-fault observation on `key`. Returns the total
    /// observation count if the key *newly* crossed the threshold
    /// (callers log exactly one quarantine event per key).
    pub fn record_flake(&mut self, key: K) -> Option<u32> {
        let count = self.counts.entry(key.clone()).or_insert(0);
        *count += 1;
        if *count >= self.threshold && self.quarantined.insert(key) {
            Some(*count)
        } else {
            None
        }
    }

    /// Restore a quarantined key from durable state: set its observation
    /// count and mark it quarantined without re-announcing (recovery
    /// replays the original `Quarantined` event; it must not log a new
    /// one).
    pub fn restore(&mut self, key: K, observations: u32) {
        self.counts.insert(key.clone(), observations);
        self.quarantined.insert(key);
    }

    /// True iff `key` is quarantined.
    pub fn is_quarantined(&self, key: &K) -> bool {
        self.quarantined.contains(key)
    }

    /// Observation count for `key`.
    pub fn observations(&self, key: &K) -> u32 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The quarantined keys, in order.
    pub fn quarantined(&self) -> impl Iterator<Item = &K> {
        self.quarantined.iter()
    }

    /// Number of quarantined keys.
    pub fn len(&self) -> usize {
        self.quarantined.len()
    }

    /// True iff nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_fires_exactly_once_at_threshold() {
        let mut q: QuarantineList<&str> = QuarantineList::new(3);
        assert_eq!(q.record_flake("//a:a"), None);
        assert_eq!(q.record_flake("//a:a"), None);
        assert!(!q.is_quarantined(&"//a:a"));
        assert_eq!(q.record_flake("//a:a"), Some(3));
        assert!(q.is_quarantined(&"//a:a"));
        // Further flakes count but do not re-announce.
        assert_eq!(q.record_flake("//a:a"), None);
        assert_eq!(q.observations(&"//a:a"), 4);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn restore_rebuilds_quarantine_without_reannouncing() {
        let mut q: QuarantineList<&str> = QuarantineList::new(3);
        q.restore("//flaky:t", 5);
        assert!(q.is_quarantined(&"//flaky:t"));
        assert_eq!(q.observations(&"//flaky:t"), 5);
        // Already quarantined: further flakes never re-announce.
        assert_eq!(q.record_flake("//flaky:t"), None);
        assert_eq!(q.observations(&"//flaky:t"), 6);
    }

    #[test]
    fn independent_keys_do_not_interfere() {
        let mut q: QuarantineList<u32> = QuarantineList::new(2);
        q.record_flake(1);
        q.record_flake(2);
        assert!(q.is_empty());
        q.record_flake(1);
        assert!(q.is_quarantined(&1));
        assert!(!q.is_quarantined(&2));
        assert_eq!(q.quarantined().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn log_counts_by_event_kind() {
        let mut log = RecoveryLog::new();
        log.push(RecoveryEvent::StepRetries {
            subject: "T1".into(),
            retries: 4,
        });
        log.push(RecoveryEvent::StepRetries {
            subject: "T2".into(),
            retries: 1,
        });
        log.push(RecoveryEvent::Quarantined {
            target: "//flaky:t".into(),
            observations: 3,
        });
        log.push(RecoveryEvent::InfraRejected {
            subject: "T9".into(),
            attempts: 4,
        });
        assert_eq!(log.step_retries(), 5);
        assert_eq!(log.rebuilds(), 0);
        assert_eq!(log.infra_rejections(), 1);
        assert_eq!(log.events().len(), 4);
    }

    #[test]
    fn log_keeps_a_window_of_events_and_totals_of_everything() {
        use sq_build::TargetName;
        use sq_exec::{InfraFaultKind, StepKind};
        let event = |i: u32| match i % 4 {
            0 => RecoveryEvent::StepRetries {
                subject: format!("T{i}"),
                retries: u64::from(i % 7),
            },
            1 => RecoveryEvent::Rebuild {
                subject: format!("T{i}"),
                attempt: i,
                step: BuildStep::new(
                    TargetName::resolve("//t:t", "").unwrap(),
                    StepKind::RunTests,
                ),
                fault: InfraFault {
                    kind: InfraFaultKind::Timeout,
                    attempt: i,
                },
            },
            2 => RecoveryEvent::Quarantined {
                target: format!("//t:{i}"),
                observations: i,
            },
            _ => RecoveryEvent::InfraRejected {
                subject: format!("T{i}"),
                attempts: i,
            },
        };
        let pushed: Vec<RecoveryEvent> = (0..5_000).map(event).collect();
        let mut log = RecoveryLog::new();
        for e in &pushed {
            log.push(e.clone());
        }
        // Totals are a straight count over everything pushed...
        let retries: u64 = (0..5_000u64).filter(|i| i % 4 == 0).map(|i| i % 7).sum();
        assert_eq!(log.step_retries(), retries);
        assert_eq!(log.rebuilds(), 1_250);
        assert_eq!(log.infra_rejections(), 1_250);
        // ...while the events kept are the last window, in order.
        assert_eq!(log.events().len(), RecoveryLog::WINDOW);
        assert!(log.events().eq(&pushed[5_000 - RecoveryLog::WINDOW..]));
    }

    #[test]
    fn config_presets() {
        let off = RecoveryConfig::disabled();
        assert_eq!(off.max_rebuilds, 0);
        assert!(!off.retry.should_retry(1));
        let on = RecoveryConfig::standard(5);
        assert!(on.retry.should_retry(1));
        assert!(on.max_rebuilds > 0);
    }

    #[test]
    fn events_render_human_readably() {
        let e = RecoveryEvent::Quarantined {
            target: "//flaky:t".into(),
            observations: 3,
        };
        assert!(e.to_string().contains("//flaky:t"));
        let r = RecoveryEvent::InfraRejected {
            subject: "T4".into(),
            attempts: 4,
        };
        assert!(r.to_string().contains("infrastructure"));
    }
}
