//! Infra-failure recovery: the rebuild policy and quarantine of
//! chronically flaky targets.
//!
//! The paper's Section 4 proof of the always-green invariant assumes a
//! red build implicates the change under test. Infra failures break the
//! implication, so recovery decisions must themselves be auditable: the
//! service journals every rebuild, quarantine entry and infra-rejection
//! as a `ServiceEvent` (`SpeculationAborted`, `Quarantined`,
//! `Rejected { infra: true }`), and the quarantine list is surfaced
//! through [`crate::audit`] next to the greenness checks. Determinism is
//! preserved end to end: faults are seeded, backoff schedules are pure
//! functions, so two runs with equal seeds produce equal journals.

use sq_exec::RetryPolicy;
use std::collections::{BTreeMap, BTreeSet};

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
        assert!(q.is_empty());
        assert_eq!(q.record_flake("//a:a"), Some(3));
        assert_eq!(q.quarantined().collect::<Vec<_>>(), [&"//a:a"]);
        // Further flakes count but do not re-announce.
        assert_eq!(q.record_flake("//a:a"), None);
        assert_eq!(q.observations(&"//a:a"), 4);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn restore_rebuilds_quarantine_without_reannouncing() {
        let mut q: QuarantineList<&str> = QuarantineList::new(3);
        q.restore("//flaky:t", 5);
        assert_eq!(q.quarantined().collect::<Vec<_>>(), [&"//flaky:t"]);
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
        assert_eq!(q.quarantined().copied().collect::<Vec<_>>(), vec![1]);
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
}
