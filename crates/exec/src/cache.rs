//! The artifact cache.
//!
//! "The build controller also leverages caching mechanisms that exist in
//! build systems to reuse generated artifacts, instead of building them
//! from scratch" (paper Section 6). Artifacts are keyed by the target's
//! Algorithm-1 hash plus the step kind: because the hash folds in the
//! full transitive input closure, a hit is always sound to reuse — the
//! hermeticity property of the build system.
//!
//! Soundness has a second leg under the failure model: an artifact may
//! only enter the cache if the step that produced it *finally*
//! succeeded. A step that infra-failed, or was retried and then failed,
//! produced either nothing or garbage; caching it would poison every
//! later build that hashes to the same key. [`ArtifactCache::insert_if_success`]
//! is the guarded entry point the executor uses.

use crate::executor::StepOutcome;
use crate::step::StepKind;
use sq_build::TargetHash;
use std::collections::HashMap;

/// Opaque identifier of a cached artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactId(pub u64);

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an artifact.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Artifacts currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Record these statistics into a metrics registry under the
    /// `cache.` namespace (counters plus a hit-rate gauge). `hits` and
    /// `misses` are cumulative lifetime totals, so they reconcile via
    /// [`record_total`](sq_obs::MetricsRegistry::record_total) — a
    /// periodic exporter handing the same snapshot over twice must not
    /// double-count.
    pub fn record_into(&self, metrics: &mut sq_obs::MetricsRegistry) {
        metrics.record_total("cache.hits", self.hits);
        metrics.record_total("cache.misses", self.misses);
        metrics.set_gauge("cache.entries", self.entries as f64);
        metrics.set_gauge("cache.hit_rate", self.hit_rate());
    }
}

/// A content-keyed artifact cache.
#[derive(Debug, Clone, Default)]
pub struct ArtifactCache {
    map: HashMap<(TargetHash, StepKind), ArtifactId>,
    next_id: u64,
    hits: u64,
    misses: u64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the artifact for `(hash, kind)`, recording hit/miss stats.
    pub fn lookup(&mut self, hash: TargetHash, kind: StepKind) -> Option<ArtifactId> {
        match self.map.get(&(hash, kind)) {
            Some(&id) => {
                self.hits += 1;
                Some(id)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without touching stats.
    pub fn contains(&self, hash: TargetHash, kind: StepKind) -> bool {
        self.map.contains_key(&(hash, kind))
    }

    /// Record a freshly built artifact, returning its id. Inserting an
    /// already-present key returns the existing id (builds are
    /// deterministic; the first result stands).
    pub fn insert(&mut self, hash: TargetHash, kind: StepKind) -> ArtifactId {
        if let Some(&id) = self.map.get(&(hash, kind)) {
            return id;
        }
        let id = ArtifactId(self.next_id);
        self.next_id += 1;
        self.map.insert((hash, kind), id);
        id
    }

    /// Record an artifact only if `outcome` is a final success; any
    /// other outcome leaves the cache untouched and returns `None`
    /// (the cache-poisoning guard of the failure model).
    pub fn insert_if_success(
        &mut self,
        hash: TargetHash,
        kind: StepKind,
        outcome: &StepOutcome,
    ) -> Option<ArtifactId> {
        if outcome.is_success() {
            Some(self.insert(hash, kind))
        } else {
            None
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }

    /// Drop every entry (tests and long-running sims use this to bound
    /// memory; production would evict by LRU instead).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_build::{BuildGraph, RuleKind, Target, TargetHashes, TargetName};
    use sq_vcs::{ObjectStore, RepoPath, Tree};
    use std::str::FromStr;

    fn hash_of(content: &str) -> TargetHash {
        // Build a one-target graph whose source has `content` and read
        // the resulting Algorithm-1 hash.
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        let p = RepoPath::new("a/s.rs").unwrap();
        let id = store.put(content.as_bytes().to_vec());
        tree.insert(p.clone(), id).unwrap();
        let graph = BuildGraph::from_targets([Target::new(
            TargetName::from_str("//a:a").unwrap(),
            RuleKind::Library,
            vec![p],
            vec![],
        )])
        .unwrap();
        let hashes = TargetHashes::compute(&graph, &tree, &store).unwrap();
        hashes.get(&TargetName::from_str("//a:a").unwrap()).unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = ArtifactCache::new();
        let h = hash_of("v1");
        assert!(cache.lookup(h, StepKind::Compile).is_none());
        let id = cache.insert(h, StepKind::Compile);
        assert_eq!(cache.lookup(h, StepKind::Compile), Some(id));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_step_kinds_are_distinct_entries() {
        let mut cache = ArtifactCache::new();
        let h = hash_of("v1");
        let a = cache.insert(h, StepKind::Compile);
        let b = cache.insert(h, StepKind::RunTests);
        assert_ne!(a, b);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn distinct_hashes_do_not_collide() {
        let mut cache = ArtifactCache::new();
        let h1 = hash_of("v1");
        let h2 = hash_of("v2");
        cache.insert(h1, StepKind::Compile);
        assert!(cache.lookup(h2, StepKind::Compile).is_none());
    }

    #[test]
    fn double_insert_is_idempotent() {
        let mut cache = ArtifactCache::new();
        let h = hash_of("v1");
        let a = cache.insert(h, StepKind::Compile);
        let b = cache.insert(h, StepKind::Compile);
        assert_eq!(a, b);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn contains_does_not_affect_stats() {
        let mut cache = ArtifactCache::new();
        let h = hash_of("v1");
        assert!(!cache.contains(h, StepKind::Compile));
        cache.insert(h, StepKind::Compile);
        assert!(cache.contains(h, StepKind::Compile));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn clear_empties() {
        let mut cache = ArtifactCache::new();
        let h = hash_of("v1");
        cache.insert(h, StepKind::Compile);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup(h, StepKind::Compile).is_none());
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        let cache = ArtifactCache::new();
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn guarded_insert_refuses_non_success_outcomes() {
        use crate::fault::{InfraFault, InfraFaultKind};
        let mut cache = ArtifactCache::new();
        let h = hash_of("v1");
        let fault = StepOutcome::InfraFailure(InfraFault {
            kind: InfraFaultKind::WorkerCrash,
            attempt: 1,
        });
        assert!(cache
            .insert_if_success(h, StepKind::Compile, &fault)
            .is_none());
        let failed = StepOutcome::Failure("compile error".into());
        assert!(cache
            .insert_if_success(h, StepKind::Compile, &failed)
            .is_none());
        assert_eq!(cache.stats().entries, 0);
        assert!(!cache.contains(h, StepKind::Compile));
        // A final success does insert.
        assert!(cache
            .insert_if_success(h, StepKind::Compile, &StepOutcome::Success)
            .is_some());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn stats_export_is_idempotent_across_repeated_exports() {
        // Regression for the cumulative-total-into-counter bug class:
        // hits/misses are lifetime totals, so exporting the same
        // snapshot twice must equal exporting it once.
        let mut cache = ArtifactCache::new();
        let h = hash_of("v1");
        cache.lookup(h, StepKind::Compile); // miss
        cache.insert(h, StepKind::Compile);
        cache.lookup(h, StepKind::Compile); // hit
        let stats = cache.stats();
        sq_obs::assert_idempotent_export(|m| stats.record_into(m));
        let mut m = sq_obs::MetricsRegistry::new();
        stats.record_into(&mut m);
        stats.record_into(&mut m);
        assert_eq!(m.counter("cache.hits"), 1);
        assert_eq!(m.counter("cache.misses"), 1);
    }
}
