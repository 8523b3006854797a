//! The incremental conflict index: memoized per-change affected bitsets
//! plus a pairwise conflict matrix.
//!
//! The planner re-examines the pending window on every epoch; without an
//! index that means recomputing each change's affected set — and every
//! pairwise intersection — from scratch each round. The index caches one
//! [`BitSet`] per change, computed against the one trunk the index was
//! opened on: a **hit** returns the cached bitset untouched, and an entry
//! leaves only when its change resolves ([`ConflictIndex::forget`]).
//!
//! Pairwise decisions are then word-wise ANDs
//! ([`ConflictIndex::pair_conflict`]); [`ConflictIndex::matrix_serial`]
//! does a whole window at once. Every counter in [`IndexStats`] is a
//! pure function of the queries made, so same-seed runs export
//! byte-identical metrics.

use sq_build::BitSet;
use sq_obs::MetricsRegistry;
use sq_workload::ChangeId;
use std::collections::HashMap;

/// Identifies the mainline snapshot an index's affected bitsets are
/// computed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrunkHash(pub u64);

/// Counters the index accumulates; exported as `analyzer.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Bitset lookups served from cache.
    pub cache_hits: u64,
    /// Bitset lookups that had to compute: first sight of the change.
    pub cache_misses: u64,
    /// Pairwise conflict decisions made.
    pub pairs_checked: u64,
}

impl IndexStats {
    /// Export as `analyzer.*` counters. Safe to call with a
    /// same-seed-deterministic registry: all exported values are pure
    /// functions of the queries made. Counters reconcile via
    /// [`record_total`](MetricsRegistry::record_total): the fields are
    /// cumulative lifetime totals, so re-exporting the same snapshot
    /// periodically must not double-count.
    pub fn record_into(&self, metrics: &mut MetricsRegistry) {
        metrics.record_total("analyzer.cache_hits", self.cache_hits);
        metrics.record_total("analyzer.cache_misses", self.cache_misses);
        metrics.record_total("analyzer.pairs_checked", self.pairs_checked);
    }
}

/// Memoized per-change affected bitsets against one trunk.
#[derive(Debug, Clone)]
pub struct ConflictIndex {
    trunk: TrunkHash,
    entries: HashMap<ChangeId, BitSet>,
    stats: IndexStats,
}

impl ConflictIndex {
    /// An empty index against `trunk`.
    pub fn new(trunk: TrunkHash) -> Self {
        ConflictIndex {
            trunk,
            entries: HashMap::new(),
            stats: IndexStats::default(),
        }
    }

    /// The trunk entries are computed against.
    pub fn trunk(&self) -> TrunkHash {
        self.trunk
    }

    /// Drop a resolved change's entry for good.
    pub fn forget(&mut self, id: ChangeId) {
        self.entries.remove(&id);
    }

    /// The change's affected bitset, computed via `compute` only on a
    /// miss (first sight).
    pub fn ensure_with(&mut self, id: ChangeId, compute: impl FnOnce() -> BitSet) -> &BitSet {
        if self.entries.contains_key(&id) {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
            self.entries.insert(id, compute());
        }
        &self.entries[&id]
    }

    /// The cached bitset, if present.
    pub fn bits(&self, id: ChangeId) -> Option<&BitSet> {
        self.entries.get(&id)
    }

    /// Pairwise decision from the cached bitsets: word-wise AND. Both
    /// entries must be present (ensure first); a missing entry is treated
    /// as conflicting — conservative, never parallel-commit something the
    /// index cannot see.
    pub fn pair_conflict(&mut self, a: ChangeId, b: ChangeId) -> bool {
        self.stats.pairs_checked += 1;
        match (self.bits(a), self.bits(b)) {
            (Some(ba), Some(bb)) => ba.intersects(bb),
            _ => true,
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// The full pairwise matrix over `ids`, serially. Every id must have
    /// been [`ConflictIndex::ensure_with`]'d.
    pub fn matrix_serial(&mut self, ids: &[ChangeId]) -> ConflictMatrix {
        let n = ids.len();
        let bits: Vec<&BitSet> = ids
            .iter()
            .map(|&id| self.bits(id).expect("matrix over ensured entries"))
            .collect();
        let mut m = ConflictMatrix::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if bits[i].intersects(bits[j]) {
                    m.set(i, j);
                }
            }
        }
        self.stats.pairs_checked += (n * n.saturating_sub(1) / 2) as u64;
        m
    }
}

/// A symmetric pairwise conflict matrix over a window of n changes,
/// stored as the strict upper triangle in row-major, word-padded rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictMatrix {
    n: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl ConflictMatrix {
    /// An all-independent matrix over `n` changes.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        ConflictMatrix {
            n,
            words_per_row,
            words: vec![0; n * words_per_row],
        }
    }

    /// Window size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the window is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mark the pair `(i, j)` with `i < j` as conflicting.
    pub fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < j && j < self.n);
        self.words[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Whether changes `i` and `j` conflict (symmetric; `i == j` is
    /// false by convention).
    pub fn get(&self, i: usize, j: usize) -> bool {
        if i == j {
            return false;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        self.words[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// Number of conflicting pairs.
    pub fn conflict_count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Canonical byte serialization: the window size followed by the
    /// packed rows, little-endian. Two matrices over the same window are
    /// equal iff their bytes are equal — this is what the `conflict`
    /// suite's reference-vs-index gate compares.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<ChangeId> {
        (0..n).map(ChangeId).collect()
    }

    /// Change k's bitset: parts {k, k+1} — consecutive ids conflict.
    fn chain_bits(id: ChangeId) -> BitSet {
        [id.0 as u32, id.0 as u32 + 1].into_iter().collect()
    }

    fn ensured_index(n: u64) -> ConflictIndex {
        let mut ix = ConflictIndex::new(TrunkHash(1));
        for id in ids(n) {
            ix.ensure_with(id, || chain_bits(id));
        }
        ix
    }

    #[test]
    fn a_second_lookup_hits_until_the_change_is_forgotten() {
        let mut ix = ConflictIndex::new(TrunkHash(1));
        let a = ChangeId(7);
        ix.ensure_with(a, || chain_bits(a));
        ix.ensure_with(a, || panic!("second lookup must hit"));
        assert_eq!((ix.stats().cache_hits, ix.stats().cache_misses), (1, 1));

        // Resolution: forgotten for good.
        ix.forget(a);
        assert!(ix.bits(a).is_none());
        ix.ensure_with(a, || chain_bits(a));
        assert_eq!((ix.stats().cache_hits, ix.stats().cache_misses), (1, 2));
    }

    #[test]
    fn pair_conflict_is_bitset_intersection_and_conservative_on_misses() {
        let mut ix = ensured_index(4);
        assert!(ix.pair_conflict(ChangeId(0), ChangeId(1)), "share part 1");
        assert!(!ix.pair_conflict(ChangeId(0), ChangeId(2)), "disjoint");
        // Unknown change: conservative conflict.
        assert!(ix.pair_conflict(ChangeId(0), ChangeId(99)));
        assert_eq!(ix.stats().pairs_checked, 3);
    }

    #[test]
    fn serial_matrix_follows_the_chain_and_counts_the_whole_window() {
        let n = 33; // rows end mid-word
        let mut ix = ensured_index(n);
        let serial = ix.matrix_serial(&ids(n));
        // The chain structure: exactly n-1 conflicting pairs.
        assert_eq!(serial.conflict_count(), n - 1);
        assert!(serial.get(0, 1) && serial.get(1, 0), "symmetric accessor");
        assert!(!serial.get(0, 2) && !serial.get(0, 0));
        assert_eq!(
            ix.stats().pairs_checked,
            n * (n - 1) / 2,
            "whole window counted"
        );
    }

    #[test]
    fn empty_and_single_windows_are_fine() {
        let mut ix = ensured_index(1);
        let m0 = ix.matrix_serial(&[]);
        assert!(m0.is_empty());
        assert_eq!(m0.to_bytes(), ConflictMatrix::new(0).to_bytes());
        let m1 = ix.matrix_serial(&ids(1));
        assert_eq!(m1.len(), 1);
        assert_eq!(m1.conflict_count(), 0);
    }

    #[test]
    fn stats_export_under_the_analyzer_namespace() {
        let mut ix = ensured_index(3);
        ix.pair_conflict(ChangeId(0), ChangeId(1));
        let mut metrics = MetricsRegistry::new();
        ix.stats().record_into(&mut metrics);
        assert_eq!(metrics.counter("analyzer.cache_misses"), 3);
        assert_eq!(metrics.counter("analyzer.pairs_checked"), 1);
        // Regression for the cumulative-total-into-counter bug class:
        // a second export of the same snapshot must change nothing.
        ix.stats().record_into(&mut metrics);
        assert_eq!(metrics.counter("analyzer.cache_misses"), 3);
        assert_eq!(metrics.counter("analyzer.pairs_checked"), 1);
        let stats = ix.stats();
        sq_obs::assert_idempotent_export(|m| stats.record_into(m));
    }
}
