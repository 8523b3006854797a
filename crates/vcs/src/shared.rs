//! An insert-only map whose clones share storage.
//!
//! Objects and commits are keyed by the hash of their content, so a key
//! maps to one value for ever and entries are never removed or replaced.
//! That makes sharing safe: a clone reads the same maps as the original,
//! and only what either side inserts afterwards has to be kept apart.
//! Those later inserts go to a small overlay that is copied on the first
//! write after a clone, so a clone never sees the original's later
//! writes, nor the original the clone's.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Overlay size at which a co-owned frozen part is copied rather than
/// left shared. Bounds what the first write after a clone copies, whether
/// or not older clones are still alive; the copy of the frozen part
/// happens at most once per clone taken, so it is never more work than
/// the copy-on-every-clone map this replaces.
const OVERLAY_MAX: usize = 64;

/// The map: a large frozen part and a small overlay, both shared with
/// clones until written. `clone` is two pointer copies.
#[derive(Debug)]
pub(crate) struct SharedMap<K, V> {
    /// Written only while this map is its sole owner.
    frozen: Arc<HashMap<K, V>>,
    /// Inserted while a clone could still read `frozen`. At most
    /// `OVERLAY_MAX` entries, disjoint from `frozen`; copied before it is
    /// written if a clone shares it.
    overlay: Arc<HashMap<K, V>>,
}

impl<K, V> Clone for SharedMap<K, V> {
    fn clone(&self) -> Self {
        SharedMap {
            frozen: Arc::clone(&self.frozen),
            overlay: Arc::clone(&self.overlay),
        }
    }
}

impl<K, V> Default for SharedMap<K, V> {
    fn default() -> Self {
        SharedMap {
            frozen: Arc::default(),
            overlay: Arc::default(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SharedMap<K, V> {
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.frozen.get(key).or_else(|| self.overlay.get(key))
    }

    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.frozen.contains_key(key) || self.overlay.contains_key(key)
    }

    /// Insert unless present (the first value for a key stays).
    ///
    /// While clones share the frozen part the entry goes to the overlay,
    /// which is copied first if a clone shares it as well. Once this map
    /// is the sole owner again — every snapshot taken of it has been
    /// dropped — the overlay is folded into the frozen part in place; if
    /// the overlay fills up first, the frozen part is copied once and
    /// this map owns the copy.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.contains_key(&key) {
            return;
        }
        if Arc::get_mut(&mut self.frozen).is_none() && self.overlay.len() < OVERLAY_MAX {
            Arc::make_mut(&mut self.overlay).insert(key, value);
            return;
        }
        let frozen = Arc::make_mut(&mut self.frozen);
        if !self.overlay.is_empty() {
            let overlay = std::mem::take(&mut self.overlay);
            frozen.extend(overlay.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        frozen.insert(key, value);
    }

    pub(crate) fn len(&self) -> usize {
        self.frozen.len() + self.overlay.len()
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.frozen.values().chain(self.overlay.values())
    }
}

#[cfg(test)]
impl<K, V> SharedMap<K, V> {
    /// Entries kept apart from the frozen part: the most a write copies.
    pub(crate) fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// True iff both maps read the same frozen allocation.
    pub(crate) fn shares_frozen_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.frozen, &other.frozen)
    }

    /// True iff neither map has copied anything since one was cloned
    /// from the other.
    pub(crate) fn shares_all_with(&self, other: &Self) -> bool {
        self.shares_frozen_with(other) && Arc::ptr_eq(&self.overlay, &other.overlay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u32) -> SharedMap<u32, u32> {
        let mut m = SharedMap::default();
        for k in 0..n {
            m.insert(k, k);
        }
        m
    }

    #[test]
    fn sole_owner_inserts_in_place() {
        let m = filled(1_000);
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.overlay_len(), 0);
        assert_eq!(m.get(&7), Some(&7));
        assert_eq!(m.get(&1_000), None);
    }

    #[test]
    fn first_value_for_a_key_stays() {
        let mut m = filled(1);
        m.insert(0, 99);
        assert_eq!((m.get(&0), m.len()), (Some(&0), 1));
    }

    #[test]
    fn clone_and_original_are_isolated_both_ways() {
        let mut a = filled(10);
        let mut b = a.clone();
        assert!(a.shares_all_with(&b));
        a.insert(100, 1);
        b.insert(200, 2);
        assert!(a.contains_key(&100) && !a.contains_key(&200));
        assert!(b.contains_key(&200) && !b.contains_key(&100));
        assert_eq!((a.len(), b.len()), (11, 11));
        assert_eq!(a.values().count(), 11);
        // Still sharing: neither side copied the frozen part.
        assert!(a.shares_frozen_with(&b));
    }

    #[test]
    fn a_clone_taken_with_a_pending_overlay_shares_it_until_written() {
        let mut a = filled(10);
        let first = a.clone();
        a.insert(100, 1);
        let mut second = a.clone();
        assert!(second.shares_all_with(&a));
        assert!(second.contains_key(&100) && !first.contains_key(&100));
        second.insert(200, 2);
        a.insert(300, 3);
        assert!(second.contains_key(&200) && !second.contains_key(&300));
        assert!(a.contains_key(&300) && !a.contains_key(&200));
        assert_eq!((first.len(), a.len(), second.len()), (10, 12, 12));
    }

    #[test]
    fn overlay_folds_once_the_snapshot_is_dropped() {
        let mut a = filled(10);
        let snapshot = a.clone();
        a.insert(100, 1);
        assert_eq!(a.overlay_len(), 1);
        drop(snapshot);
        a.insert(101, 1);
        assert_eq!((a.overlay_len(), a.len()), (0, 12));
    }

    #[test]
    fn a_long_lived_snapshot_bounds_the_overlay_and_keeps_its_view() {
        let mut a = filled(10);
        let snapshot = a.clone();
        for k in 100..1_000 {
            a.insert(k, k);
            assert!(a.overlay_len() <= OVERLAY_MAX);
        }
        assert_eq!(a.len(), 910);
        assert_eq!(snapshot.len(), 10);
        assert!(!snapshot.contains_key(&100));
        // One copy made `a` the sole owner of its frozen part; later
        // inserts went in place.
        assert!(!a.shares_frozen_with(&snapshot));
        assert_eq!(a.overlay_len(), 0);
    }
}
