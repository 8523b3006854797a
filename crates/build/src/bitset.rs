//! Interned-id bitsets for Equation-6 intersection.
//!
//! The union-graph algorithm's Step 2 — "do the affected-name sets
//! intersect?" — is evaluated once per *pair* of pending changes, so over
//! a window of n changes it runs n(n-1)/2 times per epoch. Comparing
//! `BTreeMap<TargetName, _>` keys means hashing or ordering heap-allocated
//! label strings on every probe. This module removes the strings from the
//! hot path: an [`Interner`] maps each distinct [`TargetName`] (or any
//! other key) to a dense `u32` id exactly once, and a [`BitSet`] holds a
//! set of those ids as packed `u64` words, so set intersection becomes a
//! word-wise AND with an early exit on the first nonzero word.
//!
//! [`InternedAffected`] is the bridge from [`AffectedSet`]: the same
//! `target → state` information, with names replaced by interned ids.
//! Its [`InternedAffected::names_intersect`] agrees exactly with
//! [`AffectedSet::names_intersect`], and
//! [`InternedAffected::shared_disagreement`] agrees exactly with the §5.2
//! fast-path comparison (same target affected by both sides with
//! different resulting states) — both are property-tested against the
//! string-keyed originals in `tests/bitset_props.rs`.

use crate::affected::{AffectedSet, AffectedState};
use std::collections::HashMap;
use std::hash::Hash;

/// Maps distinct values to dense `u32` ids, first-come first-numbered.
///
/// Ids are stable for the interner's lifetime: interning the same value
/// twice returns the same id, and [`Interner::resolve`] inverts the
/// mapping. One interner must be shared by every set that will be
/// compared — ids from different interners are meaningless to each other.
#[derive(Debug, Clone, Default)]
pub struct Interner<T> {
    ids: HashMap<T, u32>,
    items: Vec<T>,
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            ids: HashMap::new(),
            items: Vec::new(),
        }
    }

    /// The id of `item`, assigning the next dense id on first sight.
    pub fn intern(&mut self, item: &T) -> u32 {
        if let Some(&id) = self.ids.get(item) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("more than u32::MAX interned items");
        self.ids.insert(item.clone(), id);
        self.items.push(item.clone());
        id
    }

    /// The id of `item` if it has been interned.
    pub fn get(&self, item: &T) -> Option<u32> {
        self.ids.get(item).copied()
    }

    /// The value behind an id.
    pub fn resolve(&self, id: u32) -> Option<&T> {
        self.items.get(id as usize)
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A set of dense `u32` ids packed 64 per word.
///
/// Grows on insert; never shrinks. Equality ignores trailing zero words,
/// so sets built with different capacities compare by content.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet { words: Vec::new() }
    }

    /// An empty set with room for ids `0..bits` without reallocating.
    pub fn with_capacity(bits: u32) -> Self {
        BitSet {
            words: vec![0; (bits as usize).div_ceil(64)],
        }
    }

    /// Insert an id; true iff it was not already present.
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// True iff the id is present.
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// True iff the two sets share any id: a word-wise AND with an early
    /// exit on the first nonzero word. This is the Eq.-6 Step-2 probe.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The ids present in both sets, ascending.
    pub fn intersection<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = u32> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (a, b))| {
                let mut word = a & b;
                std::iter::from_fn(move || {
                    if word == 0 {
                        return None;
                    }
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    Some(wi as u32 * 64 + bit)
                })
            })
    }

    /// All ids in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let bit = word.trailing_zeros();
                word &= word - 1;
                Some(wi as u32 * 64 + bit)
            })
        })
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no id is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The packed words (low id first). Trailing zero words may or may
    /// not be present; use [`BitSet::len`]/equality for content questions.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for id in iter {
            s.insert(id);
        }
        s
    }
}

/// An [`AffectedSet`] with names replaced by interned ids: the id bitset
/// for O(words) intersection plus each id's [`AffectedState`] for the
/// fast-path state comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedAffected {
    bits: BitSet,
    /// `(id, state)` sorted by id.
    states: Vec<(u32, AffectedState)>,
}

impl InternedAffected {
    /// Intern every affected name of `set` through `interner`.
    pub fn from_affected(
        set: &AffectedSet,
        interner: &mut Interner<crate::graph::TargetName>,
    ) -> Self {
        let mut states: Vec<(u32, AffectedState)> = set
            .iter()
            .map(|(name, &state)| (interner.intern(name), state))
            .collect();
        states.sort_unstable_by_key(|&(id, _)| id);
        let bits = states.iter().map(|&(id, _)| id).collect();
        InternedAffected { bits, states }
    }

    /// The id bitset.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }

    /// The state of an interned target, if affected.
    pub fn state_of(&self, id: u32) -> Option<&AffectedState> {
        self.states
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|i| &self.states[i].1)
    }

    /// Number of affected targets.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True iff no target was affected.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Exactly [`AffectedSet::names_intersect`], as a word-wise AND.
    pub fn names_intersect(&self, other: &InternedAffected) -> bool {
        self.bits.intersects(&other.bits)
    }

    /// The §5.2 fast-path comparison: true iff some target is affected
    /// by both sides with *different* resulting states. Agrees exactly
    /// with the check inside [`crate::conflict::fast_path_conflict`]
    /// when both sets were interned through the same interner.
    pub fn shared_disagreement(&self, other: &InternedAffected) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.bits
            .intersection(&other.bits)
            .any(|id| self.state_of(id) != other.state_of(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TargetName;
    use std::str::FromStr;

    #[test]
    fn interner_assigns_dense_stable_ids() {
        let mut i: Interner<String> = Interner::new();
        let a = i.intern(&"alpha".to_string());
        let b = i.intern(&"beta".to_string());
        assert_eq!((a, b), (0, 1));
        assert_eq!(i.intern(&"alpha".to_string()), 0, "re-intern is stable");
        assert_eq!(i.get(&"beta".to_string()), Some(1));
        assert_eq!(i.get(&"gamma".to_string()), None);
        assert_eq!(i.resolve(0), Some(&"alpha".to_string()));
        assert_eq!(i.resolve(2), None);
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn bitset_insert_contains_iter() {
        let mut s = BitSet::new();
        assert!(s.is_empty());
        for id in [3, 64, 64, 200, 0] {
            s.insert(id);
        }
        assert!(!s.insert(200), "duplicate insert reports not-fresh");
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 64, 200]);
        assert!(s.contains(64));
        assert!(!s.contains(65));
        assert!(!s.contains(100_000), "probe beyond capacity is false");
    }

    #[test]
    fn bitset_intersection_matches_naive() {
        let a: BitSet = [1u32, 63, 64, 127, 500].into_iter().collect();
        let b: BitSet = [2u32, 64, 127, 1000].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert_eq!(a.intersection(&b).collect::<Vec<_>>(), vec![64, 127]);
        let c: BitSet = [2u32, 65].into_iter().collect();
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c).count(), 0);
        // Disjoint word ranges: no panic, no intersection.
        let d: BitSet = [100_000u32].into_iter().collect();
        assert!(!a.intersects(&d));
    }

    #[test]
    fn bitset_equality_ignores_capacity() {
        let mut a = BitSet::with_capacity(1024);
        let mut b = BitSet::new();
        a.insert(7);
        b.insert(7);
        assert_eq!(a, b);
        b.insert(900);
        assert_ne!(a, b);
    }

    #[test]
    fn interned_affected_reflects_the_source_set() {
        use crate::affected::{AffectedSet, SnapshotAnalysis};
        use sq_vcs::{ObjectStore, Patch, RepoPath, Tree};
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (path, content) in [
            ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
            ("lib/l.rs", "lib-v1"),
            ("tool/BUILD", "library(name = \"tool\", srcs = [\"t.rs\"])"),
            ("tool/t.rs", "tool-v1"),
        ] {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(RepoPath::new(path).unwrap(), id).unwrap();
        }
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let ta = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "lib-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let tb = Patch::write(RepoPath::new("tool/t.rs").unwrap(), "tool-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let da = AffectedSet::between(&base, &SnapshotAnalysis::analyze(&ta, &store).unwrap());
        let db = AffectedSet::between(&base, &SnapshotAnalysis::analyze(&tb, &store).unwrap());
        let mut interner: Interner<TargetName> = Interner::new();
        let ia = InternedAffected::from_affected(&da, &mut interner);
        let ib = InternedAffected::from_affected(&db, &mut interner);
        let ia2 = InternedAffected::from_affected(&da, &mut interner);
        assert_eq!(ia, ia2, "re-interning is deterministic");
        assert_eq!(ia.len(), da.len());
        assert_eq!(
            ia.names_intersect(&ib),
            da.names_intersect(&db),
            "bitset Step 2 agrees with the string-keyed original"
        );
        assert!(!ia.shared_disagreement(&ib));
        // Same target, different content hashes: disagreement.
        let ta2 = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "lib-v3")
            .apply(&tree, &mut store)
            .unwrap();
        let da2 = AffectedSet::between(&base, &SnapshotAnalysis::analyze(&ta2, &store).unwrap());
        let ia3 = InternedAffected::from_affected(&da2, &mut interner);
        assert!(ia.names_intersect(&ia3));
        assert!(ia.shared_disagreement(&ia3));
        // A state can be looked up by interned id.
        let lib = TargetName::from_str("//lib:lib").unwrap();
        let lib_id = interner.get(&lib).unwrap();
        assert_eq!(ia.state_of(lib_id), da.get(&lib));
        assert_eq!(ia.state_of(u32::MAX), None);
    }
}
