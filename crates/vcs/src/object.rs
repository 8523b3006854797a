//! The content-addressed object store.
//!
//! Blobs (file contents), directory objects and commits are all stored
//! under the SHA-256 of their bytes. Storing is idempotent; identical
//! content is deduplicated, which matters because the benchmark workloads
//! create tens of thousands of snapshots that share almost all files.

use crate::hash::{to_hex, Sha256};
use crate::shared::{FrozenAt, SharedMap};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 32-byte content address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId([u8; 32]);

impl ObjectId {
    /// The address of the given bytes.
    pub fn for_bytes(data: &[u8]) -> Self {
        ObjectId(Sha256::digest(data))
    }

    /// Construct from raw digest bytes (used when decoding directory
    /// objects and deserializing traces).
    pub fn from_raw(raw: [u8; 32]) -> Self {
        ObjectId(raw)
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Full lowercase hex form.
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Abbreviated (12 hex chars) form for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..12].to_string()
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({})", self.short())
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.short())
    }
}

/// Proof that a store held a set of objects ([`ObjectStore::mark`]): the
/// state of the store's frozen part, and the ids outside it. A mark over
/// the [`Mark::loose`] ids of a mark a store holds, and more, covers that
/// mark's ids too.
#[derive(Debug, Clone)]
pub struct Mark {
    frozen: FrozenAt,
    loose: Box<[ObjectId]>,
}

impl Mark {
    /// The ids a check looks up.
    pub fn loose(&self) -> &[ObjectId] {
        &self.loose
    }
}

/// An in-memory content-addressed store.
///
/// `clone` is a snapshot, and O(1): the clone shares the stored objects
/// with the original instead of copying them. The two are isolated from
/// then on — an object `put` into one is never visible through the
/// other — so a caller can stage the blobs of a change in a clone and
/// drop it if the change is rejected.
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    objects: SharedMap<ObjectId, Bytes>,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert content, returning its address. Idempotent.
    pub fn put(&mut self, data: impl Into<Bytes>) -> ObjectId {
        let bytes: Bytes = data.into();
        let id = ObjectId::for_bytes(&bytes);
        self.objects.insert(id, bytes);
        id
    }

    /// Insert content whose address the caller has already computed.
    pub(crate) fn put_addressed(&mut self, id: ObjectId, data: Vec<u8>) {
        debug_assert_eq!(id, ObjectId::for_bytes(&data));
        self.objects.insert(id, data.into());
    }

    /// Fetch content by address.
    pub fn get(&self, id: &ObjectId) -> Option<&Bytes> {
        self.objects.get(id)
    }

    /// Fetch content as UTF-8 text (lossy for non-UTF-8 blobs).
    pub fn get_text(&self, id: &ObjectId) -> Option<String> {
        self.objects
            .get(id)
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// True iff the store holds this address.
    pub fn contains(&self, id: &ObjectId) -> bool {
        self.objects.contains_key(id)
    }

    /// A mark of `ids`, which [`ObjectStore::holds`] checks later.
    /// Taking it looks each id up once.
    pub fn mark<'a>(&self, ids: impl IntoIterator<Item = &'a ObjectId>) -> Mark {
        let loose = ids.into_iter().filter(|id| !self.objects.is_frozen(id));
        Mark {
            frozen: self.objects.frozen_at(),
            loose: loose.copied().collect(),
        }
    }

    /// True if this store provably holds every object `mark` was taken
    /// over: its frozen part, which only grows, is the mark's or a copy of
    /// a later state of it, and each loose id is looked up. False says
    /// nothing either way.
    pub fn holds(&self, mark: &Mark) -> bool {
        self.objects.holds_frozen(&mark.frozen) && mark.loose.iter().all(|id| self.contains(id))
    }

    /// Number of distinct objects stored.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Total stored bytes (after deduplication).
    pub fn total_bytes(&self) -> usize {
        self.objects.values().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
impl ObjectStore {
    /// Objects kept apart from the shared map: the most a `put` copies.
    pub(crate) fn kept_apart(&self) -> usize {
        self.objects.overlay_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut store = ObjectStore::new();
        let id = store.put(&b"fn main() {}"[..]);
        assert_eq!(store.get(&id).unwrap().as_ref(), b"fn main() {}");
        assert_eq!(store.get_text(&id).unwrap(), "fn main() {}");
    }

    #[test]
    fn identical_content_deduplicates() {
        let mut store = ObjectStore::new();
        let a = store.put(&b"same"[..]);
        let b = store.put(&b"same"[..]);
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 4);
    }

    #[test]
    fn distinct_content_distinct_ids() {
        let mut store = ObjectStore::new();
        let a = store.put(&b"alpha"[..]);
        let b = store.put(&b"beta"[..]);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn missing_object_is_none() {
        let store = ObjectStore::new();
        let phantom = ObjectId::for_bytes(b"never stored");
        assert!(store.get(&phantom).is_none());
        assert!(!store.contains(&phantom));
    }

    #[test]
    fn id_is_stable_across_stores() {
        let mut s1 = ObjectStore::new();
        let mut s2 = ObjectStore::new();
        assert_eq!(s1.put(&b"content"[..]), s2.put(&b"content"[..]));
    }

    #[test]
    fn a_clone_is_an_isolated_snapshot() {
        let mut original = ObjectStore::new();
        let kept = original.put(&b"kept"[..]);
        let mut staged = original.clone();
        let theirs = staged.put(&b"staged in the clone"[..]);
        let ours = original.put(&b"put after the clone"[..]);
        assert!(staged.contains(&kept) && original.contains(&kept));
        assert!(staged.contains(&theirs) && !original.contains(&theirs));
        assert!(original.contains(&ours) && !staged.contains(&ours));
        assert_eq!((original.len(), staged.len()), (2, 2));
        // Dropping the clone (a rejected change) leaves nothing behind.
        drop(staged);
        assert_eq!(original.len(), 2);
        assert_eq!(original.total_bytes(), 4 + 19);
    }

    /// The served path's pattern — snapshot, stage in the snapshot,
    /// release it, commit to the original — at two store sizes: a clone
    /// copies nothing, and neither does the `put` that follows.
    #[test]
    fn clone_copies_nothing_proportional_to_store_size() {
        for objects in [100usize, 10_000] {
            let mut store = ObjectStore::new();
            for i in 0..objects {
                let mut snapshot = store.clone();
                assert!(snapshot.objects.shares_all_with(&store.objects));
                assert_eq!(store.kept_apart(), 0, "at {i} of {objects}");
                snapshot.put(format!("staged {i}").into_bytes());
                drop(snapshot);
                store.put(format!("object {i}").into_bytes());
            }
            assert_eq!(store.len(), objects);
        }
    }

    #[test]
    fn hex_forms() {
        let id = ObjectId::for_bytes(b"");
        assert_eq!(id.to_hex().len(), 64);
        assert_eq!(id.short().len(), 12);
        assert!(id.to_hex().starts_with(&id.short()));
    }
}
