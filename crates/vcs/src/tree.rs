//! Immutable snapshots: a persistent directory tree.
//!
//! A [`Tree`] is the state of the whole monorepo at one commit point. It
//! is one node per directory, each behind an `Arc`, so two trees share
//! every directory neither of them changed: `clone` is a pointer copy,
//! and a write copies only the directories on the way to the file it
//! touches (its *spine*). The queue hands the same snapshot to the
//! analyzer, the executor's step actions and the commit, none of which
//! change it.
//!
//! A directory is also the unit of storage. Its object lists its entries
//! in order — per entry a kind byte (`f` file, `d` directory), the 32 raw
//! bytes of the blob's or subdirectory's id, the name's length as a
//! little-endian `u32`, and the name — and the tree's content address is
//! the id of its root directory's object. [`Tree::store`] therefore
//! writes, and hashes, only the directories the target store does not
//! already hold. Directories are never empty below the root: removing a
//! directory's last file removes the directory, so equal contents mean
//! equal ids whatever the order of the writes that produced them.

use crate::error::VcsError;
use crate::object::{ObjectId, ObjectStore};
use crate::path::{RepoPath, MAX_DEPTH};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

/// A snapshot of the repository: every file path mapped to its blob id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tree {
    root: Arc<Dir>,
}

#[derive(Debug, Clone, Default)]
struct Dir {
    /// Keyed by name; a subdirectory's key carries a trailing `/` and
    /// holds a [`Node::Dir`], any other key a [`Node::File`]. With that
    /// suffix the key order is the order of the full paths below, so an
    /// in-order walk yields files in `RepoPath` order, and a lookup key
    /// is a slice of the path being looked up.
    entries: BTreeMap<Arc<str>, Node>,
    /// Files at or below this directory.
    files: usize,
    /// Content address of this directory's object, once known. Every
    /// write to the directory or below it clears it ([`Dir::spine_mut`]).
    id: OnceLock<ObjectId>,
    /// What a consumer derived from the content, cleared with `id`.
    derived: Derived,
}

/// A directory's slot for a value a consumer derives from the files at or
/// below it; [`Tree::root_slot`] hands out the root's, for a value derived
/// from the whole tree, such as its parsed build graph. The value lives
/// with the directory node, so every tree sharing the node shares it and
/// nothing outlives the trees.
///
/// A write at or below the directory clears the slot in the writing tree
/// (with the directory's id). What was kept stays readable there as
/// *stale* for as long as another tree still holds it: a consumer may
/// reuse from it what it re-keys by content it checks itself, such as a
/// file's blob id.
#[derive(Clone, Default)]
pub struct Derived {
    kept: OnceLock<Arc<dyn Any + Send + Sync>>,
    stale: Option<Weak<dyn Any + Send + Sync>>,
}

impl Derived {
    /// The value derived from the directory as it is, if it is a `T`.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.kept.get()?.downcast_ref()
    }

    /// What was kept before the last write at or below the directory that
    /// followed a kept value, if it is a `T` and a tree still holds it. It
    /// may be out of date.
    pub fn stale<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.stale.as_ref()?.upgrade()?.downcast().ok()
    }

    /// The value derived from the directory as it is, made by `make` and
    /// kept if none is kept yet. A consumer keeps everything it derives
    /// from one directory in one value, so a slot holds one type.
    ///
    /// # Panics
    ///
    /// If the slot keeps a value of another type, which is never dropped
    /// to make room.
    pub fn get_or_keep<T: Any + Send + Sync>(&self, make: impl FnOnce() -> T) -> &T {
        // A concurrent keeper derived the same value from the same content.
        self.kept
            .get_or_init(|| Arc::new(make()))
            .downcast_ref()
            .expect("a directory's slot keeps one type")
    }

    /// The directory is being written: what was kept becomes stale.
    fn clear(&mut self) {
        if let Some(kept) = self.kept.take() {
            self.stale = Some(Arc::downgrade(&kept));
        }
    }
}

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Derived")
            .field("kept", &self.kept.get().is_some())
            .field("stale", &self.stale.is_some())
            .finish()
    }
}

#[derive(Debug, Clone)]
enum Node {
    File { path: Arc<RepoPath>, blob: ObjectId },
    Dir(Arc<Dir>),
}

const FILE: u8 = b'f';
const DIR: u8 = b'd';
/// Bytes of an encoded entry before its name: kind, id, name length.
const ENTRY_HEAD: usize = 1 + 32 + 4;

/// Append one encoded directory entry.
fn push_entry(out: &mut Vec<u8>, kind: u8, id: &ObjectId, name: &str) {
    let len = u32::try_from(name.len()).expect("a path component is shorter than 4 GiB");
    out.push(kind);
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Split off the first component's key: `("parts/", Some("p1/BUILD"))`,
/// then `("p1/", Some("BUILD"))`, then `("BUILD", None)`.
fn split_key(rest: &str) -> (&str, Option<&str>) {
    match rest.find('/') {
        Some(slash) => (&rest[..=slash], Some(&rest[slash + 1..])),
        None => (rest, None),
    }
}

impl Tree {
    /// The empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blob id at `path`, if a file is there.
    pub fn get(&self, path: &RepoPath) -> Option<ObjectId> {
        let mut dir = &self.root;
        let mut rest = path.as_str();
        loop {
            match split_key(rest) {
                (key, Some(below)) => {
                    dir = dir.subdir(key)?;
                    rest = below;
                }
                (name, None) => return dir.file(name),
            }
        }
    }

    /// True iff a file exists at `path`.
    pub fn contains(&self, path: &RepoPath) -> bool {
        self.get(path).is_some()
    }

    /// Insert or replace a file.
    ///
    /// Refused with [`VcsError::PathConflict`], leaving the tree as it
    /// was, when no checkout could hold the result: a file sits where
    /// `path` needs a directory, or `path` names a directory.
    pub fn insert(&mut self, path: RepoPath, blob: ObjectId) -> Result<(), VcsError> {
        // Read first: a refused or redundant write copies nothing.
        let existing = self.get(&path);
        if existing == Some(blob) {
            return Ok(());
        }
        if existing.is_none() {
            self.check_free(&path)?;
        }
        let added = usize::from(existing.is_none());
        let mut dir = Dir::spine_mut(&mut self.root);
        let mut rest = path.as_str();
        loop {
            dir.files += added;
            let (key, below) = split_key(rest);
            let Some(below) = below else { break };
            if !dir.entries.contains_key(key) {
                dir.entries.insert(key.into(), Node::Dir(Arc::default()));
            }
            let Some(Node::Dir(child)) = dir.entries.get_mut(key) else {
                unreachable!("a key ending in '/' holds a directory");
            };
            dir = Dir::spine_mut(child);
            rest = below;
        }
        match dir.entries.get_mut(rest) {
            Some(Node::File { blob: old, .. }) => *old = blob,
            _ => {
                let (name, path) = (rest.into(), Arc::new(path));
                dir.entries.insert(name, Node::File { path, blob });
            }
        }
        Ok(())
    }

    /// `Ok` iff a file can be created at `path`, which holds none yet.
    fn check_free(&self, path: &RepoPath) -> Result<(), VcsError> {
        let conflict = || Err(VcsError::PathConflict(path.clone()));
        let mut dir = &self.root;
        let mut rest = path.as_str();
        loop {
            match split_key(rest) {
                (key, Some(below)) => {
                    if dir.file(&key[..key.len() - 1]).is_some() {
                        return conflict();
                    }
                    match dir.subdir(key) {
                        Some(child) => dir = child,
                        // Everything from here down is new.
                        None => return Ok(()),
                    }
                    rest = below;
                }
                (name, None) if dir.subdir(&format!("{name}/")).is_some() => return conflict(),
                (_, None) => return Ok(()),
            }
        }
    }

    /// Remove a file, returning its old blob id. A directory left
    /// without files goes with it.
    pub fn remove(&mut self, path: &RepoPath) -> Option<ObjectId> {
        let blob = self.get(path)?;
        Dir::remove_below(&mut self.root, path.as_str());
        Some(blob)
    }

    /// Iterate files in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&RepoPath, &ObjectId)> {
        Files::below(&self.root)
    }

    /// The root directory's slot, for a value derived from the whole
    /// tree. The root is on the way to every file, so any write leaves
    /// what it kept stale.
    pub fn root_slot(&self) -> &Derived {
        &self.root.derived
    }

    /// Paths under a directory prefix, in order.
    pub fn paths_under<'a>(&'a self, dir: &'a str) -> impl Iterator<Item = &'a RepoPath> + 'a {
        self.find_dir(dir)
            .map(Files::below)
            .into_iter()
            .flatten()
            .map(|(path, _)| path)
    }

    /// The directory at `dir` (slashes around it and doubled ignored; the
    /// root for the empty string), if there is one.
    fn find_dir(&self, dir: &str) -> Option<&Arc<Dir>> {
        dir.split('/')
            .filter(|name| !name.is_empty())
            .try_fold(&self.root, |at, name| at.subdir(&format!("{name}/")))
    }

    /// The tree's content address: the id of its root directory's object.
    /// Hashes the directories written since their id was last computed.
    pub fn id(&self) -> ObjectId {
        self.root.id()
    }

    /// Store every directory object `store` does not hold yet and return
    /// the tree's content address.
    ///
    /// A directory whose object is in `store` is skipped together with
    /// everything below it: a directory is written after its
    /// subdirectories, so where it is, they are. (A store handed a
    /// directory object some other way may lack them; [`Tree::load`] then
    /// names the missing object.)
    pub fn store(&self, store: &mut ObjectStore) -> ObjectId {
        self.root.store(store)
    }

    /// Decode the tree whose root directory object is `id`.
    ///
    /// Objects are checked, not trusted: anything this crate's encoder
    /// would not have written — entries out of order or twice, a file and
    /// a directory of one name, a name that is not one path component, an
    /// unknown kind, an empty subdirectory, a cut-off entry — is a
    /// [`VcsError::CorruptObject`], and an id the store does not hold a
    /// [`VcsError::MissingObject`].
    pub fn load(store: &ObjectStore, id: ObjectId) -> Result<Tree, VcsError> {
        let root = Dir::load(store, id, "", 0)?;
        Ok(Tree {
            root: Arc::new(root),
        })
    }

    /// Paths present in `self` or `other` whose blob differs (including
    /// additions and deletions), in path order — the raw file-level diff
    /// between two snapshots. Directories the two trees share, or whose
    /// ids are known and equal, are skipped whole.
    pub fn changed_paths<'a>(&'a self, other: &'a Tree) -> Vec<&'a RepoPath> {
        let mut changed = Vec::new();
        self.diff(other, &mut |_, ours, theirs| {
            if ours.map(|(_, blob)| blob) != theirs.map(|(_, blob)| blob) {
                changed.push(&**ours.or(theirs).expect("a file is on one side").0);
            }
        });
        changed
    }

    /// Every file called `name` in a directory that `self` and `base` do
    /// not share, in path order, with its blob in each (`None` where it is
    /// absent): what a consumer keyed on the directories holding such
    /// files looks at again, whether or not the file itself changed. The
    /// walk skips shared directories as [`Tree::changed_paths`] does, and
    /// against the empty tree it finds every file called `name`.
    pub fn named_changes<'a>(
        &'a self,
        base: &'a Tree,
        name: &str,
    ) -> Vec<(&'a Arc<RepoPath>, Option<ObjectId>, Option<ObjectId>)> {
        let mut found = Vec::new();
        self.diff(base, &mut |key, ours, theirs| {
            if key == name {
                let path = ours.or(theirs).expect("a file is on one side").0;
                found.push((path, ours.map(|(_, b)| b), theirs.map(|(_, b)| b)));
            }
        });
        found
    }

    fn diff<'a>(&'a self, other: &'a Tree, file: &mut impl FnMut(&str, Side<'a>, Side<'a>)) {
        Dir::diff(Some(&self.root), Some(&other.root), file);
    }

    /// A handle that does not keep the tree's directories alive, for a
    /// value kept in the tree's own root slot that needs the tree back.
    pub fn downgrade(&self) -> WeakTree {
        WeakTree(Arc::downgrade(&self.root))
    }
}

/// A tree held weakly ([`Tree::downgrade`]).
#[derive(Debug, Clone)]
pub struct WeakTree(Weak<Dir>);

impl WeakTree {
    /// The tree, if a handle still holds its root directory.
    pub fn upgrade(&self) -> Option<Tree> {
        self.0.upgrade().map(|root| Tree { root })
    }
}

/// A file on one side of a diff: its path and blob.
type Side<'a> = Option<(&'a Arc<RepoPath>, ObjectId)>;

impl Dir {
    fn subdir(&self, key: &str) -> Option<&Arc<Dir>> {
        self.entries.get(key)?.dir()
    }

    fn file(&self, name: &str) -> Option<ObjectId> {
        Some(self.entries.get(name)?.file()?.1)
    }

    /// This directory for writing: copied first if another tree shares
    /// it, and with its id and derived value forgotten either way.
    fn spine_mut(this: &mut Arc<Dir>) -> &mut Dir {
        let dir = Arc::make_mut(this);
        dir.id.take();
        dir.derived.clear();
        dir
    }

    /// Remove the file at `rest`, which the caller has seen is there.
    fn remove_below(this: &mut Arc<Dir>, rest: &str) {
        let dir = Dir::spine_mut(this);
        dir.files -= 1;
        let (key, below) = split_key(rest);
        match (dir.entries.get_mut(key), below) {
            // Not the subdirectory's last file: it stays.
            (Some(Node::Dir(child)), Some(below)) if child.files > 1 => {
                Dir::remove_below(child, below)
            }
            _ => {
                dir.entries.remove(key);
            }
        }
    }

    /// True iff the two are known to be equal without reading them.
    fn same_as(self: &Arc<Dir>, other: &Arc<Dir>) -> bool {
        Arc::ptr_eq(self, other)
            || matches!((self.id.get(), other.id.get()), (Some(a), Some(b)) if a == b)
    }

    /// Call `file` with the key of every file in a directory of `ours`
    /// or `theirs` that the two do not share, in path order, with the file
    /// on each side. A directory on one side only is walked whole.
    fn diff<'a>(
        ours: Option<&'a Arc<Dir>>,
        theirs: Option<&'a Arc<Dir>>,
        file: &mut impl FnMut(&str, Side<'a>, Side<'a>),
    ) {
        if let (Some(a), Some(b)) = (ours, theirs) {
            if a.same_as(b) {
                return;
            }
        }
        let mut a = ours.into_iter().flat_map(|d| &d.entries).peekable();
        let mut b = theirs.into_iter().flat_map(|d| &d.entries).peekable();
        loop {
            // A directory written from another shares its keys' names.
            let order = match (a.peek(), b.peek()) {
                (None, None) => return,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((x, _)), Some((y, _))) if Arc::ptr_eq(x, y) => Ordering::Equal,
                (Some((x, _)), Some((y, _))) => x.cmp(y),
            };
            let (key, ours, theirs) = match order {
                Ordering::Less => a.next().map(|(k, n)| (k, Some(n), None)),
                Ordering::Greater => b.next().map(|(k, n)| (k, None, Some(n))),
                Ordering::Equal => a
                    .next()
                    .zip(b.next())
                    .map(|((k, x), (_, y))| (k, Some(x), Some(y))),
            }
            .expect("peeked");
            if key.ends_with('/') {
                Dir::diff(ours.and_then(Node::dir), theirs.and_then(Node::dir), file);
            } else {
                file(key, ours.and_then(Node::file), theirs.and_then(Node::file));
            }
        }
    }

    fn id(&self) -> ObjectId {
        *self.id.get_or_init(|| ObjectId::for_bytes(&self.encode()))
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * (ENTRY_HEAD + 12));
        for (key, node) in &self.entries {
            let (kind, id, name) = match node {
                Node::File { blob, .. } => (FILE, *blob, &key[..]),
                Node::Dir(dir) => (DIR, dir.id(), &key[..key.len() - 1]),
            };
            push_entry(&mut out, kind, &id, name);
        }
        out
    }

    fn store(&self, store: &mut ObjectStore) -> ObjectId {
        // A known id says nothing about *this* store: ask it.
        if let Some(id) = self.id.get().filter(|id| store.contains(id)) {
            return *id;
        }
        for node in self.entries.values() {
            if let Node::Dir(dir) = node {
                dir.store(store);
            }
        }
        let bytes = self.encode();
        let id = *self.id.get_or_init(|| ObjectId::for_bytes(&bytes));
        store.put_addressed(id, bytes);
        id
    }

    /// Decode the directory object `id`, which sits at `prefix` (empty,
    /// or ending in `/`) and `depth` levels below the root.
    fn load(
        store: &ObjectStore,
        id: ObjectId,
        prefix: &str,
        depth: usize,
    ) -> Result<Dir, VcsError> {
        let corrupt = |reason| VcsError::CorruptObject {
            id: id.to_hex(),
            reason,
        };
        // A file below `depth` directories has `depth + 1` components.
        if depth >= MAX_DEPTH {
            return Err(corrupt("directories nested too deep"));
        }
        let mut rest = &store
            .get(&id)
            .ok_or_else(|| VcsError::MissingObject(id.to_hex()))?[..];
        let mut dir = Dir {
            id: id.into(),
            ..Dir::default()
        };
        while !rest.is_empty() {
            let (head, tail) = rest
                .split_at_checked(ENTRY_HEAD)
                .ok_or_else(|| corrupt("entry cut off"))?;
            let child = ObjectId::from_raw(head[1..33].try_into().expect("32 bytes"));
            let len = u32::from_le_bytes(head[33..].try_into().expect("4 bytes"));
            let (name, tail) = usize::try_from(len)
                .ok()
                .and_then(|len| tail.split_at_checked(len))
                .ok_or_else(|| corrupt("name cut off"))?;
            rest = tail;
            let name = std::str::from_utf8(name).map_err(|_| corrupt("name is not UTF-8"))?;
            if matches!(name, "" | "." | "..") || name.contains('/') {
                return Err(corrupt("name is not a path component"));
            }
            let (key, node) = match head[0] {
                FILE => {
                    let path = RepoPath::new(format!("{prefix}{name}"))?;
                    dir.files += 1;
                    let path = Arc::new(path);
                    (name.to_string(), Node::File { path, blob: child })
                }
                DIR => {
                    if dir.entries.contains_key(name) {
                        return Err(corrupt("a file and a directory of one name"));
                    }
                    let key = format!("{name}/");
                    let sub = Dir::load(store, child, &format!("{prefix}{key}"), depth + 1)?;
                    if sub.files == 0 {
                        return Err(corrupt("empty subdirectory"));
                    }
                    dir.files += sub.files;
                    (key, Node::Dir(Arc::new(sub)))
                }
                _ => return Err(corrupt("unknown entry kind")),
            };
            if dir
                .entries
                .last_key_value()
                .is_some_and(|(last, _)| **last >= *key)
            {
                return Err(corrupt("entries out of order"));
            }
            dir.entries.insert(key.into(), node);
        }
        Ok(dir)
    }
}

impl PartialEq for Dir {
    fn eq(&self, other: &Dir) -> bool {
        match (self.id.get(), other.id.get()) {
            (Some(a), Some(b)) => a == b,
            _ => self.files == other.files && self.entries == other.entries,
        }
    }
}

impl Eq for Dir {}

impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        match (self, other) {
            // Equal keys in equal directories: the paths are equal too.
            (Node::File { blob: a, .. }, Node::File { blob: b, .. }) => a == b,
            (Node::Dir(a), Node::Dir(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }
}

impl Node {
    fn dir(&self) -> Option<&Arc<Dir>> {
        match self {
            Node::Dir(dir) => Some(dir),
            Node::File { .. } => None,
        }
    }

    fn file(&self) -> Option<(&Arc<RepoPath>, ObjectId)> {
        match self {
            Node::File { path, blob } => Some((path, *blob)),
            Node::Dir(_) => None,
        }
    }
}

/// The files below a directory, in path order.
struct Files<'a> {
    /// What is left of each directory on the way down to the next file.
    stack: Vec<btree_map::Values<'a, Arc<str>, Node>>,
}

impl<'a> Files<'a> {
    fn below(dir: &'a Arc<Dir>) -> Self {
        Files {
            stack: vec![dir.entries.values()],
        }
    }
}

impl<'a> Iterator for Files<'a> {
    type Item = (&'a RepoPath, &'a ObjectId);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.last_mut()?.next() {
                Some(Node::File { path, blob }) => return Some((path, blob)),
                Some(Node::Dir(dir)) => self.stack.push(dir.entries.values()),
                None => {
                    self.stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
impl Tree {
    /// True iff both trees read the same root (neither was written).
    pub(crate) fn shares_root_with(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// True iff both trees hold a directory at `dir` and it is one
    /// allocation.
    pub(crate) fn shares_dir_with(&self, other: &Tree, dir: &str) -> bool {
        matches!((self.find_dir(dir), other.find_dir(dir)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(store: &mut ObjectStore, text: &str) -> ObjectId {
        store.put(text.as_bytes().to_vec())
    }

    fn path(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    fn paths<'a>(found: impl IntoIterator<Item = &'a RepoPath>) -> Vec<&'a str> {
        found.into_iter().map(RepoPath::as_str).collect()
    }

    #[test]
    fn insert_get_remove() {
        let mut store = ObjectStore::new();
        let mut t = Tree::new();
        let id = blob(&mut store, "hello");
        t.insert(path("a/f.rs"), id).unwrap();
        assert_eq!(t.get(&path("a/f.rs")), Some(id));
        assert!(t.contains(&path("a/f.rs")));
        assert!(!t.contains(&path("a")) && !t.contains(&path("a/f.rs/x")));
        assert_eq!(t.iter().count(), 1);
        assert_eq!(t.remove(&path("a")), None);
        assert_eq!(t.remove(&path("a/f.rs")), Some(id));
        assert!(t.iter().next().is_none());
        assert_eq!(t, Tree::new());
    }

    #[test]
    fn iteration_is_in_path_order_whatever_the_names() {
        let mut store = ObjectStore::new();
        let b = blob(&mut store, "x");
        let mut t = Tree::new();
        // '-' and '.' sort before '/', letters after it.
        let mut names = ["a/x", "a-b/x", "a.rs", "ab", "a/b/c", "a/b.rs", "a/b-c"];
        for p in names {
            t.insert(path(p), b).unwrap();
        }
        names.sort_unstable();
        assert_eq!(paths(t.iter().map(|(p, _)| p)), names);
        assert_eq!(paths(t.changed_paths(&Tree::new())), names);
        assert_eq!(paths(Tree::new().changed_paths(&t)), names);
    }

    #[test]
    fn a_file_and_a_directory_of_one_name_are_refused() {
        let mut store = ObjectStore::new();
        let b = blob(&mut store, "x");
        let mut t = Tree::new();
        t.insert(path("lib"), b).unwrap();
        t.insert(path("pkg/sub/BUILD"), b).unwrap();
        let before = t.clone();
        for refused in ["lib/BUILD", "lib/deep/er.rs", "pkg", "pkg/sub"] {
            assert_eq!(
                t.insert(path(refused), b),
                Err(VcsError::PathConflict(path(refused)))
            );
            assert!(t.shares_root_with(&before), "{refused} left a mark");
        }
        // Once the file is gone its name is free for a directory, and
        // the other way round.
        t.remove(&path("lib"));
        t.insert(path("lib/BUILD"), b).unwrap();
        t.remove(&path("pkg/sub/BUILD"));
        t.insert(path("pkg"), b).unwrap();
        assert_eq!(paths(t.iter().map(|(p, _)| p)), ["lib/BUILD", "pkg"]);
    }

    #[test]
    fn store_then_load_gives_the_tree_back() {
        let mut store = ObjectStore::new();
        let mut t = Tree::new();
        t.insert(path("b/y.rs"), blob(&mut store, "y")).unwrap();
        t.insert(path("a/deep/x.rs"), blob(&mut store, "x"))
            .unwrap();
        t.insert(path("top"), blob(&mut store, "t")).unwrap();
        let id = t.store(&mut store);
        assert_eq!(id, t.id());
        assert_eq!(t.store(&mut store), id);
        let loaded = Tree::load(&store, id).unwrap();
        assert_eq!(loaded, t);
        assert_eq!(loaded.iter().count(), 3);
        assert_eq!(
            loaded.iter().collect::<Vec<_>>(),
            t.iter().collect::<Vec<_>>()
        );
        let empty = Tree::new().store(&mut store);
        assert_eq!(Tree::load(&store, empty).unwrap(), Tree::new());
    }

    #[test]
    fn the_id_follows_the_contents_not_the_writes() {
        let mut store = ObjectStore::new();
        let x = blob(&mut store, "x");
        let y = blob(&mut store, "y");
        let mut t1 = Tree::new();
        t1.insert(path("d/a"), x).unwrap();
        t1.insert(path("b"), y).unwrap();
        let mut t2 = Tree::new();
        t2.insert(path("b"), x).unwrap();
        t2.insert(path("gone/for/good"), x).unwrap();
        t2.insert(path("d/a"), x).unwrap();
        t2.insert(path("b"), y).unwrap();
        assert_ne!(t1.id(), t2.id());
        // Removing a directory's last file removes the directory.
        t2.remove(&path("gone/for/good"));
        assert_eq!(t1.id(), t2.id());
        assert_eq!(t1, t2);
    }

    #[test]
    fn changed_paths_covers_add_modify_delete() {
        let mut store = ObjectStore::new();
        let mut base = Tree::new();
        for (p, c) in [("keep", "k"), ("d/modify", "old"), ("d/delete", "d")] {
            base.insert(path(p), blob(&mut store, c)).unwrap();
        }
        let mut new = base.clone();
        new.insert(path("d/modify"), blob(&mut store, "new"))
            .unwrap();
        new.remove(&path("d/delete"));
        new.insert(path("add/ed"), blob(&mut store, "a")).unwrap();
        let changed = paths(base.changed_paths(&new));
        assert_eq!(changed, ["add/ed", "d/delete", "d/modify"]);
        // Symmetric, and the same whether or not the ids are known.
        assert_eq!(paths(new.changed_paths(&base)), changed);
        base.store(&mut store);
        let new_id = new.store(&mut store);
        let loaded = Tree::load(&store, new_id).unwrap();
        assert_eq!(paths(base.changed_paths(&loaded)), changed);
        assert!(new.changed_paths(&loaded).is_empty());
    }

    #[test]
    fn clone_shares_until_either_side_is_mutated() {
        let mut store = ObjectStore::new();
        let mut original = Tree::new();
        original.insert(path("a"), blob(&mut store, "a")).unwrap();
        let mut copy = original.clone();
        assert!(copy.shares_root_with(&original));
        // Writing what is there already is not a mutation.
        copy.insert(path("a"), blob(&mut store, "a")).unwrap();
        assert!(copy.shares_root_with(&original));
        copy.insert(path("b"), blob(&mut store, "b")).unwrap();
        copy.remove(&path("a"));
        assert!(!copy.shares_root_with(&original));
        assert_eq!(original.iter().count(), 1);
        assert!(original.contains(&path("a")) && !original.contains(&path("b")));
        assert!(copy.contains(&path("b")) && !copy.contains(&path("a")));
    }

    #[test]
    fn paths_under_filters_by_directory() {
        let mut store = ObjectStore::new();
        let b = blob(&mut store, "x");
        let mut t = Tree::new();
        for p in ["apps/a/m.rs", "apps/b/m.rs", "libs/c/m.rs"] {
            t.insert(path(p), b).unwrap();
        }
        assert_eq!(paths(t.paths_under("apps")), ["apps/a/m.rs", "apps/b/m.rs"]);
        assert_eq!(paths(t.paths_under("/apps/b/")), ["apps/b/m.rs"]);
        assert_eq!(t.paths_under("").count(), 3);
        assert_eq!(t.paths_under("app").count(), 0);
        assert_eq!(t.paths_under("apps/a/m.rs").count(), 0);
    }

    /// The benchmark's `serve_queue` shape: 300 packages of a BUILD file
    /// and four sources under `parts/`.
    fn three_hundred_packages(store: &mut ObjectStore) -> Tree {
        let mut t = Tree::new();
        for pkg in 0..300 {
            let files = (0..4)
                .map(|i| format!("src_{i}.rs"))
                .chain(["BUILD".to_string()]);
            for file in files {
                let p = format!("parts/p{pkg:04}/{file}");
                let id = store.put(format!("content of {p}").into_bytes());
                t.insert(path(&p), id).unwrap();
            }
        }
        t
    }

    #[test]
    fn a_one_file_write_copies_and_stores_its_spine_only() {
        let mut store = ObjectStore::new();
        let parent = three_hundred_packages(&mut store);
        parent.store(&mut store);
        let (objects, bytes) = (store.len(), store.total_bytes());

        let mut child = parent.clone();
        let new_blob = blob(&mut store, "edited");
        child
            .insert(path("parts/p0007/src_2.rs"), new_blob)
            .unwrap();
        for pkg in 0..300 {
            let dir = format!("parts/p{pkg:04}");
            assert_eq!(child.shares_dir_with(&parent, &dir), pkg != 7, "{dir}");
        }
        assert!(!child.shares_dir_with(&parent, "parts"));

        child.store(&mut store);
        // The blob, and one directory per level: root, parts, p0007.
        assert_eq!(store.len() - objects, 1 + 3);
        assert!(store.total_bytes() - bytes <= 32 * 1024);
        assert_eq!(
            paths(parent.changed_paths(&child)),
            ["parts/p0007/src_2.rs"]
        );
    }

    #[test]
    fn named_changes_finds_each_file_of_a_name_in_a_directory_that_changed() {
        let mut store = ObjectStore::new();
        let b = blob(&mut store, "x");
        let mut t = Tree::new();
        for p in [
            "a/BUILD",
            "a-b/BUILD",
            "a/b/BUILD",
            "a/b/BUILD.bak",
            "BUILD",
            "c/d.rs",
        ] {
            t.insert(path(p), b).unwrap();
        }
        let named = |t: &Tree, base: &Tree| -> Vec<(String, Option<ObjectId>, Option<ObjectId>)> {
            let found = t.named_changes(base, "BUILD").into_iter();
            found
                .map(|(p, ours, theirs)| (p.to_string(), ours, theirs))
                .collect()
        };
        let all: Vec<_> = named(&t, &Tree::new());
        let every = ["BUILD", "a-b/BUILD", "a/BUILD", "a/b/BUILD"];
        assert!(all.iter().map(|(p, ..)| p.as_str()).eq(every));
        assert!(all
            .iter()
            .all(|(_, ours, theirs)| (*ours, *theirs) == (Some(b), None)));
        assert!(named(&t, &t).is_empty());
        // A write below `a/` but beside `a/b/`: the root and `a/` hold a
        // BUILD file each and changed; `a/b/` and `a-b/` are shared.
        let mut child = t.clone();
        child.insert(path("a/x.rs"), b).unwrap();
        let both = |p: &str| (p.to_string(), Some(b), Some(b));
        assert_eq!(named(&child, &t), [both("BUILD"), both("a/BUILD")]);
        child.remove(&path("a/b/BUILD"));
        let gone = ("a/b/BUILD".to_string(), None, Some(b));
        assert_eq!(named(&child, &t), [both("BUILD"), both("a/BUILD"), gone]);
        let by_iter = child.iter().filter(|(p, _)| p.file_name() == "BUILD");
        assert!(by_iter
            .map(|(p, _)| p.as_str())
            .eq(named(&child, &Tree::new()).iter().map(|(p, ..)| p.as_str())));
    }

    #[test]
    fn a_derived_value_lives_with_its_root_node() {
        let mut store = ObjectStore::new();
        let mut parent = Tree::new();
        parent.insert(path("p/f"), blob(&mut store, "f")).unwrap();
        assert_eq!(parent.root_slot().get_or_keep(|| 1u32), &1);
        assert_eq!(parent.root_slot().get_or_keep(|| 2u32), &1);
        assert_eq!(parent.root_slot().get::<u32>(), Some(&1));
        assert_eq!(parent.root_slot().get::<u64>(), None);

        // A clone shares it; a write anywhere clears it in the writing
        // tree only, where it stays readable as stale while the parent
        // lives.
        let mut child = parent.clone();
        assert_eq!(child.root_slot().get::<u32>(), Some(&1));
        child.insert(path("q/g"), blob(&mut store, "g")).unwrap();
        assert_eq!(child.root_slot().get::<u32>(), None);
        assert_eq!(child.root_slot().stale::<u32>().as_deref(), Some(&1));
        assert_eq!(parent.root_slot().get::<u32>(), Some(&1));
        // The stale reference never keeps the value alive, and neither
        // does a weak handle keep the tree.
        let weak = parent.downgrade();
        assert_eq!(weak.upgrade(), Some(parent.clone()));
        drop(parent);
        assert_eq!(child.root_slot().stale::<u32>(), None);
        assert_eq!(weak.upgrade(), None);

        // A loaded tree's directories keep nothing.
        child.root_slot().get_or_keep(|| 3u32);
        let root = child.store(&mut store);
        let loaded = Tree::load(&store, root).unwrap();
        assert_eq!(loaded.root_slot().get::<u32>(), None);
        assert_eq!(loaded, child);
    }

    #[test]
    #[should_panic(expected = "one type")]
    fn a_slot_never_drops_a_value_for_one_of_another_type() {
        let mut store = ObjectStore::new();
        let mut t = Tree::new();
        t.insert(path("f"), blob(&mut store, "f")).unwrap();
        t.root_slot().get_or_keep(|| 1u32);
        t.root_slot().get_or_keep(|| 1u64);
    }

    fn entry(kind: u8, id: ObjectId, name: &str) -> Vec<u8> {
        let mut out = Vec::new();
        push_entry(&mut out, kind, &id, name);
        out
    }

    #[test]
    fn hostile_directory_objects_are_refused() {
        let mut store = ObjectStore::new();
        let b = blob(&mut store, "x");
        let mut sub = Tree::new();
        sub.insert(path("f"), b).unwrap();
        let sub = sub.store(&mut store);
        let empty = Tree::new().store(&mut store);
        let absent = ObjectId::for_bytes(b"never stored");

        let well_formed = [
            entry(FILE, b, "a"),
            entry(DIR, sub, "b"),
            entry(FILE, b, "c"),
        ]
        .concat();
        let id = store.put(well_formed.clone());
        let tree = Tree::load(&store, id).unwrap();
        assert_eq!(paths(tree.iter().map(|(p, _)| p)), ["a", "b/f", "c"]);
        assert_eq!(tree.id(), id);

        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "entries out of order",
                [entry(FILE, b, "b"), entry(FILE, b, "a")].concat(),
            ),
            (
                "entries out of order",
                [entry(FILE, b, "a"), entry(FILE, b, "a")].concat(),
            ),
            (
                "entries out of order",
                [entry(DIR, sub, "a"), entry(DIR, sub, "a")].concat(),
            ),
            // In path order `a-b` comes before the directory `a`.
            (
                "entries out of order",
                [entry(DIR, sub, "a"), entry(FILE, b, "a-b")].concat(),
            ),
            (
                "entries out of order",
                [entry(DIR, sub, "a"), entry(FILE, b, "a")].concat(),
            ),
            (
                "a file and a directory of one name",
                [
                    entry(FILE, b, "a"),
                    entry(FILE, b, "a-b"),
                    entry(DIR, sub, "a"),
                ]
                .concat(),
            ),
            ("name is not a path component", entry(FILE, b, "a/b")),
            ("name is not a path component", entry(FILE, b, "")),
            ("name is not a path component", entry(FILE, b, ".")),
            ("name is not a path component", entry(DIR, sub, "..")),
            ("name is not UTF-8", {
                let mut e = entry(FILE, b, "ab");
                *e.last_mut().unwrap() = 0xFF;
                e
            }),
            ("unknown entry kind", entry(b'x', b, "a")),
            ("empty subdirectory", entry(DIR, empty, "a")),
            (
                "entry cut off",
                well_formed[..well_formed.len() - 2].to_vec(),
            ),
            ("entry cut off", vec![FILE; ENTRY_HEAD - 1]),
            (
                "name cut off",
                entry(FILE, b, "abc")[..ENTRY_HEAD + 2].to_vec(),
            ),
            ("name cut off", {
                let mut e = entry(FILE, b, "a");
                e[33..ENTRY_HEAD].copy_from_slice(&u32::MAX.to_le_bytes());
                e
            }),
        ];
        for (reason, bytes) in cases {
            let id = store.put(bytes);
            match Tree::load(&store, id) {
                Err(VcsError::CorruptObject {
                    id: named,
                    reason: why,
                }) => {
                    assert_eq!((named, why), (id.to_hex(), reason))
                }
                other => panic!("expected '{reason}', got {other:?}"),
            }
        }

        // A subdirectory that is missing, or is not a directory itself.
        let dangling = store.put(entry(DIR, absent, "a"));
        assert_eq!(
            Tree::load(&store, dangling),
            Err(VcsError::MissingObject(absent.to_hex()))
        );
        let into_a_blob = store.put(entry(DIR, b, "a"));
        assert!(matches!(
            Tree::load(&store, into_a_blob),
            Err(VcsError::CorruptObject { .. })
        ));
        assert_eq!(
            Tree::load(&store, absent),
            Err(VcsError::MissingObject(absent.to_hex()))
        );
    }

    #[test]
    fn directories_nested_past_the_path_bound_are_refused() {
        let mut store = ObjectStore::new();
        let b = blob(&mut store, "x");
        let mut id = store.put(entry(FILE, b, "f"));
        // `f` below MAX_DEPTH - 1 directories is the deepest path there is.
        for _ in 1..MAX_DEPTH {
            id = store.put(entry(DIR, id, "d"));
        }
        assert_eq!(Tree::load(&store, id).unwrap().iter().count(), 1);
        let id = store.put(entry(DIR, id, "d"));
        assert!(matches!(
            Tree::load(&store, id),
            Err(VcsError::CorruptObject {
                reason: "directories nested too deep",
                ..
            })
        ));
    }
}
