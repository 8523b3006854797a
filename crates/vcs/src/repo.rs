//! The repository: object store + commit DAG + the mainline branch.
//!
//! The mainline branch (`main`) is the paper's *master*: SubmitQueue's
//! core service is the only writer, and commits advance HEAD one change
//! at a time.
//!
//! Taking a snapshot — `clone`, or `store().clone()` plus `tree_at` of a
//! recent commit — costs the same whatever the size of the repository
//! and the length of its history: objects and commits are shared with
//! the snapshot, not copied (see [`ObjectStore`]), and the decoded trees
//! of the last [`RECENT_TREES`] commits are kept, so reading one is a
//! pointer copy rather than a decode of its directory objects. Landing a
//! change costs what the change touches: a commit stores one object per
//! directory on the way to a file it wrote (see [`Tree`]) and shares the
//! rest with its parent. A snapshot and the repository it was taken from
//! diverge independently.

use crate::commit::{Commit, CommitId, CommitMeta};
use crate::error::VcsError;
use crate::object::ObjectStore;
use crate::patch::Patch;
use crate::shared::SharedMap;
use crate::tree::Tree;
use crate::Result;
use std::collections::{HashMap, VecDeque};

/// Name of the mainline branch.
pub const MAINLINE: &str = "main";

/// How many of the most recently created commits keep their decoded tree.
/// The queue reads HEAD and the base a change was developed against,
/// which is HEAD or a few commits behind it; anything older is decoded
/// from the store. Consecutive trees share every directory the commit
/// between them did not write, so beyond one full tree the window holds
/// a spine per commit, not a tree per commit.
pub const RECENT_TREES: usize = 8;

/// An in-memory repository.
#[derive(Debug, Clone)]
pub struct Repository {
    store: ObjectStore,
    commits: SharedMap<CommitId, Commit>,
    branches: HashMap<String, CommitId>,
    root: CommitId,
    /// Decoded trees of the last `RECENT_TREES` commits, oldest first.
    recent: VecDeque<(CommitId, Tree)>,
}

impl Repository {
    /// Initialize a repository whose root commit holds `initial` files
    /// (path, content pairs).
    ///
    /// ```
    /// use sq_vcs::{Patch, RepoPath, Repository, CommitMeta};
    ///
    /// let mut repo = Repository::init([("src/lib.rs", "fn f() {}")]).unwrap();
    /// let id = repo
    ///     .commit_patch(
    ///         sq_vcs::repo::MAINLINE,
    ///         &Patch::write(RepoPath::new("src/lib.rs").unwrap(), "fn f() { /* v2 */ }"),
    ///         CommitMeta::new("alice", "update f", 1),
    ///     )
    ///     .unwrap();
    /// assert_eq!(repo.head(), id);
    /// assert_eq!(
    ///     repo.read_file(id, &RepoPath::new("src/lib.rs").unwrap()).unwrap(),
    ///     "fn f() { /* v2 */ }"
    /// );
    /// ```
    pub fn init<'a>(initial: impl IntoIterator<Item = (&'a str, &'a str)>) -> Result<Repository> {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (p, content) in initial {
            let path = crate::path::RepoPath::new(p)?;
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(path, id)?;
        }
        let tree_id = tree.store(&mut store);
        let root = Commit::create(
            &mut store,
            vec![],
            tree_id,
            CommitMeta::new("system", "repository root", 0),
        );
        let root_id = root.id;
        let mut commits = SharedMap::default();
        commits.insert(root_id, root);
        let mut branches = HashMap::new();
        branches.insert(MAINLINE.to_string(), root_id);
        Ok(Repository {
            store,
            commits,
            branches,
            root: root_id,
            recent: VecDeque::from([(root_id, tree)]),
        })
    }

    /// The object store (read access).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable object store access (for staging blobs).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    /// The root commit id.
    pub fn root(&self) -> CommitId {
        self.root
    }

    /// The mainline HEAD.
    pub fn head(&self) -> CommitId {
        self.branches[MAINLINE]
    }

    /// Tip of a named branch.
    pub fn branch_tip(&self, name: &str) -> Result<CommitId> {
        self.branches
            .get(name)
            .copied()
            .ok_or_else(|| VcsError::UnknownBranch(name.to_string()))
    }

    /// Look up a commit.
    pub fn commit(&self, id: CommitId) -> Result<&Commit> {
        self.commits.get(&id).ok_or(VcsError::UnknownCommit(id))
    }

    /// Materialize the snapshot at a commit.
    pub fn tree_at(&self, id: CommitId) -> Result<Tree> {
        if let Some((_, tree)) = self.recent.iter().find(|(recent, _)| *recent == id) {
            return Ok(tree.clone());
        }
        Tree::load(&self.store, self.commit(id)?.tree)
    }

    /// The snapshot at the mainline HEAD.
    pub fn head_tree(&self) -> Result<Tree> {
        self.tree_at(self.head())
    }

    /// Read a file's text at a commit.
    pub fn read_file(&self, at: CommitId, path: &crate::path::RepoPath) -> Result<String> {
        let tree = self.tree_at(at)?;
        let blob = tree
            .get(path)
            .ok_or_else(|| VcsError::MissingPath(path.clone()))?;
        self.store
            .get_text(&blob)
            .ok_or_else(|| VcsError::MissingObject(blob.to_hex()))
    }

    /// Apply `patch` on top of branch `branch` and advance it.
    ///
    /// Returns the new commit id. Refuses empty (no-op) commits, matching
    /// the paper's model where every change must actually modify targets.
    pub fn commit_patch(
        &mut self,
        branch: &str,
        patch: &Patch,
        meta: CommitMeta,
    ) -> Result<CommitId> {
        let tip = self.branch_tip(branch)?;
        let base_tree = self.tree_at(tip)?;
        if patch.is_empty() || patch.is_noop_on(&base_tree, &self.store) {
            return Err(VcsError::EmptyCommit);
        }
        let new_tree = patch.apply(&base_tree, &mut self.store)?;
        let tree_id = new_tree.store(&mut self.store);
        let commit = Commit::create(&mut self.store, vec![tip], tree_id, meta);
        let id = commit.id;
        self.commits.insert(id, commit);
        self.branches.insert(branch.to_string(), id);
        if self.recent.len() == RECENT_TREES {
            self.recent.pop_front();
        }
        self.recent.push_back((id, new_tree));
        Ok(id)
    }

    /// The snapshot that would result from applying `patch` at `base`,
    /// without committing anything (used for speculative builds:
    /// `H ⊕ C₁ ⊕ …` in the paper).
    pub fn preview(&mut self, base: CommitId, patch: &Patch) -> Result<Tree> {
        let base_tree = self.tree_at(base)?;
        patch.apply(&base_tree, &mut self.store)
    }

    /// Linear history from `from` back to the root (inclusive), newest
    /// first. Follows first parents.
    pub fn log(&self, from: CommitId) -> Result<Vec<CommitId>> {
        let mut out = Vec::new();
        let mut cur = Some(from);
        while let Some(id) = cur {
            let c = self.commit(id)?;
            out.push(id);
            cur = c.parents.first().copied();
        }
        Ok(out)
    }

    /// Number of commits known to the repository.
    pub fn commit_count(&self) -> usize {
        self.commits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::RepoPath;

    fn path(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    fn meta(msg: &str) -> CommitMeta {
        CommitMeta::new("dev", msg, 0)
    }

    fn repo() -> Repository {
        Repository::init([("src/lib.rs", "fn lib() {}"), ("README.md", "# repo")]).unwrap()
    }

    #[test]
    fn init_creates_mainline_with_root() {
        let r = repo();
        assert_eq!(r.head(), r.root());
        assert_eq!(r.branch_tip(MAINLINE).unwrap(), r.root());
        let tree = r.head_tree().unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(r.read_file(r.head(), &path("README.md")).unwrap(), "# repo");
    }

    #[test]
    fn commit_advances_head() {
        let mut r = repo();
        let patch = Patch::write(path("src/lib.rs"), "fn lib() { /* v2 */ }");
        let id = r.commit_patch(MAINLINE, &patch, meta("v2")).unwrap();
        assert_eq!(r.head(), id);
        assert_eq!(
            r.read_file(id, &path("src/lib.rs")).unwrap(),
            "fn lib() { /* v2 */ }"
        );
        // Old commit still readable (history is immutable).
        assert_eq!(
            r.read_file(r.root(), &path("src/lib.rs")).unwrap(),
            "fn lib() {}"
        );
    }

    #[test]
    fn empty_commit_rejected() {
        let mut r = repo();
        assert!(matches!(
            r.commit_patch(MAINLINE, &Patch::new(), meta("noop")),
            Err(VcsError::EmptyCommit)
        ));
        // A write of identical content is also a no-op.
        let same = Patch::write(path("README.md"), "# repo");
        assert!(matches!(
            r.commit_patch(MAINLINE, &same, meta("noop")),
            Err(VcsError::EmptyCommit)
        ));
    }

    #[test]
    fn log_walks_history_newest_first() {
        let mut r = repo();
        let c1 = r
            .commit_patch(MAINLINE, &Patch::write(path("a"), "1"), meta("c1"))
            .unwrap();
        let c2 = r
            .commit_patch(MAINLINE, &Patch::write(path("a"), "2"), meta("c2"))
            .unwrap();
        let log = r.log(r.head()).unwrap();
        assert_eq!(log, vec![c2, c1, r.root()]);
    }

    #[test]
    fn preview_does_not_commit() {
        let mut r = repo();
        let head = r.head();
        let t = r
            .preview(head, &Patch::write(path("ghost.rs"), "spooky"))
            .unwrap();
        assert!(t.contains(&path("ghost.rs")));
        assert_eq!(r.head(), head);
        assert!(!r.head_tree().unwrap().contains(&path("ghost.rs")));
    }

    /// The queue's cycle — snapshot, release, commit — at two history
    /// lengths (≈ 100 and ≈ 10 000 objects): the store keeps nothing apart
    /// that a write would have to copy, and the recent trees are handed
    /// out, not decoded.
    #[test]
    fn snapshot_cost_does_not_grow_with_history() {
        for commits in [33u64, 3_333] {
            let mut r = repo();
            let mut bases = VecDeque::new();
            for i in 0..commits {
                let store = r.store().clone();
                assert_eq!(store.kept_apart(), 0, "commit {i} of {commits}");
                bases.push_back(r.head());
                if bases.len() > RECENT_TREES {
                    bases.pop_front();
                }
                for (base, (recent, decoded)) in bases.iter().zip(&r.recent) {
                    assert_eq!(base, recent);
                    assert!(r.tree_at(*base).unwrap().shares_root_with(decoded));
                }
                drop(store);
                r.commit_patch(
                    MAINLINE,
                    &Patch::write(path("counter"), format!("{i}")),
                    CommitMeta::new("dev", "tick", i),
                )
                .unwrap();
            }
            assert_eq!(r.store().len() as u64, 5 + 3 * commits);
            assert_eq!(r.recent.len(), RECENT_TREES);
            // Older commits fall out of the window and still read.
            assert_eq!(r.tree_at(r.root()).unwrap().len(), 2);
        }
    }

    /// A commit whose tree is not a directory object this crate wrote
    /// reads as an error, whole: no panic, no partial tree.
    #[test]
    fn a_commit_over_a_hostile_tree_object_reads_as_an_error() {
        let mut r = repo();
        let good = r.head_tree().unwrap().id();
        let mut bytes = r.store().get(&good).unwrap().to_vec();
        bytes.swap(0, 1); // the first entry's kind byte is now an id byte
        for hostile in [bytes, b"not a directory".to_vec()] {
            let tree = r.store_mut().put(hostile);
            let head = r.head();
            let bad = Commit::create(&mut r.store, vec![head], tree, meta("hostile"));
            let id = bad.id;
            r.commits.insert(id, bad);
            assert!(matches!(
                r.tree_at(id),
                Err(VcsError::CorruptObject { id: named, .. }) if named == tree.to_hex()
            ));
            assert!(matches!(
                r.read_file(id, &path("README.md")),
                Err(VcsError::CorruptObject { .. })
            ));
        }
        assert_eq!(r.head_tree().unwrap().len(), 2);
    }

    #[test]
    fn commit_ids_are_unique_along_history() {
        let mut r = repo();
        let mut seen = std::collections::HashSet::new();
        seen.insert(r.head());
        for i in 0..20 {
            let id = r
                .commit_patch(
                    MAINLINE,
                    &Patch::write(path("counter"), format!("{i}")),
                    CommitMeta::new("dev", "tick", i),
                )
                .unwrap();
            assert!(seen.insert(id), "duplicate commit id at step {i}");
        }
        assert_eq!(r.commit_count(), 21);
    }
}
