//! Property tests for the sharing behind O(1) snapshots: the object
//! store's shared map, trees that share their directories and the
//! repository's window of decoded recent trees must be invisible — every read answers what a
//! deep copy taken at the same moment would have answered.

use proptest::prelude::*;
use sq_vcs::repo::{MAINLINE, RECENT_TREES};
use sq_vcs::{CommitId, CommitMeta, FileOp, ObjectId, Patch, RepoPath, Repository, Tree};

fn arb_path() -> impl proptest::strategy::Strategy<Value = RepoPath> {
    (0u8..4, 0u8..4).prop_map(|(d, f)| RepoPath::new(format!("d{d}/f{f}.rs")).unwrap())
}

fn arb_op() -> impl proptest::strategy::Strategy<Value = FileOp> {
    prop_oneof![
        4 => (arb_path(), 0u16..1_000)
            .prop_map(|(path, v)| FileOp::Write { path, content: format!("v{v}\n") }),
        1 => arb_path().prop_map(|path| FileOp::Delete { path }),
    ]
}

fn arb_patch() -> impl proptest::strategy::Strategy<Value = Patch> {
    proptest::collection::vec(arb_op(), 1..4).prop_map(Patch::from_ops)
}

/// Longer than the recent-tree window, so every history has commits on
/// both sides of it.
fn arb_patches() -> impl proptest::strategy::Strategy<Value = Vec<Patch>> {
    proptest::collection::vec(arb_patch(), RECENT_TREES + 4..RECENT_TREES + 16)
}

fn seed_repo() -> Repository {
    let files: Vec<(String, String)> = (0..4)
        .flat_map(|d| (0..2).map(move |f| (format!("d{d}/f{f}.rs"), format!("base d{d} f{f}\n"))))
        .collect();
    Repository::init(files.iter().map(|(p, c)| (p.as_str(), c.as_str()))).unwrap()
}

/// Commit every patch that applies (a delete of a missing path or a
/// no-op write is refused by the repository and skipped here).
fn commit_all(repo: &mut Repository, patches: &[Patch], author: &str) -> Vec<CommitId> {
    patches
        .iter()
        .enumerate()
        .filter_map(|(i, patch)| {
            let meta = CommitMeta::new(author, format!("change {i}"), i as u64);
            repo.commit_patch(MAINLINE, patch, meta).ok()
        })
        .collect()
}

/// What a deep copy would hold: every file's path and bytes.
fn contents(tree: &Tree, store: &sq_vcs::ObjectStore) -> Vec<(RepoPath, Vec<u8>)> {
    tree.iter()
        .map(|(p, id)| (p.clone(), store.get(id).expect("blob stored").to_vec()))
        .collect()
}

fn decoded_from_store(repo: &Repository, id: CommitId) -> Tree {
    let commit = repo.commit(id).unwrap();
    Tree::load(repo.store(), commit.tree).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn tree_at_equals_the_stored_object_inside_and_outside_the_window(patches in arb_patches()) {
        let mut repo = seed_repo();
        commit_all(&mut repo, &patches, "dev");
        let log = repo.log(repo.head()).unwrap();
        for id in &log {
            prop_assert_eq!(repo.tree_at(*id).unwrap(), decoded_from_store(&repo, *id));
        }
        prop_assert_eq!(repo.head_tree().unwrap(), decoded_from_store(&repo, repo.head()));
    }

    #[test]
    fn a_snapshot_reads_byte_identically_after_later_commits(
        before in arb_patches(),
        after in arb_patches(),
    ) {
        let mut repo = seed_repo();
        commit_all(&mut repo, &before, "dev");
        let store = repo.store().clone();
        let trees: Vec<Tree> = repo
            .log(repo.head())
            .unwrap()
            .into_iter()
            .map(|id| repo.tree_at(id).unwrap())
            .collect();
        let then: Vec<_> = trees.iter().map(|t| contents(t, &store)).collect();
        let objects_then = store.len();

        commit_all(&mut repo, &after, "later");

        let now: Vec<_> = trees.iter().map(|t| contents(t, &store)).collect();
        prop_assert_eq!(then, now);
        prop_assert_eq!(store.len(), objects_then);
    }

    #[test]
    fn objects_are_private_to_the_side_that_put_them_until_committed(patch in arb_patch()) {
        let mut repo = seed_repo();
        let head_tree = repo.head_tree().unwrap();
        let objects_before = repo.store().len();

        // Stage the change in a snapshot, as the queue does.
        let mut staged = repo.store().clone();
        let staged_tree = match patch.apply(&head_tree, &mut staged) {
            Ok(tree) => tree,
            Err(_) => return Ok(()), // deletes a path the seed does not have
        };
        let new_blobs: Vec<ObjectId> = staged_tree
            .iter()
            .map(|(_, id)| *id)
            .filter(|id| !head_tree.iter().any(|(_, old)| old == id))
            .collect();
        for blob in &new_blobs {
            prop_assert!(staged.contains(blob));
            prop_assert!(!repo.store().contains(blob));
        }
        prop_assert_eq!(repo.store().len(), objects_before);

        // And the other way round.
        let ours = repo.store_mut().put(&b"put into the original"[..]);
        prop_assert!(!staged.contains(&ours));

        // Committing is what makes them the repository's.
        if repo.commit_patch(MAINLINE, &patch, CommitMeta::new("dev", "land", 1)).is_ok() {
            for blob in &new_blobs {
                prop_assert!(repo.store().contains(blob));
            }
        }
    }

    #[test]
    fn mutating_a_cloned_tree_never_changes_the_original(ops in proptest::collection::vec(arb_op(), 1..12)) {
        let repo = seed_repo();
        let mut store = repo.store().clone();
        let original = repo.head_tree().unwrap();
        let before = (original.id(), contents(&original, &store));
        let mut copy = original.clone();
        for op in ops {
            match op {
                FileOp::Write { path, content } => {
                    copy.insert(path, store.put(content.into_bytes())).unwrap()
                }
                FileOp::Delete { path } => {
                    copy.remove(&path);
                }
            }
        }
        prop_assert_eq!(&(original.id(), contents(&original, &store)), &before);
        // The window's own copy of HEAD is untouched too.
        let head = repo.head_tree().unwrap();
        prop_assert_eq!(&(head.id(), contents(&head, &store)), &before);
        // And the copy is what a tree built from nothing would be.
        let mut rebuilt = Tree::new();
        for (path, blob) in copy.iter() {
            rebuilt.insert(path.clone(), *blob).unwrap();
        }
        prop_assert_eq!(rebuilt.id(), copy.id());
    }

    /// A directory's id is remembered once computed; that memory says
    /// nothing about which stores hold its object. A tree staged in a
    /// snapshot must reach a store that has never seen it whole.
    #[test]
    fn a_tree_stored_elsewhere_first_still_arrives_whole(
        history in arb_patches(),
        patch in arb_patch(),
    ) {
        let mut repo = seed_repo();
        commit_all(&mut repo, &history, "dev");
        let head = repo.head_tree().unwrap();
        let mut staged = repo.store().clone();
        let tree = patch.apply(&head, &mut staged).unwrap_or(head);
        let id = tree.store(&mut staged);

        let mut fresh = sq_vcs::ObjectStore::new();
        prop_assert_eq!(tree.store(&mut fresh), id);
        let loaded = Tree::load(&fresh, id).unwrap();
        // File by file: equal ids alone would make the two trees equal.
        prop_assert_eq!(loaded.iter().collect::<Vec<_>>(), tree.iter().collect::<Vec<_>>());
        prop_assert_eq!(loaded.len(), tree.len());
    }

    #[test]
    fn repository_clones_diverge_independently(
        shared in arb_patches(),
        left in arb_patches(),
        right in arb_patches(),
    ) {
        let mut a = seed_repo();
        commit_all(&mut a, &shared, "dev");
        let fork = a.head();
        let mut b = a.clone();
        let a_only = commit_all(&mut a, &left, "left");
        let b_only = commit_all(&mut b, &right, "right");

        for id in &a_only {
            prop_assert!(b.commit(*id).is_err());
        }
        for id in &b_only {
            prop_assert!(a.commit(*id).is_err());
        }
        for (repo, own) in [(&a, &a_only), (&b, &b_only)] {
            prop_assert_eq!(repo.head(), own.last().copied().unwrap_or(fork));
            let log = repo.log(repo.head()).unwrap();
            prop_assert_eq!(&log[..own.len()], &own.iter().rev().copied().collect::<Vec<_>>()[..]);
            prop_assert_eq!(log[own.len()], fork);
            for id in &log {
                prop_assert_eq!(repo.tree_at(*id).unwrap(), decoded_from_store(repo, *id));
            }
        }
    }
}
