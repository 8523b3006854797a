//! Journals persist `CommitId`s, so the encodings behind them must not
//! move by accident. They moved once on purpose: when trees became one
//! object per directory (Merkle-by-directory trees, ROADMAP item 2.3),
//! the flat whole-repository tree object went, and every tree id, and so
//! every commit id, changed with it. The ids below were pinned then. The
//! repository is in-memory only, so no stored object had to be migrated;
//! but a journal written by an earlier binary names commit ids that a
//! repository re-materialised by this one no longer reproduces.
//!
//! The second test holds the format itself against an encoder written
//! out here, entry by entry.

use sq_vcs::repo::MAINLINE;
use sq_vcs::{CommitMeta, FileOp, ObjectId, ObjectStore, Patch, RepoPath, Repository, Tree};
use std::collections::BTreeMap;

fn path(s: &str) -> RepoPath {
    RepoPath::new(s).unwrap()
}

#[test]
fn tree_and_commit_ids_of_the_three_commit_fixture_are_pinned() {
    let mut repo = Repository::init([
        ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
        ("lib/l.rs", "pub fn l() {}"),
        ("README.md", "# pinned\n"),
    ])
    .unwrap();
    let root = repo.head();
    let c1 = repo
        .commit_patch(
            MAINLINE,
            &Patch::write(path("lib/l.rs"), "pub fn l() { /* v2 */ }"),
            CommitMeta::new("alice", "[T1] improve lib", 0),
        )
        .unwrap();
    let c2 = repo
        .commit_patch(
            MAINLINE,
            &Patch::from_ops([
                FileOp::Delete {
                    path: path("README.md"),
                },
                FileOp::Write {
                    path: path("docs/guide.md"),
                    content: "guide\n".into(),
                },
            ]),
            CommitMeta::new("bob", "[T2] move the docs", 17),
        )
        .unwrap();
    let pinned = [
        (
            "b8367802cc3875144f40d5d9e1a1fe2cf05dbe7300d245c6bbec22005c8a0d87",
            "8da161076f8647a370a4df1c8e922e6d9812c416513c170c36cbb6f90912baa6",
        ),
        (
            "c411a6d9912f58a40e6ff7b082eb3bb7e8be5c5f49db7a35511529f130e222ea",
            "02c81e02b3b9590630911814657b8d07f6d975c7252f65b261a22a813ece1e01",
        ),
        (
            "14339663aff62217aa5434020db7dd759ed6714833f0293f1007ab8313d7344c",
            "e50a4a7aed74dd83404be6c8b07f5874134c3300db2d7667999172ea34ee0a59",
        ),
    ];
    for (id, (tree_hex, commit_hex)) in [root, c1, c2].into_iter().zip(pinned) {
        assert_eq!(repo.commit(id).unwrap().tree.to_hex(), tree_hex);
        assert_eq!(id.0.to_hex(), commit_hex);
    }
}

/// A directory as the format defines it, without the crate's tree: per
/// entry, in the order of the names with `/` appended to a directory's,
/// `f` or `d`, the 32 id bytes, the name's length as a little-endian
/// `u32`, the name.
#[derive(Default)]
struct RefDir {
    files: BTreeMap<String, ObjectId>,
    dirs: BTreeMap<String, RefDir>,
}

impl RefDir {
    fn add(&mut self, path: &str, blob: ObjectId) {
        match path.split_once('/') {
            Some((dir, rest)) => self
                .dirs
                .entry(dir.to_string())
                .or_default()
                .add(rest, blob),
            None => drop(self.files.insert(path.to_string(), blob)),
        }
    }

    /// Put this directory's object, and those below it, into `store`.
    fn put(&self, store: &mut ObjectStore) -> ObjectId {
        let mut entries: Vec<(String, u8, ObjectId, &str)> = Vec::new();
        for (name, blob) in &self.files {
            entries.push((name.clone(), b'f', *blob, name));
        }
        for (name, dir) in &self.dirs {
            entries.push((format!("{name}/"), b'd', dir.put(store), name));
        }
        entries.sort();
        let mut bytes = Vec::new();
        for (_, kind, id, name) in entries {
            bytes.push(kind);
            bytes.extend_from_slice(id.as_bytes());
            bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
        }
        store.put(bytes)
    }
}

#[test]
fn directory_objects_equal_the_reference_encoding_on_a_1500_file_tree() {
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    let mut reference = RefDir::default();
    for i in 0..1_500 {
        let blob = store.put(format!("content of file {i}").into_bytes());
        // `pkg1/`, `pkg1-x/` and `pkg10/` sort differently as names and
        // as path prefixes; so do `pkg2/src` and the file `pkg2/src.rs`.
        let p = match i % 300 {
            1 => format!("pkg1-x/file_{i}.rs"),
            2 if i == 2 => "pkg2/src.rs".to_string(),
            k => format!("pkg{k}/src/file_{i}.rs"),
        };
        tree.insert(path(&p), blob).unwrap();
        reference.add(&p, blob);
    }
    let mut theirs = ObjectStore::new();
    let expected = reference.put(&mut theirs);
    assert_eq!(tree.id(), expected);
    // Object for object: the same ids hold the same bytes.
    let blobs = store.len();
    assert_eq!(tree.store(&mut store), expected);
    assert_eq!(store.len() - blobs, theirs.len());
    assert_eq!(Tree::load(&theirs, expected).unwrap(), tree);
}
