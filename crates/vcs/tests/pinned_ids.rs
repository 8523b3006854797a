//! Journals persist `CommitId`s, so the canonical encodings behind them
//! must never move. The ids below were produced by the per-entry
//! `to_hex` encoder this crate shipped before trees were hex-encoded in
//! place; a journal written then must still name the same commits now.

use sq_vcs::repo::MAINLINE;
use sq_vcs::{CommitMeta, FileOp, ObjectStore, Patch, RepoPath, Repository, Tree};

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
            "57498183581b3ae9a6ea846a184acab1c942390388038e6bc7d2d582f002e4c4",
            "90e073440bd4d5ff4be91f78075c0f3035c59df2ad8df0cff885d28ca89210f9",
        ),
        (
            "fc78c3c4873a44747466f91e3038a22ae90d7264b810c3fdb67636f7bd285b79",
            "541217896614e8b4f3312c65283d4803e6d605a0ead026e8c00fa2d726448012",
        ),
        (
            "00f54ffefc3b3905c05f44ad042f95a7ab154dcb3be8fb47edff5ce1faef89b0",
            "d7946a32b516b6848e637c619585b75b19b9e6393753cc5a755ff16a613fea90",
        ),
    ];
    for (id, (tree_hex, commit_hex)) in [repo.root(), c1, c2].into_iter().zip(pinned) {
        assert_eq!(repo.commit(id).unwrap().tree.to_hex(), tree_hex);
        assert_eq!(id.0.to_hex(), commit_hex);
    }
}

#[test]
fn canonical_bytes_equal_the_per_entry_encoding_on_a_1500_file_tree() {
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    for i in 0..1_500 {
        let blob = store.put(format!("content of file {i}").into_bytes());
        tree.insert(path(&format!("pkg{}/src/file_{i}.rs", i % 300)), blob);
    }
    // The reference: one formatted hex string per entry, byte by byte.
    let mut reference = Vec::new();
    for (p, id) in tree.iter() {
        let hex: String = id.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        reference.extend_from_slice(format!("{hex} {p}\n").as_bytes());
    }
    assert_eq!(tree.canonical_bytes(), reference);
    assert_eq!(Tree::from_canonical_bytes(&reference).unwrap(), tree);
}
