//! Property tests for the VCS substrate: the diff engine, patch algebra,
//! merges and canonical encodings.

use proptest::prelude::*;
use sq_vcs::diff::{apply_hunks, diff_lines, DiffOp};
use sq_vcs::merge::{merge_file, FileMerge};
use sq_vcs::{FileOp, ObjectId, ObjectStore, Patch, RepoPath, Tree};

/// Short line-based texts over a tiny alphabet (maximizes collisions,
/// which is what stresses diff/merge logic).
fn arb_text() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")],
        0..12,
    )
    .prop_map(|lines| lines.join("\n"))
}

fn arb_path() -> impl proptest::strategy::Strategy<Value = RepoPath> {
    (0u8..4, 0u8..4).prop_map(|(d, f)| RepoPath::new(format!("d{d}/f{f}.rs")).unwrap())
}

fn arb_patch() -> impl proptest::strategy::Strategy<Value = Patch> {
    proptest::collection::vec(
        (arb_path(), arb_text()).prop_map(|(path, content)| FileOp::Write { path, content }),
        1..5,
    )
    .prop_map(Patch::from_ops)
}

/// A base tree containing every path the patch generator can produce.
fn full_tree(store: &mut ObjectStore) -> Tree {
    let mut t = Tree::new();
    for d in 0..4 {
        for f in 0..4 {
            let id = store.put(format!("base d{d} f{f}").into_bytes());
            t.insert(RepoPath::new(format!("d{d}/f{f}.rs")).unwrap(), id)
                .unwrap();
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn diff_reconstructs_target(old in arb_text(), new in arb_text()) {
        let hunks = diff_lines(&old, &new);
        let rebuilt = apply_hunks(&old, &new, &hunks);
        let expected = new.lines().collect::<Vec<_>>().join("\n");
        prop_assert_eq!(rebuilt, expected);
    }

    #[test]
    fn diff_of_identical_text_is_all_equal(text in arb_text()) {
        let hunks = diff_lines(&text, &text);
        prop_assert!(hunks.iter().all(|h| h.op == DiffOp::Equal));
    }

    #[test]
    fn diff_edit_count_bounded_by_line_counts(old in arb_text(), new in arb_text()) {
        let hunks = diff_lines(&old, &new);
        let deleted: usize = hunks.iter().filter(|h| h.op == DiffOp::Delete).map(|h| h.old_len).sum();
        let inserted: usize = hunks.iter().filter(|h| h.op == DiffOp::Insert).map(|h| h.new_len).sum();
        prop_assert!(deleted <= old.lines().count());
        prop_assert!(inserted <= new.lines().count());
    }

    #[test]
    fn merge_takes_sole_edit(base in arb_text(), edit in arb_text()) {
        // One side unchanged: merge must take the other side verbatim.
        match merge_file(&base, &edit, &base) {
            FileMerge::Clean(out) => prop_assert_eq!(out, edit),
            FileMerge::Conflict => prop_assert!(false, "sole edit cannot conflict"),
        }
    }

    #[test]
    fn merge_is_symmetric_in_verdict(base in arb_text(), a in arb_text(), b in arb_text()) {
        let ab = matches!(merge_file(&base, &a, &b), FileMerge::Conflict);
        let ba = matches!(merge_file(&base, &b, &a), FileMerge::Conflict);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn patch_compose_matches_sequential_apply(p1 in arb_patch(), p2 in arb_patch()) {
        let mut store = ObjectStore::new();
        let base = full_tree(&mut store);
        let seq = p2.apply(&p1.apply(&base, &mut store).unwrap(), &mut store).unwrap();
        let composed = p1.compose(&p2).apply(&base, &mut store).unwrap();
        prop_assert_eq!(seq, composed);
    }

    #[test]
    fn disjoint_patches_commute(p1 in arb_patch(), p2 in arb_patch()) {
        prop_assume!(p1.paths().all(|path| p2.paths().all(|other| other != path)));
        let mut store = ObjectStore::new();
        let base = full_tree(&mut store);
        let ab = p2.apply(&p1.apply(&base, &mut store).unwrap(), &mut store).unwrap();
        let ba = p1.apply(&p2.apply(&base, &mut store).unwrap(), &mut store).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn tree_store_load_roundtrip(patch in arb_patch()) {
        let mut store = ObjectStore::new();
        let base = full_tree(&mut store);
        let tree = patch.apply(&base, &mut store).unwrap();
        let id = tree.store(&mut store);
        let loaded = Tree::load(&store, id).unwrap();
        prop_assert_eq!(loaded.iter().collect::<Vec<_>>(), tree.iter().collect::<Vec<_>>());
        prop_assert_eq!(loaded.iter().count(), tree.iter().count());
        prop_assert_eq!(&loaded, &tree);
    }

    /// Directory objects are checked, not trusted: with any one byte of
    /// one of them changed, the tree is refused or is exactly the tree
    /// those bytes encode.
    #[test]
    fn a_flipped_byte_in_a_directory_object_is_an_error_or_reencodes_exactly(
        patch in arb_patch(),
        which in 0usize..5,
        at in any::<usize>(),
        flip in 1u16..256,
    ) {
        let mut blobs = ObjectStore::new();
        let tree = patch.apply(&full_tree(&mut blobs), &mut blobs).unwrap();
        // `store` holds directory objects only: the root, whose four
        // entries (kind, id, length, two-byte name) are d0..d3, and those.
        let mut store = ObjectStore::new();
        let root = tree.store(&mut store);
        let mut root_bytes = store.get(&root).unwrap().to_vec();
        prop_assert_eq!(root_bytes.len(), 4 * 39);

        // Change the root, or a subdirectory and the root's id for it.
        let top = if which == 0 {
            let at = at % root_bytes.len();
            root_bytes[at] ^= flip as u8;
            store.put(root_bytes.clone())
        } else {
            let id_at = (which - 1) * 39 + 1;
            let sub = ObjectId::from_raw(root_bytes[id_at..id_at + 32].try_into().unwrap());
            let mut sub_bytes = store.get(&sub).unwrap().to_vec();
            let at = at % sub_bytes.len();
            sub_bytes[at] ^= flip as u8;
            let changed = store.put(sub_bytes);
            root_bytes[id_at..id_at + 32].copy_from_slice(changed.as_bytes());
            store.put(root_bytes.clone())
        };
        if let Ok(loaded) = Tree::load(&store, top) {
            let mut again = ObjectStore::new();
            prop_assert_eq!(loaded.store(&mut again), top);
            prop_assert_eq!(again.get(&top).unwrap().to_vec(), root_bytes);
        }
    }

    #[test]
    fn sha256_streaming_matches_one_shot(data in proptest::collection::vec(any::<u8>(), 0..300), split in 0usize..300) {
        use sq_vcs::Sha256;
        let split = split.min(data.len());
        let one_shot = Sha256::digest(&data);
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), one_shot);
    }
}
