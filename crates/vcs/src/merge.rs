//! Three-way merge with textual-conflict detection.
//!
//! This is the merge a conventional code-management system performs when
//! two changes land concurrently (paper Section 1: "totally ordering code
//! patches, which a conventional code management system (e.g., git server)
//! does ... can still lead to a mainline breakage"). We reproduce it
//! faithfully — file-level fast paths, line-level diff3 for concurrent
//! edits to the same file — precisely so the evaluation can distinguish
//! *textual* conflicts (caught here) from *semantic* conflicts (only
//! caught by running build steps, which is SubmitQueue's whole point).

use crate::diff::{diff_lines, DiffOp, Hunk};
use crate::error::VcsError;
use crate::object::ObjectStore;
use crate::patch::{FileOp, Patch};
use crate::path::RepoPath;
use crate::tree::Tree;
use std::collections::BTreeSet;

/// Result of a three-way file merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileMerge {
    /// The sides merged cleanly into this content.
    Clean(String),
    /// The sides made overlapping edits.
    Conflict,
}

/// A replacement of a base-line range with new lines, derived from one
/// side's edit script.
#[derive(Debug, Clone)]
struct Replacement {
    /// Half-open base-line range being replaced (empty for pure inserts).
    base_start: usize,
    base_end: usize,
    /// Replacement lines.
    lines: Vec<String>,
}

/// Convert an edit script into replacement records against the base.
fn replacements(base: &str, side: &str) -> Vec<Replacement> {
    let side_lines: Vec<&str> = side.lines().collect();
    let hunks: Vec<Hunk> = diff_lines(base, side);
    let mut out: Vec<Replacement> = Vec::new();
    for h in hunks {
        match h.op {
            DiffOp::Equal => {}
            DiffOp::Delete => merge_into(
                &mut out,
                Replacement {
                    base_start: h.old_start,
                    base_end: h.old_start + h.old_len,
                    lines: Vec::new(),
                },
            ),
            DiffOp::Insert => merge_into(
                &mut out,
                Replacement {
                    base_start: h.old_start,
                    base_end: h.old_start,
                    lines: h.new_range_lines(&side_lines),
                },
            ),
        }
    }
    out
}

impl Hunk {
    fn new_range_lines(&self, side_lines: &[&str]) -> Vec<String> {
        side_lines[self.new_start..self.new_start + self.new_len]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
}

/// Append a replacement, fusing it with the previous one when adjacent
/// (a Delete immediately followed by an Insert is a modification).
fn merge_into(out: &mut Vec<Replacement>, r: Replacement) {
    if let Some(last) = out.last_mut() {
        if last.base_end == r.base_start {
            last.base_end = r.base_end;
            last.lines.extend(r.lines);
            return;
        }
    }
    out.push(r);
}

/// True iff two replacement lists touch overlapping or abutting base
/// regions (abutting counts: the relative order of the two sides' inserted
/// lines would be ambiguous).
fn overlaps(a: &[Replacement], b: &[Replacement]) -> bool {
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        let (ra, rb) = (&a[i], &b[j]);
        // Treat an empty range [p, p) as occupying the boundary point p.
        let a_end = ra.base_end.max(ra.base_start);
        let b_end = rb.base_end.max(rb.base_start);
        if ra.base_start <= b_end && rb.base_start <= a_end {
            // Identical replacements on both sides are not a conflict.
            if ra.base_start == rb.base_start && ra.base_end == rb.base_end && ra.lines == rb.lines
            {
                i += 1;
                j += 1;
                continue;
            }
            return true;
        }
        if a_end < rb.base_start {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

/// Merge two sides against a common base at line granularity.
pub fn merge_file(base: &str, ours: &str, theirs: &str) -> FileMerge {
    if ours == theirs {
        return FileMerge::Clean(ours.to_string());
    }
    if ours == base {
        return FileMerge::Clean(theirs.to_string());
    }
    if theirs == base {
        return FileMerge::Clean(ours.to_string());
    }
    let ra = replacements(base, ours);
    let rb = replacements(base, theirs);
    if overlaps(&ra, &rb) {
        return FileMerge::Conflict;
    }
    // Apply both replacement lists in one walk over the base.
    let base_lines: Vec<&str> = base.lines().collect();
    let mut all: Vec<&Replacement> = ra.iter().chain(rb.iter()).collect();
    all.sort_by_key(|r| (r.base_start, r.base_end));
    // Deduplicate identical same-position replacements (both sides made
    // the same edit).
    all.dedup_by(|x, y| {
        x.base_start == y.base_start && x.base_end == y.base_end && x.lines == y.lines
    });
    let mut out: Vec<String> = Vec::with_capacity(base_lines.len());
    let mut cursor = 0usize;
    for r in all {
        out.extend(
            base_lines[cursor..r.base_start]
                .iter()
                .map(|s| s.to_string()),
        );
        out.extend(r.lines.iter().cloned());
        cursor = r.base_end.max(cursor.max(r.base_start));
    }
    out.extend(base_lines[cursor..].iter().map(|s| s.to_string()));
    FileMerge::Clean(out.join("\n"))
}

/// Merge two patches made against the same base snapshot into a single
/// combined patch, or report the conflicting paths.
///
/// File-level rules:
/// * paths touched by only one side merge trivially;
/// * write vs. delete of the same path conflicts;
/// * write vs. write goes through [`merge_file`] against the base content.
pub fn merge_patches(
    base: &Tree,
    store: &ObjectStore,
    ours: &Patch,
    theirs: &Patch,
) -> Result<Patch, VcsError> {
    let mut combined = ours.compose(&Patch::new()); // clone via compose
    let mut conflicts: BTreeSet<RepoPath> = BTreeSet::new();
    let our_paths: BTreeSet<&RepoPath> = ours.paths().collect();
    for op in theirs.ops() {
        let path = op.path();
        if !our_paths.contains(path) {
            combined.push(op.clone());
            continue;
        }
        let our_op = ours
            .ops()
            .find(|o| o.path() == path)
            .expect("path present in our_paths");
        match (our_op, op) {
            (FileOp::Delete { .. }, FileOp::Delete { .. }) => {
                // Both deleted: agreement.
            }
            (FileOp::Write { content: a, .. }, FileOp::Write { content: b, .. }) => {
                let base_content = base
                    .get(path)
                    .and_then(|id| store.get_text(&id))
                    .unwrap_or_default();
                match merge_file(&base_content, a, b) {
                    FileMerge::Clean(merged) => combined.push(FileOp::Write {
                        path: path.clone(),
                        content: merged,
                    }),
                    FileMerge::Conflict => {
                        conflicts.insert(path.clone());
                    }
                }
            }
            _ => {
                // Write vs delete.
                conflicts.insert(path.clone());
            }
        }
    }
    if conflicts.is_empty() {
        Ok(combined)
    } else {
        Err(VcsError::MergeConflict {
            paths: conflicts.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_cases() {
        assert_eq!(merge_file("b", "b", "b"), FileMerge::Clean("b".into()));
        assert_eq!(merge_file("b", "x", "b"), FileMerge::Clean("x".into()));
        assert_eq!(merge_file("b", "b", "y"), FileMerge::Clean("y".into()));
        assert_eq!(
            merge_file("b", "same", "same"),
            FileMerge::Clean("same".into())
        );
    }

    #[test]
    fn disjoint_edits_merge() {
        let base = "a\nb\nc\nd\ne\nf\ng\nh";
        let ours = "A\nb\nc\nd\ne\nf\ng\nh"; // edit line 0
        let theirs = "a\nb\nc\nd\ne\nf\ng\nH"; // edit line 7
        assert_eq!(
            merge_file(base, ours, theirs),
            FileMerge::Clean("A\nb\nc\nd\ne\nf\ng\nH".into())
        );
    }

    #[test]
    fn overlapping_edits_conflict() {
        let base = "a\nb\nc";
        let ours = "a\nX\nc";
        let theirs = "a\nY\nc";
        assert_eq!(merge_file(base, ours, theirs), FileMerge::Conflict);
    }

    #[test]
    fn adjacent_inserts_at_same_point_conflict() {
        let base = "a\nb";
        let ours = "a\nX\nb";
        let theirs = "a\nY\nb";
        assert_eq!(merge_file(base, ours, theirs), FileMerge::Conflict);
    }

    #[test]
    fn identical_edits_agree() {
        let base = "a\nb\nc";
        let both = "a\nZ\nc";
        assert_eq!(merge_file(base, both, both), FileMerge::Clean(both.into()));
    }

    #[test]
    fn insert_far_from_delete_merges() {
        let base = "1\n2\n3\n4\n5\n6\n7\n8\n9\n10";
        let ours = "0\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10"; // insert at top
        let theirs = "1\n2\n3\n4\n5\n6\n7\n8\n9"; // delete line 10
        assert_eq!(
            merge_file(base, ours, theirs),
            FileMerge::Clean("0\n1\n2\n3\n4\n5\n6\n7\n8\n9".into())
        );
    }

    fn path(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    fn setup() -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut t = Tree::new();
        for (p, c) in [("f1", "a\nb\nc\nd\ne\nf"), ("f2", "x\ny\nz")] {
            let id = store.put(c.as_bytes().to_vec());
            t.insert(path(p), id).unwrap();
        }
        (t, store)
    }

    #[test]
    fn patches_on_distinct_files_merge() {
        let (base, store) = setup();
        let ours = Patch::write(path("f1"), "changed1");
        let theirs = Patch::write(path("f2"), "changed2");
        let merged = merge_patches(&base, &store, &ours, &theirs).unwrap();
        assert_eq!(merged.ops().count(), 2);
    }

    #[test]
    fn patches_with_disjoint_line_edits_on_same_file_merge() {
        let (base, store) = setup();
        let ours = Patch::write(path("f1"), "A\nb\nc\nd\ne\nf");
        let theirs = Patch::write(path("f1"), "a\nb\nc\nd\ne\nF");
        let merged = merge_patches(&base, &store, &ours, &theirs).unwrap();
        let op = merged.ops().next().unwrap();
        match op {
            FileOp::Write { content, .. } => assert_eq!(content, "A\nb\nc\nd\ne\nF"),
            _ => panic!("expected write"),
        }
    }

    #[test]
    fn write_vs_delete_conflicts() {
        let (base, store) = setup();
        let ours = Patch::write(path("f1"), "modified");
        let theirs = Patch::from_ops([FileOp::Delete { path: path("f1") }]);
        let err = merge_patches(&base, &store, &ours, &theirs).unwrap_err();
        assert!(matches!(err, VcsError::MergeConflict { .. }));
    }

    #[test]
    fn both_delete_agrees() {
        let (base, store) = setup();
        let ours = Patch::from_ops([FileOp::Delete { path: path("f1") }]);
        let theirs = Patch::from_ops([FileOp::Delete { path: path("f1") }]);
        let merged = merge_patches(&base, &store, &ours, &theirs).unwrap();
        assert_eq!(merged.ops().count(), 1);
    }

    #[test]
    fn overlapping_same_file_edits_report_the_path() {
        let (base, store) = setup();
        let ours = Patch::write(path("f1"), "a\nOURS\nc\nd\ne\nf");
        let theirs = Patch::write(path("f1"), "a\nTHEIRS\nc\nd\ne\nf");
        match merge_patches(&base, &store, &ours, &theirs) {
            Err(VcsError::MergeConflict { paths }) => {
                assert_eq!(paths, vec![path("f1")]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }
}
