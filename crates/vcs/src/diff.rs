//! Line-oriented diffs (Myers' O(ND) algorithm).
//!
//! The three-way merge in [`crate::merge`] needs the edit script between
//! the common base and each side. We implement the classic greedy Myers
//! algorithm over lines; monorepo files in the simulation are small, so
//! the quadratic worst case is irrelevant, and the linear common-prefix/
//! suffix trim handles the overwhelmingly common "small hunk in a big
//! file" case cheaply.

/// One element of an edit script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffOp {
    /// Lines `a_range` in the old text equal lines `b_range` in the new.
    Equal,
    /// Lines present only in the old text (deletion).
    Delete,
    /// Lines present only in the new text (insertion).
    Insert,
}

/// A maximal run of one edit kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hunk {
    /// The kind of run.
    pub op: DiffOp,
    /// Start line (0-based) in the old text.
    pub old_start: usize,
    /// Number of old lines covered (0 for insertions).
    pub old_len: usize,
    /// Start line (0-based) in the new text.
    pub new_start: usize,
    /// Number of new lines covered (0 for deletions).
    pub new_len: usize,
}

/// Compute the line-level edit script from `old` to `new`.
pub fn diff_lines(old: &str, new: &str) -> Vec<Hunk> {
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    diff_slices(&a, &b)
}

/// Compute the edit script between two slices of comparable items.
pub fn diff_slices<T: PartialEq>(a: &[T], b: &[T]) -> Vec<Hunk> {
    // Trim the common prefix and suffix: cheap and dominant in practice.
    let mut start = 0;
    while start < a.len() && start < b.len() && a[start] == b[start] {
        start += 1;
    }
    let mut a_end = a.len();
    let mut b_end = b.len();
    while a_end > start && b_end > start && a[a_end - 1] == b[b_end - 1] {
        a_end -= 1;
        b_end -= 1;
    }

    let mut hunks = Vec::new();
    if start > 0 {
        hunks.push(Hunk {
            op: DiffOp::Equal,
            old_start: 0,
            old_len: start,
            new_start: 0,
            new_len: start,
        });
    }
    let middle = myers(&a[start..a_end], &b[start..b_end], start, start);
    hunks.extend(middle);
    if a_end < a.len() {
        hunks.push(Hunk {
            op: DiffOp::Equal,
            old_start: a_end,
            old_len: a.len() - a_end,
            new_start: b_end,
            new_len: b.len() - b_end,
        });
    }
    coalesce(hunks)
}

/// Greedy Myers over the trimmed middle. `ao`/`bo` are global offsets.
fn myers<T: PartialEq>(a: &[T], b: &[T], ao: usize, bo: usize) -> Vec<Hunk> {
    let n = a.len();
    let m = b.len();
    if n == 0 && m == 0 {
        return vec![];
    }
    if n == 0 {
        return vec![Hunk {
            op: DiffOp::Insert,
            old_start: ao,
            old_len: 0,
            new_start: bo,
            new_len: m,
        }];
    }
    if m == 0 {
        return vec![Hunk {
            op: DiffOp::Delete,
            old_start: ao,
            old_len: n,
            new_start: bo,
            new_len: 0,
        }];
    }

    let max = n + m;
    let max_i = max as isize;
    let width = 2 * max + 1;
    let idx = |k: isize| (k + max_i) as usize;
    // v[idx(k)] = furthest x reached on diagonal k. Stored as isize so the
    // k=±d boundary reads (which may look at uninitialized neighbours) are
    // harmless: the guard conditions prevent their use.
    let mut v = vec![0isize; width];
    // Snapshot of v at the *start* of each depth d, for backtracking.
    let mut trace: Vec<Vec<isize>> = Vec::new();

    'outer: for d in 0..=(max as isize) {
        trace.push(v.clone());
        let mut k = -d;
        while k <= d {
            let mut x = if k == -d || (k != d && v[idx(k - 1)] < v[idx(k + 1)]) {
                v[idx(k + 1)] // move down in the edit graph (insertion)
            } else {
                v[idx(k - 1)] + 1 // move right (deletion)
            };
            let mut y = x - k;
            while (x as usize) < n && (y as usize) < m && a[x as usize] == b[y as usize] {
                x += 1;
                y += 1;
            }
            v[idx(k)] = x;
            if x as usize >= n && y as usize >= m {
                break 'outer;
            }
            k += 2;
        }
    }

    // Backtrack from (n, m) to (0, 0), emitting unit ops in reverse.
    let mut ops: Vec<(DiffOp, usize, usize)> = Vec::new(); // (op, old_pos, new_pos)
    let mut x = n as isize;
    let mut y = m as isize;
    for (d, vprev) in trace.iter().enumerate().rev() {
        if x == 0 && y == 0 {
            break;
        }
        let d = d as isize;
        let k = x - y;
        let prev_k = if k == -d || (k != d && vprev[idx(k - 1)] < vprev[idx(k + 1)]) {
            k + 1
        } else {
            k - 1
        };
        let prev_x = vprev[idx(prev_k)];
        let prev_y = prev_x - prev_k;
        // Walk back down the snake (diagonal) first.
        while x > prev_x && y > prev_y {
            x -= 1;
            y -= 1;
            ops.push((DiffOp::Equal, x as usize, y as usize));
        }
        if d > 0 {
            if prev_k == k + 1 {
                // Came from above: an insertion of b[prev_y].
                y -= 1;
                ops.push((DiffOp::Insert, x as usize, y as usize));
            } else {
                // Came from the left: a deletion of a[prev_x].
                x -= 1;
                ops.push((DiffOp::Delete, x as usize, y as usize));
            }
        }
    }
    debug_assert!(x == 0 && y == 0, "backtrack did not reach origin");

    ops.reverse();
    // Convert unit ops to hunks with global offsets.
    let mut hunks: Vec<Hunk> = Vec::new();
    for (op, ux, uy) in ops {
        let (ol, nl) = match op {
            DiffOp::Equal => (1, 1),
            DiffOp::Delete => (1, 0),
            DiffOp::Insert => (0, 1),
        };
        match hunks.last_mut() {
            Some(h) if h.op == op => {
                h.old_len += ol;
                h.new_len += nl;
            }
            _ => hunks.push(Hunk {
                op,
                old_start: ao + ux,
                old_len: ol,
                new_start: bo + uy,
                new_len: nl,
            }),
        }
    }
    hunks
}

/// Merge adjacent hunks of the same kind.
fn coalesce(hunks: Vec<Hunk>) -> Vec<Hunk> {
    let mut out: Vec<Hunk> = Vec::with_capacity(hunks.len());
    for h in hunks {
        match out.last_mut() {
            Some(prev)
                if prev.op == h.op
                    && prev.old_start + prev.old_len == h.old_start
                    && prev.new_start + prev.new_len == h.new_start =>
            {
                prev.old_len += h.old_len;
                prev.new_len += h.new_len;
            }
            _ => out.push(h),
        }
    }
    out
}

/// Apply an edit script to the old lines, reconstructing the new text.
/// Used to validate diffs in tests and property checks.
pub fn apply_hunks(old: &str, new: &str, hunks: &[Hunk]) -> String {
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    let mut out: Vec<&str> = Vec::with_capacity(b.len());
    for h in hunks {
        match h.op {
            DiffOp::Equal | DiffOp::Delete => {
                if h.op == DiffOp::Equal {
                    out.extend_from_slice(&a[h.old_start..h.old_start + h.old_len]);
                }
            }
            DiffOp::Insert => {
                out.extend_from_slice(&b[h.new_start..h.new_start + h.new_len]);
            }
        }
    }
    out.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_roundtrip(old: &str, new: &str) {
        let hunks = diff_lines(old, new);
        let rebuilt = apply_hunks(old, new, &hunks);
        let expected = new.lines().collect::<Vec<_>>().join("\n");
        assert_eq!(rebuilt, expected, "old={old:?} new={new:?} hunks={hunks:?}");
    }

    #[test]
    fn identical_texts() {
        let hunks = diff_lines("a\nb\nc", "a\nb\nc");
        assert_eq!(hunks.len(), 1);
        assert_eq!(hunks[0].op, DiffOp::Equal);
        check_roundtrip("a\nb\nc", "a\nb\nc");
    }

    #[test]
    fn pure_insert_and_delete() {
        check_roundtrip("", "a\nb");
        check_roundtrip("a\nb", "");
        let hunks = diff_lines("a", "a\nb");
        assert!(hunks.iter().any(|h| h.op == DiffOp::Insert));
    }

    #[test]
    fn modification_in_the_middle() {
        check_roundtrip("a\nb\nc\nd", "a\nX\nc\nd");
        check_roundtrip("a\nb\nc\nd", "a\nX\nY\nc\nd");
        check_roundtrip("a\nb\nc\nd\ne", "a\nd\ne");
    }

    #[test]
    fn everything_changes() {
        check_roundtrip("a\nb\nc", "x\ny\nz");
        check_roundtrip("one", "two");
    }

    #[test]
    fn interleaved_edits() {
        check_roundtrip("a\nb\nc\nd\ne\nf", "a\nB\nc\nD\ne\nf\ng");
        check_roundtrip("1\n2\n3\n4\n5\n6\n7\n8", "1\nX\n3\n4\nY\nZ\n7\n8\n9");
    }

    #[test]
    fn classic_myers_example() {
        // ABCABBA -> CBABAC, the example from the Myers paper.
        let a: Vec<char> = "ABCABBA".chars().collect();
        let b: Vec<char> = "CBABAC".chars().collect();
        let hunks = diff_slices(&a, &b);
        // Verify the script reconstructs b.
        let mut out = Vec::new();
        for h in &hunks {
            match h.op {
                DiffOp::Equal => out.extend_from_slice(&a[h.old_start..h.old_start + h.old_len]),
                DiffOp::Insert => out.extend_from_slice(&b[h.new_start..h.new_start + h.new_len]),
                DiffOp::Delete => {}
            }
        }
        assert_eq!(out, b);
        // The optimal script has 5 edit units (d = 5).
        let edits: usize = hunks
            .iter()
            .filter(|h| h.op != DiffOp::Equal)
            .map(|h| h.old_len + h.new_len)
            .sum();
        assert_eq!(edits, 5);
    }

    #[test]
    fn hunks_are_coalesced() {
        let hunks = diff_lines("a\nb\nc", "a\nX\nY");
        // Expect at most: Equal(a), Delete(b,c), Insert(X,Y) — no unit spam.
        assert!(hunks.len() <= 3, "hunks = {hunks:?}");
    }
}
