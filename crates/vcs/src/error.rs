//! Error type for repository operations.

use crate::commit::CommitId;
use crate::path::RepoPath;
use std::fmt;

/// Everything that can go wrong when manipulating the repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcsError {
    /// A referenced object id is not in the store.
    MissingObject(String),
    /// A stored directory object is not one this crate's encoder writes.
    CorruptObject {
        /// Hex id of the object.
        id: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A referenced commit does not exist.
    UnknownCommit(CommitId),
    /// A referenced branch does not exist.
    UnknownBranch(String),
    /// A patch operation referenced a path absent from the tree.
    MissingPath(RepoPath),
    /// A write needs a directory where the tree holds a file, or names a
    /// path the tree holds a directory at: no checkout could hold both.
    PathConflict(RepoPath),
    /// A path string failed normalization.
    InvalidPath(String),
    /// Applying a patch produced a textual merge conflict.
    MergeConflict {
        /// Paths on which both sides made incompatible edits.
        paths: Vec<RepoPath>,
    },
    /// The commit being created would be empty (patch is a no-op).
    EmptyCommit,
    /// Expected fast-forward but histories diverged.
    NotFastForward {
        /// The branch tip that is not an ancestor.
        tip: CommitId,
    },
}

impl fmt::Display for VcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcsError::MissingObject(id) => write!(f, "object {id} not found in store"),
            VcsError::CorruptObject { id, reason } => {
                write!(f, "object {id} is not a directory: {reason}")
            }
            VcsError::UnknownCommit(id) => write!(f, "unknown commit {id}"),
            VcsError::UnknownBranch(name) => write!(f, "unknown branch '{name}'"),
            VcsError::MissingPath(p) => write!(f, "path '{p}' not found in tree"),
            VcsError::PathConflict(p) => {
                write!(
                    f,
                    "path '{p}' collides with a file or directory in the tree"
                )
            }
            VcsError::InvalidPath(s) => write!(f, "invalid repository path '{s}'"),
            VcsError::MergeConflict { paths } => {
                write!(f, "textual merge conflict on {} path(s): ", paths.len())?;
                for (i, p) in paths.iter().take(5).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            VcsError::EmptyCommit => write!(f, "refusing to create an empty commit"),
            VcsError::NotFastForward { tip } => {
                write!(f, "not a fast-forward: {tip} is not an ancestor")
            }
        }
    }
}

impl std::error::Error for VcsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VcsError::UnknownBranch("feature/x".into());
        assert!(e.to_string().contains("feature/x"));
        let e = VcsError::MergeConflict {
            paths: vec![RepoPath::new("a/b.rs").unwrap()],
        };
        assert!(e.to_string().contains("a/b.rs"));
    }
}
