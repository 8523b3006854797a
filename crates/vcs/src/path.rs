//! Normalized repository paths.
//!
//! Paths in the monorepo are `/`-separated, relative to the repository
//! root, with no empty, `.` or `..` components. Normalizing once at the
//! boundary means the tree, the patch machinery and the build system can
//! compare paths with plain string equality.

use crate::error::VcsError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The most components a path may have. Directory trees recurse once per
/// level (encoding, decoding, dropping), so the bound keeps a path that
/// arrives in a frame or a journal from choosing the stack depth.
pub const MAX_DEPTH: usize = 128;

/// A validated, normalized repository-relative path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RepoPath(String);

impl RepoPath {
    /// Normalize and validate a path string.
    ///
    /// Accepts optional leading `/` and redundant separators; rejects
    /// empty paths, `.`/`..` components, more than [`MAX_DEPTH`]
    /// components, and trailing slashes that would make the path a
    /// directory.
    pub fn new(s: impl AsRef<str>) -> Result<Self, VcsError> {
        let raw = s.as_ref();
        let mut parts: Vec<&str> = Vec::new();
        for part in raw.split('/') {
            match part {
                "" => continue, // collapse '//' and strip leading '/'
                "." | ".." => return Err(VcsError::InvalidPath(raw.to_string())),
                p => parts.push(p),
            }
        }
        if parts.is_empty() || parts.len() > MAX_DEPTH || raw.ends_with('/') {
            return Err(VcsError::InvalidPath(raw.to_string()));
        }
        Ok(RepoPath(parts.join("/")))
    }

    /// The normalized string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Path components.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/')
    }

    /// The directory part (everything before the final component), or
    /// `None` for top-level files.
    pub fn parent(&self) -> Option<&str> {
        self.0.rsplit_once('/').map(|(dir, _)| dir)
    }

    /// The final component.
    pub fn file_name(&self) -> &str {
        self.0.rsplit_once('/').map_or(&self.0, |(_, f)| f)
    }

    /// Join a child component onto this path.
    pub fn join(&self, child: &str) -> Result<RepoPath, VcsError> {
        RepoPath::new(format!("{}/{}", self.0, child))
    }
}

impl fmt::Display for RepoPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for RepoPath {
    type Err = VcsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RepoPath::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_leading_and_duplicate_slashes() {
        assert_eq!(RepoPath::new("/a//b/c.rs").unwrap().as_str(), "a/b/c.rs");
        assert_eq!(RepoPath::new("a/b").unwrap().as_str(), "a/b");
    }

    #[test]
    fn rejects_bad_paths() {
        assert!(RepoPath::new("").is_err());
        assert!(RepoPath::new("/").is_err());
        assert!(RepoPath::new("a/../b").is_err());
        assert!(RepoPath::new("./a").is_err());
        assert!(RepoPath::new("a/b/").is_err());
        assert!(RepoPath::new(vec!["d"; MAX_DEPTH].join("/")).is_ok());
        assert!(RepoPath::new(vec!["d"; MAX_DEPTH + 1].join("/")).is_err());
    }

    #[test]
    fn components_and_parts() {
        let p = RepoPath::new("apps/rider/src/main.rs").unwrap();
        assert_eq!(
            p.components().collect::<Vec<_>>(),
            vec!["apps", "rider", "src", "main.rs"]
        );
        assert_eq!(p.parent(), Some("apps/rider/src"));
        assert_eq!(p.file_name(), "main.rs");
        let top = RepoPath::new("README.md").unwrap();
        assert_eq!(top.parent(), None);
        assert_eq!(top.file_name(), "README.md");
    }

    #[test]
    fn join_builds_children() {
        let p = RepoPath::new("a/b").unwrap();
        assert_eq!(p.join("c.rs").unwrap().as_str(), "a/b/c.rs");
        assert!(p.join("..").is_err());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = RepoPath::new("a/b").unwrap();
        let b = RepoPath::new("a/c").unwrap();
        assert!(a < b);
    }
}
