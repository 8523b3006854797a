//! Errors of the build system.
//!
//! Anything that makes a snapshot unbuildable — unparseable BUILD files,
//! dangling labels, dependency cycles, missing sources — is rejected here,
//! *before* any build step runs. The paper relies on this: the conflict
//! analyzer only ever compares snapshots the build system accepts.

use crate::graph::TargetName;
use sq_vcs::VcsError;
use std::fmt;

/// Any error raised while parsing, validating or hashing a workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label could not be resolved into a `//package:name` target name.
    InvalidLabel(String),
    /// A BUILD file failed to parse.
    Parse {
        /// Repository path of the offending BUILD file.
        path: String,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Two rules declare the same target name.
    DuplicateTarget(TargetName),
    /// A rule's `deps` references a target that does not exist.
    UnknownDependency {
        /// The target whose dependency is dangling.
        target: TargetName,
        /// The label that resolves to nothing.
        dep: TargetName,
    },
    /// The dependency relation has a cycle through these targets: each
    /// lies on a cycle or between two, in name order. Targets that only
    /// depend on a cycle are not named.
    DependencyCycle(Vec<TargetName>),
    /// A rule's `srcs` references a file absent from the snapshot.
    MissingSource {
        /// The target whose source is missing.
        target: TargetName,
        /// The missing repository path.
        path: String,
    },
    /// A blob referenced by the snapshot is absent from the object store.
    MissingObject(String),
    /// An underlying version-control operation failed.
    Vcs(VcsError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidLabel(label) => write!(f, "invalid target label '{label}'"),
            BuildError::Parse { path, message } => {
                write!(f, "failed to parse BUILD file '{path}': {message}")
            }
            BuildError::DuplicateTarget(name) => write!(f, "duplicate target '{name}'"),
            BuildError::UnknownDependency { target, dep } => {
                write!(f, "target '{target}' depends on unknown target '{dep}'")
            }
            BuildError::DependencyCycle(names) => {
                let cycle: Vec<String> = names.iter().map(|n| n.to_string()).collect();
                write!(f, "dependency cycle through [{}]", cycle.join(", "))
            }
            BuildError::MissingSource { target, path } => {
                write!(f, "target '{target}' lists missing source '{path}'")
            }
            BuildError::MissingObject(hex) => write!(f, "object {hex} missing from store"),
            BuildError::Vcs(e) => write!(f, "vcs error: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<VcsError> for BuildError {
    fn from(e: VcsError) -> Self {
        BuildError::Vcs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn display_forms_are_informative() {
        let t = TargetName::from_str("//a:b").unwrap();
        let d = TargetName::from_str("//c:d").unwrap();
        assert_eq!(
            BuildError::InvalidLabel("x".into()).to_string(),
            "invalid target label 'x'"
        );
        assert!(BuildError::DuplicateTarget(t.clone())
            .to_string()
            .contains("//a:b"));
        let e = BuildError::UnknownDependency {
            target: t.clone(),
            dep: d.clone(),
        };
        assert!(e.to_string().contains("//a:b") && e.to_string().contains("//c:d"));
        assert!(BuildError::DependencyCycle(vec![t, d])
            .to_string()
            .contains("cycle"));
    }

    #[test]
    fn vcs_errors_convert() {
        let e: BuildError = VcsError::MissingObject("deadbeef".into()).into();
        assert!(matches!(e, BuildError::Vcs(_)));
        assert!(e.to_string().contains("vcs error"));
    }
}
