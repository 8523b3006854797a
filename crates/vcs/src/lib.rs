//! # sq-vcs — an in-memory content-addressed monorepo
//!
//! SubmitQueue (EuroSys '19) sits in front of a giant monolithic
//! repository: changes are code patches against the mainline HEAD, commits
//! advance the mainline, and the conflict analyzer reads file contents at
//! arbitrary commit points to compute target hashes (paper Algorithm 1).
//! This crate is that substrate: a git-like object model small enough to
//! reason about but faithful where the paper depends on it.
//!
//! * [`hash`] — SHA-256, implemented from scratch, used for content
//!   addressing (blobs, trees, commits all get stable ids).
//! * [`object`] — the content-addressed object store.
//! * [`path`] — normalized repository paths.
//! * [`tree`] — immutable snapshots mapping paths to blob ids: one
//!   shared, content-addressed node per directory.
//! * [`patch`] — a developer's code patch: writes and deletes, plus patch
//!   composition (the paper's `C₁ ⊕ C₂`).
//! * [`diff`] — Myers line diff between blobs.
//! * [`merge`] — three-way file and tree merge with textual-conflict
//!   detection (what a plain git server would catch; the paper's point is
//!   that this is *insufficient* — semantic conflicts need build steps).
//! * [`commit`], [`repo`] — commit DAG, the mainline branch and its history, and
//!   the always-green audit trail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod diff;
pub mod error;
pub mod hash;
pub mod merge;
pub mod object;
pub mod patch;
pub mod path;
pub mod repo;
mod shared;
pub mod tree;

pub use commit::{Commit, CommitId, CommitMeta};
pub use error::VcsError;
pub use hash::Sha256;
pub use object::{Mark, ObjectId, ObjectStore};
pub use patch::{FileOp, Patch};
pub use path::RepoPath;
pub use repo::Repository;
pub use tree::{Tree, WeakTree};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, VcsError>;
