//! # sq-build — a Buck-like build system for the SubmitQueue stack
//!
//! The paper (EuroSys '19) assumes a monorepo organized "as a directed
//! acyclic graph of build targets" with hermetic, content-derived target
//! hashes — that is what its whole conflict analysis is computed over.
//! This crate is that substrate, mapped module-by-module to the paper:
//!
//! * [`graph`] — targets, labels, and the validated target DAG (§5.1);
//! * [`parser`] — BUILD files (a Starlark-like subset) parsed out of an
//!   `sq-vcs` snapshot into a [`BuildGraph`] (§5.1);
//! * [`hash`] — Algorithm 1: hermetic target hashes that change iff a
//!   source blob or a transitive dependency hash changes (§5.2);
//! * [`affected`] — δ(H⊕C): the affected-target set between two
//!   snapshots, with per-target added/changed/deleted states (§5.2);
//! * [`conflict`] — Equation 6, the union-graph algorithm (Steps 1–4),
//!   the unchanged-graph fast path, and the tiered production check
//!   ([`conflict::changes_conflict`]) used by the conflict analyzer
//!   (§5.2, Fig. 8);
//! * [`bitset`] — target-name interning and packed-word bitsets, so the
//!   per-pair Eq.-6 name intersection is a word-wise AND instead of a
//!   string-keyed map probe (the conflict index in `sq-core` builds on
//!   this);
//! * [`error`] — everything that makes a snapshot unbuildable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affected;
pub mod bitset;
pub mod conflict;
pub mod error;
pub mod graph;
pub mod hash;
pub mod parser;

pub use affected::{AffectedSet, AffectedState, SnapshotAnalysis};
pub use bitset::{BitSet, InternedAffected, Interner};
pub use error::BuildError;
pub use graph::{BuildGraph, RuleKind, Target, TargetName};
pub use hash::{TargetHash, TargetHashes};
pub use parser::parse_workspace;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, BuildError>;

/// The work an analysis does, counted for the tests of what a package
/// directory keeps; nothing is counted outside them.
#[cfg(not(test))]
mod work {
    /// One BUILD file was tokenized and parsed.
    pub(crate) fn build_parsed() {}
    /// Algorithm 1 read `n` sources of one target.
    pub(crate) fn sources_absorbed(_n: usize) {}
}

#[cfg(test)]
mod work {
    use std::cell::Cell;

    thread_local! {
        /// BUILD files parsed and sources absorbed on this test's thread.
        static COUNTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    pub(crate) fn build_parsed() {
        COUNTS.with(|c| c.set((c.get().0 + 1, c.get().1)));
    }

    pub(crate) fn sources_absorbed(n: usize) {
        COUNTS.with(|c| c.set((c.get().0, c.get().1 + n)));
    }

    /// `(BUILD files parsed, sources absorbed)` since the last call.
    pub(crate) fn take() -> (usize, usize) {
        COUNTS.with(|c| c.replace((0, 0)))
    }
}
