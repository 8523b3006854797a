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

/// The work an analysis does, and what it looks at to find it, counted
/// for the tests of what a tree keeps; nothing is counted outside them.
#[cfg(not(test))]
mod work {
    /// One BUILD file was tokenized and parsed.
    pub(crate) fn build_parsed() {}
    /// Algorithm 1 read `n` sources of one target.
    pub(crate) fn sources_absorbed(_n: usize) {}
    /// Algorithm 1 fed one target's dependencies and finalized its hash.
    pub(crate) fn target_finalized() {}
    /// `parse_workspace` built a graph from the declared targets.
    pub(crate) fn graph_built() {}
    /// `parse_workspace` looked at one package's BUILD file.
    pub(crate) fn package_visited() {}
    /// Algorithm 1 compared one target's inputs with its kept hash's.
    pub(crate) fn target_compared() {}
    /// A kernel looked `n` objects up in the store.
    pub(crate) fn looked_up(_n: usize) {}
}

#[cfg(test)]
mod work {
    use std::cell::Cell;

    /// The work done on one test's thread.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Work {
        /// BUILD files parsed.
        pub(crate) parsed: usize,
        /// Sources absorbed.
        pub(crate) absorbed: usize,
        /// Targets finalized.
        pub(crate) finalized: usize,
        /// Graphs built.
        pub(crate) graphs: usize,
    }

    /// What the kernels looked at on one test's thread to find the work.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Looked {
        /// Package directories visited.
        pub(crate) visited: usize,
        /// Targets compared.
        pub(crate) compared: usize,
        /// Store look-ups.
        pub(crate) looked_up: usize,
    }

    thread_local! {
        static WORK: Cell<(Work, Looked)> = Cell::default();
    }

    fn count(add: impl FnOnce(&mut Work, &mut Looked)) {
        WORK.with(|w| {
            let (mut work, mut looked) = w.get();
            add(&mut work, &mut looked);
            w.set((work, looked));
        });
    }

    pub(crate) fn build_parsed() {
        count(|w, _| w.parsed += 1);
    }

    pub(crate) fn sources_absorbed(n: usize) {
        count(|w, _| w.absorbed += n);
    }

    pub(crate) fn target_finalized() {
        count(|w, _| w.finalized += 1);
    }

    pub(crate) fn graph_built() {
        count(|w, _| w.graphs += 1);
    }

    pub(crate) fn package_visited() {
        count(|_, l| l.visited += 1);
    }

    pub(crate) fn target_compared() {
        count(|_, l| l.compared += 1);
    }

    pub(crate) fn looked_up(n: usize) {
        count(|_, l| l.looked_up += n);
    }

    /// The work done since the last call.
    pub(crate) fn take() -> Work {
        WORK.with(|w| {
            let (work, looked) = w.get();
            w.set((Work::default(), looked));
            work
        })
    }

    /// What was looked at since the last call.
    pub(crate) fn take_looked() -> Looked {
        WORK.with(|w| {
            let (work, looked) = w.get();
            w.set((work, Looked::default()));
            looked
        })
    }
}
