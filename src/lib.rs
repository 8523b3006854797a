//! # keeping-master-green
//!
//! Umbrella crate for the reproduction of *Keeping Master Green at Scale*
//! (Ananthanarayanan et al., EuroSys '19): Uber's **SubmitQueue**, a
//! change-management system that guarantees an always-green monorepo
//! mainline at thousands of commits per day.
//!
//! The workspace layering (see `DESIGN.md` for the full inventory):
//!
//! * [`sim`] — deterministic discrete-event simulation kernel.
//! * [`vcs`] — content-addressed in-memory monorepo.
//! * [`build`] — Buck-like build system: targets, Algorithm-1 hashing,
//!   Section 5.2 conflict detection.
//! * [`exec`] — build controller: artifact cache, real executor,
//!   worker-pool model.
//! * [`ml`] — logistic regression + RFE (Section 7.2).
//! * [`workload`] — synthetic workloads calibrated to the paper's curves.
//! * [`store`] — durable state: CRC-checksummed write-ahead journal,
//!   snapshots, crash-consistent recovery.
//! * [`core`] — SubmitQueue itself: speculation engine, conflict
//!   analyzer, planner, baselines, service API (including the durable
//!   `DurableSubmitQueue` wrapper).
//!
//! ```
//! use keeping_master_green::core::service::SubmitQueueService;
//! use keeping_master_green::exec::StepOutcome;
//! use keeping_master_green::vcs::{Patch, RepoPath, Repository};
//!
//! let repo = Repository::init([
//!     ("pkg/BUILD", "library(name = \"pkg\", srcs = [\"lib.rs\"])"),
//!     ("pkg/lib.rs", "pub fn f() {}"),
//! ]).unwrap();
//! let service = SubmitQueueService::new(repo, 2);
//! let base = service.head();
//! let ticket = service.submit(
//!     "alice",
//!     "first change",
//!     base,
//!     Patch::write(RepoPath::new("pkg/lib.rs").unwrap(), "pub fn f() { /* v2 */ }"),
//! );
//! service.run_until_idle(&|_step, _tree| StepOutcome::Success);
//! assert!(matches!(
//!     service.status(ticket),
//!     Some(keeping_master_green::core::service::TicketState::Landed(_))
//! ));
//! ```

pub mod cli;

pub use sq_build as build;
pub use sq_core as core;
pub use sq_exec as exec;
pub use sq_ml as ml;
pub use sq_sim as sim;
pub use sq_store as store;
pub use sq_vcs as vcs;
pub use sq_workload as workload;
