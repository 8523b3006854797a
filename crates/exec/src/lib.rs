//! # sq-exec — the build controller (paper Section 6)
//!
//! "Based on the selected builds, the planner engine … schedules
//! executions of selected builds … through the build controller." The
//! paper calls out three optimizations of that controller; here they
//! are one cache and one scheduler:
//!
//! * **Caching artifacts** and the **minimal set of build steps**
//!   ([`cache`]): outputs are keyed by target hash, and the executor
//!   looks each step up at the moment it would run — so a build of
//!   `H ⊕ C₁ ⊕ C₂ ⊕ C₃` after `H ⊕ C₁ ⊕ C₂` runs steps only for the
//!   targets whose hash differs, and any build that reaches an
//!   already-built target reuses the artifact.
//! * **Load balancing** ([`executor`]): an idle worker claims the next
//!   ready target, so work spreads by itself and no worker waits while
//!   another has a backlog.
//!
//! Two execution backends are provided: [`pool::WorkerPool`], a capacity
//! model for the discrete-event simulator (a build occupies one worker
//! for its duration, as in the paper's evaluation grid), and
//! [`executor::RealExecutor`], which actually runs step actions in
//! dependency order on the calling thread plus scoped helpers — the
//! served queue's builds and the runnable examples. Its idle workers
//! park on a condvar; nothing waits by spinning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod controller;
pub mod executor;
pub mod fault;
pub mod pool;
pub mod step;

pub use cache::{ArtifactCache, ArtifactId, CacheStats};
pub use controller::BuildController;
pub use executor::{ExecReport, RealExecutor, StepOutcome};
pub use fault::{FaultInjector, FaultPlan, InfraFault, InfraFaultKind, RetryPolicy};
pub use pool::WorkerPool;
pub use step::{steps_for, BuildStep, StepKind};
