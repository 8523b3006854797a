//! # sq-exec — the build controller (paper Section 6)
//!
//! "Based on the selected builds, the planner engine … schedules
//! executions of selected builds … through the build controller." The
//! controller owns three optimizations the paper calls out:
//!
//! * **Minimal set of build steps** ([`plan`]): when building
//!   `H ⊕ C₁ ⊕ C₂ ⊕ C₃` after `H ⊕ C₁ ⊕ C₂` has already built, only the
//!   difference `δ_{H⊕C₁⊕C₂⊕C₃} − δ_{H⊕C₁⊕C₂}` needs steps.
//! * **Load balancing** ([`balance`]): steps are spread over workers using
//!   the history of observed step durations so every worker gets an even
//!   amount of work.
//! * **Caching artifacts** ([`cache`]): outputs are keyed by target hash,
//!   so any build that reaches an already-built target reuses the
//!   artifact.
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

pub mod balance;
pub mod cache;
pub mod controller;
pub mod executor;
pub mod fault;
pub mod plan;
pub mod pool;
pub mod step;

pub use balance::{DurationModel, LoadBalancer};
pub use cache::{ArtifactCache, ArtifactId, CacheStats};
pub use controller::{BuildController, ControllerReport};
pub use executor::{ExecReport, RealExecutor, StepOutcome};
pub use fault::{FaultInjector, FaultPlan, InfraFault, InfraFaultKind, RetryPolicy};
pub use plan::BuildPlan;
pub use pool::WorkerPool;
pub use step::{steps_for, BuildStep, StepKind};
