//! # sq-core — SubmitQueue
//!
//! The paper's primary contribution: a change-management system that
//! keeps a monorepo mainline *always green* at scale by totally ordering
//! changes (not just patches), while hitting turnaround-time SLAs through
//! probabilistic speculation and conflict analysis.
//!
//! Architecture (paper Figure 4):
//!
//! ```text
//!   land(change) ──► queue ──► PLANNER ENGINE ──► BUILD CONTROLLER ──► workers
//!                                 │    ▲
//!                   SPECULATION ◄─┘    └─► commit / abort
//!                     ENGINE ◄── CONFLICT ANALYZER (conflict graph)
//! ```
//!
//! * [`pending`] — per-change outcomes and commit/reject records.
//! * [`predict`] — `P_succ` / `P_conf` estimators: the learned logistic
//!   models (Section 7.2), the oracle and the uniform 50/50 baseline.
//! * [`analyzer`] — the conflict graph over pending changes (Section 5),
//!   backed either by the index-served part-overlap model (simulation)
//!   or by the real build-system analyzer from `sq-build`.
//! * [`index`] — the incremental conflict index: affected bitsets kept
//!   per change until it resolves, and a whole-window pairwise matrix.
//! * [`speculation`] — the speculation engine (Section 4): build values
//!   `V = B · P_needed` per Equations 1–5, and greedy best-first
//!   selection of the most valuable builds in O(n) frontier space
//!   (Section 7.1), over a `Table` of per-change rows that the decision
//!   core keeps between rounds and refreshes only where an event moved
//!   an input (the one-shot entry points fill a fresh one).
//! * [`strategy`] — one `Strategy` value (a kind, a predictor, optional
//!   lean flags) whose `desired_builds` reads a lane's table and returns
//!   the round's `Plan`:
//!   SubmitQueue plus every baseline evaluated in Section 8 —
//!   Speculate-all, Optimistic (Zuul), Single-Queue (Bors), and the
//!   Oracle used for normalization — plus the lean variants.
//! * [`lean`] — the Uber 2025 follow-up optimizations: probability-
//!   gated speculation skipping, risk prioritization, and bypass lanes
//!   (`LeanConfig`, `bypass_eligible`, `LeanReport`).
//! * [`decision`] — the decision core of the planner engine (Sections
//!   4–6): events in (a change arrived, a build attempt finished),
//!   actions out (start, abort, retry, resolved). The serializability
//!   rule, the contradiction test and the preemption policy, with no
//!   workload, clock, randomness, worker pool or observer inside. It
//!   keeps each lane's speculation table from round to round and marks
//!   the rows each event touches.
//! * [`planner`] — the core's first driver, a discrete-event
//!   simulation: the clock, worker pools, ground truth, fault dice and
//!   observer; measures turnaround and throughput.
//! * [`trunk`] — the *pre*-SubmitQueue world of Figure 14: trunk-based
//!   development with post-submit detection and manual reverts.
//! * [`batching`] — the Section 10 batch-and-bisect extension (batching
//!   independent changes to save hardware).
//! * [`audit`] — ground-truth greenness audits (the "always green"
//!   invariant is checked, not assumed).
//! * [`scenario`] — the adversarial scenario-matrix runner: replays
//!   named `sq-workload` manifests through every strategy and audits
//!   each run.
//! * [`shard`] — sharded multi-lane planning: part → shard routing
//!   plans, per-lane worker splits, the planning-cost model that makes
//!   one global window saturate, and per-shard reports/audits over the
//!   merged trunk.
//! * [`service`] — an embeddable `SubmitQueueService`: a serial queue
//!   over a materialized repository (rebase, target-hash affected set,
//!   real executor, commit if green). It names no conflict analyzer.
//! * [`durable`] — the crash-consistent service: every state transition
//!   is journaled through `sq-store` before it is acknowledged, and
//!   `DurableSubmitQueue::open` reconstructs the exact acked state from
//!   snapshot + journal-suffix replay.
//! * [`failover`] — replicated operation on top of `durable`: leaders
//!   that ship every journal record to followers, fenced follower
//!   promotion with zero acked-work loss, and candidate selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod audit;
pub mod batching;
pub mod decision;
pub mod durable;
pub mod failover;
mod fasthash;
pub mod index;
pub mod lean;
pub mod pending;
pub mod planner;
pub mod predict;
pub mod recovery;
pub mod scenario;
pub mod service;
pub mod shard;
pub mod speculation;
pub mod strategy;
pub mod trunk;

pub use analyzer::{ConflictAnalyzer, ConflictGraph, IndexedAnalyzer, RealAnalyzer};
pub use durable::{DurableState, DurableSubmitQueue, ServiceEvent};
pub use failover::{
    best_promotion_candidate, open_leader, promote_from_follower, PromotionCandidate,
    PromotionReport,
};
pub use index::{ConflictIndex, ConflictMatrix, IndexStats, TrunkHash};
pub use lean::{bypass_eligible, LeanConfig, LeanReport, SKIP_MISS_BUDGET};
pub use pending::{ChangeOutcome, ChangeRecord};
pub use planner::{run_simulation, PlannerConfig, SimResult};
pub use predict::{LearnedPredictor, OraclePredictor, Predictor};
pub use recovery::{QuarantineList, RecoveryConfig};
pub use scenario::{run_scenario, ScenarioRun, StrategyOutcome};
pub use service::{HistoryViolation, SubmitQueueService, TicketId, TicketState};
pub use shard::{LaneStats, PlanningCost, ShardPlan, ShardReport, ShardSpec};
pub use speculation::{BuildKey, SpeculationEngine};
pub use strategy::StrategyKind;
