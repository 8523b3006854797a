//! # sq-sim — deterministic discrete-event simulation kernel
//!
//! The evaluation in *Keeping Master Green at Scale* (EuroSys '19) replays
//! nine months of production changes through a controlled environment at
//! fixed ingestion rates (Section 8.1). This crate provides the substrate
//! for that controlled environment:
//!
//! * a microsecond-resolution simulated clock ([`SimTime`], [`SimDuration`]),
//! * a deterministic event queue with stable FIFO tie-breaking
//!   ([`event::EventQueue`]) and a generic simulation driver
//!   ([`engine::Simulation`], [`engine::run`]),
//! * a fully deterministic, seedable random-number generator
//!   ([`rng::Xoshiro256StarStar`]) that does not depend on platform entropy,
//! * the probability distributions used by the workload model
//!   ([`dist`]): exponential inter-arrival times, log-normal build
//!   durations, and an alias-method sampler for weighted discrete
//!   choices,
//! * batch statistics ([`stats`]): exact percentiles and empirical CDFs
//!   used to print the paper's figures.
//!
//! Everything in this crate is deterministic given a seed: two runs with
//! the same seed produce bit-identical event orders, which is what makes
//! the cross-strategy comparisons in the benchmark harness meaningful
//! (every strategy sees the exact same change trace).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{run, Scheduler, Simulation};
pub use event::EventQueue;
pub use rng::Xoshiro256StarStar;
pub use stats::{Cdf, Percentiles};
pub use time::{SimDuration, SimTime};
