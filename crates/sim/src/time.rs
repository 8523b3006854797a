//! Simulated time: instants and durations with microsecond resolution.
//!
//! The simulator measures everything in integer microseconds so that event
//! ordering is exact (no floating-point comparison hazards) and arithmetic
//! is total. The paper's workloads span hours-long builds over week-long
//! traces; `u64` microseconds comfortably covers ~584k years.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated timeline, measured in microseconds from the
/// start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event is ever scheduled here.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600 * 1_000_000)
    }

    /// Raw microseconds since the simulation origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Hours since the origin, as a float (for reporting only).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600e6
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is in the future, which keeps
    /// bookkeeping code total when events race on the same timestamp.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e6).round().min(u64::MAX as f64) as u64)
    }

    /// Construct from fractional minutes (see [`Self::from_secs_f64`]).
    pub fn from_mins_f64(m: f64) -> Self {
        Self::from_secs_f64(m * 60.0)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional minutes (for reporting only).
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 = self.0.saturating_add(other.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 = self.0.saturating_sub(other.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < 1_000 {
            write!(f, "{us}us")
        } else if us < 1_000_000 {
            write!(f, "{:.1}ms", us as f64 / 1e3)
        } else if us < 60_000_000 {
            write!(f, "{:.1}s", us as f64 / 1e6)
        } else if us < 3_600_000_000 {
            write!(f, "{:.1}min", us as f64 / 60e6)
        } else {
            write!(f, "{:.2}h", us as f64 / 3_600e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_hours(1).as_micros(), 3_600_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_hours(2).as_mins_f64(), 120.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(5);
        assert_eq!((t + d).as_micros(), 15_000_000);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.since(t + d), SimDuration::ZERO);
        assert_eq!((d + d).as_secs_f64(), 10.0);
        assert_eq!((d * 3).as_secs_f64(), 15.0);
        assert_eq!((d / 5).as_secs_f64(), 1.0);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::ZERO - SimDuration::from_secs(1),
            SimDuration::ZERO
        );
    }

    #[test]
    fn float_construction_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimDuration::from_mins_f64(0.5).as_micros(), 30_000_000);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.0ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.0s");
        assert_eq!(SimDuration::from_mins(30).to_string(), "30.0min");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3.00h");
    }

    #[test]
    fn ordering_is_total_on_time() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert!(SimTime::ZERO < a);
        assert!(b < SimTime::MAX);
    }
}
