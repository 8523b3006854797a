//! Trunk-based development — the world *before* SubmitQueue (Figure 14).
//!
//! "Over a span of one week, the mainline was green only 52% of the time"
//! (Section 8.5). This module simulates that regime: changes commit
//! straight to the mainline after pre-submit checks, an exhaustive
//! post-submit pipeline detects breakage after the fact, and sheriffs
//! bisect and revert — during which the mainline stays red and new
//! (possibly also broken) commits keep landing on top.

use sq_sim::{SimDuration, SimTime, Xoshiro256StarStar};
use sq_workload::{ChangeSpec, Workload};

/// Fraction of *individually failing* changes that slip past pre-submit
/// checks (pre-submit runs a reduced suite; integration and UI failures
/// surface post-submit).
const PRESUBMIT_ESCAPE_RATE: f64 = 0.35;
/// How far back a change's development window reaches: commits that
/// landed within this window are the ones it can really conflict with
/// (it was developed unaware of them).
const DEV_WINDOW: SimDuration = SimDuration::from_mins(40);
/// Base time for the post-submit pipeline to flag a breakage.
const DETECT_BASE: SimDuration = SimDuration::from_mins(25);
/// Extra localization time per commit that landed since the breakage
/// (bisection and sheriff work scale with the pile-up).
const LOCALIZE_PER_COMMIT: SimDuration = SimDuration::from_mins(3);
/// RNG seed for the escape coin.
const SEED: u64 = 0x7A17;

/// Result of a trunk-based run.
#[derive(Debug, Clone)]
pub struct TrunkResult {
    /// Green fraction per hour of the run (the Figure 14 series,
    /// as 0–100 success-rate values).
    pub hourly_green_pct: Vec<f64>,
    /// Overall fraction of time the mainline was green.
    pub green_fraction: f64,
    /// Number of breakage incidents.
    pub breakages: usize,
}

/// Simulate trunk-based development over a workload.
pub fn simulate_trunk(workload: &Workload) -> TrunkResult {
    let truth = workload.truth();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED);
    let mut red_intervals: Vec<(SimTime, SimTime)> = Vec::new();
    let mut committed: Vec<&ChangeSpec> = Vec::new();
    let mut breakages = 0usize;

    for c in &workload.changes {
        let t = c.submit_time;
        // Which previously committed changes fall in the dev window?
        let window_start =
            SimTime::from_micros(t.as_micros().saturating_sub(DEV_WINDOW.as_micros()));
        let conflicts_with_recent = committed
            .iter()
            .rev()
            .take_while(|d| d.submit_time >= window_start)
            .any(|d| truth.real_conflict(c, d));
        let individual_escape = !c.intrinsic_success && rng.bernoulli(PRESUBMIT_ESCAPE_RATE);
        committed.push(c);
        if conflicts_with_recent || individual_escape {
            breakages += 1;
            // Detection + localization: commits landed in the last hour
            // approximate the bisection set.
            let hour_ago = SimTime::from_micros(
                t.as_micros()
                    .saturating_sub(SimDuration::from_hours(1).as_micros()),
            );
            let pile_up = committed
                .iter()
                .rev()
                .take_while(|d| d.submit_time >= hour_ago)
                .count() as u64;
            let red_until = t + DETECT_BASE + LOCALIZE_PER_COMMIT * pile_up.min(20);
            red_intervals.push((t, red_until));
        }
    }

    // Merge red intervals and integrate per-hour greenness.
    red_intervals.sort();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (s, e) in red_intervals {
        match merged.last_mut() {
            Some((_, last_e)) if s <= *last_e => *last_e = (*last_e).max(e),
            _ => merged.push((s, e)),
        }
    }
    let horizon = workload.horizon();
    let hours = horizon.as_hours_f64().ceil().max(1.0) as u64;
    let mut hourly_green_pct = Vec::with_capacity(hours as usize);
    let mut red_total = SimDuration::ZERO;
    for h in 0..hours {
        let start = SimTime::from_hours(h);
        let end = SimTime::from_hours(h + 1).min(horizon);
        if end <= start {
            break;
        }
        let mut red_in_hour = SimDuration::ZERO;
        for &(s, e) in &merged {
            let overlap_start = s.max(start);
            let overlap_end = e.min(end);
            if overlap_end > overlap_start {
                red_in_hour += overlap_end.since(overlap_start);
            }
        }
        let span = end.since(start);
        red_total += red_in_hour;
        let green = 1.0 - red_in_hour.as_secs_f64() / span.as_secs_f64().max(1e-9);
        hourly_green_pct.push(green * 100.0);
    }
    let green_fraction = 1.0 - red_total.as_secs_f64() / horizon.as_secs_f64().max(1e-9);
    TrunkResult {
        hourly_green_pct,
        green_fraction,
        breakages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    /// A week of organic commits (~12/hour, as production mainlines see).
    fn week_workload(seed: u64) -> Workload {
        WorkloadBuilder::new(WorkloadParams::ios().with_rate(12.0))
            .seed(seed)
            .duration_hours(168.0)
            .build()
            .unwrap()
    }

    #[test]
    fn figure14_green_roughly_half_the_time() {
        let w = week_workload(61);
        let r = simulate_trunk(&w);
        // Paper: 52% green. The synthetic model lands in the same band.
        assert!(
            (0.30..0.75).contains(&r.green_fraction),
            "green fraction = {}",
            r.green_fraction
        );
        assert!(r.breakages > 10, "a week must see many breakages");
        // The horizon is the last Poisson arrival, so the series spans
        // roughly — not exactly — a week of hours.
        let hours = r.hourly_green_pct.len();
        assert!((150..200).contains(&hours), "hours = {hours}");
    }

    #[test]
    fn hourly_series_is_percentages() {
        let w = week_workload(62);
        let r = simulate_trunk(&w);
        for &pct in &r.hourly_green_pct {
            assert!((0.0..=100.0).contains(&pct), "pct = {pct}");
        }
        // Some hours fully green, some heavily red — the Figure 14 shape.
        assert!(r.hourly_green_pct.iter().any(|&p| p > 95.0));
        assert!(r.hourly_green_pct.iter().any(|&p| p < 50.0));
    }

    #[test]
    fn no_failures_and_no_conflicts_means_always_green() {
        let mut params = WorkloadParams::ios().with_rate(12.0);
        params.pairwise_conflict_prob = 0.0;
        params.success_base_logit = 50.0; // no change fails on its own
        let w = WorkloadBuilder::new(params)
            .seed(63)
            .duration_hours(24.0)
            .build()
            .unwrap();
        let r = simulate_trunk(&w);
        assert_eq!(r.breakages, 0);
        assert!((r.green_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_rate_means_more_red() {
        let slow = WorkloadBuilder::new(WorkloadParams::ios().with_rate(4.0))
            .seed(64)
            .duration_hours(72.0)
            .build()
            .unwrap();
        let fast = WorkloadBuilder::new(WorkloadParams::ios().with_rate(40.0))
            .seed(64)
            .duration_hours(72.0)
            .build()
            .unwrap();
        let r_slow = simulate_trunk(&slow);
        let r_fast = simulate_trunk(&fast);
        assert!(
            r_fast.green_fraction < r_slow.green_fraction,
            "fast {} vs slow {}",
            r_fast.green_fraction,
            r_slow.green_fraction
        );
    }
}
