//! Worker-pool capacity model for the discrete-event simulator.
//!
//! The paper's evaluation grid sweeps 100–500 workers against 100–500
//! changes/hour; a speculation build occupies one worker (a Mac Mini) for
//! its duration. This model does the corresponding bookkeeping: capacity,
//! occupancy, and utilization accounting over simulated time — both in
//! aggregate and **per worker**, so the observability layer can report
//! the fleet's load distribution, not just its mean.
//!
//! [`WorkerPool::acquire_worker`] and [`WorkerPool::release_worker`]
//! identify which worker a build occupies (lowest-index-idle assignment,
//! deterministic), enabling per-worker busy-time attribution.

use sq_sim::{SimDuration, SimTime};

/// Per-worker occupancy state.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// When the current occupation started (`None` = idle).
    since: Option<SimTime>,
    /// Accumulated busy time over closed occupations, in microseconds.
    busy_us: u128,
}

/// A fixed pool of identical workers.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    slots: Vec<Slot>,
    busy: usize,
    /// Integral of busy workers over time (worker-microseconds), for
    /// utilization reporting.
    busy_integral: u128,
    last_update: SimTime,
}

impl WorkerPool {
    /// A pool with `total` workers, all idle. Panics if `total == 0`.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a worker pool needs at least one worker");
        WorkerPool {
            slots: vec![Slot::default(); total],
            busy: 0,
            busy_integral: 0,
            last_update: SimTime::ZERO,
        }
    }

    /// Total capacity.
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Currently occupied workers.
    pub fn busy(&self) -> usize {
        self.busy
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_update);
        self.busy_integral += dt.as_micros() as u128 * self.busy as u128;
        self.last_update = now;
    }

    /// Occupy the lowest-indexed idle worker at simulated time `now`,
    /// returning its index, or `None` when the pool is saturated.
    pub fn acquire_worker(&mut self, now: SimTime) -> Option<usize> {
        self.advance(now);
        let idx = self.slots.iter().position(|s| s.since.is_none())?;
        self.slots[idx].since = Some(now);
        self.busy += 1;
        Some(idx)
    }

    /// Release worker `idx` at simulated time `now`, crediting its busy
    /// time since acquisition.
    ///
    /// # Panics
    /// Panics if `idx` is out of range or idle — that is always a
    /// planner bug (double release loses capacity accounting silently
    /// otherwise).
    pub fn release_worker(&mut self, idx: usize, now: SimTime) {
        self.advance(now);
        let slot = &mut self.slots[idx];
        let since = slot
            .since
            .take()
            .expect("release_worker without matching acquire");
        slot.busy_us += now.since(since).as_micros() as u128;
        self.busy -= 1;
    }

    /// Mean utilization in [0, 1] over `[0, now]`.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        let elapsed = now.as_micros() as u128;
        if elapsed == 0 {
            return 0.0;
        }
        self.busy_integral as f64 / (elapsed as f64 * self.total() as f64)
    }

    /// Busy time of each worker over `[0, now]`, including any
    /// still-open occupation.
    pub fn per_worker_busy(&self, now: SimTime) -> Vec<SimDuration> {
        self.slots
            .iter()
            .map(|s| {
                let open = s
                    .since
                    .map(|t| now.since(t).as_micros() as u128)
                    .unwrap_or(0);
                let total = (s.busy_us + open).min(u64::MAX as u128) as u64;
                SimDuration::from_micros(total)
            })
            .collect()
    }

    /// Per-worker utilization in [0, 1] over `[0, now]` (all zeros at
    /// time zero).
    pub fn per_worker_utilization(&self, now: SimTime) -> Vec<f64> {
        let elapsed = now.as_micros() as f64;
        self.per_worker_busy(now)
            .into_iter()
            .map(|b| {
                if elapsed == 0.0 {
                    0.0
                } else {
                    b.as_micros() as f64 / elapsed
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle() {
        let mut p = WorkerPool::new(2);
        let t0 = SimTime::ZERO;
        assert!(p.acquire_worker(t0).is_some());
        let w = p.acquire_worker(t0).unwrap();
        assert!(p.acquire_worker(t0).is_none(), "saturated");
        assert_eq!(p.busy(), 2);
        p.release_worker(w, SimTime::from_secs(10));
        assert_eq!(p.busy(), 1);
        assert_eq!(p.acquire_worker(SimTime::from_secs(10)), Some(w));
    }

    #[test]
    #[should_panic]
    fn release_worker_when_idle_panics() {
        let mut p = WorkerPool::new(2);
        p.release_worker(0, SimTime::from_secs(1));
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        WorkerPool::new(0);
    }

    #[test]
    fn utilization_integrates_occupancy() {
        let mut p = WorkerPool::new(2);
        // One worker busy for the first half of a 100s window, both idle
        // after: utilization = (1 × 50) / (2 × 100) = 0.25.
        let w = p.acquire_worker(SimTime::ZERO).unwrap();
        p.release_worker(w, SimTime::from_secs(50));
        let u = p.utilization(SimTime::from_secs(100));
        assert!((u - 0.25).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn utilization_full_load() {
        let mut p = WorkerPool::new(3);
        for _ in 0..3 {
            assert!(p.acquire_worker(SimTime::ZERO).is_some());
        }
        let u = p.utilization(SimTime::from_secs(60));
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_at_time_zero_is_zero() {
        let mut p = WorkerPool::new(1);
        assert_eq!(p.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn indexed_acquire_assigns_lowest_idle() {
        let mut p = WorkerPool::new(3);
        assert_eq!(p.acquire_worker(SimTime::ZERO), Some(0));
        assert_eq!(p.acquire_worker(SimTime::ZERO), Some(1));
        p.release_worker(0, SimTime::from_secs(5));
        // Index 0 is idle again and is reassigned before index 2.
        assert_eq!(p.acquire_worker(SimTime::from_secs(5)), Some(0));
        assert_eq!(p.acquire_worker(SimTime::from_secs(5)), Some(2));
        assert_eq!(p.acquire_worker(SimTime::from_secs(5)), None);
    }

    #[test]
    fn per_worker_busy_attribution() {
        let mut p = WorkerPool::new(2);
        let w0 = p.acquire_worker(SimTime::ZERO).unwrap();
        let w1 = p.acquire_worker(SimTime::ZERO).unwrap();
        p.release_worker(w0, SimTime::from_secs(30));
        p.release_worker(w1, SimTime::from_secs(100));
        let busy = p.per_worker_busy(SimTime::from_secs(100));
        assert_eq!(busy[0], SimDuration::from_secs(30));
        assert_eq!(busy[1], SimDuration::from_secs(100));
        let util = p.per_worker_utilization(SimTime::from_secs(100));
        assert!((util[0] - 0.3).abs() < 1e-9);
        assert!((util[1] - 1.0).abs() < 1e-9);
        // Aggregate utilization agrees with the per-worker mean.
        let agg = p.utilization(SimTime::from_secs(100));
        assert!((agg - (0.3 + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn open_occupation_counts_toward_busy_time() {
        let mut p = WorkerPool::new(1);
        p.acquire_worker(SimTime::ZERO).unwrap();
        let busy = p.per_worker_busy(SimTime::from_secs(10));
        assert_eq!(busy[0], SimDuration::from_secs(10));
        // Still busy; querying did not mutate anything.
        assert_eq!(p.busy(), 1);
    }
}
