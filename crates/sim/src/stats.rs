//! Statistics used by the evaluation harness.
//!
//! Every figure in the paper's Section 8 is either a CDF (Figs. 9, 10), a
//! percentile grid (Fig. 11), or a normalized mean (Figs. 12, 13). This
//! module provides exact sample percentiles ([`Percentiles`]) and empirical
//! CDFs evaluated at arbitrary points ([`Cdf`]).

use serde::{Deserialize, Serialize};

/// Exact sample percentiles over a collected batch.
///
/// Uses the nearest-rank definition on the sorted sample, which is what the
/// paper's P50/P95/P99 turnaround grids report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Percentiles {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Percentiles {
    /// Pre-sized empty batch.
    pub fn with_capacity(n: usize) -> Self {
        Percentiles {
            sorted: Vec::with_capacity(n),
            dirty: false,
        }
    }

    /// Add one observation. Non-finite values are rejected (ignored) so a
    /// stray NaN cannot poison the sort.
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.sorted.push(x);
            self.dirty = true;
        }
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            self.dirty = false;
        }
    }

    /// The `p`-th percentile, `p` in [0, 100]. Returns `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank: ceil(p/100 * N), 1-indexed.
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        Some(self.sorted[rank.min(n) - 1])
    }

    /// Convenience: (P50, P95, P99).
    pub fn p50_p95_p99(&mut self) -> Option<(f64, f64, f64)> {
        Some((
            self.percentile(50.0)?,
            self.percentile(95.0)?,
            self.percentile(99.0)?,
        ))
    }
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from a batch of samples (non-finite values dropped).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Cdf { sorted }
    }

    /// `P(X <= x)` under the empirical distribution.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let le = self.sorted.partition_point(|&s| s <= x);
        le as f64 / self.sorted.len() as f64
    }

    /// The empirical quantile function (inverse CDF) at `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil()).max(1.0) as usize;
        Some(self.sorted[rank.min(n) - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::default();
        for x in 1..=100 {
            p.push(x as f64);
        }
        assert_eq!(p.percentile(50.0), Some(50.0));
        assert_eq!(p.percentile(95.0), Some(95.0));
        assert_eq!(p.percentile(99.0), Some(99.0));
        assert_eq!(p.percentile(100.0), Some(100.0));
        assert_eq!(p.percentile(0.0), Some(1.0));
    }

    #[test]
    fn percentiles_reject_nan() {
        let mut p = Percentiles::default();
        p.push(f64::NAN);
        p.push(1.0);
        assert_eq!(p.sorted.len(), 1);
        assert_eq!(p.percentile(50.0), Some(1.0));
    }

    #[test]
    fn percentiles_empty() {
        let mut p = Percentiles::default();
        assert_eq!(p.percentile(50.0), None);
        assert!(p.p50_p95_p99().is_none());
    }

    #[test]
    fn percentiles_interleaved_push_and_query() {
        let mut p = Percentiles::default();
        p.push(10.0);
        assert_eq!(p.percentile(50.0), Some(10.0));
        p.push(20.0);
        p.push(0.0);
        assert_eq!(p.percentile(50.0), Some(10.0));
        assert_eq!(p.percentile(100.0), Some(20.0));
    }

    #[test]
    fn cdf_eval() {
        let c = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.5), 0.5);
        assert_eq!(c.eval(4.0), 1.0);
        assert_eq!(c.eval(100.0), 1.0);
    }

    #[test]
    fn cdf_quantile_inverts_eval() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let c = Cdf::from_samples(&samples);
        assert_eq!(c.quantile(0.5), Some(500.0));
        assert_eq!(c.quantile(0.999), Some(999.0));
        assert_eq!(c.quantile(1.0), Some(1000.0));
        assert_eq!(c.quantile(0.0), Some(1.0));
    }

    #[test]
    fn cdf_empty() {
        let c = Cdf::from_samples(&[]);
        assert_eq!(c.eval(1.0), 0.0);
        assert_eq!(c.quantile(0.5), None);
    }
}
