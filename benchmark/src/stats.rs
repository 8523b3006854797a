//! Exact sample statistics: sorted-sample percentiles, the "ten samples
//! beyond" rule, Python-compatible quartiles, and the seeded arrival
//! schedule of the open loop.

use sq_sim::Xoshiro256StarStar;

/// A set of latency samples, sorted once on construction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank percentile: the smallest sample with at least
    /// `q` of the samples at or below it. 0 for an empty set.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond its nearest-rank sample, or `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (numerator, denominator, value): ranks in integers, so that 90 % of
    // 100 is rank 90 and not 89.99.
    [
        (999, 1000, 0.999),
        (99, 100, 0.99),
        (9, 10, 0.9),
        (1, 2, 0.5),
    ]
    .into_iter()
    .find(|(num, den, _)| n >= (n * num).div_ceil(*den) + 10)
    .map(|(.., q)| q)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Due times, in seconds from the start, of `n` arrivals of a Poisson
/// process over `[0, span_s)`. Conditioned on the count, such arrivals
/// are `n` sorted uniform draws, so every seed offers exactly `n / span_s`
/// per second and the offered rate does not wander with the seed.
pub fn poisson_schedule(seed: u64, n: usize, span_s: f64) -> Vec<f64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x0A22_17A1);
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * span_s).collect();
    due.sort_by(|a, b| a.partial_cmp(b).expect("draws are finite"));
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_sorted_samples() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(Samples::new(vec![7.5]).percentile(0.9), 7.5);
        assert_eq!(Samples::default().percentile(0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(24301, 300, 10.0);
        let b = poisson_schedule(24301, 300, 10.0);
        let bytes = |v: &[f64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        assert_eq!(bytes(&a), bytes(&b), "same seed, same bytes");
        assert_ne!(bytes(&a), bytes(&poisson_schedule(24302, 300, 10.0)));
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
    }
}
