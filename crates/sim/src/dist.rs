//! Probability distributions for the workload model.
//!
//! The paper's controlled evaluation needs three random inputs: change
//! inter-arrival times (Poisson process ⇒ [`Exponential`] gaps at 100–500
//! changes/hour), build durations (a long-tailed distribution whose CDF
//! matches Figure 9 ⇒ truncated [`LogNormal`]), and categorical choices
//! (which targets a change touches ⇒ [`AliasTable`] over a hotspot
//! distribution). All samplers draw from the crate's deterministic
//! [`Xoshiro256StarStar`] generator.

use crate::rng::Xoshiro256StarStar;

/// A distribution over `f64` that can be sampled with the crate RNG.
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64;
}

/// The exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Sampled by inverse transform: `-ln(1-U)/λ`.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create from a rate parameter. Panics if `lambda` is not positive
    /// and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Create from the mean (`1/λ`).
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        // 1 - U is in (0, 1], so ln is finite.
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
}

/// The normal distribution, sampled by the Marsaglia polar method.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Create from mean and standard deviation. Panics on non-finite
    /// parameters or negative sigma.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        Normal { mu, sigma }
    }

    /// One standard normal draw.
    fn standard(rng: &mut Xoshiro256StarStar) -> f64 {
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.mu + self.sigma * Self::standard(rng)
    }
}

/// The log-normal distribution: `exp(N(mu, sigma))`.
///
/// Used for build durations — the Figure 9 CDF (P50 ≈ 27 min with a tail
/// to 120 min) is well matched by a log-normal truncated at a maximum.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Create from the underlying normal's parameters (log-space).
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Normal::new(mu, sigma),
        }
    }

    /// Create from the target *median* and the log-space sigma. The median
    /// of `exp(N(mu, s))` is `exp(mu)`, which makes calibration to a CDF's
    /// P50 direct.
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0);
        Self::new(median.ln(), sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Clamp another distribution's samples into `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
pub struct Truncated<D> {
    inner: D,
    lo: f64,
    hi: f64,
}

impl<D: Distribution> Truncated<D> {
    /// Wrap `inner`, clamping samples to `[lo, hi]`. Panics if `lo > hi`.
    pub fn new(inner: D, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "truncation bounds out of order");
        Truncated { inner, lo, hi }
    }
}

impl<D: Distribution> Distribution for Truncated<D> {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.inner.sample(rng).clamp(self.lo, self.hi)
    }
}

/// A Pareto (power-law) distribution with scale `x_min` and shape `alpha`.
///
/// Used for hotspot modeling: a small number of build targets receive most
/// edits, which is what produces the conflict rates in Figure 1.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Create from scale and shape. Panics unless both are positive.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0);
        Pareto { x_min, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        // Inverse transform: x_min / U^{1/alpha}.
        let u = 1.0 - rng.next_f64(); // in (0, 1]
        self.x_min / u.powf(1.0 / self.alpha)
    }
}

/// The Poisson distribution over event counts with mean `lambda`.
///
/// Knuth's product-of-uniforms method for small `λ`; above 30 a normal
/// approximation (clamped at zero) keeps the cost bounded.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create from the mean count. Panics if `lambda` is negative or not
    /// finite (zero is allowed: the count is then always zero).
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "poisson mean must be non-negative, got {lambda}"
        );
        Poisson { lambda }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.lambda
    }

    /// Draw a count directly.
    pub fn draw(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        if self.lambda <= 0.0 {
            return 0;
        }
        if self.lambda > 30.0 {
            // Normal approximation via Box–Muller, clamped at zero.
            let u1 = rng.next_f64().max(1e-12);
            let u2 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            return (self.lambda + z * self.lambda.sqrt()).round().max(0.0) as u64;
        }
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

impl Distribution for Poisson {
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.draw(rng) as f64
    }
}

/// Walker's alias method: O(1) sampling from a fixed discrete distribution
/// after O(n) preprocessing.
///
/// Used to pick which logical part of the repository a change touches,
/// weighted by per-target popularity (a Zipf-like profile).
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build from non-negative weights (not necessarily normalized).
    /// Panics if the slice is empty or all weights are zero/non-finite.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value"
        );
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical residue: anything left is exactly 1.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Build a Zipf(`s`) table over `n` ranks (rank 0 most popular).
    pub fn zipf(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        Self::new(&weights)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True iff the table has no categories (never: `new` panics on empty).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw a category index.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        let i = rng.next_below(self.prob.len() as u64) as usize;
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(0xDEADBEEF)
    }

    fn sample_mean<D: Distribution>(d: &D, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::with_mean(7.0);
        let m = sample_mean(&d, 200_000);
        assert!((m - 7.0).abs() < 0.1, "mean = {m}");
        assert!((d.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::new(2.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::with_median(27.0, 0.6);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[50_000];
        assert!((median - 27.0).abs() < 1.0, "median = {median}");
    }

    #[test]
    fn truncated_respects_bounds() {
        let d = Truncated::new(LogNormal::with_median(27.0, 1.0), 1.0, 120.0);
        let mut r = rng();
        for _ in 0..50_000 {
            let x = d.sample(&mut r);
            assert!((1.0..=120.0).contains(&x));
        }
    }

    #[test]
    fn pareto_exceeds_scale() {
        let d = Pareto::new(1.5, 2.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 1.5);
        }
    }

    #[test]
    fn alias_table_matches_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights);
        let mut r = rng();
        let mut counts = [0u32; 4];
        let n = 400_000;
        for _ in 0..n {
            counts[t.sample(&mut r)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.005,
                "category {i}: expected {expected}, got {got}"
            );
        }
    }

    #[test]
    fn alias_table_single_category() {
        let t = AliasTable::new(&[5.0]);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(t.sample(&mut r), 0);
        }
    }

    #[test]
    fn alias_table_handles_zero_weights() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut r = rng();
        for _ in 0..10_000 {
            assert_eq!(t.sample(&mut r), 1);
        }
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let t = AliasTable::zipf(10, 1.0);
        let mut r = rng();
        let mut counts = [0u32; 10];
        for _ in 0..200_000 {
            counts[t.sample(&mut r)] += 1;
        }
        // Rank 0 strictly dominates rank 9.
        assert!(counts[0] > counts[9] * 5);
        // Broadly decreasing (allow sampling noise between neighbours).
        assert!(counts[0] > counts[4]);
        assert!(counts[2] > counts[8]);
    }

    #[test]
    #[should_panic]
    fn alias_table_rejects_empty() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic]
    fn alias_table_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn poisson_mean_and_determinism() {
        let mut r = rng();
        let n = 20_000;
        let small = Poisson::new(4.5);
        let mean: f64 = (0..n).map(|_| small.draw(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.5).abs() < 0.1, "mean = {mean}");
        // Large-lambda branch (normal approximation).
        let big = Poisson::new(60.0);
        let mean_big: f64 = (0..n).map(|_| big.draw(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean_big - 60.0).abs() < 1.0, "mean = {mean_big}");
        // Zero mean never fires, and same-seed streams agree.
        assert_eq!(Poisson::new(0.0).draw(&mut r), 0);
        let mut a = Xoshiro256StarStar::seed_from_u64(9);
        let mut b = Xoshiro256StarStar::seed_from_u64(9);
        let va: Vec<u64> = (0..64).map(|_| small.draw(&mut a)).collect();
        let vb: Vec<u64> = (0..64).map(|_| small.draw(&mut b)).collect();
        assert_eq!(va, vb);
    }
}
