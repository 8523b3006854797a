//! Deterministic random number generation.
//!
//! The benchmark harness must replay the *same* change trace through every
//! strategy (Section 8.1 of the paper: "we selected the above changes, and
//! ingested them into our system at different rates"). That requires an RNG
//! that is (a) seedable, (b) platform-independent, and (c) splittable so
//! each subsystem (arrivals, durations, outcomes) consumes an independent
//! stream and adding draws to one does not perturb the others.
//!
//! We implement xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
//! rather than relying on `rand`'s feature-gated small RNGs, so the exact
//! bit stream is pinned by this crate. The generator implements
//! [`rand::RngCore`], so all of `rand`'s adapters still work on top.

use rand::RngCore;

/// SplitMix64: used to expand a 64-bit seed into xoshiro's 256-bit state.
///
/// This is the seeding procedure recommended by the xoshiro authors; it
/// guarantees the state is never all-zero for any seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produce the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        out
    }
}

/// One SplitMix64 step as a pure function: the output of a stream whose
/// state is `z`. Seeded fault models draw every decision from it, so a
/// decision depends only on what is hashed, never on draw order.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Map a 64-bit hash to a uniform fraction in `[0, 1)`.
pub fn fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// xoshiro256**: a fast, high-quality 64-bit PRNG with 256 bits of state
/// and a period of 2^256 − 1.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Produce the next 64-bit output.
    pub fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Jump ahead by 2^128 steps, producing a stream independent of the
    /// parent. Used to derive per-subsystem streams from one master seed.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180EC6D33CFD0ABA,
            0xD5A61266F0C9392C,
            0xA9582618E03FC9AA,
            0x39ABDC4529B1661C,
        ];
        let mut s = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next_u64_raw();
            }
        }
        self.s = s;
    }

    /// Derive an independent child stream (jump-based splitting).
    pub fn split(&mut self) -> Xoshiro256StarStar {
        let child = self.clone();
        self.jump();
        child
    }

    /// A uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; (2^53 values) / 2^53 is uniform in [0,1).
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)` using Lemire's multiply-shift with
    /// rejection to remove modulo bias. Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0) is meaningless");
        loop {
            let x = self.next_u64_raw();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone: low < n. Accept unless in the biased region.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 0 from the SplitMix64 reference code.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(sm.next_u64(), 0x6E789E6AA1B965F4);
        assert_eq!(sm.next_u64(), 0x06C45D188009454F);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64_raw()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64_raw()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let mut parent1 = Xoshiro256StarStar::seed_from_u64(7);
        let mut parent2 = Xoshiro256StarStar::seed_from_u64(7);
        let mut child1 = parent1.split();
        let mut child2 = parent2.split();
        // Consuming the parents differently must not change child output.
        for _ in 0..100 {
            parent1.next_u64_raw();
        }
        for _ in 0..3 {
            parent2.next_u64_raw();
        }
        for _ in 0..100 {
            assert_eq!(child1.next_u64_raw(), child2.next_u64_raw());
        }
    }

    #[test]
    fn split_child_differs_from_next_parent_stream() {
        let mut parent = Xoshiro256StarStar::seed_from_u64(9);
        let mut child = parent.split();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64_raw()).collect();
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64_raw()).collect();
        assert_ne!(c, p);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = Xoshiro256StarStar::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = Xoshiro256StarStar::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let x = r.next_below(10);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            // Expect 10_000 ± a generous tolerance.
            assert!((8_500..11_500).contains(&c), "count = {c}");
        }
    }

    #[test]
    fn bernoulli_edges() {
        let mut r = Xoshiro256StarStar::seed_from_u64(6);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-0.5));
        assert!(r.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let mut r = Xoshiro256StarStar::seed_from_u64(8);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256StarStar::seed_from_u64(10);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_handles_unaligned_lengths() {
        let mut r = Xoshiro256StarStar::seed_from_u64(11);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Deterministic: a second generator with the same seed agrees.
        let mut r2 = Xoshiro256StarStar::seed_from_u64(11);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }
}
