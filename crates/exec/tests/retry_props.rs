//! Property tests for the retry policy's backoff schedule: the failure
//! model's determinism guarantee hinges on backoffs being a pure
//! function of `(policy, seed, attempt)` and never exceeding the cap.

use proptest::prelude::*;
use sq_exec::RetryPolicy;
use sq_sim::SimDuration;

fn policy(
    seed: u64,
    base_secs: u64,
    multiplier: f64,
    cap_secs: u64,
    max_attempts: u32,
) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base: SimDuration::from_secs(base_secs),
        multiplier,
        max_backoff: SimDuration::from_secs(cap_secs),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn equal_seeds_give_identical_schedules(
        seed in 0u64..u64::MAX,
        base in 1u64..120,
        cap in 120u64..3_600,
        attempts in 1u32..16,
    ) {
        let a = policy(seed, base, 2.0, cap, attempts + 1);
        let b = policy(seed, base, 2.0, cap, attempts + 1);
        for k in 1..=attempts {
            prop_assert_eq!(a.backoff(k), b.backoff(k), "attempt {}", k);
        }
    }

    #[test]
    fn distinct_seeds_eventually_diverge(
        seed in 0u64..(u64::MAX / 2),
        base in 10u64..120,
    ) {
        let a = policy(seed, base, 2.0, 3_600, 8);
        let b = policy(seed + 1, base, 2.0, 3_600, 8);
        // Jitter is seed-keyed: across 8 attempts at least one backoff
        // must differ (collision of all 8 draws would defeat the point).
        let differs = (1..=8u32).any(|k| a.backoff(k) != b.backoff(k));
        prop_assert!(differs);
    }

    #[test]
    fn each_backoff_respects_the_cap(
        seed in 0u64..u64::MAX,
        base in 1u64..600,
        cap in 1u64..600,
        attempt in 1u32..24,
    ) {
        let p = policy(seed, base, 2.0, cap, 32);
        prop_assert!(p.backoff(attempt) <= SimDuration::from_secs(cap));
    }
}
