//! Property tests for the simulation kernel: ordering guarantees of the
//! event queue, statistics against naive references, RNG sanity.

use proptest::prelude::*;
use sq_sim::{Cdf, EventQueue, Percentiles, SimTime, Xoshiro256StarStar};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn event_queue_pops_in_nondecreasing_time(times in proptest::collection::vec(0u64..1_000, 1..64)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn simultaneous_events_preserve_insertion_order(n in 1usize..64, t in 0u64..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn percentiles_match_naive_reference(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..128),
        p in 0f64..100.0,
    ) {
        let mut perc = Percentiles::default();
        for &x in &xs {
            perc.push(x);
        }
        let got = perc.percentile(p).unwrap();
        // Naive nearest-rank.
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        let expected = sorted[rank.min(sorted.len()) - 1];
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn percentile_edges_match_naive_reference(
        // Few distinct values => heavy duplication, exercising ties in
        // the nearest-rank definition; length 1 exercises the singleton.
        xs in proptest::collection::vec(prop_oneof![Just(1.0f64), Just(2.0), Just(2.0), Just(5.0)], 1..32),
        p in prop_oneof![Just(0.0f64), Just(100.0f64), 0f64..100.0],
    ) {
        let mut perc = Percentiles::default();
        for &x in &xs {
            perc.push(x);
        }
        let got = perc.percentile(p).unwrap();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Naive nearest-rank: ceil(p/100 * N) 1-indexed, clamped to [1, N].
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        let expected = sorted[rank.min(sorted.len()) - 1];
        prop_assert_eq!(got, expected);
        // The boundary percentiles are exactly min and max.
        prop_assert_eq!(perc.percentile(0.0).unwrap(), sorted[0]);
        prop_assert_eq!(perc.percentile(100.0).unwrap(), sorted[sorted.len() - 1]);
        // Out-of-range p clamps rather than panics.
        prop_assert_eq!(perc.percentile(-3.0), perc.percentile(0.0));
        prop_assert_eq!(perc.percentile(250.0), perc.percentile(100.0));
    }

    #[test]
    fn cdf_is_monotone_and_bounded(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        probes in proptest::collection::vec(-2e3f64..2e3, 2..20),
    ) {
        let cdf = Cdf::from_samples(&xs);
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0;
        for &x in &sorted_probes {
            let v = cdf.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= last);
            last = v;
        }
        // Quantile inverts: F(Q(q)) >= q.
        let q = cdf.quantile(0.5).unwrap();
        prop_assert!(cdf.eval(q) >= 0.5);
    }

    #[test]
    fn rng_next_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(n) < n);
        }
    }

    #[test]
    fn rng_split_streams_disagree(seed in any::<u64>()) {
        let mut parent = Xoshiro256StarStar::seed_from_u64(seed);
        let mut child = parent.split();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64_raw()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64_raw()).collect();
        prop_assert_ne!(a, b);
    }
}
