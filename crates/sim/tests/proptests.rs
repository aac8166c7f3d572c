//! Property tests for the DES substrate.

#![allow(clippy::float_cmp)]

use hh_sim::stats::{Histogram, Samples, TimeWeighted};
use hh_sim::{Cycles, EventQueue, Rng64};
use proptest::prelude::*;

proptest! {
    /// The event queue delivers events in timestamp order, FIFO within a
    /// timestamp — equivalent to a stable sort by time.
    #[test]
    fn event_queue_is_a_stable_sort(times in prop::collection::vec(0u64..1000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycles::new(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_u64(), i));
        }
        prop_assert_eq!(got, expected);
    }

    /// Exact percentiles agree with the naive definition on any data.
    #[test]
    fn percentiles_match_naive(
        mut values in prop::collection::vec(-1e6f64..1e6, 1..500),
        q in 0.0f64..=1.0,
    ) {
        let s: Samples = values.iter().copied().collect();
        let got = s.percentile(q);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        prop_assert_eq!(got, values[rank - 1]);
    }

    /// Histogram quantiles are within one geometric bin of the exact
    /// quantile for in-range data.
    #[test]
    fn histogram_quantile_bounded_error(
        values in prop::collection::vec(1.0f64..1e5, 10..500),
        q in 0.05f64..0.95,
    ) {
        let mut h = Histogram::new(1.0, 1e5, 400);
        for &v in &values {
            h.record(v);
        }
        let approx = h.quantile(q);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let growth = (1e5f64 / 1.0).powf(1.0 / 400.0);
        prop_assert!(approx >= exact / growth.powi(2), "approx {approx} exact {exact}");
        prop_assert!(approx <= exact * growth.powi(2), "approx {approx} exact {exact}");
    }

    /// `below(n)` is uniform-ish and always in range.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = Rng64::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// A time-weighted average always lies between the extreme levels.
    #[test]
    fn time_weighted_average_bounded(
        levels in prop::collection::vec(0.0f64..100.0, 1..50),
    ) {
        let mut tw = TimeWeighted::new();
        let mut t = 0u64;
        for &l in &levels {
            tw.set(Cycles::new(t), l);
            t += 10;
        }
        let avg = tw.average(Cycles::new(t.max(1)));
        let lo = levels.iter().copied().fold(f64::INFINITY, f64::min).min(0.0);
        let hi = levels.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} not in [{lo}, {hi}]");
    }

    /// Independent streams derived from the same seed do not collide.
    #[test]
    fn rng_streams_disjoint(seed in any::<u64>(), a in 0u64..100, b in 0u64..100) {
        prop_assume!(a != b);
        let mut ra = Rng64::stream(seed, a);
        let mut rb = Rng64::stream(seed, b);
        let va: Vec<u64> = (0..8).map(|_| ra.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| rb.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }
}
