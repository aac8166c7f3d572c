//! Measurement primitives: percentile sets, histograms and time-weighted
//! utilization accumulators.
//!
//! The paper reports P99 tail latency, median latency, throughput and
//! core-utilization averages; these types compute all of them.

use serde::{Deserialize, Serialize};

use crate::Cycles;

/// An exact percentile estimator over a stored sample set.
///
/// The evaluation sizes in this reproduction (≤ a few hundred thousand
/// samples per series) make exact storage cheaper and simpler than sketches.
///
/// # Example
///
/// ```
/// use hh_sim::stats::Samples;
///
/// let mut s = Samples::new();
/// for v in 1..=100 {
///     s.record(v as f64);
/// }
/// assert_eq!(s.percentile(0.50), 50.0);
/// assert_eq!(s.percentile(0.99), 99.0);
/// assert_eq!(s.len(), 100);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct Samples {
    /// Observations in insertion order; queries never reorder them.
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Creates an empty sample set with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Samples {
            values: Vec::with_capacity(capacity),
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    /// Panics if `value` is NaN; NaN observations indicate a simulator bug.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample recorded");
        self.values.push(value);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty: a left fold from 0.0 over the
    /// observations in insertion order. (`Iterator::sum` is avoided: its
    /// start value for `f64` is -0.0.)
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let sum = self.values.iter().fold(0.0, |acc, &v| acc + v);
        sum / self.values.len() as f64
    }

    /// Largest observation, or 0.0 when empty (matching the empty-set
    /// convention of [`Samples::mean`] and [`Samples::percentile`]).
    ///
    /// Folding from 0.0 would conflate "empty" with "max is 0" *and*
    /// return the wrong answer for all-negative data, so the empty case is
    /// handled explicitly and the fold starts from `-inf`.
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest observation, or 0.0 when empty. Equal to
    /// `percentile(0.0)` (nearest-rank clamps the rank to the first
    /// element), but O(n) without copying the set.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) using nearest-rank interpolation.
    /// Returns 0.0 when empty.
    ///
    /// Selects on a copy of the observations under `f64::total_cmp`, a
    /// total order (-0.0 < +0.0), so the returned bit pattern is exactly
    /// the element a full sort would place at the rank.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let mut copy = self.values.clone();
        let (_, nth, _) = copy.select_nth_unstable_by(rank - 1, f64::total_cmp);
        *nth
    }

    /// Median (P50).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// P99 tail.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Merges another sample set into this one, appending its
    /// observations after this set's own.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Read-only view of the raw observations, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// A logarithmically-binned histogram for latency distributions.
///
/// Bins grow geometrically, giving ~2 % relative resolution across nine
/// decades, enough for CDF plots like the paper's Figure 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// bin i covers [min * growth^i, min * growth^(i+1))
    min: f64,
    growth: f64,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram covering `[min, max)` with roughly `bins` bins.
    ///
    /// # Panics
    /// Panics unless `0 < min < max` and `bins >= 1`.
    pub fn new(min: f64, max: f64, bins: usize) -> Self {
        assert!(min > 0.0 && max > min && bins >= 1);
        let growth = (max / min).powf(1.0 / bins as f64);
        Histogram {
            min,
            growth,
            counts: vec![0; bins + 1],
            underflow: 0,
            total: 0,
        }
    }

    /// Records one observation (clamped into the covered range).
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        if value < self.min {
            self.underflow += 1;
            return;
        }
        let bin = ((value / self.min).ln() / self.growth.ln()) as usize;
        let bin = bin.min(self.counts.len() - 1);
        self.counts[bin] += 1;
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate `q`-quantile from the binned data.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut acc = self.underflow;
        if acc >= target {
            return self.min;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.min * self.growth.powi(i as i32 + 1);
            }
        }
        self.min * self.growth.powi(self.counts.len() as i32)
    }
}

/// Time-weighted accumulator for quantities like "busy cores".
///
/// Feed it level changes over simulated time; it integrates the level and
/// reports the time average — exactly the "average utilization of N cores"
/// metric in Section 6.7 of the paper.
///
/// # Example
///
/// ```
/// use hh_sim::{stats::TimeWeighted, Cycles};
///
/// let mut u = TimeWeighted::new();
/// u.set(Cycles::new(0), 4.0);
/// u.set(Cycles::new(100), 0.0);
/// assert_eq!(u.average(Cycles::new(200)), 2.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    level: f64,
    last_change: Cycles,
    integral: f64,
}

impl TimeWeighted {
    /// Creates an accumulator at level 0 and time 0.
    pub fn new() -> Self {
        TimeWeighted::default()
    }

    /// Sets the level at time `now`, integrating the previous level.
    ///
    /// # Panics
    /// Panics in debug builds if `now` precedes the previous change.
    pub fn set(&mut self, now: Cycles, level: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        let dt = now.saturating_sub(self.last_change).as_u64() as f64;
        self.integral += self.level * dt;
        self.level = level;
        self.last_change = now;
    }

    /// Adds `delta` to the current level at time `now`.
    pub fn add(&mut self, now: Cycles, delta: f64) {
        let level = self.level + delta;
        self.set(now, level);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Time-average of the level over `[0, now]`; 0.0 if `now` is zero.
    pub fn average(&self, now: Cycles) -> f64 {
        let dt = now.saturating_sub(self.last_change).as_u64() as f64;
        let total = self.integral + self.level * dt;
        // Test the integer cycle count, not the float it converts to.
        if now.as_u64() == 0 {
            0.0
        } else {
            total / now.as_u64() as f64
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_exact_on_known_data() {
        let s: Samples = (1..=1000).map(f64::from).collect();
        assert_eq!(s.percentile(0.01), 10.0);
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.p99(), 990.0);
        assert_eq!(s.percentile(1.0), 1000.0);
        assert_eq!(s.max(), 1000.0);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = Samples::new();
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn merge_combines() {
        let mut a: Samples = [1.0, 2.0].into_iter().collect();
        let b: Samples = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile(1.0), 4.0);
    }

    #[test]
    fn record_after_percentile_stays_correct() {
        let mut s: Samples = [5.0, 1.0, 3.0].into_iter().collect();
        assert_eq!(s.median(), 3.0);
        s.record(0.5);
        s.record(0.6);
        assert_eq!(s.percentile(0.2), 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Samples::new().record(f64::NAN);
    }

    /// Regression: selection must return bit-identical answers to a full
    /// sort even when the data holds -0.0 and +0.0 ties. Under
    /// `partial_cmp` the two zeros compare equal and either bit pattern
    /// could surface; `total_cmp` orders -0.0 < +0.0 in both paths.
    #[test]
    fn signed_zero_ties_resolve_identically_in_both_paths() {
        let data = [0.0_f64, -0.0, 0.0, -0.0, 1.0];
        let s: Samples = data.into_iter().collect();
        let selected: Vec<u64> = (1..=5)
            .map(|k| s.percentile(k as f64 / 5.0).to_bits())
            .collect();
        let mut sorted = data;
        sorted.sort_by(f64::total_cmp);
        let by_sort: Vec<u64> = sorted.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            selected, by_sort,
            "selection and full sort disagree bitwise"
        );
        // And the order itself is the total order: both -0.0s first.
        assert_eq!(selected[0], (-0.0_f64).to_bits());
        assert_eq!(selected[1], (-0.0_f64).to_bits());
        assert_eq!(selected[2], 0.0_f64.to_bits());
        // Queries leave the stored observations untouched.
        assert_eq!(s.values(), &data[..]);
    }

    #[test]
    fn mean_is_independent_of_quantile_query_history() {
        // The mean must be bitwise identical before and after quantile
        // queries, and equal the left fold from 0.0 in insertion order.
        let vals = [0.1, 0.7, -3.3, 1e9, 2.6e-7, -0.4, 8.25];
        let s: Samples = vals.into_iter().collect();
        let before = s.mean();
        for q in [0.5, 0.9, 0.9, 0.9, 0.9] {
            s.percentile(q);
        }
        assert_eq!(s.mean(), before);
        let fold = vals.iter().fold(0.0, |acc, &v| acc + v);
        assert_eq!(before, fold / vals.len() as f64);
    }

    #[test]
    fn max_handles_negative_and_empty_data() {
        let s: Samples = [-5.0, -1.5, -9.0].into_iter().collect();
        assert_eq!(s.max(), -1.5, "all-negative max must not be clamped to 0");
        assert_eq!(s.min(), -9.0);
        let empty = Samples::new();
        assert_eq!(empty.max(), 0.0, "empty-set convention");
        assert_eq!(empty.min(), 0.0, "empty-set convention");
    }

    #[test]
    fn percentile_zero_is_the_minimum() {
        // Nearest-rank at q=0.0: ceil(0·n)=0 clamps to rank 1 → the
        // smallest observation.
        let s: Samples = [4.0, -2.0, 7.0, 0.5].into_iter().collect();
        assert_eq!(s.percentile(0.0), -2.0);
        assert_eq!(s.percentile(0.0), s.min());
    }

    #[test]
    fn constructors_agree_on_empty_state() {
        // `new`, `default` and `with_capacity` build equal empty sets.
        assert_eq!(Samples::new(), Samples::with_capacity(64));
        assert_eq!(Samples::new(), Samples::default());
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new(1.0, 1e6, 200);
        for v in 1..=10_000 {
            h.record(v as f64);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / 5000.0 - 1.0).abs() < 0.10, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 9900.0 - 1.0).abs() < 0.10, "p99 {p99}");
        assert_eq!(h.total(), 10_000);
    }

    #[test]
    fn histogram_cdf_is_monotone() {
        // The binned CDF, read through its inverse `quantile`: a higher
        // probability never maps to a smaller value.
        let mut h = Histogram::new(0.01, 1.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 1000.0);
        }
        let mut prev = 0.0;
        for q in [0.02, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "cdf must be monotone");
            prev = v;
        }
        assert!((h.quantile(0.5) - 0.5).abs() < 0.05);
    }

    #[test]
    fn histogram_underflow_counted() {
        let mut h = Histogram::new(10.0, 100.0, 10);
        h.record(1.0);
        h.record(50.0);
        assert_eq!(h.total(), 2);
        // The underflowed half of the mass reports at the range minimum.
        assert_eq!(h.quantile(0.5), 10.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut u = TimeWeighted::new();
        u.set(Cycles::new(0), 1.0);
        u.add(Cycles::new(50), 1.0); // level 2 from t=50
        assert_eq!(u.level(), 2.0);
        // [0,50): 1.0, [50,100): 2.0 → avg 1.5
        assert!((u.average(Cycles::new(100)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_span() {
        let u = TimeWeighted::new();
        assert_eq!(u.average(Cycles::ZERO), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_out_of_order_updates() {
        let mut u = TimeWeighted::new();
        u.set(Cycles::new(100), 1.0);
        u.set(Cycles::new(50), 2.0);
    }

    #[test]
    fn time_weighted_zero_duration_update_keeps_integral() {
        // Two changes at the same instant: the first contributes nothing
        // to the integral; only the latest level persists.
        let mut u = TimeWeighted::new();
        u.set(Cycles::new(0), 5.0);
        u.set(Cycles::new(100), 1.0);
        u.set(Cycles::new(100), 3.0); // zero-duration revision
        assert_eq!(u.level(), 3.0);
        // [0,100): 5.0, [100,200): 3.0 → avg 4.0; the transient 1.0 level
        // held for zero cycles must not appear.
        assert!((u.average(Cycles::new(200)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_negative_levels_integrate() {
        // `add` may legitimately drive the level through arbitrary values;
        // the integral is signed.
        let mut u = TimeWeighted::new();
        u.add(Cycles::new(0), -2.0);
        u.add(Cycles::new(100), 4.0); // level 2 from t=100
        assert!((u.average(Cycles::new(200)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::new(1.0, 1024.0, 10); // growth = 2 per bin
        h.record(0.999); // below min → underflow
        h.record(1.0); // exactly min → first bin
        h.record(1024.0); // at max → clamped into range
        h.record(1e12); // far overflow → clamped to last bin
        assert_eq!(h.total(), 4);
        // Underflow counts toward the mass at min.
        assert_eq!(h.quantile(0.25), 1.0);
        // Quantiles never escape the configured range.
        assert!(h.quantile(1.0) <= 1.0 * 2f64.powi(11));
        assert!(h.quantile(0.0) >= 1.0);
    }
}
