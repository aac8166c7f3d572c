//! Sort-based reference model of [`hh_sim::stats::Samples`].
//!
//! The optimized percentile estimator answers each query by an O(n)
//! `select_nth` on a copy of the observations. This model answers it the
//! slow obvious way: clone, fully sort, index. Selection and sort must
//! place the same element at every rank, so the model is the arbiter when
//! they disagree.
//!
//! Shared conventions (the contract both models implement): empty sets
//! report 0.0 for mean, min, max and every percentile; quantiles use
//! nearest-rank (`rank = ceil(q·n)` clamped to `[1, n]`, so `q = 0`
//! returns the minimum); NaN observations panic.

/// The reference sample set. Immutable queries; no caching of any kind.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RefSamples {
    values: Vec<f64>,
}

impl RefSamples {
    /// Creates an empty reference set.
    pub fn new() -> Self {
        RefSamples::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    /// Panics if `value` is NaN (same contract as the optimized set).
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN sample recorded");
        self.values.push(value);
    }

    /// Appends every value of `other`.
    pub fn merge_values(&mut self, other: &[f64]) {
        self.values.extend_from_slice(other);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw observations in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Largest observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.sorted_copy().last().copied().unwrap_or(0.0)
    }

    /// Smallest observation, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.sorted_copy().first().copied().unwrap_or(0.0)
    }

    /// The `q`-quantile by full sort and nearest-rank indexing; 0.0 when
    /// empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let sorted = self.sorted_copy();
        if sorted.is_empty() {
            return 0.0;
        }
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    fn sorted_copy(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        // Must mirror Samples::percentile exactly: total_cmp, so the
        // reference and optimized paths agree bitwise even on ±0.0 ties.
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }
}

impl FromIterator<f64> for RefSamples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RefSamples::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_data() {
        let s: RefSamples = (1..=100).map(f64::from).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
    }

    #[test]
    fn empty_set_conventions() {
        let s = RefSamples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
    }

    #[test]
    fn all_negative_max_is_negative() {
        let s: RefSamples = [-3.0, -7.5, -0.25].into_iter().collect();
        assert_eq!(s.max(), -0.25);
        assert_eq!(s.min(), -7.5);
    }
}
