//! Synthetic Alibaba-style core-utilization traces (paper Section 3,
//! Figures 2 and 3).
//!
//! The real traces are proprietary; the paper publishes their marginals:
//! 50 % of microservice instances average below **16.1 %** core
//! utilization, and 90 % of instances peak below **40.7 %**; utilization is
//! measured at 30-second granularity and shows bursty spikes over a low
//! baseline. The generator reproduces exactly those statistics, which is
//! all the harvesting opportunity depends on.
//!
//! The traces feed Figures 2 and 3 only; the simulated request arrivals
//! come from [`crate::LoadGen`]'s burst model.

use hh_sim::Rng64;
use serde::{Deserialize, Serialize};

/// Published anchor: median of per-instance *average* utilization.
pub const MEDIAN_AVG_UTILIZATION: f64 = 0.161;
/// Published anchor: 90th percentile of per-instance *maximum* utilization.
pub const P90_MAX_UTILIZATION: f64 = 0.407;

/// One instance's utilization time series at 30-second granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationTrace {
    samples: Vec<f64>,
}

impl UtilizationTrace {
    /// Synthesizes one instance trace of `len` samples.
    ///
    /// Model: a lognormal per-instance baseline (median tuned to the
    /// published 16.1 % anchor) modulated by a mean-one AR(1) shape process
    /// plus occasional multiplicative bursts, clamped to `[0, 1]`.
    pub fn synthesize(len: usize, rng: &mut Rng64) -> Self {
        assert!(len > 0, "trace needs at least one sample");
        // Baseline: median 0.155, sigma 0.30 (tuned so the *average* of the
        // modulated series lands on the published median and the burst
        // peaks land on the published p90-of-max).
        let base = (0.155f64.ln() + 0.30 * rng.normal())
            .exp()
            .clamp(0.01, 0.85);
        let mut samples = Vec::with_capacity(len);
        let mut ar = 0.0f64; // AR(1) log-deviation
        for _ in 0..len {
            ar = 0.65 * ar + 0.10 * rng.normal();
            let mut u = base * ar.exp();
            // Bursty spike: a surge that eats a fraction of the VM's idle
            // headroom (a nearly-saturated VM cannot double its load, so
            // bursts are additive toward capacity, not multiplicative).
            if rng.chance(0.03) {
                u += (0.9 - u).max(0.0) * rng.range_f64(0.12, 0.32);
            }
            samples.push(u.clamp(0.0, 1.0));
        }
        UtilizationTrace { samples }
    }

    /// The samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty (never true for synthesized traces).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Average utilization over the trace.
    pub fn average(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Peak utilization over the trace.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

/// A population of instance traces (Figure 2's CDFs are over ~instances).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSet {
    traces: Vec<UtilizationTrace>,
}

impl TraceSet {
    /// Synthesizes `instances` traces of `len` samples each.
    pub fn synthesize(instances: usize, len: usize, seed: u64) -> Self {
        assert!(instances > 0);
        let traces = (0..instances)
            .map(|i| {
                let mut rng = Rng64::stream(seed, i as u64);
                UtilizationTrace::synthesize(len, &mut rng)
            })
            .collect();
        TraceSet { traces }
    }

    /// The traces.
    pub fn traces(&self) -> &[UtilizationTrace] {
        &self.traces
    }

    /// Sorted per-instance average utilizations (the `AlibabaAvg` CDF).
    pub fn avg_cdf(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.traces.iter().map(UtilizationTrace::average).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v
    }

    /// Sorted per-instance maximum utilizations (the `AlibabaMax` CDF).
    pub fn max_cdf(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.traces.iter().map(UtilizationTrace::max).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v
    }

    /// Quantile of a sorted CDF vector.
    pub fn quantile(sorted: &[f64], q: f64) -> f64 {
        assert!(!sorted.is_empty());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// A representative bursty trace for Figure 3: the instance whose
    /// average utilization is closest to 25 % (visibly bursty yet mostly
    /// idle, like the paper's example VM).
    pub fn representative(&self) -> &UtilizationTrace {
        self.traces
            .iter()
            .min_by(|a, b| {
                let da = (a.average() - 0.25).abs();
                let db = (b.average() - 0.25).abs();
                da.partial_cmp(&db).expect("no NaN")
            })
            .expect("non-empty set")
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn population() -> TraceSet {
        TraceSet::synthesize(4000, 100, 42)
    }

    #[test]
    fn median_average_matches_alibaba_anchor() {
        let cdf = population().avg_cdf();
        let median = TraceSet::quantile(&cdf, 0.5);
        assert!(
            (median - MEDIAN_AVG_UTILIZATION).abs() < 0.03,
            "median avg {median:.3} vs anchor {MEDIAN_AVG_UTILIZATION}"
        );
    }

    #[test]
    fn p90_max_matches_alibaba_anchor() {
        let cdf = population().max_cdf();
        let p90 = TraceSet::quantile(&cdf, 0.9);
        assert!(
            (p90 - P90_MAX_UTILIZATION).abs() < 0.08,
            "p90 max {p90:.3} vs anchor {P90_MAX_UTILIZATION}"
        );
    }

    #[test]
    fn utilization_is_a_probability() {
        for t in population().traces().iter().take(100) {
            for &u in t.samples() {
                assert!((0.0..=1.0).contains(&u));
            }
            assert!(t.max() >= t.average());
        }
    }

    #[test]
    fn traces_are_bursty() {
        // A meaningful fraction of instances peak at >2x their average.
        let set = population();
        let bursty = set
            .traces()
            .iter()
            .filter(|t| t.max() > 2.0 * t.average())
            .count();
        assert!(
            bursty as f64 / set.traces().len() as f64 > 0.3,
            "only {bursty} bursty instances"
        );
    }

    #[test]
    fn representative_is_moderately_loaded() {
        let set = population();
        let rep = set.representative();
        assert!((0.15..0.35).contains(&rep.average()));
        assert!(rep.max() > rep.average() * 1.3, "visibly bursty");
    }

    #[test]
    fn synthesis_is_seed_deterministic() {
        let a = TraceSet::synthesize(10, 50, 3);
        let b = TraceSet::synthesize(10, 50, 3);
        assert_eq!(a, b);
        let c = TraceSet::synthesize(10, 50, 4);
        assert_ne!(a, c);
    }
}
