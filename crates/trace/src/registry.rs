//! Counter / gauge / histogram registry.
//!
//! Metrics are named `namespace.metric` where the namespace identifies the
//! owning subsystem (`server.*`, `hwqueue.*`, `mem.*`, `exec.*`). Storage is
//! a `BTreeMap` so exports iterate in a deterministic order regardless of
//! insertion order.

use hh_sim::stats::{Histogram, TimeWeighted};
use hh_sim::Cycles;
use std::collections::BTreeMap;

/// Default histogram range: 1 ns to 10 s expressed in microseconds, ~2.9%
/// relative resolution. Wide enough for both reclamation latencies (µs)
/// and request latencies (ms).
const HIST_MIN: f64 = 1e-3;
const HIST_MAX: f64 = 1e7;
const HIST_BINS: usize = 80;

/// Per-session metric store: monotonic counters, time-weighted gauges
/// (reusing [`TimeWeighted`]), and log-bucketed [`Histogram`]s.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, TimeWeighted>,
    hists: BTreeMap<String, Histogram>,
}

fn check_name(name: &str) {
    debug_assert!(
        name.contains('.'),
        "metric name {name:?} must be namespaced as `subsystem.metric`"
    );
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `add` to the named monotonic counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, add: u64) {
        check_name(name);
        if let Some(c) = self.counters.get_mut(name) {
            *c += add;
        } else {
            self.counters.insert(name.to_owned(), add);
        }
    }

    /// Current value of a counter (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named time-weighted gauge to `value` at simulated time `now`.
    pub fn gauge_set(&mut self, name: &str, now: Cycles, value: f64) {
        check_name(name);
        if let Some(g) = self.gauges.get_mut(name) {
            g.set(now, value);
        } else {
            let mut g = TimeWeighted::new();
            g.set(now, value);
            self.gauges.insert(name.to_owned(), g);
        }
    }

    /// The named gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<&TimeWeighted> {
        self.gauges.get(name)
    }

    /// Records `value` into the named histogram (default log-bucketed
    /// range, suitable for microsecond-denominated durations).
    pub fn hist_record(&mut self, name: &str, value: f64) {
        check_name(name);
        self.hists
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(HIST_MIN, HIST_MAX, HIST_BINS))
            .record(value);
    }

    /// The named histogram, if anything was ever recorded into it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &TimeWeighted)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("server.reassignments", 2);
        r.counter_add("server.reassignments", 3);
        assert_eq!(r.counter("server.reassignments"), 5);
        assert_eq!(r.counter("server.never_touched"), 0);
    }

    #[test]
    fn gauges_time_weight() {
        let mut r = Registry::new();
        r.gauge_set("server.busy_cores", Cycles::new(0), 4.0);
        r.gauge_set("server.busy_cores", Cycles::new(100), 0.0);
        let g = r.gauge("server.busy_cores").unwrap();
        assert_eq!(g.level(), 0.0);
        assert!((g.average(Cycles::new(200)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hist_records_quantiles() {
        let mut r = Registry::new();
        for v in 1..=100 {
            r.hist_record("server.latency_us", v as f64);
        }
        let h = r.hist("server.latency_us").unwrap();
        assert_eq!(h.total(), 100);
        let p50 = h.quantile(0.5);
        assert!(p50 > 30.0 && p50 < 80.0, "p50 {p50}");
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut r = Registry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 1);
        r.counter_add("m.mid", 1);
        let names: Vec<_> = r.counters().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }
}
