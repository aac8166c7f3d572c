//! Per-server measurement collection.

use hh_sim::stats::{Samples, TimeWeighted};
use hh_sim::Cycles;
use serde::Serialize;

/// Per-service latency and breakdown accounting.
#[derive(Debug, Default, Clone, Serialize)]
pub struct ServiceMetrics {
    /// End-to-end latency samples in milliseconds (NIC arrival →
    /// completion).
    pub latency_ms: Samples,
    /// Total execution time (compute + memory stalls) across completed
    /// requests, for the Figure 6 breakdown.
    pub exec: Cycles,
    /// Total blocked-on-I/O time across completed requests.
    pub io: Cycles,
    /// Total time requests waited on core-reassignment machinery.
    pub reassign_wait: Cycles,
    /// Total time requests waited on flush/invalidate machinery.
    pub flush_wait: Cycles,
    /// Completed requests.
    pub completed: u64,
}

/// Everything a server run reports.
#[derive(Debug, Clone, Serialize)]
pub struct ServerMetrics {
    /// System label the run used.
    pub system: &'static str,
    /// Per-service metrics, indexed by service id.
    pub services: Vec<ServiceMetrics>,
    /// Busy-core integral (level = cores executing request phases or batch
    /// units).
    pub busy_cores: TimeWeighted,
    /// Simulated end time.
    pub end_time: Cycles,
    /// Batch work units completed by the Harvest VM.
    pub batch_units: u64,
    /// Cross-VM core reassignments performed.
    pub reassignments: u64,
    /// Reassignments triggered by reclamation (Primary demanded its core).
    pub reclaims: u64,
    /// Aggregated L2 hits across all cores.
    pub l2_hits: u64,
    /// Aggregated L2 misses across all cores.
    pub l2_misses: u64,
    /// Requests that overflowed the hardware subqueues.
    pub queue_overflows: u64,
}

impl ServerMetrics {
    /// Creates an empty collection for `services` services.
    pub fn new(system: &'static str, services: usize) -> Self {
        ServerMetrics {
            system,
            services: (0..services).map(|_| ServiceMetrics::default()).collect(),
            busy_cores: TimeWeighted::new(),
            end_time: Cycles::ZERO,
            batch_units: 0,
            reassignments: 0,
            reclaims: 0,
            l2_hits: 0,
            l2_misses: 0,
            queue_overflows: 0,
        }
    }

    /// Average busy cores over the run (the Section 6.7 metric).
    pub fn avg_busy_cores(&self) -> f64 {
        self.busy_cores.average(self.end_time)
    }

    /// Batch throughput in work units per second.
    pub fn batch_units_per_sec(&self) -> f64 {
        // Zero elapsed time iff zero cycles: test the integer source
        // instead of comparing the derived float for equality.
        if self.end_time.as_u64() == 0 {
            0.0
        } else {
            self.batch_units as f64 / self.end_time.as_secs()
        }
    }

    /// Aggregate L2 hit rate across the server's cores.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// All latency samples pooled across services (for the figure-level
    /// "Average" bars).
    pub fn pooled_latency_ms(&self) -> Samples {
        let mut all = Samples::new();
        for s in &self.services {
            all.merge(&s.latency_ms);
        }
        all
    }

    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.services.iter().map(|s| s.completed).sum()
    }

    /// Condenses the run into the headline numbers (the ones the paper's
    /// evaluation section quotes): utilization, cache behaviour, batch
    /// throughput, and pooled tail latency.
    pub fn summary(&self) -> MetricsSummary {
        let pooled = self.pooled_latency_ms();
        MetricsSummary {
            system: self.system,
            completed: self.completed(),
            end_time_ms: self.end_time.as_ms(),
            avg_busy_cores: self.avg_busy_cores(),
            l2_hit_rate: self.l2_hit_rate(),
            batch_units: self.batch_units,
            batch_units_per_sec: self.batch_units_per_sec(),
            latency_p50_ms: pooled.percentile(0.50),
            latency_p99_ms: pooled.percentile(0.99),
            reassignments: self.reassignments,
            reclaims: self.reclaims,
            queue_overflows: self.queue_overflows,
        }
    }
}

/// The headline numbers of one server run, in report-ready form.
///
/// Produced by [`ServerMetrics::summary`]; serialized by hand via
/// [`MetricsSummary::to_json`] because the offline `serde` shim does not
/// emit anything.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSummary {
    /// System label the run used.
    pub system: &'static str,
    /// Total completed requests.
    pub completed: u64,
    /// Simulated end time in milliseconds.
    pub end_time_ms: f64,
    /// Average busy cores over the run.
    pub avg_busy_cores: f64,
    /// Aggregate L2 hit rate.
    pub l2_hit_rate: f64,
    /// Batch work units completed by the Harvest VM.
    pub batch_units: u64,
    /// Batch throughput in work units per second.
    pub batch_units_per_sec: f64,
    /// Pooled median end-to-end latency in milliseconds.
    pub latency_p50_ms: f64,
    /// Pooled 99th-percentile end-to-end latency in milliseconds.
    pub latency_p99_ms: f64,
    /// Cross-VM core reassignments performed.
    pub reassignments: u64,
    /// Reassignments triggered by reclamation.
    pub reclaims: u64,
    /// Requests that overflowed the hardware subqueues.
    pub queue_overflows: u64,
}

impl MetricsSummary {
    /// Renders the summary as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "0".into()
            }
        }
        format!(
            concat!(
                "{{\"system\":\"{}\",\"completed\":{},\"end_time_ms\":{},",
                "\"avg_busy_cores\":{},\"l2_hit_rate\":{},\"batch_units\":{},",
                "\"batch_units_per_sec\":{},\"latency_p50_ms\":{},",
                "\"latency_p99_ms\":{},\"reassignments\":{},\"reclaims\":{},",
                "\"queue_overflows\":{}}}"
            ),
            self.system,
            self.completed,
            num(self.end_time_ms),
            num(self.avg_busy_cores),
            num(self.l2_hit_rate),
            self.batch_units,
            num(self.batch_units_per_sec),
            num(self.latency_p50_ms),
            num(self.latency_p99_ms),
            self.reassignments,
            self.reclaims,
            self.queue_overflows,
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_are_zero() {
        let m = ServerMetrics::new("X", 3);
        assert_eq!(m.services.len(), 3);
        assert_eq!(m.avg_busy_cores(), 0.0);
        assert_eq!(m.batch_units_per_sec(), 0.0);
        assert_eq!(m.l2_hit_rate(), 0.0);
        assert_eq!(m.completed(), 0);
    }

    #[test]
    fn pooled_latency_merges_services() {
        let mut m = ServerMetrics::new("X", 2);
        m.services[0].latency_ms.record(1.0);
        m.services[1].latency_ms.record(3.0);
        let pooled = m.pooled_latency_ms();
        assert_eq!(pooled.len(), 2);
        assert_eq!(pooled.percentile(1.0), 3.0);
    }

    #[test]
    fn summary_condenses_and_serializes() {
        let mut m = ServerMetrics::new("HH", 2);
        m.end_time = Cycles::from_secs(1.0);
        m.busy_cores.set(Cycles::ZERO, 4.0);
        m.batch_units = 500;
        m.l2_hits = 75;
        m.l2_misses = 25;
        m.reassignments = 7;
        m.reclaims = 3;
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.services[0].latency_ms.record(v);
        }
        m.services[0].completed = 4;
        let s = m.summary();
        assert_eq!(s.system, "HH");
        assert_eq!(s.completed, 4);
        assert_eq!(s.latency_p50_ms, 2.0);
        assert_eq!(s.latency_p99_ms, 4.0);
        assert!((s.avg_busy_cores - 4.0).abs() < 1e-9);
        assert!((s.l2_hit_rate - 0.75).abs() < 1e-12);
        assert!((s.batch_units_per_sec - 500.0).abs() < 1e-9);
        let json = s.to_json();
        assert!(json.starts_with("{\"system\":\"HH\""));
        assert!(json.contains("\"latency_p99_ms\":4"));
        assert!(json.ends_with('}'));
        // Empty metrics summarize without dividing by zero.
        let empty = ServerMetrics::new("X", 1).summary();
        assert_eq!(empty.latency_p50_ms, 0.0);
        assert_eq!(empty.completed, 0);
    }

    #[test]
    fn throughput_uses_end_time() {
        let mut m = ServerMetrics::new("X", 1);
        m.batch_units = 3000;
        m.end_time = Cycles::from_secs(2.0);
        assert!((m.batch_units_per_sec() - 1500.0).abs() < 1e-9);
    }
}
