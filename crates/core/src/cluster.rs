//! Cluster-level simulation: 8 independent servers, one batch job each.
//!
//! The paper's cluster is deliberately communication-free — microservices
//! only talk to services on the same server, and backends live on dedicated
//! machines whose latency is injected — so the 8 servers simulate in
//! parallel on real threads, exactly like the paper parallelizes its SST
//! instances (Section 5). Scheduling and result reuse live in
//! [`crate::RunPlan`]; the free [`run_cluster`] runs on the process-wide
//! executor.

use hh_server::{ServerMetrics, SystemSpec};
use hh_sim::stats::Samples;
use serde::Serialize;

use crate::RunPlan;

/// How large an experiment run is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Scale {
    /// Servers in the cluster (paper: 8, one batch job each).
    pub servers: usize,
    /// Invocations per Primary VM.
    pub requests_per_vm: usize,
    /// Offered load per Primary VM (requests/second).
    pub rps_per_vm: f64,
}

impl Scale {
    /// The smallest smoke scale: one server, enough requests for every
    /// figure path to run (the `results/mini` goldens).
    pub fn mini() -> Self {
        Scale {
            servers: 1,
            requests_per_vm: 60,
            rps_per_vm: 800.0,
        }
    }

    /// Fast runs for tests and smoke checks (~seconds).
    pub fn quick() -> Self {
        Scale {
            servers: 2,
            requests_per_vm: 300,
            rps_per_vm: 800.0,
        }
    }

    /// The figure-generation scale: all 8 batch jobs, enough samples for a
    /// stable P99.
    pub fn paper() -> Self {
        Scale {
            servers: 8,
            requests_per_vm: 1500,
            rps_per_vm: 800.0,
        }
    }

    /// Low-load variant for steady-state single-request measurements
    /// (Figure 6).
    pub fn light_load(self) -> Self {
        Scale {
            rps_per_vm: 120.0,
            ..self
        }
    }
}

/// Merged metrics of one cluster run.
///
/// Fields are private: the hh-check oracle diffs this type, and every
/// aggregate method assumes the [`ClusterMetrics::new`] invariants (at
/// least one server, uniform service count), so mutation must go through
/// the constructor.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterMetrics {
    /// System label.
    system: &'static str,
    /// Per-server metrics (index = server = batch job).
    servers: Vec<ServerMetrics>,
}

impl ClusterMetrics {
    /// Builds a cluster result from per-server metrics.
    ///
    /// # Panics
    /// Panics if `servers` is empty or the servers disagree on how many
    /// services they ran — both would silently corrupt the percentile and
    /// average aggregations below.
    pub fn new(system: &'static str, servers: Vec<ServerMetrics>) -> ClusterMetrics {
        assert!(
            !servers.is_empty(),
            "cluster metrics need at least one server"
        );
        let services = servers[0].services.len();
        assert!(
            servers.iter().all(|s| s.services.len() == services),
            "servers disagree on service count"
        );
        ClusterMetrics { system, servers }
    }

    /// System label.
    pub fn system(&self) -> &'static str {
        self.system
    }

    /// Per-server metrics (index = server = batch job).
    pub fn servers(&self) -> &[ServerMetrics] {
        &self.servers
    }

    /// Latency samples of one service pooled across servers, milliseconds.
    pub fn service_latency_ms(&self, service: usize) -> Samples {
        let mut s = Samples::new();
        for srv in &self.servers {
            s.merge(&srv.services[service].latency_ms);
        }
        s
    }

    /// All latency samples pooled, milliseconds.
    pub fn pooled_latency_ms(&self) -> Samples {
        let mut s = Samples::new();
        for srv in &self.servers {
            for svc in &srv.services {
                s.merge(&svc.latency_ms);
            }
        }
        s
    }

    /// Average busy cores across servers (Section 6.7).
    pub fn avg_busy_cores(&self) -> f64 {
        let sum: f64 = self.servers.iter().map(ServerMetrics::avg_busy_cores).sum();
        sum / self.servers.len() as f64
    }

    /// Batch throughput of server `i` (its batch job), units/second.
    pub fn batch_throughput(&self, server: usize) -> f64 {
        self.servers[server].batch_units_per_sec()
    }

    /// Aggregate L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let hits: u64 = self.servers.iter().map(|s| s.l2_hits).sum();
        let misses: u64 = self.servers.iter().map(|s| s.l2_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Total completed requests.
    pub fn completed(&self) -> u64 {
        self.servers.iter().map(ServerMetrics::completed).sum()
    }
}

/// Runs a cluster with stock Table 1 knobs on the process-wide
/// [`RunPlan`]; identical requests are served from its memo table.
pub fn run_cluster(system: SystemSpec, scale: Scale, seed: u64) -> ClusterMetrics {
    RunPlan::global().run_cluster(system, scale, seed)
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::{resolved_configs, Run, Tweak};

    fn tiny() -> Scale {
        Scale {
            servers: 2,
            requests_per_vm: 60,
            rps_per_vm: 800.0,
        }
    }

    #[test]
    fn cluster_runs_all_servers() {
        let m = run_cluster(SystemSpec::no_harvest(), tiny(), 1);
        assert_eq!(m.servers().len(), 2);
        assert_eq!(m.completed(), 2 * 8 * 60);
        assert!(m.avg_busy_cores() > 0.0);
    }

    #[test]
    fn tweak_hook_applies() {
        let base = Run::stock(SystemSpec::no_harvest(), tiny(), 2);
        let tweaked = Run {
            tweak: Tweak::Mshrs(Some(8)),
            ..base
        };
        let configs = resolved_configs(tweaked.system, tiny(), 2, |cfg| tweaked.tweak.apply(cfg));
        assert!(configs.iter().all(|cfg| cfg.hierarchy.mshrs == Some(8)));
        let plan = RunPlan::with_workers(2);
        let out = plan.run_all(&[base, tweaked]);
        assert_eq!(
            plan.sims_run(),
            2,
            "the tweaked run must not alias the stock one"
        );
        assert_eq!(out[1].completed(), 2 * 8 * 60);
    }

    #[test]
    fn cluster_is_deterministic() {
        // Isolated executors so both runs genuinely simulate (the global
        // plan would serve the second from its memo table).
        let a = RunPlan::with_workers(1).run_cluster(SystemSpec::hardharvest_block(), tiny(), 3);
        let b = RunPlan::with_workers(2).run_cluster(SystemSpec::hardharvest_block(), tiny(), 3);
        assert_eq!(
            a.pooled_latency_ms().values().len(),
            b.pooled_latency_ms().values().len()
        );
        assert_eq!(a.avg_busy_cores(), b.avg_busy_cores());
    }

    #[test]
    fn per_service_latency_extraction() {
        let m = run_cluster(SystemSpec::no_harvest(), tiny(), 4);
        for svc in 0..8 {
            let p99 = m.service_latency_ms(svc).p99();
            assert!(p99 > 0.0, "service {svc}");
        }
    }
}
