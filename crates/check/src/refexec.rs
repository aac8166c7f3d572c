//! Serial, memo-free reference executor for cluster runs.
//!
//! [`hh_core::RunPlan`] overlaps per-server simulations on a worker pool
//! and deduplicates whole cluster runs through a memo table. Both
//! mechanisms are pure plumbing — the metrics of a cluster must be a
//! function of its resolved configs alone. This module computes that
//! function the obvious way (one server after another, no threads, no
//! memo, no channels) and compares the result field by field against what
//! the pool produced, so a scheduling or memoization bug shows up as a
//! named metric difference on a named server instead of a flaky figure.

use hh_core::{resolved_configs, ClusterMetrics, Scale};
use hh_server::{ServerSim, SystemSpec};

use crate::diff::Divergence;

/// Runs one cluster serially: the same resolved configs [`hh_core::RunPlan`]
/// would simulate, executed one server at a time on the calling thread.
pub fn run_cluster_serial(system: SystemSpec, scale: Scale, seed: u64) -> ClusterMetrics {
    let configs = resolved_configs(system, scale, seed, |_| {});
    ClusterMetrics::new(
        system.name,
        configs
            .into_iter()
            .map(|cfg| ServerSim::new(cfg).run())
            .collect(),
    )
}

/// Compares two cluster results field by field. `optimized` is the pooled
/// executor's output, `reference` the serial one; the first differing
/// metric is reported with its server index and field name. Latency sample
/// *values* are compared element-wise in recording order — the executor
/// must be bit-identical, not statistically similar.
pub fn diff_cluster(
    optimized: &ClusterMetrics,
    reference: &ClusterMetrics,
) -> Result<(), Box<Divergence>> {
    let diverge = |index: usize, context: &str, field: &'static str, a: String, b: String| {
        Box::new(Divergence {
            index,
            context: context.to_string(),
            field,
            optimized: a,
            reference: b,
        })
    };

    if optimized.system() != reference.system() {
        return Err(diverge(
            0,
            "cluster header",
            "system label",
            optimized.system().to_string(),
            reference.system().to_string(),
        ));
    }
    if optimized.servers().len() != reference.servers().len() {
        return Err(diverge(
            0,
            "cluster header",
            "server count",
            optimized.servers().len().to_string(),
            reference.servers().len().to_string(),
        ));
    }

    for (i, (a, b)) in optimized
        .servers()
        .iter()
        .zip(reference.servers())
        .enumerate()
    {
        let ctx = format!("server {i} ({})", a.system);
        macro_rules! field {
            ($name:literal, $fa:expr, $fb:expr) => {
                if $fa != $fb {
                    return Err(diverge(
                        i,
                        &ctx,
                        $name,
                        format!("{:?}", $fa),
                        format!("{:?}", $fb),
                    ));
                }
            };
        }
        field!("end_time", a.end_time, b.end_time);
        field!("batch_units", a.batch_units, b.batch_units);
        field!("reassignments", a.reassignments, b.reassignments);
        field!("reclaims", a.reclaims, b.reclaims);
        field!("l2_hits", a.l2_hits, b.l2_hits);
        field!("l2_misses", a.l2_misses, b.l2_misses);
        field!("queue_overflows", a.queue_overflows, b.queue_overflows);
        field!("busy_cores integral", a.busy_cores, b.busy_cores);
        field!("service count", a.services.len(), b.services.len());
        for (s, (sa, sb)) in a.services.iter().zip(&b.services).enumerate() {
            let sctx = format!("{ctx}, service {s}");
            if sa.completed != sb.completed {
                return Err(diverge(
                    i,
                    &sctx,
                    "completed",
                    sa.completed.to_string(),
                    sb.completed.to_string(),
                ));
            }
            if sa.exec != sb.exec || sa.io != sb.io {
                return Err(diverge(
                    i,
                    &sctx,
                    "exec/io cycles",
                    format!("{:?}/{:?}", sa.exec, sa.io),
                    format!("{:?}/{:?}", sb.exec, sb.io),
                ));
            }
            if sa.latency_ms.values() != sb.latency_ms.values() {
                return Err(diverge(
                    i,
                    &sctx,
                    "latency samples",
                    format!("{} samples", sa.latency_ms.len()),
                    format!("{} samples", sb.latency_ms.len()),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::RunPlan;

    fn tiny() -> Scale {
        Scale {
            servers: 2,
            requests_per_vm: 40,
            rps_per_vm: 800.0,
        }
    }

    #[test]
    fn pooled_executor_matches_serial_reference() {
        let sys = SystemSpec::hardharvest_block();
        let reference = run_cluster_serial(sys, tiny(), 11);
        for workers in [1, 3] {
            let pooled = RunPlan::with_workers(workers).run_cluster(sys, tiny(), 11);
            diff_cluster(&pooled, &reference).unwrap_or_else(|d| panic!("workers={workers}: {d}"));
        }
    }

    #[test]
    fn different_seeds_are_reported_as_divergence() {
        let sys = SystemSpec::no_harvest();
        let a = run_cluster_serial(sys, tiny(), 1);
        let b = run_cluster_serial(sys, tiny(), 2);
        let d = diff_cluster(&a, &b).expect_err("different seeds must diverge");
        assert!(!d.field.is_empty());
        assert!(d.to_string().contains("server"));
    }
}
