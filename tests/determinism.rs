//! Reproducibility: the entire stack is deterministic given a seed —
//! including under the memoizing parallel executor, whatever its worker
//! count.

#![allow(clippy::float_cmp)]

use hh_core::{Experiments, RunPlan, Scale, SystemSpec};

fn tiny() -> Scale {
    Scale {
        servers: 2,
        requests_per_vm: 80,
        rps_per_vm: 800.0,
    }
}

#[test]
fn identical_seeds_produce_identical_metrics() {
    // Two isolated executors so both runs actually simulate (one plan
    // would serve the second request from its memo table).
    let a = RunPlan::with_workers(2).run_cluster(SystemSpec::hardharvest_block(), tiny(), 123);
    let b = RunPlan::with_workers(2).run_cluster(SystemSpec::hardharvest_block(), tiny(), 123);
    assert_eq!(
        a.pooled_latency_ms().values(),
        b.pooled_latency_ms().values()
    );
    assert_eq!(a.avg_busy_cores(), b.avg_busy_cores());
    for (sa, sb) in a.servers().iter().zip(b.servers()) {
        assert_eq!(sa.batch_units, sb.batch_units);
        assert_eq!(sa.reassignments, sb.reassignments);
        assert_eq!(sa.reclaims, sb.reclaims);
        assert_eq!(sa.l2_hits, sb.l2_hits);
        assert_eq!(sa.l2_misses, sb.l2_misses);
    }
}

#[test]
fn different_seeds_differ() {
    let plan = RunPlan::with_workers(2);
    let a = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 1);
    let b = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 2);
    assert_ne!(
        a.pooled_latency_ms().values(),
        b.pooled_latency_ms().values(),
        "different seeds should perturb the run"
    );
}

#[test]
fn parallel_servers_do_not_race() {
    // Thread scheduling must not leak into results: server i's metrics
    // depend only on its own config/seed.
    let a = RunPlan::with_workers(1).run_cluster(SystemSpec::harvest_block(), tiny(), 77);
    let b = RunPlan::with_workers(4).run_cluster(SystemSpec::harvest_block(), tiny(), 77);
    for (sa, sb) in a.servers().iter().zip(b.servers()) {
        assert_eq!(
            sa.pooled_latency_ms().values(),
            sb.pooled_latency_ms().values()
        );
    }
}

#[test]
fn memoized_rerun_equals_fresh_run() {
    let plan = RunPlan::with_workers(2);
    let fresh = plan.run_cluster(SystemSpec::hardharvest_term(), tiny(), 41);
    let recalled = plan.run_cluster(SystemSpec::hardharvest_term(), tiny(), 41);
    assert_eq!(plan.sims_run(), 1);
    assert_eq!(plan.memo_hits(), 1);
    assert_eq!(
        fresh.pooled_latency_ms().values(),
        recalled.pooled_latency_ms().values()
    );
}

/// The acceptance bar for the parallel executor: an entire figure —
/// concurrent rows fanned out as per-server jobs — renders byte-identically
/// whether one worker or many drain the pool.
#[test]
fn figure_tables_are_worker_count_invariant() {
    let fig12 = |workers: usize| {
        let ex = Experiments::quick().on_plan(RunPlan::leaked(workers));
        ex.fig12().to_table().render()
    };
    let one = fig12(1);
    let two = fig12(2);
    let many = fig12(8);
    assert_eq!(one, two, "1 vs 2 workers");
    assert_eq!(one, many, "1 vs 8 workers");
    assert!(one.contains("Figure 12"));
}
