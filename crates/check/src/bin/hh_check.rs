//! The `hh-check` differential smoke suite.
//!
//! Sweeps the differential oracle and the invariant suite over generated
//! workloads and exits non-zero at the first divergence or violation:
//!
//! 1. cache traces (mixed shared/private keys, writes, harvest-restricted
//!    masks, region flushes, HarvestMask reloads) replayed through the
//!    optimized cache and the naive reference, across geometries ×
//!    all replacement policies × mask schedules, then all of it again
//!    with every optimized cache built on the set blocks of a dropped,
//!    full one;
//! 2. the Belady bound and partition invariant over the same traces;
//! 3. sample-set traces (repeated queries, empty sets and empty merges)
//!    against the sort-based percentile reference;
//! 4. memo-table identity probes;
//! 5. pooled cluster runs at worker counts 1, 2 and 8 against the serial
//!    memo-free reference executor;
//! 6. subqueue FIFO and RQ-chunk-conservation stress.
//!
//! Designed to run in seconds (`cargo run --release -p hh-check`) so CI
//! can afford it on every push.

use hh_check::diff::{diff_cache, diff_samples, SampleOp};
use hh_check::invariants::{
    cache_invariants, BeladyUpperBound, ChunkConservation, PercentileMonotone, SubqueueFifo,
    TraceRun,
};
use hh_check::refexec::{diff_cluster, run_cluster_serial};
use hh_core::{MemoTable, RunPlan, Scale};
use hh_hwqueue::{Controller, ControllerConfig, Subqueue, VmKind};
use hh_mem::{CacheOp, PolicyKind, SetAssocCache, WayMask};
use hh_server::{ServerConfig, ServerSim, SystemSpec};
use hh_sim::invariant::Invariant;
use hh_sim::stats::Samples;
use hh_sim::{Cycles, Rng64, VmId};
use hh_workload::{OpTrace, StreamSpec};

/// How allowed/harvest masks vary along a generated trace.
#[derive(Debug, Clone, Copy)]
enum MaskSchedule {
    /// Every access sees every way; no flushes. (The only schedule where
    /// the classic Belady exchange argument holds, so it is the one the
    /// Belady bound is checked on.)
    Uniform,
    /// Alternating harvest-only / non-harvest-only / full-mask segments —
    /// the pattern that manufactures stale disallowed-way copies.
    Partitioned,
    /// Random masks per segment with interleaved region flushes and
    /// HarvestMask reloads.
    Adversarial,
}

fn gen_trace(seed: u64, ways: usize, schedule: MaskSchedule, len: usize) -> OpTrace {
    let mut rng = Rng64::new(seed);
    let mut t = OpTrace::new();
    let all = WayMask::all(ways);
    let harvest = WayMask::lower(ways / 2);
    let non_harvest = harvest.complement(ways);
    let mut allowed = all;
    for i in 0..len {
        if i % 24 == 0 {
            match schedule {
                MaskSchedule::Uniform => {}
                MaskSchedule::Partitioned => {
                    allowed = match (i / 24) % 3 {
                        0 => harvest,
                        1 => non_harvest,
                        _ => all,
                    };
                }
                MaskSchedule::Adversarial => {
                    allowed = WayMask(rng.below(1 << ways as u64) as u32);
                    if rng.chance(0.25) {
                        t.record_flush(WayMask(rng.below(1 << ways as u64) as u32));
                    }
                    if rng.chance(0.2) {
                        t.record_harvest_mask(WayMask::lower(rng.below(ways as u64 + 1) as usize));
                    }
                }
            }
        }
        // Small key space so sets stay contended; skew toward a hot subset.
        let key = if rng.chance(0.7) {
            rng.below(24)
        } else {
            rng.below(240)
        };
        t.access(key, rng.chance(0.5), rng.chance(0.3), allowed);
    }
    t
}

/// A recorded slice of the real workload synthesizer's address stream,
/// replayed under a restricted mask — the oracle sees the exact address
/// mixes the simulation produces, not just synthetic ones.
fn phase_trace(ways: usize) -> OpTrace {
    let spec = StreamSpec {
        vm: VmId(1),
        shared_base: StreamSpec::shared_base_for(2),
        shared_lines: 600,
        private_base: StreamSpec::private_base_for(7),
        private_lines: 200,
        accesses: 1500,
        ifetch_frac: 0.3,
        shared_data_frac: 0.5,
        seed: 23,
        uniform_private: false,
    };
    let mut t = OpTrace::new();
    t.record_phase(&spec, WayMask::all(ways));
    t.record_flush(WayMask::lower(ways / 2));
    t.record_phase(&spec, WayMask::lower(ways / 2));
    t
}

/// Builds a cache of this geometry, writes a dirty line (every other one
/// shared) into every way of every set, and drops it. The next cache of
/// the geometry built on this thread takes its set blocks, so it starts
/// on words that name real keys of the suite's traces.
fn litter(sets: usize, ways: usize) {
    let mut c = SetAssocCache::new(sets, ways, PolicyKind::Lru, WayMask::EMPTY);
    for j in 0..ways {
        for set in 0..sets {
            c.access(
                (set + sets * j) as u64,
                j % 2 == 0,
                WayMask::all(ways),
                true,
            );
        }
    }
}

/// The cache differential and invariant sweep. With `recycled`, each
/// optimized cache under test starts on [`litter`]ed set blocks.
fn check_cache_suite(failures: &mut u32, checks: &mut u32, recycled: bool) {
    let blocks = if recycled { ", recycled blocks" } else { "" };
    // 12 and 9 sets take the `%` set index (the LLC's path, 9·2¹³ sets);
    // the power-of-two counts take the mask.
    let geometries = [(4usize, 4usize), (16, 8), (64, 16), (12, 8), (9, 16)];
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Rrip,
        PolicyKind::hardharvest_default(),
        PolicyKind::HardHarvest {
            candidate_frac: 1.0,
        },
    ];
    let schedules = [
        MaskSchedule::Uniform,
        MaskSchedule::Partitioned,
        MaskSchedule::Adversarial,
    ];
    for &(sets, ways) in &geometries {
        for &policy in &policies {
            for &schedule in &schedules {
                let trace = gen_trace(
                    0xC0FFEE ^ (sets as u64) << 8 ^ ways as u64,
                    ways,
                    schedule,
                    3000,
                );
                let harvest = WayMask::lower(ways / 2);
                *checks += 1;
                if recycled {
                    litter(sets, ways);
                }
                match diff_cache(sets, ways, policy, harvest, &trace) {
                    Ok(stats) => {
                        // Invariant sweep over the same trace on the
                        // optimized structure, checked periodically.
                        if recycled {
                            litter(sets, ways);
                        }
                        let mut c = SetAssocCache::new(sets, ways, policy, harvest);
                        let suite = cache_invariants();
                        for (i, op) in trace.ops().iter().enumerate() {
                            match *op {
                                CacheOp::Access {
                                    key,
                                    shared,
                                    write,
                                    allowed,
                                } => {
                                    c.access(key, shared, allowed, write);
                                }
                                CacheOp::InvalidateWays(m) => {
                                    c.invalidate_ways(m);
                                }
                                CacheOp::SetHarvestMask(m) => c.set_harvest_mask(m),
                            }
                            if i % 64 == 0 {
                                if let Err(v) = suite.check_all(&c) {
                                    eprintln!(
                                        "FAIL cache invariant [{sets}x{ways} {policy:?} {schedule:?}{blocks}] op {i}: {v}"
                                    );
                                    *failures += 1;
                                    break;
                                }
                            }
                        }
                        if matches!(schedule, MaskSchedule::Uniform) {
                            let run = TraceRun {
                                sets,
                                ways,
                                trace: trace.ops().to_vec(),
                                online_hits: stats.hits,
                            };
                            if let Err(detail) = BeladyUpperBound.check(&run) {
                                eprintln!("FAIL belady bound [{sets}x{ways} {policy:?}{blocks}]: {detail}");
                                *failures += 1;
                            }
                        }
                    }
                    Err(d) => {
                        eprintln!(
                            "FAIL cache diff [{sets}x{ways} {policy:?} {schedule:?}{blocks}]:\n{d}"
                        );
                        *failures += 1;
                    }
                }
            }
        }
        // The recorded-workload trace, all policies.
        for &policy in &policies {
            *checks += 1;
            if recycled {
                litter(sets, ways);
            }
            if let Err(d) = diff_cache(
                sets,
                ways,
                policy,
                WayMask::lower(ways / 2),
                &phase_trace(ways),
            ) {
                eprintln!(
                    "FAIL cache diff on recorded phase [{sets}x{ways} {policy:?}{blocks}]:\n{d}"
                );
                *failures += 1;
            }
        }
    }
}

fn check_samples_suite(failures: &mut u32, checks: &mut u32) {
    // Edge cases pinned by hand: all-negative data, empty-set queries,
    // q = 0, empty merges between repeated queries.
    let edge_cases: Vec<Vec<SampleOp>> = vec![
        vec![
            SampleOp::Max,
            SampleOp::Min,
            SampleOp::Mean,
            SampleOp::Percentile(0.0),
        ],
        vec![
            SampleOp::Record(-5.0),
            SampleOp::Record(-1.5),
            SampleOp::Record(-9.0),
            SampleOp::Max,
            SampleOp::Percentile(0.0),
            SampleOp::Percentile(1.0),
        ],
        vec![
            SampleOp::Record(2.0),
            SampleOp::Record(1.0),
            SampleOp::Percentile(0.5),
            SampleOp::Percentile(0.5),
            SampleOp::Percentile(0.5),
            SampleOp::Merge(vec![]),
            SampleOp::Percentile(0.0),
            SampleOp::Merge(vec![0.5]),
            SampleOp::Percentile(0.0),
        ],
    ];
    for (i, ops) in edge_cases.iter().enumerate() {
        *checks += 1;
        if let Err(d) = diff_samples(ops) {
            eprintln!("FAIL samples edge case {i}:\n{d}");
            *failures += 1;
        }
    }
    // Random op sequences, including negative values and repeated queries.
    let mut rng = Rng64::new(0xDECAF);
    for case in 0..24 {
        let mut ops = Vec::new();
        for _ in 0..rng.below(60) + 5 {
            let v = (rng.below(4000) as f64 - 2000.0) / 7.0;
            ops.push(match rng.below(10) {
                0..=3 => SampleOp::Record(v),
                4 => SampleOp::Merge((0..rng.below(5)).map(|k| v + k as f64).collect()),
                5 => SampleOp::Merge(vec![]),
                6 => SampleOp::Percentile(rng.below(101) as f64 / 100.0),
                7 => SampleOp::Mean,
                8 => SampleOp::Max,
                _ => SampleOp::Min,
            });
        }
        *checks += 1;
        if let Err(d) = diff_samples(&ops) {
            eprintln!("FAIL samples random case {case}:\n{d}");
            *failures += 1;
        }
        // The monotonicity invariant on the final state of the same ops.
        let mut s = Samples::new();
        for op in &ops {
            match op {
                SampleOp::Record(v) => s.record(*v),
                SampleOp::Merge(b) => s.merge(&b.iter().copied().collect()),
                _ => {}
            }
        }
        if let Err(detail) = PercentileMonotone.check(&s) {
            eprintln!("FAIL percentile monotonicity case {case}: {detail}");
            *failures += 1;
        }
    }
}

fn check_memo_suite(failures: &mut u32, checks: &mut u32) {
    *checks += 1;
    let memo = MemoTable::new();
    let a = memo.cell("SystemA\nconfig-1");
    let b = memo.cell("SystemA\nconfig-2");
    let a_again = memo.cell("SystemA\nconfig-1");
    if std::sync::Arc::ptr_eq(&a, &b) {
        eprintln!("FAIL memo: two different keys aliased one cell");
        *failures += 1;
    }
    if !std::sync::Arc::ptr_eq(&a, &a_again) {
        eprintln!("FAIL memo: identical keys did not share a cell");
        *failures += 1;
    }
    if memo.len() != 2 {
        eprintln!("FAIL memo: expected 2 distinct cells, found {}", memo.len());
        *failures += 1;
    }
}

fn check_executor_suite(failures: &mut u32, checks: &mut u32) {
    let scale = Scale {
        servers: 2,
        requests_per_vm: 40,
        rps_per_vm: 800.0,
    };
    for system in [SystemSpec::no_harvest(), SystemSpec::hardharvest_block()] {
        let reference = run_cluster_serial(system, scale, 7);
        for workers in [1usize, 2, 8] {
            *checks += 1;
            let pooled = RunPlan::with_workers(workers).run_cluster(system, scale, 7);
            if let Err(d) = diff_cluster(&pooled, &reference) {
                eprintln!(
                    "FAIL executor diff [{} workers={workers}]:\n{d}",
                    system.name
                );
                *failures += 1;
            }
        }
    }
    // The process-wide executor (honouring HH_WORKERS) must agree too.
    *checks += 1;
    let system = SystemSpec::hardharvest_block();
    let pooled = RunPlan::global().run_cluster(system, scale, 7);
    if let Err(d) = diff_cluster(&pooled, &run_cluster_serial(system, scale, 7)) {
        eprintln!(
            "FAIL executor diff [global pool, {} workers]:\n{d}",
            RunPlan::global().workers()
        );
        *failures += 1;
    }
}

fn check_queue_suite(failures: &mut u32, checks: &mut u32) {
    *checks += 1;
    let fifo = SubqueueFifo;
    let mut q = Subqueue::new(2, 4);
    let mut rng = Rng64::new(0xF1F0);
    let mut next_token = 0u64;
    let mut resident: Vec<u64> = Vec::new();
    for step in 0..400u64 {
        match rng.below(6) {
            0 | 1 => {
                q.enqueue(next_token, Cycles::new(step));
                resident.push(next_token);
                next_token += 1;
            }
            2 => {
                if let Some((t, _, _)) = q.dequeue_ready() {
                    q.complete(t);
                    resident.retain(|&r| r != t);
                }
            }
            3 => {
                q.add_chunks(1);
            }
            4 => {
                q.shed_chunks(1);
            }
            _ => {
                if let Some((t, _, _)) = q.dequeue_ready() {
                    q.preempt(t);
                }
            }
        }
        if let Err(detail) = fifo.check(&q) {
            eprintln!("FAIL subqueue FIFO at step {step}: {detail}");
            *failures += 1;
            return;
        }
    }

    *checks += 1;
    let mut ctrl = Controller::new(ControllerConfig::table1());
    ctrl.register_vm(VmId(0), VmKind::Primary, 4);
    ctrl.register_vm(VmId(1), VmKind::Primary, 4);
    ctrl.register_vm(VmId(2), VmKind::Harvest, 2);
    for t in 0..200u64 {
        ctrl.enqueue(VmId((t % 3) as u16), t, Cycles::new(t));
        if let Err(detail) = ChunkConservation.check(&ctrl) {
            eprintln!("FAIL chunk conservation after enqueue {t}: {detail}");
            *failures += 1;
            return;
        }
    }

    // A freshly constructed full server satisfies its own invariant set.
    *checks += 1;
    let sim = ServerSim::new(ServerConfig::table1(SystemSpec::hardharvest_block()));
    if let Err(v) = sim.check_invariants() {
        eprintln!("FAIL fresh ServerSim invariants: {v}");
        *failures += 1;
    }
}

fn main() {
    let mut failures = 0u32;
    let mut checks = 0u32;

    println!("hh-check: cache differential sweep…");
    check_cache_suite(&mut failures, &mut checks, false);
    println!("hh-check: cache differential sweep on recycled set blocks…");
    check_cache_suite(&mut failures, &mut checks, true);
    println!("hh-check: percentile differential sweep…");
    check_samples_suite(&mut failures, &mut checks);
    println!("hh-check: memo-table identity probe…");
    check_memo_suite(&mut failures, &mut checks);
    println!("hh-check: executor differential sweep (workers 1/2/8 + global)…");
    check_executor_suite(&mut failures, &mut checks);
    println!("hh-check: queue and server invariant sweep…");
    check_queue_suite(&mut failures, &mut checks);

    if failures == 0 {
        println!("hh-check: OK — {checks} checks, no divergence");
    } else {
        eprintln!("hh-check: FAILED — {failures} of {checks} checks diverged");
        std::process::exit(1);
    }
}
