//! Host-time benchmark of the HardHarvest server simulator.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hardharvest|software|noharvest> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A workload is one of the five systems Figure 11 evaluates, simulated at
//! the scale the `figures` binary runs by default ([`Scale::quick`]: two
//! Table 1 servers with batch jobs 0 and 1, 300 SocialNet requests per
//! Primary VM at 800 requests/s). The per-server configurations come from
//! [`resolved_configs`], the same function `RunPlan` simulates, with one
//! master seed per cluster drawn from `--seed`:
//!
//! * `hardharvest`: HardHarvest-Block. Hardware reassignment, harvest-region
//!   flushes, partitioned visibility and the Algorithm 1 replacement policy.
//! * `software`: software Harvest-Block. Full-hierarchy flushes on every
//!   cross-VM move, the harvesting agent and its emergency buffer.
//! * `noharvest`: NoHarvest. No core ever changes VM, so every harvest path
//!   is bypassed; only the request path and the hierarchy walk run.
//!
//! `--trace 0` prints the end-to-end metrics: the median host time per
//! server simulation, over as many clusters as fit in `--seconds` (about a
//! dozen servers in 30 s, too few for a higher percentile), and the median
//! time `ServerSim::new` takes to build one of those servers. `--trace 1` prints per-layer
//! metrics over a fixed amount of work, so every count repeats exactly for
//! a seed: the first [`LAYER_CLUSTERS`] clusters untraced and then with
//! hh-trace enabled (its counters and its overhead), the first cluster
//! through the hh-core executor, and a replay of the first server's
//! workload through the stream generator (hh-workload) and the hierarchy
//! walk (hh-mem), timed the way `ServerSim::stream_stalls` runs them.
//!
//! Every run checks its outputs (all requests complete, latencies are finite
//! and positive, a repeated simulation is bit-identical, tracing and the
//! executor do not change results) and prints one JSON object as its last
//! line of stdout.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hh_core::{resolved_configs, RunPlan, Scale};
use hh_mem::{CacheStats, CoreMem, Dram, Llc, Visibility};
use hh_server::{ServerConfig, ServerMetrics, ServerSim, SystemSpec};
use hh_sim::{Cycles, Rng64, VmId};
use hh_workload::{BatchCatalog, RequestPlan, ServiceCatalog, ServiceId, StreamSpec};

/// Clusters simulated even when `--seconds` is already used up, so the
/// median always rests on at least eight servers.
const MIN_CLUSTERS: usize = 4;

/// Servers built (and dropped unrun) after the timed simulations, so the
/// set-up median rests on many more constructions than simulations.
const SETUP_SAMPLES: usize = 64;

/// Clusters the per-layer run simulates, untraced and traced.
const LAYER_CLUSTERS: usize = 2;

/// Invocations the per-layer replay runs.
const REPLAY_INVOCATIONS: u64 = 4000;

struct Args {
    system: SystemSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let system = match workload.as_str() {
        "hardharvest" => SystemSpec::hardharvest_block(),
        "software" => SystemSpec::harvest_block(),
        "noharvest" => SystemSpec::no_harvest(),
        other => return Err(format!("unknown workload {other}")),
    };
    Ok(Args {
        system,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The per-server configurations of a run's clusters, in order: cluster
/// `k` is what `RunPlan::run_cluster(system, Scale::quick(), seed_k)`
/// simulates, with `seed_k` the `k`-th draw of an RNG seeded by `seed`.
fn clusters(system: SystemSpec, seed: u64) -> impl Iterator<Item = (u64, Vec<ServerConfig>)> {
    let mut rng = Rng64::new(seed);
    std::iter::repeat_with(move || {
        let master = rng.next_u64();
        (master, resolved_configs(system, Scale::quick(), master, |_| {}))
    })
}

struct SimRun {
    setup_s: f64,
    sim_ms: f64,
    metrics: ServerMetrics,
}

/// Builds and runs one server, timing construction and the run separately.
fn simulate(cfg: ServerConfig) -> SimRun {
    let t0 = Instant::now();
    let sim = ServerSim::new(cfg);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let metrics = black_box(sim.run());
    let sim_ms = t1.elapsed().as_secs_f64() * 1e3;
    SimRun {
        setup_s,
        sim_ms,
        metrics,
    }
}

/// The output checks every simulation must pass.
fn check(cfg: &ServerConfig, m: &ServerMetrics) -> Result<(), String> {
    let want = (cfg.requests_per_vm * cfg.primary_vms) as u64;
    if m.completed() != want {
        return Err(format!("completed {} of {want} requests", m.completed()));
    }
    let lat = m.pooled_latency_ms();
    if lat.values().len() as u64 != want {
        return Err(format!(
            "{} latency samples for {want} requests",
            lat.values().len()
        ));
    }
    if let Some(v) = lat.values().iter().find(|v| !(v.is_finite() && **v > 0.0)) {
        return Err(format!("latency sample {v} ms"));
    }
    if m.l2_hits + m.l2_misses == 0 || m.end_time.as_u64() == 0 {
        return Err("simulation did no work".into());
    }
    if !cfg.system.mode.enabled() && m.reassignments != 0 {
        return Err(format!(
            "{} reassignments without harvesting",
            m.reassignments
        ));
    }
    Ok(())
}

fn same_output(a: &ServerMetrics, b: &ServerMetrics) -> bool {
    a.summary() == b.summary() && a.pooled_latency_ms().values() == b.pooled_latency_ms().values()
}

/// Nearest-rank quantile.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Simulates every server of the run's clusters, in order, until `done`
/// returns true for the number of clusters simulated so far, checking
/// each. Returns the runs with their configurations and the failure count.
fn simulate_clusters(
    system: SystemSpec,
    seed: u64,
    done: impl Fn(usize) -> bool,
) -> (Vec<(ServerConfig, SimRun)>, u64) {
    let mut runs = Vec::new();
    let mut failed = 0;
    for (k, (_, configs)) in clusters(system, seed).enumerate() {
        if done(k) {
            break;
        }
        for cfg in configs {
            let run = simulate(cfg.clone());
            if let Err(e) = check(&cfg, &run.metrics) {
                eprintln!("cluster {k} server {} (seed {:#x}): {e}", cfg.batch_job, cfg.seed);
                failed += 1;
            }
            runs.push((cfg, run));
        }
    }
    (runs, failed)
}

fn end_to_end(args: &Args) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (runs, mut failed) = simulate_clusters(args.system, args.seed, |k| {
        k >= MIN_CLUSTERS && Instant::now() >= deadline
    });
    // Determinism: the first configuration simulated again from scratch.
    let (cfg0, first) = &runs[0];
    if !same_output(&first.metrics, &simulate(cfg0.clone()).metrics) {
        eprintln!("simulation 0 is not reproducible");
        failed += 1;
    }
    let sim_ms: Vec<f64> = runs.iter().map(|(_, r)| r.sim_ms).collect();
    let mut setup_s: Vec<f64> = runs.iter().map(|(_, r)| r.setup_s).collect();
    for (cfg, _) in runs.iter().cycle().take(SETUP_SAMPLES) {
        let t0 = Instant::now();
        drop(black_box(ServerSim::new(cfg.clone())));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "{} simulations, {} constructions",
        runs.len(),
        setup_s.len()
    );
    Report {
        attempted: runs.len() as u64 + 1,
        failed,
        metrics: vec![
            ("sim_ms_p50", quantile(&sim_ms, 0.5), "ms"),
            ("setup_s", quantile(&setup_s, 0.5), "s"),
        ],
    }
}

/// Memory references one simulation of `cfg` issues: every request's phase
/// streams (their length does not depend on the RNG draw, so one generated
/// plan per service gives it exactly) plus one unit stream per completed
/// batch unit. Services map to VMs as in `ServerSim`'s arrival handler.
fn sim_refs(cfg: &ServerConfig, m: &ServerMetrics) -> u64 {
    let catalog = ServiceCatalog::of(cfg.catalog);
    let mut rng = Rng64::new(cfg.seed);
    let request_refs: u64 = (0..cfg.primary_vms)
        .map(|vm| {
            let sid = ServiceId((vm % catalog.len()) as u8);
            let plan = RequestPlan::generate(sid, catalog.get(sid), VmId::from(vm), 0, &mut rng);
            let refs: u64 = plan.phases.iter().map(|p| u64::from(p.stream.accesses)).sum();
            refs * cfg.requests_per_vm as u64
        })
        .sum();
    let unit = u64::from(BatchCatalog::paper().get(cfg.batch_job).accesses_per_unit);
    request_refs + m.batch_units * unit
}

/// Every core's private hierarchy plus the shared LLC and DRAM of one
/// server, driven the way `ServerSim` drives them, with host time summed
/// per layer.
struct Replay {
    mems: Vec<CoreMem>,
    llc: Llc,
    dram: Dram,
    /// MSHR modelling: each reference issues at the phase start plus the
    /// stalls so far, as in `ServerSim::stream_stalls`.
    cursor_mode: bool,
    now: Cycles,
    refs: u64,
    flushes: u64,
    plan_ns: u64,
    stream_ns: u64,
    gen_ns: u64,
    flush_ns: u64,
}

impl Replay {
    fn new(cfg: &ServerConfig) -> Self {
        let mut vm_cores = vec![cfg.cores_per_primary; cfg.primary_vms];
        vm_cores.push(cfg.cores - cfg.primary_cores());
        let mut llc_conf = cfg.llc;
        llc_conf.cores = cfg.cores;
        let geom = llc_conf.as_cache();
        Replay {
            mems: (0..cfg.cores)
                .map(|_| CoreMem::new(&cfg.hierarchy, cfg.harvest_frac, cfg.system.cache_policy()))
                .collect(),
            llc: Llc::new(geom.sets(), geom.ways, &vm_cores),
            dram: Dram::default(),
            cursor_mode: cfg.hierarchy.mshrs.is_some(),
            now: Cycles::ZERO,
            refs: 0,
            flushes: 0,
            plan_ns: 0,
            stream_ns: 0,
            gen_ns: 0,
            flush_ns: 0,
        }
    }

    /// Generates and walks one stream on `core` exactly as
    /// `ServerSim::stream_stalls` does, then generates it once more
    /// without walking to time the generator alone. Simulated time moves
    /// on by the phase's compute and stalls.
    fn stream(&mut self, core: usize, spec: &StreamSpec, vis: Visibility, compute: Cycles) {
        let t0 = Instant::now();
        let mem = &mut self.mems[core];
        let mut total = Cycles::ZERO;
        for acc in spec.iter() {
            let t = if self.cursor_mode {
                self.now + total
            } else {
                self.now
            };
            total += mem.access(t, acc, vis, &mut self.llc, &mut self.dram).stall;
        }
        let t1 = Instant::now();
        for acc in spec.iter() {
            black_box(acc);
        }
        self.gen_ns += t1.elapsed().as_nanos() as u64;
        self.stream_ns += (t1 - t0).as_nanos() as u64;
        self.now += compute + total;
        self.refs += u64::from(spec.accesses);
    }

    fn flush(&mut self, core: usize, partition: bool) {
        let t0 = Instant::now();
        let mem = &mut self.mems[core];
        black_box(if partition {
            mem.flush_harvest_region()
        } else {
            mem.flush_all()
        });
        self.flush_ns += t0.elapsed().as_nanos() as u64;
        self.flushes += 1;
    }

    fn sum_stats(&self, stats: impl Fn(&CoreMem) -> CacheStats) -> CacheStats {
        self.mems.iter().map(stats).fold(CacheStats::default(), |a, s| CacheStats {
            hits: a.hits + s.hits,
            misses: a.misses + s.misses,
            flushed: a.flushed + s.flushed,
            writebacks: a.writebacks + s.writebacks,
        })
    }
}

/// Replays [`REPLAY_INVOCATIONS`] invocations of `cfg`'s workload: the
/// Primary VMs take turns, each running its service on its own cores in
/// turn, and each invocation is followed by one unit of the server's batch
/// job. When the system harvests, the unit runs on the invocation's core,
/// bracketed by the flushes a cross-VM move costs; otherwise it runs on one
/// of the Harvest VM's own cores.
fn replay(cfg: &ServerConfig) -> Replay {
    let system = cfg.system;
    let mut r = Replay::new(cfg);
    let catalog = ServiceCatalog::of(cfg.catalog);
    let job = *BatchCatalog::paper().get(cfg.batch_job);
    let harvests = system.mode.enabled() && system.harvest_busy;
    let flushes = harvests && system.flush_enabled;
    let partition = system.opts.partition;
    let harvest_vis = if partition {
        Visibility::Harvest
    } else {
        Visibility::Primary
    };
    let harvest_vm = VmId::from(cfg.primary_vms);
    let mut rng = Rng64::new(cfg.seed);
    for inv in 0..REPLAY_INVOCATIONS {
        let vm = (inv % cfg.primary_vms as u64) as usize;
        let turn = (inv / cfg.primary_vms as u64) as usize;
        let core = vm * cfg.cores_per_primary + turn % cfg.cores_per_primary;
        let sid = ServiceId((vm % catalog.len()) as u8);
        let t0 = Instant::now();
        let plan = RequestPlan::generate(sid, catalog.get(sid), VmId::from(vm), inv, &mut rng);
        r.plan_ns += t0.elapsed().as_nanos() as u64;
        for phase in &plan.phases {
            r.stream(core, &phase.stream, Visibility::Primary, phase.compute);
        }
        let unit_core = if harvests {
            core
        } else {
            cfg.primary_cores() + (inv as usize) % (cfg.cores - cfg.primary_cores())
        };
        if flushes {
            r.flush(unit_core, partition);
        }
        r.mems[unit_core].set_dram_weight(cfg.batch_stall_scale.max(1.0));
        r.stream(
            unit_core,
            &job.unit_stream(harvest_vm, inv),
            harvest_vis,
            job.unit_cycles(),
        );
        r.mems[unit_core].set_dram_weight(1.0);
        if flushes {
            r.flush(unit_core, partition);
        }
    }
    r
}

/// Sums of the hh-trace session counters over the traced simulations.
#[derive(Default)]
struct TraceTotals {
    sessions: u64,
    events: u64,
    counters: std::collections::BTreeMap<&'static str, u64>,
}

const TRACE_COUNTERS: [&str; 11] = [
    "mem.l2_hits_primary",
    "mem.l2_misses_primary",
    "mem.l2_hits_harvest",
    "mem.l2_misses_harvest",
    "mem.flushes_full",
    "mem.flushes_region",
    "mem.flush_lines_dropped",
    "hwqueue.enqueued",
    "server.reassignments",
    "server.reclaims",
    "server.batch_units",
];

impl TraceTotals {
    /// Drains the finished sessions so their event rings are freed after
    /// every simulation.
    fn collect(&mut self) {
        for s in hh_trace::take_sessions() {
            self.sessions += 1;
            self.events += s.events.len() as u64 + s.dropped;
            for name in TRACE_COUNTERS {
                *self.counters.entry(name).or_default() += s.registry.counter(name);
            }
        }
    }

    fn per_sim(&self, name: &str) -> f64 {
        ratio(
            self.counters.get(name).copied().unwrap_or(0) as f64,
            self.sessions as f64,
        )
    }
}

/// Runs the first cluster through a one-worker `RunPlan` twice: once
/// simulating, once from its memo table. Checks both against the direct
/// runs and returns the cluster's time through the executor (ms) and the
/// memo hit's time (µs).
fn executor(args: &Args, direct: &[(ServerConfig, SimRun)], failed: &mut u64) -> (f64, f64) {
    let (master, configs) = clusters(args.system, args.seed)
        .next()
        .expect("the cluster seed sequence is endless");
    let direct = &direct[..configs.len()];
    let plan = RunPlan::with_workers(1);
    let t0 = Instant::now();
    let sim = plan.run_cluster(args.system, Scale::quick(), master);
    let run_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let memo = plan.run_cluster(args.system, Scale::quick(), master);
    let memo_us = t1.elapsed().as_secs_f64() * 1e6;
    let matches = |m: &hh_core::ClusterMetrics| {
        m.servers().len() == direct.len()
            && m.servers()
                .iter()
                .zip(direct)
                .all(|(a, (_, b))| same_output(a, &b.metrics))
    };
    if !matches(&sim) || !matches(&memo) || plan.sims_run() != 1 || plan.memo_hits() != 1 {
        eprintln!(
            "executor: results differ from the direct runs ({} simulated, {} memo hits)",
            plan.sims_run(),
            plan.memo_hits()
        );
        *failed += 1;
    }
    (run_ms, memo_us)
}

fn per_layer(args: &Args) -> Report {
    let (runs, mut failed) = simulate_clusters(args.system, args.seed, |k| k >= LAYER_CLUSTERS);
    let untraced: Vec<f64> = runs.iter().map(|(_, r)| r.sim_ms).collect();
    let mut traced = Vec::with_capacity(runs.len());
    let mut totals = TraceTotals::default();
    hh_trace::set_enabled(true);
    for (i, (cfg, plain)) in runs.iter().enumerate() {
        let run = simulate(cfg.clone());
        totals.collect();
        if !same_output(&plain.metrics, &run.metrics) {
            eprintln!("simulation {i}: tracing changed the results");
            failed += 1;
        }
        traced.push(run.sim_ms);
    }
    hh_trace::set_enabled(false);
    if totals.sessions != runs.len() as u64 {
        eprintln!(
            "{} trace sessions for {} simulations",
            totals.sessions,
            runs.len()
        );
        failed += 1;
    }

    let (executor_ms, memo_us) = executor(args, &runs, &mut failed);

    let r = replay(&runs[0].0);
    let refs = r.refs as f64;
    let l1d = r.sum_stats(CoreMem::l1d_stats);
    let l2 = r.sum_stats(CoreMem::l2_stats);
    if r.refs == 0 || l2.accesses() > r.refs || r.dram.accesses() > r.refs {
        eprintln!(
            "replay: {} L2 and {} DRAM accesses for {} references",
            l2.accesses(),
            r.dram.accesses(),
            r.refs
        );
        failed += 1;
    }

    // Shares of a simulation's host time that the stream generation and
    // walk, and the flushes, take at the replay's cost per reference and
    // per flush. The rest is the event loop, the harvesting policy and the
    // queues.
    let ns_per_ref = ratio(r.stream_ns as f64, refs);
    let flush_us = ratio(r.flush_ns as f64 / 1e3, r.flushes as f64);
    let refs_per_sim: Vec<f64> = runs
        .iter()
        .map(|(cfg, run)| sim_refs(cfg, &run.metrics) as f64)
        .collect();
    let walk_ms = mean(&refs_per_sim) * ns_per_ref / 1e6;
    let flush_ms = (totals.per_sim("mem.flushes_full") + totals.per_sim("mem.flushes_region"))
        * flush_us
        / 1e3;
    let sim_ms = mean(&untraced);

    let p50_untraced = quantile(&untraced, 0.5);
    let p50_traced = quantile(&traced, 0.5);
    let l2_hits = totals.per_sim("mem.l2_hits_primary") + totals.per_sim("mem.l2_hits_harvest");
    let l2_misses =
        totals.per_sim("mem.l2_misses_primary") + totals.per_sim("mem.l2_misses_harvest");
    eprintln!(
        "{} simulations traced, {} references replayed",
        runs.len(),
        r.refs
    );
    Report {
        attempted: 2 * runs.len() as u64 + 2 + REPLAY_INVOCATIONS,
        failed,
        metrics: vec![
            ("sim_ms_p50_untraced", p50_untraced, "ms"),
            ("sim_ms_p50_traced", p50_traced, "ms"),
            (
                "trace_overhead_pct",
                100.0 * (p50_traced / p50_untraced - 1.0),
                "%",
            ),
            ("sim_refs", mean(&refs_per_sim), "count"),
            ("sim_walk_share_pct", 100.0 * ratio(walk_ms, sim_ms), "%"),
            ("sim_flush_share_pct", 100.0 * ratio(flush_ms, sim_ms), "%"),
            ("sim_other_ms", sim_ms - walk_ms - flush_ms, "ms"),
            ("executor_cluster_ms", executor_ms, "ms"),
            ("executor_memo_hit_us", memo_us, "us"),
            (
                "sim_trace_events",
                ratio(totals.events as f64, totals.sessions as f64),
                "count",
            ),
            (
                "sim_l2_hit_rate",
                ratio(l2_hits, l2_hits + l2_misses),
                "ratio",
            ),
            (
                "sim_l2_harvest_misses",
                totals.per_sim("mem.l2_misses_harvest"),
                "count",
            ),
            (
                "sim_reassignments",
                totals.per_sim("server.reassignments"),
                "count",
            ),
            ("sim_reclaims", totals.per_sim("server.reclaims"), "count"),
            (
                "sim_flushes_full",
                totals.per_sim("mem.flushes_full"),
                "count",
            ),
            (
                "sim_flushes_region",
                totals.per_sim("mem.flushes_region"),
                "count",
            ),
            (
                "sim_flush_lines_dropped",
                totals.per_sim("mem.flush_lines_dropped"),
                "count",
            ),
            (
                "sim_hwqueue_enqueued",
                totals.per_sim("hwqueue.enqueued"),
                "count",
            ),
            (
                "sim_batch_units",
                totals.per_sim("server.batch_units"),
                "count",
            ),
            ("replay_refs", refs, "count"),
            ("replay_ns_per_ref", ns_per_ref, "ns"),
            (
                "replay_gen_ns_per_ref",
                ratio(r.gen_ns as f64, refs),
                "ns",
            ),
            (
                "replay_plan_us",
                r.plan_ns as f64 / 1e3 / REPLAY_INVOCATIONS as f64,
                "us",
            ),
            ("replay_flush_us", flush_us, "us"),
            ("replay_l1d_hit_rate", l1d.hit_rate(), "ratio"),
            ("replay_l2_hit_rate", l2.hit_rate(), "ratio"),
            ("replay_llc_hit_rate", r.llc.stats().hit_rate(), "ratio"),
            (
                "replay_dram_per_kref",
                ratio(1e3 * r.dram.accesses() as f64, refs),
                "count",
            ),
        ],
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hh-perfbench: {e}");
            eprintln!(
                "usage: hh-perfbench --workload <hardharvest|software|noharvest> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    report.print();
    ExitCode::SUCCESS
}
