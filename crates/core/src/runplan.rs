//! The run-plan executor: one bounded worker pool plus a memo table for
//! every cluster simulation the figure harness requests.
//!
//! Several figures re-run identical simulations: Figures 11 and 16 differ
//! only in the percentile they report, Figure 17 and the utilization study
//! revisit the same five systems, and four experiments re-simulate the
//! stock `NoHarvest` baseline. [`RunPlan`] deduplicates them — a cluster
//! run is keyed by its fully-resolved per-server [`ServerConfig`]s, so
//! any two requests that would simulate the same thing share one result.
//!
//! Per-server [`ServerSim`] jobs from *all* concurrent cluster runs are
//! scheduled onto one bounded pool of OS threads (default:
//! `available_parallelism`, overridable with `HH_WORKERS`), so a figure
//! with five rows × N servers keeps every core busy without oversubscribing
//! the machine. Results are collected by server index and merged in config
//! order, which makes every metric bit-identical regardless of the worker
//! count or scheduling interleaving.

// A hot module: the per-access/per-event path must not hide panic branches.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

use hh_server::{ServerConfig, ServerMetrics, ServerSim, SystemSpec};

use crate::{ClusterMetrics, Scale};

/// A unit of pool work: simulate one server, send its metrics home.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The memo table behind [`RunPlan`]: one result cell per full resolved
/// key (system label plus every resolved per-server config).
///
/// The complete key string is the identity, so two configurations share
/// a cell only when they are equal; no hash stands in for the key. A
/// harness run makes about a hundred lookups, each keying a simulation
/// that runs for seconds, so comparing whole strings is cheap.
///
/// Public so the `hh-check` oracle suite can probe the cell identity
/// directly.
#[derive(Debug, Default)]
pub struct MemoTable {
    cells: Mutex<BTreeMap<Box<str>, Arc<OnceLock<ClusterMetrics>>>>,
}

impl MemoTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MemoTable::default()
    }

    /// The result cell for `key`, created on first use. Two calls share a
    /// cell exactly when their keys are equal. The `Arc<OnceLock>` is
    /// cloned out of the table before initialization, so concurrent
    /// requests for the same key block on one simulation instead of
    /// racing duplicates.
    pub fn cell(&self, key: &str) -> Arc<OnceLock<ClusterMetrics>> {
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning means a worker panicked mid-simulation; the run is already lost, die loudly"
        )]
        let mut cells = self.cells.lock().expect("memo poisoned");
        if let Some(cell) = cells.get(key) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(OnceLock::new());
        cells.insert(key.into(), Arc::clone(&cell));
        cell
    }

    /// Number of distinct keys stored.
    #[expect(
        clippy::expect_used,
        reason = "poisoning implies a worker already panicked; propagate the failure"
    )]
    pub fn len(&self) -> usize {
        self.cells.lock().expect("memo poisoned").len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Memoizing parallel executor for cluster simulations.
///
/// See the module docs for the design. The process-wide instance used by
/// [`crate::run_cluster`] and [`crate::Experiments`] is [`RunPlan::global`];
/// tests that need isolated memo tables or fixed worker counts create their
/// own with [`RunPlan::with_workers`] / [`RunPlan::leaked`].
pub struct RunPlan {
    workers: usize,
    queue: mpsc::Sender<Job>,
    /// One cell per distinct simulation (see [`MemoTable`]).
    memo: MemoTable,
    sims_run: AtomicU64,
    memo_hits: AtomicU64,
}

impl fmt::Debug for RunPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunPlan")
            .field("workers", &self.workers)
            .field("sims_run", &self.sims_run())
            .field("memo_hits", &self.memo_hits())
            .finish()
    }
}

impl RunPlan {
    /// An executor with `workers` pool threads (clamped to at least one).
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || loop {
                // Take the lock only to dequeue; run the job unlocked.
                #[expect(
                    clippy::expect_used,
                    reason = "a poisoned queue lock means a sibling worker panicked; joining it is pointless"
                )]
                let job = match rx.lock().expect("worker queue poisoned").recv() {
                    Ok(job) => job,
                    Err(_) => break, // executor dropped
                };
                if hh_trace::enabled() {
                    hh_trace::exec::worker_begin();
                    job();
                    hh_trace::exec::worker_end();
                } else {
                    job();
                }
            });
        }
        RunPlan {
            workers,
            queue: tx,
            memo: MemoTable::new(),
            sims_run: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// The process-wide executor. Worker count comes from `HH_WORKERS`
    /// when set (and positive), else `available_parallelism`.
    pub fn global() -> &'static RunPlan {
        static GLOBAL: OnceLock<RunPlan> = OnceLock::new();
        GLOBAL.get_or_init(|| RunPlan::with_workers(default_workers()))
    }

    /// A leaked, `'static` executor for tests that pin the worker count or
    /// need an isolated memo table / fresh counters.
    pub fn leaked(workers: usize) -> &'static RunPlan {
        Box::leak(Box::new(RunPlan::with_workers(workers)))
    }

    /// Pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cluster simulations actually executed (memo misses).
    pub fn sims_run(&self) -> u64 {
        self.sims_run.load(Ordering::Relaxed)
    }

    /// Cluster runs served from the memo table without simulating.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Runs (or recalls) a cluster under `system` with per-server config
    /// tweaks. Equivalent requests — same resolved configs — simulate once.
    pub fn run_cluster_with(
        &self,
        system: SystemSpec,
        scale: Scale,
        seed: u64,
        tweak: impl Fn(&mut ServerConfig),
    ) -> ClusterMetrics {
        let traced = hh_trace::enabled();
        let t0 = if traced {
            hh_trace::exec::wall_us()
        } else {
            0.0
        };
        let configs = resolved_configs(system, scale, seed, tweak);
        let cell = self.memo.cell(&memo_key(system, &configs));
        if let Some(hit) = cell.get() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            if traced {
                hh_trace::exec::record_span(cluster_span_label(system, seed), t0, true);
            }
            return hit.clone();
        }
        let mut simulated = false;
        let out = cell
            .get_or_init(|| {
                simulated = true;
                self.sims_run.fetch_add(1, Ordering::Relaxed);
                self.simulate(system, configs)
            })
            .clone();
        if traced {
            // A racing thread may have initialized the cell first; that
            // still counts as a memo hit from this caller's perspective.
            hh_trace::exec::record_span(cluster_span_label(system, seed), t0, !simulated);
        }
        out
    }

    /// Runs (or recalls) a cluster with stock Table 1 knobs.
    pub fn run_cluster(&self, system: SystemSpec, scale: Scale, seed: u64) -> ClusterMetrics {
        self.run_cluster_with(system, scale, seed, |_| {})
    }

    /// Fans the per-server jobs out to the pool and reassembles the
    /// metrics in server order (determinism does not depend on which
    /// worker finishes first).
    #[expect(
        clippy::expect_used,
        reason = "every slot is filled exactly once by construction of the (i, metrics) channel"
    )]
    fn simulate(&self, system: SystemSpec, configs: Vec<ServerConfig>) -> ClusterMetrics {
        let n = configs.len();
        let (tx, rx) = mpsc::channel::<(usize, ServerMetrics)>();
        let sys_name = system.name;
        for (i, cfg) in configs.into_iter().enumerate() {
            let tx = tx.clone();
            #[expect(
                clippy::expect_used,
                reason = "send fails only after every worker thread died, which is itself a panic already"
            )]
            self.queue
                .send(Box::new(move || {
                    let traced = hh_trace::enabled();
                    let t0 = if traced {
                        hh_trace::exec::wall_us()
                    } else {
                        0.0
                    };
                    let metrics = ServerSim::new(cfg).run();
                    if traced {
                        hh_trace::exec::record_span(format!("{sys_name}#{i}"), t0, false);
                    }
                    // The receiver only disappears if this run was abandoned
                    // (caller panicked); nothing left to report then.
                    let _ = tx.send((i, metrics));
                }))
                .expect("worker pool shut down");
        }
        drop(tx);
        let mut slots: Vec<Option<ServerMetrics>> = (0..n).map(|_| None).collect();
        for (i, metrics) in rx {
            slots[i] = Some(metrics);
        }
        ClusterMetrics::new(
            system.name,
            slots
                .into_iter()
                .map(|s| s.expect("server simulation lost"))
                .collect(),
        )
    }
}

/// Label of a cluster-level executor span: system plus request seed.
fn cluster_span_label(system: SystemSpec, seed: u64) -> String {
    format!("{} seed={seed:#x}", system.name)
}

/// Resolves the per-server configurations of one cluster run, applying the
/// experiment's tweak hook to each. This is exactly what [`RunPlan`] would
/// simulate for the same arguments — public so the `hh-check` serial
/// reference executor can replay identical configs outside the pool.
pub fn resolved_configs(
    system: SystemSpec,
    scale: Scale,
    seed: u64,
    tweak: impl Fn(&mut ServerConfig),
) -> Vec<ServerConfig> {
    (0..scale.servers)
        .map(|i| {
            let mut cfg = ServerConfig::table1(system);
            cfg.requests_per_vm = scale.requests_per_vm;
            cfg.rps_per_vm = scale.rps_per_vm;
            cfg.batch_job = i % 8;
            cfg.seed = seed ^ ((i as u64 + 1) << 32);
            tweak(&mut cfg);
            cfg
        })
        .collect()
}

/// The memo identity of one cluster run: the system label plus the `Debug`
/// rendering of every resolved per-server config, which embeds the
/// [`SystemSpec`], the scale knobs and the per-server seed. The label is
/// mixed in so same-config variants renamed for a figure stay distinct
/// rows.
fn memo_key(system: SystemSpec, configs: &[ServerConfig]) -> String {
    use fmt::Write;
    let mut full = String::with_capacity(256);
    full.push_str(system.name);
    for cfg in configs {
        full.push('\n');
        #[expect(
            clippy::expect_used,
            reason = "fmt::Write to String cannot fail; the expect documents that, it never fires"
        )]
        write!(full, "{cfg:?}").expect("String write is infallible");
    }
    full
}

/// `HH_WORKERS` when set to a positive integer, else the machine's
/// available parallelism.
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("HH_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            servers: 2,
            requests_per_vm: 40,
            rps_per_vm: 800.0,
        }
    }

    #[test]
    fn memo_hash_collision_keeps_cells_distinct() {
        // Distinct keys get distinct cells, however alike they are; an
        // equal key shares its cell.
        let memo = MemoTable::new();
        let a = memo.cell("NoHarvest\nconfig-a");
        let b = memo.cell("NoHarvest\nconfig-b");
        assert!(
            !Arc::ptr_eq(&a, &b),
            "distinct keys must not alias one result"
        );
        assert_eq!(memo.len(), 2);
        let a_again = memo.cell("NoHarvest\nconfig-a");
        assert!(Arc::ptr_eq(&a, &a_again));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memo_key_separates_configs_beyond_the_hash() {
        // Resolved configs that differ in one field get distinct keys and
        // so distinct cells; resolving the same config again shares one.
        let sys = SystemSpec::no_harvest();
        let a = resolved_configs(sys, tiny(), 9, |_| {});
        let b = resolved_configs(sys, tiny(), 9, |cfg| cfg.requests_per_vm = 20);
        let memo = MemoTable::new();
        let cell_a = memo.cell(&memo_key(sys, &a));
        let cell_b = memo.cell(&memo_key(sys, &b));
        assert!(!Arc::ptr_eq(&cell_a, &cell_b), "different configs alias");
        let again = resolved_configs(sys, tiny(), 9, |_| {});
        assert!(Arc::ptr_eq(&cell_a, &memo.cell(&memo_key(sys, &again))));
    }

    #[test]
    fn identical_requests_simulate_once() {
        let plan = RunPlan::with_workers(2);
        let a = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        let b = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        assert_eq!(plan.sims_run(), 1);
        assert_eq!(plan.memo_hits(), 1);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(
            a.pooled_latency_ms().values(),
            b.pooled_latency_ms().values()
        );
    }

    #[test]
    fn different_tweaks_do_not_collide() {
        let plan = RunPlan::with_workers(2);
        let a = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        let b = plan.run_cluster_with(SystemSpec::no_harvest(), tiny(), 9, |cfg| {
            cfg.requests_per_vm = 20;
        });
        assert_eq!(plan.sims_run(), 2);
        assert_ne!(a.completed(), b.completed());
    }

    #[test]
    fn renamed_variant_is_a_distinct_row() {
        // Same config, different figure label: both must simulate (the
        // label is part of the row identity even though metrics match).
        let plan = RunPlan::with_workers(1);
        let a = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        let b = plan.run_cluster(SystemSpec::no_harvest_named("No-Move"), tiny(), 9);
        assert_eq!(plan.sims_run(), 2);
        assert_eq!(a.system(), "NoHarvest");
        assert_eq!(b.system(), "No-Move");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let one = RunPlan::with_workers(1);
        let four = RunPlan::with_workers(4);
        let a = one.run_cluster(SystemSpec::hardharvest_block(), tiny(), 3);
        let b = four.run_cluster(SystemSpec::hardharvest_block(), tiny(), 3);
        assert_eq!(
            a.pooled_latency_ms().values(),
            b.pooled_latency_ms().values()
        );
        assert_eq!(a.avg_busy_cores(), b.avg_busy_cores());
    }

    #[test]
    fn concurrent_identical_requests_share_one_simulation() {
        let plan: &'static RunPlan = RunPlan::leaked(2);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || plan.run_cluster(SystemSpec::harvest_block(), tiny(), 5))
            })
            .collect();
        let runs: Vec<ClusterMetrics> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Racing threads either hit the memo fast path or block inside the
        // same cell's initialization — never a duplicate simulation.
        assert_eq!(plan.sims_run(), 1);
        assert!(plan.memo_hits() <= 3);
        for r in &runs[1..] {
            assert_eq!(
                r.pooled_latency_ms().values(),
                runs[0].pooled_latency_ms().values()
            );
        }
    }
}
