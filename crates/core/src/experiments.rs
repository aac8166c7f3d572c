//! One runner per table/figure in the paper's evaluation.
//!
//! Each `figN` method runs the simulations that figure needs and returns a
//! typed result that renders to the same rows/series the paper plots. The
//! index in `DESIGN.md` maps every method to its figure.

use hh_hwqueue::storage::StorageCost;
use hh_server::{ServerConfig, SystemSpec};
use hh_workload::trace::TraceSet;
use hh_workload::ServiceCatalog;
use serde::Serialize;

use crate::{ClusterMetrics, PolicyHitRates, ReplacementLab, RunPlan, Scale, Table};

/// Service names in figure order.
fn service_names() -> Vec<&'static str> {
    ServiceCatalog::socialnet()
        .iter()
        .map(|(_, p)| p.name)
        .collect()
}

/// A latency figure: one row per system/variant, one column per service
/// plus the average (the shape of Figures 4, 5, 7, 11, 12, 13, 15, 16,
/// 18, 19).
#[derive(Debug, Clone, Serialize)]
pub struct LatencyFigure {
    /// Figure identifier (e.g. "Figure 11").
    pub title: String,
    /// "P99" or "Median".
    pub metric: &'static str,
    /// Column labels.
    pub services: Vec<&'static str>,
    /// Rows: (label, per-service values in ms, pooled value in ms).
    pub rows: Vec<LatencyRow>,
}

/// One bar group of a latency figure.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyRow {
    /// System / variant label.
    pub label: String,
    /// Latency per service, milliseconds.
    pub per_service_ms: Vec<f64>,
    /// Pooled latency across services, milliseconds.
    pub average_ms: f64,
}

impl LatencyFigure {
    fn from_runs(title: String, metric: &'static str, runs: Vec<(String, ClusterMetrics)>) -> Self {
        let q = if metric == "Median" { 0.5 } else { 0.99 };
        let services = service_names();
        let rows = runs
            .into_iter()
            .map(|(label, m)| LatencyRow {
                label,
                per_service_ms: (0..services.len())
                    .map(|s| m.service_latency_ms(s).percentile(q))
                    .collect(),
                average_ms: m.pooled_latency_ms().percentile(q),
            })
            .collect();
        LatencyFigure {
            title,
            metric,
            services,
            rows,
        }
    }

    /// Renders the figure as a text table.
    pub fn to_table(&self) -> Table {
        let mut header = vec![format!("{} ({} ms)", self.title, self.metric)];
        header.extend(self.services.iter().map(|s| s.to_string()));
        header.push("Avg".into());
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut vals = r.per_service_ms.clone();
            vals.push(r.average_ms);
            t.row_f64(&r.label, &vals);
        }
        t
    }

    /// Average-column value of a row by label.
    ///
    /// # Panics
    /// Panics if the label is absent.
    pub fn avg_of(&self, label: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("row {label} missing"))
            .average_ms
    }
}

/// Figure 2: CDFs of average and maximum instance core utilization.
#[derive(Debug, Clone, Serialize)]
pub struct UtilizationCdf {
    /// Sorted per-instance average utilizations.
    pub avg: Vec<f64>,
    /// Sorted per-instance maximum utilizations.
    pub max: Vec<f64>,
}

impl UtilizationCdf {
    /// Quantile of the average-utilization CDF.
    pub fn avg_quantile(&self, q: f64) -> f64 {
        TraceSet::quantile(&self.avg, q)
    }

    /// Quantile of the maximum-utilization CDF.
    pub fn max_quantile(&self, q: f64) -> f64 {
        TraceSet::quantile(&self.max, q)
    }

    /// Renders selected CDF points as a table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "Figure 2 (CDF)".into(),
            "AlibabaAvg".into(),
            "AlibabaMax".into(),
        ]);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            t.row_f64(
                &format!("p{:02.0}", q * 100.0),
                &[self.avg_quantile(q), self.max_quantile(q)],
            );
        }
        t
    }
}

/// Figure 6: per-request execution-time breakdown without/with software
/// core harvesting.
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownFigure {
    /// Column labels.
    pub services: Vec<&'static str>,
    /// Mean request time under NoHarvest, ms (compute+stalls+IO).
    pub no_harvest_ms: Vec<f64>,
    /// Mean reassignment component under software harvesting, ms.
    pub reassign_ms: Vec<f64>,
    /// Mean flush/invalidate component, ms.
    pub flush_ms: Vec<f64>,
    /// Mean execution component (incl. cold-structure slowdown), ms.
    pub exec_ms: Vec<f64>,
}

impl BreakdownFigure {
    /// Renders the stacked-bar data.
    pub fn to_table(&self) -> Table {
        let mut header = vec!["Figure 6 (ms/request)".to_string()];
        header.extend(self.services.iter().map(|s| s.to_string()));
        header.push("Avg".into());
        let mut t = Table::new(header);
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        for (label, vals) in [
            ("NoHarvest total", &self.no_harvest_ms),
            ("Harvest: CoreReassign", &self.reassign_ms),
            ("Harvest: Flush/Inval", &self.flush_ms),
            ("Harvest: Execution", &self.exec_ms),
        ] {
            let mut row = vals.clone();
            row.push(avg(vals));
            t.row_f64(label, &row);
        }
        let mut total: Vec<f64> = (0..self.services.len())
            .map(|i| self.reassign_ms[i] + self.flush_ms[i] + self.exec_ms[i])
            .collect();
        total.push(avg(&total));
        t.row_f64("Harvest total", &total);
        t
    }

    /// Average harvest-to-noharvest request-time ratio (paper: ≈1.9×).
    pub fn slowdown(&self) -> f64 {
        let n = self.services.len() as f64;
        let harvest: f64 = (0..self.services.len())
            .map(|i| self.reassign_ms[i] + self.flush_ms[i] + self.exec_ms[i])
            .sum::<f64>()
            / n;
        let base: f64 = self.no_harvest_ms.iter().sum::<f64>() / n;
        harvest / base
    }
}

/// Figure 17: Harvest-VM throughput normalized to NoHarvest, per batch job.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputFigure {
    /// Batch job names (one per server).
    pub jobs: Vec<&'static str>,
    /// Rows: (system label, per-job normalized throughput, geometric-ish
    /// mean).
    pub rows: Vec<(String, Vec<f64>, f64)>,
}

impl ThroughputFigure {
    /// Renders the figure.
    pub fn to_table(&self) -> Table {
        let mut header = vec!["Figure 17 (norm. throughput)".to_string()];
        header.extend(self.jobs.iter().map(|s| s.to_string()));
        header.push("Avg".into());
        let mut t = Table::new(header);
        for (label, vals, avg) in &self.rows {
            let mut row = vals.clone();
            row.push(*avg);
            t.row_f64(label, &row);
        }
        t
    }

    /// Average normalized throughput of a system.
    ///
    /// # Panics
    /// Panics if the label is absent.
    pub fn avg_of(&self, label: &str) -> f64 {
        self.rows
            .iter()
            .find(|(l, _, _)| l == label)
            .unwrap_or_else(|| panic!("row {label} missing"))
            .2
    }
}

/// Runs one closure per figure row on its own thread, so every row's
/// per-server jobs reach the executor's worker pool together. Rows come
/// back in input order regardless of completion order, keeping rendered
/// tables deterministic.
fn par_rows<I, F>(items: Vec<I>, run: F) -> Vec<(String, ClusterMetrics)>
where
    I: Send,
    F: Fn(I) -> (String, ClusterMetrics) + Sync,
{
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || run(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("figure row panicked"))
            .collect()
    })
}

/// The experiment runner: all figures at one [`Scale`].
#[derive(Debug, Clone, Copy)]
pub struct Experiments {
    /// Run size.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Executor that schedules and memoizes every cluster simulation.
    pub plan: &'static RunPlan,
}

impl Experiments {
    /// Quick-scale experiments (tests, smoke runs).
    pub fn quick() -> Self {
        Experiments {
            scale: Scale::quick(),
            seed: 0x15CA,
            plan: RunPlan::global(),
        }
    }

    /// Paper-scale experiments.
    pub fn paper() -> Self {
        Experiments {
            scale: Scale::paper(),
            ..Experiments::quick()
        }
    }

    /// The same experiments on a specific executor (isolated memo table /
    /// pinned worker count — see [`RunPlan::leaked`]).
    pub fn on_plan(self, plan: &'static RunPlan) -> Self {
        Experiments { plan, ..self }
    }

    /// Runs or recalls one cluster on this runner's executor.
    fn cluster(&self, system: SystemSpec) -> ClusterMetrics {
        self.plan.run_cluster(system, self.scale, self.seed)
    }

    fn latency_fig(
        &self,
        title: &str,
        metric: &'static str,
        systems: Vec<SystemSpec>,
        tweak: impl Fn(&mut ServerConfig) + Sync + Copy,
    ) -> LatencyFigure {
        let runs = par_rows(systems, |s| {
            (
                s.name.to_string(),
                self.plan.run_cluster_with(s, self.scale, self.seed, tweak),
            )
        });
        LatencyFigure::from_runs(title.into(), metric, runs)
    }

    /// Figure 2: utilization CDFs of a synthetic Alibaba-like population.
    pub fn fig2(&self) -> UtilizationCdf {
        let set = TraceSet::synthesize(4000, 100, self.seed);
        UtilizationCdf {
            avg: set.avg_cdf(),
            max: set.max_cdf(),
        }
    }

    /// Figure 3: the representative bursty utilization time series.
    pub fn fig3(&self) -> Vec<f64> {
        let set = TraceSet::synthesize(500, 17, self.seed); // ~500 s at 30 s grain
        set.representative().samples().to_vec()
    }

    /// Figure 4: tail latency under hypervisor reassignment overheads only
    /// (no flushing, idle Harvest VM).
    pub fn fig4(&self) -> LatencyFigure {
        use hh_server::{HarvestMode, SwReassign};
        let mk = |name: &'static str, mode, sw| {
            let mut s = match mode {
                HarvestMode::OnTermination => SystemSpec::harvest_term(),
                _ => SystemSpec::harvest_block(),
            };
            s.name = name;
            s.sw_reassign = sw;
            s.flush_enabled = false;
            s.harvest_busy = false;
            s.buffer_cores = 0;
            // KVM's 5 ms moves are necessarily rare (the paper observed
            // 11-36 per second): one core at a time through the agent.
            // The optimized path moves cores per idle/ready event, as the
            // characterization script does.
            s.max_loaned_per_vm = if matches!(sw, SwReassign::Kvm) { 1 } else { 4 };
            s
        };
        let systems = vec![
            SystemSpec::no_harvest_named("No-Move"),
            mk(
                "KVM-Term",
                hh_server::HarvestMode::OnTermination,
                SwReassign::Kvm,
            ),
            mk(
                "KVM-Block",
                hh_server::HarvestMode::OnBlock,
                SwReassign::Kvm,
            ),
            mk(
                "Opt-Term",
                hh_server::HarvestMode::OnTermination,
                SwReassign::Optimized,
            ),
            mk(
                "Opt-Block",
                hh_server::HarvestMode::OnBlock,
                SwReassign::Optimized,
            ),
        ];
        self.latency_fig("Figure 4", "P99", systems, |_| {})
    }

    /// Figure 5: tail latency under cache/TLB flushing (Flush-*) and
    /// flushing plus optimized reassignment (Harvest-*); Harvest VM idle.
    pub fn fig5(&self) -> LatencyFigure {
        let mk = |name: &'static str, block: bool, reassign: bool| {
            let mut s = if block {
                SystemSpec::harvest_block()
            } else {
                SystemSpec::harvest_term()
            };
            s.name = name;
            s.flush_enabled = true;
            s.reassign_enabled = reassign;
            s.harvest_busy = false;
            s.buffer_cores = 0;
            // Per-event moves with the optimized reassignment path.
            s.max_loaned_per_vm = 4;
            s
        };
        let systems = vec![
            SystemSpec::no_harvest_named("No Flush"),
            mk("Flush-Term", false, false),
            mk("Flush-Block", true, false),
            mk("Harvest-Term", false, true),
            mk("Harvest-Block", true, true),
        ];
        self.latency_fig("Figure 5", "P99", systems, |_| {})
    }

    /// Figure 6: single-request execution-time breakdown at light load,
    /// under the Section 3 characterization environment (per-event moves
    /// with optimized reassignment plus full flushing, like Figure 5's
    /// Harvest-Block).
    pub fn fig6(&self) -> BreakdownFigure {
        let scale = self.scale.light_load();
        let base = self
            .plan
            .run_cluster(SystemSpec::no_harvest(), scale, self.seed);
        let mut sys = SystemSpec::harvest_block();
        sys.harvest_busy = true;
        sys.buffer_cores = 0;
        sys.max_loaned_per_vm = 4;
        let harv = self.plan.run_cluster(sys, scale, self.seed);
        let services = service_names();
        let n = services.len();
        let mut fig = BreakdownFigure {
            services,
            no_harvest_ms: Vec::with_capacity(n),
            reassign_ms: Vec::with_capacity(n),
            flush_ms: Vec::with_capacity(n),
            exec_ms: Vec::with_capacity(n),
        };
        for s in 0..n {
            let collect = |m: &ClusterMetrics| {
                let mut exec = 0.0;
                let mut io = 0.0;
                let mut reassign = 0.0;
                let mut flush = 0.0;
                let mut done = 0u64;
                for srv in m.servers() {
                    let sm = &srv.services[s];
                    exec += sm.exec.as_ms();
                    io += sm.io.as_ms();
                    reassign += sm.reassign_wait.as_ms();
                    flush += sm.flush_wait.as_ms();
                    done += sm.completed;
                }
                let d = done.max(1) as f64;
                ((exec + io) / d, reassign / d, flush / d)
            };
            let (b_exec, _, _) = collect(&base);
            let (h_exec, h_re, h_fl) = collect(&harv);
            fig.no_harvest_ms.push(b_exec);
            fig.reassign_ms.push(h_re);
            fig.flush_ms.push(h_fl);
            fig.exec_ms.push(h_exec);
        }
        fig
    }

    /// Figure 7: tail latency with a fraction of the cache/TLB hierarchy
    /// (Inf / 100 % / 75 % / 50 % / 25 % of the ways).
    pub fn fig7(&self) -> LatencyFigure {
        let variants: [(&'static str, f64, bool); 5] = [
            ("Inf", 1.0, true),
            ("100%", 1.0, false),
            ("75%", 0.75, false),
            ("50%", 0.5, false),
            ("25%", 0.25, false),
        ];
        let runs = par_rows(variants.to_vec(), |(label, frac, inf)| {
            let m = self.plan.run_cluster_with(
                SystemSpec::no_harvest(),
                self.scale,
                self.seed,
                move |cfg| {
                    cfg.capacity_frac = frac;
                    cfg.infinite_cache = inf;
                },
            );
            (label.to_string(), m)
        });
        LatencyFigure::from_runs("Figure 7".into(), "P99", runs)
    }

    /// Figure 11: the headline P99 comparison of the five systems.
    pub fn fig11(&self) -> LatencyFigure {
        self.latency_fig("Figure 11", "P99", SystemSpec::evaluated_five(), |_| {})
    }

    /// Figure 12: the cumulative optimization ladder on Harvest-Block.
    pub fn fig12(&self) -> LatencyFigure {
        self.latency_fig("Figure 12", "P99", SystemSpec::fig12_ladder(), |_| {})
    }

    /// Figure 13: Sched/CtxtSw ablation.
    pub fn fig13(&self) -> LatencyFigure {
        self.latency_fig("Figure 13", "P99", SystemSpec::fig13_ablation(), |_| {})
    }

    /// Figure 14: L2 hit rate under LRU/RRIP/HardHarvest/Belady.
    pub fn fig14(&self) -> Vec<PolicyHitRates> {
        ReplacementLab::default().run()
    }

    /// Figure 15: the optimization ladder without core harvesting.
    pub fn fig15(&self) -> LatencyFigure {
        self.latency_fig("Figure 15", "P99", SystemSpec::fig15_ladder(), |_| {})
    }

    /// Figure 16: median latency of the five systems.
    pub fn fig16(&self) -> LatencyFigure {
        self.latency_fig("Figure 16", "Median", SystemSpec::evaluated_five(), |_| {})
    }

    /// Figure 17: Harvest-VM throughput normalized to NoHarvest.
    pub fn fig17(&self) -> ThroughputFigure {
        let systems = SystemSpec::evaluated_five();
        let jobs: Vec<&'static str> = hh_workload::BatchCatalog::paper()
            .iter()
            .map(|j| j.name)
            .take(self.scale.servers)
            .collect();
        let runs = par_rows(systems, |s| (s.name.to_string(), self.cluster(s)));
        let base = &runs[0].1;
        let rows = runs
            .iter()
            .map(|(name, m)| {
                let vals: Vec<f64> = (0..jobs.len())
                    .map(|i| {
                        let b = base.batch_throughput(i).max(1e-9);
                        m.batch_throughput(i) / b
                    })
                    .collect();
                let avg = vals.iter().sum::<f64>() / vals.len() as f64;
                (name.clone(), vals, avg)
            })
            .collect();
        ThroughputFigure { jobs, rows }
    }

    /// Section 6.7: average busy cores of the five systems.
    pub fn utilization(&self) -> Vec<(String, f64)> {
        par_rows(SystemSpec::evaluated_five(), |s| {
            (s.name.to_string(), self.cluster(s))
        })
        .into_iter()
        .map(|(name, m)| (name, m.avg_busy_cores()))
        .collect()
    }

    /// Section 6.8: storage/area/power accounting.
    pub fn storage(&self) -> StorageCost {
        StorageCost::paper()
    }

    /// Figure 18: LLC-size sensitivity of HardHarvest-Block.
    pub fn fig18(&self) -> LatencyFigure {
        let sizes = [
            ("2.5MB/core", 2_621_440usize),
            ("2MB/core", 2_097_152),
            ("1MB/core", 1_048_576),
            ("0.5MB/core", 524_288),
        ];
        let runs = par_rows(sizes.to_vec(), |(label, bytes)| {
            let m = self.plan.run_cluster_with(
                SystemSpec::hardharvest_block(),
                self.scale,
                self.seed,
                move |cfg| cfg.llc.per_core_bytes = bytes,
            );
            (label.to_string(), m)
        });
        LatencyFigure::from_runs("Figure 18".into(), "P99", runs)
    }

    /// Figure 19: eviction-candidate-set-size sensitivity.
    pub fn fig19(&self) -> LatencyFigure {
        let fracs = [("25%", 0.25), ("50%", 0.5), ("75%", 0.75), ("100%", 1.0)];
        let runs = par_rows(fracs.to_vec(), |(label, f)| {
            let m = self.plan.run_cluster_with(
                SystemSpec::hardharvest_block(),
                self.scale,
                self.seed,
                move |cfg| cfg.eviction_candidate_frac = Some(f),
            );
            (label.to_string(), m)
        });
        LatencyFigure::from_runs("Figure 19".into(), "P99", runs)
    }

    /// Extension (paper Section 4.1.5 future work): adaptive harvesting —
    /// steal on blocking calls only for VMs whose blocks are long. Compares
    /// P99 and normalized Harvest throughput of HH-Term / HH-Adaptive /
    /// HH-Block.
    pub fn adaptive(&self) -> Table {
        let base = self.cluster(SystemSpec::no_harvest());
        let base_thpt: f64 = (0..self.scale.servers)
            .map(|i| base.batch_throughput(i))
            .sum::<f64>()
            .max(1e-9);
        let mut t = Table::new(vec![
            "Adaptive harvesting (extension)".into(),
            "P99 [ms]".into(),
            "norm. batch thpt".into(),
            "reassignments".into(),
        ]);
        for s in [
            SystemSpec::hardharvest_term(),
            SystemSpec::hardharvest_adaptive(),
            SystemSpec::hardharvest_block(),
        ] {
            let m = self.cluster(s);
            let thpt: f64 = (0..self.scale.servers).map(|i| m.batch_throughput(i)).sum();
            let reassigns: u64 = m.servers().iter().map(|sv| sv.reassignments).sum();
            t.row(vec![
                s.name.into(),
                format!("{:.3}", m.pooled_latency_ms().p99()),
                format!("{:.3}", thpt / base_thpt),
                reassigns.to_string(),
            ]);
        }
        t
    }

    /// Ablation (Section 4.2.1 design choice): size of the harvest region
    /// — 1/3, 1/2 or 2/3 of the ways of every private structure.
    pub fn region_sweep(&self) -> LatencyFigure {
        let fracs = [
            ("1/3 ways", 1.0 / 3.0),
            ("1/2 ways", 0.5),
            ("2/3 ways", 2.0 / 3.0),
        ];
        let runs = par_rows(fracs.to_vec(), |(label, f)| {
            let m = self.plan.run_cluster_with(
                SystemSpec::hardharvest_block(),
                self.scale,
                self.seed,
                move |cfg| cfg.harvest_frac = f,
            );
            (label.to_string(), m)
        });
        LatencyFigure::from_runs("Harvest-region sweep (extension)".into(), "P99", runs)
    }

    /// Ablation (Section 4.1.7 design choice): RQ sized down to force
    /// overflow into the in-memory subqueues.
    pub fn overflow_pressure(&self) -> Table {
        let mut t = Table::new(vec![
            "RQ chunks".into(),
            "P99 [ms]".into(),
            "overflowed requests".into(),
        ]);
        for chunks in [32usize, 16, 9] {
            let m = self.plan.run_cluster_with(
                SystemSpec::hardharvest_block(),
                self.scale,
                self.seed,
                move |cfg| cfg.rq_chunks = chunks,
            );
            let overflows: u64 = m.servers().iter().map(|s| s.queue_overflows).sum();
            t.row(vec![
                chunks.to_string(),
                format!("{:.3}", m.pooled_latency_ms().p99()),
                overflows.to_string(),
            ]);
        }
        t
    }

    /// Ablation (model fidelity): flat-latency memory model vs explicit
    /// MSHR modeling (Table 1: 32 MSHRs) at two MSHR depths.
    pub fn mshr_sweep(&self) -> LatencyFigure {
        let variants: [(&'static str, Option<usize>); 3] = [
            ("no-MSHR model", None),
            ("32 MSHRs", Some(32)),
            ("8 MSHRs", Some(8)),
        ];
        let runs = par_rows(variants.to_vec(), |(label, mshrs)| {
            let m = self.plan.run_cluster_with(
                SystemSpec::hardharvest_block(),
                self.scale,
                self.seed,
                move |cfg| cfg.hierarchy.mshrs = mshrs,
            );
            (label.to_string(), m)
        });
        LatencyFigure::from_runs("MSHR-model sweep (extension)".into(), "P99", runs)
    }

    /// Table 1: the modeled architectural parameters.
    pub fn table1(&self) -> Table {
        let cfg = ServerConfig::table1(SystemSpec::hardharvest_block());
        let mut t = Table::new(vec!["Parameter".into(), "Value".into()]);
        let rows: Vec<(&str, String)> = vec![
            ("Servers", "8".into()),
            ("Cores/server", cfg.cores.to_string()),
            ("Clock", "3 GHz".into()),
            ("L1D", "48KB 12-way, 5cyc RT".into()),
            ("L1I", "32KB 8-way, 5cyc RT".into()),
            ("L2", "512KB 8-way, 13cyc RT".into()),
            ("L3/core", "2MB 16-way, 36cyc RT".into()),
            ("L1 TLB", "128e 4-way, 2cyc RT".into()),
            ("L2 TLB", "2048e 8-way, 12cyc RT".into()),
            ("Intra-server NoC", "2D mesh, 5cyc/hop".into()),
            ("Inter-server", "1us RT, 200GB/s".into()),
            (
                "Primary VMs",
                format!("{} x {} cores", cfg.primary_vms, cfg.cores_per_primary),
            ),
            (
                "Harvest VMs",
                format!("1 x {} cores + harvested", cfg.cores - cfg.primary_cores()),
            ),
            ("RQ", "32 chunks x 64 entries".into()),
            ("Queue Managers", "16".into()),
            ("VM State Regs", "16 x 8B".into()),
            (
                "Harvest region",
                format!("{:.0}% of ways", cfg.harvest_frac * 100.0),
            ),
            ("Eviction candidates", "75% of ways".into()),
            ("Flush+Inv HarvRegion", "1000 cycles".into()),
        ];
        for (k, v) in rows {
            t.row(vec![k.to_string(), v]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiments {
        Experiments {
            scale: Scale {
                servers: 1,
                requests_per_vm: 50,
                rps_per_vm: 800.0,
            },
            seed: 0xE,
            plan: RunPlan::global(),
        }
    }

    #[test]
    fn fig2_matches_published_anchors() {
        let cdf = tiny().fig2();
        assert!((cdf.avg_quantile(0.5) - 0.161).abs() < 0.03);
        assert!((cdf.max_quantile(0.9) - 0.407).abs() < 0.08);
        assert!(!cdf.to_table().is_empty());
    }

    #[test]
    fn fig3_is_a_bursty_series() {
        let series = tiny().fig3();
        assert_eq!(series.len(), 17);
        let avg: f64 = series.iter().sum::<f64>() / series.len() as f64;
        let max = series.iter().copied().fold(0.0, f64::max);
        assert!(max > avg);
    }

    #[test]
    fn table1_renders() {
        let t = tiny().table1();
        let s = t.render();
        assert!(s.contains("3 GHz"));
        assert!(s.contains("32 chunks"));
    }

    #[test]
    fn storage_is_paper_config() {
        let s = tiny().storage();
        assert_eq!(s.controller_bytes(), 19_408);
    }

    #[test]
    fn fig11_and_fig16_share_their_simulations() {
        // P99 (fig11) and Median (fig16) read different quantiles of the
        // same five runs: together they must simulate exactly five
        // clusters, with the whole second figure served from the memo.
        let ex = tiny().on_plan(RunPlan::leaked(2));
        assert_eq!(ex.fig11().rows.len(), 5);
        assert_eq!(ex.fig16().rows.len(), 5);
        assert_eq!(ex.plan.sims_run(), 5);
        assert!(ex.plan.memo_hits() >= 5);
    }

    #[test]
    fn fig11_smoke_run_orders_systems() {
        let fig = tiny().fig11();
        assert_eq!(fig.rows.len(), 5);
        let no = fig.avg_of("NoHarvest");
        let sw = fig.avg_of("Harvest-Block");
        let hh = fig.avg_of("HardHarvest-Block");
        assert!(
            sw > no,
            "software harvesting should hurt tails: {sw} vs {no}"
        );
        assert!(
            hh < sw,
            "hardware harvesting should beat software: {hh} vs {sw}"
        );
        assert!(!fig.to_table().is_empty());
    }
}
