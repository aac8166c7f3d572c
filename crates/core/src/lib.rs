//! # hh-core — HardHarvest reproduction, public API
//!
//! This crate ties the whole reproduction together and is what the
//! examples, integration tests and benchmark harness consume:
//!
//! * [`run_cluster`] / [`run_cluster_with`] — simulate the paper's
//!   8-server cluster (one batch job per server) under any
//!   [`SystemSpec`]: `NoHarvest`, SmartHarvest-style software harvesting
//!   (`Harvest-Term`/`-Block`), or `HardHarvest-Term`/`-Block`, plus every
//!   ablation of Figures 12/13/15;
//! * [`Experiments`] — one method per table and figure in the paper's
//!   evaluation (see `DESIGN.md` for the index), returning typed rows that
//!   render via [`Table`];
//! * [`ReplacementLab`] — the offline Figure 14 policy study
//!   (LRU/RRIP/HardHarvest/Belady L2 hit rates);
//! * [`RunPlan`] — the memoizing bounded-pool executor every cluster run
//!   goes through (worker count: `HH_WORKERS`, default
//!   `available_parallelism`; repeated identical runs simulate once).
//!
//! ## Quickstart
//!
//! ```no_run
//! use hh_core::{run_cluster, Scale, SystemSpec};
//!
//! let m = run_cluster(SystemSpec::hardharvest_block(), Scale::quick(), 42);
//! println!("P99 = {:.2} ms", m.pooled_latency_ms().p99());
//! println!("utilization = {:.1} cores", m.avg_busy_cores());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod experiments;
mod lab;
mod report;
mod runplan;

pub use cluster::{run_cluster, run_cluster_with, ClusterMetrics, Scale};
pub use experiments::{
    BreakdownFigure, Experiments, LatencyFigure, LatencyRow, ThroughputFigure, UtilizationCdf,
};
pub use lab::{PolicyHitRates, ReplacementLab};
pub use report::Table;
pub use runplan::{resolved_configs, MemoTable, RunPlan};

// Re-export the layers a downstream user typically needs alongside the
// top-level API.
pub use hh_server::{HarvestMode, OptFlags, ServerConfig, ServerMetrics, ServerSim, SystemSpec};
