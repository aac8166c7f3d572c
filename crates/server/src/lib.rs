//! Full-system server simulator for the HardHarvest reproduction.
//!
//! [`ServerSim`] models one Table 1 server — 36 cores, 8 four-core Primary
//! VMs running DeathStarBench-like microservices, one Harvest VM running a
//! batch job — under any of the evaluated systems ([`SystemSpec`]):
//! `NoHarvest`, software harvesting (`Harvest-Term`/`-Block`, SmartHarvest
//! style with an emergency buffer and an agent tick), and hardware
//! harvesting (`HardHarvest-Term`/`-Block`), plus every cumulative ablation
//! of Figures 12, 13 and 15.
//!
//! Cache, TLB, flush and cold-restart effects come from the access-level
//! [`hh_mem`] hierarchy simulation; queueing and notification from the
//! [`hh_hwqueue`] controller; reassignment and context-switch latencies
//! from paper-calibrated constants (Sections 3 and 4.1.1).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod metrics;
mod sim;

pub use config::{HarvestMode, OptFlags, ServerConfig, SwReassign, SystemSpec};
pub use metrics::{ServerMetrics, ServiceMetrics};
pub use sim::ServerSim;
