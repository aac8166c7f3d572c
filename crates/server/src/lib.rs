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
//!
//! The hierarchy walks dominate a simulation's host time, and most of a
//! walk is its private pass, which touches only its core's private
//! hierarchy. [`ServerSim::run`] queues each walk as a job and, while the
//! host has a core no other simulation uses, lets one scoped helper
//! thread run the private passes of walks on other cores while the event
//! loop goes on; the shared LLC sees every walk's misses in issue order.
//! The event loop completes each walk, timing pass included, in issue
//! order before any event that could depend on it, so results are
//! identical with or without the helper (DESIGN.md §9).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod metrics;
mod sim;
mod walks;

pub use config::{HarvestMode, OptFlags, ServerConfig, SwReassign, SystemSpec};
pub use metrics::{ServerMetrics, ServiceMetrics};
pub use sim::ServerSim;
