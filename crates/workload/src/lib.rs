//! Workload models for the HardHarvest reproduction.
//!
//! The paper evaluates 8 latency-critical SocialNet microservices from
//! DeathStarBench in Primary VMs, driven at Alibaba-trace-derived request
//! rates (modeled here as bursty open-loop arrivals), with 8 batch
//! applications (GraphBIG, FunctionBench, CloudSuite, BioBench) in Harvest
//! VMs. This crate provides:
//!
//! * [`ServiceProfile`] / [`ServiceCatalog`] — parameterized models of the
//!   8 microservices (execution phases, blocking I/O calls, backend
//!   latencies, shared/private memory footprints);
//! * [`RequestPlan`] — one concrete invocation: compute phases separated by
//!   blocking RPCs, each phase owning a deterministic synthetic address
//!   stream ([`PhaseStream`]);
//! * [`BatchJob`] / [`BatchCatalog`] — the 8 Harvest-VM batch applications
//!   with distinct memory intensities;
//! * [`trace`] — the synthetic Alibaba-like utilization-trace generator
//!   behind Figures 2 and 3;
//! * [`LoadGen`] — the open-loop (client-independent) arrival generator, a
//!   two-state Markov-modulated Poisson process.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod loadgen;
pub mod record;
mod request;
mod service;
mod stream;
pub mod trace;

pub use batch::{BatchCatalog, BatchJob};
pub use loadgen::LoadGen;
pub use record::OpTrace;
pub use request::{Phase, RequestPlan};
pub use service::{CatalogKind, ServiceCatalog, ServiceId, ServiceProfile};
pub use stream::{PhaseStream, StreamSpec};
