//! Memory-hierarchy simulator for the HardHarvest reproduction.
//!
//! This crate models everything Section 4.2 of the paper touches:
//!
//! * [`SetAssocCache`] — a set-associative cache or TLB with per-way
//!   *Harvest* / *Non-Harvest* partitioning ([`WayMask`]), a per-entry
//!   `Shared` bit, and pluggable replacement ([`PolicyKind`]): vanilla LRU,
//!   SRRIP, and the paper's Algorithm 1 with its eviction-candidate window;
//! * [`BeladyCache`] — an offline optimal-replacement simulator used as the
//!   upper bound in the Figure 14 policy study;
//! * [`CoreMem`] — a core's private L1I/L1D/L2 caches and L1/L2 TLBs wired to
//!   a CAT-partitioned shared LLC ([`Llc`]) and a banked DRAM model
//!   ([`Dram`]), producing per-access stall-cycle costs. A stream's walk
//!   splits into a state pass (the private pass
//!   [`CoreMem::walk_private`], then the LLC pass [`WalkTrace::walk_llc`])
//!   and a timing pass ([`CoreMem::walk_timing`]) through the MSHRs and
//!   DRAM, so walks of different cores can run their private passes apart;
//! * [`flush`] — the latencies of software `wbinvd`-style flushes and
//!   HardHarvest's 1000-cycle in-hardware harvest-region flush.
//!
//! The access-by-access fidelity is what makes cold-restart costs, partition
//! contention, and replacement-policy hit rates emerge organically in the
//! system simulation instead of being injected as constants.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod belady;
mod cache;
mod config;
mod dram;
pub mod flush;
mod hierarchy;
mod policy;
mod waymask;

pub use access::{Access, AccessKind, PageClass};
pub use belady::BeladyCache;
pub use cache::{AccessOutcome, CacheOp, CacheStats, SetAssocCache, WayState};
pub use config::{CacheConfig, HierarchyConfig, LlcConfig, TlbConfig, LLC_HIT_CYCLES};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{AccessCost, CoreMem, FlushStats, Llc, VisSplit, Visibility, WalkTrace};
pub use policy::PolicyKind;
pub use waymask::WayMask;
