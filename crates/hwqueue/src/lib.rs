//! The HardHarvest hardware controller (paper Section 4.1).
//!
//! A processor chip carries one centralized controller holding:
//!
//! * a single physical **Request Queue (RQ)** of 32 chunks × 64 entries,
//!   dynamically divided into per-VM logical *subqueues* whose chunks are
//!   tracked by per-VM **RQ-Maps**;
//! * one **Queue Manager (QM)** per VM, which enqueues arriving requests,
//!   hands requests to spinning cores, tracks blocked-on-I/O requests, and
//!   knows which of a Primary VM's bound cores are *on loan* to the Harvest
//!   VM;
//! * a software **In-memory Overflow Subqueue** per VM for requests that do
//!   not fit in the hardware chunks.
//!
//! [`Controller`] owns the chunk pool and the QMs and implements the
//! donation protocol of Section 4.1.2; [`storage`] reproduces the
//! Section 6.8 cost accounting.
//!
//! The paper's controller also holds a **VM State Register Set** (VMCS
//! pointer, CR0/3/4, GDTR, …) and a **HarvestMask** register per VM. Their
//! values carry no simulated behaviour — the hardware context-switch cost is
//! a latency in hh-server, and the harvest ways are hh-mem's `WayMask` — so
//! this crate models them only as the byte counts in [`storage`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod manager;
mod rqmap;
pub mod storage;
mod subqueue;

pub use controller::{Controller, ControllerConfig};
pub use manager::{QueueManager, VmKind};
pub use rqmap::{ChunkId, ChunkPool, RqMap};
pub use subqueue::{DequeueSource, EnqueueOutcome, Subqueue};
