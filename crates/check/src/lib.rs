//! # hh-check — differential oracle and invariant suite
//!
//! The reproduction's hot paths are deliberately clever: the set-block
//! [`hh_mem::SetAssocCache`] with packed stamp/metadata words and per-set
//! valid bitmasks, the selection-based percentile estimator in
//! [`hh_sim::stats::Samples`], and the memoizing parallel executor in
//! [`hh_core::RunPlan`]. This crate
//! keeps them honest with three tools:
//!
//! * **Reference models** ([`RefCache`], [`RefSamples`],
//!   [`run_cluster_serial`]) — naive, obviously-correct implementations of
//!   the same contracts: an array-of-structs cache transcribing
//!   Algorithm 1 line by line, a sort-everything percentile estimator, and
//!   a serial memo-free cluster executor;
//! * **Differential drivers** ([`diff_cache`], [`diff_samples`],
//!   [`diff_cluster`]) — lockstep replay of recorded or generated
//!   operation traces through both implementations, stopping at the first
//!   divergence and reporting *where* (operation index, set, way states)
//!   rather than merely *that* the runs disagreed;
//! * **Invariants** ([`CachePartition`], [`PercentileMonotone`],
//!   [`SubqueueFifo`], [`ChunkConservation`], [`BeladyUpperBound`]) —
//!   structural rules packaged as [`hh_sim::Invariant`] implementations,
//!   shared by the proptest suites, the `hh-check` binary and unit tests.
//!
//! The `hh-check` binary sweeps all of it — cache traces across
//! geometries, policies and harvest-mask schedules; sample-set edge cases;
//! memo-table identity probes; pooled-vs-serial executor comparisons at
//! several worker counts — and exits non-zero on the first divergence.
//! Run it with `cargo run --release -p hh-check`.
//!
//! By policy (see `DESIGN.md` §10), any PR that optimizes a hot path must
//! leave this suite green; a seeded mutation in the optimized code is
//! expected to produce a pinpointed divergence here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod invariants;
pub mod refcache;
pub mod refexec;
pub mod refsamples;

pub use diff::{diff_cache, diff_samples, Divergence, SampleOp};
pub use invariants::{
    BeladyUpperBound, CachePartition, ChunkConservation, PercentileMonotone, SubqueueFifo, TraceRun,
};
pub use refcache::RefCache;
pub use refexec::{diff_cluster, run_cluster_serial};
pub use refsamples::RefSamples;
