//! Discrete-event simulation substrate for the HardHarvest reproduction.
//!
//! This crate provides the building blocks shared by every other crate in the
//! workspace:
//!
//! * [`Cycles`] — the simulation clock (one tick per processor cycle at the
//!   paper's 3 GHz, Table 1), with conversions to and from wall-clock time;
//! * [`EventQueue`] — a stable, deterministic pending-event set;
//! * [`Rng64`] — a small, fully deterministic PRNG plus the distribution
//!   helpers the workload models need (exponential, lognormal, Zipf, …);
//! * [`stats`] — streaming histograms, exact percentile sets, time-weighted
//!   utilization accumulators;
//! * [`invariant`] — named invariant checks shared by the proptest suites,
//!   the `hh-check` differential oracle and `ServerSim`'s debug hook.
//!
//! Everything here is deliberately dependency-free and deterministic: two runs
//! with the same seed produce bit-identical results, which the integration
//! test-suite relies on.
//!
//! # Example
//!
//! ```
//! use hh_sim::{Cycles, EventQueue};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Tock }
//!
//! let mut q = EventQueue::new();
//! q.push(Cycles::from_us(2.0), Ev::Tock);
//! q.push(Cycles::from_us(1.0), Ev::Tick);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::Tick);
//! assert_eq!(t, Cycles::from_us(1.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dist;
mod event;
pub mod ids;
pub mod invariant;
mod rng;
pub mod stats;
mod time;

pub use dist::{Exponential, LogNormal, Pareto, Zipf};
pub use event::{EventQueue, Reserved};
pub use ids::{CoreId, ServerId, VmId};
pub use invariant::{Invariant, InvariantSet, InvariantViolation};
pub use rng::Rng64;
pub use time::{Cycles, CLOCK_GHZ};
