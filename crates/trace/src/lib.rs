//! # hh-trace — structured tracing for the HardHarvest simulator
//!
//! Three layers, all designed so that tracing can never perturb the
//! simulation itself (see DESIGN.md §11):
//!
//! * **Event tracer** — each `ServerSim` owns one [`TraceSession`] holding a
//!   bounded [`EventRing`] of typed [`TraceEvent`]s. Events carry simulated
//!   time; recording never draws randomness, never reorders the event
//!   queue, and the ring is bounded so memory stays flat.
//! * **Metric registry** — per-session [`Registry`] of monotonic counters,
//!   time-weighted gauges (reusing [`hh_sim::stats::TimeWeighted`]) and
//!   log-bucketed histograms, namespaced `server.*` / `hwqueue.*` /
//!   `mem.*` / `exec.*`.
//! * **Exporters** — Chrome/Perfetto `trace_event` JSON, a JSONL metrics
//!   snapshot, and a human summary table ([`export`]), plus host-wall-time
//!   executor spans for the `RunPlan` worker pool ([`exec`]).
//!
//! ## Cost model
//!
//! With the `trace` cargo feature off, [`COMPILED`] is `false` and every
//! `trace_*!` macro expands to `if false { .. }` — dead code the optimizer
//! deletes. With the feature on (the default) but tracing not enabled at
//! runtime, each instrumented simulator holds `trace: None` and a call
//! site costs exactly one branch. Runtime enablement is process-global:
//! set `HH_TRACE=<path>` (see [`init_from_env`]) or call [`set_enabled`].
//!
//! ## Determinism
//!
//! The tracer only *observes*: it reads `self.now` and sim state, never
//! the RNG, and sessions are collected at the end of a run. `hh-check`
//! and the figure tables are byte-identical with tracing on and off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod exec;
pub mod export;
pub mod json;
pub mod registry;
pub mod ring;

pub use event::{FlushScope, ReassignKind, TraceEvent, NO_INDEX};
pub use export::{validate_perfetto, ValidationReport};
pub use registry::Registry;
pub use ring::EventRing;

use hh_sim::Cycles;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// True when the crate was built with the `trace` feature. Referenced as
/// `$crate::COMPILED` inside the macros so the check is resolved against
/// *this* crate's features, not the caller's.
pub const COMPILED: bool = cfg!(feature = "trace");

/// Default per-session ring capacity (overridable via `HH_TRACE_CAP`).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when tracing is compiled in *and* enabled at runtime.
#[inline]
pub fn enabled() -> bool {
    COMPILED && ENABLED.load(Ordering::Relaxed)
}

/// Turns runtime tracing on or off (no-op without the `trace` feature).
pub fn set_enabled(on: bool) {
    ENABLED.store(on && COMPILED, Ordering::Relaxed);
}

/// Reads `HH_TRACE`. When set (to an output path), enables tracing and
/// returns the path; unset or empty leaves tracing off.
pub fn init_from_env() -> Option<String> {
    let path = std::env::var("HH_TRACE").ok()?;
    if path.is_empty() {
        return None;
    }
    set_enabled(true);
    Some(path)
}

fn ring_capacity_from_env() -> usize {
    std::env::var("HH_TRACE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_RING_CAPACITY)
}

/// One simulator's trace: a bounded event ring plus a metric registry.
///
/// Owned by the instrumented component (e.g. `ServerSim`) as an
/// `Option<Box<TraceSession>>`; `None` means tracing is off and every
/// instrumentation site reduces to one branch.
#[derive(Debug)]
pub struct TraceSession {
    label: String,
    ring: EventRing<TraceEvent>,
    registry: Registry,
    summary_json: Option<String>,
}

impl TraceSession {
    /// Creates a session labeled `label` (shown as the Perfetto process
    /// name) with the ring capacity from `HH_TRACE_CAP` or the default.
    pub fn new(label: impl Into<String>) -> Self {
        TraceSession::with_capacity(label, ring_capacity_from_env())
    }

    /// Creates a session with an explicit ring capacity.
    pub fn with_capacity(label: impl Into<String>, cap: usize) -> Self {
        TraceSession {
            label: label.into(),
            ring: EventRing::new(cap),
            registry: Registry::new(),
            summary_json: None,
        }
    }

    /// Records one event.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.ring.push(ev);
    }

    /// Adds to a monotonic counter.
    #[inline]
    pub fn count(&mut self, name: &str, add: u64) {
        self.registry.counter_add(name, add);
    }

    /// Sets a time-weighted gauge and records a [`TraceEvent::GaugeSample`]
    /// so the value renders as a Perfetto counter track.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, index: u32, now: Cycles, value: f64) {
        if index == NO_INDEX {
            self.registry.gauge_set(name, now, value);
        } else {
            self.registry.gauge_set(&format!("{name}.{index}"), now, value);
        }
        self.ring.push(TraceEvent::GaugeSample { t: now, name, index, value });
    }

    /// Records into a log-bucketed histogram.
    #[inline]
    pub fn hist(&mut self, name: &str, value: f64) {
        self.registry.hist_record(name, value);
    }

    /// Attaches a pre-rendered JSON metrics summary (embedded verbatim in
    /// the JSONL export).
    pub fn set_summary_json(&mut self, json: String) {
        self.summary_json = Some(json);
    }

    /// Read access to the metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The session label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Events currently held (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Seals the session at simulated time `end`.
    pub fn finish(self, end: Cycles) -> FinishedSession {
        FinishedSession {
            label: self.label,
            end,
            dropped: self.ring.dropped(),
            events: self.ring.into_vec(),
            registry: self.registry,
            summary_json: self.summary_json,
        }
    }
}

/// A sealed [`TraceSession`], ready for export.
#[derive(Debug)]
pub struct FinishedSession {
    /// Session label (Perfetto process name).
    pub label: String,
    /// Simulated end time.
    pub end: Cycles,
    /// Recorded events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the bounded ring.
    pub dropped: u64,
    /// The session's metric registry.
    pub registry: Registry,
    /// Optional pre-rendered metrics summary JSON.
    pub summary_json: Option<String>,
}

static SESSIONS: Mutex<Vec<FinishedSession>> = Mutex::new(Vec::new());

/// Submits a finished session to the process-global collector.
pub fn submit(session: FinishedSession) {
    SESSIONS.lock().unwrap().push(session);
}

/// Drains all collected sessions, sorted by label.
///
/// Worker threads submit in nondeterministic order; sorting here makes
/// every export deterministic for a given set of runs.
pub fn take_sessions() -> Vec<FinishedSession> {
    let mut v = std::mem::take(&mut *SESSIONS.lock().unwrap());
    v.sort_by(|a, b| a.label.cmp(&b.label));
    v
}

/// Records a [`TraceEvent`] into an `Option<Box<TraceSession>>`-shaped
/// slot. Free with the `trace` feature off; one branch when the slot is
/// `None`. The event expression is only evaluated when recording.
#[macro_export]
macro_rules! trace_event {
    ($slot:expr, $ev:expr) => {
        if $crate::COMPILED {
            if let Some(__s) = ($slot).as_mut() {
                __s.record($ev);
            }
        }
    };
}

/// Adds to a session counter through an optional slot (see [`trace_event!`]).
#[macro_export]
macro_rules! trace_count {
    ($slot:expr, $name:expr, $add:expr) => {
        if $crate::COMPILED {
            if let Some(__s) = ($slot).as_mut() {
                __s.count($name, $add);
            }
        }
    };
}

/// Sets a session gauge through an optional slot (see [`trace_event!`]).
/// `$index` is a per-VM/core discriminator or [`NO_INDEX`].
#[macro_export]
macro_rules! trace_gauge {
    ($slot:expr, $name:expr, $index:expr, $now:expr, $value:expr) => {
        if $crate::COMPILED {
            if let Some(__s) = ($slot).as_mut() {
                __s.gauge($name, $index, $now, $value);
            }
        }
    };
}

/// Records into a session histogram through an optional slot
/// (see [`trace_event!`]).
#[macro_export]
macro_rules! trace_hist {
    ($slot:expr, $name:expr, $value:expr) => {
        if $crate::COMPILED {
            if let Some(__s) = ($slot).as_mut() {
                __s.hist($name, $value);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_are_inert_on_none() {
        let mut slot: Option<Box<TraceSession>> = None;
        // Must compile and do nothing; the payload expression is lazy, so
        // a diverging expression inside is fine when the slot is None.
        trace_count!(slot, "server.x", 1);
        trace_event!(
            slot,
            TraceEvent::RequestArrival { t: Cycles::new(1), vm: 0, token: 0 }
        );
        trace_gauge!(slot, "server.g", NO_INDEX, Cycles::new(1), 1.0);
        trace_hist!(slot, "server.h", 1.0);
        assert!(slot.is_none());
    }

    #[test]
    fn macros_record_through_some() {
        let mut slot = Some(Box::new(TraceSession::with_capacity("t", 16)));
        trace_count!(slot, "server.x", 2);
        trace_count!(slot, "server.x", 3);
        trace_event!(
            slot,
            TraceEvent::RequestArrival { t: Cycles::new(5), vm: 1, token: 9 }
        );
        trace_gauge!(slot, "server.busy", NO_INDEX, Cycles::new(5), 2.0);
        trace_hist!(slot, "server.lat", 0.5);
        let s = slot.unwrap();
        assert_eq!(s.registry().counter("server.x"), 5);
        assert_eq!(s.events().count(), 2, "arrival + gauge sample");
        let fin = s.finish(Cycles::new(100));
        assert_eq!(fin.events.len(), 2);
        assert_eq!(fin.dropped, 0);
        assert!(fin.registry.hist("server.lat").is_some());
    }

    #[test]
    fn indexed_gauges_get_suffixed_registry_names() {
        let mut s = TraceSession::with_capacity("t", 16);
        s.gauge("hwqueue.ready_depth", 3, Cycles::new(10), 7.0);
        assert!(s.registry().gauge("hwqueue.ready_depth.3").is_some());
        assert!(s.registry().gauge("hwqueue.ready_depth").is_none());
    }

    #[test]
    fn enabled_requires_compiled_and_runtime_flag() {
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert_eq!(enabled(), COMPILED);
        set_enabled(false);
    }

    #[test]
    fn collector_sorts_by_label() {
        // The collector is process-global; drain first in case another
        // test left sessions behind.
        let _ = take_sessions();
        submit(TraceSession::with_capacity("b", 4).finish(Cycles::new(1)));
        submit(TraceSession::with_capacity("a", 4).finish(Cycles::new(1)));
        let got = take_sessions();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].label, "a");
        assert_eq!(got[1].label, "b");
        assert!(take_sessions().is_empty(), "draining empties the collector");
    }
}
