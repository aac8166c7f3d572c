//! Executor spans: wall-clock instrumentation for the `RunPlan` memoizing
//! worker pool (`exec.*` namespace).
//!
//! Unlike the per-session sim tracers — which record *simulated* time and
//! are owned by one `ServerSim` — executor spans measure *host* wall time
//! across threads, so they live in process-global state. They are exported
//! as a separate Perfetto process so host time never mixes with sim time.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};
#[expect(
    clippy::disallowed_types,
    reason = "the exec collector is the one sanctioned host-time consumer"
)]
use std::time::Instant;

/// One executor work item (a memo-table cell or a per-server sim job).
#[derive(Debug, Clone)]
pub struct ExecSpan {
    /// Short label, e.g. the system name of the cluster config.
    pub label: String,
    /// Start, µs since the process-wide trace epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// True when the memo table satisfied the run without simulating.
    pub memo_hit: bool,
}

/// Everything the executor recorded, drained by [`take`].
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// All completed spans, in completion order.
    pub spans: Vec<ExecSpan>,
    /// `(wall µs, busy workers)` samples taken at every occupancy change.
    pub occupancy: Vec<(f64, i64)>,
}

impl ExecTrace {
    /// Number of memo hits among the recorded spans.
    pub fn memo_hits(&self) -> usize {
        self.spans.iter().filter(|s| s.memo_hit).count()
    }

    /// Peak concurrent workers observed.
    pub fn peak_workers(&self) -> i64 {
        self.occupancy.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the exec collector is the one sanctioned host-time consumer: it measures \
              executor spans for the Perfetto timeline and never feeds simulated time"
)]
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<ExecSpan>> = Mutex::new(Vec::new());
static OCCUPANCY: Mutex<Vec<(f64, i64)>> = Mutex::new(Vec::new());
static ACTIVE: AtomicI64 = AtomicI64::new(0);

/// Microseconds elapsed since the first call in this process.
#[expect(
    clippy::disallowed_types,
    reason = "executor-span timing is host time by definition; sim time flows through Cycles, never this"
)]
pub fn wall_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Records a completed executor span ending now.
pub fn record_span(label: impl Into<String>, start_us: f64, memo_hit: bool) {
    let span = ExecSpan {
        label: label.into(),
        start_us,
        dur_us: (wall_us() - start_us).max(0.0),
        memo_hit,
    };
    SPANS.lock().unwrap().push(span);
}

/// Marks one worker as busy and samples the occupancy gauge.
pub fn worker_begin() {
    let n = ACTIVE.fetch_add(1, Ordering::SeqCst) + 1;
    OCCUPANCY.lock().unwrap().push((wall_us(), n));
}

/// Marks one worker as idle again and samples the occupancy gauge.
pub fn worker_end() {
    let n = ACTIVE.fetch_sub(1, Ordering::SeqCst) - 1;
    OCCUPANCY.lock().unwrap().push((wall_us(), n));
}

/// Drains everything recorded so far.
pub fn take() -> ExecTrace {
    ExecTrace {
        spans: std::mem::take(&mut *SPANS.lock().unwrap()),
        occupancy: std::mem::take(&mut *OCCUPANCY.lock().unwrap()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_occupancy_round_trip() {
        // Drain anything left over from other tests in this process.
        let _ = take();
        let t0 = wall_us();
        worker_begin();
        record_span("unit-test", t0, false);
        record_span("unit-test-hit", wall_us(), true);
        worker_end();
        let tr = take();
        assert!(tr.spans.iter().any(|s| s.label == "unit-test"));
        assert_eq!(tr.memo_hits(), 1);
        assert!(tr.peak_workers() >= 1);
        assert!(tr.spans.iter().all(|s| s.dur_us >= 0.0));
        // Drained: a second take is empty of our spans.
        assert!(take().spans.is_empty());
    }
}
