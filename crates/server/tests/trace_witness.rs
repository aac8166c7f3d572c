//! Every state transition the simulation counts is witnessed by exactly one
//! trace event: core reassignments, cache flushes and request enqueues.
//!
//! The counters come from the simulation's own bookkeeping (hh-server
//! metrics, hh-mem flush stats, hh-hwqueue subqueue totals), which the
//! session registry harvests at the end of a run; the events come from the
//! instrumentation at each transition site. A transition that stops
//! emitting its event makes the two disagree. The same sessions must also
//! export as well-formed Perfetto `trace_event` JSON.
//!
//! Kept as its own test binary because tracing is a process-global switch.

use hh_server::{ServerConfig, ServerSim, SystemSpec};
use hh_trace::export::{perfetto_json, validate_perfetto};
use hh_trace::{ReassignKind, TraceEvent};

fn count(events: &[TraceEvent], pred: impl Fn(&TraceEvent) -> bool) -> u64 {
    events.iter().filter(|e| pred(e)).count() as u64
}

fn reassigns(events: &[TraceEvent], kinds: &[ReassignKind]) -> u64 {
    count(
        events,
        |e| matches!(e, TraceEvent::Reassign { kind, .. } if kinds.contains(kind)),
    )
}

#[test]
fn every_counted_transition_emits_its_event() {
    hh_trace::set_enabled(true);
    let systems = [SystemSpec::hardharvest_block(), SystemSpec::harvest_block()];
    for system in systems {
        ServerSim::new(ServerConfig::small(system)).run();
    }
    let sessions = hh_trace::take_sessions();
    assert_eq!(sessions.len(), systems.len());
    let shape = validate_perfetto(&perfetto_json(&sessions, &hh_trace::exec::take()));
    assert!(shape.is_ok(), "invalid Perfetto export: {:?}", shape.err());

    let mut seen = [0u64; 4];
    for s in &sessions {
        let ev = &s.events;
        let counter = |name: &str| s.registry.counter(name);
        assert_eq!(s.dropped, 0, "{}: the ring overflowed", s.label);

        let reassigned = reassigns(
            ev,
            &[
                ReassignKind::Lend,
                ReassignKind::Reclaim,
                ReassignKind::BufferAttach,
            ],
        );
        assert_eq!(
            reassigned,
            counter("server.reassignments"),
            "{}: Reassign",
            s.label
        );
        let reclaimed = reassigns(ev, &[ReassignKind::Reclaim]);
        assert_eq!(
            reclaimed,
            counter("server.reclaims"),
            "{}: Reassign/Reclaim",
            s.label
        );

        let flushes = count(ev, |e| matches!(e, TraceEvent::FlushSpan { .. }));
        assert_eq!(
            flushes,
            counter("mem.flushes_full") + counter("mem.flushes_region"),
            "{}: FlushSpan",
            s.label
        );

        let enqueues = count(ev, |e| matches!(e, TraceEvent::Enqueue { .. }));
        assert_eq!(
            enqueues,
            counter("hwqueue.enqueued"),
            "{}: Enqueue",
            s.label
        );

        seen[0] += reassigned;
        seen[1] += reclaimed;
        seen[2] += reassigns(ev, &[ReassignKind::BufferAttach]);
        seen[3] += flushes;
    }
    // The comparisons above are only evidence if the runs exercised every
    // transition kind they check.
    assert!(
        seen.iter().all(|&n| n > 0),
        "transition kinds not exercised: {seen:?}"
    );
}
