//! Trace exporters: Chrome/Perfetto `trace_event` JSON, a JSONL metrics
//! snapshot, and a human-readable summary table — plus a shape validator
//! for the Perfetto output (used by tests and CI).
//!
//! Layout of the Perfetto export: each finished sim session becomes one
//! *process* (pid ≥ 1) whose timeline is **simulated** time (cycles → µs);
//! per-core activity lands on thread tracks (`tid = core + 1`), request
//! and queue events on `tid 0`. Executor spans become one extra process
//! on **host wall** time, so the two clock domains never share a track.

use crate::event::{TraceEvent, NO_INDEX};
use crate::exec::ExecTrace;
use crate::json::{self, escape, num, Json};
use crate::FinishedSession;
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn ts(c: hh_sim::Cycles) -> String {
    format!("{:.3}", c.as_us())
}

fn gauge_track(name: &str, index: u32) -> String {
    if index == NO_INDEX {
        name.to_owned()
    } else {
        format!("{name}.{index}")
    }
}

/// Renders sessions plus the executor trace as Chrome `trace_event` JSON
/// (the `{"traceEvents": [...]}` object form Perfetto ingests).
pub fn perfetto_json(sessions: &[FinishedSession], exec: &ExecTrace) -> String {
    let mut ev: Vec<String> = Vec::new();

    for (i, s) in sessions.iter().enumerate() {
        let pid = i + 1;
        ev.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            escape(&s.label)
        ));
        ev.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"events"}}}}"#
        ));
        let cores: BTreeSet<u32> = s
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::RequestComplete { core, .. }
                | TraceEvent::RequestBlocked { core, .. }
                | TraceEvent::PhaseSpan { core, .. }
                | TraceEvent::UnitSpan { core, .. }
                | TraceEvent::Reassign { core, .. }
                | TraceEvent::TransitionSpan { core, .. }
                | TraceEvent::FlushSpan { core, .. }
                | TraceEvent::CacheEpoch { core, .. }
                | TraceEvent::Dispatch { core, .. } => Some(core),
                _ => None,
            })
            .collect();
        for c in cores {
            ev.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{},"args":{{"name":"core {c}"}}}}"#,
                c + 1
            ));
        }
        for e in &s.events {
            ev.push(render_event(pid, e));
        }
    }

    let exec_pid = sessions.len() + 1;
    if !exec.spans.is_empty() || !exec.occupancy.is_empty() {
        ev.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{exec_pid},"tid":0,"args":{{"name":"exec (host wall time)"}}}}"#
        ));
        // Greedy lane assignment so overlapping spans from different
        // workers render on separate thread tracks.
        let mut order: Vec<usize> = (0..exec.spans.len()).collect();
        order.sort_by(|&a, &b| {
            exec.spans[a]
                .start_us
                .partial_cmp(&exec.spans[b].start_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut lane_end: Vec<f64> = Vec::new();
        for idx in order {
            let sp = &exec.spans[idx];
            let lane = lane_end
                .iter()
                .position(|&end| end <= sp.start_us)
                .unwrap_or_else(|| {
                    lane_end.push(0.0);
                    lane_end.len() - 1
                });
            lane_end[lane] = sp.start_us + sp.dur_us;
            ev.push(format!(
                r#"{{"name":"{}","cat":"exec","ph":"X","ts":{:.3},"dur":{:.3},"pid":{exec_pid},"tid":{},"args":{{"memo_hit":{}}}}}"#,
                escape(&sp.label),
                sp.start_us,
                sp.dur_us,
                lane + 1,
                sp.memo_hit
            ));
        }
        for &(t, n) in &exec.occupancy {
            ev.push(format!(
                r#"{{"name":"exec.busy_workers","cat":"exec","ph":"C","ts":{t:.3},"pid":{exec_pid},"tid":0,"args":{{"value":{n}}}}}"#
            ));
        }
    }

    let mut out = String::with_capacity(ev.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn render_event(pid: usize, e: &TraceEvent) -> String {
    match e {
        TraceEvent::RequestArrival { t, vm, token } => format!(
            r#"{{"name":"arrival vm{vm}","cat":"request","ph":"i","s":"t","ts":{},"pid":{pid},"tid":0,"args":{{"token":{token}}}}}"#,
            ts(*t)
        ),
        TraceEvent::RequestComplete {
            t,
            vm,
            core,
            token,
            latency,
        } => format!(
            r#"{{"name":"complete vm{vm}","cat":"request","ph":"i","s":"t","ts":{},"pid":{pid},"tid":{},"args":{{"token":{token},"latency_ms":{}}}}}"#,
            ts(*t),
            core + 1,
            num(latency.as_ms())
        ),
        TraceEvent::RequestBlocked { t, core, token, io } => format!(
            r#"{{"name":"io-block","cat":"request","ph":"i","s":"t","ts":{},"pid":{pid},"tid":{},"args":{{"token":{token},"io_us":{}}}}}"#,
            ts(*t),
            core + 1,
            num(io.as_us())
        ),
        TraceEvent::PhaseSpan {
            start,
            dur,
            core,
            vm,
            token,
        } => format!(
            r#"{{"name":"phase vm{vm}","cat":"request","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{},"args":{{"token":{token}}}}}"#,
            ts(*start),
            ts(*dur),
            core + 1
        ),
        TraceEvent::UnitSpan { start, dur, core } => format!(
            r#"{{"name":"batch unit","cat":"harvest","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{},"args":{{}}}}"#,
            ts(*start),
            ts(*dur),
            core + 1
        ),
        TraceEvent::Reassign {
            t,
            core,
            kind,
            cost,
        } => format!(
            r#"{{"name":"{}","cat":"reassign","ph":"i","s":"t","ts":{},"pid":{pid},"tid":{},"args":{{"cost_us":{}}}}}"#,
            kind.name(),
            ts(*t),
            core + 1,
            num(cost.as_us())
        ),
        TraceEvent::TransitionSpan {
            start,
            dur,
            core,
            kind,
        } => format!(
            r#"{{"name":"switch:{}","cat":"reassign","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{},"args":{{}}}}"#,
            kind.name(),
            ts(*start),
            ts(*dur),
            core + 1
        ),
        TraceEvent::FlushSpan {
            start,
            dur,
            core,
            scope,
            background,
            dropped_lines,
        } => format!(
            r#"{{"name":"flush:{}","cat":"flush","ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{},"args":{{"background":{background},"dropped_lines":{dropped_lines}}}}}"#,
            scope.name(),
            ts(*start),
            ts(*dur),
            core + 1
        ),
        TraceEvent::CacheEpoch {
            t,
            core,
            epoch,
            dropped_lines,
        } => format!(
            r#"{{"name":"cache-epoch","cat":"flush","ph":"i","s":"t","ts":{},"pid":{pid},"tid":{},"args":{{"epoch":{epoch},"dropped_lines":{dropped_lines}}}}}"#,
            ts(*t),
            core + 1
        ),
        TraceEvent::Enqueue {
            t,
            vm,
            token,
            depth,
            overflow,
        } => format!(
            r#"{{"name":"enqueue vm{vm}","cat":"hwqueue","ph":"i","s":"t","ts":{},"pid":{pid},"tid":0,"args":{{"token":{token},"depth":{depth},"overflow":{overflow}}}}}"#,
            ts(*t)
        ),
        TraceEvent::Dispatch {
            t,
            vm,
            core,
            token,
            depth,
        } => format!(
            r#"{{"name":"dispatch vm{vm}","cat":"hwqueue","ph":"i","s":"t","ts":{},"pid":{pid},"tid":{},"args":{{"token":{token},"depth":{depth}}}}}"#,
            ts(*t),
            core + 1
        ),
        TraceEvent::GaugeSample {
            t,
            name,
            index,
            value,
        } => format!(
            r#"{{"name":"{}","cat":"gauge","ph":"C","ts":{},"pid":{pid},"tid":0,"args":{{"value":{}}}}}"#,
            escape(&gauge_track(name, *index)),
            ts(*t),
            num(*value)
        ),
        TraceEvent::InvariantViolation { t, message } => format!(
            r#"{{"name":"INVARIANT VIOLATION","cat":"invariant","ph":"i","s":"p","ts":{},"pid":{pid},"tid":0,"args":{{"message":"{}"}}}}"#,
            ts(*t),
            escape(message)
        ),
    }
}

/// Per-`ph` event counts from a validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// `ph == "X"` complete spans.
    pub complete: usize,
    /// `ph == "i"` instants.
    pub instants: usize,
    /// `ph == "C"` counter samples.
    pub counters: usize,
    /// `ph == "M"` metadata records.
    pub metadata: usize,
    /// Distinct `pid`s (processes).
    pub pids: usize,
}

/// Validates `text` against the Chrome/Perfetto `trace_event` JSON shape:
/// a top-level object with a `traceEvents` array whose entries all carry
/// `name`/`ph`/`pid`, a numeric `ts` on every non-metadata event, and a
/// numeric `dur` on every complete (`"X"`) span.
pub fn validate_perfetto(text: &str) -> Result<ValidationReport, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\" key")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut report = ValidationReport {
        events: events.len(),
        ..ValidationReport::default()
    };
    let mut pids = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"ph\""))?;
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string \"name\""))?;
        let pid = e
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric \"pid\""))?;
        pids.insert(pid as i64);
        if ph != "M" {
            e.get("ts")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: missing numeric \"ts\""))?;
        }
        match ph {
            "X" => {
                e.get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: complete span missing \"dur\""))?;
                report.complete += 1;
            }
            "i" | "I" => report.instants += 1,
            "C" => report.counters += 1,
            "M" => report.metadata += 1,
            "B" | "E" | "b" | "e" | "n" | "s" | "t" | "f" => {}
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    report.pids = pids.len();
    Ok(report)
}

/// Renders sessions plus the executor trace as one JSON object per line:
/// a line per session (counters, gauges, histograms, metrics summary) and
/// a final `exec` line.
pub fn metrics_jsonl(sessions: &[FinishedSession], exec: &ExecTrace) -> String {
    let mut out = String::new();
    for s in sessions {
        let mut line = format!(
            r#"{{"label":"{}","end_ms":{},"events":{},"dropped":{}"#,
            escape(&s.label),
            num(s.end.as_ms()),
            s.events.len(),
            s.dropped
        );
        line.push_str(",\"counters\":{");
        let mut first = true;
        for (name, v) in s.registry.counters() {
            if !first {
                line.push(',');
            }
            first = false;
            let _ = write!(line, r#""{}":{v}"#, escape(name));
        }
        line.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, g) in s.registry.gauges() {
            if !first {
                line.push(',');
            }
            first = false;
            let _ = write!(
                line,
                r#""{}":{{"time_avg":{},"last":{}}}"#,
                escape(name),
                num(g.average(s.end)),
                num(g.level())
            );
        }
        line.push_str("},\"hists\":{");
        let mut first = true;
        for (name, h) in s.registry.hists() {
            if !first {
                line.push(',');
            }
            first = false;
            let _ = write!(
                line,
                r#""{}":{{"count":{},"p50":{},"p99":{}}}"#,
                escape(name),
                h.total(),
                num(h.quantile(0.5)),
                num(h.quantile(0.99))
            );
        }
        line.push_str("},\"summary\":");
        match &s.summary_json {
            Some(j) => line.push_str(j),
            None => line.push_str("null"),
        }
        line.push_str("}\n");
        out.push_str(&line);
    }
    let _ = write!(
        out,
        r#"{{"label":"exec","spans":{},"memo_hits":{},"peak_workers":{}}}"#,
        exec.spans.len(),
        exec.memo_hits(),
        exec.peak_workers()
    );
    out.push('\n');
    out
}

/// Renders a human-readable aggregate table across all sessions.
pub fn summary_table(sessions: &[FinishedSession], exec: &ExecTrace) -> String {
    use std::collections::BTreeMap;
    let total_events: usize = sessions.iter().map(|s| s.events.len()).sum();
    let total_dropped: u64 = sessions.iter().map(|s| s.dropped).sum();
    let mut out = format!(
        "trace summary: {} session(s), {} event(s) ({} dropped)\n",
        sessions.len(),
        total_events,
        total_dropped
    );

    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    for s in sessions {
        for (name, v) in s.registry.counters() {
            *counters.entry(name).or_insert(0) += v;
        }
    }
    if !counters.is_empty() {
        let _ = write!(out, "\n{:<40}{:>14}\n", "counter", "total");
        for (name, v) in counters {
            let _ = writeln!(out, "{name:<40}{v:>14}");
        }
    }

    // Gauges: mean of per-session time-averages (sessions are peers, one
    // per server), plus the final level of the first session for context.
    let mut gauges: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for s in sessions {
        for (name, g) in s.registry.gauges() {
            let e = gauges.entry(name).or_insert((0.0, 0));
            e.0 += g.average(s.end);
            e.1 += 1;
        }
    }
    if !gauges.is_empty() {
        let _ = write!(out, "\n{:<40}{:>14}\n", "gauge", "time-avg");
        for (name, (sum, n)) in gauges {
            let _ = writeln!(out, "{name:<40}{:>14.3}", sum / n as f64);
        }
    }

    let mut hists: BTreeMap<&str, (u64, f64, f64, usize)> = BTreeMap::new();
    for s in sessions {
        for (name, h) in s.registry.hists() {
            let e = hists.entry(name).or_insert((0, 0.0, 0.0, 0));
            e.0 += h.total();
            e.1 += h.quantile(0.5);
            e.2 += h.quantile(0.99);
            e.3 += 1;
        }
    }
    if !hists.is_empty() {
        let _ = write!(
            out,
            "\n{:<40}{:>10}{:>12}{:>12}\n",
            "histogram", "count", "~p50", "~p99"
        );
        for (name, (count, p50, p99, n)) in hists {
            let _ = writeln!(
                out,
                "{name:<40}{count:>10}{:>12.3}{:>12.3}",
                p50 / n as f64,
                p99 / n as f64
            );
        }
    }

    let _ = write!(
        out,
        "\nexec: {} span(s), {} memo hit(s), peak {} worker(s)\n",
        exec.spans.len(),
        exec.memo_hits(),
        exec.peak_workers()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlushScope, ReassignKind};
    use crate::exec::ExecSpan;
    use crate::TraceSession;
    use hh_sim::Cycles;

    fn sample_session() -> FinishedSession {
        let mut s = TraceSession::with_capacity("test/seed=0x1", 128);
        s.record(TraceEvent::RequestArrival {
            t: Cycles::new(10),
            vm: 0,
            token: 7,
        });
        s.record(TraceEvent::Enqueue {
            t: Cycles::new(10),
            vm: 0,
            token: 7,
            depth: 1,
            overflow: false,
        });
        s.record(TraceEvent::Dispatch {
            t: Cycles::new(20),
            vm: 0,
            core: 3,
            token: 7,
            depth: 0,
        });
        s.record(TraceEvent::PhaseSpan {
            start: Cycles::new(20),
            dur: Cycles::new(3000),
            core: 3,
            vm: 0,
            token: 7,
        });
        s.record(TraceEvent::Reassign {
            t: Cycles::new(4000),
            core: 5,
            kind: ReassignKind::Reclaim,
            cost: Cycles::new(900),
        });
        s.record(TraceEvent::FlushSpan {
            start: Cycles::new(4000),
            dur: Cycles::new(1000),
            core: 5,
            scope: FlushScope::HarvestRegion,
            background: false,
            dropped_lines: 42,
        });
        s.gauge(
            "server.busy_cores",
            crate::event::NO_INDEX,
            Cycles::new(20),
            1.0,
        );
        s.count("server.reassignments", 1);
        s.hist("server.reclaim_latency_us", 0.3);
        s.finish(Cycles::new(10_000))
    }

    fn sample_exec() -> ExecTrace {
        ExecTrace {
            spans: vec![
                ExecSpan {
                    label: "HH-Block".into(),
                    start_us: 0.0,
                    dur_us: 50.0,
                    memo_hit: false,
                },
                ExecSpan {
                    label: "HH-Block".into(),
                    start_us: 10.0,
                    dur_us: 5.0,
                    memo_hit: true,
                },
            ],
            occupancy: vec![(0.0, 1), (50.0, 0)],
        }
    }

    #[test]
    fn perfetto_export_validates() {
        let sessions = vec![sample_session()];
        let text = perfetto_json(&sessions, &sample_exec());
        let report = validate_perfetto(&text).expect("emitted trace must validate");
        assert!(report.events > 10);
        assert!(report.complete >= 3, "phase + flush + 2 exec spans");
        assert!(report.counters >= 2, "gauge sample + occupancy samples");
        assert!(report.metadata >= 3, "process/thread names");
        assert_eq!(report.pids, 2, "one sim session + exec");
    }

    #[test]
    fn overlapping_exec_spans_get_distinct_lanes() {
        let text = perfetto_json(&[], &sample_exec());
        // The two spans overlap in wall time, so they must be on
        // different tids.
        let doc = json::parse(&text).unwrap();
        let tids: Vec<i64> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("tid").unwrap().as_num().unwrap() as i64)
            .collect();
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1]);
    }

    #[test]
    fn validator_rejects_malformed_shapes() {
        assert!(validate_perfetto("not json").is_err());
        assert!(validate_perfetto(r#"{"no_events": []}"#).is_err());
        assert!(
            validate_perfetto(r#"{"traceEvents":[{"ph":"X","name":"x","pid":1,"ts":0}]}"#).is_err(),
            "complete span without dur must fail"
        );
        assert!(validate_perfetto(
            r#"{"traceEvents":[{"ph":"i","name":"x","pid":1,"ts":0,"s":"t"}]}"#
        )
        .is_ok());
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let sessions = vec![sample_session()];
        let text = metrics_jsonl(&sessions, &sample_exec());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one session line + exec line");
        for line in &lines {
            let v = json::parse(line).expect("every JSONL line parses");
            assert!(v.get("label").is_some());
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(
            first
                .get("counters")
                .unwrap()
                .get("server.reassignments")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
    }

    #[test]
    fn summary_table_mentions_all_metric_kinds() {
        let sessions = vec![sample_session()];
        let table = summary_table(&sessions, &sample_exec());
        assert!(table.contains("server.reassignments"));
        assert!(table.contains("server.busy_cores"));
        assert!(table.contains("server.reclaim_latency_us"));
        assert!(table.contains("memo hit"));
    }
}
