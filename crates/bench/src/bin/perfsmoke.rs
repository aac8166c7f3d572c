//! Perf smoke harness: times the whole figure harness and writes
//! `BENCH_figures.json`.
//!
//! Renders every figure of [`hh_bench::FIGURES`] once at the `HH_SCALE`
//! scale (quick by default), with the simulations of all of them run as
//! one schedule, exactly as `figures` does. Per-figure times would only
//! be render times, so the ledger is the harness total plus what explains
//! it: a flat JSON object `{"total": wall_ms, "sims_run": n,
//! "memo_hits": n, "workers": n, "host_threads": n}`. See EXPERIMENTS.md
//! §perf smoke.
//!
//! Environment:
//! * `HH_SCALE` — `quick` (default) | `paper` | `mini`
//! * `HH_WORKERS` — worker-pool size for the cluster executor
//! * `HH_BENCH_OUT` — output path (default `BENCH_figures.json`)

use hh_bench::{render_figures, scale_from_env, FIGURES};

fn main() {
    let ex = scale_from_env();
    let out_path =
        std::env::var("HH_BENCH_OUT").unwrap_or_else(|_| "BENCH_figures.json".to_string());
    eprintln!(
        "perfsmoke: {} servers, {} requests/VM, {} rps/VM -> {}",
        ex.scale.servers, ex.scale.requests_per_vm, ex.scale.rps_per_vm, out_path
    );
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    #[expect(
        clippy::disallowed_types,
        reason = "perfsmoke measures host wall time by design; simulated time never flows from it"
    )]
    let start = std::time::Instant::now();
    std::hint::black_box(render_figures(&ex, &ids));
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ledger = [
        ("total", format!("{total_ms:.1}")),
        ("sims_run", ex.plan.sims_run().to_string()),
        ("memo_hits", ex.plan.memo_hits().to_string()),
        ("workers", ex.plan.workers().to_string()),
        ("host_threads", host_threads.to_string()),
    ];
    // Hand-rolled JSON: flat string->number object, one key per line.
    let mut fields = Vec::with_capacity(ledger.len());
    for (key, value) in &ledger {
        eprintln!("  {key:<12} {value:>10}");
        fields.push(format!("  \"{key}\": {value}"));
    }
    let json = format!("{{\n{}\n}}\n", fields.join(",\n"));
    std::fs::write(&out_path, json).expect("write BENCH_figures.json");
    println!("wrote {out_path}");
}
