//! Perf smoke harness: times every figure and writes `BENCH_figures.json`.
//!
//! Runs each figure of [`hh_bench::ALL_FIGURES`] once at the `HH_SCALE`
//! scale (quick by default), records per-figure wall time in
//! milliseconds, and writes a flat JSON object `{figure: wall_ms, ...,
//! "total": wall_ms}` so successive PRs have a comparable perf
//! trajectory. See EXPERIMENTS.md §perf smoke.
//!
//! Environment:
//! * `HH_SCALE` — `quick` (default) | `paper` | `mini`
//! * `HH_WORKERS` — worker-pool size for the cluster executor
//! * `HH_BENCH_OUT` — output path (default `BENCH_figures.json`)

use hh_bench::{run_figure, scale_from_env, ALL_FIGURES};
#[expect(
    clippy::disallowed_types,
    reason = "perfsmoke measures host wall time by design; simulated time never flows from it"
)]
use std::time::Instant;

fn main() {
    let ex = scale_from_env();
    let out_path =
        std::env::var("HH_BENCH_OUT").unwrap_or_else(|_| "BENCH_figures.json".to_string());
    eprintln!(
        "perfsmoke: {} servers, {} requests/VM, {} rps/VM -> {}",
        ex.scale.servers, ex.scale.requests_per_vm, ex.scale.rps_per_vm, out_path
    );

    let mut timings: Vec<(&str, f64)> = Vec::with_capacity(ALL_FIGURES.len());
    #[expect(
        clippy::disallowed_types,
        reason = "perfsmoke measures host wall time by design; simulated time never flows from it"
    )]
    let total_start = Instant::now();
    for &id in ALL_FIGURES {
        #[expect(
            clippy::disallowed_types,
            reason = "perfsmoke measures host wall time by design; simulated time never flows from it"
        )]
        let start = Instant::now();
        let table = run_figure(&ex, id);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&table);
        eprintln!("  {id:<10} {ms:>10.1} ms");
        timings.push((id, ms));
    }
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
    eprintln!("  {:<10} {total_ms:>10.1} ms", "total");

    // Hand-rolled JSON: flat string->number object, one key per line.
    let mut json = String::from("{\n");
    for (id, ms) in &timings {
        json.push_str(&format!("  \"{id}\": {ms:.1},\n"));
    }
    json.push_str(&format!("  \"total\": {total_ms:.1}\n}}\n"));
    std::fs::write(&out_path, json).expect("write BENCH_figures.json");
    println!("wrote {out_path}");
}
