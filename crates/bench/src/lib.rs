//! Shared plumbing for the HardHarvest benchmark harness.
//!
//! The crate's binaries share it:
//!
//! * `src/bin/figures.rs` — the figure harness: regenerates the data series
//!   of **every** table and figure of the paper's evaluation at a reduced
//!   scale (`HH_SCALE=paper` for the full runs), selected by figure id, and
//!   exports a Perfetto trace when `HH_TRACE=<path>` is set;
//! * `src/bin/perfsmoke.rs` — times the whole harness (every figure on
//!   one schedule) and writes the JSON ledger;
//! * `src/bin/probe.rs` — the calibration probe: headline metrics of one
//!   server under three systems.

#![warn(missing_docs)]

use hh_core::{Experiments, Run, Scale};

/// Which experiment scale to use, from the `HH_SCALE` environment variable
/// (`quick` by default, `paper` for the full evaluation size, `mini` for
/// the smallest smoke scale).
pub fn scale_from_env() -> Experiments {
    match std::env::var("HH_SCALE").as_deref() {
        Ok("paper") => Experiments::paper(),
        Ok("mini") => Experiments {
            scale: Scale::mini(),
            ..Experiments::quick()
        },
        _ => Experiments::quick(),
    }
}

/// One figure id of the harness.
#[derive(Debug)]
pub struct Figure {
    /// The id `figures` takes and writes `<id>.txt` for.
    pub id: &'static str,
    /// The cluster simulations the figure reads (none for the tables that
    /// do not simulate a cluster).
    pub runs: fn(&Experiments) -> Vec<Run>,
    /// Renders the figure's report.
    pub render: fn(&Experiments) -> String,
}

/// Every figure id the harness understands, in output order; the last
/// four are extensions beyond the paper's figures.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Figure { id: "table1",   runs: no_runs,                    render: |ex| ex.table1().render() },
    Figure { id: "fig2",     runs: no_runs,                    render: |ex| ex.fig2().to_table().render() },
    Figure { id: "fig3",     runs: no_runs,                    render: render_fig3 },
    Figure { id: "fig4",     runs: Experiments::fig4_runs,     render: |ex| ex.fig4().to_table().render() },
    Figure { id: "fig5",     runs: Experiments::fig5_runs,     render: |ex| ex.fig5().to_table().render() },
    Figure { id: "fig6",     runs: Experiments::fig6_runs,     render: render_fig6 },
    Figure { id: "fig7",     runs: Experiments::fig7_runs,     render: |ex| ex.fig7().to_table().render() },
    Figure { id: "fig11",    runs: Experiments::five_runs,     render: |ex| ex.fig11().to_table().render() },
    Figure { id: "fig12",    runs: Experiments::fig12_runs,    render: |ex| ex.fig12().to_table().render() },
    Figure { id: "fig13",    runs: Experiments::fig13_runs,    render: |ex| ex.fig13().to_table().render() },
    Figure { id: "fig14",    runs: no_runs,                    render: render_fig14 },
    Figure { id: "fig15",    runs: Experiments::fig15_runs,    render: |ex| ex.fig15().to_table().render() },
    Figure { id: "fig16",    runs: Experiments::five_runs,     render: |ex| ex.fig16().to_table().render() },
    Figure { id: "fig17",    runs: Experiments::five_runs,     render: |ex| ex.fig17().to_table().render() },
    Figure { id: "util",     runs: Experiments::five_runs,     render: render_util },
    Figure { id: "storage",  runs: no_runs,                    render: render_storage },
    Figure { id: "fig18",    runs: Experiments::fig18_runs,    render: |ex| ex.fig18().to_table().render() },
    Figure { id: "fig19",    runs: Experiments::fig19_runs,    render: |ex| ex.fig19().to_table().render() },
    Figure { id: "adaptive", runs: Experiments::adaptive_runs, render: |ex| ex.adaptive().render() },
    Figure { id: "regions",  runs: Experiments::region_runs,   render: |ex| ex.region_sweep().to_table().render() },
    Figure { id: "overflow", runs: Experiments::overflow_runs, render: |ex| ex.overflow_pressure().render() },
    Figure { id: "mshr",     runs: Experiments::mshr_runs,     render: |ex| ex.mshr_sweep().to_table().render() },
];

/// Renders the figures `ids` names, in order, after running the
/// simulations of all of them as one schedule on `ex.plan`; the renders
/// then recall their runs from its memo.
///
/// # Panics
/// Panics on an unknown figure id, before anything runs.
pub fn render_figures(ex: &Experiments, ids: &[&str]) -> Vec<String> {
    let figures: Vec<&Figure> = ids
        .iter()
        .map(|&id| {
            FIGURES
                .iter()
                .find(|f| f.id == id)
                .unwrap_or_else(|| panic!("unknown figure id: {id}"))
        })
        .collect();
    let runs: Vec<Run> = figures.iter().flat_map(|f| (f.runs)(ex)).collect();
    ex.plan.run_all(&runs);
    figures.iter().map(|f| (f.render)(ex)).collect()
}

fn no_runs(_: &Experiments) -> Vec<Run> {
    Vec::new()
}

fn render_fig3(ex: &Experiments) -> String {
    let mut out = String::from("Figure 3 (utilization @30s grain)\n");
    for (i, u) in ex.fig3().iter().enumerate() {
        out.push_str(&format!("{:>5}s  {:.3}\n", i * 30, u));
    }
    out
}

fn render_fig6(ex: &Experiments) -> String {
    let fig = ex.fig6();
    let mut s = fig.to_table().render();
    s.push_str(&format!(
        "\nslowdown (harvest/noharvest): {:.2}x\n",
        fig.slowdown()
    ));
    s
}

fn render_fig14(ex: &Experiments) -> String {
    let rows = ex.fig14();
    let mut t = hh_core::Table::new(vec![
        "Figure 14 (L2 hit rate)".into(),
        "LRU".into(),
        "RRIP".into(),
        "HardHarvest".into(),
        "Belady".into(),
    ]);
    for r in &rows {
        t.row_f64(r.service, &[r.lru, r.rrip, r.hardharvest, r.belady]);
    }
    let n = rows.len() as f64;
    t.row_f64(
        "Avg",
        &[
            rows.iter().map(|r| r.lru).sum::<f64>() / n,
            rows.iter().map(|r| r.rrip).sum::<f64>() / n,
            rows.iter().map(|r| r.hardharvest).sum::<f64>() / n,
            rows.iter().map(|r| r.belady).sum::<f64>() / n,
        ],
    );
    t.render()
}

fn render_util(ex: &Experiments) -> String {
    let mut t = hh_core::Table::new(vec!["Section 6.7".into(), "avg busy cores (of 36)".into()]);
    for (name, cores) in ex.utilization() {
        t.row_f64(&name, &[cores]);
    }
    t.render()
}

fn render_storage(ex: &Experiments) -> String {
    let s = ex.storage();
    let sram = hh_hwqueue::storage::StorageCost::table1_chip_sram_bytes();
    let mut t = hh_core::Table::new(vec!["Section 6.8".into(), "value".into()]);
    t.row(vec![
        "controller storage".into(),
        format!(
            "{:.2} KB (paper: 18.9 KB)",
            s.controller_bytes() as f64 / 1024.0
        ),
    ]);
    t.row(vec![
        "controller per core".into(),
        format!(
            "{:.2} KB (paper: 0.53 KB)",
            s.controller_bytes_per_core() / 1024.0
        ),
    ]);
    t.row(vec![
        "Shared bits/server".into(),
        format!(
            "{:.1} KB (paper: 67.8 KB)",
            s.shared_bit_bytes() as f64 / 1024.0
        ),
    ]);
    t.row(vec![
        "area overhead".into(),
        format!("{:.3}% (paper: 0.19%)", s.area_fraction(sram) * 100.0),
    ]);
    t.row(vec![
        "power overhead".into(),
        format!("{:.3}% (paper: 0.16%)", s.power_fraction(sram) * 100.0),
    ]);
    t.render()
}

/// Drains every collected trace session plus the executor trace and writes
/// the exports: Perfetto `trace_event` JSON at `path` and a JSONL metrics
/// snapshot at `<path>.metrics.jsonl`. Returns the human summary table.
///
/// # Errors
/// Propagates I/O errors from writing either file.
pub fn export_trace(path: &str) -> std::io::Result<String> {
    let sessions = hh_trace::take_sessions();
    let exec = hh_trace::exec::take();
    std::fs::write(path, hh_trace::export::perfetto_json(&sessions, &exec))?;
    std::fs::write(
        format!("{path}.metrics.jsonl"),
        hh_trace::export::metrics_jsonl(&sessions, &exec),
    )?;
    Ok(hh_trace::export::summary_table(&sessions, &exec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::RunPlan;
    use std::path::{Path, PathBuf};

    fn results() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    #[test]
    fn all_figures_are_known_ids() {
        assert_eq!(FIGURES.len(), 22);
        let mut ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 22, "figure ids must be unique");
        assert!(ids.contains(&"fig11"));
    }

    /// The figures that take well under a second regenerate their
    /// committed tables in `results/` byte for byte.
    #[test]
    fn cheap_figures_match_results() {
        let ex = Experiments::quick();
        for id in ["table1", "fig2", "fig3", "fig14", "storage"] {
            let path = results().join(format!("{id}.txt"));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            assert_eq!(
                render_figures(&ex, &[id]).remove(0),
                golden,
                "{id} differs from {}",
                path.display()
            );
        }
    }

    /// Every figure id regenerates its `results/mini` table byte for byte
    /// (`HH_SCALE=mini`, seed `0x15CA`), and the whole harness simulates
    /// 47 distinct clusters.
    #[test]
    fn all_figures_match_mini_results() {
        let ex = Experiments {
            scale: Scale::mini(),
            ..Experiments::quick()
        }
        .on_plan(RunPlan::leaked(2));
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        let reports = render_figures(&ex, &ids);
        let differing: Vec<&str> = ids
            .iter()
            .zip(&reports)
            .filter(|&(id, report)| {
                let golden = std::fs::read_to_string(results().join(format!("mini/{id}.txt")));
                golden.ok().as_ref() != Some(report)
            })
            .map(|(id, _)| *id)
            .collect();
        assert!(
            differing.is_empty(),
            "differ from results/mini: {differing:?}"
        );
        assert_eq!(ex.plan.sims_run(), 47);
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn unknown_figure_panics() {
        render_figures(&Experiments::quick(), &["fig99"]);
    }
}
