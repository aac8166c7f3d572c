//! Shared plumbing for the HardHarvest benchmark harness.
//!
//! The crate's binaries share it:
//!
//! * `src/bin/figures.rs` — the figure harness: regenerates the data series
//!   of **every** table and figure of the paper's evaluation at a reduced
//!   scale (`HH_SCALE=paper` for the full runs), selected by figure id, and
//!   exports a Perfetto trace when `HH_TRACE=<path>` is set;
//! * `src/bin/perfsmoke.rs` — times every figure and writes the JSON
//!   ledger;
//! * `src/bin/probe.rs` — the calibration probe: headline metrics of one
//!   server under three systems.

#![warn(missing_docs)]

use hh_core::{Experiments, Scale};

/// Which experiment scale to use, from the `HH_SCALE` environment variable
/// (`quick` by default, `paper` for the full evaluation size).
pub fn scale_from_env() -> Experiments {
    match std::env::var("HH_SCALE").as_deref() {
        Ok("paper") => Experiments::paper(),
        Ok("mini") => Experiments {
            scale: Scale {
                servers: 1,
                requests_per_vm: 60,
                rps_per_vm: 800.0,
            },
            ..Experiments::quick()
        },
        _ => Experiments::quick(),
    }
}

/// The full list of figure identifiers the harness understands.
pub const ALL_FIGURES: &[&str] = &[
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig17", "util", "storage", "fig18", "fig19",
    // Extensions beyond the paper's figures:
    "adaptive", "regions", "overflow", "mshr",
];

/// Runs one figure by name and returns its printable report.
///
/// # Panics
/// Panics on an unknown figure id.
pub fn run_figure(ex: &Experiments, id: &str) -> String {
    match id {
        "table1" => ex.table1().render(),
        "fig2" => ex.fig2().to_table().render(),
        "fig3" => {
            let series = ex.fig3();
            let mut out = String::from("Figure 3 (utilization @30s grain)\n");
            for (i, u) in series.iter().enumerate() {
                out.push_str(&format!("{:>5}s  {:.3}\n", i * 30, u));
            }
            out
        }
        "fig4" => ex.fig4().to_table().render(),
        "fig5" => ex.fig5().to_table().render(),
        "fig6" => {
            let fig = ex.fig6();
            let mut s = fig.to_table().render();
            s.push_str(&format!(
                "\nslowdown (harvest/noharvest): {:.2}x\n",
                fig.slowdown()
            ));
            s
        }
        "fig7" => ex.fig7().to_table().render(),
        "fig11" => ex.fig11().to_table().render(),
        "fig12" => ex.fig12().to_table().render(),
        "fig13" => ex.fig13().to_table().render(),
        "fig14" => {
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
        "fig15" => ex.fig15().to_table().render(),
        "fig16" => ex.fig16().to_table().render(),
        "fig17" => ex.fig17().to_table().render(),
        "util" => {
            let mut t =
                hh_core::Table::new(vec!["Section 6.7".into(), "avg busy cores (of 36)".into()]);
            for (name, cores) in ex.utilization() {
                t.row_f64(&name, &[cores]);
            }
            t.render()
        }
        "storage" => {
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
        "fig18" => ex.fig18().to_table().render(),
        "fig19" => ex.fig19().to_table().render(),
        "adaptive" => ex.adaptive().render(),
        "regions" => ex.region_sweep().to_table().render(),
        "overflow" => ex.overflow_pressure().render(),
        "mshr" => ex.mshr_sweep().to_table().render(),
        other => panic!("unknown figure id: {other}"),
    }
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

    #[test]
    fn all_figures_are_known_ids() {
        assert_eq!(ALL_FIGURES.len(), 22);
        assert!(ALL_FIGURES.contains(&"fig11"));
    }

    /// The figures that take well under a second regenerate their
    /// committed tables in `results/` byte for byte.
    #[test]
    fn cheap_figures_match_results() {
        let ex = Experiments::quick();
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for id in ["table1", "fig2", "fig3", "fig14", "storage"] {
            let path = results.join(format!("{id}.txt"));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            assert_eq!(
                run_figure(&ex, id),
                golden,
                "{id} differs from {}",
                path.display()
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn unknown_figure_panics() {
        run_figure(&Experiments::quick(), "fig99");
    }
}
