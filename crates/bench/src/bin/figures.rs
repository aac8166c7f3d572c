//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [fig-id ...]          # default: all
//! HH_SCALE=paper figures        # full evaluation scale (slow)
//! HH_SCALE=mini figures fig11   # smallest smoke scale
//! HH_OUT=results figures        # additionally write results/<id>.txt
//! HH_TRACE=out.json figures     # also export a Perfetto trace + metrics
//! ```

use hh_bench::{export_trace, run_figure, scale_from_env, ALL_FIGURES};

fn main() {
    let trace_path = hh_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        ALL_FIGURES.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let out_dir = std::env::var_os("HH_OUT");
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create HH_OUT directory");
    }
    let ex = scale_from_env();
    eprintln!(
        "# scale: {} servers, {} req/VM, {} rps/VM",
        ex.scale.servers, ex.scale.requests_per_vm, ex.scale.rps_per_vm
    );
    for id in ids {
        #[expect(
            clippy::disallowed_types,
            reason = "figure timing measures host wall time by design; simulated time never flows from it"
        )]
        let started = std::time::Instant::now();
        println!("\n===== {id} =====");
        let report = run_figure(&ex, id);
        println!("{report}");
        if let Some(dir) = &out_dir {
            let path = std::path::Path::new(dir).join(format!("{id}.txt"));
            std::fs::write(&path, &report).expect("write figure report");
        }
        eprintln!("# {id} took {:.1}s", started.elapsed().as_secs_f64());
    }
    if let Some(path) = trace_path {
        let summary = export_trace(&path).expect("write HH_TRACE exports");
        eprint!("{summary}");
        eprintln!("# trace: {path} (+ {path}.metrics.jsonl)");
    }
}
