//! Calibration probe: one server, three headline systems, the headline
//! metrics. Used to tune the latency/agent models against the paper's
//! anchors (see DESIGN.md section 8) without running a full figure.
//!
//! ```text
//! cargo run --release -p hh-bench --bin probe
//! ```

fn main() {
    for sys in [
        hh_core::SystemSpec::no_harvest(),
        hh_core::SystemSpec::harvest_block(),
        hh_core::SystemSpec::hardharvest_block(),
    ] {
        #[expect(
            clippy::disallowed_types,
            reason = "calibration timing measures host wall time by design; simulated time never flows from it"
        )]
        let t0 = std::time::Instant::now();
        let scale = hh_core::Scale {
            servers: 1,
            requests_per_vm: 200,
            rps_per_vm: 1000.0,
        };
        let m = hh_core::run_cluster(sys, scale, 99);
        let lat = m.pooled_latency_ms();
        let sm = &m.servers()[0].services;
        let (mut re, mut fl, mut ex, mut io, mut done) = (0.0, 0.0, 0.0, 0.0, 0u64);
        for s in sm {
            re += s.reassign_wait.as_ms();
            fl += s.flush_wait.as_ms();
            ex += s.exec.as_ms();
            io += s.io.as_ms();
            done += s.completed;
        }
        let d = done.max(1) as f64;
        println!("{:<18} {:>6.1}s  p50={:.3}ms p99={:.3}ms busy={:.1} units={} reassign={} | per-req: exec={:.3} io={:.3} re={:.3} fl={:.3}",
            sys.name, t0.elapsed().as_secs_f64(), lat.median(), lat.p99(),
            m.avg_busy_cores(), m.servers()[0].batch_units, m.servers()[0].reassignments,
            ex / d, io / d, re / d, fl / d);
    }
}
