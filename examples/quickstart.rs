//! Quickstart: simulate one HardHarvest cluster and print the headline
//! metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hh_core::{run_cluster, Scale, SystemSpec};

fn main() {
    let scale = Scale::quick();
    println!(
        "Simulating a {}-server cluster (Table 1 configuration)…",
        scale.servers
    );

    for system in [SystemSpec::no_harvest(), SystemSpec::hardharvest_block()] {
        let m = run_cluster(system, scale, 42);
        let lat = m.pooled_latency_ms();
        println!("\n== {} ==", system.name);
        println!("  completed requests : {}", m.completed());
        println!("  median latency     : {:.3} ms", lat.median());
        println!("  P99 tail latency   : {:.3} ms", lat.p99());
        println!("  avg busy cores     : {:.1} / 36", m.avg_busy_cores());
        println!(
            "  harvest throughput : {:.0} units/s (job: {})",
            m.batch_throughput(0),
            hh_workload::BatchCatalog::paper().get(0).name
        );
        println!("  L2 hit rate        : {:.1} %", m.l2_hit_rate() * 100.0);
    }

    println!("\nSee `cargo run --release -p hh-bench --bin figures` for every paper figure.");
}
