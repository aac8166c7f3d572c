//! Figure-level sanity: each experiment runner produces the right rows and
//! qualitatively sane series at a miniature scale.

use hh_core::{Experiments, Scale};

fn mini() -> Experiments {
    Experiments {
        scale: Scale::mini(),
        seed: 0xF16,
        ..Experiments::quick()
    }
}

#[test]
fn fig4_reassignment_only_ordering() {
    let fig = mini().fig4();
    let labels: Vec<&str> = fig.rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(
        labels,
        ["No-Move", "KVM-Term", "KVM-Block", "Opt-Term", "Opt-Block"]
    );
    let no_move = fig.avg_of("No-Move");
    // KVM's 5 ms hypervisor reassignments must inflate the tail far more
    // than SmartHarvest's optimized path (Figure 4's core finding).
    assert!(fig.avg_of("KVM-Term") > no_move, "KVM-Term must hurt");
    assert!(
        fig.avg_of("KVM-Block") > fig.avg_of("Opt-Block"),
        "KVM should be worse than Opt"
    );
    assert!(fig.avg_of("Opt-Term") > no_move * 0.99);
}

#[test]
fn fig5_flushing_adds_to_reassignment() {
    let fig = mini().fig5();
    // Flush-only bars sit above the no-flush baseline; adding reassignment
    // (Harvest-*) cannot make things better than flush-only.
    let base = fig.avg_of("No Flush");
    let flush_b = fig.avg_of("Flush-Block");
    let harvest_b = fig.avg_of("Harvest-Block");
    assert!(flush_b > base, "flushing must cost: {flush_b} vs {base}");
    assert!(
        harvest_b > base,
        "flush+reassign must cost: {harvest_b} vs {base}"
    );
}

#[test]
fn fig7_capacity_series_shape() {
    let fig = mini().fig7();
    let labels: Vec<&str> = fig.rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["Inf", "100%", "75%", "50%", "25%"]);
    // Infinite caches are a lower bound; a quarter of the hierarchy is the
    // worst of the sweep (the paper's point is the degradation is small,
    // which EXPERIMENTS.md records — here we only assert the ordering).
    let inf = fig.avg_of("Inf");
    let quarter = fig.avg_of("25%");
    let full = fig.avg_of("100%");
    assert!(
        inf <= full * 1.02,
        "Inf {inf} should not exceed full {full}"
    );
    assert!(
        quarter >= full * 0.98,
        "25% ({quarter}) should not beat full ({full})"
    );
}

#[test]
fn fig6_breakdown_has_overhead_components() {
    let fig = mini().fig6();
    assert_eq!(fig.services.len(), 8);
    let slowdown = fig.slowdown();
    assert!(
        slowdown > 1.05,
        "software harvesting must slow single requests: {slowdown:.2}"
    );
    // Reassignment and flush components are non-zero somewhere.
    assert!(fig.reassign_ms.iter().sum::<f64>() > 0.0);
    assert!(fig.flush_ms.iter().sum::<f64>() > 0.0);
}

#[test]
fn fig19_sweeps_eviction_candidates() {
    let fig = mini().fig19();
    let labels: Vec<&str> = fig.rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["25%", "50%", "75%", "100%"]);
    for r in &fig.rows {
        assert!(r.average_ms > 0.0, "{}", r.label);
    }
}

#[test]
fn extension_experiments_render() {
    let ex = mini();
    let adaptive = ex.adaptive().render();
    assert!(adaptive.contains("HardHarvest-Adaptive"));
    let regions = ex.region_sweep().to_table().render();
    assert!(regions.contains("1/2 ways"));
    let overflow = ex.overflow_pressure().render();
    assert!(overflow.contains("32"));
}
