//! Property tests for the workload generators.

use hh_sim::{Cycles, Rng64, VmId};
use hh_workload::trace::UtilizationTrace;
use hh_workload::{BatchCatalog, LoadGen, RequestPlan, ServiceCatalog, ServiceId};
use proptest::prelude::*;

proptest! {
    /// Any invocation plan is structurally valid: io after every phase but
    /// the last, positive compute, stream covers the footprint.
    #[test]
    fn request_plans_are_well_formed(
        svc in 0u8..8,
        invocation in 0u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let catalog = ServiceCatalog::socialnet();
        let id = ServiceId(svc);
        let profile = catalog.get(id);
        let mut rng = Rng64::new(seed);
        let plan = RequestPlan::generate(id, profile, VmId(3), invocation, &mut rng);
        prop_assert_eq!(plan.phases.len(), profile.phases());
        for (i, ph) in plan.phases.iter().enumerate() {
            prop_assert!(ph.compute > Cycles::ZERO);
            prop_assert!(ph.stream.accesses > 0);
            prop_assert_eq!(ph.io_after.is_none(), i + 1 == plan.phases.len());
            if let Some(io) = ph.io_after {
                prop_assert!(io >= Cycles::from_us(1.0), "io below the wire RTT");
            }
        }
        let total: u32 = plan.phases.iter().map(|p| p.stream.accesses).sum();
        let footprint = (profile.shared_lines() + profile.private_lines()) as u32;
        prop_assert!(total >= footprint);
    }

    /// Streams are reproducible and bounded to their regions.
    #[test]
    fn streams_deterministic_and_region_bounded(
        svc in 0u8..8,
        invocation in 0u64..100_000,
    ) {
        let catalog = ServiceCatalog::socialnet();
        let id = ServiceId(svc);
        let mut rng = Rng64::new(7);
        let plan = RequestPlan::generate(id, catalog.get(id), VmId(1), invocation, &mut rng);
        let spec = plan.phases[0].stream;
        let a: Vec<_> = spec.iter().collect();
        let b: Vec<_> = spec.iter().collect();
        prop_assert_eq!(&a, &b);
        let mask = (1u64 << 48) - 1;
        for acc in &a {
            let raw = acc.addr & mask;
            let in_shared = raw >= spec.shared_base
                && raw < spec.shared_base + spec.shared_lines * 64;
            let in_private = raw >= spec.private_base
                && raw < spec.private_base + spec.private_lines * 64;
            prop_assert!(in_shared || in_private, "stray address {raw:#x}");
            prop_assert_eq!(acc.class.is_shared(), in_shared);
        }
    }

    /// The load generator produces strictly increasing arrivals at roughly
    /// the requested long-run rate for any seed. 50 K arrivals span at
    /// least 25 s (50 mean burst cycles), enough to average the bursts out.
    #[test]
    fn loadgen_rate_and_monotonicity(seed in any::<u64>(), rps in 100f64..2000.0) {
        let mut lg = LoadGen::bursty(rps, 5.0, 30.0, 0.06, seed);
        let arrivals = lg.take_arrivals(50_000);
        for w in arrivals.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        let span = arrivals.last().unwrap().as_secs();
        let measured = 50_000.0 / span;
        prop_assert!((measured / rps - 1.0).abs() < 0.15, "rate {measured} vs {rps}");
    }

    /// Synthetic utilization traces are valid probabilities with max ≥ avg.
    #[test]
    fn traces_are_valid(seed in any::<u64>(), len in 1usize..300) {
        let mut rng = Rng64::new(seed);
        let t = UtilizationTrace::synthesize(len, &mut rng);
        prop_assert_eq!(t.len(), len);
        for &u in t.samples() {
            prop_assert!((0.0..=1.0).contains(&u));
        }
        prop_assert!(t.max() >= t.average() - 1e-12);
    }

    /// Batch unit streams cycle through footprint windows without escaping
    /// the working set.
    #[test]
    fn batch_windows_stay_in_footprint(job in 0usize..8, unit in 0u64..500) {
        let j = *BatchCatalog::paper().get(job);
        let spec = j.unit_stream(VmId(8), unit);
        prop_assert!(spec.private_lines >= 64);
        let mask = (1u64 << 48) - 1;
        for acc in spec.iter().take(200) {
            let raw = acc.addr & mask;
            if !acc.class.is_shared() {
                prop_assert!(raw >= spec.private_base);
                prop_assert!(raw < spec.private_base + spec.private_lines * 64);
            }
        }
    }
}
