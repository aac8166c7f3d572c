//! Cross-crate property tests: randomized workloads and configurations
//! must uphold the simulator's structural invariants.

use hh_hwqueue::{Controller, ControllerConfig, VmKind};
use hh_mem::{
    Access, AccessKind, CoreMem, Dram, HierarchyConfig, Llc, PageClass, PolicyKind, Visibility,
};
use hh_server::{ServerConfig, ServerSim, SystemSpec};
use hh_sim::{Cycles, VmId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partition isolation: whatever a Harvest context touches, a
    /// harvest-region flush must drop *all* of it — no Harvest-VM state
    /// may survive into the next Primary tenancy.
    #[test]
    fn harvest_flush_leaves_no_harvest_state(
        addrs in prop::collection::vec(0u64..(1 << 24), 1..200),
        harvest_frac in 0.25f64..0.75,
    ) {
        let cfg = HierarchyConfig::table1();
        let mut mem = CoreMem::new(&cfg, harvest_frac, PolicyKind::hardharvest_default());
        let mut llc = Llc::new(256, 16, &[4, 4]);
        let mut dram = Dram::default();
        for a in &addrs {
            let acc = Access::new(VmId(1), *a, AccessKind::DataRead, PageClass::Private);
            mem.access(Cycles::ZERO, acc, Visibility::Harvest, &mut llc, &mut dram);
        }
        mem.flush_harvest_region();
        // Structural check: nothing valid remains in the harvest ways of
        // the L2 — the region a Harvest VM could have touched.
        let l2 = mem.l2();
        let mask = l2.harvest_mask();
        prop_assert_eq!(l2.occupancy_in(mask), 0);
    }

    /// The controller's chunk accounting is conserved across arbitrary
    /// register/deregister sequences.
    #[test]
    fn controller_chunk_conservation(ops in prop::collection::vec(0u8..3, 1..40)) {
        let mut ctrl = Controller::new(ControllerConfig::table1());
        let mut live: Vec<u16> = Vec::new();
        let mut next_vm = 0u16;
        for op in ops {
            match op {
                0 | 1 if live.len() < 12 => {
                    let kind = if op == 0 { VmKind::Primary } else { VmKind::Harvest };
                    ctrl.register_vm(VmId(next_vm), kind, 1 + (next_vm as usize % 8));
                    live.push(next_vm);
                    next_vm += 1;
                }
                _ if !live.is_empty() => {
                    let vm = live.remove(live.len() / 2);
                    ctrl.deregister_vm(VmId(vm));
                }
                _ => {}
            }
            prop_assert!(ctrl.chunk_accounting_ok());
            for &vm in &live {
                prop_assert!(ctrl.qm(VmId(vm)).queue().chunks() >= 1);
            }
        }
    }

    /// Any evaluated system at any moderate load completes every request
    /// (no lost work, no deadlock) and produces finite positive latencies.
    #[test]
    fn every_system_completes_all_requests(
        sys_idx in 0usize..5,
        rps in 200f64..900.0,
        seed in 0u64..1000,
    ) {
        let system = SystemSpec::evaluated_five()[sys_idx];
        let mut cfg = ServerConfig::small(system);
        cfg.rps_per_vm = rps;
        cfg.requests_per_vm = 40;
        cfg.seed = seed;
        let m = ServerSim::new(cfg).run();
        prop_assert_eq!(m.completed(), 80);
        let lat = m.pooled_latency_ms();
        prop_assert!(lat.median() > 0.0);
        prop_assert!(lat.p99() < 1000.0, "p99 {} ms is absurd", lat.p99());
    }
}
