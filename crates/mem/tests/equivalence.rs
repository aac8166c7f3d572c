//! Differential equivalence: the optimized set-block
//! [`hh_mem::SetAssocCache`] against hh-check's array-of-structs
//! [`hh_check::RefCache`] on property-generated traces.
//!
//! Where `proptests.rs` asserts structural properties of the optimized
//! cache in isolation, these tests assert *behavioural identity* with a
//! naive transcription of the paper's Algorithm 1: every access outcome,
//! every way state, every statistic, over mixed shared/private streams,
//! restricted allowed masks, region flushes and harvest-mask reloads,
//! across all four replacement policies and several harvest-mask shapes.
//! A divergence fails with hh-check's pinpointed report (operation index,
//! set, both models' way states) rather than a bare assert.
//!
//! The last properties check the stream entry points against a plain loop
//! of [`hh_mem::CoreMem::access`] calls on an identical hierarchy:
//! [`hh_mem::CoreMem::walk`], with its prefetching lookahead ring, and the
//! split walk a server runs (private pass, LLC pass, timing pass at an
//! explicit DRAM weight).

use hh_check::diff_cache;
use hh_mem::{
    Access, AccessKind, CacheConfig, CoreMem, Dram, HierarchyConfig, Llc, PageClass, PolicyKind,
    TlbConfig, Visibility, WalkTrace, WayMask,
};
use hh_sim::{Cycles, VmId};
use hh_workload::OpTrace;
use proptest::prelude::*;

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Rrip),
        Just(PolicyKind::hardharvest_default()),
        Just(PolicyKind::HardHarvest {
            candidate_frac: 0.5
        }),
    ]
}

/// One raw generated operation: `(kind, key, shared, write, mask_sel)`.
/// `kind` picks access / flush / harvest-mask-reload; `mask_sel` picks an
/// allowed (or flushed) way mask from a geometry-dependent palette.
type RawOp = (u8, u64, bool, bool, u8);

fn raw_ops(max_len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (0u8..12, 0u64..768, any::<bool>(), any::<bool>(), 0u8..4),
        1..max_len,
    )
}

/// Lowers geometry-independent raw ops onto a concrete way count. The
/// mask palette deliberately includes the harvest region, its complement
/// (their interleaving manufactures stale disallowed-way copies) and a
/// single-way mask (maximal contention).
fn build_trace(ops: &[RawOp], ways: usize) -> OpTrace {
    let harvest = WayMask::lower(ways / 2);
    let palette = [
        WayMask::all(ways),
        harvest,
        harvest.complement(ways),
        WayMask::lower(1),
    ];
    let mut t = OpTrace::new();
    for &(kind, key, shared, write, sel) in ops {
        let mask = palette[sel as usize % palette.len()];
        match kind {
            10 => t.record_flush(mask),
            11 => t.record_harvest_mask(WayMask::lower(sel as usize % (ways / 2 + 1))),
            _ => t.access(key, shared, write, mask),
        }
    }
    t
}

/// A hierarchy small enough that short streams evict at every level: 4-set
/// L1s, a 16-set L2 and 8- and 16-entry TLBs.
fn tiny_hierarchy(mshrs: Option<usize>) -> HierarchyConfig {
    let cache = |ways: usize, sets: usize, hit_cycles: u64| CacheConfig {
        size_bytes: 64 * ways * sets,
        ways,
        line_bytes: 64,
        hit_cycles,
    };
    HierarchyConfig {
        l1i: cache(8, 4, 5),
        l1d: cache(12, 4, 5),
        l2: cache(8, 16, 13),
        l1_tlb: TlbConfig {
            entries: 8,
            ways: 4,
            hit_cycles: 2,
        },
        l2_tlb: TlbConfig {
            entries: 16,
            ways: 8,
            hit_cycles: 12,
        },
        mshrs,
        ..HierarchyConfig::table1()
    }
}

/// One raw generated reference: `(vm, byte address, kind, shared)`. The
/// 128 KiB address range spans 2048 lines and 32 pages, far beyond the
/// tiny hierarchy and the 288-line test LLC.
type RawRef = (u16, u64, u8, bool);

fn raw_refs() -> impl Strategy<Value = Vec<RawRef>> {
    prop::collection::vec((0u16..2, 0u64..1 << 17, 0u8..3, any::<bool>()), 1..300)
}

fn to_access(&(vm, addr, kind, shared): &RawRef) -> Access {
    let kind = [
        AccessKind::InstrFetch,
        AccessKind::DataRead,
        AccessKind::DataWrite,
    ][kind as usize];
    let class = if shared {
        PageClass::Shared
    } else {
        PageClass::Private
    };
    Access::new(VmId(vm), addr, kind, class)
}

/// One generated phase: `(length choice, random length, visibility,
/// flush before it, start cycle)`. Length choices 0–4 pick the ring's
/// edge cases 0, 1, `LOOKAHEAD − 1`, `LOOKAHEAD`, `LOOKAHEAD + 1`; 5 picks
/// the random length.
type RawPhase = (u8, usize, u8, u8, u64);

fn raw_phases() -> impl Strategy<Value = Vec<RawPhase>> {
    prop::collection::vec((0u8..6, 0usize..300, 0u8..3, 0u8..3, 0u64..5000), 1..6)
}

proptest! {
    /// Full equivalence on the default geometry, all policies × several
    /// harvest-region widths (including zero — no region reserved).
    #[test]
    fn optimized_cache_matches_reference(
        policy in policies(),
        harvest_ways in 0usize..=4,
        ops in raw_ops(300),
    ) {
        let (sets, ways) = (8, 8);
        let trace = build_trace(&ops, ways);
        if let Err(d) = diff_cache(sets, ways, policy, WayMask::lower(harvest_ways), &trace) {
            prop_assert!(false, "{}", d);
        }
    }

    /// Same equivalence on a minimal geometry, where every set decision is
    /// load-bearing: two ways per set means victim selection, steering and
    /// stale-copy invalidation interact on nearly every miss.
    #[test]
    fn optimized_cache_matches_reference_tiny_geometry(
        policy in policies(),
        ops in raw_ops(200),
    ) {
        let (sets, ways) = (2, 2);
        let trace = build_trace(&ops, ways);
        if let Err(d) = diff_cache(sets, ways, policy, WayMask::lower(1), &trace) {
            prop_assert!(false, "{}", d);
        }
    }

    /// Non-power-of-two set counts: the optimized cache masks the set
    /// index when the count is a power of two and takes `%` otherwise, so
    /// these geometries pin the `%` path — 12 = 3·2² sets, and 9 sets of
    /// 16 ways mirroring the LLC's 73,728 = 9·2¹³.
    #[test]
    fn optimized_cache_matches_reference_non_pow2_sets(
        policy in policies(),
        geometry in prop_oneof![Just((12usize, 8usize)), Just((9, 16))],
        ops in raw_ops(300),
    ) {
        let (sets, ways) = geometry;
        let trace = build_trace(&ops, ways);
        if let Err(d) = diff_cache(sets, ways, policy, WayMask::lower(ways / 2), &trace) {
            prop_assert!(false, "{}", d);
        }
    }

    /// Wide-associativity equivalence: 16 ways exercises the RRIP aging
    /// loop and Algorithm 1's candidate-window arithmetic far from the
    /// small-`ways` cases the unit tests pin.
    #[test]
    fn optimized_cache_matches_reference_wide(
        policy in policies(),
        harvest_ways in 0usize..=8,
        ops in raw_ops(150),
    ) {
        let (sets, ways) = (4, 16);
        let trace = build_trace(&ops, ways);
        if let Err(d) = diff_cache(sets, ways, policy, WayMask::lower(harvest_ways), &trace) {
            prop_assert!(false, "{}", d);
        }
    }
}

proptest! {
    // Each case is cheap; more of them cover the policy × MSHR × infinite
    // × visibility × ring-edge-length combinations.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `CoreMem::walk` returns the same stall totals and leaves the same
    /// statistics and L2 state as the per-reference `access` loop it
    /// replaced, phase after phase with flushes in between, under every
    /// visibility, MSHR setting and policy, and in infinite mode.
    #[test]
    fn walk_matches_per_reference_access(
        policy in policies(),
        mshrs in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(4))],
        infinite in prop_oneof![Just(false), Just(false), Just(false), Just(true)],
        refs in raw_refs(),
        phases in raw_phases(),
    ) {
        let config = tiny_hierarchy(mshrs);
        let mut walked = CoreMem::new(&config, 0.5, policy);
        walked.set_infinite(infinite);
        let mut looped = walked.clone();
        let (mut llc, mut dram) = (Llc::new(18, 16, &[2, 2]), Dram::default());
        let (mut looped_llc, mut looped_dram) = (llc.clone(), dram.clone());
        let lookahead = CoreMem::LOOKAHEAD;
        let mut next = 0;
        for (i, &(len_choice, random_len, vis, flush, start)) in phases.iter().enumerate() {
            let len = [0, 1, lookahead - 1, lookahead, lookahead + 1, random_len]
                [len_choice as usize];
            let stream: Vec<Access> =
                (0..len).map(|k| to_access(&refs[(next + k) % refs.len()])).collect();
            next += len;
            let vis = [Visibility::Primary, Visibility::PrimaryFlushPending, Visibility::Harvest]
                [vis as usize];
            match flush {
                1 => prop_assert_eq!(walked.flush_harvest_region(), looped.flush_harvest_region()),
                2 => prop_assert_eq!(walked.flush_all(), looped.flush_all()),
                _ => {}
            }
            let start = Cycles::new(start);
            let total = walked.walk(start, stream.iter().copied(), vis, &mut llc, &mut dram);
            let mut expected = Cycles::ZERO;
            for &acc in &stream {
                let now = if mshrs.is_some() { start + expected } else { start };
                expected += looped.access(now, acc, vis, &mut looped_llc, &mut looped_dram).stall;
            }
            prop_assert_eq!(total, expected, "phase {} ({} refs)", i, len);
        }
        prop_assert_eq!(walked.structure_stats(), looped.structure_stats());
        prop_assert_eq!(walked.l2_split(), looped.l2_split());
        prop_assert_eq!(walked.flush_stats(), looped.flush_stats());
        for set in 0..walked.l2().sets() {
            let (w, l) = (walked.l2().way_states(set), looped.l2().way_states(set));
            prop_assert_eq!(w, l, "L2 set {}", set);
        }
        prop_assert_eq!(llc.stats(), looped_llc.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The split walk — `walk_private`, `walk_llc`, `walk_timing` at an
    /// explicit DRAM weight — returns the
    /// same stall totals and leaves the same statistics, L2 and LLC state
    /// as the per-reference `access` loop at that weight, phase after
    /// phase, at the ring's edge lengths, under every visibility, MSHR
    /// setting and policy, and in infinite mode.
    #[test]
    fn split_walk_matches_per_reference_access(
        policy in policies(),
        mshrs in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(4))],
        infinite in prop_oneof![Just(false), Just(false), Just(false), Just(true)],
        weight in prop_oneof![Just(1.0f64), Just(3.0f64)],
        (refs, phases) in (raw_refs(), raw_phases()),
    ) {
        let config = tiny_hierarchy(mshrs);
        let mut walked = CoreMem::new(&config, 0.5, policy);
        walked.set_infinite(infinite);
        let mut looped = walked.clone();
        looped.set_dram_weight(weight);
        let (mut llc, mut dram) = (Llc::new(18, 16, &[2, 2, 3]), Dram::default());
        let (mut looped_llc, mut looped_dram) = (llc.clone(), dram.clone());
        let lookahead = CoreMem::LOOKAHEAD;
        let mut trace = WalkTrace::default();
        let mut next = 0;
        for (i, &(len_choice, random_len, vis, flush, start)) in phases.iter().enumerate() {
            let len = [0, 1, lookahead - 1, lookahead, lookahead + 1, random_len]
                [len_choice as usize];
            // One VM per phase, as a server's streams are.
            let vm = (i % 3) as u16;
            let stream: Vec<Access> = (0..len)
                .map(|k| {
                    let (_, addr, kind, shared) = refs[(next + k) % refs.len()];
                    to_access(&(vm, addr, kind, shared))
                })
                .collect();
            next += len;
            let vis = [Visibility::Primary, Visibility::PrimaryFlushPending, Visibility::Harvest]
                [vis as usize];
            match flush {
                1 => prop_assert_eq!(walked.flush_harvest_region(), looped.flush_harvest_region()),
                2 => prop_assert_eq!(walked.flush_all(), looped.flush_all()),
                _ => {}
            }
            let start = Cycles::new(start);
            walked.walk_private(stream.iter().copied(), vis, &mut trace);
            trace.walk_llc(&mut llc);
            let total = walked.walk_timing(start, &trace, weight, &mut dram);
            let mut expected = Cycles::ZERO;
            for &acc in &stream {
                let now = if mshrs.is_some() { start + expected } else { start };
                expected += looped.access(now, acc, vis, &mut looped_llc, &mut looped_dram).stall;
            }
            prop_assert_eq!(total, expected, "phase {} ({} refs)", i, len);
            prop_assert_eq!(dram.accesses(), looped_dram.accesses());
        }
        prop_assert_eq!(walked.structure_stats(), looped.structure_stats());
        prop_assert_eq!(walked.l2_split(), looped.l2_split());
        prop_assert_eq!(walked.flush_stats(), looped.flush_stats());
        for set in 0..walked.l2().sets() {
            let (w, l) = (walked.l2().way_states(set), looped.l2().way_states(set));
            prop_assert_eq!(w, l, "L2 set {}", set);
        }
        prop_assert_eq!(llc.stats(), looped_llc.stats());
    }
}
