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

use hh_check::diff_cache;
use hh_mem::{PolicyKind, WayMask};
use hh_workload::OpTrace;
use proptest::prelude::*;

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Rrip),
        Just(PolicyKind::hardharvest_default()),
        Just(PolicyKind::HardHarvest { candidate_frac: 0.5 }),
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
