//! Lockstep differential drivers with pinpointed divergence reports.
//!
//! A bare `assert_eq!(optimized, reference)` over final statistics tells
//! you two runs disagreed, not *when* or *about what*. The drivers here
//! replay one operation at a time through both implementations and stop at
//! the first observable difference, reporting the operation index, the
//! operation itself, the field that differed, and — for caches — the full
//! way-state dump of the diverging set in both models.

use std::fmt;

use hh_mem::{CacheOp, CacheStats, PolicyKind, SetAssocCache, WayMask, WayState};
use hh_sim::stats::Samples;
use hh_workload::OpTrace;

use crate::refcache::RefCache;
use crate::refsamples::RefSamples;

/// The first observable difference between the optimized implementation
/// and its reference model.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the operation at which the two models first disagreed
    /// (or, for cluster comparisons, the server index).
    pub index: usize,
    /// Human-readable description of that operation / unit.
    pub context: String,
    /// Which observable differed (`"AccessOutcome"`, `"way states"`,
    /// `"percentile(0.99)"`, …).
    pub field: &'static str,
    /// The optimized implementation's value, rendered.
    pub optimized: String,
    /// The reference model's value, rendered.
    pub reference: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence at op {} ({}): {} differs\n  optimized: {}\n  reference: {}",
            self.index, self.context, self.field, self.optimized, self.reference
        )
    }
}

impl std::error::Error for Divergence {}

/// Renders a set's way states one way per line, for divergence reports.
fn render_ways(states: &[WayState]) -> String {
    states
        .iter()
        .map(|s| {
            format!(
                "way {}: valid={} tag={:#x} shared={} dirty={} rrpv={} stamp={}",
                s.way, s.valid, s.tag, s.shared, s.dirty, s.rrpv, s.stamp
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Replays `trace` through the optimized [`SetAssocCache`] and the naive
/// [`RefCache`] in lockstep. After every operation the per-access outcome,
/// the running statistics, and the way states of the touched set must
/// match; after the whole trace, every set is swept. Returns the agreed
/// final statistics, or the first [`Divergence`].
pub fn diff_cache(
    sets: usize,
    ways: usize,
    policy: PolicyKind,
    harvest_mask: WayMask,
    trace: &OpTrace,
) -> Result<CacheStats, Box<Divergence>> {
    let mut opt = SetAssocCache::new(sets, ways, policy, harvest_mask);
    let mut reference = RefCache::new(sets, ways, policy, harvest_mask);

    for (i, op) in trace.ops().iter().enumerate() {
        match *op {
            CacheOp::Access {
                key,
                shared,
                write,
                allowed,
            } => {
                let context = format!(
                    "Access {{ key: {key:#x}, shared: {shared}, write: {write}, allowed: {allowed} }}"
                );
                let a = opt.access(key, shared, allowed, write);
                let b = reference.access(key, shared, allowed, write);
                if a != b {
                    return Err(Box::new(Divergence {
                        index: i,
                        context,
                        field: "AccessOutcome",
                        optimized: format!("{a:?}"),
                        reference: format!("{b:?}"),
                    }));
                }
                let set = opt.set_of(key);
                let sa = opt.way_states(set);
                let sb = reference.way_states(set);
                if sa != sb {
                    return Err(Box::new(Divergence {
                        index: i,
                        context: format!("{context}, set {set}"),
                        field: "way states",
                        optimized: render_ways(&sa),
                        reference: render_ways(&sb),
                    }));
                }
            }
            CacheOp::InvalidateWays(mask) => {
                let a = opt.invalidate_ways(mask);
                let b = reference.invalidate_ways(mask);
                if a != b {
                    return Err(Box::new(Divergence {
                        index: i,
                        context: format!("InvalidateWays({mask})"),
                        field: "entries dropped",
                        optimized: a.to_string(),
                        reference: b.to_string(),
                    }));
                }
            }
            CacheOp::SetHarvestMask(mask) => {
                opt.set_harvest_mask(mask);
                reference.set_harvest_mask(mask);
            }
        }
        if opt.stats() != reference.stats() {
            return Err(Box::new(Divergence {
                index: i,
                context: format!("{op:?}"),
                field: "CacheStats",
                optimized: format!("{:?}", opt.stats()),
                reference: format!("{:?}", reference.stats()),
            }));
        }
    }

    // Final sweep: the whole structure, not just touched sets.
    for set in 0..sets {
        let sa = opt.way_states(set);
        let sb = reference.way_states(set);
        if sa != sb {
            return Err(Box::new(Divergence {
                index: trace.len(),
                context: format!("final sweep, set {set}"),
                field: "way states",
                optimized: render_ways(&sa),
                reference: render_ways(&sb),
            }));
        }
    }
    Ok(opt.stats())
}

/// One operation of a sample-set differential trace.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleOp {
    /// Record one observation.
    Record(f64),
    /// Merge a whole batch (possibly empty).
    Merge(Vec<f64>),
    /// Query the `q`-quantile.
    Percentile(f64),
    /// Query the mean.
    Mean,
    /// Query the maximum.
    Max,
    /// Query the minimum.
    Min,
}

/// Replays `ops` through the selection-based [`Samples`] and the
/// sort-based [`RefSamples`]. Every query must return the identical value
/// — nearest-rank selection picks an actual element, so results are
/// bitwise comparable, not approximately equal — and both sets must hold
/// the same number of observations after every operation.
pub fn diff_samples(ops: &[SampleOp]) -> Result<(), Box<Divergence>> {
    let mut opt = Samples::new();
    let mut reference = RefSamples::new();

    #[expect(
        clippy::float_cmp,
        reason = "nearest-rank selection returns an actual sample, so both models must agree bit for bit"
    )]
    fn compare(
        i: usize,
        op: &SampleOp,
        n: usize,
        field: &'static str,
        a: f64,
        b: f64,
    ) -> Result<(), Box<Divergence>> {
        if a == b {
            Ok(())
        } else {
            Err(Box::new(Divergence {
                index: i,
                context: format!("{op:?} over {n} samples"),
                field,
                optimized: a.to_string(),
                reference: b.to_string(),
            }))
        }
    }

    for (i, op) in ops.iter().enumerate() {
        let n = reference.len();
        match op {
            SampleOp::Record(v) => {
                opt.record(*v);
                reference.record(*v);
            }
            SampleOp::Merge(batch) => {
                let other: Samples = batch.iter().copied().collect();
                opt.merge(&other);
                reference.merge_values(batch);
            }
            SampleOp::Percentile(q) => compare(
                i,
                op,
                n,
                "percentile",
                opt.percentile(*q),
                reference.percentile(*q),
            )?,
            SampleOp::Mean => compare(i, op, n, "mean", opt.mean(), reference.mean())?,
            SampleOp::Max => compare(i, op, n, "max", opt.max(), reference.max())?,
            SampleOp::Min => compare(i, op, n, "min", opt.min(), reference.min())?,
        }
        if opt.len() != reference.len() {
            return Err(Box::new(Divergence {
                index: i,
                context: format!("{op:?}"),
                field: "len",
                optimized: opt.len().to_string(),
                reference: reference.len().to_string(),
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru_trace() -> OpTrace {
        let all = WayMask::all(4);
        let harvest = WayMask::lower(2);
        let mut t = OpTrace::new();
        for k in 0..12u64 {
            t.access(k, k % 3 == 0, k % 5 == 0, all);
        }
        // Restricted accesses create stale disallowed copies…
        for k in 0..6u64 {
            t.access(k, false, true, harvest.complement(4));
        }
        // …which the harvest-restricted misses must invalidate.
        for k in 0..6u64 {
            t.access(k, false, false, harvest);
        }
        t.record_flush(harvest);
        t.record_harvest_mask(WayMask::lower(1));
        for k in 20..30u64 {
            t.access(k, k % 2 == 0, false, all);
        }
        t
    }

    #[test]
    fn optimized_and_reference_agree_on_mixed_trace() {
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Rrip,
            PolicyKind::hardharvest_default(),
        ] {
            let stats = diff_cache(4, 4, policy, WayMask::lower(2), &lru_trace())
                .unwrap_or_else(|d| panic!("{policy:?}: {d}"));
            assert!(stats.accesses() > 0);
        }
    }

    #[test]
    fn divergence_report_pinpoints_the_op() {
        // Same trace through two *different* geometries is guaranteed to
        // diverge; fake it by comparing a cache against a reference with a
        // different harvest mask via a SetHarvestMask op applied to only
        // one — instead, assert the Display format on a hand-built value.
        let d = Divergence {
            index: 17,
            context: "Access { key: 0x2a }".to_string(),
            field: "AccessOutcome",
            optimized: "hit".to_string(),
            reference: "miss".to_string(),
        };
        let msg = d.to_string();
        assert!(msg.contains("op 17"));
        assert!(msg.contains("AccessOutcome"));
        assert!(msg.contains("optimized: hit"));
        assert!(msg.contains("reference: miss"));
    }

    #[test]
    fn sample_paths_agree_including_cached_sort() {
        let mut ops = vec![
            SampleOp::Record(5.0),
            SampleOp::Record(-2.0),
            SampleOp::Record(3.5),
            SampleOp::Max,
            SampleOp::Min,
            SampleOp::Percentile(0.0),
            SampleOp::Percentile(0.5), // repeated queries must not
            SampleOp::Percentile(0.5), // perturb later answers…
            SampleOp::Percentile(0.5),
            SampleOp::Percentile(0.99),
            SampleOp::Merge(vec![]), // …nor an empty merge between them
            SampleOp::Percentile(1.0),
            SampleOp::Merge(vec![7.0, -9.0]),
            SampleOp::Percentile(0.25),
            SampleOp::Mean,
        ];
        diff_samples(&ops).unwrap_or_else(|d| panic!("{d}"));
        // All-negative data: the max fix is visible through the driver.
        ops.insert(0, SampleOp::Record(-100.0));
        diff_samples(&ops).unwrap_or_else(|d| panic!("{d}"));
    }

    #[test]
    fn empty_sample_set_queries_agree() {
        diff_samples(&[
            SampleOp::Max,
            SampleOp::Min,
            SampleOp::Mean,
            SampleOp::Percentile(0.0),
            SampleOp::Percentile(1.0),
            SampleOp::Merge(vec![]),
        ])
        .unwrap_or_else(|d| panic!("{d}"));
    }
}
