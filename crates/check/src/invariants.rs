//! Structural invariants over simulator state, as reusable
//! [`Invariant`] implementations.
//!
//! Each type here packages one rule about a concrete simulator structure.
//! They compose into [`InvariantSet`](hh_sim::InvariantSet)s used three
//! ways: the `hh-check` binary sweeps them over generated states, the
//! proptest suites assert them on arbitrary inputs, and hand-written tests
//! call them directly.
//! (`ServerSim` carries its own internal set — built from the same
//! machinery — because its invariants need access to private state.)

use hh_hwqueue::{Controller, Subqueue};
use hh_mem::{BeladyCache, SetAssocCache, TraceOp, WayMask};
use hh_sim::invariant::Invariant;
use hh_sim::stats::Samples;
use hh_workload::{OpTrace, RecordedOp};

/// Cache partition/structure invariant: within every set no tag is stored
/// twice among valid ways (the stale-copy invalidation rule exists to
/// guarantee exactly this), RRPVs stay within their 2-bit encoding, and
/// the harvest/non-harvest occupancy split accounts for every valid entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachePartition;

impl Invariant<SetAssocCache> for CachePartition {
    fn name(&self) -> &'static str {
        "cache-partition-isolation"
    }

    fn check(&self, c: &SetAssocCache) -> Result<(), String> {
        let harvest = c.harvest_mask();
        let non_harvest = harvest.complement(c.ways());
        let split = c.occupancy_in(harvest) + c.occupancy_in(non_harvest);
        if split != c.occupancy() {
            return Err(format!(
                "harvest ({}) + non-harvest ({}) occupancy != total ({})",
                c.occupancy_in(harvest),
                c.occupancy_in(non_harvest),
                c.occupancy()
            ));
        }
        for set in 0..c.sets() {
            let states = c.way_states(set);
            for a in &states {
                if a.rrpv > 3 {
                    return Err(format!("set {set} way {}: rrpv {} > 3", a.way, a.rrpv));
                }
                if !a.valid {
                    continue;
                }
                for b in &states[a.way + 1..] {
                    if b.valid && b.tag == a.tag {
                        return Err(format!(
                            "set {set}: tag {:#x} duplicated in ways {} and {}",
                            a.tag, a.way, b.way
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Percentile monotonicity: for any sample set, quantiles are
/// non-decreasing in `q`, bounded by min and max, and a claimed sort cache
/// reflects truly sorted storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct PercentileMonotone;

impl Invariant<Samples> for PercentileMonotone {
    fn name(&self) -> &'static str {
        "percentile-monotonicity"
    }

    fn check(&self, s: &Samples) -> Result<(), String> {
        if s.is_sorted_cached() {
            let v = s.values();
            if let Some(i) = v.windows(2).position(|w| w[0] > w[1]) {
                return Err(format!(
                    "sort cache claimed but values[{i}]={} > values[{}]={}",
                    v[i],
                    i + 1,
                    v[i + 1]
                ));
            }
        }
        if s.is_empty() {
            return Ok(());
        }
        // `percentile` needs `&mut` (it may cache a sort); the check works
        // on a clone so the inspected state is never perturbed.
        let mut probe = s.clone();
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = probe.percentile(q);
            if p < prev {
                return Err(format!("percentile({q}) = {p} < previous quantile {prev}"));
            }
            prev = p;
        }
        let (min, max) = (s.min(), s.max());
        #[expect(
            clippy::float_cmp,
            reason = "percentile(0.0) selects the minimum sample itself, so it must equal min exactly"
        )]
        if probe.percentile(0.0) != min {
            return Err(format!(
                "percentile(0.0) = {} but min = {min}",
                probe.percentile(0.0)
            ));
        }
        #[expect(
            clippy::float_cmp,
            reason = "percentile(1.0) selects the maximum sample itself, so it must equal max exactly"
        )]
        if probe.percentile(1.0) != max {
            return Err(format!(
                "percentile(1.0) = {} but max = {max}",
                probe.percentile(1.0)
            ));
        }
        Ok(())
    }
}

/// Subqueue FIFO order: the arrival stamps of ready entries, in dequeue
/// order, never decrease — shedding chunks, promoting overflow entries and
/// preemption all preserve relative age.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubqueueFifo;

impl Invariant<Subqueue> for SubqueueFifo {
    fn name(&self) -> &'static str {
        "subqueue-fifo-order"
    }

    fn check(&self, q: &Subqueue) -> Result<(), String> {
        let arrivals = q.ready_arrivals();
        if arrivals.len() != q.ready_len() {
            return Err(format!(
                "ready_arrivals reports {} entries but ready_len is {}",
                arrivals.len(),
                q.ready_len()
            ));
        }
        if let Some(w) = arrivals.windows(2).find(|w| w[0] > w[1]) {
            return Err(format!(
                "ready entry arrived at {} queued behind one arrived at {}",
                w[1], w[0]
            ));
        }
        Ok(())
    }
}

/// RQ chunk conservation: every chunk of the controller's physical queue
/// is either free or owned by exactly one VM's RQ-Map.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkConservation;

impl Invariant<Controller> for ChunkConservation {
    fn name(&self) -> &'static str {
        "rq-chunk-conservation"
    }

    fn check(&self, c: &Controller) -> Result<(), String> {
        if c.chunk_accounting_ok() {
            Ok(())
        } else {
            Err(format!(
                "owned + free chunks do not cover the pool exactly (free = {})",
                c.free_chunks()
            ))
        }
    }
}

/// A replayed trace with the hit count an online policy achieved on it,
/// for [`BeladyUpperBound`].
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Cache sets the online run used.
    pub sets: usize,
    /// Cache ways the online run used.
    pub ways: usize,
    /// The replayable trace (Belady ignores `SetHarvestMask` ops: the
    /// oracle places by reuse distance, not by region preference).
    pub trace: Vec<TraceOp>,
    /// Hits the online replacement policy achieved on this trace.
    pub online_hits: u64,
}

/// Offline-optimal dominance: no online policy may beat the clairvoyant
/// Belady bound on the same trace and geometry.
#[derive(Debug, Clone, Copy, Default)]
pub struct BeladyUpperBound;

impl Invariant<TraceRun> for BeladyUpperBound {
    fn name(&self) -> &'static str {
        "belady-upper-bound"
    }

    fn check(&self, run: &TraceRun) -> Result<(), String> {
        let optimal = BeladyCache::new(run.sets, run.ways).run(&run.trace);
        if run.online_hits <= optimal.hits {
            Ok(())
        } else {
            Err(format!(
                "online policy scored {} hits, above the offline-optimal {} ({} accesses)",
                run.online_hits,
                optimal.hits,
                optimal.accesses()
            ))
        }
    }
}

/// Converts a recorded cache-operation trace to the Belady replay format.
/// `SetHarvestMask` ops are dropped — they alter victim *preference*, not
/// reachability — while accesses keep their allowed masks and flushes keep
/// their way sets.
pub fn to_belady_trace(trace: &OpTrace) -> Vec<TraceOp> {
    trace
        .ops()
        .iter()
        .filter_map(|op| match *op {
            RecordedOp::Access { key, allowed, .. } => Some(TraceOp::Access { key, allowed }),
            RecordedOp::InvalidateWays(mask) => Some(TraceOp::InvalidateWays(mask)),
            RecordedOp::SetHarvestMask(_) => None,
        })
        .collect()
}

/// The full structure-level invariant suite for a cache, ready to check.
pub fn cache_invariants() -> hh_sim::InvariantSet<SetAssocCache> {
    hh_sim::InvariantSet::new().with(CachePartition)
}

/// Ways a freshly constructed `WayMask` partition must split: helper used
/// by tests and the binary to build harvest/non-harvest pairs.
pub fn partition(ways: usize, harvest_ways: usize) -> (WayMask, WayMask) {
    let harvest = WayMask::lower(harvest_ways.min(ways));
    (harvest, harvest.complement(ways))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_hwqueue::ControllerConfig;
    use hh_mem::PolicyKind;
    use hh_sim::{Cycles, VmId};
    use hh_sim::invariant::InvariantSet;
    use hh_hwqueue::VmKind;

    #[test]
    fn healthy_cache_passes_partition_invariant() {
        let mut c = SetAssocCache::new(8, 4, PolicyKind::hardharvest_default(), WayMask::lower(2));
        let all = WayMask::all(4);
        for k in 0..64u64 {
            c.access(k, k % 2 == 0, all, k % 5 == 0);
        }
        cache_invariants()
            .check_all(&c)
            .expect("organic cache state must satisfy partition isolation");
    }

    #[test]
    fn percentile_monotone_on_organic_samples() {
        let s: Samples = [3.0, -1.0, 4.0, 1.0, 5.0, -9.0, 2.6].into_iter().collect();
        PercentileMonotone
            .check(&s)
            .expect("quantiles of real data must be monotone");
        PercentileMonotone
            .check(&Samples::new())
            .expect("empty set trivially passes");
    }

    #[test]
    fn subqueue_fifo_holds_through_stress() {
        let mut q = Subqueue::new(2, 4);
        let set = InvariantSet::new().with(SubqueueFifo);
        for t in 0..10 {
            q.enqueue(t, Cycles::new(t));
            set.check_all(&q).unwrap();
        }
        q.shed_chunks(1);
        set.check_all(&q).unwrap();
        let (t, _, _) = q.dequeue_ready().unwrap();
        q.complete(t);
        set.check_all(&q).unwrap();
    }

    #[test]
    fn controller_conserves_chunks() {
        let mut ctrl = Controller::new(ControllerConfig::table1());
        ctrl.register_vm(VmId(0), VmKind::Primary, 4);
        ctrl.register_vm(VmId(1), VmKind::Harvest, 2);
        ctrl.enqueue(VmId(0), 1, Cycles::ZERO);
        ChunkConservation.check(&ctrl).expect("fresh controller conserves chunks");
    }

    #[test]
    fn belady_dominates_lru_on_random_trace() {
        let all = WayMask::all(4);
        let mut trace = OpTrace::new();
        let mut x = 0x9e37_79b9u64;
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trace.access(x % 37, x.is_multiple_of(3), x.is_multiple_of(7), all);
        }
        let mut online = SetAssocCache::new(4, 4, PolicyKind::Lru, WayMask::lower(2));
        for op in trace.ops() {
            if let RecordedOp::Access { key, shared, write, allowed } = *op {
                online.access(key, shared, allowed, write);
            }
        }
        let run = TraceRun {
            sets: 4,
            ways: 4,
            trace: to_belady_trace(&trace),
            online_hits: online.stats().hits,
        };
        BeladyUpperBound.check(&run).expect("LRU must not beat Belady");
    }
}
