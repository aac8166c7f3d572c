//! Cache-operation trace recording for the differential oracle.
//!
//! The `hh-check` crate replays identical operation sequences through the
//! optimized `SetAssocCache` and its naive reference model and reports the
//! first divergence. The traces come from two sources: property-generated
//! sequences (built op by op with [`OpTrace::push`]) and recordings of the
//! workload synthesizer's own phase streams ([`OpTrace::record_phase`]),
//! so the oracle exercises exactly the address mixes the simulation
//! produces — skewed shared/private references, harvest-restricted masks,
//! region flushes and HarvestMask reloads.

use hh_mem::{CacheOp, WayMask};
use serde::{Deserialize, Serialize};

use crate::StreamSpec;

/// An ordered cache-operation trace, replayable through any cache model.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpTrace {
    ops: Vec<CacheOp>,
}

impl OpTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        OpTrace::default()
    }

    /// The recorded operations in issue order.
    pub fn ops(&self) -> &[CacheOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends one operation.
    pub fn push(&mut self, op: CacheOp) {
        self.ops.push(op);
    }

    /// Appends one access.
    pub fn access(&mut self, key: u64, shared: bool, write: bool, allowed: WayMask) {
        self.ops.push(CacheOp::Access {
            key,
            shared,
            write,
            allowed,
        });
    }

    /// Records every reference of a phase stream under `allowed`, in
    /// stream order — the trace replays bit-identically to what
    /// `SetAssocCache::access` sees when the stream is walked directly.
    pub fn record_phase(&mut self, spec: &StreamSpec, allowed: WayMask) {
        self.ops.reserve(spec.accesses as usize);
        for acc in spec.iter() {
            self.access(
                acc.line(),
                acc.class.is_shared(),
                acc.kind.is_write(),
                allowed,
            );
        }
    }

    /// Records a harvest-region flush.
    pub fn record_flush(&mut self, mask: WayMask) {
        self.ops.push(CacheOp::InvalidateWays(mask));
    }

    /// Records a HarvestMask reload.
    pub fn record_harvest_mask(&mut self, mask: WayMask) {
        self.ops.push(CacheOp::SetHarvestMask(mask));
    }
}

impl FromIterator<CacheOp> for OpTrace {
    fn from_iter<I: IntoIterator<Item = CacheOp>>(iter: I) -> Self {
        OpTrace {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sim::VmId;

    fn spec() -> StreamSpec {
        StreamSpec {
            vm: VmId(1),
            shared_base: StreamSpec::shared_base_for(0),
            shared_lines: 300,
            private_base: StreamSpec::private_base_for(3),
            private_lines: 100,
            accesses: 500,
            ifetch_frac: 0.3,
            shared_data_frac: 0.5,
            seed: 11,
            uniform_private: false,
        }
    }

    #[test]
    fn phase_recording_matches_the_stream() {
        let mut t = OpTrace::new();
        let mask = WayMask::lower(4);
        t.record_phase(&spec(), mask);
        assert_eq!(t.len(), 500);
        let direct: Vec<CacheOp> = spec()
            .iter()
            .map(|a| CacheOp::Access {
                key: a.line(),
                shared: a.class.is_shared(),
                write: a.kind.is_write(),
                allowed: mask,
            })
            .collect();
        assert_eq!(t.ops(), &direct[..]);
    }

    #[test]
    fn mixed_ops_keep_issue_order() {
        let mut t = OpTrace::new();
        t.access(7, true, false, WayMask::lower(2));
        t.record_flush(WayMask::lower(2));
        t.record_harvest_mask(WayMask::lower(1));
        assert_eq!(t.len(), 3);
        assert!(matches!(t.ops()[1], CacheOp::InvalidateWays(_)));
        assert!(matches!(t.ops()[2], CacheOp::SetHarvestMask(_)));
        let copy: OpTrace = t.ops().iter().copied().collect();
        assert_eq!(copy, t);
    }
}
