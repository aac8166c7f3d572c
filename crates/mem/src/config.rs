//! Configuration of caches, TLBs and the hierarchy (paper Table 1).

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (64 in Table 1).
    pub line_bytes: usize,
    /// Round-trip hit latency in cycles.
    pub hit_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry does not divide evenly or any field is zero.
    pub fn sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.ways > 0 && self.line_bytes > 0);
        assert_eq!(
            self.size_bytes % self.line_bytes,
            0,
            "capacity must be a whole number of lines"
        );
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines % self.ways,
            0,
            "capacity must be a whole number of sets"
        );
        lines / self.ways
    }

    /// L1 data cache: 48 KB, 12-way, 5-cycle round trip, 64 B lines.
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 48 * 1024,
            ways: 12,
            line_bytes: 64,
            hit_cycles: 5,
        }
    }

    /// L1 instruction cache: 32 KB, 8-way, 5-cycle round trip.
    pub fn l1i() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_cycles: 5,
        }
    }

    /// L2 unified cache: 512 KB, 8-way, 13-cycle round trip.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_cycles: 13,
        }
    }
}

/// Geometry and latency of one TLB level. A TLB is simulated as a
/// set-associative structure over 4 KiB page numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Round-trip hit latency in cycles.
    pub hit_cycles: u64,
}

impl TlbConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if `entries` is not a multiple of `ways` or any field is zero.
    pub fn sets(&self) -> usize {
        assert!(self.entries > 0 && self.ways > 0);
        assert_eq!(self.entries % self.ways, 0);
        self.entries / self.ways
    }

    /// L1 TLB: 128 entries, 4-way, 2-cycle round trip.
    pub fn l1() -> Self {
        TlbConfig {
            entries: 128,
            ways: 4,
            hit_cycles: 2,
        }
    }

    /// L2 TLB: 2048 entries, 8-way, 12-cycle round trip.
    pub fn l2() -> Self {
        TlbConfig {
            entries: 2048,
            ways: 8,
            hit_cycles: 12,
        }
    }
}

/// Round-trip latency of the shared LLC in cycles (Table 1: 36).
pub const LLC_HIT_CYCLES: u64 = 36;

/// Shared-LLC geometry (per-server; Table 1: per core 2 MB, 16-way,
/// non-inclusive of the L2). Its latency is [`LLC_HIT_CYCLES`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Capacity *per core* in bytes; the server LLC is `cores ×` this.
    pub per_core_bytes: usize,
    /// Associativity of each LLC set.
    pub ways: usize,
    /// Cores contributing slices.
    pub cores: usize,
}

impl LlcConfig {
    /// Table 1 default: 2 MB/core, 16-way, 36 cores.
    pub fn table1() -> Self {
        LlcConfig {
            per_core_bytes: 2 * 1024 * 1024,
            ways: 16,
            cores: 36,
        }
    }

    /// Total LLC bytes in the server.
    pub fn total_bytes(&self) -> usize {
        self.per_core_bytes * self.cores
    }

    /// Equivalent [`CacheConfig`] for the aggregated LLC.
    pub fn as_cache(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.total_bytes(),
            ways: self.ways,
            line_bytes: 64,
            hit_cycles: LLC_HIT_CYCLES,
        }
    }
}

/// Full per-core hierarchy configuration plus the latency constants used to
/// convert miss chains into stall cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L1 TLB geometry (modeled once, shared I/D capacity).
    pub l1_tlb: TlbConfig,
    /// Unified L2 TLB geometry.
    pub l2_tlb: TlbConfig,
    /// Page-walk cost on an L2-TLB miss, in cycles (pointer chase through
    /// the cache hierarchy, collapsed to a constant).
    pub page_walk_cycles: u64,
    /// Fraction of a data-miss latency that the out-of-order core cannot
    /// hide (memory-level-parallelism discount). Instruction fetches are
    /// never discounted: the front end stalls.
    pub data_stall_factor: f64,
    /// Optional miss-status-holding-register modeling (Table 1: 32 MSHRs).
    /// When set, misses past the L2 contend for this many outstanding-miss
    /// slots and the reference stream advances a per-phase time cursor.
    /// `None` (default) keeps the simpler flat-latency model the
    /// calibration in DESIGN.md §8 is anchored to. `Some(0)` is invalid.
    pub mshrs: Option<usize>,
}

impl HierarchyConfig {
    /// Table 1 defaults.
    pub fn table1() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            l1_tlb: TlbConfig::l1(),
            l2_tlb: TlbConfig::l2(),
            page_walk_cycles: 120,
            data_stall_factor: 0.45,
            mshrs: None,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1d().sets(), 64); // 48K/64/12
        assert_eq!(CacheConfig::l1i().sets(), 64); // 32K/64/8
        assert_eq!(CacheConfig::l2().sets(), 1024); // 512K/64/8
        assert_eq!(TlbConfig::l1().sets(), 32);
        assert_eq!(TlbConfig::l2().sets(), 256);
    }

    #[test]
    fn llc_aggregation() {
        let llc = LlcConfig::table1();
        assert_eq!(llc.total_bytes(), 72 * 1024 * 1024);
        let c = llc.as_cache();
        assert_eq!(c.ways, 16);
        assert_eq!(c.sets(), 72 * 1024 * 1024 / 64 / 16);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 1024,
            ways: 3,
            line_bytes: 64,
            hit_cycles: 1,
        }
        .sets();
    }

    #[test]
    #[should_panic(expected = "whole number of lines")]
    fn non_line_multiple_panics() {
        CacheConfig {
            size_bytes: 1000,
            ways: 2,
            line_bytes: 64,
            hit_cycles: 1,
        }
        .sets();
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(HierarchyConfig::default(), HierarchyConfig::table1());
    }
}
