//! Storage, area and power cost accounting (paper Section 6.8).
//!
//! The paper counts, per server:
//!
//! * the controller: a 2K-entry RQ at 66 bits/entry (2 status bits + a
//!   64-bit payload pointer) plus, per QM/VM-State pair, 16 × 8 B state
//!   registers, a 24 B RQ-Map and a 5 B HarvestMask — 18.9 KB total;
//! * one extra `Shared` bit in every TLB, L1 D-cache and L2 cache entry —
//!   67.8 KB per 36-core server in the paper's accounting;
//! * area/power overheads of 0.19 % / 0.16 % of the multicore after McPAT
//!   modeling scaled to 7 nm.
//!
//! [`StorageCost`] recomputes the controller numbers exactly from first
//! principles and estimates the area/power fractions with a documented
//! SRAM-bit ratio model (we do not re-implement McPAT; the estimate's job
//! is to confirm the *order of magnitude*, which it does).

use serde::{Deserialize, Serialize};

use crate::ControllerConfig;

/// Bit-level inventory of the structures HardHarvest adds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageCost {
    /// RQ bits: entries × 66.
    pub rq_bits: u64,
    /// Per-QM bits (state registers + RQ-Map + HarvestMask) × QM count.
    pub qm_bits: u64,
    /// Extra `Shared` bits across all cores' TLBs, L1D and L2.
    pub shared_bits: u64,
    /// Number of cores the shared bits were counted over.
    pub cores: usize,
}

/// Bits per RQ entry: 2 status bits + 64-bit payload pointer.
pub const RQ_ENTRY_BITS: u64 = 66;

/// VM State Register Set: 16 registers × 8 B (VMCS pointer, CR0/3/4,
/// GDTR, LDTR, IDTR, …).
pub const VM_STATE_BYTES: u64 = 16 * 8;

/// RQ-Map size: 32 entries × (5-bit physical chunk id + 1 valid bit) = 24 B.
pub const RQ_MAP_BYTES: u64 = 24;

/// HarvestMask register: one bit per way across the six partitioned
/// structures, rounded to 5 B.
pub const HARVEST_MASK_BYTES: u64 = 5;

impl StorageCost {
    /// Computes the inventory for a controller configuration and the Table 1
    /// per-core structure geometry.
    ///
    /// `l1d_lines`, `l2_lines`, `l1_tlb_entries`, `l2_tlb_entries` are per
    /// core; `cores` is per server (36 in the paper).
    pub fn compute(
        config: &ControllerConfig,
        cores: usize,
        l1d_lines: u64,
        l2_lines: u64,
        l1_tlb_entries: u64,
        l2_tlb_entries: u64,
    ) -> Self {
        let rq_entries = (config.chunks * config.entries_per_chunk) as u64;
        let rq_bits = rq_entries * RQ_ENTRY_BITS;
        let per_qm_bits = (VM_STATE_BYTES + RQ_MAP_BYTES + HARVEST_MASK_BYTES) * 8;
        let qm_bits = per_qm_bits * config.max_vms as u64;
        let per_core_shared = l1d_lines + l2_lines + l1_tlb_entries + l2_tlb_entries;
        StorageCost {
            rq_bits,
            qm_bits,
            shared_bits: per_core_shared * cores as u64,
            cores,
        }
    }

    /// The paper's exact configuration: Table 1 geometry, 36 cores.
    pub fn paper() -> Self {
        Self::compute(
            &ControllerConfig::table1(),
            36,
            48 * 1024 / 64,  // L1D lines
            512 * 1024 / 64, // L2 lines
            128,             // L1 TLB entries
            2048,            // L2 TLB entries
        )
    }

    /// Controller storage in bytes (paper: 18.9 KB).
    pub fn controller_bytes(&self) -> u64 {
        (self.rq_bits + self.qm_bits) / 8
    }

    /// Controller storage per core in bytes (paper: 0.53 KB).
    pub fn controller_bytes_per_core(&self) -> f64 {
        self.controller_bytes() as f64 / self.cores as f64
    }

    /// Shared-bit storage in bytes per server.
    pub fn shared_bit_bytes(&self) -> u64 {
        self.shared_bits / 8
    }

    /// Total added bytes per server.
    pub fn total_bytes(&self) -> u64 {
        self.controller_bytes() + self.shared_bit_bytes()
    }

    /// Estimated area overhead as a fraction of the multicore.
    ///
    /// Model: added SRAM bits relative to the chip's dominant SRAM budget
    /// (LLC + L2 + L1s), times a periphery factor of 2.0 for the added
    /// structures' decoders/comparators/muxes, times a logic-dilution
    /// factor of 0.55 (caches are roughly half the die of a server core
    /// complex). The paper's McPAT number is 0.19 %.
    pub fn area_fraction(&self, chip_sram_bytes: u64) -> f64 {
        let periphery = 2.0;
        let sram_share_of_die = 0.55;
        (self.total_bytes() as f64 * periphery) / chip_sram_bytes as f64 * sram_share_of_die
    }

    /// Estimated power overhead as a fraction of the multicore; SRAM
    /// leakage/dynamic scales close to capacity, and the control structures
    /// are accessed far less often than L1s, so power tracks slightly below
    /// area. The paper's McPAT number is 0.16 %.
    pub fn power_fraction(&self, chip_sram_bytes: u64) -> f64 {
        self.area_fraction(chip_sram_bytes) * 0.85
    }

    /// The chip SRAM budget of the Table 1 server: 72 MB LLC + 36 × 512 KB
    /// L2 + 36 × 80 KB L1.
    pub fn table1_chip_sram_bytes() -> u64 {
        72 * 1024 * 1024 + 36 * 512 * 1024 + 36 * 80 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_storage_matches_paper() {
        let s = StorageCost::paper();
        // 2048 entries × 66 bits = 16,896 B; 16 × 157 B = 2,512 B;
        // total 19,408 B ≈ 18.95 KB — the paper reports 18.9 KB.
        assert_eq!(s.rq_bits, 2048 * 66);
        assert_eq!(s.controller_bytes(), 19_408);
        let kb = s.controller_bytes() as f64 / 1024.0;
        assert!((kb - 18.9).abs() < 0.1, "controller {kb:.2} KB");
        // 0.53 KB per core.
        let per_core_kb = s.controller_bytes_per_core() / 1024.0;
        assert!(
            (per_core_kb - 0.53).abs() < 0.01,
            "{per_core_kb:.3} KB/core"
        );
    }

    #[test]
    fn shared_bits_are_tens_of_kb() {
        let s = StorageCost::paper();
        let kb = s.shared_bit_bytes() as f64 / 1024.0;
        // Our first-principles count gives ~49 KB; the paper reports
        // 67.8 KB (they appear to count additional per-entry metadata).
        // Same order, same conclusion: negligible.
        assert!((40.0..90.0).contains(&kb), "shared bits {kb:.1} KB");
    }

    #[test]
    fn area_and_power_fractions_are_sub_percent() {
        let s = StorageCost::paper();
        let sram = StorageCost::table1_chip_sram_bytes();
        let area = s.area_fraction(sram) * 100.0;
        let power = s.power_fraction(sram) * 100.0;
        assert!(area < 0.5, "area {area:.3}%");
        assert!(power < area, "power {power:.3}% < area");
        assert!(area > 0.01, "not absurdly small either: {area:.4}%");
    }

    #[test]
    fn cost_scales_with_cores() {
        let small = StorageCost::compute(&ControllerConfig::table1(), 8, 768, 8192, 128, 2048);
        let big = StorageCost::compute(&ControllerConfig::table1(), 64, 768, 8192, 128, 2048);
        assert_eq!(small.controller_bytes(), big.controller_bytes());
        assert!(big.shared_bit_bytes() > small.shared_bit_bytes());
    }
}
