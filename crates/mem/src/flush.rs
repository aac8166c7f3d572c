//! Flush/invalidate latencies (paper Sections 3 and 4.2).
//!
//! Three mechanisms appear in the evaluation:
//!
//! * **software full flush** — `wbinvd` plus a fence: 300–500 µs on the
//!   measured IceLake server (Section 3), paid on every cross-VM switch in
//!   the software-harvesting baselines;
//! * **hardware full flush** — the efficient whole-hierarchy
//!   flush/invalidate hardware the paper borrows from prior work for the
//!   `+Flush` ablation step;
//! * **hardware harvest-region flush** — HardHarvest's partitioned flush:
//!   1000 cycles (Table 1), off the critical path when transitioning from
//!   Harvest back to Primary.

use hh_sim::{Cycles, Rng64};

/// Lower bound of the software `wbinvd`+fence latency.
pub const SOFTWARE_MIN: Cycles = Cycles::from_us(300.0);

/// Upper bound of the software `wbinvd`+fence latency.
pub const SOFTWARE_MAX: Cycles = Cycles::from_us(500.0);

/// Hardware-accelerated full-hierarchy flush (the `+Flush` step).
pub const HARDWARE_FULL: Cycles = Cycles::from_us(3.0);

/// Hardware harvest-region flush (Table 1: 1000 cycles). This is also the
/// fixed side-channel-free delay before a Harvest VM may begin executing
/// after a Primary→Harvest transition (Section 4.2.1: execution is
/// deferred by the *longest possible* flush duration).
pub const HARDWARE_REGION: Cycles = Cycles::new(1000);

/// Samples one software `wbinvd`+fence flush latency, uniform over
/// [`SOFTWARE_MIN`]`..=`[`SOFTWARE_MAX`].
pub fn software(rng: &mut Rng64) -> Cycles {
    Cycles::new(rng.range(SOFTWARE_MIN.as_u64(), SOFTWARE_MAX.as_u64() + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_flush_within_bounds() {
        let mut rng = Rng64::new(1);
        for _ in 0..1000 {
            let f = software(&mut rng);
            assert!((SOFTWARE_MIN..=SOFTWARE_MAX).contains(&f), "{f}");
        }
    }

    #[test]
    fn region_flush_is_1000_cycles() {
        assert_eq!(HARDWARE_REGION, Cycles::new(1000));
    }

    #[test]
    fn hardware_flush_is_orders_faster_than_software() {
        assert!(HARDWARE_FULL.as_us() * 50.0 < SOFTWARE_MIN.as_us());
        assert!(HARDWARE_REGION < HARDWARE_FULL);
    }
}
