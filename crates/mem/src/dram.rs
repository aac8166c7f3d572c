//! Banked main-memory latency model (stands in for DRAMSim2).
//!
//! Table 1: 128 GB DDR4-3200, 4 memory controllers, 102.4 GB/s per socket.
//! The model captures the two effects the evaluation depends on: a base
//! access latency and queueing at banks under load (which penalizes the
//! memory-intensive Harvest workloads like RndFTrain in Figure 17).

use hh_sim::Cycles;
use serde::{Deserialize, Serialize};

/// DRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of independently schedulable banks (channels × banks).
    pub banks: usize,
    /// Idle access latency.
    pub access: Cycles,
    /// Bank busy time per access (occupancy that creates queueing).
    pub bank_busy: Cycles,
}

impl DramConfig {
    /// Table 1-like defaults: 4 controllers × 16 banks, ~60 ns idle
    /// latency, ~15 ns bank occupancy.
    pub fn table1() -> Self {
        DramConfig {
            banks: 64,
            access: Cycles::from_ns(60.0),
            bank_busy: Cycles::from_ns(15.0),
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// The banked DRAM model. Each access picks a bank by address hash; if the
/// bank is still busy with earlier accesses, the request queues behind it.
///
/// # Example
///
/// ```
/// use hh_mem::Dram;
/// use hh_sim::Cycles;
///
/// let mut dram = Dram::default();
/// let lat = dram.access(Cycles::ZERO, 0x1234);
/// assert!(lat >= Cycles::from_ns(60.0));
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    busy_until: Vec<Cycles>,
    accesses: u64,
}

impl Default for Dram {
    fn default() -> Self {
        Self::new(DramConfig::default())
    }
}

impl Dram {
    /// Creates an idle DRAM.
    ///
    /// # Panics
    /// Panics if `config.banks` is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.banks > 0, "at least one bank required");
        Dram {
            config,
            busy_until: vec![Cycles::ZERO; config.banks],
            accesses: 0,
        }
    }

    /// Issues an access to line `key` at absolute time `now`; returns the
    /// total latency (queueing + access).
    pub fn access(&mut self, now: Cycles, key: u64) -> Cycles {
        self.access_weighted(now, key, 1.0)
    }

    /// Issues an access standing in for `weight` real accesses (used by
    /// subsampled reference streams): the bank stays busy `weight ×`
    /// longer, so bandwidth saturation appears at the *real* access rate.
    ///
    /// # Panics
    /// Panics if `weight` is not at least 1.
    pub fn access_weighted(&mut self, now: Cycles, key: u64, weight: f64) -> Cycles {
        assert!(weight >= 1.0, "weight must be >= 1");
        self.accesses += 1;
        // Spread consecutive lines across banks.
        let bank = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.config.banks as u64) as usize;
        let start = now.max(self.busy_until[bank]);
        let busy = (self.config.bank_busy.as_u64() as f64 * weight).round() as u64;
        self.busy_until[bank] = start + Cycles::new(busy);
        (start - now) + self.config.access
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn idle_access_is_base_latency() {
        let mut d = Dram::default();
        assert_eq!(d.access(Cycles::ZERO, 42), Cycles::from_ns(60.0));
        assert_eq!(d.accesses(), 1);
    }

    #[test]
    fn same_bank_back_to_back_queues() {
        let mut d = Dram::new(DramConfig {
            banks: 1,
            access: Cycles::new(100),
            bank_busy: Cycles::new(50),
        });
        assert_eq!(d.access(Cycles::ZERO, 1), Cycles::new(100));
        // Bank busy until 50, so a second access at t=0 waits 50.
        assert_eq!(d.access(Cycles::ZERO, 2), Cycles::new(150));
    }

    #[test]
    fn banks_drain_over_time() {
        let mut d = Dram::new(DramConfig {
            banks: 1,
            access: Cycles::new(100),
            bank_busy: Cycles::new(50),
        });
        d.access(Cycles::ZERO, 1);
        // Much later the bank is idle again.
        assert_eq!(d.access(Cycles::new(1000), 2), Cycles::new(100));
    }

    #[test]
    fn different_addresses_spread_across_banks() {
        let mut d = Dram::default();
        let lats: Vec<Cycles> = (0..32).map(|k| d.access(Cycles::ZERO, k)).collect();
        let base = Cycles::from_ns(60.0);
        let uncontended = lats.iter().filter(|&&l| l == base).count();
        assert!(uncontended > 16, "hashing should spread most accesses");
    }

    #[test]
    fn weighted_access_extends_bank_occupancy() {
        let mut d = Dram::new(DramConfig {
            banks: 1,
            access: Cycles::new(100),
            bank_busy: Cycles::new(10),
        });
        // One access standing in for 16 keeps the bank busy 160 cycles.
        d.access_weighted(Cycles::ZERO, 1, 16.0);
        assert_eq!(d.access(Cycles::ZERO, 2), Cycles::new(260));
    }

    #[test]
    #[should_panic(expected = "weight must be >= 1")]
    fn sub_unit_weight_panics() {
        Dram::default().access_weighted(Cycles::ZERO, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        Dram::new(DramConfig {
            banks: 0,
            access: Cycles::new(1),
            bank_busy: Cycles::new(1),
        });
    }
}
