//! Harvest-VM batch applications.
//!
//! The paper runs one batch application per server's Harvest VM: graph
//! analytics from GraphBIG (BFS, CC, DC, PRank), ML training from
//! FunctionBench (LRTrain, RndFTrain), data analytics from CloudSuite
//! (Hadoop) and bioinformatics from BioBench (MUMmer). Throughput — work
//! units retired per second — is the Harvest VM's target metric
//! (Section 6.6).

use hh_sim::{Cycles, VmId};
use serde::Serialize;

use crate::StreamSpec;

/// A batch application model.
///
/// A job is an endless loop of *work units*; each unit burns
/// [`BatchJob::unit_us`] of compute and issues a synthetic reference stream
/// over a large working set. Because a Harvest VM only sees the harvest
/// region of the caches, memory-intensive jobs (high reference density,
/// large footprint) gain less from harvested cores — the effect Figure 17
/// shows for RndFTrain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchJob {
    /// Figure 17 label.
    pub name: &'static str,
    /// Warm compute time per work unit, µs.
    pub unit_us: f64,
    /// Working-set size in KiB (far larger than microservice footprints).
    pub footprint_kb: usize,
    /// Memory references per work unit.
    pub accesses_per_unit: u32,
    /// Fraction of references that are instruction fetches.
    pub ifetch_frac: f64,
    /// Per-extra-worker slowdown of a work unit (Amdahl-style
    /// synchronization/contention penalty; graph analytics and random
    /// forests scale notoriously sub-linearly).
    pub scaling_penalty: f64,
}

impl BatchJob {
    /// Compute per unit as cycles.
    pub fn unit_cycles(&self) -> Cycles {
        Cycles::from_us(self.unit_us)
    }

    /// Working set in cache lines.
    pub fn footprint_lines(&self) -> u64 {
        (self.footprint_kb * 1024 / 64) as u64
    }

    /// Reference density (accesses per µs of compute) — the memory
    /// intensity knob.
    pub fn intensity(&self) -> f64 {
        self.accesses_per_unit as f64 / self.unit_us
    }

    /// Builds the reference stream of one work unit executed by `vm`.
    ///
    /// Batch data is private to the job (no cross-invocation sharing); only
    /// its code region is marked shared.
    pub fn unit_stream(&self, vm: VmId, unit: u64) -> StreamSpec {
        StreamSpec {
            vm,
            // Batch code region: small, shared class.
            shared_base: 0x0800_0000,
            shared_lines: 256, // 16 KiB of hot code
            // Graph/ML working sets are walked with little locality:
            // references go uniformly over the whole footprint.
            private_base: 0x4000_0000,
            private_lines: self.footprint_lines().max(64),
            accesses: self.accesses_per_unit,
            ifetch_frac: self.ifetch_frac,
            shared_data_frac: 0.05,
            seed: unit.wrapping_mul(0xD134_2543_DE82_EF95),
            uniform_private: true,
        }
    }
}

/// The 8 batch applications, one per simulated server.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BatchCatalog {
    jobs: Vec<BatchJob>,
}

impl BatchCatalog {
    /// The Figure 17 set in figure order: BFS, CC, DC, PRank, LRTrain,
    /// RndFTrain, Hadoop, MUMmer.
    pub fn paper() -> Self {
        let j = |name, unit_us, footprint_kb, accesses_per_unit, scaling_penalty| BatchJob {
            name,
            unit_us,
            footprint_kb,
            accesses_per_unit,
            ifetch_frac: 0.15,
            scaling_penalty,
        };
        BatchCatalog {
            // Reference counts are *samples* of the real streams (the
            // simulator multiplies the resulting stalls back up via
            // `batch_stall_scale`); relative intensity is what matters and
            // RndFTrain stays the most memory-intensive.
            jobs: vec![
                j("BFS", 400.0, 8 * 1024, 250, 0.080),
                j("CC", 480.0, 8 * 1024, 281, 0.075),
                j("DC", 360.0, 4 * 1024, 188, 0.055),
                j("PRank", 600.0, 16 * 1024, 375, 0.090),
                j("LRTrain", 440.0, 2 * 1024, 156, 0.050),
                // RndFTrain: the most memory-intensive job in Figure 17.
                j("RndFTrain", 520.0, 32 * 1024, 563, 0.120),
                j("Hadoop", 560.0, 8 * 1024, 219, 0.065),
                j("MUMmer", 640.0, 16 * 1024, 313, 0.055),
            ],
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Job by index.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn get(&self, index: usize) -> &BatchJob {
        &self.jobs[index]
    }

    /// Iterates over jobs.
    pub fn iter(&self) -> impl Iterator<Item = &BatchJob> {
        self.jobs.iter()
    }

    /// Finds a job by name.
    pub fn by_name(&self, name: &str) -> Option<&BatchJob> {
        self.jobs.iter().find(|j| j.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_figure_17() {
        let c = BatchCatalog::paper();
        assert_eq!(c.len(), 8);
        let names: Vec<&str> = c.iter().map(|j| j.name).collect();
        assert_eq!(
            names,
            [
                "BFS",
                "CC",
                "DC",
                "PRank",
                "LRTrain",
                "RndFTrain",
                "Hadoop",
                "MUMmer"
            ]
        );
        assert!(!c.is_empty());
    }

    #[test]
    fn rndftrain_is_most_memory_intensive() {
        let c = BatchCatalog::paper();
        let rnd = c.by_name("RndFTrain").unwrap();
        for j in c.iter().filter(|j| j.name != "RndFTrain") {
            assert!(rnd.intensity() >= j.intensity(), "{}", j.name);
        }
        assert_eq!(rnd.footprint_kb, 32 * 1024);
    }

    #[test]
    fn batch_footprints_dwarf_microservices() {
        for j in BatchCatalog::paper().iter() {
            assert!(j.footprint_kb >= 2 * 1024, "{}", j.name);
        }
    }

    #[test]
    fn unit_stream_spans_the_footprint_uniformly() {
        let j = *BatchCatalog::paper().by_name("BFS").unwrap();
        let a = j.unit_stream(VmId(8), 0);
        let b = j.unit_stream(VmId(8), 1);
        assert_eq!(a.accesses, 250);
        assert!(a.uniform_private);
        assert_eq!(a.private_lines, j.footprint_lines());
        assert_ne!(a.seed, b.seed, "distinct units draw distinct streams");
    }

    #[test]
    fn unit_cycles_scale() {
        let j = *BatchCatalog::paper().by_name("MUMmer").unwrap();
        assert_eq!(j.unit_cycles(), Cycles::from_us(640.0));
        assert!(j.footprint_lines() > 100_000);
    }
}
