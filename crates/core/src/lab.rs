//! The replacement-policy lab behind Figure 14.
//!
//! Belady's optimal policy needs the future, so it cannot run inside the
//! online system simulation. Instead the lab records, per service, the
//! stream of L2-bound references produced by interleaving microservice
//! invocations with harvest episodes (batch execution on the same core,
//! bracketed by harvest-region flushes), then replays that one trace
//! through every policy — vanilla LRU, SRRIP, HardHarvest's Algorithm 1,
//! and offline Belady — and reports the L2 hit rates.

use hh_mem::{BeladyCache, CacheConfig, CacheOp, PolicyKind, SetAssocCache, WayMask};
use hh_sim::{Rng64, VmId};
use hh_workload::{BatchCatalog, RequestPlan, ServiceCatalog, ServiceId};
use serde::Serialize;

/// Hit rates of the four policies on the same trace (Figure 14's bars).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PolicyHitRates {
    /// Service name.
    pub service: &'static str,
    /// Vanilla LRU.
    pub lru: f64,
    /// SRRIP.
    pub rrip: f64,
    /// HardHarvest Algorithm 1 (M = 75 %).
    pub hardharvest: f64,
    /// Offline optimal (Belady).
    pub belady: f64,
}

/// The Figure 14 lab.
#[derive(Debug)]
pub struct ReplacementLab {
    l2_sets: usize,
    l2_ways: usize,
    harvest_mask: WayMask,
    /// Invocations interleaved with harvest episodes per service.
    pub invocations: usize,
}

impl Default for ReplacementLab {
    fn default() -> Self {
        let l2 = CacheConfig::l2();
        ReplacementLab {
            l2_sets: l2.sets(),
            l2_ways: l2.ways,
            harvest_mask: WayMask::fraction(l2.ways, 0.5),
            invocations: 40,
        }
    }
}

impl ReplacementLab {
    /// Records the per-service trace and evaluates all four policies.
    pub fn run(&self) -> Vec<PolicyHitRates> {
        let catalog = ServiceCatalog::socialnet();
        let batch = BatchCatalog::paper();
        let mut out = Vec::with_capacity(catalog.len());
        for (id, profile) in catalog.iter() {
            let ops = self.record_trace(id, profile.name, &catalog, &batch);
            out.push(PolicyHitRates {
                service: profile.name,
                lru: self.replay_online(&ops, PolicyKind::Lru),
                rrip: self.replay_online(&ops, PolicyKind::Rrip),
                hardharvest: self.replay_online(&ops, PolicyKind::hardharvest_default()),
                belady: self.replay_belady(&ops),
            });
        }
        out
    }

    /// Records the L2-bound reference stream of one core alternating
    /// between invocations of `service` and harvest episodes.
    fn record_trace(
        &self,
        service: ServiceId,
        name: &str,
        catalog: &ServiceCatalog,
        batch: &BatchCatalog,
    ) -> Vec<CacheOp> {
        // L1 filters (fixed LRU so only the L2 policy varies). The filters
        // are deliberately small: the subsampled streams carry far fewer
        // references than real execution, so full-size L1s would swallow
        // all within-invocation reuse and leave the L2 trace artificially
        // reuse-free.
        let l1d = CacheConfig::l1d();
        let l1i = CacheConfig::l1i();
        let mut f_l1d =
            SetAssocCache::new(l1d.sets() / 8, l1d.ways, PolicyKind::Lru, WayMask::EMPTY);
        let mut f_l1i =
            SetAssocCache::new(l1i.sets() / 8, l1i.ways, PolicyKind::Lru, WayMask::EMPTY);
        let job = *batch
            .by_name(match name {
                // Pair each service with a batch job, round-robin like the
                // cluster does.
                "Text" => "BFS",
                "SGraph" => "CC",
                "User" => "DC",
                "PstStr" => "PRank",
                "UsrMnt" => "LRTrain",
                "HomeT" => "RndFTrain",
                "CPost" => "Hadoop",
                _ => "MUMmer",
            })
            .expect("job exists");

        let profile = catalog.get(service);
        let mut rng = Rng64::stream(0x14D, service.index() as u64);
        let all = WayMask::all(self.l2_ways);
        // The lab replays reads only: policy quality is measured by hit
        // rate, and dirtiness does not influence any studied policy's
        // decisions.
        let read = |key, shared, allowed| CacheOp::Access {
            key,
            shared,
            write: false,
            allowed,
        };
        let mut ops = Vec::new();
        for inv in 0..self.invocations {
            // Invocation ids stay small so private windows remain inside
            // the 48-bit modeled address space.
            let plan = RequestPlan::generate(
                service,
                profile,
                VmId(0),
                (inv as u64) * 8 + service.index() as u64,
                &mut rng,
            );
            // Primary invocation: full visibility.
            for phase in &plan.phases {
                for acc in phase.stream.iter() {
                    let l1 = if acc.kind.is_ifetch() {
                        &mut f_l1i
                    } else {
                        &mut f_l1d
                    };
                    let l1_all = WayMask::all(l1.ways());
                    if !l1
                        .access(
                            acc.line(),
                            acc.class.is_shared(),
                            l1_all,
                            acc.kind.is_write(),
                        )
                        .hit
                    {
                        ops.push(read(acc.line(), acc.class.is_shared(), all));
                    }
                }
            }
            // Harvest episode after most invocations (the core was stolen
            // while the request blocked or after it terminated).
            if rng.chance(0.7) {
                ops.push(CacheOp::InvalidateWays(self.harvest_mask));
                f_l1d.invalidate_all(); // L1s are fully flushed region-wise;
                f_l1i.invalidate_all(); // conservative for the filter
                let spec = job.unit_stream(VmId(8), inv as u64);
                for acc in spec.iter().take(2000) {
                    let l1 = if acc.kind.is_ifetch() {
                        &mut f_l1i
                    } else {
                        &mut f_l1d
                    };
                    let l1_harv = WayMask::fraction(l1.ways(), 0.5);
                    if !l1
                        .access(
                            acc.line(),
                            acc.class.is_shared(),
                            l1_harv,
                            acc.kind.is_write(),
                        )
                        .hit
                    {
                        ops.push(read(acc.line(), acc.class.is_shared(), self.harvest_mask));
                    }
                }
                ops.push(CacheOp::InvalidateWays(self.harvest_mask));
                f_l1d.invalidate_all();
                f_l1i.invalidate_all();
            }
        }
        ops
    }

    fn replay_online(&self, ops: &[CacheOp], policy: PolicyKind) -> f64 {
        let mut l2 = SetAssocCache::new(self.l2_sets, self.l2_ways, policy, self.harvest_mask);
        for op in ops {
            match *op {
                CacheOp::Access {
                    key,
                    shared,
                    write,
                    allowed,
                } => {
                    l2.access(key, shared, allowed, write);
                }
                CacheOp::InvalidateWays(mask) => {
                    l2.invalidate_ways(mask);
                }
                CacheOp::SetHarvestMask(mask) => l2.set_harvest_mask(mask),
            }
        }
        l2.stats().hit_rate()
    }

    /// The ideal bound: classic MIN over the same reference stream with
    /// full associativity, no region masks and no flushes. Relaxing the
    /// constraints only adds options, so this provably upper-bounds every
    /// online policy running under partitioning — the "ideal replacement"
    /// bar of Figure 14.
    fn replay_belady(&self, ops: &[CacheOp]) -> f64 {
        let all = WayMask::all(self.l2_ways);
        let trace: Vec<CacheOp> = ops
            .iter()
            .filter_map(|op| match *op {
                CacheOp::Access {
                    key, shared, write, ..
                } => Some(CacheOp::Access {
                    key,
                    shared,
                    write,
                    allowed: all,
                }),
                CacheOp::InvalidateWays(_) | CacheOp::SetHarvestMask(_) => None,
            })
            .collect();
        BeladyCache::new(self.l2_sets, self.l2_ways)
            .run(&trace)
            .hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lab() -> ReplacementLab {
        ReplacementLab {
            invocations: 12,
            ..ReplacementLab::default()
        }
    }

    #[test]
    fn belady_upper_bounds_every_policy() {
        // The ideal bound runs unconstrained (full ways, no flushes), so
        // it strictly dominates every online policy under partitioning.
        for r in small_lab().run() {
            assert!(
                r.belady + 1e-9 >= r.lru,
                "{}: belady {} < lru {}",
                r.service,
                r.belady,
                r.lru
            );
            assert!(
                r.belady + 1e-9 >= r.rrip,
                "{}: belady {} < rrip {}",
                r.service,
                r.belady,
                r.rrip
            );
            assert!(
                r.belady + 1e-9 >= r.hardharvest,
                "{}: belady {} < hardharvest {}",
                r.service,
                r.belady,
                r.hardharvest
            );
        }
    }

    #[test]
    fn hardharvest_beats_lru_on_average() {
        let rows = small_lab().run();
        let hh: f64 = rows.iter().map(|r| r.hardharvest).sum::<f64>() / rows.len() as f64;
        let lru: f64 = rows.iter().map(|r| r.lru).sum::<f64>() / rows.len() as f64;
        assert!(
            hh > lru,
            "HardHarvest avg {hh:.3} should beat LRU avg {lru:.3}"
        );
    }

    #[test]
    fn hit_rates_are_probabilities() {
        for r in small_lab().run() {
            for v in [r.lru, r.rrip, r.hardharvest, r.belady] {
                assert!((0.0..=1.0).contains(&v), "{}: {v}", r.service);
            }
        }
    }

    #[test]
    fn covers_all_eight_services() {
        let rows = small_lab().run();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].service, "Text");
        assert_eq!(rows[7].service, "UrlShort");
    }
}
