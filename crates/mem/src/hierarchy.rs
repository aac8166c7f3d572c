//! A core's private memory hierarchy wired to the shared LLC and DRAM.

use hh_sim::{Cycles, VmId};
use serde::{Deserialize, Serialize};

use crate::{
    Access, CacheStats, Dram, HierarchyConfig, PolicyKind, SetAssocCache, WayMask, LLC_HIT_CYCLES,
};

/// What the executing context is allowed to see in the private structures.
///
/// The discriminant indexes [`CoreMem`]'s per-structure mask table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Visibility {
    /// A Primary VM with full visibility of every way.
    Primary,
    /// A Primary VM immediately after reclaiming its core: the harvest
    /// region is still being flushed in the background, so only the
    /// non-harvest ways are usable (Section 4.2.1).
    PrimaryFlushPending,
    /// A Harvest VM: restricted to the harvest region.
    Harvest,
}

/// L2 hit/miss counts split by executing-context visibility: harvest-VM
/// references vs. primary-VM references (the paper's Figure 14 axis).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VisSplit {
    /// L2 hits under `Visibility::Primary` / `PrimaryFlushPending`.
    pub primary_hits: u64,
    /// L2 misses under `Visibility::Primary` / `PrimaryFlushPending`.
    pub primary_misses: u64,
    /// L2 hits under `Visibility::Harvest`.
    pub harvest_hits: u64,
    /// L2 misses under `Visibility::Harvest`.
    pub harvest_misses: u64,
}

/// Flush activity of one private hierarchy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Whole-hierarchy invalidations ([`CoreMem::flush_all`]).
    pub full_flushes: u64,
    /// Harvest-region invalidations ([`CoreMem::flush_harvest_region`]).
    pub region_flushes: u64,
    /// Total entries dropped across both kinds.
    pub lines_dropped: u64,
}

/// The cost of one memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCost {
    /// Cycles the core is stalled by this reference (after the
    /// memory-level-parallelism discount for data references).
    pub stall: Cycles,
    /// Whether the reference was ultimately served from DRAM.
    pub dram: bool,
}

/// The shared, CAT-partitioned last-level cache of one server.
///
/// Each VM owns a way mask (its CAT partition); the LLC is never flushed on
/// core reassignment because the partitions already isolate VMs
/// (Section 2.3).
#[derive(Debug, Clone)]
pub struct Llc {
    cache: SetAssocCache,
    vm_masks: Vec<WayMask>,
}

impl Llc {
    /// Builds an LLC with `ways`-associative geometry over `sets` sets and
    /// one CAT partition per VM, sized proportionally to `vm_cores` with a
    /// minimum of one way, wrapping around the way space so partitions
    /// overlap only when they must.
    ///
    /// # Panics
    /// Panics if `vm_cores` is empty or geometry is degenerate.
    pub fn new(sets: usize, ways: usize, vm_cores: &[usize]) -> Self {
        assert!(!vm_cores.is_empty(), "need at least one VM");
        let total_cores: usize = vm_cores.iter().sum();
        assert!(total_cores > 0, "VMs must have cores");
        let cache = SetAssocCache::new(sets, ways, PolicyKind::Lru, WayMask::EMPTY);
        let mut vm_masks = Vec::with_capacity(vm_cores.len());
        let mut cursor = 0usize;
        for &cores in vm_cores {
            let width =
                ((ways as f64 * cores as f64 / total_cores as f64).round() as usize).clamp(1, ways);
            let mut mask = WayMask::EMPTY;
            for i in 0..width {
                mask = mask | WayMask(1 << ((cursor + i) % ways));
            }
            cursor = (cursor + width) % ways;
            vm_masks.push(mask);
        }
        Llc { cache, vm_masks }
    }

    /// The CAT way mask of a VM.
    ///
    /// # Panics
    /// Panics if `vm` was not declared at construction.
    pub fn vm_mask(&self, vm: VmId) -> WayMask {
        self.vm_masks[vm.index()]
    }

    /// Accesses line `key` on behalf of `vm`; returns whether it hit.
    pub fn access(&mut self, key: u64, vm: VmId, shared: bool, write: bool) -> bool {
        let mask = self.vm_masks[vm.index()];
        self.cache.access(key, shared, mask, write).hit
    }

    /// Inserts a line on behalf of `vm` without counting an access — used
    /// for DDIO deposits from the NIC (Section 4.1.3).
    pub fn ddio_deposit(&mut self, key: u64, vm: VmId) {
        let mask = self.vm_masks[vm.index()];
        // A deposit is modeled as a write access; the double-count of one
        // access per payload line is negligible and keeps the code simple.
        self.cache.access(key, false, mask, true);
    }

    /// Hints the host to cache the LLC set `key` maps to; see
    /// [`SetAssocCache::prefetch`].
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        self.cache.prefetch(key);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of VM partitions.
    pub fn partitions(&self) -> usize {
        self.vm_masks.len()
    }
}

/// One L2 miss recorded by a walk's private pass, completed by its LLC
/// pass and replayed by its timing pass.
#[derive(Debug, Clone, Copy)]
struct Miss {
    /// Summed rounded stall of the references since the previous miss.
    gap: u64,
    /// The missing line.
    line: u64,
    /// Latency before the MSHR and DRAM: address translation.
    pre: u32,
    /// The VM the reference belongs to.
    vm: VmId,
    /// `MISS_*` bits.
    flags: u8,
}

/// The page-class `Shared` bit of a [`Miss`].
const MISS_SHARED: u8 = 1 << 0;
/// The reference was a store.
const MISS_WRITE: u8 = 1 << 1;
/// The reference was an instruction fetch (it stalls in full).
const MISS_IFETCH: u8 = 1 << 2;
/// The LLC held the line (set by the LLC pass).
const MISS_LLC_HIT: u8 = 1 << 3;

impl Miss {
    fn is(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// What a walk's state pass leaves for its timing pass: one record per L2
/// miss and the stall of the references after the last one.
///
/// The state pass is two passes: [`CoreMem::walk_private`] runs the
/// references through the core's TLBs and caches and records the L2
/// misses, then [`WalkTrace::walk_llc`] runs those misses through the LLC
/// in order. Nothing the private pass does depends on what the LLC holds,
/// so the two may run at different times, as long as each structure sees
/// its accesses in issue order. [`CoreMem::walk_timing`] then turns the
/// records into the walk's stall. Reusable across walks, so a caller that
/// keeps one allocates only while its longest miss list grows.
#[derive(Debug, Clone, Default)]
pub struct WalkTrace {
    misses: Vec<Miss>,
    /// Summed rounded stall of the references after the last miss.
    tail: u64,
}

impl WalkTrace {
    /// The LLC pass of a walk: looks up every recorded L2 miss in `llc`,
    /// in order, and records whether it hit. Prefetches the LLC sets of
    /// the first [`CoreMem::LOOKAHEAD`] misses before the first lookup,
    /// then of the miss [`CoreMem::LOOKAHEAD`] records ahead of each.
    pub fn walk_llc(&mut self, llc: &mut Llc) {
        for miss in self.misses.iter().take(CoreMem::LOOKAHEAD) {
            llc.prefetch(miss.line);
        }
        for i in 0..self.misses.len() {
            if let Some(ahead) = self.misses.get(i + CoreMem::LOOKAHEAD) {
                llc.prefetch(ahead.line);
            }
            let miss = &mut self.misses[i];
            let shared = miss.is(MISS_SHARED);
            let write = miss.is(MISS_WRITE);
            if llc.access(miss.line, miss.vm, shared, write) {
                miss.flags |= MISS_LLC_HIT;
            }
        }
    }

    /// Appends one reference's private-pass outcome.
    #[inline]
    fn push(&mut self, outcome: Result<u64, Miss>) {
        match outcome {
            Ok(stall) => self.tail += stall,
            Err(miss) => {
                self.misses.push(Miss {
                    gap: std::mem::take(&mut self.tail),
                    ..miss
                });
            }
        }
    }
}

/// A private structure of [`CoreMem`]; the discriminant indexes its
/// allowed-mask table.
#[derive(Debug, Clone, Copy)]
enum Structure {
    L1i,
    L1d,
    L2,
    L1Tlb,
    L2Tlb,
}

/// One core's private caches and TLBs.
///
/// # Example
///
/// ```
/// use hh_mem::{Access, AccessKind, CoreMem, Dram, HierarchyConfig, Llc, PageClass, Visibility};
/// use hh_sim::{Cycles, VmId};
///
/// let config = HierarchyConfig::table1();
/// let mut core = CoreMem::new(&config, 0.5, hh_mem::PolicyKind::hardharvest_default());
/// let mut llc = Llc::new(1024, 16, &[4, 4]);
/// let mut dram = Dram::default();
/// let a = Access::new(VmId(0), 0x1000, AccessKind::DataRead, PageClass::Shared);
/// let cold = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
/// let warm = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
/// assert!(warm.stall < cold.stall);
/// ```
#[derive(Debug, Clone)]
pub struct CoreMem {
    config: HierarchyConfig,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    l1_tlb: SetAssocCache,
    l2_tlb: SetAssocCache,
    /// Allowed-way masks per structure (indexed like [`Structure`]) and
    /// per [`Visibility`]: the ways enabled by the Figure 7 capacity
    /// fraction intersected with the region the context may see. Filled at
    /// construction and on every capacity change, so the access path only
    /// indexes it.
    allowed: [[WayMask; 3]; 5],
    /// Figure 7's "Inf" configuration: every reference hits at L1 cost.
    infinite: bool,
    /// Each DRAM access from this core stands in for this many real
    /// accesses (subsampled streams); see [`Dram::access_weighted`].
    dram_weight: f64,
    /// Outstanding-miss slots (busy-until horizons) when MSHR modeling is
    /// enabled.
    mshr_busy: Option<Vec<Cycles>>,
    /// L2 hit/miss counts split by executing-context visibility.
    l2_split: VisSplit,
    /// Flush activity counters.
    flushes: FlushStats,
}

impl CoreMem {
    /// How many references [`CoreMem::walk_private`] generates ahead of
    /// the one it runs. Picked by a sweep over 4, 8 and 16 on quick-scale
    /// servers (see EXPERIMENTS.md).
    pub const LOOKAHEAD: usize = 8;

    /// Creates a cold hierarchy.
    ///
    /// `harvest_frac` is the fraction of each structure's ways forming the
    /// harvest region (Table 1 default: 50 %); `policy` applies to the L1D,
    /// L2 and TLBs (the L1I is always effectively LRU because instruction
    /// pages are all shared, Section 4.2.3).
    ///
    /// # Panics
    /// Panics if `config.mshrs` is `Some(0)`.
    pub fn new(config: &HierarchyConfig, harvest_frac: f64, policy: PolicyKind) -> Self {
        let mk = |sets: usize, ways: usize| {
            SetAssocCache::new(sets, ways, policy, WayMask::fraction(ways, harvest_frac))
        };
        let mut core = CoreMem {
            config: *config,
            l1i: mk(config.l1i.sets(), config.l1i.ways),
            l1d: mk(config.l1d.sets(), config.l1d.ways),
            l2: mk(config.l2.sets(), config.l2.ways),
            l1_tlb: mk(config.l1_tlb.sets(), config.l1_tlb.ways),
            l2_tlb: mk(config.l2_tlb.sets(), config.l2_tlb.ways),
            allowed: [[WayMask::EMPTY; 3]; 5],
            infinite: false,
            dram_weight: 1.0,
            mshr_busy: config.mshrs.map(|n| {
                assert!(n > 0, "MSHR modeling needs at least one MSHR");
                vec![Cycles::ZERO; n]
            }),
            l2_split: VisSplit::default(),
            flushes: FlushStats::default(),
        };
        core.fill_allowed(1.0);
        core
    }

    /// Restricts every structure to a fraction of its ways (Figure 7).
    ///
    /// # Panics
    /// Panics if `frac` is outside `(0, 1]`.
    pub fn set_capacity_fraction(&mut self, frac: f64) {
        assert!(frac > 0.0 && frac <= 1.0, "fraction out of range");
        self.fill_allowed(frac);
    }

    /// Recomputes the allowed-mask table from the fraction of ways enabled
    /// (1.0 = full structures) and each structure's harvest mask.
    fn fill_allowed(&mut self, capacity_frac: f64) {
        let structures = [&self.l1i, &self.l1d, &self.l2, &self.l1_tlb, &self.l2_tlb];
        for (masks, cache) in self.allowed.iter_mut().zip(structures) {
            let ways = cache.ways();
            let enabled = WayMask::fraction(ways, capacity_frac);
            let harvest = cache.harvest_mask();
            masks[Visibility::Primary as usize] = enabled;
            masks[Visibility::PrimaryFlushPending as usize] = enabled & harvest.complement(ways);
            masks[Visibility::Harvest as usize] = enabled & harvest;
        }
    }

    /// Switches the hierarchy into the idealized infinite configuration
    /// (Figure 7's "Inf" bar): every access costs an L1 hit.
    pub fn set_infinite(&mut self, infinite: bool) {
        self.infinite = infinite;
    }

    /// Sets the DRAM sampling weight of subsequent accesses (1.0 = every
    /// access simulated; N = each simulated access stands in for N).
    ///
    /// # Panics
    /// Panics if `weight < 1`.
    pub fn set_dram_weight(&mut self, weight: f64) {
        assert!(weight >= 1.0);
        self.dram_weight = weight;
    }

    /// Runs a stream of references through the hierarchy in order, as
    /// from `start`, and returns their summed stall: the state pass
    /// ([`CoreMem::walk_private`] and the LLC pass, see [`WalkTrace`])
    /// followed by the timing pass ([`CoreMem::walk_timing`]) at the
    /// weight set by [`CoreMem::set_dram_weight`]. The references may
    /// belong to any VMs; their L2 misses go through [`Llc::access`].
    ///
    /// With MSHR modeling each reference issues when the previous ones'
    /// stalls have elapsed, so outstanding-miss and DRAM-bank occupancy
    /// follow the stream's real pacing; otherwise every reference issues
    /// at `start`. The result, every statistic and every replacement
    /// decision equal those of calling [`CoreMem::access`] on each
    /// reference in turn. Allocates its [`WalkTrace`]; a caller that walks
    /// repeatedly keeps one and runs the three passes itself.
    pub fn walk(
        &mut self,
        start: Cycles,
        refs: impl IntoIterator<Item = Access>,
        vis: Visibility,
        llc: &mut Llc,
        dram: &mut Dram,
    ) -> Cycles {
        let mut trace = WalkTrace::default();
        self.walk_private(refs, vis, &mut trace);
        trace.walk_llc(llc);
        self.walk_timing(start, &trace, self.dram_weight, dram)
    }

    /// The private pass of a walk's state pass (see [`WalkTrace`]): every
    /// TLB, L1 and L2 lookup with its replacement and statistics, in
    /// stream order. It leaves in `out` the stall of every reference that
    /// stops at the L2 and one record per L2 miss. It touches nothing but
    /// this core's caches and TLBs, so walks of different cores may run
    /// their private passes concurrently.
    ///
    /// The pass keeps the next [`CoreMem::LOOKAHEAD`] references in a ring
    /// and prefetches every set block a reference can touch as it enters,
    /// so the host-memory misses of upcoming references overlap the
    /// current one. Prefetches change no state.
    pub fn walk_private(
        &mut self,
        refs: impl IntoIterator<Item = Access>,
        vis: Visibility,
        out: &mut WalkTrace,
    ) {
        out.misses.clear();
        out.tail = 0;
        let mut refs = refs.into_iter();
        let Some(first) = refs.next() else {
            return;
        };
        // Fill the ring with up to `LOOKAHEAD` references, oldest at `head`.
        let mut ring = [first; Self::LOOKAHEAD];
        let mut len = 0;
        for acc in std::iter::once(first).chain(refs.by_ref().take(Self::LOOKAHEAD - 1)) {
            self.prefetch(acc);
            ring[len] = acc;
            len += 1;
        }
        let mut head = 0;
        // While the stream lasts, each new reference takes the slot of the
        // oldest, which then runs. A short stream never fills the ring, and
        // `refs` is not read past its end.
        if len == Self::LOOKAHEAD {
            for next in refs {
                self.prefetch(next);
                let acc = std::mem::replace(&mut ring[head], next);
                head = (head + 1) % Self::LOOKAHEAD;
                out.push(self.state_one(acc, vis));
            }
        }
        // Drain the last `len` references, oldest first.
        for i in 0..len {
            out.push(self.state_one(ring[(head + i) % Self::LOOKAHEAD], vis));
        }
    }

    /// The timing pass of a walk issued at `start`: replays the L2 misses
    /// the state pass recorded through the MSHR slots and `dram`, each
    /// DRAM access standing in for `dram_weight` real ones (see
    /// [`Dram::access_weighted`]), and returns the walk's summed stall.
    /// With MSHR modeling a miss issues at `start` plus the stalls of
    /// every earlier reference, exactly as in a reference-by-reference
    /// walk.
    pub fn walk_timing(
        &mut self,
        start: Cycles,
        trace: &WalkTrace,
        dram_weight: f64,
        dram: &mut Dram,
    ) -> Cycles {
        let paced = self.mshr_busy.is_some();
        let mut total = 0u64;
        for miss in &trace.misses {
            total += miss.gap;
            let now = if paced {
                start + Cycles::new(total)
            } else {
                start
            };
            total += self.miss_stall(now, miss, dram_weight, dram);
        }
        Cycles::new(total + trace.tail)
    }

    /// Prefetches every private set block `acc` can touch (see
    /// [`CoreMem::walk_private`]).
    fn prefetch(&self, acc: Access) {
        if self.infinite {
            return;
        }
        let (page, line) = (acc.page(), acc.line());
        self.l1_tlb.prefetch(page);
        self.l2_tlb.prefetch(page);
        if acc.kind.is_ifetch() {
            self.l1i.prefetch(line);
        } else {
            self.l1d.prefetch(line);
        }
        self.l2.prefetch(line);
    }

    /// Runs one reference through TLBs and caches; returns its stall cost.
    pub fn access(
        &mut self,
        now: Cycles,
        acc: Access,
        vis: Visibility,
        llc: &mut Llc,
        dram: &mut Dram,
    ) -> AccessCost {
        match self.state_one(acc, vis) {
            Ok(stall) => AccessCost {
                stall: Cycles::new(stall),
                dram: false,
            },
            Err(mut miss) => {
                if llc.access(
                    miss.line,
                    miss.vm,
                    miss.is(MISS_SHARED),
                    miss.is(MISS_WRITE),
                ) {
                    miss.flags |= MISS_LLC_HIT;
                }
                AccessCost {
                    stall: Cycles::new(self.miss_stall(now, &miss, self.dram_weight, dram)),
                    dram: !miss.is(MISS_LLC_HIT),
                }
            }
        }
    }

    /// The private pass of one reference: its rounded stall when it stops
    /// at the L2, else the record of its L2 miss (with a zero gap).
    #[inline]
    fn state_one(&mut self, acc: Access, vis: Visibility) -> Result<u64, Miss> {
        let ifetch = acc.kind.is_ifetch();
        if self.infinite {
            let lat = if ifetch {
                self.config.l1i.hit_cycles
            } else {
                self.config.l1d.hit_cycles
            };
            return Ok(self.round_stall(lat, ifetch));
        }

        let shared = acc.class.is_shared();
        let mut latency: u64 = 0;

        // Address translation. An L1-TLB hit is overlapped with the cache
        // access and costs nothing extra.
        let allowed = |s: Structure| self.allowed[s as usize][vis as usize];
        let page = acc.page();
        let l1_tlb_allowed = allowed(Structure::L1Tlb);
        if !self.l1_tlb.access(page, shared, l1_tlb_allowed, false).hit {
            let l2_tlb_allowed = allowed(Structure::L2Tlb);
            if self.l2_tlb.access(page, shared, l2_tlb_allowed, false).hit {
                latency += self.config.l2_tlb.hit_cycles;
            } else {
                latency += self.config.page_walk_cycles;
            }
        }

        // Cache lookup.
        let line = acc.line();
        let (l1, l1_cfg, l1_allowed) = if ifetch {
            (&mut self.l1i, &self.config.l1i, allowed(Structure::L1i))
        } else {
            (&mut self.l1d, &self.config.l1d, allowed(Structure::L1d))
        };
        let write = acc.kind.is_write();
        if l1.access(line, shared, l1_allowed, write).hit {
            return Ok(self.round_stall(latency + l1_cfg.hit_cycles, ifetch));
        }
        let l2_allowed = allowed(Structure::L2);
        let l2_hit = self.l2.access(line, shared, l2_allowed, write).hit;
        let harvest = vis == Visibility::Harvest;
        match (harvest, l2_hit) {
            (false, true) => self.l2_split.primary_hits += 1,
            (false, false) => self.l2_split.primary_misses += 1,
            (true, true) => self.l2_split.harvest_hits += 1,
            (true, false) => self.l2_split.harvest_misses += 1,
        }
        if l2_hit {
            return Ok(self.round_stall(latency + self.config.l2.hit_cycles, ifetch));
        }
        let flags = if shared { MISS_SHARED } else { 0 }
            | if write { MISS_WRITE } else { 0 }
            | if ifetch { MISS_IFETCH } else { 0 };
        Err(Miss {
            gap: 0,
            line,
            // Address translation costs at most a page walk.
            pre: latency as u32,
            vm: acc.vm,
            flags,
        })
    }

    /// The timing of one L2 miss issued at `now`: when MSHR modeling is
    /// on, the miss first waits for an outstanding-miss slot; past the
    /// LLC it queues for its DRAM bank.
    fn miss_stall(&mut self, now: Cycles, miss: &Miss, dram_weight: f64, dram: &mut Dram) -> u64 {
        let mut miss_latency = LLC_HIT_CYCLES;
        if !miss.is(MISS_LLC_HIT) {
            miss_latency += dram.access_weighted(now, miss.line, dram_weight).as_u64();
        }
        let mut mshr_wait = 0u64;
        if let Some(slots) = &mut self.mshr_busy {
            let idx = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .map(|(i, _)| i)
                .expect("mshr slots non-empty");
            let start = now.max(slots[idx]);
            mshr_wait = (start - now).as_u64();
            slots[idx] = start + Cycles::new(miss_latency);
        }
        let latency = u64::from(miss.pre) + mshr_wait + miss_latency;
        self.round_stall(latency, miss.is(MISS_IFETCH))
    }

    /// The stall of a reference of `latency` cycles: in full for an
    /// instruction fetch, discounted for memory-level parallelism for data.
    #[inline]
    fn round_stall(&self, latency: u64, ifetch: bool) -> u64 {
        let stall = if ifetch {
            latency as f64
        } else {
            latency as f64 * self.config.data_stall_factor
        };
        stall.round() as u64
    }

    /// Flushes and invalidates every private structure (software-style
    /// cross-VM switch). Returns the number of entries dropped.
    pub fn flush_all(&mut self) -> u64 {
        let dropped = self.l1i.invalidate_all()
            + self.l1d.invalidate_all()
            + self.l2.invalidate_all()
            + self.l1_tlb.invalidate_all()
            + self.l2_tlb.invalidate_all();
        self.flushes.full_flushes += 1;
        self.flushes.lines_dropped += dropped;
        dropped
    }

    /// Flushes and invalidates only the harvest regions (HardHarvest
    /// cross-VM switch). Returns the number of entries dropped.
    pub fn flush_harvest_region(&mut self) -> u64 {
        let mut dropped = 0;
        for c in [
            &mut self.l1i,
            &mut self.l1d,
            &mut self.l2,
            &mut self.l1_tlb,
            &mut self.l2_tlb,
        ] {
            let mask = c.harvest_mask();
            dropped += c.invalidate_ways(mask);
        }
        self.flushes.region_flushes += 1;
        self.flushes.lines_dropped += dropped;
        dropped
    }

    /// L2 hit/miss counts split by harvest vs. primary visibility.
    pub fn l2_split(&self) -> VisSplit {
        self.l2_split
    }

    /// Flush activity since construction (or the last stats reset).
    pub fn flush_stats(&self) -> FlushStats {
        self.flushes
    }

    /// Statistics of every private structure, in the order L1I, L1D, L2,
    /// L1 TLB, L2 TLB.
    pub fn structure_stats(&self) -> [CacheStats; 5] {
        [&self.l1i, &self.l1d, &self.l2, &self.l1_tlb, &self.l2_tlb].map(SetAssocCache::stats)
    }

    /// Statistics of the unified L2 (the structure Figure 14 reports).
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Statistics of the L1 data cache.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// Resets all statistics (warm-up handling).
    pub fn reset_stats(&mut self) {
        for c in [
            &mut self.l1i,
            &mut self.l1d,
            &mut self.l2,
            &mut self.l1_tlb,
            &mut self.l2_tlb,
        ] {
            c.reset_stats();
        }
        self.l2_split = VisSplit::default();
        self.flushes = FlushStats::default();
    }

    /// Immutable access to the L2 (tests and labs).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, PageClass};

    fn setup() -> (CoreMem, Llc, Dram) {
        let config = HierarchyConfig::table1();
        let core = CoreMem::new(&config, 0.5, PolicyKind::hardharvest_default());
        let llc = Llc::new(1024, 16, &[4, 4, 4]);
        let dram = Dram::default();
        (core, llc, dram)
    }

    fn read(vm: u16, addr: u64) -> Access {
        Access::new(VmId(vm), addr, AccessKind::DataRead, PageClass::Private)
    }

    #[test]
    fn cold_access_reaches_dram_then_warms() {
        let (mut core, mut llc, mut dram) = setup();
        let a = read(0, 0x4000);
        let cold = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        assert!(cold.dram);
        let warm = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        assert!(!warm.dram);
        assert!(warm.stall < cold.stall);
    }

    #[test]
    fn ifetch_stalls_full_latency() {
        let (mut core, mut llc, mut dram) = setup();
        let i = Access::new(VmId(0), 0x8000, AccessKind::InstrFetch, PageClass::Shared);
        let d = read(0, 0x8000);
        let ci = core.access(Cycles::ZERO, i, Visibility::Primary, &mut llc, &mut dram);
        let mut core2 = CoreMem::new(
            &HierarchyConfig::table1(),
            0.5,
            PolicyKind::hardharvest_default(),
        );
        let cd = core2.access(Cycles::ZERO, d, Visibility::Primary, &mut llc, &mut dram);
        assert!(ci.stall > cd.stall, "data misses are MLP-discounted");
    }

    #[test]
    fn harvest_visibility_cannot_see_primary_lines() {
        let (mut core, mut llc, mut dram) = setup();
        // Warm a line as Primary into (likely) a non-harvest way: use a
        // Shared page so Algorithm 1 steers it there.
        let a = Access::new(VmId(0), 0xA000, AccessKind::DataRead, PageClass::Shared);
        core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        // Same address namespaced under the Harvest VM id is different; but
        // even the *same* access under Harvest visibility must not hit in
        // the non-harvest region:
        let before = core.l1d_stats().hits;
        core.access(Cycles::ZERO, a, Visibility::Harvest, &mut llc, &mut dram);
        let after = core.l1d_stats().hits;
        assert_eq!(
            before, after,
            "harvest context must miss on NH-resident line"
        );
    }

    #[test]
    fn region_flush_preserves_non_harvest_state() {
        let (mut core, mut llc, mut dram) = setup();
        let shared = Access::new(VmId(0), 0xC000, AccessKind::DataRead, PageClass::Shared);
        core.access(
            Cycles::ZERO,
            shared,
            Visibility::Primary,
            &mut llc,
            &mut dram,
        );
        core.flush_harvest_region();
        let out = core.access(
            Cycles::ZERO,
            shared,
            Visibility::Primary,
            &mut llc,
            &mut dram,
        );
        assert!(!out.dram, "shared line survives a harvest-region flush");
    }

    #[test]
    fn full_flush_drops_everything() {
        let (mut core, mut llc, mut dram) = setup();
        let a = read(0, 0xE000);
        core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        let dropped = core.flush_all();
        assert!(dropped >= 1);
        // The LLC keeps its copy (it is CAT-partitioned, never flushed), so
        // the re-access is served from the LLC, not DRAM — but all private
        // levels must miss, making the stall at least an LLC round trip
        // plus a page walk, far above the 2-cycle L1 warm cost.
        let out = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        assert!(!out.dram, "LLC still holds the line");
        assert!(
            out.stall >= Cycles::new(16),
            "stall {} should reflect private-level misses",
            out.stall
        );
    }

    #[test]
    fn infinite_mode_always_cheap() {
        let (mut core, mut llc, mut dram) = setup();
        core.set_infinite(true);
        let a = read(0, 0xF000);
        let c = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        assert_eq!(c.stall.as_u64(), 2); // 5 cycles * 0.45 rounded
        assert!(!c.dram);
    }

    #[test]
    fn capacity_fraction_reduces_hits() {
        let config = HierarchyConfig::table1();
        let mut full = CoreMem::new(&config, 0.5, PolicyKind::Lru);
        let mut quarter = CoreMem::new(&config, 0.5, PolicyKind::Lru);
        quarter.set_capacity_fraction(0.25);
        let mut llc = Llc::new(1024, 16, &[4]);
        let mut dram = Dram::default();
        // Working set larger than a quarter of the L1D but smaller than all
        // of it: stream over 36 KB twice.
        for pass in 0..2 {
            for i in 0..576 {
                let a = read(0, i * 64);
                full.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
                quarter.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
                let _ = pass;
            }
        }
        assert!(
            full.l1d_stats().hits > quarter.l1d_stats().hits,
            "full: {:?} quarter: {:?}",
            full.l1d_stats(),
            quarter.l1d_stats()
        );
    }

    #[test]
    fn reset_stats_clears_counters() {
        let (mut core, mut llc, mut dram) = setup();
        let a = read(0, 0x1200);
        core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        assert!(core.l1d_stats().accesses() > 0);
        core.reset_stats();
        assert_eq!(core.l1d_stats().accesses(), 0);
        assert_eq!(core.l2_stats().accesses(), 0);
    }

    #[test]
    fn dram_weight_amplifies_bank_pressure() {
        let config = HierarchyConfig::table1();
        let mut core = CoreMem::new(&config, 0.5, PolicyKind::Lru);
        let mut llc = Llc::new(64, 16, &[4]);
        let mut dram = Dram::new(crate::DramConfig {
            banks: 1,
            access: Cycles::new(100),
            bank_busy: Cycles::new(50),
        });
        core.set_dram_weight(8.0);
        // Two cold accesses to distinct lines through a single bank: the
        // second one queues behind 8x occupancy.
        let a = read(0, 0x10_0000);
        let b = read(0, 0x20_0000);
        let c1 = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        let c2 = core.access(Cycles::ZERO, b, Visibility::Primary, &mut llc, &mut dram);
        assert!(c1.dram && c2.dram);
        assert!(c2.stall > c1.stall, "queued access must stall longer");
    }

    #[test]
    fn mshr_slots_serialize_concurrent_misses() {
        let mut config = HierarchyConfig::table1();
        config.mshrs = Some(1);
        let mut core = CoreMem::new(&config, 0.5, PolicyKind::Lru);
        let mut llc = Llc::new(64, 16, &[4]);
        let mut dram = Dram::default();
        // Two distinct cold lines issued at the same instant: with one
        // MSHR the second miss waits for the first to complete.
        let a = read(0, 0x100_000);
        let b = read(0, 0x200_000);
        let c1 = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        let c2 = core.access(Cycles::ZERO, b, Visibility::Primary, &mut llc, &mut dram);
        assert!(c1.dram && c2.dram);
        assert!(
            c2.stall > c1.stall + Cycles::new(50),
            "second miss must queue behind the single MSHR: {} vs {}",
            c2.stall,
            c1.stall
        );
        // Warm accesses never touch the MSHRs.
        let c3 = core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        assert!(!c3.dram);
        assert!(c3.stall < Cycles::new(10));
    }

    #[test]
    fn l2_split_attributes_by_visibility() {
        let (mut core, mut llc, mut dram) = setup();
        let a = read(0, 0x7000);
        // Cold primary access misses L2; a repeat hits it.
        core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        // Evict from L1 view? Simplest: the second identical access hits
        // L1, never reaching L2 — so drive the L2 with fresh lines instead.
        let b = read(0, 0x7000 + 64 * 4096);
        core.access(Cycles::ZERO, b, Visibility::Harvest, &mut llc, &mut dram);
        let split = core.l2_split();
        assert_eq!(split.primary_misses, 1);
        assert_eq!(split.harvest_misses, 1);
        assert_eq!(split.primary_hits + split.harvest_hits, 0);
        // Totals must agree with the L2's own accounting.
        let l2 = core.l2_stats();
        assert_eq!(
            l2.hits + l2.misses,
            split.primary_hits + split.primary_misses + split.harvest_hits + split.harvest_misses
        );
    }

    #[test]
    fn flush_stats_count_kinds_and_lines() {
        let (mut core, mut llc, mut dram) = setup();
        for i in 0..8 {
            let a = read(0, 0x9000 + i * 64);
            core.access(Cycles::ZERO, a, Visibility::Primary, &mut llc, &mut dram);
        }
        let dropped_region = core.flush_harvest_region();
        let dropped_full = core.flush_all();
        let fs = core.flush_stats();
        assert_eq!(fs.region_flushes, 1);
        assert_eq!(fs.full_flushes, 1);
        assert_eq!(fs.lines_dropped, dropped_region + dropped_full);
        core.reset_stats();
        assert_eq!(core.flush_stats(), FlushStats::default());
        assert_eq!(core.l2_split(), VisSplit::default());
    }

    #[test]
    fn llc_partitions_isolate_vms() {
        let llc = Llc::new(64, 16, &[4, 4]);
        let m0 = llc.vm_mask(VmId(0));
        let m1 = llc.vm_mask(VmId(1));
        assert!(!m0.is_empty() && !m1.is_empty());
        // Fill VM0's partition; VM1's accesses must not evict VM0 lines if
        // partitions are disjoint (they are here: 8+8 of 16 ways).
        assert!(!m0.intersects(m1));
    }

    #[test]
    fn llc_ddio_deposit_makes_line_resident() {
        let mut llc = Llc::new(64, 16, &[4]);
        llc.ddio_deposit(0x99, VmId(0));
        assert!(llc.access(0x99, VmId(0), false, false));
    }

    #[test]
    fn llc_proportional_partitioning() {
        // 8 primaries (4 cores) + 1 harvest (4 cores): every VM ≥ 1 way.
        let cores = [4, 4, 4, 4, 4, 4, 4, 4, 4];
        let llc = Llc::new(1024, 16, &cores);
        for vm in 0..9u16 {
            assert!(llc.vm_mask(VmId(vm)).count() >= 1);
        }
        assert_eq!(llc.partitions(), 9);
    }
}
