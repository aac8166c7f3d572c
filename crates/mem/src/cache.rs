//! The set-associative cache/TLB structure with way partitioning and the
//! HardHarvest replacement algorithm (paper Sections 4.2.1–4.2.4).
//!
//! Each set is one contiguous block of `u64` words: the set's tags, dense
//! so the hit-path probe scans them as one slice, followed by one state
//! word per way that packs the LRU stamp above the shared/dirty/RRPV
//! metadata byte. An access therefore touches one region of memory rather
//! than one per field. Validity is a per-set `u32` bitmask kept in its own
//! dense array. Victim selection operates on an *effective* way mask
//! (`allowed ∩ ways`) computed once per access, and every per-set filter
//! (hit ways, empty ways, private ways, Algorithm 1's candidate window) is
//! a `u32` way bitmask, so no scan loop re-filters way indices.

// A hot module: the per-access/per-event path must not hide panic branches.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::{PolicyKind, WayMask};

// Per-entry metadata bits, the low byte of a way's state word. Validity
// lives in the per-set `valid` bitmask instead.

/// The page-table `Shared` bit, copied into the entry on insertion
/// (Section 4.2.2).
const META_SHARED: u8 = 1 << 0;
const META_DIRTY: u8 = 1 << 1;
/// SRRIP re-reference prediction value (0 = near, 3 = distant), two bits.
const RRPV_SHIFT: u8 = 2;
const RRPV_MASK: u8 = 0b11 << RRPV_SHIFT;
/// The LRU stamp sits above the metadata byte in a way's state word. The
/// stamp is the access clock, so 56 bits last 7·10¹⁶ accesses.
const STAMP_SHIFT: u32 = 8;

/// Hit/miss accounting for one structure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid entries invalidated by flushes.
    pub flushed: u64,
    /// Dirty lines written back (on eviction or flush).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the reference hit.
    pub hit: bool,
    /// Whether a dirty victim was written back to the next level.
    pub writeback: bool,
}

/// One recorded cache/TLB operation, replayable through
/// [`SetAssocCache`], the `hh-check` reference model and
/// [`BeladyCache::run`](crate::BeladyCache::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOp {
    /// One reference: key, page class, store bit, and the allowed-way mask
    /// in force when it was issued.
    Access {
        /// Line/page key (already VM-namespaced).
        key: u64,
        /// The page-class `Shared` bit.
        shared: bool,
        /// Whether the reference dirties the line.
        write: bool,
        /// Ways this access may see.
        allowed: WayMask,
    },
    /// A region flush (`invalidate_ways`) over the given ways.
    InvalidateWays(WayMask),
    /// A HarvestMask register reload (core reassigned to another VM).
    SetHarvestMask(WayMask),
}

/// Externally-visible state of one way of one set, for state comparison
/// and divergence reports in the `hh-check` differential oracle.
///
/// Covers everything replacement decisions depend on: the tag, the
/// valid/shared/dirty bits, the SRRIP re-reference value, and the LRU
/// stamp (both the optimized cache and the reference model advance their
/// clocks once per access, so stamps are directly comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WayState {
    /// Way index within the set.
    pub way: usize,
    /// Stored tag (0 when `!valid`).
    pub tag: u64,
    /// Whether the entry holds a line.
    pub valid: bool,
    /// The page-class `Shared` bit.
    pub shared: bool,
    /// Whether the line is dirty.
    pub dirty: bool,
    /// SRRIP re-reference prediction value (0–3).
    pub rrpv: u8,
    /// LRU stamp (larger = more recently used; 0 when never touched or
    /// invalidated).
    pub stamp: u64,
}

/// A set-associative cache or TLB with harvest/non-harvest way partitioning.
///
/// TLBs are the same structure instantiated over page numbers instead of
/// line addresses; the caller picks the granularity of the keys it passes.
///
/// Accesses carry an *allowed-way* mask: a Primary VM normally sees every
/// way, a Harvest VM only the harvest region, and the Figure 7 capacity
/// study shrinks the mask globally. Insertion is restricted to allowed
/// ways; hits are only honoured in allowed ways.
///
/// # Example
///
/// ```
/// use hh_mem::{PolicyKind, SetAssocCache, WayMask};
///
/// let mut c = SetAssocCache::new(64, 8, PolicyKind::Lru, WayMask::lower(4));
/// let all = WayMask::all(8);
/// assert!(!c.access(0x42, false, all, false).hit); // cold miss
/// assert!(c.access(0x42, false, all, false).hit); // now resident
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two, so the set index is a
    /// mask; `None` for other set counts (the LLC), which take `%`.
    index_mask: Option<u64>,
    /// One block of `2 * ways` words per set: the set's tags, then one
    /// state word per way holding the LRU stamp (larger = more recently
    /// used) above [`STAMP_SHIFT`] and the metadata byte below it. An
    /// invalid way's words are garbage (left by an invalidated line or by
    /// a dropped cache whose buffer this one recycled) and never read.
    slots: Vec<u64>,
    /// Per set, the bitmask of ways holding a line. Dense, so a flush
    /// reads 4 bytes per set rather than every way's state word, and a
    /// miss finds empty ways without a scan.
    valid: Vec<u32>,
    policy: PolicyKind,
    /// Ways forming the harvest region (HarvestMask register).
    harvest_mask: WayMask,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache. Its set blocks come from this thread's
    /// spare list when a dropped cache left a buffer of the same size
    /// there, so only the valid masks are zeroed.
    ///
    /// # Panics
    /// Panics if `sets` or `ways` is zero, `ways > 32`, or the harvest mask
    /// references ways beyond `ways`.
    pub fn new(sets: usize, ways: usize, policy: PolicyKind, harvest_mask: WayMask) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate geometry");
        assert!(ways <= 32, "way mask is 32 bits");
        assert!(
            !harvest_mask.intersects(WayMask::all(ways).complement(32)),
            "harvest mask exceeds the structure's ways"
        );
        SetAssocCache {
            sets,
            ways,
            index_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            slots: take_slots(2 * sets * ways),
            valid: vec![0; sets],
            policy,
            harvest_mask,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The harvest-region way mask.
    pub fn harvest_mask(&self) -> WayMask {
        self.harvest_mask
    }

    /// Reconfigures the harvest region (the HarvestMask register is loaded
    /// per VM when a core is re-assigned, Section 4.2.1).
    ///
    /// # Panics
    /// Panics if the mask references ways beyond the structure.
    pub fn set_harvest_mask(&mut self, mask: WayMask) {
        assert!(!mask.intersects(WayMask::all(self.ways).complement(32)));
        self.harvest_mask = mask;
    }

    /// Replacement-policy accessor.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The mask actually usable by an access: `allowed ∩ [0, ways)`.
    /// Computed once per access so no scan loop re-filters way indices.
    #[inline]
    fn effective(&self, allowed: WayMask) -> WayMask {
        WayMask(allowed.0 & WayMask::all(self.ways).0)
    }

    /// Start of `set`'s block in `slots`.
    #[inline]
    fn block(&self, set: usize) -> usize {
        set * 2 * self.ways
    }

    // Accessors for way `w` of the set block at `base`.

    #[inline]
    fn meta(&self, base: usize, w: usize) -> u8 {
        self.slots[base + self.ways + w] as u8
    }

    #[inline]
    fn stamp(&self, base: usize, w: usize) -> u64 {
        self.slots[base + self.ways + w] >> STAMP_SHIFT
    }

    #[inline]
    fn set_state(&mut self, base: usize, w: usize, stamp: u64, meta: u8) {
        self.slots[base + self.ways + w] = stamp << STAMP_SHIFT | u64::from(meta);
    }

    #[inline]
    fn set_meta(&mut self, base: usize, w: usize, meta: u8) {
        let state = &mut self.slots[base + self.ways + w];
        *state = *state & !0xFF | u64::from(meta);
    }

    /// Ways of `set` holding a valid copy of `key`. The probe scans the
    /// set's tags as one slice.
    #[inline]
    fn resident_ways(&self, set: usize, key: u64) -> u32 {
        let base = self.block(set);
        let mut matches = 0u32;
        for (w, &tag) in self.slots[base..base + self.ways].iter().enumerate() {
            matches |= u32::from(tag == key) << w;
        }
        matches & self.valid[set]
    }

    /// Hints the host to pull `key`'s set into its caches: every 64-byte
    /// line of the set's block in `slots`, and the set's `valid` word.
    /// Changes no state, so a later [`SetAssocCache::access`] to the same
    /// key behaves exactly as without the hint, only with fewer host
    /// cache misses.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        let set = self.set_of(key);
        let base = self.block(set);
        let block = self.slots[base..base + 2 * self.ways].as_ptr_range();
        let start = block.start.cast::<u8>();
        let end = block.end.cast::<u8>();
        // From the start of the line holding the block's first byte.
        let mut line = start.wrapping_sub(start as usize % 64);
        while line < end {
            prefetch_line(line);
            line = line.wrapping_add(64);
        }
        prefetch_line((&self.valid[set] as *const u32).cast());
    }

    /// Looks up `key` without updating any state. Returns the hit way.
    pub fn probe(&self, key: u64, allowed: WayMask) -> Option<usize> {
        let eff = self.effective(allowed);
        (WayMask(self.resident_ways(self.set_of(key), key)) & eff)
            .iter()
            .next()
    }

    /// Performs one access: `key` is the line/page address (already
    /// VM-namespaced), `shared` the page-class bit, `allowed` the ways this
    /// access may see, `write` whether it dirties the line.
    ///
    /// On a miss the line is inserted into an allowed way chosen by the
    /// configured replacement policy; if the line is also resident in a
    /// *disallowed* way, that stale copy is invalidated first (with
    /// writeback accounting) so a tag is never duplicated within a set. If
    /// `allowed` is empty the access bypasses the structure entirely
    /// (counted as a miss, nothing inserted or invalidated).
    pub fn access(
        &mut self,
        key: u64,
        shared: bool,
        allowed: WayMask,
        write: bool,
    ) -> AccessOutcome {
        let eff = self.effective(allowed);
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(key);
        let base = self.block(set);

        // Probe: copies of this tag outside the allowed mask are stale
        // twins, dropped below if the access misses.
        let resident = self.resident_ways(set, key);
        let hit = resident & eff.0;
        if hit != 0 {
            let w = hit.trailing_zeros() as usize;
            let mut m = self.meta(base, w) & !RRPV_MASK;
            if write {
                m |= META_DIRTY;
            }
            self.set_state(base, w, clock, m);
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        self.stats.misses += 1;
        if eff.is_empty() {
            return AccessOutcome {
                hit: false,
                writeback: false,
            };
        }

        // The key is resident in disallowed ways only: drop those copies
        // before inserting so the set never holds duplicate tags (a dirty
        // copy is written back now rather than double-counted later).
        let mut writeback = false;
        for w in WayMask(resident).iter() {
            if self.meta(base, w) & META_DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = true;
            }
        }
        self.valid[set] &= !resident;

        let victim = self.choose_victim(set, eff, shared);
        // An empty victim's state words are garbage: only a valid line can
        // be dirty.
        if self.valid[set] & (1 << victim) != 0 && self.meta(base, victim) & META_DIRTY != 0 {
            self.stats.writebacks += 1;
            writeback = true;
        }
        self.slots[base + victim] = key;
        // SRRIP long-rereference insertion (RRPV = 2).
        let meta = if shared { META_SHARED } else { 0 }
            | if write { META_DIRTY } else { 0 }
            | (2 << RRPV_SHIFT);
        self.set_state(base, victim, clock, meta);
        self.valid[set] |= 1 << victim;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Chooses the way of `set` to victimize. `eff` is the pre-intersected
    /// allowed mask, verified non-empty by the caller.
    fn choose_victim(&mut self, set: usize, eff: WayMask, incoming_shared: bool) -> usize {
        let base = self.block(set);
        let empty = eff & WayMask(!self.valid[set]);
        match self.policy {
            #[expect(
                clippy::expect_used,
                reason = "`eff` was checked non-empty at lookup entry; an empty mask cannot reach here"
            )]
            PolicyKind::Lru => empty.iter().next().unwrap_or_else(|| {
                self.lru_of(base, eff)
                    .expect("allowed mask verified non-empty")
            }),
            PolicyKind::Rrip => match empty.iter().next() {
                Some(w) => w,
                None => self.victim_rrip(base, eff),
            },
            PolicyKind::HardHarvest { candidate_frac } => {
                self.victim_hardharvest(base, eff, empty, incoming_shared, candidate_frac)
            }
        }
    }

    /// SRRIP victim among the (all valid) ways of `eff`.
    fn victim_rrip(&mut self, base: usize, eff: WayMask) -> usize {
        // `eff` is already the effective mask, so both passes iterate it
        // directly — no per-iteration re-filtering.
        loop {
            for w in eff.iter() {
                if self.meta(base, w) & RRPV_MASK == RRPV_MASK {
                    return w;
                }
            }
            for w in eff.iter() {
                let m = self.meta(base, w);
                let aged = (((m & RRPV_MASK) >> RRPV_SHIFT) + 1).min(3);
                self.set_meta(base, w, (m & !RRPV_MASK) | (aged << RRPV_SHIFT));
            }
        }
    }

    /// Algorithm 1 from the paper, including the eviction-candidate window.
    /// `empty` holds the invalid ways of `eff`.
    #[expect(
        clippy::expect_used,
        reason = "the final fallback scans the whole window, which holds at least one way"
    )]
    fn victim_hardharvest(
        &self,
        base: usize,
        eff: WayMask,
        empty: WayMask,
        incoming_shared: bool,
        candidate_frac: f64,
    ) -> usize {
        let harv = self.harvest_mask & eff;
        let non_harv = self.harvest_mask.complement(self.ways) & eff;
        // Shared lines prefer the Non-Harv region, private lines Harv.
        let (preferred, other) = if incoming_shared {
            (non_harv, harv)
        } else {
            (harv, non_harv)
        };

        // Empty-slot cases (Algorithm 1, first branch). Empty slots are not
        // subject to the candidate window.
        for region in [preferred, other] {
            if let Some(w) = (region & empty).iter().next() {
                return w;
            }
        }

        // No empty slot: restrict to the M least-recently-used entries.
        let allowed_count = eff.count();
        let m = ((allowed_count as f64 * candidate_frac).round() as usize).clamp(1, allowed_count);
        // Each access stamps at most one way with a fresh clock value, so
        // valid stamps never tie and the window's rank order is the stamp
        // order alone.
        debug_assert!(
            eff.iter().all(|a| eff
                .iter()
                .all(|b| a == b || self.stamp(base, a) != self.stamp(base, b))),
            "valid ways carry distinct LRU stamps"
        );
        let window = self.candidate_window(base, eff, m);
        let mut private = 0u32;
        for w in window.iter() {
            private |= u32::from(self.meta(base, w) & META_SHARED == 0) << w;
        }
        let private = WayMask(private);

        // A private victim in the preferred region, then a private one in
        // the other region, then the LRU candidate.
        self.lru_of(base, preferred & private)
            .or_else(|| self.lru_of(base, other & private))
            .or_else(|| self.lru_of(base, window))
            .expect("candidate window is non-empty")
    }

    /// Algorithm 1's eviction-candidate window: the `m` ways of `eff` that
    /// rank lowest by `(stamp, way)` — exactly the first `m` ways of `eff`
    /// stably sorted by LRU stamp. Built by dropping the `eff.count() - m`
    /// highest-ranked ways one pass at a time, so the default M = 75 %
    /// window costs a quarter of the set's ways in passes and no sort.
    fn candidate_window(&self, base: usize, eff: WayMask, m: usize) -> WayMask {
        let mut window = eff.0;
        for _ in m..eff.count() {
            let (mut newest_stamp, mut newest_way) = (0u64, 0usize);
            for w in WayMask(window).iter() {
                // `>=`: ascending ways, so an equal stamp at a higher way
                // ranks higher, as it would after a stable sort.
                let stamp = self.stamp(base, w);
                if stamp >= newest_stamp {
                    (newest_stamp, newest_way) = (stamp, w);
                }
            }
            window &= !(1 << newest_way);
        }
        WayMask(window)
    }

    /// Least-recently-used way in `mask`; the lowest way on a stamp tie.
    fn lru_of(&self, base: usize, mask: WayMask) -> Option<usize> {
        mask.iter().min_by_key(|&w| self.stamp(base, w))
    }

    /// Invalidates every entry in the given ways across all sets (the
    /// harvest-region flush). Returns the number of valid entries dropped.
    /// Clears valid bits only; set blocks are read for the dirty bits of
    /// the dropped lines and never written.
    pub fn invalidate_ways(&mut self, mask: WayMask) -> u64 {
        let eff = self.effective(mask);
        let mut dropped = 0;
        for set in 0..self.sets {
            let doomed = WayMask(self.valid[set]) & eff;
            if doomed.is_empty() {
                continue;
            }
            let base = self.block(set);
            dropped += doomed.count() as u64;
            for w in doomed.iter() {
                if self.meta(base, w) & META_DIRTY != 0 {
                    self.stats.writebacks += 1;
                }
            }
            self.valid[set] &= !doomed.0;
        }
        self.stats.flushed += dropped;
        dropped
    }

    /// Invalidates the whole structure (software full flush). Returns the
    /// number of valid entries dropped.
    pub fn invalidate_all(&mut self) -> u64 {
        self.invalidate_ways(WayMask::all(self.ways))
    }

    /// Dumps the state of every way of `set` (see [`WayState`]). Used by
    /// the differential oracle to compare against its reference model and
    /// to print the ways of a diverging set. An invalid way reports every
    /// field but `way` as zero, whatever its words hold.
    ///
    /// # Panics
    /// Panics if `set` is out of range.
    pub fn way_states(&self, set: usize) -> Vec<WayState> {
        assert!(set < self.sets, "set {set} out of range");
        let base = self.block(set);
        (0..self.ways)
            .map(|w| {
                if self.valid[set] & (1 << w) == 0 {
                    return WayState {
                        way: w,
                        tag: 0,
                        valid: false,
                        shared: false,
                        dirty: false,
                        rrpv: 0,
                        stamp: 0,
                    };
                }
                let m = self.meta(base, w);
                WayState {
                    way: w,
                    tag: self.slots[base + w],
                    valid: true,
                    shared: m & META_SHARED != 0,
                    dirty: m & META_DIRTY != 0,
                    rrpv: (m & RRPV_MASK) >> RRPV_SHIFT,
                    stamp: self.stamp(base, w),
                }
            })
            .collect()
    }

    /// The set index a key maps to: a mask when the set count is a power
    /// of two (every Table 1 private cache and TLB), `%` otherwise.
    #[inline]
    pub fn set_of(&self, key: u64) -> usize {
        match self.index_mask {
            Some(mask) => (key & mask) as usize,
            None => (key % self.sets as u64) as usize,
        }
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.occupancy_in(WayMask::all(self.ways))
    }

    /// Number of valid entries resident in the given ways.
    pub fn occupancy_in(&self, mask: WayMask) -> usize {
        let eff = self.effective(mask);
        self.valid.iter().map(|&v| (WayMask(v) & eff).count()).sum()
    }

    /// Number of valid *shared* entries resident in the given ways.
    pub fn shared_occupancy_in(&self, mask: WayMask) -> usize {
        let eff = self.effective(mask);
        let mut n = 0;
        for (set, &v) in self.valid.iter().enumerate() {
            let base = self.block(set);
            n += (WayMask(v) & eff)
                .iter()
                .filter(|&w| self.meta(base, w) & META_SHARED != 0)
                .count();
        }
        n
    }
}

impl Drop for SetAssocCache {
    /// Leaves the set blocks on this thread's spare list for the next
    /// cache of the same size.
    fn drop(&mut self) {
        give_slots(std::mem::take(&mut self.slots));
    }
}

/// The most set-block bytes one thread keeps for reuse: room for one
/// Table 1 server's caches and TLBs (≈25.4 MB, 18.9 MB of it the LLC).
/// A server built after one of the same geometry was dropped on its thread
/// then takes every block from the spare list instead of zeroing ≈25 MB.
const SPARE_SLOT_BYTES: usize = 32 << 20;

thread_local! {
    /// Dropped caches' set blocks, oldest first. Per thread, so no lock:
    /// a server is built, run and dropped on one thread.
    static SPARE: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// A set-block buffer of `len` words: the newest spare one of that length,
/// else a fresh zeroed one. Its contents are garbage either way as far as
/// the cache is concerned (see [`SetAssocCache::slots`]).
fn take_slots(len: usize) -> Vec<u64> {
    SPARE
        .try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let i = spare.iter().rposition(|b| b.len() == len)?;
            Some(spare.remove(i))
        })
        .ok()
        .flatten()
        .unwrap_or_else(|| vec![0; len])
}

/// Puts `slots` on the spare list, then frees the oldest entries while the
/// list holds more than [`SPARE_SLOT_BYTES`]. Frees `slots` itself if it
/// alone is larger, or when the thread is exiting.
fn give_slots(slots: Vec<u64>) {
    let max_words = SPARE_SLOT_BYTES / std::mem::size_of::<u64>();
    if slots.len() > max_words {
        return;
    }
    let _ = SPARE.try_with(|spare| {
        let mut spare = spare.borrow_mut();
        spare.push(slots);
        let mut words: usize = spare.iter().map(Vec::len).sum();
        while words > max_words {
            words -= spare.remove(0).len();
        }
    });
}

/// Asks the host to bring the 64-byte line holding `p` into its caches.
/// A hint only: it never faults and changes no program-visible state.
#[inline(always)]
fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` reads no memory architecturally and cannot
    // fault on any address, so every pointer value is valid input; SSE,
    // which the intrinsic requires, is part of the x86-64 baseline.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn small(policy: PolicyKind) -> SetAssocCache {
        // 1 set, 4 ways, harvest region = ways 0..2
        SetAssocCache::new(1, 4, policy, WayMask::lower(2))
    }

    const ALL4: WayMask = WayMask(0b1111);

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(PolicyKind::Lru);
        assert!(!c.access(10, false, ALL4, false).hit);
        assert!(c.access(10, false, ALL4, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small(PolicyKind::Lru);
        for k in 0..4 {
            c.access(k, false, ALL4, false);
        }
        c.access(0, false, ALL4, false); // refresh key 0
        c.access(100, false, ALL4, false); // evicts key 1 (oldest)
        assert!(!c.access(1, false, ALL4, false).hit);
        assert!(c.access(0, false, ALL4, false).hit);
    }

    #[test]
    fn restricted_mask_limits_capacity() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        for k in 0..3 {
            c.access(k, false, harvest_only, false);
        }
        // only 2 ways available: key 0 was evicted
        assert!(!c.access(0, false, harvest_only, false).hit);
        assert_eq!(c.occupancy_in(WayMask::lower(2)), 2);
        assert_eq!(c.occupancy_in(WayMask::lower(2).complement(4)), 0);
    }

    #[test]
    fn empty_allowed_mask_bypasses() {
        let mut c = small(PolicyKind::Lru);
        let out = c.access(5, false, WayMask::EMPTY, false);
        assert!(!out.hit);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn hit_requires_allowed_way() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        let non_harvest = harvest_only.complement(4);
        c.access(7, true, non_harvest, false); // resident in a non-harvest way
                                               // an access restricted to harvest ways must not see it
        assert!(!c.access(7, true, harvest_only, false).hit);
    }

    #[test]
    fn disallowed_resident_copy_is_invalidated_on_miss() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        let non_harvest = harvest_only.complement(4);
        c.access(7, false, non_harvest, true); // dirty, resident in a NH way
                                               // Miss restricted to harvest ways: the stale NH copy must be
                                               // dropped (and written back) before the new insertion, leaving a
                                               // single resident copy rather than a duplicate tag.
        let out = c.access(7, false, harvest_only, false);
        assert!(!out.hit);
        assert!(out.writeback, "dirty stale copy must be written back");
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.occupancy(), 1, "no duplicate tag in the set");
        assert_eq!(c.occupancy_in(non_harvest), 0);
        assert_eq!(c.occupancy_in(harvest_only), 1);
        assert!(c.access(7, false, ALL4, false).hit);
        // Evicting the surviving copy (clean) must not write back again.
        c.access(8, false, harvest_only, false);
        c.access(9, false, harvest_only, false);
        assert_eq!(c.stats().writebacks, 1, "no double-counted writeback");
    }

    #[test]
    fn clean_disallowed_copy_drops_without_writeback() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        let non_harvest = harvest_only.complement(4);
        c.access(7, false, non_harvest, false); // clean copy
        let out = c.access(7, false, harvest_only, false);
        assert!(!out.hit && !out.writeback);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn bypass_leaves_disallowed_copy_resident() {
        let mut c = small(PolicyKind::Lru);
        let non_harvest = WayMask::lower(2).complement(4);
        c.access(7, false, non_harvest, false);
        // Empty allowed mask: nothing is inserted, so the resident copy
        // must not be invalidated either.
        c.access(7, false, WayMask::EMPTY, false);
        assert_eq!(c.occupancy(), 1);
        assert!(c.access(7, false, ALL4, false).hit);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = SetAssocCache::new(1, 1, PolicyKind::Lru, WayMask::EMPTY);
        let one = WayMask::lower(1);
        c.access(1, false, one, true); // dirty
        let out = c.access(2, false, one, false); // evicts dirty line
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn rrip_hits_reset_rrpv_and_survive() {
        let mut c = small(PolicyKind::Rrip);
        for k in 0..4 {
            c.access(k, false, ALL4, false);
        }
        // Re-reference key 0 repeatedly → rrpv 0, should survive new inserts.
        for _ in 0..3 {
            c.access(0, false, ALL4, false);
        }
        for k in 10..13 {
            c.access(k, false, ALL4, false);
        }
        assert!(c.access(0, false, ALL4, false).hit, "hot line evicted");
    }

    #[test]
    fn hardharvest_steers_shared_to_non_harvest_empty() {
        let mut c = small(PolicyKind::hardharvest_default());
        c.access(1, true, ALL4, false); // shared → non-harvest empty (way 2/3)
        c.access(2, false, ALL4, false); // private → harvest empty (way 0/1)
        let harvest = WayMask::lower(2);
        assert_eq!(c.shared_occupancy_in(harvest.complement(4)), 1);
        assert_eq!(c.occupancy_in(harvest), 1);
        assert_eq!(c.shared_occupancy_in(harvest), 0);
    }

    #[test]
    fn hardharvest_shared_evicts_private_in_non_harvest_first() {
        let mut c = small(PolicyKind::hardharvest_default());
        // Fill: ways 0,1 (harvest) private; ways 2,3 (non-harvest): one
        // private (forced), one shared.
        c.access(1, false, ALL4, false); // → harvest
        c.access(2, false, ALL4, false); // → harvest
        c.access(3, false, ALL4, false); // harvest full → takes NH empty
        c.access(4, true, ALL4, false); // shared → NH empty
        assert_eq!(c.occupancy(), 4);
        // Incoming shared entry must evict the private line in non-harvest
        // (key 3), not the shared one and not harvest lines.
        c.access(5, true, ALL4, false);
        assert!(
            !c.access(3, true, ALL4, false).hit,
            "private NH line should be victim"
        );
        // keys 1,2 (harvest) and 4 (shared NH) survived… key 3's probe
        // above re-inserted it, so just check stats instead:
        assert_eq!(c.stats().flushed, 0);
    }

    #[test]
    fn hardharvest_private_evicts_private_in_harvest_first() {
        let mut c = small(PolicyKind::hardharvest_default());
        c.access(1, false, ALL4, false); // harvest way
        c.access(2, false, ALL4, false); // harvest way
        c.access(3, true, ALL4, false); // NH way
        c.access(4, true, ALL4, false); // NH way
                                        // Incoming private: victim must be the LRU private in harvest (key 1).
        c.access(5, false, ALL4, false);
        assert!(c.probe(1, ALL4).is_none(), "key 1 should be evicted");
        assert!(c.probe(3, ALL4).is_some());
        assert!(c.probe(4, ALL4).is_some());
    }

    #[test]
    fn hardharvest_all_shared_set_falls_back_to_lru() {
        let mut c = small(PolicyKind::HardHarvest {
            candidate_frac: 1.0,
        });
        for k in 1..=4 {
            c.access(k, true, ALL4, false);
        }
        c.access(9, false, ALL4, false); // private incoming, all shared → LRU (key 1)
        assert!(c.probe(1, ALL4).is_none());
        assert!(c.probe(9, ALL4).is_some());
    }

    #[test]
    fn eviction_candidate_window_protects_mru_private() {
        // candidate_frac 0.5 on 4 ways → only the 2 LRU entries are
        // eligible. A recently-touched private line must survive a shared
        // insertion even though Algorithm 1 would otherwise pick it.
        let mut c = small(PolicyKind::HardHarvest {
            candidate_frac: 0.5,
        });
        c.access(1, true, ALL4, false);
        c.access(2, true, ALL4, false);
        c.access(3, true, ALL4, false);
        c.access(4, false, ALL4, false); // private, most recently used
        c.access(4, false, ALL4, false); // refresh again
        c.access(5, true, ALL4, false); // shared insert
        assert!(
            c.probe(4, ALL4).is_some(),
            "MRU private line must be outside the candidate window"
        );
    }

    #[test]
    fn candidate_window_is_prefix_of_stable_stamp_sort() {
        let mut rng = hh_sim::Rng64::new(0x57A3);
        for ways in [2usize, 4, 8, 12, 16, 32] {
            let mut c = SetAssocCache::new(1, ways, PolicyKind::Lru, WayMask::EMPTY);
            for round in 0..200 {
                // Distinct stamps (a shuffled order, what the cache itself
                // produces) in even rounds, colliding ones in odd rounds to
                // pin the stable-sort tie order too.
                let mut order: Vec<u64> = (1..=ways as u64).collect();
                rng.shuffle(&mut order);
                for (w, &stamp) in order.iter().enumerate() {
                    let stamp = if round % 2 == 0 { stamp } else { 1 + stamp % 3 };
                    c.set_state(0, w, stamp, 0);
                }
                let eff = WayMask(rng.next_u64() as u32) & WayMask::all(ways);
                if eff.is_empty() {
                    continue;
                }
                let m = 1 + rng.below(eff.count() as u64) as usize;
                let mut sorted: Vec<usize> = eff.iter().collect();
                sorted.sort_by_key(|&w| c.stamp(0, w));
                let expected = sorted[..m]
                    .iter()
                    .fold(WayMask::EMPTY, |acc, &w| acc | WayMask(1 << w));
                assert_eq!(
                    c.candidate_window(0, eff, m),
                    expected,
                    "{ways} ways, eff {eff}, m {m}, states {:?}",
                    &c.slots[ways..]
                );
            }
        }
    }

    #[test]
    fn invalidate_ways_flushes_only_region() {
        let mut c = small(PolicyKind::hardharvest_default());
        c.access(1, false, ALL4, false); // harvest
        c.access(2, true, ALL4, false); // non-harvest
        let dropped = c.invalidate_ways(WayMask::lower(2));
        assert_eq!(dropped, 1);
        assert!(c.probe(1, ALL4).is_none());
        assert!(c.probe(2, ALL4).is_some());
        assert_eq!(c.stats().flushed, 1);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = small(PolicyKind::Lru);
        for k in 0..4 {
            c.access(k, false, ALL4, true);
        }
        let dropped = c.invalidate_all();
        assert_eq!(dropped, 4);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().writebacks, 4, "dirty lines written back");
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = small(PolicyKind::Lru);
        c.access(1, false, ALL4, false);
        c.access(1, false, ALL4, false);
        c.access(1, false, ALL4, false);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn multiple_sets_do_not_interfere() {
        let mut c = SetAssocCache::new(4, 2, PolicyKind::Lru, WayMask::lower(1));
        let all = WayMask::all(2);
        // keys 0..8 map to 4 sets, 2 per set → everything fits
        for k in 0..8 {
            c.access(k, false, all, false);
        }
        for k in 0..8 {
            assert!(c.access(k, false, all, false).hit, "key {k}");
        }
    }

    #[test]
    fn invalidated_way_dumps_all_zero() {
        let mut c = small(PolicyKind::Rrip);
        c.access(0x2A, true, ALL4, true); // shared, dirty, stamped
        c.invalidate_all();
        let zero = |way| WayState {
            way,
            tag: 0,
            valid: false,
            shared: false,
            dirty: false,
            rrpv: 0,
            stamp: 0,
        };
        assert_eq!(c.way_states(0), (0..4).map(zero).collect::<Vec<_>>());
        // The invalidated line's words are still in the block.
        assert_eq!(c.slots[0], 0x2A);
    }

    #[test]
    fn dropped_set_blocks_are_recycled() {
        let mut old = SetAssocCache::new(4, 2, PolicyKind::Lru, WayMask::lower(1));
        for k in 1..=8 {
            old.access(k, k % 2 == 0, WayMask::all(2), true);
        }
        let filled = old.slots.clone();
        drop(old);
        let c = SetAssocCache::new(4, 2, PolicyKind::Lru, WayMask::lower(1));
        assert_eq!(c.slots, filled, "the newest spare block of this size");
        assert_eq!(c.occupancy(), 0);
        assert!(c.way_states(3).iter().all(|w| !w.valid && w.tag == 0));
    }

    #[test]
    fn spare_list_stays_within_its_bound() {
        let max_words = SPARE_SLOT_BYTES / std::mem::size_of::<u64>();
        // Forty 1 MiB blocks: more than the list keeps.
        for i in 0..40 {
            let mut block = vec![0u64; 1 << 17];
            block[0] = i;
            give_slots(block);
        }
        SPARE.with(|spare| {
            let spare = spare.borrow();
            assert!(spare.iter().map(Vec::len).sum::<usize>() <= max_words);
            assert_eq!(spare.last().map(|b| b[0]), Some(39), "newest kept");
        });
        give_slots(vec![0; max_words + 1]); // alone over the bound: freed
        assert_eq!(take_slots(1 << 17)[0], 39);
    }

    #[test]
    #[should_panic(expected = "harvest mask exceeds")]
    fn oversized_harvest_mask_panics() {
        SetAssocCache::new(1, 2, PolicyKind::Lru, WayMask::lower(4));
    }
}
