//! Naive array-of-structs reference model of [`hh_mem::SetAssocCache`].
//!
//! The optimized cache packs each set into one block of tags and state
//! words (stamp and metadata byte in one word), keeps validity in per-set
//! bitmasks, indexes sets by mask, and selects victims with way bitmasks;
//! every one of those tricks is a place for a bug to hide. This model
//! keeps one plain struct per way, written as a direct transcription of
//! the intended semantics (the probe/insert protocol of Section 4.2.1, the
//! stale-copy invalidation rule, and Algorithm 1's victim selection), and
//! favors obviousness over speed everywhere. The differential driver in
//! [`crate::diff`] replays identical traces through both and reports the
//! first divergence.
//!
//! Intentional behavioral contract (shared with the optimized path):
//!
//! * the access clock ticks once per access, hit or miss;
//! * hits refresh the LRU stamp, reset the RRPV to 0, may set (never
//!   clear) the dirty bit, and leave the `Shared` bit untouched;
//! * a miss is counted *before* the empty-mask bypass check;
//! * stale copies in disallowed ways are invalidated (dirty ones written
//!   back) before the new insertion, in ascending way order;
//! * insertions start with RRPV 2 (SRRIP long re-reference);
//! * all tie-breaks resolve toward the lowest way index.

use hh_mem::{AccessOutcome, CacheStats, PolicyKind, WayMask, WayState};

/// One way of one set, stored as an ordinary struct.
#[derive(Debug, Default, Clone, Copy)]
struct RefEntry {
    valid: bool,
    tag: u64,
    shared: bool,
    dirty: bool,
    rrpv: u8,
    stamp: u64,
}

/// The reference cache: identical observable behavior to
/// [`hh_mem::SetAssocCache`], deliberately naive implementation.
#[derive(Debug, Clone)]
pub struct RefCache {
    sets: usize,
    ways: usize,
    /// `entries[set][way]` — no packing, no shared allocation.
    entries: Vec<Vec<RefEntry>>,
    policy: PolicyKind,
    harvest_mask: WayMask,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    /// Creates an empty reference cache with the same construction rules
    /// as the optimized structure.
    ///
    /// # Panics
    /// Panics if `sets` or `ways` is zero, `ways > 32`, or the harvest
    /// mask references ways beyond `ways`.
    pub fn new(sets: usize, ways: usize, policy: PolicyKind, harvest_mask: WayMask) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate geometry");
        assert!(ways <= 32, "way mask is 32 bits");
        assert!(
            !harvest_mask.intersects(WayMask::all(ways).complement(32)),
            "harvest mask exceeds the structure's ways"
        );
        RefCache {
            sets,
            ways,
            entries: vec![vec![RefEntry::default(); ways]; sets],
            policy,
            harvest_mask,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reconfigures the harvest region.
    ///
    /// # Panics
    /// Panics if the mask references ways beyond the structure.
    pub fn set_harvest_mask(&mut self, mask: WayMask) {
        assert!(!mask.intersects(WayMask::all(self.ways).complement(32)));
        self.harvest_mask = mask;
    }

    /// The set index a key maps to.
    pub fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    /// Dumps the state of every way of `set`, in the same format the
    /// optimized cache reports, so the two can be compared field by field.
    ///
    /// # Panics
    /// Panics if `set` is out of range.
    pub fn way_states(&self, set: usize) -> Vec<WayState> {
        assert!(set < self.sets, "set {set} out of range");
        self.entries[set]
            .iter()
            .enumerate()
            .map(|(w, e)| WayState {
                way: w,
                tag: e.tag,
                valid: e.valid,
                shared: e.shared,
                dirty: e.dirty,
                rrpv: e.rrpv,
                stamp: e.stamp,
            })
            .collect()
    }

    /// Number of currently valid entries across all sets.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().filter(|e| e.valid).count()
    }

    /// Performs one access with the same contract as
    /// `SetAssocCache::access`.
    pub fn access(
        &mut self,
        key: u64,
        shared: bool,
        allowed: WayMask,
        write: bool,
    ) -> AccessOutcome {
        // The clock ticks first, on every access, hit or miss.
        self.clock += 1;
        let eff = allowed & WayMask::all(self.ways);
        let set = self.set_of(key);

        // Probe every way in ascending order. A tag match in an allowed way
        // is a hit; matches in disallowed ways are stale copies to drop on
        // the miss path.
        let mut stale: Vec<usize> = Vec::new();
        for w in 0..self.ways {
            let e = self.entries[set][w];
            if e.valid && e.tag == key {
                if eff.contains(w) {
                    let e = &mut self.entries[set][w];
                    e.stamp = self.clock;
                    e.rrpv = 0;
                    if write {
                        e.dirty = true;
                    }
                    // The Shared bit is set at insertion and never updated
                    // by later references (Section 4.2.2).
                    self.stats.hits += 1;
                    return AccessOutcome {
                        hit: true,
                        writeback: false,
                    };
                }
                stale.push(w);
            }
        }

        // Misses are counted even when the empty mask forces a bypass.
        self.stats.misses += 1;
        if eff.is_empty() {
            return AccessOutcome {
                hit: false,
                writeback: false,
            };
        }

        // Invalidate stale disallowed copies (ascending ways), writing
        // dirty ones back, before inserting the fresh copy.
        let mut writeback = false;
        for w in stale {
            if self.entries[set][w].dirty {
                self.stats.writebacks += 1;
                writeback = true;
            }
            self.entries[set][w] = RefEntry::default();
        }

        let victim = self.choose_victim(set, eff, shared);
        if self.entries[set][victim].valid && self.entries[set][victim].dirty {
            self.stats.writebacks += 1;
            writeback = true;
        }
        self.entries[set][victim] = RefEntry {
            valid: true,
            tag: key,
            shared,
            dirty: write,
            rrpv: 2,
            stamp: self.clock,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Invalidates every entry in the given ways across all sets; returns
    /// the number of valid entries dropped.
    pub fn invalidate_ways(&mut self, mask: WayMask) -> u64 {
        let eff = mask & WayMask::all(self.ways);
        let mut dropped = 0;
        for set in 0..self.sets {
            for w in eff.iter() {
                if self.entries[set][w].valid {
                    dropped += 1;
                    if self.entries[set][w].dirty {
                        self.stats.writebacks += 1;
                    }
                    self.entries[set][w] = RefEntry::default();
                }
            }
        }
        self.stats.flushed += dropped;
        dropped
    }

    fn choose_victim(&mut self, set: usize, eff: WayMask, incoming_shared: bool) -> usize {
        match self.policy {
            PolicyKind::Lru => self.victim_lru(set, eff),
            PolicyKind::Rrip => self.victim_rrip(set, eff),
            PolicyKind::HardHarvest { candidate_frac } => {
                self.victim_hardharvest(set, eff, incoming_shared, candidate_frac)
            }
        }
    }

    /// First empty way of `mask`, ascending.
    fn first_empty(&self, set: usize, mask: WayMask) -> Option<usize> {
        mask.iter().find(|&w| !self.entries[set][w].valid)
    }

    /// Oldest way of `mask` satisfying `pred`; ties go to the lowest way.
    fn oldest(&self, set: usize, mask: WayMask, pred: impl Fn(&RefEntry) -> bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for w in mask.iter() {
            if !pred(&self.entries[set][w]) {
                continue;
            }
            // Strict `<` keeps the first (lowest-way) minimum on ties.
            match best {
                Some(b) if self.entries[set][w].stamp < self.entries[set][b].stamp => {
                    best = Some(w);
                }
                None => best = Some(w),
                _ => {}
            }
        }
        best
    }

    fn victim_lru(&self, set: usize, eff: WayMask) -> usize {
        if let Some(w) = self.first_empty(set, eff) {
            return w;
        }
        self.oldest(set, eff, |_| true)
            .expect("allowed mask verified non-empty")
    }

    fn victim_rrip(&mut self, set: usize, eff: WayMask) -> usize {
        if let Some(w) = self.first_empty(set, eff) {
            return w;
        }
        // SRRIP: find a distant (RRPV = 3) way, ascending; otherwise age
        // every allowed way and retry. Aging persists in the entries, as
        // in the real SRRIP hardware table.
        loop {
            for w in eff.iter() {
                if self.entries[set][w].rrpv == 3 {
                    return w;
                }
            }
            for w in eff.iter() {
                let e = &mut self.entries[set][w];
                e.rrpv = (e.rrpv + 1).min(3);
            }
        }
    }

    /// Algorithm 1 of the paper, transcribed line by line:
    ///
    /// 1. an empty slot wins outright — shared entries prefer an empty
    ///    non-harvest slot, private entries an empty harvest slot, and
    ///    either settles for the region that has one;
    /// 2. otherwise only the `M` least-recently-used allowed entries are
    ///    eviction candidates (`M = round(frac × allowed)`, at least 1);
    /// 3. among candidates, a shared insertion victimizes a private entry
    ///    in the non-harvest region first, then a private entry in the
    ///    harvest region, then the LRU candidate of either; a private
    ///    insertion mirrors this with the regions swapped.
    fn victim_hardharvest(
        &self,
        set: usize,
        eff: WayMask,
        incoming_shared: bool,
        candidate_frac: f64,
    ) -> usize {
        let harv = self.harvest_mask & eff;
        let non_harv = self.harvest_mask.complement(self.ways) & eff;

        match (self.first_empty(set, non_harv), self.first_empty(set, harv)) {
            (Some(nh), Some(h)) => {
                return if incoming_shared { nh } else { h };
            }
            (Some(nh), None) => return nh,
            (None, Some(h)) => return h,
            (None, None) => {}
        }

        let allowed_count = eff.count();
        let m = ((allowed_count as f64 * candidate_frac).round() as usize).clamp(1, allowed_count);
        // Ways in ascending order, stably sorted by age: ties keep the
        // lower way earlier, exactly like the optimized stack-buffer sort.
        let mut by_age: Vec<usize> = eff.iter().collect();
        by_age.sort_by_key(|&w| self.entries[set][w].stamp);
        let window = &by_age[..m];

        // LRU scan over `region` restricted to candidate-window entries
        // (and to private entries when asked); ties toward the lowest way.
        let pick = |region: WayMask, private_only: bool| -> Option<usize> {
            let mut best: Option<usize> = None;
            for w in region.iter() {
                if !window.contains(&w) {
                    continue;
                }
                if private_only && self.entries[set][w].shared {
                    continue;
                }
                match best {
                    Some(b) if self.entries[set][w].stamp < self.entries[set][b].stamp => {
                        best = Some(w);
                    }
                    None => best = Some(w),
                    _ => {}
                }
            }
            best
        };

        if incoming_shared {
            pick(non_harv, true)
                .or_else(|| pick(harv, true))
                .or_else(|| pick(eff, false))
                .expect("candidate window is non-empty")
        } else {
            pick(harv, true)
                .or_else(|| pick(non_harv, true))
                .or_else(|| pick(eff, false))
                .expect("candidate window is non-empty")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL4: WayMask = WayMask(0b1111);

    fn small(policy: PolicyKind) -> RefCache {
        RefCache::new(1, 4, policy, WayMask::lower(2))
    }

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
    fn stale_disallowed_copy_is_dropped_with_writeback() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        let non_harvest = harvest_only.complement(4);
        c.access(7, false, non_harvest, true); // dirty NH copy
        let out = c.access(7, false, harvest_only, false);
        assert!(!out.hit && out.writeback);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.occupancy(), 1, "no duplicate tag");
    }

    #[test]
    fn hardharvest_steers_by_shared_bit() {
        let mut c = small(PolicyKind::hardharvest_default());
        c.access(1, true, ALL4, false); // shared → empty non-harvest way (2)
        c.access(2, false, ALL4, false); // private → empty harvest way (0)
        let states = c.way_states(0);
        assert!(states[2].valid && states[2].shared);
        assert!(states[0].valid && !states[0].shared);
    }

    #[test]
    fn empty_mask_bypasses_but_counts_the_miss() {
        let mut c = small(PolicyKind::Lru);
        let out = c.access(5, false, WayMask::EMPTY, false);
        assert!(!out.hit);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.occupancy(), 0);
    }
}
