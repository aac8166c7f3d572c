//! Offline optimal replacement (Belady/MIN) for the Figure 14 policy study.
//!
//! Belady's algorithm needs the future, so it cannot run inside the online
//! system simulation; instead the replacement-policy lab records an access
//! trace and replays it here. The same trace replayed through
//! [`crate::SetAssocCache`] under LRU/RRIP/HardHarvest gives the comparable
//! online numbers.

use std::collections::BTreeMap;

use crate::{CacheOp, CacheStats};

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    valid: bool,
    /// Trace index of this line's next reference (usize::MAX = never).
    next_use: usize,
}

/// An offline cache simulator with optimal (farthest-next-use) replacement.
///
/// # Example
///
/// ```
/// use hh_mem::{BeladyCache, CacheOp, WayMask};
///
/// let all = WayMask::all(2);
/// let trace: Vec<CacheOp> = [1, 2, 3, 1]
///     .into_iter()
///     .map(|key| CacheOp::Access { key, shared: false, write: false, allowed: all })
///     .collect();
/// let stats = BeladyCache::new(1, 2).run(&trace);
/// // Optimal keeps key 1 (reused) and evicts key 2 (never reused).
/// assert_eq!(stats.hits, 1);
/// ```
#[derive(Debug)]
pub struct BeladyCache {
    sets: usize,
    ways: usize,
}

impl BeladyCache {
    /// Creates a simulator with the given geometry.
    ///
    /// # Panics
    /// Panics if `sets` or `ways` is zero or `ways > 32`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0 && ways <= 32);
        BeladyCache { sets, ways }
    }

    /// Replays `trace` with optimal replacement and returns hit statistics.
    ///
    /// The oracle is *flush-aware*: an entry whose next reuse lies beyond a
    /// flush of its way counts as dead (it can never realize that hit), so
    /// the victim choice prefers it — the future knowledge a real Belady
    /// bound needs in a partitioned, flushing cache. (Even so, greedy
    /// farthest-future eviction is a near-optimal heuristic rather than a
    /// provable optimum once invalidations and per-access way masks are in
    /// play; the classic MIN exchange argument does not carry over.)
    ///
    /// Accesses are placed by their key and allowed mask only: the shared
    /// and store bits steer no Belady decision. `SetHarvestMask` ops are
    /// skipped — they alter an online policy's victim *preference*, not
    /// which ways an access may reach.
    pub fn run(&self, trace: &[CacheOp]) -> CacheStats {
        // Pass 1a: successor index for each access.
        let mut next = vec![usize::MAX; trace.len()];
        let mut last_seen: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, op) in trace.iter().enumerate() {
            if let CacheOp::Access { key, .. } = op {
                if let Some(&prev) = last_seen.get(key) {
                    next[prev] = i;
                }
                last_seen.insert(*key, i);
            }
        }
        // Pass 1b: flush positions per way (to detect doomed entries).
        let mut flushes_at: Vec<Vec<usize>> = vec![Vec::new(); self.ways];
        for (i, op) in trace.iter().enumerate() {
            if let CacheOp::InvalidateWays(mask) = op {
                for w in mask.iter().filter(|&w| w < self.ways) {
                    flushes_at[w].push(i);
                }
            }
        }
        // Would an entry in way `w`, alive at time `i`, survive until its
        // next use at `k`?
        let doomed = |w: usize, i: usize, k: usize| -> bool {
            if k == usize::MAX {
                return true; // never reused: as good as dead
            }
            let fl = &flushes_at[w];
            match fl.binary_search(&i) {
                Ok(p) | Err(p) => fl.get(p).is_some_and(|&f| f < k),
            }
        };

        // Pass 2: simulate.
        let mut slots = vec![Slot::default(); self.sets * self.ways];
        let mut stats = CacheStats::default();
        for (i, op) in trace.iter().enumerate() {
            match *op {
                CacheOp::InvalidateWays(mask) => {
                    for set in 0..self.sets {
                        for w in mask.iter().filter(|&w| w < self.ways) {
                            let s = &mut slots[set * self.ways + w];
                            if s.valid {
                                stats.flushed += 1;
                                s.valid = false;
                            }
                        }
                    }
                }
                CacheOp::SetHarvestMask(_) => {}
                CacheOp::Access { key, allowed, .. } => {
                    let set = (key % self.sets as u64) as usize;
                    let base = set * self.ways;
                    let hit_way = (0..self.ways).find(|&w| {
                        allowed.contains(w) && slots[base + w].valid && slots[base + w].key == key
                    });
                    if let Some(w) = hit_way {
                        stats.hits += 1;
                        slots[base + w].next_use = next[i];
                        continue;
                    }
                    stats.misses += 1;
                    if allowed.is_empty() {
                        continue;
                    }
                    // Effective next use: ∞ for entries that die in a flush
                    // before their reuse.
                    let eff = |w: usize| -> usize {
                        let s = &slots[base + w];
                        if doomed(w, i, s.next_use) {
                            usize::MAX
                        } else {
                            s.next_use
                        }
                    };
                    // Placement with future knowledge: put the line where it
                    // *survives* until its reuse — a free slot in a
                    // surviving way first, then evict the farthest-reused
                    // resident of a surviving way (dead residents first).
                    // Lines that survive nowhere just park in any free slot
                    // (equivalent to a bypass for hit counting).
                    let surviving = |w: &usize| !doomed(*w, i, next[i]);
                    let victim = allowed
                        .iter()
                        .filter(|&w| w < self.ways)
                        .filter(surviving)
                        .find(|&w| !slots[base + w].valid)
                        .or_else(|| {
                            allowed
                                .iter()
                                .filter(|&w| w < self.ways)
                                .filter(surviving)
                                .max_by_key(|&w| eff(w))
                                .filter(|&w| eff(w) > next[i])
                        })
                        .or_else(|| {
                            allowed
                                .iter()
                                .filter(|&w| w < self.ways)
                                .find(|&w| !slots[base + w].valid)
                        });
                    if let Some(w) = victim {
                        slots[base + w] = Slot {
                            key,
                            valid: true,
                            next_use: next[i],
                        };
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WayMask;

    const ALL2: WayMask = WayMask(0b11);

    fn acc_in(key: u64, allowed: WayMask) -> CacheOp {
        CacheOp::Access {
            key,
            shared: false,
            write: false,
            allowed,
        }
    }

    fn acc(key: u64) -> CacheOp {
        acc_in(key, ALL2)
    }

    #[test]
    fn optimal_beats_lru_on_cyclic_trace() {
        // Classic: cyclic access over 3 keys with 2 ways. LRU gets 0 hits;
        // Belady keeps one key resident.
        let trace: Vec<CacheOp> = (0..30).map(|i| acc(i % 3)).collect();
        let stats = BeladyCache::new(1, 2).run(&trace);
        // LRU equivalent would be 0 hits; optimal achieves ~half.
        assert!(stats.hits >= 13, "belady hits = {}", stats.hits);
    }

    #[test]
    fn never_reused_lines_are_victims() {
        let trace = vec![acc(1), acc(2), acc(3), acc(1), acc(2)];
        let stats = BeladyCache::new(1, 2).run(&trace);
        assert_eq!(stats.hits, 2); // keys 1 and 2 hit; 3 was the victim
    }

    #[test]
    fn flush_invalidates() {
        let trace = vec![acc(1), CacheOp::InvalidateWays(WayMask::all(2)), acc(1)];
        let stats = BeladyCache::new(1, 2).run(&trace);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.flushed, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn harvest_mask_reloads_are_skipped() {
        // Interleaving HarvestMask reloads shifts every later op's index
        // but changes no decision: the result equals the trace without them.
        let plain = vec![
            acc(1),
            acc(2),
            CacheOp::InvalidateWays(WayMask::lower(1)),
            acc(3),
            acc(1),
            acc(2),
        ];
        let reload = CacheOp::SetHarvestMask(WayMask::lower(1));
        let mut with_reloads = Vec::new();
        for op in &plain {
            with_reloads.extend([reload, *op]);
        }
        let b = BeladyCache::new(1, 2);
        assert_eq!(b.run(&with_reloads), b.run(&plain));
    }

    #[test]
    fn respects_allowed_mask() {
        let only_way0 = WayMask::lower(1);
        let trace = vec![
            acc_in(1, only_way0),
            acc_in(2, only_way0),
            acc_in(1, only_way0),
        ];
        let stats = BeladyCache::new(1, 2).run(&trace);
        // With one allowed way, optimal replacement bypasses the
        // never-reused key 2 and keeps key 1 resident for its re-use.
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn empty_allowed_mask_never_caches() {
        let trace = vec![acc_in(1, WayMask::EMPTY), acc_in(1, WayMask::EMPTY)];
        let stats = BeladyCache::new(1, 2).run(&trace);
        assert_eq!(stats.misses, 2);
    }
}
