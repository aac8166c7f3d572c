//! Property tests for the cache/TLB simulator.

use hh_mem::{
    AccessOutcome, BeladyCache, CacheOp, CacheStats, PolicyKind, SetAssocCache, WayMask, WayState,
};
use proptest::prelude::*;
use std::collections::VecDeque;

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Rrip),
        Just(PolicyKind::hardharvest_default()),
        Just(PolicyKind::HardHarvest {
            candidate_frac: 0.5
        }),
    ]
}

proptest! {
    /// Structural capacity: occupancy never exceeds sets × ways, and the
    /// region occupancies always partition the total.
    #[test]
    fn occupancy_is_bounded_and_partitioned(
        policy in policies(),
        keys in prop::collection::vec((0u64..4096, any::<bool>()), 1..600),
        harvest_ways in 1usize..7,
    ) {
        let ways = 8;
        let sets = 16;
        let harvest = WayMask::lower(harvest_ways);
        let mut c = SetAssocCache::new(sets, ways, policy, harvest);
        let all = WayMask::all(ways);
        for &(k, shared) in &keys {
            c.access(k, shared, all, false);
        }
        prop_assert!(c.occupancy() <= sets * ways);
        let in_h = c.occupancy_in(harvest);
        let in_nh = c.occupancy_in(harvest.complement(ways));
        prop_assert_eq!(in_h + in_nh, c.occupancy());
    }

    /// Temporal safety: immediately after any access, the same key hits
    /// (unless the allowed mask was empty).
    #[test]
    fn inserted_key_hits_next_access(
        policy in policies(),
        keys in prop::collection::vec(0u64..512, 1..200),
    ) {
        let mut c = SetAssocCache::new(8, 4, policy, WayMask::lower(2));
        let all = WayMask::all(4);
        for &k in &keys {
            c.access(k, false, all, false);
            prop_assert!(c.probe(k, all).is_some(), "key {k} vanished right after insert");
        }
    }

    /// Region flush completeness: after invalidating the harvest region,
    /// no entry remains in those ways, and the non-harvest region is
    /// untouched.
    #[test]
    fn region_flush_is_exact(
        policy in policies(),
        keys in prop::collection::vec((0u64..2048, any::<bool>()), 1..400),
    ) {
        let ways = 8;
        let harvest = WayMask::lower(4);
        let mut c = SetAssocCache::new(16, ways, policy, harvest);
        let all = WayMask::all(ways);
        for &(k, shared) in &keys {
            c.access(k, shared, all, false);
        }
        let before_h = c.occupancy_in(harvest);
        let before_nh = c.occupancy_in(harvest.complement(ways));
        let dropped = c.invalidate_ways(harvest);
        prop_assert_eq!(dropped as usize, before_h);
        prop_assert_eq!(c.occupancy_in(harvest), 0);
        prop_assert_eq!(c.occupancy_in(harvest.complement(ways)), before_nh);
        prop_assert_eq!(c.occupancy(), before_nh);
    }

    /// Partition isolation: a stream restricted to the harvest ways never
    /// places anything in the non-harvest ways.
    #[test]
    fn harvest_stream_confined_to_region(
        policy in policies(),
        keys in prop::collection::vec(0u64..4096, 1..500),
    ) {
        let ways = 8;
        let harvest = WayMask::lower(3);
        let mut c = SetAssocCache::new(32, ways, policy, harvest);
        for &k in &keys {
            c.access(k, false, harvest, false);
        }
        prop_assert_eq!(c.occupancy_in(harvest.complement(ways)), 0);
    }

    /// The LRU policy agrees with a reference deque model on a single set.
    #[test]
    fn lru_matches_reference_model(keys in prop::collection::vec(0u64..32, 1..400)) {
        let ways = 4;
        let mut c = SetAssocCache::new(1, ways, PolicyKind::Lru, WayMask::EMPTY);
        let all = WayMask::all(ways);
        let mut model: VecDeque<u64> = VecDeque::new(); // front = MRU
        for &k in &keys {
            let model_hit = model.contains(&k);
            let got = c.access(k, false, all, false).hit;
            prop_assert_eq!(got, model_hit, "key {}", k);
            if model_hit {
                let pos = model.iter().position(|&x| x == k).unwrap();
                model.remove(pos);
            } else if model.len() == ways {
                model.pop_back();
            }
            model.push_front(k);
        }
    }

    /// Belady (with bypass) never yields fewer hits than online LRU on the
    /// same trace and geometry.
    #[test]
    fn belady_upper_bounds_lru(keys in prop::collection::vec(0u64..64, 1..500)) {
        let sets = 4;
        let ways = 2;
        let all = WayMask::all(ways);
        let mut lru = SetAssocCache::new(sets, ways, PolicyKind::Lru, WayMask::EMPTY);
        for &k in &keys {
            lru.access(k, false, all, false);
        }
        let trace: Vec<CacheOp> = keys
            .iter()
            .map(|&key| CacheOp::Access {
                key,
                shared: false,
                write: false,
                allowed: all,
            })
            .collect();
        let opt = BeladyCache::new(sets, ways).run(&trace);
        prop_assert!(
            opt.hits >= lru.stats().hits,
            "belady {} < lru {}",
            opt.hits,
            lru.stats().hits
        );
    }

    /// Algorithm 1 steering: while both regions have empty ways, shared
    /// entries land in non-harvest ways and private entries in harvest
    /// ways.
    #[test]
    fn algorithm1_steers_by_class(shared_first in any::<bool>()) {
        let ways = 8;
        let harvest = WayMask::lower(4);
        let mut c = SetAssocCache::new(1, ways, PolicyKind::hardharvest_default(), harvest);
        let all = WayMask::all(ways);
        // Insert one shared + one private while the set is mostly empty.
        if shared_first {
            c.access(1, true, all, false);
            c.access(2, false, all, false);
        } else {
            c.access(2, false, all, false);
            c.access(1, true, all, false);
        }
        prop_assert_eq!(c.shared_occupancy_in(harvest.complement(ways)), 1);
        prop_assert_eq!(c.occupancy_in(harvest), 1);
    }
}

/// What a cache shows its caller over an op stream.
#[derive(Debug, PartialEq)]
enum Seen {
    Access(AccessOutcome),
    Dropped(u64),
    Stats(CacheStats),
    Ways(Vec<WayState>),
}

/// Runs `ops` through `c`, recording every access outcome, every
/// `invalidate_ways` count and `stats()` after each op, then the way
/// states of every set.
fn observe(mut c: SetAssocCache, ops: &[CacheOp]) -> Vec<Seen> {
    let mut seen = Vec::new();
    for &op in ops {
        match op {
            CacheOp::Access {
                key,
                shared,
                write,
                allowed,
            } => seen.push(Seen::Access(c.access(key, shared, allowed, write))),
            CacheOp::InvalidateWays(mask) => seen.push(Seen::Dropped(c.invalidate_ways(mask))),
            CacheOp::SetHarvestMask(mask) => c.set_harvest_mask(mask),
        }
        seen.push(Seen::Stats(c.stats()));
    }
    seen.extend((0..c.sets()).map(|set| Seen::Ways(c.way_states(set))));
    seen
}

proptest! {
    /// A cache built on the set blocks of a dropped, filled cache (dirty
    /// and shared lines included, with tags that collide with the stream's
    /// keys) behaves exactly like one built on zeroed blocks: same access
    /// outcomes, flush counts, statistics and way states, under region
    /// flushes and HarvestMask reloads, on a masked and a `%` set index.
    #[test]
    fn recycled_set_blocks_match_fresh_ones(
        policy in policies(),
        geometry in prop_oneof![Just((16usize, 8usize)), Just((9, 16)), Just((12, 4))],
        litter in prop::collection::vec((0u64..1024, any::<bool>(), any::<bool>()), 64..400),
        raw in prop::collection::vec(
            (0u8..12, 0u64..512, any::<bool>(), any::<bool>(), 0u8..4),
            1..300,
        ),
    ) {
        let (sets, ways) = geometry;
        let harvest = WayMask::lower(ways / 2);
        let palette = [WayMask::all(ways), harvest, harvest.complement(ways), WayMask::lower(1)];
        let ops: Vec<CacheOp> = raw
            .iter()
            .map(|&(kind, key, shared, write, sel)| {
                let mask = palette[sel as usize];
                match kind {
                    10 => CacheOp::InvalidateWays(mask),
                    11 => CacheOp::SetHarvestMask(WayMask::lower(key as usize % (ways + 1))),
                    _ => CacheOp::Access { key, shared, write, allowed: mask },
                }
            })
            .collect();

        let mut old = SetAssocCache::new(sets, ways, policy, harvest);
        for &(key, shared, write) in &litter {
            old.access(key, shared, WayMask::all(ways), write);
        }
        // Dropping it leaves its set blocks on this thread's spare list,
        // where the next cache of this geometry takes them.
        drop(old);
        let recycled = observe(SetAssocCache::new(sets, ways, policy, harvest), &ops);
        // A new thread has no spare blocks, so its cache starts zeroed.
        let fresh_ops = ops.clone();
        let fresh = std::thread::spawn(move || {
            observe(SetAssocCache::new(sets, ways, policy, harvest), &fresh_ops)
        })
        .join()
        .expect("fresh-cache thread");
        prop_assert_eq!(recycled, fresh);
    }
}
