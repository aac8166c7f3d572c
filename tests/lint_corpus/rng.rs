// Fixture: ambient entropy. std's randomized hasher state is the only
// per-process entropy source reachable without a dependency; it is flagged
// under both of its paths. Randomness flows from a seeded generator.

use std::hash::{BuildHasher, Hasher};

pub fn hasher_state() -> u64 {
    let s = std::collections::hash_map::RandomState::new(); //~ disallowed_types
    s.hash_one(7_u64)
}

pub fn default_hasher() -> u64 {
    let mut h = std::hash::DefaultHasher::new(); //~ disallowed_types
    h.write_u64(7);
    h.finish()
}

pub fn reexported_hasher() -> u64 {
    let h = std::collections::hash_map::DefaultHasher::default(); //~ disallowed_types
    h.finish()
}

/// The blessed path: a generator seeded from the experiment config.
pub fn seeded(seed: u64) -> u64 {
    let mut rng = Rng64::new(seed ^ 0x9e37);
    rng.next_u64()
}

pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    pub fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.state
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn seeded_generators_are_reproducible() {
        assert_eq!(super::seeded(1), super::seeded(1));
    }
}
