//! Deterministic pseudo-random number generation.
//!
//! The simulator implements its own small PRNG (SplitMix64 seeding a
//! xoshiro256**) instead of depending on an external generator, so that the
//! published experiment numbers are reproducible bit-for-bit regardless of
//! dependency versions. The generator is *not* cryptographic and must never
//! be used for security purposes.

/// A deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64).
///
/// Every stochastic component of the simulation owns its own `Rng64`, derived
/// from the experiment seed plus a stream identifier, so that adding a
/// component never perturbs the random stream of another (a property the
/// paired-system comparisons in the paper's figures rely on).
///
/// # Example
///
/// ```
/// use hh_sim::Rng64;
///
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let p = a.f64();
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng64 {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent stream from this seed and a stream label.
    ///
    /// Streams with different labels are statistically independent, so each
    /// simulated component (per-service arrival process, per-invocation
    /// address stream, …) can own one without cross-talk.
    pub fn stream(seed: u64, label: u64) -> Self {
        // Mix the label through SplitMix64 twice so adjacent labels diverge.
        let mut sm = seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F);
        let mixed = splitmix64(&mut sm) ^ splitmix64(&mut sm);
        Rng64::new(mixed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `(0, 1]`, safe as input to `ln`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal deviate (Box–Muller; one value per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.f64_open();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent() {
        let mut a = Rng64::stream(9, 0);
        let mut b = Rng64::stream(9, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = Rng64::new(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_rejection_loop_stays_bounded_and_deterministic() {
        // With n = 2^63 + 1 the rejection threshold is 2^63 - 1, so about
        // half of all first draws are rejected and redrawn.
        let n = (1u64 << 63) + 1;
        let mut r = Rng64::new(23);
        let mut again = Rng64::new(23);
        let mut redrawn = 0;
        for _ in 0..64 {
            let before = r.clone();
            let v = r.below(n);
            assert!(v < n);
            assert_eq!(v, again.below(n), "same seed, same sequence");
            // Replay the raw draws on the clone until it reaches the same
            // state: the value comes from the last draw consumed.
            let mut probe = before;
            let mut draws = 0;
            let mut last = 0;
            while probe != r {
                last = probe.next_u64();
                draws += 1;
                assert!(draws <= 64, "below consumed implausibly many draws");
            }
            assert_eq!(v, ((last as u128 * n as u128) >> 64) as u64);
            if draws > 1 {
                redrawn += 1;
            }
        }
        assert!(redrawn > 0, "no call exercised the rejection loop");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng64::new(13);
        for _ in 0..1_000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut r = Rng64::new(17);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(19);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100 elements should not stay sorted");
    }

    #[test]
    fn chance_estimates_probability() {
        let mut r = Rng64::new(23);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.25).abs() < 0.01, "p {p}");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng64::new(1).below(0);
    }
}
