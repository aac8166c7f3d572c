//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses —
//! `proptest!` with `pat in strategy` bindings, `prop_assert*`,
//! `prop_assume!`, `prop_oneof!`, `prop::collection::vec`, `any`,
//! `Just`, numeric range strategies and tuples — on top of a small
//! deterministic RNG. Each test samples a fixed number of cases seeded
//! from the test's name, so failures reproduce exactly across runs and
//! machines. There is no shrinking: a failing case panics with the
//! sampled inputs left to the assertion message.
//!
//! The build environment has no network access to crates.io; removing
//! the `[patch.crates-io]` entries in the workspace manifest restores
//! the real proptest.

pub mod test_runner {
    /// Per-test configuration. Only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real proptest defaults to 256; 64 keeps the offline
            // suite fast while still exercising the properties.
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod strategy {
    use std::ops::{Range, RangeInclusive};

    /// Deterministic splitmix64 generator used for all sampling.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Seeds from an arbitrary integer.
        pub fn new(seed: u64) -> Self {
            TestRng(seed ^ 0x9e37_79b9_7f4a_7c15)
        }

        /// Seeds from a test name (FNV-1a), so each property gets a
        /// stable, distinct stream.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng::new(h)
        }

        /// Next raw 64-bit value (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A source of random values of one type.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy producing one fixed value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = (*self.end() - *self.start()) as u64 + 1;
                    *self.start() + (rng.below(span) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let span = self.end().wrapping_sub(*self.start()) as u64 + 1;
                    self.start().wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }
    signed_range_strategy!(i32, i64);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.unit_f64() * (self.end() - self.start())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
    }

    /// Inclusive length bounds for collection strategies. Mirroring the
    /// real proptest's `SizeRange` conversions keeps unsuffixed literals
    /// like `1..200` inferring as `usize`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.end > r.start, "empty length range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec`s with a length drawn from a [`SizeRange`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        pub(crate) element: S,
        pub(crate) len: SizeRange,
    }

    impl<S> VecStrategy<S> {
        pub(crate) fn new(element: S, len: SizeRange) -> Self {
            VecStrategy { element, len }
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.hi_inclusive - self.len.lo) as u64 + 1;
            let n = self.len.lo + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Equal-weight choice among boxed strategies (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// Builds a union from its arms; at least one is required.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> std::fmt::Debug for Union<V> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Union({} arms)", self.arms.len())
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].sample(rng)
        }
    }

    /// Boxes a strategy for use in a [`Union`] (helper for `prop_oneof!`
    /// so the arm types unify by inference).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }
}

pub mod arbitrary {
    use crate::strategy::{Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy returned by [`any`].
    #[derive(Clone, Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// `proptest::prop` namespace (collection strategies).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::{SizeRange, Strategy, VecStrategy};

        /// `Vec` strategy: `element` repeated a `len`-drawn number of
        /// times.
        pub fn vec<S, L>(element: S, len: L) -> VecStrategy<S>
        where
            S: Strategy,
            L: Into<SizeRange>,
        {
            VecStrategy::new(element, len.into())
        }
    }
}

/// Everything a test module normally imports.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]`-style function running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
          $(#[$meta:meta])*
          fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::strategy::TestRng::from_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    // The closure gives `prop_assume!` an early exit that
                    // skips just this case.
                    let mut __one_case = || {
                        $(
                            let $pat =
                                $crate::strategy::Strategy::sample(&($strat), &mut __rng);
                        )+
                        $body
                    };
                    __one_case();
                }
            }
        )*
    };
}

/// Asserts a condition, panicking with the formatted message on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

/// Asserts equality.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// Asserts inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*); };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Equal-weight choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::strategy::TestRng::from_name("x");
        let mut b = crate::strategy::TestRng::from_name("x");
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::strategy::TestRng::new(7);
        for _ in 0..256 {
            let v = (3u64..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let f = (0.25f64..=0.75).sample(&mut rng);
            assert!((0.25..=0.75).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn macro_round_trip(xs in prop::collection::vec(0u8..3, 1..10), b in any::<bool>()) {
            prop_assume!(!xs.is_empty());
            prop_assert!(xs.iter().all(|&x| x < 3));
            prop_assert_eq!(b, b);
        }
    }
}
