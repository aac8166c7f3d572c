//! The simulation clock.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Core clock frequency of the modeled server, in GHz (paper Table 1:
/// "36 6-issue cores at 3GHz").
pub const CLOCK_GHZ: f64 = 3.0;

/// A point in simulated time, or a duration, measured in processor cycles.
///
/// One cycle is `1 / 3 GHz` ≈ 0.333 ns. The type is a thin newtype over
/// `u64` (C-NEWTYPE) so that cycle counts cannot be accidentally mixed with
/// other integers; all workload and latency parameters are converted into
/// cycles at the edges of the simulator.
///
/// # Example
///
/// ```
/// use hh_sim::Cycles;
///
/// let t = Cycles::from_us(5.0);
/// assert_eq!(t.as_u64(), 15_000); // 5 µs * 3 GHz
/// assert!((t.as_us() - 5.0).abs() < 1e-9);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// Time zero / an empty duration.
    pub const ZERO: Cycles = Cycles(0);
    /// The largest representable instant; used as "never".
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a duration from a raw cycle count.
    #[inline]
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Builds a duration from nanoseconds of wall-clock time.
    #[inline]
    pub const fn from_ns(ns: f64) -> Self {
        Cycles((ns * CLOCK_GHZ).round() as u64)
    }

    /// Builds a duration from microseconds of wall-clock time.
    #[inline]
    pub const fn from_us(us: f64) -> Self {
        Self::from_ns(us * 1e3)
    }

    /// Builds a duration from milliseconds of wall-clock time.
    #[inline]
    pub const fn from_ms(ms: f64) -> Self {
        Self::from_ns(ms * 1e6)
    }

    /// Builds a duration from seconds of wall-clock time.
    #[inline]
    pub const fn from_secs(s: f64) -> Self {
        Self::from_ns(s * 1e9)
    }

    /// This duration in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / CLOCK_GHZ
    }

    /// This duration in microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.as_ns() / 1e3
    }

    /// This duration in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.as_ns() / 1e6
    }

    /// This duration in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.as_ns() / 1e9
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }

    /// The larger of two instants.
    #[inline]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// The smaller of two instants.
    #[inline]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    /// Panics in debug builds if `rhs > self` (time under-flow is a
    /// simulation bug); use [`Cycles::saturating_sub`] when clamping is
    /// intended.
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_ns();
        if ns < 1e3 {
            write!(f, "{ns:.0}ns")
        } else if ns < 1e6 {
            write!(f, "{:.2}us", ns / 1e3)
        } else if ns < 1e9 {
            write!(f, "{:.2}ms", ns / 1e6)
        } else {
            write!(f, "{:.3}s", ns / 1e9)
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_conversions() {
        let t = Cycles::from_us(100.0);
        assert_eq!(t.as_u64(), 300_000);
        assert!((t.as_us() - 100.0).abs() < 1e-9);
        assert!((Cycles::from_ms(5.0).as_ms() - 5.0).abs() < 1e-9);
        assert!((Cycles::from_secs(1.0).as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(Cycles::default(), Cycles::ZERO);
        assert_eq!(Cycles::ZERO.as_ns(), 0.0);
    }

    #[test]
    fn arithmetic() {
        let a = Cycles::new(100);
        let b = Cycles::new(40);
        assert_eq!(a + b, Cycles::new(140));
        assert_eq!(a - b, Cycles::new(60));
        assert_eq!(a * 3, Cycles::new(300));
        assert_eq!(a / 4, Cycles::new(25));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: Cycles = [Cycles::new(1), Cycles::new(2), Cycles::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycles::new(6));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Cycles::from_ns(30.0).to_string(), "30ns");
        assert_eq!(Cycles::from_us(1.5).to_string(), "1.50us");
        assert_eq!(Cycles::from_ms(2.25).to_string(), "2.25ms");
        assert_eq!(Cycles::from_secs(1.5).to_string(), "1.500s");
    }

    #[test]
    fn ordering_matches_cycle_count() {
        assert!(Cycles::from_ns(10.0) < Cycles::from_us(1.0));
        assert!(Cycles::MAX > Cycles::from_secs(1e6));
    }
}
