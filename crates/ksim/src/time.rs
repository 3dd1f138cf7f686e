//! Virtual time: nanosecond instants and durations.
//!
//! The simulation clock is a `u64` nanosecond count since boot. At 1 ns
//! resolution the clock wraps after ~584 years of simulated time, far beyond
//! any experiment here; arithmetic therefore uses checked/saturating forms
//! only where underflow is a real possibility.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl SimTime {
    /// The boot instant (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw nanoseconds since boot.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since boot.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Seconds since boot as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; the simulation clock never
    /// runs backwards, so this indicates a harness bug.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        assert!(
            earlier.0 <= self.0,
            "time went backwards: {earlier} > {self}"
        );
        Dur(self.0 - earlier.0)
    }

    /// Saturating difference; zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Builds a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns)
    }

    /// Builds a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds (for calibration tables).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        Dur((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds, truncating.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Dur) -> Dur {
        Dur(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Dur) -> Dur {
        Dur(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// The time needed to move `bytes` at `bytes_per_sec`.
    ///
    /// This is the canonical bandwidth→latency conversion used by every
    /// copy and transfer cost in the hardware model.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Dur {
        assert!(bytes_per_sec > 0, "zero bandwidth");
        // Round up: a transfer always costs at least the exact wire time.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        Dur(ns as u64)
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Dur) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: Dur) -> SimTime {
        SimTime(self.0.checked_sub(d.0).expect("SimTime underflow"))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, d: Dur) -> Dur {
        Dur(self.0 + d.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, d: Dur) -> Dur {
        Dur(self.0.checked_sub(d.0).expect("Dur underflow"))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, d: Dur) {
        self.0 = self.0.checked_sub(d.0).expect("Dur underflow");
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Dur(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Dur::from_us(5).as_ns(), 5_000);
        assert_eq!(Dur::from_ms(5).as_ns(), 5_000_000);
        assert_eq!(Dur::from_secs(5).as_ns(), 5_000_000_000);
        assert_eq!(Dur::from_secs_f64(0.5).as_ns(), 500_000_000);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::ZERO + Dur::from_us(10);
        assert_eq!(t.as_ns(), 10_000);
        assert_eq!(t.since(SimTime::ZERO), Dur::from_us(10));
        assert_eq!((t - Dur::from_us(4)).as_ns(), 6_000);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_backwards() {
        SimTime::ZERO.since(SimTime::from_ns(1));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_ns(7)),
            Dur::ZERO
        );
    }

    #[test]
    fn bandwidth_conversion_rounds_up() {
        // 1 byte at 3 B/s is 333_333_333.33.. ns → rounds up.
        assert_eq!(Dur::for_bytes(1, 3).as_ns(), 333_333_334);
        // Exact case.
        assert_eq!(Dur::for_bytes(20_000_000, 20_000_000), Dur::from_secs(1));
        // 8 KB at 20 MB/s = 409.6 us.
        assert_eq!(Dur::for_bytes(8192, 20_000_000).as_ns(), 409_600);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(Dur::from_us(3) * 4, Dur::from_us(12));
        assert_eq!(Dur::from_us(12) / 4, Dur::from_us(3));
        let total: Dur = [Dur::from_us(1), Dur::from_us(2)].into_iter().sum();
        assert_eq!(total, Dur::from_us(3));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", Dur::from_ns(12)), "12ns");
        assert_eq!(format!("{}", Dur::from_us(12)), "12.000us");
        assert_eq!(format!("{}", Dur::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::from_secs(12)), "12.000s");
    }
}
