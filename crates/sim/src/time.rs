//! Fixed-point simulated time.
//!
//! Simulated time is stored as an integer number of **microseconds** so that
//! repeatedly advancing a clock by small slices never accumulates
//! floating-point error, and so that `SimTime` values are totally ordered
//! and hashable. One microsecond is fine enough to resolve sub-millisecond
//! LAN round-trip times while still allowing transfers of many simulated
//! days without overflow (`u64` microseconds ≈ 584,000 years).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds in one second.
pub(crate) const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulated clock, measured from the start of the
/// simulation (time zero).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime {
    micros: u64,
}

/// A span of simulated time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration {
    micros: u64,
}

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime { micros: 0 };

    /// Creates a time from whole microseconds since the origin.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime { micros }
    }

    /// Creates a time from (possibly fractional) seconds since the origin.
    ///
    /// Negative and non-finite inputs saturate to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime {
            micros: secs_to_micros(secs),
        }
    }

    /// Microseconds since the origin.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Seconds since the origin as a float (exact for < 2^53 µs).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / MICROS_PER_SEC as f64
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(earlier.micros),
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { micros }
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            micros: millis * 1_000,
        }
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            micros: secs * MICROS_PER_SEC,
        }
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration {
            micros: secs_to_micros(secs),
        }
    }

    /// Whole microseconds in this duration.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// This duration in seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / MICROS_PER_SEC as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.micros == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(rhs.micros),
        }
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.micros <= other.micros {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.micros >= other.micros {
            self
        } else {
            other
        }
    }

    /// Multiplies the duration by a non-negative float, saturating.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration {
            micros: secs_to_micros(self.as_secs_f64() * factor),
        }
    }

    /// Number of whole `slice` periods contained in this duration
    /// (floor division in integer microseconds). A zero `slice` is
    /// clamped to one microsecond.
    #[inline]
    pub fn slices_within(self, slice: SimDuration) -> u64 {
        self.micros / slice.micros.max(1)
    }

    /// Number of whole `slice` periods that fit *strictly inside* this
    /// duration: the largest `k` with `k × slice < self`. Zero when this
    /// duration is zero. The engine's macro-stepper uses this to count
    /// slices that provably end before a state-change boundary.
    #[inline]
    pub fn slices_before(self, slice: SimDuration) -> u64 {
        if self.micros == 0 {
            0
        } else {
            (self.micros - 1) / slice.micros.max(1)
        }
    }
}

#[inline]
fn secs_to_micros(secs: f64) -> u64 {
    if secs.is_nan() || secs <= 0.0 {
        return 0;
    }
    if secs.is_infinite() {
        return u64::MAX;
    }
    let micros = secs * MICROS_PER_SEC as f64;
    if micros >= u64::MAX as f64 {
        u64::MAX
    } else {
        micros.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            micros: self.micros.saturating_add(rhs.micros),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros = self.micros.saturating_add(rhs.micros);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_add(rhs.micros),
        }
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros = self.micros.saturating_add(rhs.micros);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_sub(rhs);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_mul(rhs),
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros / rhs.max(1),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_origin() {
        assert_eq!(SimTime::ZERO.as_micros(), 0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn from_secs_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_seconds_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn huge_seconds_saturate() {
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_micros(),
            u64::MAX
        );
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::ZERO + SimDuration::from_millis(250);
        assert_eq!(t.as_micros(), 250_000);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(30);
        assert_eq!(late.since(early).as_micros(), 20);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(2);
        let b = SimDuration::from_millis(500);
        assert_eq!((a + b).as_micros(), 2_500_000);
        assert_eq!((a - b).as_micros(), 1_500_000);
        assert_eq!((b - a), SimDuration::ZERO); // saturating
        assert_eq!((b * 4).as_micros(), 2_000_000);
        assert_eq!((a / 4).as_micros(), 500_000);
    }

    #[test]
    fn division_by_zero_is_clamped() {
        // Dividing by zero clamps the divisor to one rather than panicking;
        // the engine divides slices by counts that can legitimately be zero.
        assert_eq!((SimDuration::from_secs(1) / 0).as_micros(), 1_000_000);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_secs(1).mul_f64(0.1);
        assert_eq!(d.as_micros(), 100_000);
        assert_eq!(SimDuration::from_secs(1).mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_micros(5),
            SimTime::from_micros(1),
            SimTime::from_micros(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::from_micros(1),
                SimTime::from_micros(3),
                SimTime::from_micros(5)
            ]
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs_f64(1.25).to_string(), "1.250s");
        assert_eq!(SimDuration::from_millis(40).to_string(), "0.040s");
    }

    #[test]
    fn slice_division_helpers() {
        let s = SimDuration::from_millis(100);
        // slices_within: plain floor division.
        assert_eq!(SimDuration::from_millis(350).slices_within(s), 3);
        assert_eq!(SimDuration::from_millis(300).slices_within(s), 3);
        assert_eq!(SimDuration::ZERO.slices_within(s), 0);
        // slices_before: strict — k slices must end before the boundary.
        assert_eq!(SimDuration::from_millis(350).slices_before(s), 3);
        assert_eq!(SimDuration::from_millis(300).slices_before(s), 2);
        assert_eq!(SimDuration::from_millis(100).slices_before(s), 0);
        assert_eq!(SimDuration::ZERO.slices_before(s), 0);
        // Zero slice is clamped, not a panic.
        assert_eq!(
            SimDuration::from_secs(1).slices_within(SimDuration::ZERO),
            1_000_000
        );
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
