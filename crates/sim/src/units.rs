//! Strongly typed data sizes and rates.
//!
//! The paper's parameter rules are all phrased in terms of the
//! bandwidth-delay product (BDP), TCP buffer sizes and average file sizes,
//! so mixing up bits and bytes or Mbps and MB/s silently produces nonsense
//! parameter choices. [`Bytes`] and [`Rate`] make the unit part of the type.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A byte count (file sizes, buffer sizes, BDP).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

/// A data rate in **bits per second** (the paper reports Mbps/Gbps).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Rate {
    bits_per_sec: f64,
}

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs from kilobytes (10^3).
    #[inline]
    pub const fn from_kb(kb: u64) -> Self {
        Bytes(kb * 1_000)
    }

    /// Constructs from megabytes (10^6).
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// Constructs from gigabytes (10^9).
    #[inline]
    pub const fn from_gb(gb: u64) -> Self {
        Bytes(gb * 1_000_000_000)
    }

    /// Constructs from fractional megabytes, rounding to whole bytes.
    #[inline]
    pub fn from_mb_f64(mb: f64) -> Self {
        Bytes((mb.max(0.0) * 1e6).round() as u64)
    }

    /// Parses a human-friendly size: a number with an optional `B`, `KB`,
    /// `MB`, `GB` or `TB` suffix (decimal units, case-insensitive,
    /// whitespace tolerated): `"3MB"`, `"2.5 GB"`, `"1024"`.
    ///
    /// ```
    /// use eadt_sim::Bytes;
    /// assert_eq!(Bytes::parse("3MB").unwrap(), Bytes::from_mb(3));
    /// assert_eq!(Bytes::parse("2.5 gb").unwrap(), Bytes(2_500_000_000));
    /// assert_eq!(Bytes::parse("512").unwrap(), Bytes(512));
    /// assert!(Bytes::parse("fast").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<Bytes, String> {
        let t = s.trim();
        let upper = t.to_ascii_uppercase();
        let (number, multiplier) = if let Some(stripped) = upper.strip_suffix("TB") {
            (stripped, 1e12)
        } else if let Some(stripped) = upper.strip_suffix("GB") {
            (stripped, 1e9)
        } else if let Some(stripped) = upper.strip_suffix("MB") {
            (stripped, 1e6)
        } else if let Some(stripped) = upper.strip_suffix("KB") {
            (stripped, 1e3)
        } else if let Some(stripped) = upper.strip_suffix("B") {
            (stripped, 1.0)
        } else {
            (upper.as_str(), 1.0)
        };
        let value: f64 = number
            .trim()
            .parse()
            .map_err(|_| format!("cannot parse size '{s}'"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("size '{s}' must be a non-negative number"));
        }
        Ok(Bytes((value * multiplier).round() as u64))
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as a float.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Size in megabytes.
    #[inline]
    pub fn as_mb(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Size in gigabytes.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// True if the count is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time needed to move this many bytes at `rate` (∞-safe: a zero
    /// rate yields `SimDuration::ZERO`-guarded max; callers treat it as
    /// "never finishes" by clamping to the slice).
    #[inline]
    pub fn time_at(self, rate: Rate) -> SimDuration {
        if rate.bits_per_sec <= 0.0 {
            return SimDuration::from_micros(u64::MAX);
        }
        SimDuration::from_secs_f64(self.0 as f64 * 8.0 / rate.bits_per_sec)
    }
}

impl Rate {
    /// Zero rate.
    pub const ZERO: Rate = Rate { bits_per_sec: 0.0 };

    /// Constructs from bits per second.
    #[inline]
    pub fn from_bps(bits_per_sec: f64) -> Self {
        Rate {
            bits_per_sec: bits_per_sec.max(0.0),
        }
    }

    /// Constructs from megabits per second.
    #[inline]
    pub fn from_mbps(mbps: f64) -> Self {
        Rate::from_bps(mbps * 1e6)
    }

    /// Constructs from gigabits per second.
    #[inline]
    pub fn from_gbps(gbps: f64) -> Self {
        Rate::from_bps(gbps * 1e9)
    }

    /// Bits per second.
    #[inline]
    pub fn as_bps(self) -> f64 {
        self.bits_per_sec
    }

    /// Megabits per second (the unit of every throughput figure in the
    /// paper).
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.bits_per_sec / 1e6
    }

    /// Gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.bits_per_sec / 1e9
    }

    /// Bytes moved in `dur` at this rate, rounded down. The saturating
    /// `as u64` floors every non-negative value and maps NaN and
    /// negatives to 0 and +∞ to `u64::MAX`, so no `floor` call is needed.
    #[inline]
    pub fn bytes_in(self, dur: SimDuration) -> Bytes {
        Bytes((self.bits_per_sec * dur.as_secs_f64() / 8.0) as u64)
    }

    /// The smaller of two rates.
    #[inline]
    pub fn min(self, other: Rate) -> Rate {
        if self.bits_per_sec <= other.bits_per_sec {
            self
        } else {
            other
        }
    }

    /// The larger of two rates.
    #[inline]
    pub fn max(self, other: Rate) -> Rate {
        if self.bits_per_sec >= other.bits_per_sec {
            self
        } else {
            other
        }
    }

    /// True if (numerically) zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.bits_per_sec <= 0.0
    }

    /// Fraction `self / denom` in `[0, ∞)`; zero when `denom` is zero.
    #[inline]
    pub fn fraction_of(self, denom: Rate) -> f64 {
        if denom.bits_per_sec <= 0.0 {
            0.0
        } else {
            self.bits_per_sec / denom.bits_per_sec
        }
    }
}

/// Bandwidth-delay product: the volume of data "in flight" on a path.
///
/// This is the quantity every parameter rule in the paper (Algorithms 1–3)
/// is computed from: `BDP = BW × RTT`.
///
/// ```
/// use eadt_sim::units::bdp;
/// use eadt_sim::{Bytes, Rate, SimDuration};
///
/// // XSEDE: 10 Gbps × 40 ms = 50 MB in flight.
/// let v = bdp(Rate::from_gbps(10.0), SimDuration::from_millis(40));
/// assert_eq!(v, Bytes::from_mb(50));
/// ```
#[inline]
pub fn bdp(bandwidth: Rate, rtt: SimDuration) -> Bytes {
    Bytes((bandwidth.as_bps() * rtt.as_secs_f64() / 8.0).round() as u64)
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        self.saturating_sub(rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |acc, b| acc + b)
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate {
            bits_per_sec: self.bits_per_sec + rhs.bits_per_sec,
        }
    }
}

impl AddAssign for Rate {
    #[inline]
    fn add_assign(&mut self, rhs: Rate) {
        self.bits_per_sec += rhs.bits_per_sec;
    }
}

impl Sub for Rate {
    type Output = Rate;
    #[inline]
    fn sub(self, rhs: Rate) -> Rate {
        Rate::from_bps(self.bits_per_sec - rhs.bits_per_sec)
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn mul(self, rhs: f64) -> Rate {
        Rate::from_bps(self.bits_per_sec * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    #[inline]
    fn div(self, rhs: f64) -> Rate {
        if rhs <= 0.0 {
            Rate::ZERO
        } else {
            Rate::from_bps(self.bits_per_sec / rhs)
        }
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        iter.fold(Rate::ZERO, |acc, r| acc + r)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} GB", self.as_gb())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2} MB", self.as_mb())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2} KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits_per_sec >= 1e9 {
            write!(f, "{:.2} Gbps", self.as_gbps())
        } else {
            write!(f, "{:.1} Mbps", self.as_mbps())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Bytes::from_kb(2).as_u64(), 2_000);
        assert_eq!(Bytes::from_mb(3).as_u64(), 3_000_000);
        assert_eq!(Bytes::from_gb(1).as_u64(), 1_000_000_000);
        assert!((Bytes::from_mb(5).as_mb() - 5.0).abs() < 1e-12);
        assert!((Rate::from_gbps(10.0).as_mbps() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_mb() {
        assert_eq!(Bytes::from_mb_f64(1.5).as_u64(), 1_500_000);
        assert_eq!(Bytes::from_mb_f64(-1.0), Bytes::ZERO);
    }

    #[test]
    fn bdp_matches_paper_xsede() {
        // XSEDE: 10 Gbps × 40 ms = 50 MB.
        let v = bdp(Rate::from_gbps(10.0), SimDuration::from_millis(40));
        assert_eq!(v.as_u64(), 50_000_000);
    }

    #[test]
    fn bdp_matches_paper_futuregrid() {
        // FutureGrid: 1 Gbps × 28 ms = 3.5 MB.
        let v = bdp(Rate::from_gbps(1.0), SimDuration::from_millis(28));
        assert_eq!(v.as_u64(), 3_500_000);
    }

    #[test]
    fn transfer_time_round_trip() {
        let size = Bytes::from_mb(100); // 800 Mbit
        let rate = Rate::from_mbps(800.0);
        let t = size.time_at(rate);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        let moved = rate.bytes_in(t);
        assert!(moved.as_u64() <= size.as_u64());
        assert!(size.as_u64() - moved.as_u64() <= 1);
    }

    #[test]
    fn zero_rate_never_finishes() {
        let t = Bytes::from_mb(1).time_at(Rate::ZERO);
        assert_eq!(t.as_micros(), u64::MAX);
    }

    #[test]
    fn negative_rates_clamp_to_zero() {
        assert!(Rate::from_bps(-5.0).is_zero());
        assert!((Rate::from_mbps(3.0) - Rate::from_mbps(10.0)).is_zero());
        assert_eq!(Rate::from_mbps(100.0) / 0.0, Rate::ZERO);
    }

    #[test]
    fn rate_arithmetic() {
        let r = Rate::from_mbps(100.0) + Rate::from_mbps(50.0);
        assert!((r.as_mbps() - 150.0).abs() < 1e-9);
        assert!(((r * 2.0).as_mbps() - 300.0).abs() < 1e-9);
        assert!(((r / 3.0).as_mbps() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sums() {
        let total: Bytes = [Bytes::from_mb(1), Bytes::from_mb(2)].into_iter().sum();
        assert_eq!(total, Bytes::from_mb(3));
        let rate: Rate = [Rate::from_mbps(1.0), Rate::from_mbps(2.0)]
            .into_iter()
            .sum();
        assert!((rate.as_mbps() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_handles_zero_denominator() {
        assert_eq!(Rate::from_mbps(10.0).fraction_of(Rate::ZERO), 0.0);
        let f = Rate::from_mbps(5.0).fraction_of(Rate::from_mbps(10.0));
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(Bytes::from_gb(2).to_string(), "2.00 GB");
        assert_eq!(Bytes::from_mb(2).to_string(), "2.00 MB");
        assert_eq!(Bytes(999).to_string(), "999 B");
        assert_eq!(Rate::from_gbps(10.0).to_string(), "10.00 Gbps");
        assert_eq!(Rate::from_mbps(800.0).to_string(), "800.0 Mbps");
    }

    #[test]
    fn parse_sizes() {
        assert_eq!(Bytes::parse("100"), Ok(Bytes(100)));
        assert_eq!(Bytes::parse("100B"), Ok(Bytes(100)));
        assert_eq!(Bytes::parse(" 4 kb "), Ok(Bytes(4_000)));
        assert_eq!(Bytes::parse("3.5MB"), Ok(Bytes(3_500_000)));
        assert_eq!(Bytes::parse("20GB"), Ok(Bytes::from_gb(20)));
        assert_eq!(Bytes::parse("0.001TB"), Ok(Bytes::from_gb(1)));
        assert!(Bytes::parse("").is_err());
        assert!(Bytes::parse("-5MB").is_err());
        assert!(Bytes::parse("12XB").is_err());
    }

    #[test]
    fn byte_saturating_ops() {
        assert_eq!(Bytes(5).saturating_sub(Bytes(7)), Bytes::ZERO);
        assert_eq!(Bytes(u64::MAX) + Bytes(1), Bytes(u64::MAX));
    }
}
