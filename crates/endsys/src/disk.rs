//! Storage subsystem throughput under concurrent access.
//!
//! §3 (DIDCLAB discussion): *"increasing the concurrency level in the local
//! area degrades the transfer throughput ... due to having single disk
//! storage subsystem whose IO speed decreases when the number of concurrent
//! accesses increases"*, while concurrency "can result in better throughput
//! ... \[when\] the end systems have parallel disk systems" (§2.1). Both
//! regimes are captured here.

use eadt_sim::Rate;
use serde::{Deserialize, Serialize};

/// A storage subsystem's aggregate read/write capability as a function of
/// the number of concurrent accessors.
///
/// ```
/// use eadt_endsys::DiskSubsystem;
/// use eadt_sim::Rate;
///
/// // The DIDCLAB single disk *degrades* under concurrent access …
/// let single = DiskSubsystem::Single { rate: Rate::from_mbps(700.0), contention_penalty: 0.18 };
/// assert!(single.aggregate_rate(8).as_mbps() < single.aggregate_rate(1).as_mbps());
///
/// // … while a striped array scales until its backend limit.
/// let array = DiskSubsystem::Array {
///     per_access: Rate::from_gbps(2.4),
///     aggregate: Rate::from_gbps(7.6),
/// };
/// assert_eq!(array.aggregate_rate(16), Rate::from_gbps(7.6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DiskSubsystem {
    /// A single spindle/volume: sequential speed `rate`, degraded by seek
    /// thrash as accessors pile on: `rate / (1 + penalty·(k−1))`.
    Single {
        /// Sequential throughput with one accessor.
        rate: Rate,
        /// Fractional slowdown added per extra concurrent accessor.
        contention_penalty: f64,
    },
    /// A striped/parallel filesystem (e.g. Lustre on XSEDE): per-accessor
    /// streams scale until the backend aggregate limit.
    Array {
        /// Throughput granted to a single accessor.
        per_access: Rate,
        /// Aggregate backend limit across all accessors.
        aggregate: Rate,
    },
}

impl DiskSubsystem {
    /// Aggregate throughput available to `k` concurrent accessors.
    pub fn aggregate_rate(&self, k: u32) -> Rate {
        if k == 0 {
            return Rate::ZERO;
        }
        match *self {
            DiskSubsystem::Single {
                rate,
                contention_penalty,
            } => {
                let slowdown = 1.0 + contention_penalty.max(0.0) * (k - 1) as f64;
                Rate::from_bps(rate.as_bps() / slowdown)
            }
            DiskSubsystem::Array {
                per_access,
                aggregate,
            } => (per_access * k as f64).min(aggregate),
        }
    }

    /// The largest aggregate rate this subsystem can ever deliver (used for
    /// utilization normalisation).
    pub fn peak_rate(&self) -> Rate {
        match *self {
            DiskSubsystem::Single { rate, .. } => rate,
            DiskSubsystem::Array { aggregate, .. } => aggregate,
        }
    }

    /// Busy fraction (0–1) of the subsystem when `k` accessors move
    /// `goodput` in aggregate.
    ///
    /// A **single** disk is busy relative to what it can still deliver
    /// under the current contention — a thrashing disk reads near-100%
    /// busy even at low goodput. A **striped array** serves accessors
    /// independently, so its busy fraction is simply goodput over peak.
    pub(crate) fn busy_fraction(&self, k: u32, goodput: Rate) -> f64 {
        let capability = match self {
            DiskSubsystem::Single { .. } => self.aggregate_rate(k),
            DiskSubsystem::Array { .. } => self.peak_rate(),
        };
        goodput.fraction_of(capability).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single() -> DiskSubsystem {
        DiskSubsystem::Single {
            rate: Rate::from_mbps(800.0),
            contention_penalty: 0.15,
        }
    }

    fn array() -> DiskSubsystem {
        DiskSubsystem::Array {
            per_access: Rate::from_mbps(1000.0),
            aggregate: Rate::from_gbps(8.0),
        }
    }

    #[test]
    fn zero_accessors_zero_rate() {
        assert_eq!(single().aggregate_rate(0), Rate::ZERO);
        assert_eq!(array().aggregate_rate(0), Rate::ZERO);
    }

    #[test]
    fn single_disk_full_speed_alone() {
        assert!((single().aggregate_rate(1).as_mbps() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn single_disk_degrades_with_contention() {
        let d = single();
        let r1 = d.aggregate_rate(1).as_mbps();
        let r4 = d.aggregate_rate(4).as_mbps();
        let r12 = d.aggregate_rate(12).as_mbps();
        assert!(r4 < r1, "aggregate must fall: {r1} -> {r4}");
        assert!(r12 < r4);
        // 1 + 0.15·3 = 1.45 → ~551.7 Mbps
        assert!((r4 - 800.0 / 1.45).abs() < 1e-6);
    }

    #[test]
    fn array_scales_then_saturates() {
        let d = array();
        assert!((d.aggregate_rate(1).as_mbps() - 1000.0).abs() < 1e-9);
        assert!((d.aggregate_rate(4).as_mbps() - 4000.0).abs() < 1e-9);
        assert!((d.aggregate_rate(16).as_gbps() - 8.0).abs() < 1e-9); // capped
    }

    #[test]
    fn peak_rates() {
        assert_eq!(single().peak_rate(), Rate::from_mbps(800.0));
        assert_eq!(array().peak_rate(), Rate::from_gbps(8.0));
    }

    #[test]
    fn negative_penalty_is_clamped() {
        let d = DiskSubsystem::Single {
            rate: Rate::from_mbps(100.0),
            contention_penalty: -1.0,
        };
        assert!((d.aggregate_rate(10).as_mbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn single_disk_monotone_decreasing_aggregate() {
        let d = single();
        let mut prev = f64::INFINITY;
        for k in 1..32 {
            let r = d.aggregate_rate(k).as_mbps();
            assert!(r <= prev + 1e-9);
            prev = r;
        }
    }
}
