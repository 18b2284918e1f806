//! Steady-state TCP stream model and congestion efficiency.

use crate::link::Link;
use eadt_sim::Rate;
use serde::{Deserialize, Serialize};

/// The window-limited steady-state rate of a single TCP stream on `link`:
/// `min(tcp_buffer, BDP) / RTT`.
///
/// On long-RTT paths where the buffer is below the BDP this is what caps a
/// stream and what the paper's parallelism rule compensates for; on LANs the
/// window ceiling exceeds the wire rate and the result is clamped to the
/// link bandwidth.
pub fn stream_ceiling(link: &Link) -> Rate {
    let rtt = link.rtt.as_secs_f64();
    if rtt <= 0.0 {
        return link.bandwidth;
    }
    let window = link.tcp_buffer.as_f64().min(link.bdp().as_f64());
    Rate::from_bps(window * 8.0 / rtt).min(link.bandwidth)
}

/// How goodput degrades once too many simultaneous streams share a path.
///
/// The paper motivates this directly (§2.1): *"using too many simultaneous
/// streams can cause network congestion and throughput decline"* and
/// *"may overload the network and degrade the performance due to increased
/// packet loss ratio"*. We model it as a multiplicative efficiency on the
/// aggregate bottleneck capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CongestionModel {
    /// Stream count up to which the path runs at full efficiency.
    pub saturation_streams: u32,
    /// Per-excess-stream efficiency penalty (fraction per stream).
    pub overload_penalty: f64,
    /// Efficiency never falls below this floor.
    pub floor: f64,
}

impl Default for CongestionModel {
    fn default() -> Self {
        CongestionModel {
            saturation_streams: 32,
            overload_penalty: 0.01,
            floor: 0.5,
        }
    }
}

impl CongestionModel {
    /// Efficiency in `[floor, 1]` for `streams` simultaneous streams.
    pub fn efficiency(&self, streams: u32) -> f64 {
        congestion_efficiency(streams, self)
    }
}

/// Efficiency in `[model.floor, 1]` for `streams` simultaneous streams.
pub(crate) fn congestion_efficiency(streams: u32, model: &CongestionModel) -> f64 {
    if streams <= model.saturation_streams {
        return 1.0;
    }
    let excess = (streams - model.saturation_streams) as f64;
    (1.0 - excess * model.overload_penalty).max(model.floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_sim::{Bytes, SimDuration};

    fn wan() -> Link {
        Link::new(
            Rate::from_gbps(10.0),
            SimDuration::from_millis(40),
            Bytes::from_mb(32),
        )
    }

    #[test]
    fn wan_stream_is_buffer_limited() {
        // 32 MB / 40 ms = 6.4 Gbps — below the 10 Gbps wire rate.
        let r = stream_ceiling(&wan());
        assert!((r.as_gbps() - 6.4).abs() < 1e-9, "{r}");
    }

    #[test]
    fn bdp_limits_when_buffer_exceeds_it() {
        // 1 Gbps × 28 ms = 3.5 MB BDP < 32 MB buffer → window = BDP and the
        // ceiling equals the wire rate (clamped).
        let fg = Link::new(
            Rate::from_gbps(1.0),
            SimDuration::from_millis(28),
            Bytes::from_mb(32),
        );
        let r = stream_ceiling(&fg);
        assert!((r.as_gbps() - 1.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn lan_stream_clamps_to_wire_rate() {
        let lan = Link::new(
            Rate::from_gbps(1.0),
            SimDuration::from_micros(200),
            Bytes::from_mb(32),
        );
        assert_eq!(stream_ceiling(&lan), Rate::from_gbps(1.0));
    }

    #[test]
    fn zero_rtt_does_not_divide_by_zero() {
        let l = Link::new(Rate::from_gbps(1.0), SimDuration::ZERO, Bytes::from_mb(1));
        assert_eq!(stream_ceiling(&l), Rate::from_gbps(1.0));
    }

    #[test]
    fn small_buffer_long_rtt_crawls() {
        // 64 KB buffer on a 100 ms path: the classic untuned-transfer case.
        let l = Link::new(
            Rate::from_gbps(10.0),
            SimDuration::from_millis(100),
            Bytes::from_kb(64),
        );
        let r = stream_ceiling(&l);
        assert!((r.as_mbps() - 5.12).abs() < 0.01, "{r}");
    }

    #[test]
    fn efficiency_is_one_below_saturation() {
        let m = CongestionModel::default();
        for s in 0..=m.saturation_streams {
            assert_eq!(m.efficiency(s), 1.0);
        }
    }

    #[test]
    fn efficiency_declines_beyond_saturation() {
        let m = CongestionModel {
            saturation_streams: 10,
            overload_penalty: 0.02,
            floor: 0.5,
        };
        assert!((m.efficiency(15) - 0.9).abs() < 1e-12);
        assert!(m.efficiency(20) < m.efficiency(15));
    }

    #[test]
    fn efficiency_respects_floor() {
        let m = CongestionModel {
            saturation_streams: 1,
            overload_penalty: 0.5,
            floor: 0.4,
        };
        assert_eq!(m.efficiency(1000), 0.4);
    }

    #[test]
    fn efficiency_is_monotone_non_increasing() {
        let m = CongestionModel::default();
        let mut prev = 1.0;
        for s in 0..200 {
            let e = m.efficiency(s);
            assert!(e <= prev + 1e-12);
            prev = e;
        }
    }
}
