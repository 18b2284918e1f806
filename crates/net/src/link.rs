//! End-to-end path description.

use eadt_sim::{units, Bytes, Rate, SimDuration};
use serde::{Deserialize, Serialize};

/// An end-to-end network path between two sites, summarised by its
/// bottleneck characteristics (the granularity at which the paper reasons:
/// "10 Gbps, 40 ms RTT, 32 MB maximum TCP buffer").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Bottleneck bandwidth.
    pub bandwidth: Rate,
    /// Round-trip time.
    pub rtt: SimDuration,
    /// Maximum TCP buffer size the end systems allow per stream.
    pub tcp_buffer: Bytes,
    /// Maximum transmission unit (payload accounting for packet counts).
    pub mtu: Bytes,
}

impl Link {
    /// Standard Ethernet MTU.
    pub(crate) const DEFAULT_MTU: Bytes = Bytes(1500);

    /// Creates a link with the default MTU.
    pub fn new(bandwidth: Rate, rtt: SimDuration, tcp_buffer: Bytes) -> Self {
        Link {
            bandwidth,
            rtt,
            tcp_buffer,
            mtu: Self::DEFAULT_MTU,
        }
    }

    /// The bandwidth-delay product of this path (`BDP = BW × RTT`), the
    /// yardstick for all of the paper's parameter rules.
    pub fn bdp(&self) -> Bytes {
        units::bdp(self.bandwidth, self.rtt)
    }

    /// True when the TCP buffer is smaller than the BDP — the regime where
    /// parallel streams help large transfers (§2.1: "Parallelism is
    /// advantageous ... when the system buffer size is smaller than BDP").
    pub fn buffer_limited(&self) -> bool {
        self.tcp_buffer < self.bdp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xsede_link() -> Link {
        Link::new(
            Rate::from_gbps(10.0),
            SimDuration::from_millis(40),
            Bytes::from_mb(32),
        )
    }

    #[test]
    fn bdp_of_xsede_path() {
        assert_eq!(xsede_link().bdp(), Bytes::from_mb(50));
    }

    #[test]
    fn xsede_is_buffer_limited() {
        // 32 MB buffer < 50 MB BDP → parallelism pays off.
        assert!(xsede_link().buffer_limited());
    }

    #[test]
    fn lan_is_not_buffer_limited() {
        let lan = Link::new(
            Rate::from_gbps(1.0),
            SimDuration::from_micros(200),
            Bytes::from_mb(32),
        );
        assert!(!lan.buffer_limited());
        assert_eq!(lan.bdp(), Bytes(25_000));
    }

    #[test]
    fn default_mtu() {
        assert_eq!(xsede_link().mtu, Bytes(1500));
    }
}
