//! Packet accounting.
//!
//! §4 computes network-device energy from the **number of packets** a
//! transfer pushes through each device (Eq. 5: `P = P_idle +
//! packetCount × (P_p + P_s−f)`). Bytes moved at the flow level are
//! converted to packet counts here, assuming MTU-sized data packets plus a
//! configurable fraction of small control/ACK packets.

use eadt_sim::Bytes;
use serde::{Deserialize, Serialize};

/// Converts payload bytes to on-the-wire packet counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketModel {
    /// Maximum payload per data packet.
    pub mtu: Bytes,
    /// Additional control/ACK packets per data packet (TCP acks roughly
    /// every other segment → 0.5 by default).
    pub control_overhead: f64,
}

impl Default for PacketModel {
    fn default() -> Self {
        PacketModel {
            mtu: Bytes(1500),
            control_overhead: 0.5,
        }
    }
}

impl PacketModel {
    /// Data packets needed for `bytes` of payload (ceiling division).
    pub(crate) fn data_packets(&self, bytes: Bytes) -> u64 {
        let mtu = self.mtu.as_u64().max(1);
        bytes.as_u64().div_ceil(mtu)
    }

    /// Total packets including control/ACK overhead.
    pub fn total_packets(&self, bytes: Bytes) -> u64 {
        let data = self.data_packets(bytes);
        data + (data as f64 * self.control_overhead.max(0.0)).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple_of_mtu() {
        let m = PacketModel::default();
        assert_eq!(m.data_packets(Bytes(15_000)), 10);
    }

    #[test]
    fn partial_last_packet_rounds_up() {
        let m = PacketModel::default();
        assert_eq!(m.data_packets(Bytes(15_001)), 11);
        assert_eq!(m.data_packets(Bytes(1)), 1);
    }

    #[test]
    fn zero_bytes_zero_packets() {
        let m = PacketModel::default();
        assert_eq!(m.data_packets(Bytes::ZERO), 0);
        assert_eq!(m.total_packets(Bytes::ZERO), 0);
    }

    #[test]
    fn control_overhead_adds_acks() {
        let m = PacketModel {
            mtu: Bytes(1500),
            control_overhead: 0.5,
        };
        assert_eq!(m.total_packets(Bytes(15_000)), 15); // 10 data + 5 acks
    }

    #[test]
    fn negative_overhead_clamps_to_zero() {
        let m = PacketModel {
            mtu: Bytes(1500),
            control_overhead: -1.0,
        };
        assert_eq!(m.total_packets(Bytes(15_000)), 10);
    }

    #[test]
    fn zero_mtu_is_guarded() {
        let m = PacketModel {
            mtu: Bytes(0),
            control_overhead: 0.0,
        };
        assert_eq!(m.data_packets(Bytes(10)), 10); // clamped to 1-byte MTU
    }

    #[test]
    fn gigabyte_scale_counts() {
        let m = PacketModel::default();
        // 1 GB at 1500 B/packet ≈ 666,667 data packets.
        assert_eq!(m.data_packets(Bytes::from_gb(1)), 666_667);
    }
}
