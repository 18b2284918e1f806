//! Eq. 4/5 energy accounting and the Figure 10 decomposition.
//!
//! Eq. 4: `E_T = P_i·T + P_d·T_d` — idle plus dynamic energy over a
//! transfer. Eq. 5 supplies the dynamic part from packet counts:
//! `P = P_idle + packetCount × (P_p + P_s−f)`. The algorithm comparisons
//! use only the load-dependent term, because idle power does not depend on
//! how the transfer is tuned (§4).

use crate::topology::NetworkPath;
use eadt_sim::Bytes;
use serde::{Deserialize, Serialize};

/// Load-dependent network energy (Joules) for pushing `packets` through
/// every device of `path` (Eq. 5 without the idle term).
pub fn path_energy_joules(path: &NetworkPath, packets: u64) -> f64 {
    path.per_packet_energy_joules() * packets as f64
}

/// Per-device energy breakdown for `packets` traversing `path`, in hop
/// order: `(device, load-dependent Joules)`.
pub fn path_breakdown(path: &NetworkPath, packets: u64) -> Vec<(crate::device::DeviceKind, f64)> {
    path.devices
        .iter()
        .map(|d| (*d, d.per_packet_energy_joules() * packets as f64))
        .collect()
}

/// Network dynamic energy of a whole transfer under one of the Figure 8
/// families: every device on the path runs at the transfer's
/// `rate_fraction` of its line speed for `duration_at_full_rate_secs / u`.
///
/// This is the §4 what-if: the same bytes, accounted under the non-linear,
/// linear and state-based assumptions. Under the non-linear family,
/// pushing data faster (larger `rate_fraction`) costs *less* total energy;
/// under the linear family it makes no difference.
pub fn transfer_dynamic_energy(
    path: &NetworkPath,
    model: crate::dynmodel::DynamicPowerModel,
    rate_fraction: f64,
    duration_at_full_rate_secs: f64,
) -> f64 {
    path.devices
        .iter()
        .map(|d| {
            model.dynamic_energy_joules(
                rate_fraction,
                d.max_dynamic_watts(),
                duration_at_full_rate_secs,
            )
        })
        .sum()
}

/// Full Eq. 4 energy including idle power over the transfer duration.
/// `duration_secs` is `T`; the dynamic part assumes the device forwards for
/// the whole transfer (`T_d = T`), which holds for a continuously busy
/// bulk transfer.
pub fn path_energy_with_idle_joules(path: &NetworkPath, packets: u64, duration_secs: f64) -> f64 {
    path.idle_watts() * duration_secs.max(0.0) + path_energy_joules(path, packets)
}

/// End-system vs. network split of one transfer's energy (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyDecomposition {
    /// End-system (sender + receiver) energy, Joules.
    pub end_system_joules: f64,
    /// Load-dependent network-infrastructure energy, Joules.
    pub network_joules: f64,
}

impl EnergyDecomposition {
    /// Total energy.
    pub(crate) fn total_joules(&self) -> f64 {
        self.end_system_joules + self.network_joules
    }

    /// End-system share in percent (0 when the total is zero).
    pub fn end_system_percent(&self) -> f64 {
        let total = self.total_joules();
        if total <= 0.0 {
            0.0
        } else {
            100.0 * self.end_system_joules / total
        }
    }

    /// Network share in percent.
    pub fn network_percent(&self) -> f64 {
        let total = self.total_joules();
        if total <= 0.0 {
            0.0
        } else {
            100.0 * self.network_joules / total
        }
    }
}

/// Builds the Figure 10 decomposition for a transfer of `bytes` with
/// measured end-system energy, using a path and a packet model.
pub fn decompose(
    end_system_joules: f64,
    path: &NetworkPath,
    bytes: Bytes,
    packet_model: &eadt_net::packets::PacketModel,
) -> EnergyDecomposition {
    let packets = packet_model.total_packets(bytes);
    EnergyDecomposition {
        end_system_joules,
        network_joules: path_energy_joules(path, packets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{didclab_path, futuregrid_path, xsede_path};
    use eadt_net::packets::PacketModel;

    #[test]
    fn breakdown_sums_to_path_energy() {
        let p = futuregrid_path();
        let packets = 10_000_000;
        let rows = path_breakdown(&p, packets);
        assert_eq!(rows.len(), p.hop_count());
        let sum: f64 = rows.iter().map(|(_, j)| j).sum();
        assert!((sum - path_energy_joules(&p, packets)).abs() < 1e-9);
        // Each device's share follows its Table 1 coefficients exactly.
        for (d, j) in rows {
            let expect = d.per_packet_energy_joules() * packets as f64;
            assert!((j - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn path_energy_scales_linearly_with_packets() {
        let p = xsede_path();
        let e1 = path_energy_joules(&p, 1_000_000);
        let e2 = path_energy_joules(&p, 2_000_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn zero_packets_zero_dynamic_energy() {
        assert_eq!(path_energy_joules(&futuregrid_path(), 0), 0.0);
    }

    #[test]
    fn idle_term_dominates_total_energy() {
        // §4: idle power is 70–80% of device power in practice. For a
        // 10-minute 40 GB transfer the idle term must dwarf the dynamic one.
        let p = futuregrid_path();
        let packets = PacketModel::default().total_packets(Bytes::from_gb(40));
        let dynamic = path_energy_joules(&p, packets);
        let total = path_energy_with_idle_joules(&p, packets, 600.0);
        assert!(dynamic / total < 0.3, "dynamic share = {}", dynamic / total);
    }

    #[test]
    fn decomposition_percentages_sum_to_100() {
        let d = EnergyDecomposition {
            end_system_joules: 21_000.0,
            network_joules: 10_000.0,
        };
        assert!((d.end_system_percent() + d.network_percent() - 100.0).abs() < 1e-9);
        assert!((d.total_joules() - 31_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_decomposition_is_zero_percent() {
        let d = EnergyDecomposition {
            end_system_joules: 0.0,
            network_joules: 0.0,
        };
        assert_eq!(d.end_system_percent(), 0.0);
        assert_eq!(d.network_percent(), 0.0);
    }

    #[test]
    fn end_system_share_dominates_on_every_testbed() {
        // Figure 10: at all testbeds the end systems consume much more than
        // the (load-dependent) network infrastructure.
        let pm = PacketModel::default();
        let cases = [
            (21_000.0, xsede_path(), Bytes::from_gb(160)),
            (2_200.0, futuregrid_path(), Bytes::from_gb(40)),
            (3_600.0, didclab_path(), Bytes::from_gb(40)),
        ];
        for (end_j, path, bytes) in cases {
            let d = decompose(end_j, &path, bytes, &pm);
            assert!(
                d.end_system_percent() > 50.0,
                "{}: end-system share {}",
                path.name,
                d.end_system_percent()
            );
        }
    }

    #[test]
    fn network_share_ordering_follows_figure_10() {
        // Per GB moved, network share: FutureGrid > XSEDE ≫ DIDCLAB.
        let pm = PacketModel::default();
        // Use per-GB end-system energies in the paper's ballpark.
        let xs = decompose(21_000.0, &xsede_path(), Bytes::from_gb(160), &pm);
        let fg = decompose(2_200.0, &futuregrid_path(), Bytes::from_gb(40), &pm);
        let lab = decompose(3_600.0, &didclab_path(), Bytes::from_gb(40), &pm);
        assert!(
            fg.network_percent() > xs.network_percent(),
            "fg={} xs={}",
            fg.network_percent(),
            xs.network_percent()
        );
        assert!(
            xs.network_percent() > lab.network_percent(),
            "xs={} lab={}",
            xs.network_percent(),
            lab.network_percent()
        );
    }

    #[test]
    fn nonlinear_family_rewards_fast_transfers_path_wide() {
        use crate::dynmodel::DynamicPowerModel;
        let p = futuregrid_path();
        // Moving the same bytes at full rate vs quarter rate.
        let slow = transfer_dynamic_energy(&p, DynamicPowerModel::NonLinear, 0.25, 60.0);
        let fast = transfer_dynamic_energy(&p, DynamicPowerModel::NonLinear, 1.0, 60.0);
        assert!((fast / slow - 0.5).abs() < 1e-9, "ratio {}", fast / slow);
        // Linear: rate-independent.
        let l_slow = transfer_dynamic_energy(&p, DynamicPowerModel::Linear, 0.25, 60.0);
        let l_fast = transfer_dynamic_energy(&p, DynamicPowerModel::Linear, 1.0, 60.0);
        assert!((l_slow - l_fast).abs() < 1e-9);
        // Magnitudes follow the per-device dynamic headroom.
        let expect: f64 = p.devices.iter().map(|d| d.max_dynamic_watts() * 60.0).sum();
        assert!((l_fast - expect).abs() < 1e-9);
    }

    #[test]
    fn negative_duration_is_clamped() {
        let p = didclab_path();
        assert_eq!(path_energy_with_idle_joules(&p, 0, -5.0), 0.0);
    }
}
