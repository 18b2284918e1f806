//! The device catalog of Table 1.
//!
//! | Device                    | P_p (nW) | P_s−f (pW) |
//! |---------------------------|----------|------------|
//! | Enterprise Ethernet Switch|   40     |   0.42     |
//! | Edge Ethernet Switch      | 1571     |  14.1      |
//! | Metro IP Router           | 1375     |  21.6      |
//! | Edge IP Router            | 1707     |  15.3      |
//!
//! These are the load-dependent coefficients of Vishwanath et al.'s model
//! (Eq. 5): each forwarded packet costs `P_p` of processing plus `P_s−f`
//! of store-and-forward work. Idle power is listed for completeness —
//! §4 notes it constitutes 70–80% of device power but is *independent of
//! the transfer algorithm*, so the comparisons only use the load-dependent
//! part.

use serde::{Deserialize, Serialize};

/// The four network device classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Enterprise Ethernet switch (aggregation layer inside a site).
    EnterpriseSwitch,
    /// Edge Ethernet switch (first/last hop).
    EdgeSwitch,
    /// Metro IP router (regional backbone).
    MetroRouter,
    /// Edge IP router (site uplink).
    EdgeRouter,
}

impl DeviceKind {
    /// All device kinds, in Table 1 order.
    pub const ALL: [DeviceKind; 4] = [
        DeviceKind::EnterpriseSwitch,
        DeviceKind::EdgeSwitch,
        DeviceKind::MetroRouter,
        DeviceKind::EdgeRouter,
    ];

    /// Table 1 label.
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::EnterpriseSwitch => "Enterprise Ethernet Switch",
            DeviceKind::EdgeSwitch => "Edge Ethernet Switch",
            DeviceKind::MetroRouter => "Metro IP Router",
            DeviceKind::EdgeRouter => "Edge IP Router",
        }
    }

    /// Per-packet processing coefficient `P_p` in nanojoules per packet
    /// (Table 1, nW column).
    pub fn per_packet_processing_nj(self) -> f64 {
        match self {
            DeviceKind::EnterpriseSwitch => 40.0,
            DeviceKind::EdgeSwitch => 1571.0,
            DeviceKind::MetroRouter => 1375.0,
            DeviceKind::EdgeRouter => 1707.0,
        }
    }

    /// Per-packet store-and-forward coefficient `P_s−f` in picojoules per
    /// packet (Table 1, pW column).
    pub fn per_packet_store_forward_pj(self) -> f64 {
        match self {
            DeviceKind::EnterpriseSwitch => 0.42,
            DeviceKind::EdgeSwitch => 14.1,
            DeviceKind::MetroRouter => 21.6,
            DeviceKind::EdgeRouter => 15.3,
        }
    }

    /// Total load-dependent energy per forwarded packet, in Joules:
    /// `P_p + P_s−f` of Eq. 5.
    pub(crate) fn per_packet_energy_joules(self) -> f64 {
        self.per_packet_processing_nj() * 1e-9 + self.per_packet_store_forward_pj() * 1e-12
    }

    /// Representative idle (base) power in Watts — the `P_idle` of Eq. 5,
    /// reported by §4's citations as 70–80% of total device power. Not used
    /// in algorithm comparisons (it does not depend on the transfer), but
    /// needed to reproduce the "idle dominates" observation.
    pub(crate) fn idle_watts(self) -> f64 {
        match self {
            DeviceKind::EnterpriseSwitch => 150.0,
            DeviceKind::EdgeSwitch => 100.0,
            DeviceKind::MetroRouter => 750.0,
            DeviceKind::EdgeRouter => 500.0,
        }
    }

    /// Maximum *dynamic* power at full line rate, Watts. With idle power at
    /// 70–80% of the total (§4's citations), the dynamic headroom is about
    /// 30% of the idle figure.
    pub(crate) fn max_dynamic_watts(self) -> f64 {
        self.idle_watts() * 0.3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_exact() {
        assert_eq!(
            DeviceKind::EnterpriseSwitch.per_packet_processing_nj(),
            40.0
        );
        assert_eq!(DeviceKind::EdgeSwitch.per_packet_processing_nj(), 1571.0);
        assert_eq!(DeviceKind::MetroRouter.per_packet_processing_nj(), 1375.0);
        assert_eq!(DeviceKind::EdgeRouter.per_packet_processing_nj(), 1707.0);
        assert_eq!(
            DeviceKind::EnterpriseSwitch.per_packet_store_forward_pj(),
            0.42
        );
        assert_eq!(DeviceKind::EdgeSwitch.per_packet_store_forward_pj(), 14.1);
        assert_eq!(DeviceKind::MetroRouter.per_packet_store_forward_pj(), 21.6);
        assert_eq!(DeviceKind::EdgeRouter.per_packet_store_forward_pj(), 15.3);
    }

    #[test]
    fn per_packet_energy_is_dominated_by_processing() {
        for kind in DeviceKind::ALL {
            let e = kind.per_packet_energy_joules();
            let p = kind.per_packet_processing_nj() * 1e-9;
            assert!(e >= p);
            assert!(
                e < p * 1.001,
                "{}: store-forward term should be tiny",
                kind.label()
            );
        }
    }

    #[test]
    fn edge_router_is_most_expensive_per_packet() {
        let max = DeviceKind::ALL
            .into_iter()
            .max_by(|a, b| {
                a.per_packet_energy_joules()
                    .total_cmp(&b.per_packet_energy_joules())
            })
            .unwrap();
        assert_eq!(max, DeviceKind::EdgeRouter);
    }

    #[test]
    fn metro_router_idles_hottest() {
        // §4: metro routers "consume the most power" among path devices.
        let max = DeviceKind::ALL
            .into_iter()
            .max_by(|a, b| a.idle_watts().total_cmp(&b.idle_watts()))
            .unwrap();
        assert_eq!(max, DeviceKind::MetroRouter);
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<&str> = DeviceKind::ALL.iter().map(|d| d.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
