//! The Figure 9 testbed topologies.
//!
//! Each testbed's transfer path is a sequence of network devices between
//! the source and destination hosts:
//!
//! * **XSEDE** (Gordon ↔ Stampede): edge switch → enterprise switch →
//!   edge router → Internet2 → edge router → enterprise switch → edge
//!   switch;
//! * **FutureGrid** (Hotel ↔ Alamo): edge switch → metro router → metro
//!   router → Internet2 → metro router → edge switch — the metro-router-
//!   heavy path whose network share of total energy is the largest
//!   (Figure 10);
//! * **DIDCLAB** (WS9 ↔ WS6): a single LAN switch.

use crate::device::DeviceKind;
use serde::{Deserialize, Serialize};

/// An ordered list of devices a transfer's packets traverse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPath {
    /// Path label (testbed name).
    pub name: String,
    /// Devices in hop order.
    pub devices: Vec<DeviceKind>,
}

impl NetworkPath {
    /// Creates a path.
    pub fn new(name: impl Into<String>, devices: Vec<DeviceKind>) -> Self {
        NetworkPath {
            name: name.into(),
            devices,
        }
    }

    /// Number of hops (devices).
    pub fn hop_count(&self) -> usize {
        self.devices.len()
    }

    /// Load-dependent energy per forwarded packet over the whole path,
    /// Joules.
    pub(crate) fn per_packet_energy_joules(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.per_packet_energy_joules())
            .sum()
    }

    /// Total idle power of all devices on the path, Watts.
    pub(crate) fn idle_watts(&self) -> f64 {
        self.devices.iter().map(|d| d.idle_watts()).sum()
    }

    /// How many devices of `kind` the path contains.
    pub fn count(&self, kind: DeviceKind) -> usize {
        self.devices.iter().filter(|&&d| d == kind).count()
    }
}

/// The XSEDE Stampede ↔ Gordon path (Figure 9a).
pub fn xsede_path() -> NetworkPath {
    use DeviceKind::*;
    NetworkPath::new(
        "XSEDE (Stampede–Gordon)",
        vec![
            EdgeSwitch,
            EnterpriseSwitch,
            EdgeRouter,
            // Internet2 backbone modelled by its edge presence only; the
            // long-haul optical segments are out of scope of Table 1.
            EdgeRouter,
            EnterpriseSwitch,
            EdgeSwitch,
        ],
    )
}

/// The FutureGrid Alamo ↔ Hotel path (Figure 9b) — metro-router heavy.
pub fn futuregrid_path() -> NetworkPath {
    use DeviceKind::*;
    NetworkPath::new(
        "FutureGrid (Alamo–Hotel)",
        vec![
            EdgeSwitch,
            MetroRouter,
            MetroRouter,
            MetroRouter,
            EdgeSwitch,
        ],
    )
}

/// The DIDCLAB WS9 ↔ WS6 LAN path (Figure 9c): one switch.
pub fn didclab_path() -> NetworkPath {
    NetworkPath::new("DIDCLAB (WS9–WS6)", vec![DeviceKind::EnterpriseSwitch])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xsede_path_is_symmetric_and_metro_free() {
        let p = xsede_path();
        assert_eq!(p.hop_count(), 6);
        assert_eq!(p.count(DeviceKind::MetroRouter), 0);
        assert_eq!(p.count(DeviceKind::EdgeSwitch), 2);
        assert_eq!(p.count(DeviceKind::EdgeRouter), 2);
    }

    #[test]
    fn futuregrid_has_three_metro_routers() {
        let p = futuregrid_path();
        assert_eq!(p.count(DeviceKind::MetroRouter), 3);
    }

    #[test]
    fn didclab_is_one_switch() {
        let p = didclab_path();
        assert_eq!(p.hop_count(), 1);
        assert_eq!(p.devices[0], DeviceKind::EnterpriseSwitch);
    }

    #[test]
    fn per_packet_cost_ordering_matches_figure_10() {
        // Per packet, the metro-heavy FutureGrid path must cost more than
        // XSEDE's, and both dwarf the single LAN switch — the driver of the
        // network-share ordering in Figure 10.
        let fg = futuregrid_path().per_packet_energy_joules();
        let xs = xsede_path().per_packet_energy_joules();
        let lab = didclab_path().per_packet_energy_joules();
        assert!(lab < xs);
        assert!(
            fg > xs * 0.9,
            "FutureGrid per-packet cost should rival/exceed XSEDE: {fg} vs {xs}"
        );
    }

    #[test]
    fn path_energy_is_sum_of_devices() {
        let p = didclab_path();
        assert!(
            (p.per_packet_energy_joules()
                - DeviceKind::EnterpriseSwitch.per_packet_energy_joules())
            .abs()
                < 1e-18
        );
    }

    #[test]
    fn idle_watts_accumulate() {
        let p = futuregrid_path();
        let expect = 2.0 * 100.0 + 3.0 * 750.0;
        assert!((p.idle_watts() - expect).abs() < 1e-9);
    }
}
