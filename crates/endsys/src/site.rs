//! Sites and channel placement.
//!
//! An endpoint like Stampede is not one machine: XSEDE sites run several
//! data-transfer nodes behind one endpoint name. *Where* channels land
//! matters for energy: §3 observes that the custom client "tries to
//! initiate connections on a single end server even if there are more than
//! one, while GO and GUC distribute channels to multiple servers", which
//! "leads to an increase in power consumption due to active CPU utilization
//! on multiple servers".

use crate::server::ServerSpec;
use serde::{Deserialize, Serialize};

/// How a client spreads its data channels across a site's servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// Pack every channel onto the first server (the paper's custom client;
    /// used by SC, ProMC, MinE, HTEE, SLAEE).
    PackFirst,
    /// Spread channels round-robin over all servers (Globus Online and
    /// globus-url-copy).
    RoundRobin,
}

/// A transfer endpoint: one or more servers plus storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Site label (e.g. "Stampede (TACC)").
    pub name: String,
    /// The data-transfer nodes, in placement order.
    pub servers: Vec<ServerSpec>,
}

impl Site {
    /// Creates a site.
    pub fn new(name: impl Into<String>, servers: Vec<ServerSpec>) -> Self {
        let site = Site {
            name: name.into(),
            servers,
        };
        assert!(!site.servers.is_empty(), "a site needs at least one server");
        site
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Distributes `channels` data channels across the site's servers under
    /// `placement`, writing the channel count per server (same order as
    /// [`Site::servers`]) into `counts`. The buffer is cleared and refilled;
    /// its capacity is reused across calls, so a warm buffer never
    /// allocates.
    pub(crate) fn place_channels_into(
        &self,
        channels: u32,
        placement: Placement,
        counts: &mut Vec<u32>,
    ) {
        let n = self.servers.len();
        counts.clear();
        counts.resize(n, 0);
        if channels == 0 {
            return;
        }
        match placement {
            Placement::PackFirst => {
                counts[0] = channels;
            }
            Placement::RoundRobin => {
                let per = channels / n as u32;
                let extra = (channels % n as u32) as usize;
                for (i, c) in counts.iter_mut().enumerate() {
                    *c = per + u32::from(i < extra);
                }
            }
        }
    }

    /// Distributes `channels` data channels under `placement` across the
    /// servers marked available in `avail` (same order as
    /// [`Site::servers`]), writing the channel count per server into
    /// `counts` — used to route channels around quarantined servers.
    /// PackFirst packs onto the first available server; RoundRobin spreads
    /// over the available ones. When *no* server is available (or the mask
    /// length mismatches) the mask is ignored: a client with nowhere good
    /// to go still has to try somewhere. The buffer is cleared and
    /// refilled; its capacity is reused across calls, so a warm buffer
    /// never allocates.
    pub fn place_channels_masked_into(
        &self,
        channels: u32,
        placement: Placement,
        avail: &[bool],
        counts: &mut Vec<u32>,
    ) {
        let n = self.servers.len();
        let is_usable = |i: usize| *avail.get(i).unwrap_or(&true);
        let usable = (0..n).filter(|&i| is_usable(i)).count();
        if usable == n || usable == 0 {
            self.place_channels_into(channels, placement, counts);
            return;
        }
        counts.clear();
        counts.resize(n, 0);
        if channels == 0 {
            return;
        }
        match placement {
            Placement::PackFirst => {
                if let Some(first) = (0..n).find(|&i| is_usable(i)) {
                    counts[first] = channels;
                }
            }
            Placement::RoundRobin => {
                let m = usable as u32;
                let per = channels / m;
                let extra = (channels % m) as usize;
                for (k, srv) in (0..n).filter(|&i| is_usable(i)).enumerate() {
                    counts[srv] = per + u32::from(k < extra);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSubsystem;
    use eadt_sim::Rate;

    fn site(n: usize) -> Site {
        let server = ServerSpec::new(
            "dtn",
            4,
            115.0,
            Rate::from_gbps(10.0),
            DiskSubsystem::Array {
                per_access: Rate::from_mbps(1200.0),
                aggregate: Rate::from_gbps(8.0),
            },
        );
        Site::new("test-site", vec![server; n])
    }

    #[test]
    fn pack_first_uses_one_server() {
        let s = site(4);
        let mut counts = Vec::new();
        s.place_channels_into(7, Placement::PackFirst, &mut counts);
        assert_eq!(counts, vec![7, 0, 0, 0]);
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let s = site(4);
        let mut counts = Vec::new();
        s.place_channels_into(8, Placement::RoundRobin, &mut counts);
        assert_eq!(counts, vec![2, 2, 2, 2]);
        s.place_channels_into(6, Placement::RoundRobin, &mut counts);
        assert_eq!(counts, vec![2, 2, 1, 1]);
    }

    #[test]
    fn round_robin_concurrency_2_wakes_two_servers() {
        // The Figure 2b effect: GO at concurrency 2 runs two servers.
        let s = site(4);
        let mut counts = Vec::new();
        s.place_channels_into(2, Placement::RoundRobin, &mut counts);
        assert_eq!(counts, vec![1, 1, 0, 0]);
    }

    #[test]
    fn zero_channels_place_nowhere() {
        let s = site(3);
        // A stale buffer is cleared, not added to.
        let mut counts = vec![9, 9, 9, 9];
        s.place_channels_into(0, Placement::RoundRobin, &mut counts);
        assert_eq!(counts, vec![0, 0, 0]);
    }

    #[test]
    fn single_server_site_is_equivalent_under_both_policies() {
        let s = site(1);
        let mut counts = Vec::new();
        s.place_channels_into(5, Placement::PackFirst, &mut counts);
        assert_eq!(counts, vec![5]);
        s.place_channels_into(5, Placement::RoundRobin, &mut counts);
        assert_eq!(counts, vec![5]);
    }

    #[test]
    fn placement_conserves_channels() {
        let s = site(4);
        let mut counts = Vec::new();
        for c in 0..40 {
            for p in [Placement::PackFirst, Placement::RoundRobin] {
                s.place_channels_into(c, p, &mut counts);
                assert_eq!(counts.iter().sum::<u32>(), c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_site_panics() {
        Site::new("empty", Vec::new());
    }

    #[test]
    fn masked_placement_routes_around_unavailable_servers() {
        let s = site(4);
        let mut counts = Vec::new();
        let avail = [true, false, true, false];
        s.place_channels_masked_into(7, Placement::PackFirst, &avail, &mut counts);
        assert_eq!(counts, vec![7, 0, 0, 0]);
        s.place_channels_masked_into(5, Placement::RoundRobin, &avail, &mut counts);
        assert_eq!(counts, vec![3, 0, 2, 0]);
        // First server down: PackFirst packs onto the next available one.
        let avail = [false, true, true, true];
        s.place_channels_masked_into(4, Placement::PackFirst, &avail, &mut counts);
        assert_eq!(counts, vec![0, 4, 0, 0]);
    }

    #[test]
    fn masked_placement_conserves_channels() {
        let s = site(4);
        let mut counts = Vec::new();
        for mask in 0u32..16 {
            let avail: Vec<bool> = (0..4).map(|b| mask & (1 << b) != 0).collect();
            for c in 0..20 {
                for p in [Placement::PackFirst, Placement::RoundRobin] {
                    s.place_channels_masked_into(c, p, &avail, &mut counts);
                    assert_eq!(counts.iter().sum::<u32>(), c, "mask {mask:04b} c {c} {p:?}");
                }
            }
        }
    }

    #[test]
    fn fully_masked_site_falls_back_to_unmasked_placement() {
        let s = site(3);
        let (mut masked, mut plain) = (Vec::new(), Vec::new());
        s.place_channels_masked_into(
            6,
            Placement::RoundRobin,
            &[false, false, false],
            &mut masked,
        );
        s.place_channels_into(6, Placement::RoundRobin, &mut plain);
        assert_eq!(masked, plain);
        // Untouched mask (all true) is the plain placement too.
        s.place_channels_masked_into(6, Placement::PackFirst, &[true, true, true], &mut masked);
        s.place_channels_into(6, Placement::PackFirst, &mut plain);
        assert_eq!(masked, plain);
    }
}
