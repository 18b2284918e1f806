//! OS-level utilization under transfer load.
//!
//! The power models of §2.2 consume component utilizations (CPU, memory,
//! disk, NIC) plus the number of active cores. This module produces those
//! from the transfer state the engine knows: how many channels and streams
//! a server is running and how fast data is actually moving.
//!
//! Two rates matter: **goodput** (application bytes that reach the disk) and
//! **wire rate** (goodput inflated by retransmissions when the path is
//! congested). NIC and CPU work scale with wire traffic; disk work scales
//! with goodput.

use crate::disk::busy_fraction;
use crate::server::ServerSpec;
use eadt_sim::Rate;
use serde::{Deserialize, Serialize};

/// Instantaneous transfer load on one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerLoad {
    /// Data channels (GridFTP processes) running on this server.
    pub channels: u32,
    /// Total TCP streams across those channels (channels × parallelism).
    pub streams: u32,
    /// Application-level throughput this server is sustaining.
    pub goodput: Rate,
    /// On-the-wire rate including retransmissions (≥ goodput).
    pub wire_rate: Rate,
}

impl ServerLoad {
    /// Convenience constructor for uncongested load (wire = goodput).
    pub fn new(channels: u32, streams: u32, goodput: Rate) -> Self {
        ServerLoad {
            channels,
            streams,
            goodput,
            wire_rate: goodput,
        }
    }
}

/// Tunable coefficients mapping load to utilization percentages.
///
/// Defaults are calibrated so the three testbeds reproduce the shapes of
/// Figures 2–4 (see `eadt-testbeds`); they are exposed so ablation benches
/// can perturb them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationCoeffs {
    /// CPU % consumed by merely participating in a transfer (GridFTP
    /// service, OS, interrupts). This is what makes *spreading* channels
    /// over many servers (Globus Online) expensive.
    pub base_cpu: f64,
    /// CPU % per data channel (one mover process each).
    pub per_channel_cpu: f64,
    /// CPU % per TCP stream.
    pub per_stream_cpu: f64,
    /// CPU % per Gbps of wire traffic (checksumming, copies, interrupts).
    pub cpu_per_gbps: f64,
    /// Extra multiplier on thread-driven CPU load per unit of
    /// over-subscription (`(threads − cores)/cores`); context-switch and
    /// cache-thrash overhead once threads exceed cores (§3: "cores start
    /// running more data transfer threads which leads to increase in energy
    /// consumption per core").
    pub oversub_penalty: f64,
    /// Memory % floor while transferring.
    pub mem_base: f64,
    /// Memory % per Gbps of goodput (buffer cache pressure).
    pub mem_per_gbps: f64,
    /// Memory % per stream (socket buffers).
    pub mem_per_stream: f64,
}

impl Default for UtilizationCoeffs {
    fn default() -> Self {
        UtilizationCoeffs {
            base_cpu: 3.0,
            per_channel_cpu: 0.8,
            per_stream_cpu: 0.4,
            cpu_per_gbps: 4.5,
            oversub_penalty: 0.45,
            mem_base: 1.0,
            mem_per_gbps: 5.0,
            mem_per_stream: 0.2,
        }
    }
}

/// Component utilizations in percent (0–100) plus the active core count —
/// exactly the inputs of Eq. 1/Eq. 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// CPU utilization (whole machine, 0–100).
    pub cpu: f64,
    /// Memory utilization (0–100).
    pub memory: f64,
    /// Disk utilization (0–100): busy fraction at the subsystem's current
    /// service capability, so a thrashing single disk reads as busy even at
    /// low goodput.
    pub disk: f64,
    /// NIC utilization (0–100) of the line rate, wire traffic included.
    pub nic: f64,
    /// Active cores `n` for the `C_cpu(n)` coefficient of Eq. 2.
    pub active_cores: u32,
}

impl Utilization {
    /// All-zero utilization (idle server).
    pub(crate) const IDLE: Utilization = Utilization {
        cpu: 0.0,
        memory: 0.0,
        disk: 0.0,
        nic: 0.0,
        active_cores: 0,
    };

    /// Computes utilization of `spec` under `load`: the composition of
    /// [`LoadShape::new`] and [`LoadShape::at`].
    pub fn compute(spec: &ServerSpec, load: ServerLoad, coeffs: &UtilizationCoeffs) -> Utilization {
        if load.channels == 0 {
            return Utilization::IDLE;
        }
        LoadShape::new(spec, load.channels, load.streams, coeffs).at(load.goodput, load.wire_rate)
    }

    /// Utilization as the `[cpu, mem, disk, nic]` predictor vector used by
    /// regression fitting.
    pub fn as_vector(&self) -> [f64; 4] {
        [self.cpu, self.memory, self.disk, self.nic]
    }
}

/// The part of [`Utilization::compute`] fixed by the server spec and a
/// busy server's channel and stream counts: its active cores, the CPU
/// share of participation and threads, the over-subscription factor,
/// the per-stream memory term and the disk's service capability. A
/// caller that keeps the shape while the counts repeat evaluates only
/// [`LoadShape::at`] per goodput; the two parts run every floating-point
/// operation of `compute` in its order, so the bits match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadShape {
    channels: u32,
    streams: u32,
    active_cores: u32,
    /// `base_cpu + thread_cpu`.
    fixed_cpu: f64,
    /// `cpu_per_gbps`, and the square root of the over-subscription
    /// factor that scales traffic CPU.
    cpu_per_gbps: f64,
    oversub_sqrt: f64,
    /// `mem_base` and `mem_per_gbps`, and the per-stream memory term.
    mem_base: f64,
    mem_per_gbps: f64,
    stream_memory: f64,
    disk_capability: Rate,
    nic: Rate,
}

impl LoadShape {
    /// The shape of `spec` running `channels` (at least one) data
    /// channels with `streams` TCP streams in total.
    pub fn new(spec: &ServerSpec, channels: u32, streams: u32, coeffs: &UtilizationCoeffs) -> Self {
        let threads = streams.max(channels);
        let cores = spec.cores.max(1);
        let oversub = if threads > cores {
            1.0 + coeffs.oversub_penalty * (threads - cores) as f64 / cores as f64
        } else {
            1.0
        };
        let thread_cpu = (coeffs.per_channel_cpu * channels as f64
            + coeffs.per_stream_cpu * streams as f64)
            * oversub;
        LoadShape {
            channels,
            streams,
            active_cores: threads.min(cores),
            fixed_cpu: coeffs.base_cpu + thread_cpu,
            cpu_per_gbps: coeffs.cpu_per_gbps,
            oversub_sqrt: oversub.sqrt(),
            mem_base: coeffs.mem_base,
            mem_per_gbps: coeffs.mem_per_gbps,
            stream_memory: coeffs.mem_per_stream * streams as f64,
            disk_capability: spec.disk.busy_capability(channels),
            nic: spec.nic,
        }
    }

    /// The `(channels, streams)` the shape was computed for.
    pub fn counts(&self) -> (u32, u32) {
        (self.channels, self.streams)
    }

    /// The utilization at `goodput` with `wire_rate` on the wire.
    #[inline]
    pub fn at(&self, goodput: Rate, wire_rate: Rate) -> Utilization {
        let traffic_cpu = self.cpu_per_gbps * wire_rate.as_gbps() * self.oversub_sqrt;
        let cpu = (self.fixed_cpu + traffic_cpu).clamp(0.0, 100.0);
        let memory = (self.mem_base + self.mem_per_gbps * goodput.as_gbps() + self.stream_memory)
            .clamp(0.0, 100.0);
        let disk = busy_fraction(goodput, self.disk_capability) * 100.0;
        let nic = (wire_rate.fraction_of(self.nic) * 100.0).clamp(0.0, 100.0);
        Utilization {
            cpu,
            memory,
            disk,
            nic,
            active_cores: self.active_cores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSubsystem;

    fn server(cores: u32) -> ServerSpec {
        ServerSpec::new(
            "s",
            cores,
            115.0,
            Rate::from_gbps(10.0),
            DiskSubsystem::Array {
                per_access: Rate::from_mbps(1200.0),
                aggregate: Rate::from_gbps(8.0),
            },
        )
    }

    #[test]
    fn idle_server_has_zero_utilization() {
        let u = Utilization::compute(
            &server(4),
            ServerLoad::new(0, 0, Rate::ZERO),
            &UtilizationCoeffs::default(),
        );
        assert_eq!(u, Utilization::IDLE);
    }

    #[test]
    fn single_channel_has_base_costs() {
        let load = ServerLoad::new(1, 1, Rate::from_mbps(500.0));
        let u = Utilization::compute(&server(4), load, &UtilizationCoeffs::default());
        assert!(u.cpu > 0.0 && u.cpu < 20.0, "cpu={}", u.cpu);
        assert_eq!(u.active_cores, 1);
        assert!(u.nic > 4.9 && u.nic < 5.1);
    }

    #[test]
    fn active_cores_cap_at_physical_cores() {
        let load = ServerLoad::new(12, 24, Rate::from_gbps(6.0));
        let u = Utilization::compute(&server(4), load, &UtilizationCoeffs::default());
        assert_eq!(u.active_cores, 4);
    }

    #[test]
    fn oversubscription_raises_cpu_superlinearly() {
        let coeffs = UtilizationCoeffs::default();
        let spec = server(4);
        let below =
            Utilization::compute(&spec, ServerLoad::new(2, 4, Rate::from_gbps(2.0)), &coeffs);
        let at = Utilization::compute(&spec, ServerLoad::new(4, 4, Rate::from_gbps(2.0)), &coeffs);
        let above = Utilization::compute(
            &spec,
            ServerLoad::new(12, 24, Rate::from_gbps(2.0)),
            &coeffs,
        );
        assert!(at.cpu > below.cpu);
        // Tripling channels with over-subscription should more than triple
        // the thread-driven CPU share at fixed traffic.
        let thread_at = at.cpu - coeffs.base_cpu - coeffs.cpu_per_gbps * 2.0;
        let thread_above = above.cpu - coeffs.base_cpu;
        assert!(
            thread_above > 3.0 * thread_at,
            "{} vs {}",
            thread_above,
            thread_at
        );
    }

    #[test]
    fn utilization_is_clamped_to_100() {
        let load = ServerLoad::new(64, 256, Rate::from_gbps(100.0));
        let u = Utilization::compute(&server(2), load, &UtilizationCoeffs::default());
        assert!(u.cpu <= 100.0);
        assert!(u.memory <= 100.0);
        assert!(u.disk <= 100.0);
        assert!(u.nic <= 100.0);
    }

    #[test]
    fn wire_rate_drives_nic_goodput_drives_disk() {
        let spec = server(4);
        let load = ServerLoad {
            channels: 4,
            streams: 8,
            goodput: Rate::from_gbps(4.0),
            wire_rate: Rate::from_gbps(5.0),
        };
        let u = Utilization::compute(&spec, load, &UtilizationCoeffs::default());
        assert!((u.nic - 50.0).abs() < 1e-9, "nic={}", u.nic);
        // Striped array: busy fraction relative to its 8 Gbps peak.
        assert!((u.disk - 4.0 / 8.0 * 100.0).abs() < 1e-6, "disk={}", u.disk);
    }

    #[test]
    fn thrashing_single_disk_reads_busy_at_low_goodput() {
        let spec = ServerSpec::new(
            "ws",
            4,
            84.0,
            Rate::from_gbps(1.0),
            DiskSubsystem::Single {
                rate: Rate::from_mbps(700.0),
                contention_penalty: 0.2,
            },
        );
        // 8 accessors: capability = 700/(1+0.2·7) = 291 Mbps.
        let load = ServerLoad::new(8, 8, Rate::from_mbps(280.0));
        let u = Utilization::compute(&spec, load, &UtilizationCoeffs::default());
        assert!(u.disk > 90.0, "disk={}", u.disk);
    }

    #[test]
    fn as_vector_orders_components() {
        let u = Utilization {
            cpu: 1.0,
            memory: 2.0,
            disk: 3.0,
            nic: 4.0,
            active_cores: 2,
        };
        assert_eq!(u.as_vector(), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn memory_grows_with_streams_and_rate() {
        let spec = server(4);
        let coeffs = UtilizationCoeffs::default();
        let small = Utilization::compute(
            &spec,
            ServerLoad::new(1, 1, Rate::from_mbps(100.0)),
            &coeffs,
        );
        let big =
            Utilization::compute(&spec, ServerLoad::new(4, 16, Rate::from_gbps(4.0)), &coeffs);
        assert!(big.memory > small.memory);
    }
}
