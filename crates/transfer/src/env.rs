//! The environment a transfer runs in.

use crate::faults::{BackgroundTraffic, FaultPlan};
use eadt_endsys::{Site, UtilizationCoeffs};
use eadt_net::link::Link;
use eadt_net::packets::PacketModel;
use eadt_net::tcp::CongestionModel;
use eadt_power::{FineGrainedModel, PowerModelKind};
use eadt_sim::{Rate, SimDuration};
use serde::{Deserialize, Serialize};

/// Engine constants that are properties of the software/path rather than
/// the hardware specs.
/// The struct is `#[non_exhaustive]`: build it with
/// [`EngineTuning::default`] plus the `with_*` setters (fields stay `pub`
/// for reading and in-place mutation) so new tuning knobs can be added
/// without breaking downstream literals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct EngineTuning {
    /// Achievable steady rate of a single TCP stream on this path — the
    /// loss/AIMD-limited rate, usually far below the window ceiling on
    /// long-RTT paths (the reason parallelism exists).
    pub wan_stream_cap: Rate,
    /// Per-channel (per GridFTP process) processing ceiling.
    pub proc_channel_cap: Rate,
    /// Server-side per-file cost (open/close, allocation, bookkeeping)
    /// paid after every completed file *in addition to* the
    /// `RTT/pipelining` control-channel gap. Pipelining hides round trips,
    /// not this — it is why many-small-file chunks stay slow per channel
    /// even when perfectly pipelined.
    pub per_file_overhead: SimDuration,
    /// Simulation slice length.
    pub slice: SimDuration,
    /// Hard wall on simulated time; a run that exceeds it is reported as
    /// incomplete rather than looping forever.
    pub max_duration: SimDuration,
    /// Event-horizon macro-stepping: when the engine can prove the next
    /// `k` slices are steady state (no file completion, gap drain, fault
    /// boundary, controller decision or telemetry tick), it advances all
    /// `k` in one arithmetic batch. Output is bit-for-bit identical to
    /// slice-by-slice execution; disable (`--no-macro-step`) only to
    /// cross-check that invariant or to profile the plain slice loop.
    #[serde(default = "default_macro_step")]
    pub macro_step: bool,
}

fn default_macro_step() -> bool {
    true
}

impl Default for EngineTuning {
    fn default() -> Self {
        EngineTuning {
            wan_stream_cap: Rate::from_mbps(400.0),
            proc_channel_cap: Rate::from_gbps(2.0),
            per_file_overhead: SimDuration::from_millis(30),
            slice: SimDuration::from_millis(100),
            max_duration: SimDuration::from_secs(7 * 24 * 3600),
            macro_step: true,
        }
    }
}

impl EngineTuning {
    /// Sets the single-stream loss-limited rate cap.
    pub fn with_wan_stream_cap(mut self, cap: Rate) -> Self {
        self.wan_stream_cap = cap;
        self
    }

    /// Sets the per-channel processing ceiling.
    pub fn with_proc_channel_cap(mut self, cap: Rate) -> Self {
        self.proc_channel_cap = cap;
        self
    }

    /// Sets the server-side per-file completion cost.
    pub fn with_per_file_overhead(mut self, overhead: SimDuration) -> Self {
        self.per_file_overhead = overhead;
        self
    }

    /// Sets the simulation slice length.
    pub fn with_slice(mut self, slice: SimDuration) -> Self {
        self.slice = slice;
        self
    }

    /// Sets the hard wall on simulated time.
    pub fn with_max_duration(mut self, max_duration: SimDuration) -> Self {
        self.max_duration = max_duration;
        self
    }
}

/// Everything the engine needs to know about the world: the path, the two
/// sites, how load maps to utilization, how utilization maps to power, and
/// the path's congestion/packet behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferEnv {
    /// The end-to-end path.
    pub link: Link,
    /// Sending site.
    pub src: Site,
    /// Receiving site.
    pub dst: Site,
    /// Load → utilization coefficients (shared by both sites).
    pub util: UtilizationCoeffs,
    /// Utilization → Watts model (shared by both sites' servers).
    pub power: FineGrainedModel,
    /// Stream-count congestion response of the path.
    pub congestion: CongestionModel,
    /// Bytes → packets conversion for §4 accounting.
    pub packets: PacketModel,
    /// Software/path tuning constants.
    pub tuning: EngineTuning,
    /// Optional deterministic fault injection: any composition of
    /// per-channel failures, server outages, control-channel stalls and
    /// disk degradation, plus the recovery policy (see
    /// [`crate::faults::FaultPlan`]).
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Optional deterministic background traffic on the bottleneck link.
    #[serde(default)]
    pub background: Option<BackgroundTraffic>,
    /// Optional *secondary* power estimator run alongside the reference
    /// model. The reference `power` model plays the part of the measured
    /// ground truth; the estimator sees the same utilization stream and its
    /// prediction lands in `TransferReport::estimated_energy_j` — the
    /// in-vivo version of the §2.2 accuracy experiment (e.g. a CPU-only
    /// Eq. 3 model monitoring a server whose disk/NIC counters are not
    /// accessible).
    #[serde(default)]
    pub estimator: Option<PowerModelKind>,
}

impl TransferEnv {
    /// Per-stream achievable rate: the window ceiling clamped by the
    /// loss-limited cap.
    pub(crate) fn stream_rate(&self) -> Rate {
        eadt_net::tcp::stream_ceiling(&self.link).min(self.tuning.wan_stream_cap)
    }

    /// Per-channel ceiling for a channel running `parallelism` streams.
    pub(crate) fn channel_cap(&self, parallelism: u32) -> Rate {
        (self.stream_rate() * f64::from(parallelism.max(1)))
            .min(self.tuning.proc_channel_cap)
            .min(self.link.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_endsys::{DiskSubsystem, ServerSpec};
    use eadt_sim::Bytes;

    fn env() -> TransferEnv {
        let server = ServerSpec::new(
            "s",
            4,
            115.0,
            Rate::from_gbps(10.0),
            DiskSubsystem::Array {
                per_access: Rate::from_gbps(2.4),
                aggregate: Rate::from_gbps(7.6),
            },
        );
        TransferEnv {
            link: Link::new(
                Rate::from_gbps(10.0),
                SimDuration::from_millis(40),
                Bytes::from_mb(32),
            ),
            src: Site::new("src", vec![server.clone()]),
            dst: Site::new("dst", vec![server]),
            util: UtilizationCoeffs::default(),
            power: FineGrainedModel::paper_default(),
            congestion: CongestionModel::default(),
            packets: PacketModel::default(),
            tuning: EngineTuning::default(),
            faults: None,
            background: None,
            estimator: None,
        }
    }

    #[test]
    fn stream_rate_is_loss_limited_on_wan() {
        // Window ceiling 6.4 Gbps ≫ 400 Mbps loss cap → cap wins.
        assert_eq!(env().stream_rate(), Rate::from_mbps(400.0));
    }

    #[test]
    fn channel_cap_scales_with_parallelism_until_proc_limit() {
        let e = env();
        assert!((e.channel_cap(1).as_mbps() - 400.0).abs() < 1e-9);
        assert!((e.channel_cap(2).as_mbps() - 800.0).abs() < 1e-9);
        assert!((e.channel_cap(10).as_gbps() - 2.0).abs() < 1e-9); // proc cap
        assert_eq!(e.channel_cap(0), e.channel_cap(1)); // clamped
    }

    #[test]
    fn channel_cap_never_exceeds_link() {
        let mut e = env();
        e.tuning.proc_channel_cap = Rate::from_gbps(100.0);
        e.tuning.wan_stream_cap = Rate::from_gbps(100.0);
        assert_eq!(e.channel_cap(64), e.link.bandwidth);
    }

    #[test]
    fn default_tuning_is_sane() {
        let t = EngineTuning::default();
        assert!(t.slice.as_secs_f64() > 0.0);
        assert!(t.max_duration > t.slice);
    }
}
