//! Failure injection and background traffic.
//!
//! Real WAN transfers contend with things the steady-state model ignores:
//! data channels *fail* (server restarts, TCP resets, GridFTP process
//! crashes), whole servers go dark for a while, control channels stall,
//! disks degrade, and the path carries *other people's traffic*. All of it
//! is deterministic here — failures and episode windows are drawn from
//! seeded streams, background traffic follows a fixed periodic pattern —
//! so experiments with faults remain exactly reproducible.
//!
//! The taxonomy composes through [`FaultPlan`]:
//!
//! * [`FaultModel`] — independent per-channel failures (exponential TTF);
//! * [`OutageModel`] — correlated windows during which every channel to
//!   one server dies and stays dead;
//! * [`StallModel`] — control-channel stalls that inflate the
//!   `RTT/pipelining` inter-file gap for their duration;
//! * [`DiskDegradationModel`] — windows during which one server's disk
//!   subsystem runs at a fraction of its rate.
//!
//! Recovery policy (backoff, budgets, circuit breakers) lives in
//! [`crate::retry`].

use crate::retry::RetryPolicy;
use eadt_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Deterministic channel-failure model.
///
/// Each channel's time-to-failure is exponentially distributed with the
/// given mean (sampled from a seeded stream at channel creation and after
/// every failure). A failing channel pays a reconnection delay; whether the
/// in-flight file's progress survives depends on `restart_markers`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Mean time between failures per channel (simulated seconds).
    pub mtbf: SimDuration,
    /// Time to re-establish a failed channel.
    pub reconnect_delay: SimDuration,
    /// Whether GridFTP-style restart markers preserve a failed file's
    /// progress. With markers (the default, as in real GridFTP) a failure
    /// costs only the reconnect; without them the in-flight file restarts
    /// from zero — which can livelock a transfer whose per-file time
    /// approaches the MTBF, exactly why the real protocol has markers.
    pub restart_markers: bool,
    /// Seed for the failure stream (independent of dataset seeds).
    pub seed: u64,
}

impl FaultModel {
    /// A model with the given MTBF, restart markers on, 2 s reconnect.
    pub fn new(mtbf: SimDuration, seed: u64) -> Self {
        FaultModel {
            mtbf,
            reconnect_delay: SimDuration::from_secs(2),
            restart_markers: true,
            seed,
        }
    }

    /// Samples a time-to-failure (exponential with mean `mtbf`).
    ///
    /// Both tails of the inverse transform are guarded: `u → 0` would give
    /// an unbounded TTF (clamped by flooring `u` at 1e-12, ≈ 27.6 × mtbf),
    /// and `u → 1` gives `-ln(u) → 0`, a TTF that rounds to zero and would
    /// make the channel fail on *every* slice for the rest of the run.
    /// The result is floored at one microsecond so even the unluckiest draw
    /// fails once, resamples, and moves on.
    pub(crate) fn sample_ttf(&self, rng: &mut SimRng) -> SimDuration {
        let u = rng.unit().max(1e-12);
        self.mtbf.mul_f64(-u.ln()).max(SimDuration::from_micros(1))
    }
}

/// Which end of the transfer a server-scoped fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteSide {
    /// The sending site.
    Src,
    /// The receiving site.
    Dst,
}

/// Why an injected failure killed a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum FaultCause {
    /// Independent per-channel failure ([`FaultModel`] TTF expiry).
    Channel,
    /// Correlated server outage ([`OutageModel`] window).
    Outage,
}

/// Correlated server-outage windows: while a window is active, every
/// channel connected to the given server fails, and reconnection attempts
/// keep failing until the window closes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageModel {
    /// Which site the failing server belongs to.
    pub side: SiteSide,
    /// Index of the failing server within the site.
    pub server: usize,
    /// Mean gap between outage windows (exponentially distributed).
    pub mean_gap: SimDuration,
    /// Length of each outage window.
    pub duration: SimDuration,
    /// Seed for the window stream.
    pub seed: u64,
}

impl OutageModel {
    /// An outage pattern on one server.
    pub fn new(
        side: SiteSide,
        server: usize,
        mean_gap: SimDuration,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        OutageModel {
            side,
            server,
            mean_gap,
            duration,
            seed,
        }
    }
}

/// Control-channel stall episodes: while a window is active, the
/// `RTT/pipelining` inter-file gap is multiplied by `gap_multiplier`
/// (command responses crawl; data connections stay up).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StallModel {
    /// Mean gap between stall episodes (exponentially distributed).
    pub mean_gap: SimDuration,
    /// Length of each stall episode.
    pub duration: SimDuration,
    /// Factor applied to the inter-file control gap while stalled (≥ 1).
    pub gap_multiplier: f64,
    /// Seed for the episode stream.
    pub seed: u64,
}

impl StallModel {
    /// A stall pattern with the given episode shape.
    pub fn new(
        mean_gap: SimDuration,
        duration: SimDuration,
        gap_multiplier: f64,
        seed: u64,
    ) -> Self {
        StallModel {
            mean_gap,
            duration,
            gap_multiplier: gap_multiplier.max(1.0),
            seed,
        }
    }
}

/// Disk-degradation episodes: while a window is active, one server's disk
/// subsystem delivers `rate_factor` of its normal aggregate rate (RAID
/// rebuild, competing I/O, a dying spindle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskDegradationModel {
    /// Which site the degraded server belongs to.
    pub side: SiteSide,
    /// Index of the degraded server within the site.
    pub server: usize,
    /// Mean gap between episodes (exponentially distributed).
    pub mean_gap: SimDuration,
    /// Length of each episode.
    pub duration: SimDuration,
    /// Fraction of the normal disk rate available while degraded, 0–1.
    pub rate_factor: f64,
    /// Seed for the episode stream.
    pub seed: u64,
}

impl DiskDegradationModel {
    /// A degradation pattern on one server's disks.
    pub fn new(
        side: SiteSide,
        server: usize,
        mean_gap: SimDuration,
        duration: SimDuration,
        rate_factor: f64,
        seed: u64,
    ) -> Self {
        DiskDegradationModel {
            side,
            server,
            mean_gap,
            duration,
            rate_factor: rate_factor.clamp(0.0, 1.0),
            seed,
        }
    }
}

/// A seeded stream of fixed-length episode windows separated by
/// exponentially distributed gaps. Shared by outages, stalls and disk
/// degradations; polling must be monotonic in time (the engine polls once
/// per slice). A checkpoint stores the stream whole, so a restored one
/// resumes exactly where it stopped (same pending window, same future
/// draws).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct EpisodeStream {
    /// Window-gap stream.
    rng: SimRng,
    /// Mean gap between windows (model parameter).
    mean_gap: SimDuration,
    /// Window length (model parameter).
    duration: SimDuration,
    /// Opening edge of the pending/current window.
    next_start: SimTime,
    /// Closing edge of the pending/current window.
    next_end: SimTime,
    /// Whether the current window's rising edge was already counted.
    entered: bool,
    /// Windows entered so far.
    started: u64,
}

impl EpisodeStream {
    /// A stream whose first window opens one gap after time zero.
    pub(crate) fn new(mean_gap: SimDuration, duration: SimDuration, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork("episodes");
        let gap = Self::sample_gap(mean_gap, &mut rng);
        EpisodeStream {
            rng,
            mean_gap,
            duration,
            next_start: SimTime::ZERO + gap,
            next_end: SimTime::ZERO + gap + duration,
            entered: false,
            started: 0,
        }
    }

    fn sample_gap(mean: SimDuration, rng: &mut SimRng) -> SimDuration {
        let u = rng.unit().max(1e-12);
        mean.mul_f64(-u.ln()).max(SimDuration::from_micros(1))
    }

    /// Advances the stream to `now` and reports whether a window is active.
    /// `now` must not go backwards between calls.
    pub(crate) fn active(&mut self, now: SimTime) -> bool {
        while now >= self.next_end {
            let gap = Self::sample_gap(self.mean_gap, &mut self.rng);
            self.next_start = self.next_end + gap;
            self.next_end = self.next_start + self.duration;
            self.entered = false;
        }
        let active = now >= self.next_start;
        if active && !self.entered {
            self.entered = true;
            self.started += 1;
        }
        active
    }

    /// Number of windows entered so far (rising edges observed by
    /// [`EpisodeStream::active`]).
    pub(crate) fn started(&self) -> u64 {
        self.started
    }

    /// The next instant at which this stream's active/inactive state can
    /// change, given the last `now` passed to [`EpisodeStream::active`]:
    /// the next window's opening edge while idle, the current window's
    /// closing edge while active. Must be called *after* `active(now)`
    /// advanced the stream to `now` (the engine polls once per slice), so
    /// `next_end > now` always holds and no RNG draw is needed.
    pub(crate) fn next_boundary(&self, now: SimTime) -> SimTime {
        if now < self.next_start {
            self.next_start
        } else {
            self.next_end
        }
    }
}

/// The composed fault scenario for a run: any subset of the taxonomy plus
/// the recovery policy. `Default` is the all-clear plan (no faults, stock
/// retry policy), so JSON environments may specify only the pieces they
/// use.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Independent per-channel failures.
    #[serde(default)]
    pub channel: Option<FaultModel>,
    /// Correlated server-outage windows.
    #[serde(default)]
    pub outages: Vec<OutageModel>,
    /// Control-channel stall episodes.
    #[serde(default)]
    pub stall: Option<StallModel>,
    /// Disk-degradation episodes.
    #[serde(default)]
    pub disk: Vec<DiskDegradationModel>,
    /// Backoff / budget / circuit-breaker policy.
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Forces restart markers *off* for the whole plan even when the
    /// channel model keeps its default. Outage kills honour the same
    /// marker semantics as channel kills.
    #[serde(default)]
    pub drop_restart_markers: bool,
}

impl From<FaultModel> for FaultPlan {
    /// Wraps a bare channel model, carrying its reconnect delay over as
    /// the base backoff delay so legacy scenarios keep their first-retry
    /// timing.
    fn from(model: FaultModel) -> Self {
        FaultPlan {
            channel: Some(model),
            retry: RetryPolicy {
                base_delay: model.reconnect_delay,
                ..RetryPolicy::default()
            },
            ..FaultPlan::default()
        }
    }
}

impl FaultPlan {
    /// A plan with only per-channel failures (see [`From<FaultModel>`]).
    pub fn channel_only(model: FaultModel) -> Self {
        FaultPlan::from(model)
    }

    /// Adds a server-outage pattern.
    pub fn with_outage(mut self, outage: OutageModel) -> Self {
        self.outages.push(outage);
        self
    }

    /// Sets the control-channel stall pattern.
    pub fn with_stall(mut self, stall: StallModel) -> Self {
        self.stall = Some(stall);
        self
    }

    /// Adds a disk-degradation pattern.
    pub fn with_disk(mut self, disk: DiskDegradationModel) -> Self {
        self.disk.push(disk);
        self
    }

    /// Whether any fault source is configured at all.
    pub(crate) fn is_active(&self) -> bool {
        self.channel.is_some()
            || !self.outages.is_empty()
            || self.stall.is_some()
            || !self.disk.is_empty()
    }

    /// Effective restart-marker setting: the channel model's flag (default
    /// true when absent) unless the plan drops markers globally.
    pub fn restart_markers(&self) -> bool {
        !self.drop_restart_markers && self.channel.is_none_or(|c| c.restart_markers)
    }

    /// Seed for streams not owned by a specific model (retry jitter).
    pub(crate) fn base_seed(&self) -> u64 {
        self.channel.map_or(0x5eed_fa17, |c| c.seed)
    }
}

/// Deterministic periodic background traffic on the bottleneck link.
///
/// For `active` out of every `period` seconds, `fraction` of the link
/// capacity is occupied by cross traffic; the rest of the time the link is
/// clean. A square wave is crude but captures what adaptation cares about:
/// the available capacity *changes under the transfer's feet*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundTraffic {
    /// Pattern period.
    pub period: SimDuration,
    /// Leading portion of each period during which cross traffic flows.
    pub active: SimDuration,
    /// Fraction of link capacity the cross traffic occupies, 0–1.
    pub fraction: f64,
}

impl BackgroundTraffic {
    /// A pattern occupying `fraction` of the link for the first `active`
    /// seconds of every `period`.
    pub fn square(period: SimDuration, active: SimDuration, fraction: f64) -> Self {
        BackgroundTraffic {
            period,
            active: active.min(period),
            fraction: fraction.clamp(0.0, 1.0),
        }
    }

    /// Fraction of link capacity occupied by cross traffic at `t`.
    pub fn occupancy(&self, t: SimTime) -> f64 {
        let period = self.period.as_micros().max(1);
        let phase = t.as_micros() % period;
        if phase < self.active.as_micros() {
            self.fraction
        } else {
            0.0
        }
    }

    /// Multiplier on the link capacity at `t` (1 − occupancy).
    pub(crate) fn capacity_factor(&self, t: SimTime) -> f64 {
        (1.0 - self.occupancy(t)).max(0.0)
    }

    /// The next instant strictly after `t` at which [`occupancy`] can
    /// change: the falling edge of the current active window, or the
    /// rising edge of the next period. Returns the far future when the
    /// pattern is constant (zero fraction, or an active span that is
    /// empty or covers the whole period).
    ///
    /// [`occupancy`]: BackgroundTraffic::occupancy
    pub(crate) fn next_change(&self, t: SimTime) -> SimTime {
        let period = self.period.as_micros().max(1);
        let active = self.active.as_micros();
        if self.fraction == 0.0 || active == 0 || active >= period {
            return SimTime::from_micros(u64::MAX);
        }
        let phase = t.as_micros() % period;
        let period_start = t.as_micros() - phase;
        if phase < active {
            SimTime::from_micros(period_start + active)
        } else {
            SimTime::from_micros(period_start.saturating_add(period))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttf_is_positive_with_mean_near_mtbf() {
        let fm = FaultModel::new(SimDuration::from_secs(100), 1);
        let mut rng = SimRng::new(fm.seed);
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|_| fm.sample_ttf(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 6.0, "mean={mean}");
    }

    #[test]
    fn ttf_is_deterministic_per_seed() {
        let fm = FaultModel::new(SimDuration::from_secs(50), 9);
        let mut a = SimRng::new(fm.seed);
        let mut b = SimRng::new(fm.seed);
        for _ in 0..32 {
            assert_eq!(fm.sample_ttf(&mut a), fm.sample_ttf(&mut b));
        }
    }

    #[test]
    fn square_wave_occupancy() {
        let bg =
            BackgroundTraffic::square(SimDuration::from_secs(10), SimDuration::from_secs(4), 0.5);
        assert_eq!(bg.occupancy(SimTime::from_secs_f64(0.0)), 0.5);
        assert_eq!(bg.occupancy(SimTime::from_secs_f64(3.9)), 0.5);
        assert_eq!(bg.occupancy(SimTime::from_secs_f64(4.0)), 0.0);
        assert_eq!(bg.occupancy(SimTime::from_secs_f64(9.9)), 0.0);
        // Periodicity.
        assert_eq!(bg.occupancy(SimTime::from_secs_f64(12.0)), 0.5);
        assert_eq!(bg.capacity_factor(SimTime::from_secs_f64(12.0)), 0.5);
    }

    #[test]
    fn ttf_tail_is_exponential_and_floored() {
        // Tail pin: P(TTF > mtbf) = e⁻¹ ≈ 0.368 for an exponential.
        let fm = FaultModel::new(SimDuration::from_secs(100), 7);
        let mut rng = SimRng::new(fm.seed);
        let n = 4000;
        let above = (0..n).filter(|_| fm.sample_ttf(&mut rng) > fm.mtbf).count() as f64 / n as f64;
        assert!((above - (-1.0f64).exp()).abs() < 0.03, "tail={above}");
        // u → 1 guard: even a degenerate zero-mean model never returns a
        // zero TTF (which would re-fail the channel on every slice).
        let zero = FaultModel::new(SimDuration::ZERO, 7);
        let mut rng = SimRng::new(3);
        for _ in 0..64 {
            assert!(zero.sample_ttf(&mut rng) >= SimDuration::from_micros(1));
        }
    }

    #[test]
    fn episode_stream_is_deterministic_and_windows_have_duration() {
        let mut a = EpisodeStream::new(SimDuration::from_secs(30), SimDuration::from_secs(5), 11);
        let mut b = EpisodeStream::new(SimDuration::from_secs(30), SimDuration::from_secs(5), 11);
        let mut active_slices = 0u64;
        for i in 0..4000 {
            let t = SimTime::from_secs_f64(i as f64 * 0.1);
            let x = a.active(t);
            assert_eq!(x, b.active(t));
            active_slices += u64::from(x);
        }
        assert!(a.started() > 0, "400 s at mean gap 30 s must open windows");
        assert_eq!(a.started(), b.started());
        // Each 5 s window covers ~50 of the 100 ms polls.
        let per_window = active_slices as f64 / a.started() as f64;
        assert!((45.0..=55.0).contains(&per_window), "{per_window}");
    }

    #[test]
    fn episode_streams_with_different_seeds_differ() {
        let mut a = EpisodeStream::new(SimDuration::from_secs(20), SimDuration::from_secs(3), 1);
        let mut b = EpisodeStream::new(SimDuration::from_secs(20), SimDuration::from_secs(3), 2);
        let mut differed = false;
        for i in 0..2000 {
            let t = SimTime::from_secs_f64(i as f64 * 0.1);
            if a.active(t) != b.active(t) {
                differed = true;
            }
        }
        assert!(differed);
    }

    #[test]
    fn fault_plan_composes_and_tracks_markers() {
        let base = FaultModel::new(SimDuration::from_secs(60), 5);
        let plan = FaultPlan::from(base)
            .with_outage(OutageModel::new(
                SiteSide::Dst,
                1,
                SimDuration::from_secs(120),
                SimDuration::from_secs(10),
                9,
            ))
            .with_stall(StallModel::new(
                SimDuration::from_secs(90),
                SimDuration::from_secs(4),
                8.0,
                10,
            ))
            .with_disk(DiskDegradationModel::new(
                SiteSide::Src,
                0,
                SimDuration::from_secs(200),
                SimDuration::from_secs(20),
                0.25,
                11,
            ));
        assert!(plan.is_active());
        assert!(plan.restart_markers());
        assert_eq!(plan.retry.base_delay, base.reconnect_delay);
        let dropped = FaultPlan {
            drop_restart_markers: true,
            ..plan.clone()
        };
        assert!(!dropped.restart_markers());
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan::default().restart_markers());
    }

    #[test]
    fn fault_plan_serde_round_trips_and_defaults_apply() {
        let plan = FaultPlan::from(FaultModel::new(SimDuration::from_secs(45), 3)).with_outage(
            OutageModel::new(
                SiteSide::Src,
                0,
                SimDuration::from_secs(60),
                SimDuration::from_secs(6),
                4,
            ),
        );
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
        // A sparse document fills everything else from Default.
        let sparse: FaultPlan = serde_json::from_str("{}").unwrap();
        assert_eq!(sparse, FaultPlan::default());
    }

    #[test]
    fn episode_next_boundary_tracks_edges() {
        let mut s = EpisodeStream::new(SimDuration::from_secs(30), SimDuration::from_secs(5), 11);
        let mut t = SimTime::ZERO;
        let slice = SimDuration::from_millis(100);
        // Walk to the first window, checking the boundary promise at every
        // poll: the state must not change before the reported instant.
        for _ in 0..20_000 {
            let active = s.active(t);
            let boundary = s.next_boundary(t);
            assert!(boundary > t, "boundary must be in the future");
            // Probe a clone just before the boundary: same state.
            let mut probe = s.clone();
            let just_before = SimTime::from_micros(boundary.as_micros() - 1);
            if just_before > t {
                assert_eq!(probe.active(just_before), active);
            }
            t += slice;
        }
        assert!(s.started() > 0);
    }

    #[test]
    fn episode_snapshot_resumes_mid_stream() {
        let mut live =
            EpisodeStream::new(SimDuration::from_secs(30), SimDuration::from_secs(5), 11);
        let slice = SimDuration::from_millis(100);
        let mut t = SimTime::ZERO;
        for _ in 0..1234 {
            live.active(t);
            t += slice;
        }
        // The stream is its own checkpoint form and survives JSON (the
        // checkpoint transport).
        let text = serde_json::to_string(&live).unwrap();
        assert_eq!(
            text,
            "{\"duration\":{\"micros\":5000000},\"entered\":false,\"mean_gap\":{\"micros\":30000000},\
             \"next_end\":{\"micros\":133683345},\"next_start\":{\"micros\":128683345},\
             \"rng\":{\"seed\":8752054396902000590,\"state\":[8255353817509320422,\
             18255410932640155711,9229951239167942000,14858011762908724120]},\"started\":6}"
        );
        let mut resumed: EpisodeStream = serde_json::from_str(&text).unwrap();
        assert_eq!(resumed, live);
        for _ in 0..20_000 {
            assert_eq!(live.active(t), resumed.active(t));
            assert_eq!(live.started(), resumed.started());
            assert_eq!(live.next_boundary(t), resumed.next_boundary(t));
            t += slice;
        }
    }

    #[test]
    fn background_next_change_matches_occupancy_edges() {
        let bg =
            BackgroundTraffic::square(SimDuration::from_secs(10), SimDuration::from_secs(4), 0.5);
        // Inside the active span: change at the falling edge (t=4s).
        let t = SimTime::from_secs_f64(1.0);
        assert_eq!(bg.next_change(t), SimTime::from_secs_f64(4.0));
        // Inside the quiet span: change at the next period start (t=10s).
        let t = SimTime::from_secs_f64(7.0);
        assert_eq!(bg.next_change(t), SimTime::from_secs_f64(10.0));
        // Second period.
        let t = SimTime::from_secs_f64(12.0);
        assert_eq!(bg.next_change(t), SimTime::from_secs_f64(14.0));
        // Constant patterns never change.
        let quiet =
            BackgroundTraffic::square(SimDuration::from_secs(10), SimDuration::from_secs(4), 0.0);
        assert_eq!(quiet.next_change(t), SimTime::from_micros(u64::MAX));
        let full =
            BackgroundTraffic::square(SimDuration::from_secs(10), SimDuration::from_secs(10), 0.5);
        assert_eq!(full.next_change(t), SimTime::from_micros(u64::MAX));
    }

    #[test]
    fn fraction_and_active_are_clamped() {
        let bg =
            BackgroundTraffic::square(SimDuration::from_secs(5), SimDuration::from_secs(50), 1.8);
        assert_eq!(bg.active, SimDuration::from_secs(5));
        assert_eq!(bg.fraction, 1.0);
        assert_eq!(bg.capacity_factor(SimTime::from_secs_f64(1.0)), 0.0);
    }
}
