//! Recovery policy: backoff, retry budgets and circuit breakers.
//!
//! The fault taxonomy in [`crate::faults`] says *what breaks*; this module
//! says *what the client does about it*. Three mechanisms, all
//! deterministic:
//!
//! * **Exponential backoff with seeded jitter** — a failed channel waits
//!   `base · multiplier^attempt` (capped) before reconnecting, jittered by
//!   a seeded stream so concurrent failures do not reconnect in lockstep.
//! * **Per-channel retry budget** — after `retry_budget` consecutive
//!   failures a channel stops hammering and sits out a full `cooldown`
//!   before probing again.
//! * **Per-server circuit breakers** — correlated failures against one
//!   server open a breaker after `breaker_threshold` consecutive hits;
//!   placement then routes channels away from the server until the
//!   cooldown expires, at which point a half-open probe decides between
//!   closing the breaker and re-opening it.
//!
//! `FaultRuntime` drives one engine run's faults; its live state
//! (episode streams, breakers, the jitter stream, accumulated
//! [`FaultStats`]) is one [`FaultState`], which is also what a
//! checkpoint stores.

use crate::faults::{EpisodeStream, FaultCause, FaultPlan, SiteSide};
use crate::report::FaultStats;
use eadt_sim::{Bytes, SimDuration, SimRng, SimTime};
use eadt_telemetry::{
    BreakerState as EvBreakerState, EpisodeKind as EvEpisodeKind, Event, Side as EvSide,
};
use serde::{Deserialize, Serialize};

fn ev_side(side: SiteSide) -> EvSide {
    match side {
        SiteSide::Src => EvSide::Src,
        SiteSide::Dst => EvSide::Dst,
    }
}

/// Backoff / budget / breaker parameters.
///
/// Non-exhaustive: build one with [`RetryPolicy::default`] and the
/// `with_*` setters so new knobs can land without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// First-retry delay (doubles as the legacy reconnect delay).
    #[serde(default = "default_base_delay")]
    pub base_delay: SimDuration,
    /// Ceiling on the exponential backoff.
    #[serde(default = "default_max_delay")]
    pub max_delay: SimDuration,
    /// Backoff growth factor per consecutive failure.
    #[serde(default = "default_multiplier")]
    pub multiplier: f64,
    /// Jitter amplitude: each delay is scaled by a seeded factor drawn
    /// uniformly from `[1 − jitter, 1 + jitter)`.
    #[serde(default = "default_jitter")]
    pub jitter: f64,
    /// Consecutive failures a channel may burn through exponential backoff
    /// before it is parked for a full `cooldown`.
    #[serde(default = "default_retry_budget")]
    pub retry_budget: u32,
    /// Consecutive failures attributed to one server before its breaker
    /// opens and placement routes around it.
    #[serde(default = "default_breaker_threshold")]
    pub breaker_threshold: u32,
    /// How long an open breaker (or an exhausted channel) waits before the
    /// next probe.
    #[serde(default = "default_cooldown")]
    pub cooldown: SimDuration,
}

fn default_base_delay() -> SimDuration {
    SimDuration::from_secs(2)
}
fn default_max_delay() -> SimDuration {
    SimDuration::from_secs(30)
}
fn default_multiplier() -> f64 {
    2.0
}
fn default_jitter() -> f64 {
    0.25
}
fn default_retry_budget() -> u32 {
    6
}
fn default_breaker_threshold() -> u32 {
    3
}
fn default_cooldown() -> SimDuration {
    SimDuration::from_secs(20)
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: default_base_delay(),
            max_delay: default_max_delay(),
            multiplier: default_multiplier(),
            jitter: default_jitter(),
            retry_budget: default_retry_budget(),
            breaker_threshold: default_breaker_threshold(),
            cooldown: default_cooldown(),
        }
    }
}

impl RetryPolicy {
    /// Raw (un-jittered) backoff for the given 0-based consecutive-failure
    /// count: `base · multiplier^attempt`, capped at `max_delay`.
    pub(crate) fn raw_backoff(&self, attempt: u32) -> SimDuration {
        let factor = self.multiplier.max(1.0).powi(attempt.min(63) as i32);
        self.base_delay.mul_f64(factor).min(self.max_delay)
    }
}

/// Circuit-breaker state for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum BreakerState {
    /// Healthy; failures are counted.
    Closed,
    /// Quarantined until the given time; placement avoids the server.
    Open { until: SimTime },
    /// Cooldown expired; the next slice probes the server.
    HalfOpen,
}

/// Per-server failure tracker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Breaker {
    /// State-machine position.
    state: BreakerState,
    /// Consecutive failures counted against the server.
    consecutive: u32,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive: 0,
        }
    }

    /// Advances the cooldown; returns true when the breaker transitioned
    /// from open to half-open this slice.
    fn begin_slice(&mut self, now: SimTime) -> bool {
        if let BreakerState::Open { until } = self.state {
            if now >= until {
                self.state = BreakerState::HalfOpen;
                return true;
            }
        }
        false
    }

    /// Records a failure; returns true when the breaker newly opens.
    fn record_failure(&mut self, now: SimTime, policy: &RetryPolicy) -> bool {
        self.consecutive += 1;
        let should_open = match self.state {
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive >= policy.breaker_threshold.max(1),
            BreakerState::Open { .. } => false,
        };
        if should_open {
            self.state = BreakerState::Open {
                until: now + policy.cooldown,
            };
        }
        should_open
    }

    /// Clears the failure run; returns true when a half-open probe just
    /// closed the breaker.
    fn record_success(&mut self) -> bool {
        self.consecutive = 0;
        if matches!(self.state, BreakerState::HalfOpen) {
            self.state = BreakerState::Closed;
            return true;
        }
        false
    }

    /// Open means *avoid*; half-open deliberately reads as available so
    /// the probe can happen.
    fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }
}

/// The mutable state of a run's fault runtime, which is also its
/// checkpoint form. Captured at a slice boundary, so the runtime's
/// per-slice episode snapshot is not part of it (the next `begin_slice`
/// refreshes that before any read), and neither is what the runtime
/// derives from the plan, which a restore re-supplies. Episode streams
/// are stored in construction order (plan order after range filtering).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultState {
    /// Backoff-jitter stream.
    jitter_rng: SimRng,
    /// Channel TTF stream (present iff the plan has a channel model).
    ttf_rng: Option<SimRng>,
    /// Outage episode streams, in plan order.
    outages: Vec<EpisodeStream>,
    /// Control-channel stall stream.
    stall: Option<EpisodeStream>,
    /// Disk-degradation streams, in plan order.
    disk: Vec<EpisodeStream>,
    /// Sender-site breakers, by server index.
    src_breakers: Vec<Breaker>,
    /// Receiver-site breakers, by server index.
    dst_breakers: Vec<Breaker>,
    // Telemetry edge memory: the last *reported* episode states, so only
    // transitions are emitted.
    ev_src_outage: Vec<bool>,
    ev_dst_outage: Vec<bool>,
    ev_stall: bool,
    ev_src_disk: Vec<bool>,
    ev_dst_disk: Vec<bool>,
    // Per-server span-open memory (capture only): a `retry` span covers a
    // server's consecutive-failure run, a `quarantine` span its
    // breaker-open interval.
    span_src_retry: Vec<bool>,
    span_dst_retry: Vec<bool>,
    span_src_quar: Vec<bool>,
    span_dst_quar: Vec<bool>,
    /// Accumulated fault accounting, copied into the report at the end.
    stats: FaultStats,
}

/// The fault machinery of one engine run: its [`FaultState`], advanced
/// once per slice, beside what the plan says each stream applies to, the
/// per-slice episode snapshot and the telemetry event buffer.
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    // What each stream of `state` applies to, derived from the plan: the
    // `(side, server)` of each outage stream, the gap multiplier of the
    // stall stream and the `(side, server, rate factor)` of each disk
    // stream.
    outage_servers: Vec<(SiteSide, usize)>,
    stall_gap: f64,
    disk_servers: Vec<(SiteSide, usize, f64)>,
    state: FaultState,
    // Per-slice snapshot, refreshed by `begin_slice`.
    src_outage: Vec<bool>,
    dst_outage: Vec<bool>,
    stall_multiplier: f64,
    src_disk_factor: Vec<f64>,
    dst_disk_factor: Vec<f64>,
    // Telemetry event capture (off by default, zero-cost when off).
    capture: bool,
    events: Vec<Event>,
}

/// Formats the span detail naming one server, e.g. `src[2]`.
fn server_detail(side: EvSide, server: usize) -> String {
    format!("{}[{server}]", side.as_str())
}

impl FaultRuntime {
    /// Builds the runtime for a plan over sites with the given server
    /// counts. Out-of-range server indices in the plan are ignored.
    pub(crate) fn new(plan: &FaultPlan, src_servers: usize, dst_servers: usize) -> Self {
        let in_range = |side: SiteSide, server: usize| match side {
            SiteSide::Src => server < src_servers,
            SiteSide::Dst => server < dst_servers,
        };
        let outages: Vec<_> = (plan.outages.iter())
            .filter(|o| in_range(o.side, o.server))
            .collect();
        let disk: Vec<_> = (plan.disk.iter())
            .filter(|d| in_range(d.side, d.server))
            .collect();
        FaultRuntime {
            outage_servers: outages.iter().map(|o| (o.side, o.server)).collect(),
            stall_gap: plan.stall.map_or(1.0, |s| s.gap_multiplier.max(1.0)),
            disk_servers: (disk.iter())
                .map(|d| (d.side, d.server, d.rate_factor.clamp(0.0, 1.0)))
                .collect(),
            state: FaultState {
                jitter_rng: SimRng::new(plan.base_seed()).fork("retry-jitter"),
                ttf_rng: plan
                    .channel
                    .map(|c| SimRng::new(c.seed).fork("engine-faults")),
                outages: (outages.iter())
                    .map(|o| EpisodeStream::new(o.mean_gap, o.duration, o.seed))
                    .collect(),
                stall: plan
                    .stall
                    .map(|s| EpisodeStream::new(s.mean_gap, s.duration, s.seed)),
                disk: (disk.iter())
                    .map(|d| EpisodeStream::new(d.mean_gap, d.duration, d.seed))
                    .collect(),
                src_breakers: vec![Breaker::new(); src_servers],
                dst_breakers: vec![Breaker::new(); dst_servers],
                ev_src_outage: vec![false; src_servers],
                ev_dst_outage: vec![false; dst_servers],
                ev_stall: false,
                ev_src_disk: vec![false; src_servers],
                ev_dst_disk: vec![false; dst_servers],
                span_src_retry: vec![false; src_servers],
                span_dst_retry: vec![false; dst_servers],
                span_src_quar: vec![false; src_servers],
                span_dst_quar: vec![false; dst_servers],
                stats: FaultStats::default(),
            },
            src_outage: vec![false; src_servers],
            dst_outage: vec![false; dst_servers],
            stall_multiplier: 1.0,
            src_disk_factor: vec![1.0; src_servers],
            dst_disk_factor: vec![1.0; dst_servers],
            capture: false,
            events: Vec::new(),
            plan: plan.clone(),
        }
    }

    /// Switches on telemetry event capture: breaker transitions and
    /// fault-episode edges are buffered for [`FaultRuntime::take_events`].
    pub(crate) fn capture_events(&mut self, on: bool) {
        self.capture = on;
    }

    /// Returns (and clears) the buffered telemetry events.
    pub(crate) fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Advances episode streams and breaker cooldowns to the start of a
    /// slice and refreshes the per-slice snapshot.
    pub(crate) fn begin_slice(&mut self, now: SimTime) {
        let st = &mut self.state;
        for (side, breakers) in [
            (EvSide::Src, &mut st.src_breakers),
            (EvSide::Dst, &mut st.dst_breakers),
        ] {
            for (srv, b) in breakers.iter_mut().enumerate() {
                if b.begin_slice(now) && self.capture {
                    self.events.push(Event::Breaker {
                        side,
                        server: srv as u32,
                        state: EvBreakerState::HalfOpen,
                    });
                }
            }
        }
        self.src_outage.iter_mut().for_each(|o| *o = false);
        self.dst_outage.iter_mut().for_each(|o| *o = false);
        let mut outage_windows = 0;
        for (&(side, server), stream) in self.outage_servers.iter().zip(&mut st.outages) {
            let active = stream.active(now);
            outage_windows += stream.started();
            if active {
                match side {
                    SiteSide::Src => self.src_outage[server] = true,
                    SiteSide::Dst => self.dst_outage[server] = true,
                }
            }
        }
        st.stats.outage_episodes = outage_windows;
        self.stall_multiplier = match &mut st.stall {
            Some(stream) => {
                let active = stream.active(now);
                st.stats.stall_episodes = stream.started();
                if active {
                    self.stall_gap
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        self.src_disk_factor.iter_mut().for_each(|f| *f = 1.0);
        self.dst_disk_factor.iter_mut().for_each(|f| *f = 1.0);
        let mut disk_windows = 0;
        for (&(side, server, factor), stream) in self.disk_servers.iter().zip(&mut st.disk) {
            let active = stream.active(now);
            disk_windows += stream.started();
            if active {
                let slot = match side {
                    SiteSide::Src => &mut self.src_disk_factor[server],
                    SiteSide::Dst => &mut self.dst_disk_factor[server],
                };
                *slot = slot.min(factor);
            }
        }
        st.stats.disk_episodes = disk_windows;
        if self.capture {
            self.emit_episode_edges();
        }
    }

    /// Diffs the per-slice episode snapshot against the last reported one
    /// and buffers a `fault_episode` event per transition.
    fn emit_episode_edges(&mut self) {
        let st = &mut self.state;
        for (side, active, reported) in [
            (EvSide::Src, &self.src_outage, &mut st.ev_src_outage),
            (EvSide::Dst, &self.dst_outage, &mut st.ev_dst_outage),
        ] {
            for (srv, (&now_active, was)) in active.iter().zip(reported.iter_mut()).enumerate() {
                if now_active != *was {
                    *was = now_active;
                    self.events.push(Event::FaultEpisode {
                        kind: EvEpisodeKind::Outage,
                        side: Some(side),
                        server: Some(srv as u32),
                        active: now_active,
                    });
                }
            }
        }
        let stalled = self.stall_multiplier > 1.0;
        if stalled != st.ev_stall {
            st.ev_stall = stalled;
            self.events.push(Event::FaultEpisode {
                kind: EvEpisodeKind::Stall,
                side: None,
                server: None,
                active: stalled,
            });
        }
        for (side, factors, reported) in [
            (EvSide::Src, &self.src_disk_factor, &mut st.ev_src_disk),
            (EvSide::Dst, &self.dst_disk_factor, &mut st.ev_dst_disk),
        ] {
            for (srv, (&f, was)) in factors.iter().zip(reported.iter_mut()).enumerate() {
                let now_active = f < 1.0;
                if now_active != *was {
                    *was = now_active;
                    self.events.push(Event::FaultEpisode {
                        kind: EvEpisodeKind::Disk,
                        side: Some(side),
                        server: Some(srv as u32),
                        active: now_active,
                    });
                }
            }
        }
    }

    /// Samples a fresh time-to-failure when the plan has a channel model.
    pub(crate) fn sample_ttf(&mut self) -> Option<SimDuration> {
        let model = self.plan.channel?;
        let rng = self.state.ttf_rng.as_mut()?;
        Some(model.sample_ttf(rng))
    }

    /// Whether any outage window is currently active on either site (the
    /// engine's `outage_idle` ledger-phase signal).
    pub(crate) fn any_outage(&self) -> bool {
        self.src_outage.iter().chain(&self.dst_outage).any(|&o| o)
    }

    /// Whether an outage window currently covers the given server.
    pub(crate) fn outage_active(&self, side: SiteSide, server: usize) -> bool {
        match side {
            SiteSide::Src => self.src_outage.get(server).copied().unwrap_or(false),
            SiteSide::Dst => self.dst_outage.get(server).copied().unwrap_or(false),
        }
    }

    /// Current inter-file control-gap multiplier (1.0 when not stalled).
    pub(crate) fn gap_multiplier(&self) -> f64 {
        self.stall_multiplier
    }

    /// Current disk-rate factor for a server (1.0 when healthy).
    pub(crate) fn disk_factor(&self, side: SiteSide, server: usize) -> f64 {
        match side {
            SiteSide::Src => self.src_disk_factor.get(server).copied().unwrap_or(1.0),
            SiteSide::Dst => self.dst_disk_factor.get(server).copied().unwrap_or(1.0),
        }
    }

    /// Placement masks from *learned* state only: a server reads as
    /// unavailable while its breaker is open. Active outages the client
    /// has not collided with yet do not mask — the client is not an
    /// oracle; it discovers outages by failing against them. Refills the
    /// caller's buffers (capacity reused, so warm buffers never allocate).
    pub(crate) fn avail_masks_into(&self, src: &mut Vec<bool>, dst: &mut Vec<bool>) {
        src.clear();
        src.extend(self.state.src_breakers.iter().map(|b| !b.is_open()));
        dst.clear();
        dst.extend(self.state.dst_breakers.iter().map(|b| !b.is_open()));
    }

    /// Fraction of servers not quarantined, taken as the min over both
    /// sites — the controller-facing degradation signal.
    pub(crate) fn capacity_fraction(&self) -> f64 {
        let frac = |brs: &[Breaker]| {
            if brs.is_empty() {
                1.0
            } else {
                brs.iter().filter(|b| !b.is_open()).count() as f64 / brs.len() as f64
            }
        };
        frac(&self.state.src_breakers).min(frac(&self.state.dst_breakers))
    }

    /// Books a failure: bumps the per-cause counter and, for outage kills,
    /// charges the breaker of every server whose outage the channel hit.
    pub(crate) fn record_failure(
        &mut self,
        cause: FaultCause,
        src_srv: usize,
        dst_srv: usize,
        now: SimTime,
    ) {
        match cause {
            FaultCause::Channel => self.state.stats.channel_failures += 1,
            FaultCause::Outage => {
                self.state.stats.outage_failures += 1;
                if self.src_outage.get(src_srv).copied().unwrap_or(false) {
                    let breaker = &mut self.state.src_breakers[src_srv];
                    let was_zero = breaker.consecutive == 0;
                    let opened = breaker.record_failure(now, &self.plan.retry);
                    if opened {
                        self.state.stats.breaker_opens += 1;
                    }
                    if self.capture {
                        self.charge_events(EvSide::Src, src_srv, was_zero, opened);
                    }
                }
                if self.dst_outage.get(dst_srv).copied().unwrap_or(false) {
                    let breaker = &mut self.state.dst_breakers[dst_srv];
                    let was_zero = breaker.consecutive == 0;
                    let opened = breaker.record_failure(now, &self.plan.retry);
                    if opened {
                        self.state.stats.breaker_opens += 1;
                    }
                    if self.capture {
                        self.charge_events(EvSide::Dst, dst_srv, was_zero, opened);
                    }
                }
            }
        }
    }

    /// Emits the telemetry for one breaker charge: the start of a
    /// consecutive-failure run opens a `retry` span, a newly opened
    /// breaker emits its transition and opens a `quarantine` span.
    fn charge_events(&mut self, side: EvSide, server: usize, was_zero: bool, opened: bool) {
        let begin_retry = {
            let retry_open = match side {
                EvSide::Src => &mut self.state.span_src_retry,
                EvSide::Dst => &mut self.state.span_dst_retry,
            };
            let begin = was_zero && !retry_open[server];
            if begin {
                retry_open[server] = true;
            }
            begin
        };
        if begin_retry {
            self.events.push(Event::SpanBegin {
                id: 0,
                parent: 0,
                kind: "retry".to_string(),
                detail: server_detail(side, server),
            });
        }
        if opened {
            self.events.push(Event::Breaker {
                side,
                server: server as u32,
                state: EvBreakerState::Open,
            });
            let begin_quar = {
                let quar_open = match side {
                    EvSide::Src => &mut self.state.span_src_quar,
                    EvSide::Dst => &mut self.state.span_dst_quar,
                };
                let begin = !quar_open[server];
                if begin {
                    quar_open[server] = true;
                }
                begin
            };
            if begin_quar {
                self.events.push(Event::SpanBegin {
                    id: 0,
                    parent: 0,
                    kind: "quarantine".to_string(),
                    detail: server_detail(side, server),
                });
            }
        }
    }

    /// Books bytes successfully moved through a server: resets its
    /// breaker's failure run and closes a half-open probe.
    pub(crate) fn record_success(&mut self, side: SiteSide, server: usize) {
        let breaker = match side {
            SiteSide::Src => self.state.src_breakers.get_mut(server),
            SiteSide::Dst => self.state.dst_breakers.get_mut(server),
        };
        let Some(b) = breaker else { return };
        let had_run = b.consecutive > 0;
        let closed = b.record_success();
        if !self.capture {
            return;
        }
        // The failure run is over: close the server's retry span.
        if had_run {
            let retry_open = match side {
                SiteSide::Src => &mut self.state.span_src_retry,
                SiteSide::Dst => &mut self.state.span_dst_retry,
            };
            if retry_open[server] {
                retry_open[server] = false;
                self.events.push(Event::SpanEnd {
                    id: 0,
                    kind: "retry".to_string(),
                    detail: server_detail(ev_side(side), server),
                });
            }
        }
        if closed {
            self.events.push(Event::Breaker {
                side: ev_side(side),
                server: server as u32,
                state: EvBreakerState::Closed,
            });
            let quar_open = match side {
                SiteSide::Src => &mut self.state.span_src_quar,
                SiteSide::Dst => &mut self.state.span_dst_quar,
            };
            if quar_open[server] {
                quar_open[server] = false;
                self.events.push(Event::SpanEnd {
                    id: 0,
                    kind: "quarantine".to_string(),
                    detail: server_detail(ev_side(side), server),
                });
            }
        }
    }

    /// The reconnect delay for a channel's next attempt, given its
    /// 0-based consecutive-failure count: jittered exponential backoff
    /// while within budget, a full cooldown once the budget is exhausted.
    /// Returns `(delay, budget_exhausted)` and books the retry.
    pub(crate) fn next_delay(&mut self, consecutive: u32) -> (SimDuration, bool) {
        self.state.stats.retries += 1;
        let policy = self.plan.retry;
        if consecutive >= policy.retry_budget.max(1) {
            self.state.stats.budget_exhaustions += 1;
            return (policy.cooldown, true);
        }
        let raw = policy.raw_backoff(consecutive);
        let amp = policy.jitter.clamp(0.0, 1.0);
        let factor = 1.0 - amp + 2.0 * amp * self.state.jitter_rng.unit();
        let delay = raw.mul_f64(factor).max(SimDuration::from_micros(1));
        // Auditor: jitter widens the backoff by at most (1 + amp), so a
        // delay past that envelope means the schedule lost its cap.
        if cfg!(feature = "debug-invariants") {
            assert!(
                delay
                    <= policy
                        .max_delay
                        .mul_f64(1.0 + amp)
                        .max(SimDuration::from_micros(1)),
                "invariant: jittered backoff {delay:?} exceeds cap {:?} (amp {amp})",
                policy.max_delay
            );
        }
        (delay, false)
    }

    /// Adds backoff wait time to the accounting.
    pub(crate) fn book_backoff(&mut self, waited: SimDuration) {
        self.state.stats.backoff_time += waited;
    }

    /// Adds retransmitted (lost-progress) bytes to the accounting.
    pub(crate) fn book_retransmit(&mut self, lost: Bytes) {
        self.state.stats.retransmitted_bytes += lost;
    }

    /// Effective restart-marker setting for the plan.
    pub(crate) fn restart_markers(&self) -> bool {
        self.plan.restart_markers()
    }

    /// The earliest future instant (relative to `now`, the start of the
    /// slice most recently passed to [`FaultRuntime::begin_slice`]) at
    /// which any fault-runtime state can change on its own: an episode
    /// window opening or closing, or an open breaker's cooldown expiring.
    ///
    /// Returns `now` itself while any breaker is half-open — a half-open
    /// probe resolves through `record_success`/`record_failure` on the
    /// very next slice, so the macro-stepper must not skip it.
    ///
    /// Channel-TTF expiry and in-flight backoffs are *not* covered here;
    /// the engine tracks those per channel.
    pub(crate) fn next_change(&self, now: SimTime) -> SimTime {
        let st = &self.state;
        let mut earliest = SimTime::from_micros(u64::MAX);
        for stream in st.outages.iter().chain(&st.stall).chain(&st.disk) {
            earliest = earliest.min(stream.next_boundary(now));
        }
        for b in st.src_breakers.iter().chain(&st.dst_breakers) {
            match b.state {
                BreakerState::Closed => {}
                BreakerState::Open { until } => earliest = earliest.min(until),
                BreakerState::HalfOpen => earliest = earliest.min(now),
            }
        }
        earliest
    }

    /// Breaker quarantine mask for one site (true = quarantined): refills
    /// the caller's buffer (capacity reused across slices).
    pub(crate) fn quarantined_into(&self, side: SiteSide, out: &mut Vec<bool>) {
        out.clear();
        match side {
            SiteSide::Src => out.extend(self.state.src_breakers.iter().map(Breaker::is_open)),
            SiteSide::Dst => out.extend(self.state.dst_breakers.iter().map(Breaker::is_open)),
        }
    }

    /// Accumulated fault accounting so far.
    pub(crate) fn stats(&self) -> FaultStats {
        self.state.stats
    }

    /// The runtime's state for a checkpoint, taken at a slice boundary.
    ///
    /// The event buffer must be empty at capture time (the engine drains
    /// it every slice); a non-empty buffer would silently drop events.
    pub(crate) fn snapshot(&self) -> FaultState {
        debug_assert!(
            self.events.is_empty(),
            "fault-runtime events must be drained before a checkpoint"
        );
        self.state.clone()
    }

    /// Rebuilds a runtime from a plan plus its checkpointed `state`,
    /// resuming every stream, breaker and statistic exactly where the
    /// captured runtime stopped. The plan and server counts must match the
    /// original run (`eadt-ckpt` guards this with a config fingerprint);
    /// the stream and per-server counts are checked here.
    pub(crate) fn restore(
        plan: &FaultPlan,
        src_servers: usize,
        dst_servers: usize,
        state: FaultState,
    ) -> Self {
        let mut rt = FaultRuntime::new(plan, src_servers, dst_servers);
        assert_eq!(
            rt.state.outages.len(),
            state.outages.len(),
            "checkpoint outage-stream count does not match the plan"
        );
        assert_eq!(
            rt.state.disk.len(),
            state.disk.len(),
            "checkpoint disk-stream count does not match the plan"
        );
        assert_eq!(
            rt.state.stall.is_some(),
            state.stall.is_some(),
            "checkpoint stall stream does not match the plan"
        );
        for (servers, per_server) in [
            (src_servers, [&state.span_src_retry, &state.span_src_quar]),
            (dst_servers, [&state.span_dst_retry, &state.span_dst_quar]),
        ] {
            assert!(
                per_server.iter().all(|v| v.len() == servers),
                "checkpoint span state does not match the site's {servers} servers"
            );
        }
        assert_eq!(rt.state.src_breakers.len(), state.src_breakers.len());
        assert_eq!(rt.state.dst_breakers.len(), state.dst_breakers.len());
        rt.state = state;
        rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultModel, OutageModel};

    fn plan_with_outage() -> FaultPlan {
        FaultPlan::default().with_outage(OutageModel::new(
            SiteSide::Dst,
            1,
            SimDuration::from_secs(40),
            SimDuration::from_secs(10),
            21,
        ))
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.raw_backoff(0), SimDuration::from_secs(2));
        assert_eq!(p.raw_backoff(1), SimDuration::from_secs(4));
        assert_eq!(p.raw_backoff(3), SimDuration::from_secs(16));
        assert_eq!(p.raw_backoff(10), p.max_delay);
        assert_eq!(p.raw_backoff(63), p.max_delay);
    }

    #[test]
    fn jittered_delays_are_deterministic_and_bounded() {
        let plan = FaultPlan::from(FaultModel::new(SimDuration::from_secs(60), 4));
        let mut a = FaultRuntime::new(&plan, 1, 1);
        let mut b = FaultRuntime::new(&plan, 1, 1);
        for attempt in 0..6 {
            let (da, _) = a.next_delay(attempt);
            let (db, _) = b.next_delay(attempt);
            assert_eq!(da, db);
            let raw = plan.retry.raw_backoff(attempt).as_secs_f64();
            let d = da.as_secs_f64();
            assert!(
                d >= raw * 0.749 && d < raw * 1.251,
                "attempt {attempt}: {d} vs {raw}"
            );
        }
        assert_eq!(a.stats().retries, 6);
    }

    #[test]
    fn exhausted_budget_parks_the_channel_for_the_cooldown() {
        let plan = FaultPlan::default();
        let mut rt = FaultRuntime::new(&plan, 1, 1);
        let budget = plan.retry.retry_budget;
        let (delay, exhausted) = rt.next_delay(budget);
        assert!(exhausted);
        assert_eq!(delay, plan.retry.cooldown);
        assert_eq!(rt.stats().budget_exhaustions, 1);
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let plan = plan_with_outage();
        let mut rt = FaultRuntime::new(&plan, 1, 2);
        // Walk time to an active outage window on dst server 1.
        let mut t = SimTime::ZERO;
        let slice = SimDuration::from_millis(100);
        while !rt.outage_active(SiteSide::Dst, 1) {
            t += slice;
            rt.begin_slice(t);
            assert!(
                t.since(SimTime::ZERO) < SimDuration::from_secs(600),
                "no outage window in 10 min"
            );
        }
        for _ in 0..plan.retry.breaker_threshold {
            rt.record_failure(FaultCause::Outage, 0, 1, t);
        }
        assert_eq!(rt.stats().breaker_opens, 1);
        let (mut quarantined, mut src_avail, mut dst_avail) = (Vec::new(), Vec::new(), Vec::new());
        rt.quarantined_into(SiteSide::Dst, &mut quarantined);
        assert_eq!(quarantined, vec![false, true]);
        rt.avail_masks_into(&mut src_avail, &mut dst_avail);
        assert_eq!(dst_avail, vec![true, false]);
        assert!((rt.capacity_fraction() - 0.5).abs() < 1e-12);
        // After the cooldown the breaker half-opens: available for a probe.
        let mut t = t + plan.retry.cooldown + slice;
        rt.begin_slice(t);
        rt.avail_masks_into(&mut src_avail, &mut dst_avail);
        assert_eq!(dst_avail, vec![true, true]);
        assert_eq!(
            serde_json::to_string(&rt.state.dst_breakers[1]).unwrap(),
            "{\"consecutive\":3,\"state\":\"HalfOpen\"}"
        );
        // A probe that collides with the *next* outage window re-opens the
        // breaker instantly (outage kills only charge breakers while the
        // outage is actually up); a successful probe closes it.
        while !rt.outage_active(SiteSide::Dst, 1) {
            t += slice;
            rt.begin_slice(t);
            assert!(
                t.since(SimTime::ZERO) < SimDuration::from_secs(1200),
                "no second outage window in 20 min"
            );
        }
        rt.record_failure(FaultCause::Outage, 0, 1, t);
        rt.quarantined_into(SiteSide::Dst, &mut quarantined);
        assert!(quarantined[1]);
        assert_eq!(rt.stats().breaker_opens, 2);
        let after = t + plan.retry.cooldown + slice;
        rt.begin_slice(after);
        rt.record_success(SiteSide::Dst, 1);
        rt.quarantined_into(SiteSide::Dst, &mut quarantined);
        assert!(!quarantined[1]);
        assert!((rt.capacity_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn channel_failures_do_not_charge_breakers() {
        let plan = FaultPlan::from(FaultModel::new(SimDuration::from_secs(30), 2));
        let mut rt = FaultRuntime::new(&plan, 1, 1);
        rt.begin_slice(SimTime::ZERO);
        for _ in 0..10 {
            rt.record_failure(FaultCause::Channel, 0, 0, SimTime::ZERO);
        }
        assert_eq!(rt.stats().channel_failures, 10);
        assert_eq!(rt.stats().breaker_opens, 0);
        assert!((rt.capacity_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn next_change_bounds_episode_and_breaker_state() {
        // No fault sources at all: nothing ever changes.
        let calm = FaultRuntime::new(&FaultPlan::default(), 1, 1);
        assert_eq!(
            calm.next_change(SimTime::ZERO),
            SimTime::from_micros(u64::MAX)
        );

        let plan = plan_with_outage();
        let mut rt = FaultRuntime::new(&plan, 1, 2);
        let slice = SimDuration::from_millis(100);
        let mut t = SimTime::ZERO;
        // At every poll the promised boundary is in the future, and the
        // outage snapshot cannot differ anywhere strictly before it.
        for _ in 0..6000 {
            rt.begin_slice(t);
            let boundary = rt.next_change(t);
            assert!(boundary > t);
            let probe_t = SimTime::from_micros(boundary.as_micros() - 1);
            if probe_t > t {
                let mut probe = rt.clone();
                let before = probe.outage_active(SiteSide::Dst, 1);
                probe.begin_slice(probe_t);
                assert_eq!(probe.outage_active(SiteSide::Dst, 1), before);
            }
            t += slice;
        }

        // An open breaker bounds the horizon by its cooldown expiry; a
        // half-open breaker pins it to `now`.
        let mut rt = FaultRuntime::new(&plan, 1, 2);
        let mut t = SimTime::ZERO;
        while !rt.outage_active(SiteSide::Dst, 1) {
            t += slice;
            rt.begin_slice(t);
        }
        for _ in 0..plan.retry.breaker_threshold {
            rt.record_failure(FaultCause::Outage, 0, 1, t);
        }
        let mut quarantined = Vec::new();
        rt.quarantined_into(SiteSide::Dst, &mut quarantined);
        assert!(quarantined[1]);
        assert!(rt.next_change(t) <= t + plan.retry.cooldown);
        let probe_time = t + plan.retry.cooldown + slice;
        rt.begin_slice(probe_time);
        // Breaker is now half-open: the horizon collapses to `now`.
        assert_eq!(rt.next_change(probe_time), probe_time);
    }

    /// The runtime state the test below checkpoints after 200 s.
    const RUNTIME_STATE_JSON: &str =
        "{\"disk\":[{\"duration\":{\"micros\":8000000},\"entered\":false,\
        \"mean_gap\":{\"micros\":50000000},\"next_end\":{\"micros\":218938773},\
        \"next_start\":{\"micros\":210938773},\"rng\":{\"seed\":15141176370229221361,\
        \"state\":[12535310937947998120,3689652127906190180,1551605264341901081,\
        12633172385800479876]},\"started\":1}],\"dst_breakers\":[{\"consecutive\":0,\
        \"state\":\"Closed\"},{\"consecutive\":185,\"state\":{\"Open\":{\"until\":\
        {\"micros\":211600000}}}}],\"ev_dst_disk\":[false,false],\"ev_dst_outage\":[false,false],\
        \"ev_src_disk\":[false],\"ev_src_outage\":[false],\"ev_stall\":false,\
        \"jitter_rng\":{\"seed\":15078467903075888077,\"state\":[4945926364741042676,\
        14393454304302319511,4835556012649981970,4280635433350132505]},\"outages\":[{\
        \"duration\":{\"micros\":10000000},\"entered\":true,\"mean_gap\":{\"micros\":40000000},\
        \"next_end\":{\"micros\":201544577},\"next_start\":{\"micros\":191544577},\
        \"rng\":{\"seed\":6915747910816316914,\"state\":[8418735535295843871,\
        2665630081225046464,2148309792423978042,245624889523532585]},\"started\":2}],\
        \"span_dst_quar\":[false,false],\"span_dst_retry\":[false,false],\"span_src_quar\":[false],\
        \"span_src_retry\":[false],\"src_breakers\":[{\"consecutive\":0,\"state\":\"Closed\"}],\
        \"stall\":{\"duration\":{\"micros\":4000000},\"entered\":false,\
        \"mean_gap\":{\"micros\":30000000},\"next_end\":{\"micros\":270672381},\
        \"next_start\":{\"micros\":266672381},\"rng\":{\"seed\":5110281145934192440,\
        \"state\":[1200618909386506604,8848825328059884672,11802019811439889527,\
        14003804429269187854]},\"started\":7},\"stats\":{\"backoff_time\":{\"micros\":0},\
        \"breaker_opens\":2,\"budget_exhaustions\":1,\"channel_failures\":0,\"disk_episodes\":1,\
        \"outage_episodes\":2,\"outage_failures\":185,\"retransmitted_bytes\":0,\"retries\":7,\
        \"stall_episodes\":7},\"ttf_rng\":{\"seed\":4695004485758087364,\
        \"state\":[1000677385945380497,14045745002072769541,9322579711496374175,\
        4860081993103111688]}}";

    #[test]
    fn runtime_snapshot_resumes_streams_breakers_and_stats() {
        use crate::faults::{DiskDegradationModel, StallModel};
        let plan = FaultPlan::from(FaultModel::new(SimDuration::from_secs(60), 4))
            .with_outage(OutageModel::new(
                SiteSide::Dst,
                1,
                SimDuration::from_secs(40),
                SimDuration::from_secs(10),
                21,
            ))
            .with_stall(StallModel::new(
                SimDuration::from_secs(30),
                SimDuration::from_secs(4),
                8.0,
                22,
            ))
            .with_disk(DiskDegradationModel::new(
                SiteSide::Src,
                0,
                SimDuration::from_secs(50),
                SimDuration::from_secs(8),
                0.4,
                23,
            ));
        let mut live = FaultRuntime::new(&plan, 1, 2);
        let slice = SimDuration::from_millis(100);
        let mut t = SimTime::ZERO;
        // Drive the runtime into a nontrivial state: advance streams, burn
        // jitter draws, sample TTFs, open a breaker.
        for i in 0..2000 {
            t += slice;
            live.begin_slice(t);
            if i % 300 == 0 {
                live.next_delay(i / 300);
                live.sample_ttf();
            }
            if live.outage_active(SiteSide::Dst, 1) {
                live.record_failure(FaultCause::Outage, 0, 1, t);
            }
        }
        // Every stream kind and an open breaker, as the checkpoint holds
        // them.
        let text = serde_json::to_string(&live.snapshot()).unwrap();
        assert_eq!(text, RUNTIME_STATE_JSON);
        let back: FaultState = serde_json::from_str(&text).unwrap();
        assert_eq!(back, live.state);
        let mut resumed = FaultRuntime::restore(&plan, 1, 2, back);
        assert_eq!(resumed.stats(), live.stats());
        let (mut resumed_q, mut live_q) = (Vec::new(), Vec::new());
        resumed.quarantined_into(SiteSide::Dst, &mut resumed_q);
        live.quarantined_into(SiteSide::Dst, &mut live_q);
        assert_eq!(resumed_q, live_q);
        // From here on both runtimes must evolve identically.
        for i in 0..4000 {
            t += slice;
            live.begin_slice(t);
            resumed.begin_slice(t);
            assert_eq!(
                live.outage_active(SiteSide::Dst, 1),
                resumed.outage_active(SiteSide::Dst, 1)
            );
            assert_eq!(live.next_change(t), resumed.next_change(t));
            if i % 250 == 0 {
                assert_eq!(live.next_delay(2), resumed.next_delay(2));
                assert_eq!(live.sample_ttf(), resumed.sample_ttf());
            }
            if live.outage_active(SiteSide::Dst, 1) {
                live.record_failure(FaultCause::Outage, 0, 1, t);
                resumed.record_failure(FaultCause::Outage, 0, 1, t);
            }
            assert_eq!(live.stats(), resumed.stats());
        }
    }

    #[test]
    fn out_of_range_servers_in_the_plan_are_ignored() {
        let plan = FaultPlan::default().with_outage(OutageModel::new(
            SiteSide::Dst,
            7,
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
            1,
        ));
        let mut rt = FaultRuntime::new(&plan, 1, 2);
        rt.begin_slice(SimTime::from_secs_f64(100.0));
        assert!(!rt.outage_active(SiteSide::Dst, 0));
        assert!(!rt.outage_active(SiteSide::Dst, 1));
    }
}
