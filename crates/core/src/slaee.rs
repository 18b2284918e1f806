//! Algorithm 3 — the SLA-based Energy-Efficient (SLAEE) algorithm.

use crate::htee::PROBE_WINDOW;
use crate::planner::{chunk_params, sla_allocation, sla_allocation_live};
use crate::{Algorithm, Prepared};
use eadt_dataset::{partition, Chunk, Dataset, PartitionConfig, SizeClass};
use eadt_endsys::Placement;
use eadt_sim::{Bytes, Rate, SimDuration, SimTime};
use eadt_telemetry::{Event, Telemetry};
use eadt_transfer::{
    ChunkPlan, ControlAction, Controller, ControllerSnapshot, SliceCtx, TransferEnv, TransferPlan,
};
use serde::{Deserialize, Serialize};

/// SLA-based Energy-Efficient transfer (Algorithm 3).
///
/// The caller states a throughput requirement as a fraction of the maximum
/// achievable throughput in the environment (`targetThroughput =
/// maxThroughput × SLALevel`). The transfer starts at concurrency 1; if the
/// measured throughput misses the target, the controller first jumps
/// proportionally (`concurrency = target/actual`, line 11) and then climbs
/// one channel per probe window until the target is met or `maxChannel` is
/// reached — at which point channels are re-arranged so Large chunks
/// receive more than one channel (line 18). Energy stays minimal because
/// the concurrency never exceeds what the SLA needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slaee {
    /// The SLA level as a fraction of the maximum achievable throughput
    /// (e.g. 0.9 for the paper's "90% target percentage").
    pub sla_level: f64,
    /// The reference maximum achievable throughput (the paper uses ProMC's
    /// best measured throughput in the same environment).
    pub max_throughput: Rate,
    /// Upper bound on concurrency.
    pub max_channel: u32,
    /// BDP-relative partitioning thresholds.
    pub partition: PartitionConfig,
    /// Probe window (five seconds in the paper).
    pub probe_window: SimDuration,
    /// Shed a channel when measured throughput exceeds the target by this
    /// factor (extension; keeps energy minimal once finished chunks donate
    /// their channels). 1.15 by default.
    pub overshoot_margin: f64,
    /// A probe window counts as *degraded* when its throughput falls below
    /// the previous window times this factor; two consecutive degraded
    /// windows after raises trigger the revert-to-best guard. 0.97 by
    /// default.
    pub degrade_tolerance: f64,
    /// Wrap the adaptation loop in
    /// [`FaultAware`](eadt_transfer::FaultAware): shed concurrency while
    /// servers are quarantined, re-ramp on recovery.
    #[serde(default)]
    pub fault_aware: bool,
}

impl Slaee {
    /// SLAEE with the paper's defaults.
    pub fn new(sla_level: f64, max_throughput: Rate, max_channel: u32) -> Self {
        Slaee {
            sla_level: sla_level.clamp(0.0, 1.0),
            max_throughput,
            max_channel: max_channel.max(1),
            partition: PartitionConfig::default(),
            probe_window: PROBE_WINDOW,
            overshoot_margin: 1.15,
            degrade_tolerance: 0.97,
            fault_aware: false,
        }
    }

    /// The throughput the SLA promises.
    pub(crate) fn target_throughput(&self) -> Rate {
        self.max_throughput * self.sla_level
    }
}

impl Algorithm for Slaee {
    fn name(&self) -> &'static str {
        "SLAEE"
    }

    fn prepare(&self, env: &TransferEnv, dataset: &Dataset, _tel: &mut Telemetry) -> Prepared {
        let chunks = partition(dataset, env.link.bdp(), &self.partition);
        let first_alloc = sla_allocation(&chunks, 1, false);
        let chunk_plans: Vec<ChunkPlan> = chunks
            .iter()
            .zip(&first_alloc)
            .map(|(chunk, &channels)| {
                let params = chunk_params(&env.link, chunk);
                ChunkPlan::from_chunk(chunk, params.pipelining, params.parallelism, channels)
            })
            .collect();
        let plan = TransferPlan::concurrent(chunk_plans, Placement::PackFirst);
        let mut controller = SlaeeController::new(
            &chunks,
            self.target_throughput(),
            self.max_channel,
            self.probe_window,
        );
        controller.overshoot_margin = self.overshoot_margin.max(1.0);
        controller.degrade_tolerance = self.degrade_tolerance.clamp(0.0, 1.0);
        (plan, Box::new(controller))
    }

    fn fault_aware(&self) -> bool {
        self.fault_aware
    }
}

/// Snapshot kind tag for [`SlaeeController`].
pub(crate) const SLAEE_KIND: &str = "slaee";

/// The run state of [`SlaeeController`], which is also its checkpoint
/// form (the `data` object of its [`ControllerSnapshot`]). Configuration
/// (chunk weights and classes, target, max_channel, window, overshoot
/// margin, degrade tolerance) is rebuilt from the algorithm definition on
/// resume and therefore not part of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SlaeeState {
    window_start: SimTime,
    /// `ctx.total_bytes` at the start of the current probe window. The
    /// window's byte count is derived as a delta at window close (exact:
    /// byte totals stay far below 2^53) instead of accumulating
    /// `slice_bytes` every slice — that is what lets the controller
    /// promise skippable slices to the engine's macro-stepper.
    window_start_total: Bytes,
    concurrency: u32,
    rearranged: bool,
    first_window_done: bool,
    prev_window_mbps: Option<f64>,
    raised_last_window: bool,
    degrade_count: u32,
    best_seen: Option<(u32, f64)>,
    frozen: bool,
    /// True while a rearrangement-round span is open (journaled runs
    /// only).
    round_open: bool,
}

/// The controller implementing SLAEE's adaptation loop.
#[derive(Debug, Clone)]
pub struct SlaeeController {
    /// Per-chunk [`Chunk::weight`]s, in plan order.
    weights: Vec<f64>,
    /// Which chunks are Large (capped at one channel until rearranged).
    is_large: Vec<bool>,
    target: Rate,
    max_channel: u32,
    window: SimDuration,
    /// See [`Slaee::overshoot_margin`].
    overshoot_margin: f64,
    /// See [`Slaee::degrade_tolerance`].
    degrade_tolerance: f64,
    state: SlaeeState,
}

impl SlaeeController {
    /// Creates the controller for the plan's `chunks`; the engine must
    /// start at concurrency 1.
    pub fn new(chunks: &[Chunk], target: Rate, max_channel: u32, window: SimDuration) -> Self {
        SlaeeController {
            weights: chunks.iter().map(Chunk::weight).collect(),
            is_large: chunks.iter().map(|c| c.class == SizeClass::Large).collect(),
            target,
            max_channel: max_channel.max(1),
            window,
            overshoot_margin: 1.15,
            degrade_tolerance: 0.97,
            state: SlaeeState {
                window_start: SimTime::ZERO,
                window_start_total: Bytes::ZERO,
                concurrency: 1,
                rearranged: false,
                first_window_done: false,
                prev_window_mbps: None,
                raised_last_window: false,
                degrade_count: 0,
                best_seen: None,
                frozen: false,
                round_open: false,
            },
        }
    }

    fn allocation(&self, live: &[bool]) -> Vec<u32> {
        sla_allocation_live(
            &self.weights,
            &self.is_large,
            live,
            self.state.concurrency,
            self.state.rearranged,
        )
    }

    /// Emits the allocation for the current state over `ctx`'s live
    /// chunks, journaling `reason` at `ctx.now`. Each journaled decision
    /// opens a rearrangement-round span covering the probe window that
    /// evaluates the new allocation (closed at the next window boundary).
    fn decide(&mut self, reason: String, ctx: &SliceCtx, tel: &mut Telemetry) -> ControlAction {
        let targets = self.allocation(&ctx.live_chunks());
        if tel.journaling() {
            tel.record(
                ctx.now,
                Event::SpanBegin {
                    id: 0,
                    parent: 0,
                    kind: "round".to_string(),
                    detail: reason.clone(),
                },
            );
            self.state.round_open = true;
            tel.record(
                ctx.now,
                Event::Decision {
                    reason,
                    targets: targets.clone(),
                },
            );
        }
        ControlAction::Reallocate(targets)
    }
}

impl Controller for SlaeeController {
    fn on_slice(&mut self, ctx: &SliceCtx, tel: &mut Telemetry) -> ControlAction {
        let elapsed = ctx.now.since(self.state.window_start);
        if elapsed < self.window {
            return ControlAction::Continue;
        }
        // Goodput moved during the window, as a delta of the running
        // total (f64 subtraction: with restart markers off a mid-window
        // channel kill can pull the total below the window's start).
        let window_bytes = ctx.total_bytes.as_f64() - self.state.window_start_total.as_f64();
        let actual_mbps = window_bytes * 8.0 / elapsed.as_secs_f64() / 1e6;
        self.state.window_start_total = ctx.total_bytes;
        self.state.window_start = ctx.now;
        // The window that evaluated the previous decision just closed.
        if tel.journaling() && self.state.round_open {
            tel.record(
                ctx.now,
                Event::SpanEnd {
                    id: 0,
                    kind: "round".to_string(),
                    detail: String::new(),
                },
            );
            self.state.round_open = false;
        }

        let target_mbps = self.target.as_mbps();
        // Gradient guard: on paths where extra channels *reduce* throughput
        // (the DIDCLAB single-disk LAN), chasing an unreachable target by
        // ramping concurrency only makes things worse. If the last raise
        // lowered the measured throughput, step back and stop adapting —
        // "SLAEE does its best" with the level that worked (§3).
        if self
            .state
            .best_seen
            .is_none_or(|(_, best)| actual_mbps > best)
        {
            self.state.best_seen = Some((self.state.concurrency, actual_mbps));
        }
        if self.state.raised_last_window {
            self.state.raised_last_window = false;
            let degraded = self
                .state
                .prev_window_mbps
                .is_some_and(|prev| actual_mbps < prev * self.degrade_tolerance);
            if degraded {
                self.state.degrade_count += 1;
            } else {
                self.state.degrade_count = 0;
            }
            if self.state.degrade_count >= 2 {
                // Two raises in a row made things worse: the target is
                // unreachable on this path. Fall back to the best level
                // observed and stop adapting.
                if let Some((best_cc, _)) = self.state.best_seen {
                    self.state.concurrency = best_cc;
                }
                self.state.frozen = true;
                self.state.prev_window_mbps = Some(actual_mbps);
                let reason = format!(
                    "freeze at {} channels: raises degrade throughput, target unreachable",
                    self.state.concurrency
                );
                return self.decide(reason, ctx, tel);
            }
        }
        self.state.prev_window_mbps = Some(actual_mbps);
        if self.state.frozen {
            return ControlAction::Continue;
        }
        if actual_mbps >= target_mbps {
            // The SLA is met. SLAEE's objective is the *minimal* energy
            // that satisfies it, so when the transfer overshoots the
            // target by a clear margin (e.g. after finished chunks donated
            // their channels to the rest), shed channels until throughput
            // sits just above the promise.
            if actual_mbps > target_mbps * self.overshoot_margin && self.state.concurrency > 1 {
                self.state.concurrency -= 1;
                let reason = format!(
                    "shed to {} channels: {actual_mbps:.0} Mbps overshoots the \
                     {target_mbps:.0} Mbps target",
                    self.state.concurrency
                );
                return self.decide(reason, ctx, tel);
            }
            return ControlAction::Continue;
        }
        let reason;
        if !self.state.first_window_done {
            // Line 11: proportional jump from the first measurement.
            self.state.first_window_done = true;
            let scaled = (f64::from(self.state.concurrency) * target_mbps / actual_mbps.max(1.0))
                .ceil() as u32;
            let new_cc = scaled.clamp(1, self.max_channel);
            self.state.raised_last_window = new_cc > self.state.concurrency;
            self.state.concurrency = new_cc;
            reason = format!(
                "proportional jump to {new_cc} channels: measured {actual_mbps:.0} of \
                 {target_mbps:.0} Mbps target"
            );
        } else if self.state.concurrency < self.max_channel {
            // Lines 14–16: incremental increase.
            self.state.concurrency += 1;
            self.state.raised_last_window = true;
            reason = format!(
                "climb to {} channels: {actual_mbps:.0} Mbps below {target_mbps:.0} Mbps target",
                self.state.concurrency
            );
        } else if !self.state.rearranged {
            // Line 18: reArrangeChannels — let Large chunks have more than
            // one channel.
            self.state.rearranged = true;
            reason = "rearrange: Large chunks may take multiple channels".to_string();
        } else {
            return ControlAction::Continue;
        }
        self.decide(reason, ctx, tel)
    }

    /// Between probe-window closes the controller is pure bookkeeping-free
    /// `Continue` (the window byte count is a delta, not a per-slice
    /// accumulator), so every slice strictly before the next window
    /// boundary may be skipped — in every state, including frozen runs,
    /// whose window cursor still moves at each close.
    ///
    /// Covered by the macro-equivalence suite (`tests/macro_equivalence.rs`).
    fn next_decision_in(&self, ctx: &SliceCtx, slice: SimDuration) -> u64 {
        (self.state.window_start + self.window)
            .since(ctx.now)
            .slices_before(slice)
    }

    fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot::of(SLAEE_KIND, &self.state)
    }

    fn restore(&mut self, snap: &ControllerSnapshot) -> Result<(), String> {
        let mut state: SlaeeState = snap.payload(SLAEE_KIND)?;
        state.concurrency = state.concurrency.clamp(1, self.max_channel);
        self.state = state;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::ProMc;
    use crate::test_support::{mixed_dataset, wan_env};
    use crate::RunCtx;
    use eadt_transfer::{RunControl, RunOutcome};

    fn max_throughput() -> Rate {
        let env = wan_env();
        let dataset = mixed_dataset();
        let r = ProMc::new(12).run(&mut RunCtx::new(&env, &dataset));
        r.avg_throughput()
    }

    #[test]
    fn target_math() {
        let s = Slaee::new(0.9, Rate::from_gbps(7.5), 12);
        assert!((s.target_throughput().as_mbps() - 6750.0).abs() < 1e-6);
        let clamped = Slaee::new(1.5, Rate::from_gbps(1.0), 12);
        assert_eq!(clamped.sla_level, 1.0);
    }

    #[test]
    fn low_target_stays_at_low_concurrency() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let max = max_throughput();
        let r = Slaee::new(0.3, max, 12).run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        // A 30% target should never need anything close to 12 channels.
        let peak = r.concurrency_series.max_value().unwrap();
        assert!(peak < 10.0, "peak concurrency {peak}");
    }

    #[test]
    fn high_target_approaches_reference_throughput() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let max = max_throughput();
        let r = Slaee::new(0.9, max, 12).run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        let achieved = r.avg_throughput().as_mbps();
        // Achieved throughput lands within a reasonable deviation of the
        // 90% target (the paper reports ≤ 7% on XSEDE; the average includes
        // the slow ramp, so allow more here).
        assert!(
            achieved > 0.6 * max.as_mbps(),
            "achieved {achieved} vs max {}",
            max.as_mbps()
        );
    }

    #[test]
    fn higher_target_uses_more_channels_and_energy() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let max = max_throughput();
        let lo = Slaee::new(0.5, max, 12).run(&mut RunCtx::new(&env, &dataset));
        let hi = Slaee::new(0.95, max, 12).run(&mut RunCtx::new(&env, &dataset));
        let lo_peak = lo.concurrency_series.max_value().unwrap();
        let hi_peak = hi.concurrency_series.max_value().unwrap();
        assert!(hi_peak >= lo_peak, "hi_peak={hi_peak} lo_peak={lo_peak}");
        assert!(
            hi.avg_throughput().as_mbps() >= lo.avg_throughput().as_mbps(),
            "hi={} lo={}",
            hi.avg_throughput(),
            lo.avg_throughput()
        );
    }

    #[test]
    fn slaee_reacts_to_background_traffic() {
        // When cross traffic halves the link mid-transfer, throughput drops
        // below target and SLAEE must raise concurrency to compensate.
        let mut env = wan_env();
        env.background = Some(eadt_transfer::BackgroundTraffic::square(
            eadt_sim::SimDuration::from_secs(1_000_000),
            eadt_sim::SimDuration::from_secs(1_000_000), // permanently on
            0.6,
        ));
        let dataset = mixed_dataset();
        let clean_max = max_throughput();
        let r = Slaee::new(0.5, clean_max, 12).run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        // It needed more channels than the clean-link 50% case would.
        let clean = {
            let env = wan_env();
            Slaee::new(0.5, clean_max, 12).run(&mut RunCtx::new(&env, &dataset))
        };
        let busy_peak = r.concurrency_series.max_value().unwrap();
        let clean_peak = clean.concurrency_series.max_value().unwrap();
        assert!(
            busy_peak >= clean_peak,
            "busy peak {busy_peak} should need at least clean peak {clean_peak}"
        );
    }

    #[test]
    fn rearrange_triggers_when_target_unreachable() {
        let env = wan_env();
        let dataset = mixed_dataset();
        // Absurd reference → target can never be met → controller must walk
        // to max and then rearrange without panicking or livelocking.
        let r = Slaee::new(1.0, Rate::from_gbps(50.0), 6).run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        let peak = r.concurrency_series.max_value().unwrap();
        assert!(
            (peak - 6.0).abs() < 1e-9,
            "should reach maxChannel, peak={peak}"
        );
    }

    #[test]
    fn checkpointed_state_is_pinned_mid_run() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let max = max_throughput();
        let after_jump = "{\"best_seen\":[5,3297.6],\"concurrency\":5,\"degrade_count\":0,\
            \"first_window_done\":true,\"frozen\":false,\"prev_window_mbps\":3297.6,\
            \"raised_last_window\":false,\"rearranged\":false,\"round_open\":false,\
            \"window_start\":{\"micros\":10000000},\"window_start_total\":2536000000}";
        let settled = "{\"best_seen\":[5,3297.6],\"concurrency\":5,\"degrade_count\":0,\
            \"first_window_done\":true,\"frozen\":false,\"prev_window_mbps\":3200.0,\
            \"raised_last_window\":false,\"rearranged\":false,\"round_open\":false,\
            \"window_start\":{\"micros\":25000000},\"window_start_total\":8536000000}";
        let algo = Slaee::new(0.9, max, 12);
        for (halt, data) in [(120, after_jump), (260, settled)] {
            let ctl = RunControl::halt_at(halt);
            let RunOutcome::Halted(ck) = algo.run_controlled(&mut RunCtx::new(&env, &dataset), ctl)
            else {
                panic!("the run ended before slice {halt}");
            };
            assert_eq!(ck.controller.kind, SLAEE_KIND);
            assert_eq!(serde_json::to_string(&ck.controller.data).unwrap(), data);
            // A fresh controller restored from it snapshots the same bytes.
            let (_, mut fresh) = algo.prepare(&env, &dataset, &mut Telemetry::disabled());
            fresh.restore(&ck.controller).unwrap();
            assert_eq!(fresh.snapshot(), ck.controller);
        }
        // A concurrency past the channel budget is clamped to it.
        let (_, mut fresh) = algo.prepare(&env, &dataset, &mut Telemetry::disabled());
        let wide = ControllerSnapshot {
            kind: SLAEE_KIND.to_string(),
            data: serde_json::from_str(&settled.replace("\"concurrency\":5", "\"concurrency\":40"))
                .unwrap(),
        };
        fresh.restore(&wide).unwrap();
        let clamped = serde_json::to_string(&fresh.snapshot().data).unwrap();
        assert!(clamped.contains("\"concurrency\":12,"), "{clamped}");
    }
}
