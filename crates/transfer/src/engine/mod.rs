//! The time-sliced transfer engine.
//!
//! A transfer in progress is an [`EngineRun`]: it owns its plan,
//! controller, chunk states, accumulators, fault runtime and scratch
//! arena, and [`EngineRun::step`] advances it by any number of slices.
//! Each slice (default 100 ms) runs the phase functions of the private
//! `SliceRun`, in order, over the run's `SliceArena`:
//!
//! 1. `sync_channels` — grows or shrinks every chunk's channel block to
//!    the target the [`Controller`] set (freed targets move to the
//!    busiest chunk);
//! 2. `place_on_sites` — assigns every channel a server on both sites,
//!    around servers whose circuit breaker is open;
//! 3. `kill_faulted` — fails channels whose TTF expired or that connect
//!    into an outage window, scheduling a jittered exponential backoff;
//! 4. `tick_working_set` — books one slice of every backoff and counts
//!    the working channels per server (a channel whose gap outlasts the
//!    slice is *blocked*: no demand, no power, no disk contention);
//! 5. `demand_and_grant` — per-channel demand `min(parallelism × stream
//!    rate, process cap, disk shares)`, granted max-min fairly against
//!    the path capacity scaled by the congestion efficiency;
//! 6. `advance_channels` — moves every channel through its file queue,
//!    paying the `RTT/pipelining` inter-file control-channel gap;
//! 7. `book_slice` — books the slice's power (Eq. 1, via `site_power`),
//!    energy, series and metrics into the run's accumulators;
//! 8. `consult_controller` — reports the slice to the controller, which
//!    may re-allocate channels;
//! 9. `horizon_window` / `replay_window` — on `Continue`, replays the
//!    provably steady slices ahead arithmetically (DESIGN.md §12), each
//!    booked through the same `book_slice`.
//!
//! Everything is deterministic: no wall clock, and the only RNGs are the
//! fault plan's seeded streams.
//!
//! # Incremental slices
//!
//! An executed slice re-solves only what its inputs changed. Without a
//! fault runtime the placement is a pure function of the channel count,
//! and without background traffic as well the grant solve is a pure
//! function of the share, the working set, the channel-to-chunk map and
//! the placement. `place_on_sites` and `demand_and_grant` each compare
//! those inputs with the ones they stored at their last solve (in the
//! arena, which a stage setup or a restore starts without any) and keep
//! their outputs while they match; a run with faults or background
//! traffic solves every slice. Under `debug-invariants` every reuse also
//! re-solves and asserts that the kept outputs match bit for bit. The
//! horizon checks each channel's cheap disqualifiers first and returns 0
//! at the first pinned channel, before any steady mover's search runs.
//!
//! # Data layout (DESIGN.md §17)
//!
//! The hot state is struct-of-arrays: every per-channel field lives in a
//! flat column of the run-owned `SliceArena` (`ChannelSoA`),
//! grouped chunk-major, and every per-chunk quantity the kernel needs
//! (remaining bytes, in-flight count, channel capacity, duty cycle,
//! demand, inter-file gap) is a flat array indexed by chunk. The slice
//! kernel, the fair-share fill, the duty-cycle accounting and the
//! macro-step replay all stream through these contiguous columns; a
//! steady-state slice performs **zero heap allocations** (asserted by the
//! counting-allocator harness in `eadt-bench`). Remaining bytes are
//! maintained incrementally in exact integer arithmetic instead of being
//! recomputed from the queues, and the controller's [`SliceCtx`] vectors
//! are lent out of the arena and reclaimed after each decision.

use crate::control::{ControlAction, Controller, FaultView, SliceCtx};
use crate::env::TransferEnv;
use crate::faults::{FaultCause, SiteSide};
use crate::plan::{ChunkPlan, TransferPlan};
use crate::report::{ChunkStat, TransferReport};
use crate::retry::FaultRuntime;
use eadt_dataset::FileSpec;
use eadt_endsys::{ServerLoad, Utilization};
use eadt_net::fair::{fair_share_into, FairScratch};
use eadt_power::{PowerBreakdown, PowerModel};
use eadt_sim::{Bytes, Rate, SimDuration, SimTime, TimeSeries};
use eadt_telemetry::{
    EnergyLedger, EnergyPhase, Event, GaugeId, HistogramId, MetricsRegistry, Side, SideLedger,
    Telemetry,
};
use std::borrow::Cow;
use std::collections::VecDeque;

mod checkpoint;

pub use checkpoint::{
    config_fingerprint, ChannelSnapshot, ChunkSnapshot, EngineCheckpoint, FileSnapshot,
    ResourceShare, RunControl, RunOutcome, CHECKPOINT_SCHEMA_VERSION,
};

impl FileSnapshot {
    /// A file about to be moved: nothing pushed yet. The engine queues
    /// and carries files as [`FileSnapshot`]s (full size for restart
    /// after a channel failure, bytes left to push).
    fn fresh(file: FileSpec) -> Self {
        FileSnapshot {
            size: file.size,
            remaining: file.size,
        }
    }
}

/// Flat struct-of-arrays channel state: index `i` across every column is
/// one data channel. Channels are grouped chunk-major — all of chunk 0's
/// channels, then chunk 1's, and so on — so a channel's position within
/// its chunk is `i - chunk_start[chunk]`. A channel carries at most one
/// file in flight (`has_file` plus the size/remaining columns) and a
/// control-channel gap.
#[derive(Debug, Default, Clone)]
struct ChannelSoA {
    /// Owning chunk of each channel.
    chunk: Vec<u32>,
    /// Remaining control-channel gap (connection setup, inter-file, or
    /// failure backoff).
    gap: Vec<SimDuration>,
    /// Remaining time until the channel fails (fault injection only).
    ttf: Vec<Option<SimDuration>>,
    /// Consecutive failures without intervening progress (drives backoff).
    consecutive: Vec<u32>,
    /// Whether the current gap is a failure backoff (for time accounting).
    in_backoff: Vec<bool>,
    /// Whether a file is in flight on this channel.
    has_file: Vec<bool>,
    /// Full size of the in-flight file (restart after failure).
    file_size: Vec<Bytes>,
    /// Bytes left to push of the in-flight file.
    file_remaining: Vec<Bytes>,
}

impl ChannelSoA {
    fn len(&self) -> usize {
        self.chunk.len()
    }

    fn clear(&mut self) {
        self.chunk.clear();
        self.gap.clear();
        self.ttf.clear();
        self.consecutive.clear();
        self.in_backoff.clear();
        self.has_file.clear();
        self.file_size.clear();
        self.file_remaining.clear();
    }

    /// Inserts an idle channel (no file, fresh counters) at `pos`.
    /// Structural — only the cold channel-sync path inserts.
    fn insert_fresh(&mut self, pos: usize, chunk: u32, gap: SimDuration, ttf: Option<SimDuration>) {
        self.chunk.insert(pos, chunk);
        self.gap.insert(pos, gap);
        self.ttf.insert(pos, ttf);
        self.consecutive.insert(pos, 0);
        self.in_backoff.insert(pos, false);
        self.has_file.insert(pos, false);
        self.file_size.insert(pos, Bytes::ZERO);
        self.file_remaining.insert(pos, Bytes::ZERO);
    }

    fn remove(&mut self, pos: usize) {
        self.chunk.remove(pos);
        self.gap.remove(pos);
        self.ttf.remove(pos);
        self.consecutive.remove(pos);
        self.in_backoff.remove(pos);
        self.has_file.remove(pos);
        self.file_size.remove(pos);
        self.file_remaining.remove(pos);
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.chunk.swap(a, b);
        self.gap.swap(a, b);
        self.ttf.swap(a, b);
        self.consecutive.swap(a, b);
        self.in_backoff.swap(a, b);
        self.has_file.swap(a, b);
        self.file_size.swap(a, b);
        self.file_remaining.swap(a, b);
    }
}

/// Runtime state of one chunk plan within a stage. Per-channel state
/// lives in the arena's flat [`ChannelSoA`] columns (chunk-major) and the
/// per-chunk hot quantities in the arena's chunk arrays; the chunk itself
/// keeps only its file queue and scalar plan facts.
#[derive(Debug, Clone)]
struct ChunkState {
    label: String,
    pipelining: u32,
    parallelism: u32,
    accepts_reallocation: bool,
    total_bytes: Bytes,
    file_count: usize,
    completed_at: Option<SimTime>,
    /// Mean file size of the chunk — sets the channels' steady-state duty
    /// cycle (share of time spent moving bytes vs. per-file gaps).
    avg_file: Bytes,
    queue: VecDeque<FileSnapshot>,
    target: u32,
}

impl ChunkState {
    /// A chunk about to start: every file queued, no channel open yet.
    fn fresh(cp: &ChunkPlan) -> Self {
        let total = cp.total_bytes();
        ChunkState {
            label: cp.label.clone(),
            pipelining: cp.pipelining.max(1),
            parallelism: cp.parallelism.max(1),
            accepts_reallocation: cp.accepts_reallocation,
            total_bytes: total,
            file_count: cp.files.len(),
            completed_at: None,
            avg_file: if cp.files.is_empty() {
                Bytes::ZERO
            } else {
                Bytes(total.as_u64() / cp.files.len() as u64)
            },
            queue: cp.files.iter().copied().map(FileSnapshot::fresh).collect(),
            target: cp.channels,
        }
    }

    /// Bytes still queued or in flight on the chunk (index `ci`),
    /// recounted from its queue and channel block — the ground truth the
    /// arena's incremental `chunk_remaining` column tracks.
    fn recount_remaining(&self, a: &SliceArena, ci: usize) -> Bytes {
        let s = a.chunk_start[ci];
        let in_flight: Bytes = (s..s + a.chunk_len[ci])
            .filter(|&i| a.ch.has_file[i])
            .map(|i| a.ch.file_remaining[i])
            .sum();
        self.queue.iter().map(|f| f.remaining).sum::<Bytes>() + in_flight
    }

    fn live(&self, in_flight: u32) -> bool {
        !self.queue.is_empty() || in_flight > 0
    }

    fn stat(&self) -> ChunkStat {
        ChunkStat {
            label: self.label.clone(),
            bytes: self.total_bytes,
            files: self.file_count,
            completed_at: self.completed_at.map(|t| t.since(SimTime::ZERO)),
        }
    }
}

/// Executes [`TransferPlan`]s in a [`TransferEnv`]: the cold one-call
/// wrappers over an [`EngineRun`] that borrow the caller's plan and
/// controller.
#[derive(Debug, Clone)]
pub struct Engine<'a> {
    env: &'a TransferEnv,
}

impl<'a> Engine<'a> {
    /// Creates an engine for the environment.
    pub fn new(env: &'a TransferEnv) -> Self {
        Engine { env }
    }

    /// Runs the plan to completion (or the time guard) with a controller.
    pub fn run(&self, plan: &TransferPlan, controller: &mut dyn Controller) -> TransferReport {
        self.run_instrumented(plan, controller, &mut Telemetry::disabled())
    }

    /// Runs the plan with telemetry: every channel open/close/fail/retry,
    /// chunk start/drain, controller decision, breaker transition,
    /// fault-episode edge and power-state change is journaled, and the
    /// metrics registry (when attached) samples throughput/power/
    /// concurrency/backoff/queue gauges on its cadence.
    ///
    /// With [`Telemetry::disabled`] every hook is one branch and the
    /// behaviour is bit-identical to [`Engine::run`] — the simulation
    /// itself never reads telemetry state.
    pub fn run_instrumented(
        &self,
        plan: &TransferPlan,
        controller: &mut dyn Controller,
        tel: &mut Telemetry,
    ) -> TransferReport {
        match self.run_controlled(plan, controller, tel, RunControl::default()) {
            RunOutcome::Done(report) => report,
            RunOutcome::Halted(_) => unreachable!("no halt boundary was configured"),
        }
    }

    /// Runs the plan with checkpoint control: optionally resuming from an
    /// [`EngineCheckpoint`] and/or halting at a slice boundary to produce
    /// one (see [`RunControl`]).
    ///
    /// # Panics
    /// As [`EngineRun::restore`].
    pub fn run_controlled(
        &self,
        plan: &TransferPlan,
        controller: &mut dyn Controller,
        tel: &mut Telemetry,
        ctl: RunControl,
    ) -> RunOutcome {
        let (env, plan) = (self.env, Cow::Borrowed(plan));
        let controller: Box<dyn Controller + '_> = Box::new(controller);
        let run = match ctl.resume {
            Some(ck) => EngineRun::restore(env, plan, controller, tel, *ck),
            None => EngineRun::new(env, plan, controller, tel),
        };
        run.run_to(env, tel, ctl.halt_after)
    }
}

/// One transfer in progress, owned and steppable (DESIGN.md §13): the
/// plan, the controller, the chunk states, the accumulators, the fault
/// runtime and the run's own scratch arena. Between
/// [`EngineRun::step`]s it simply waits; [`EngineRun::snapshot`] and
/// [`EngineRun::restore`] carry it to disk and back. Every step must be
/// given the environment and the telemetry the run was built with.
pub struct EngineRun<'c> {
    run: SliceRun<'c>,
    arena: SliceArena,
}

impl<'c> EngineRun<'c> {
    /// A fresh run of `plan` under `controller`, wired to `tel`'s sinks.
    pub fn new(
        env: &TransferEnv,
        plan: Cow<'c, TransferPlan>,
        controller: Box<dyn Controller + 'c>,
        tel: &mut Telemetry,
    ) -> Self {
        let mut run = SliceRun::fresh(env, plan, controller);
        run.wire(tel);
        EngineRun {
            run,
            arena: SliceArena::default(),
        }
    }

    /// Advances the run by `slices` more slices (`None`: to its end)
    /// under `share`: the report once the run has ended, `None` when it
    /// paused. A pause inside a macro-stepped window cuts the replay at
    /// exactly that slice, so stepping in any pieces is bit-identical to
    /// one unbounded step.
    ///
    /// # Panics
    /// When stepped again after it returned the report.
    pub fn step(
        &mut self,
        env: &TransferEnv,
        tel: &mut Telemetry,
        slices: Option<u64>,
        share: ResourceShare,
    ) -> Option<TransferReport> {
        let (run, a) = (&mut self.run, &mut self.arena);
        assert!(!run.spent, "an engine run cannot be stepped after its end");
        let until = slices.map(|n| run.acc.slices_done.saturating_add(n));
        let mut cx = StepCx {
            env,
            tel,
            share,
            until,
        };
        while run.stage < run.plan.stages.len() {
            if !run.staged {
                run.stage_setup(a, &mut cx);
            }
            let end = run.drive_stage(a, &mut cx);
            if matches!(end, StageEnd::Paused) {
                return None;
            }
            // Stats for a timed-out stage are still collected.
            run.acc
                .chunk_stats
                .extend(run.chunks.iter().map(ChunkState::stat));
            run.stage += 1;
            run.staged = false;
            if matches!(end, StageEnd::TimedOut) {
                return Some(run.finish(&mut cx, false));
            }
        }
        Some(run.finish(&mut cx, true))
    }

    /// Slices executed since the run began (replayed slices count
    /// individually).
    pub fn slices_done(&self) -> u64 {
        self.run.acc.slices_done
    }

    /// [`RunControl`]'s cold path: steps with the whole machine to the
    /// absolute slice count `halt_after` (or to the end) and returns the
    /// report, or the snapshot of the halted run.
    pub fn run_to(
        mut self,
        env: &TransferEnv,
        tel: &mut Telemetry,
        halt_after: Option<u64>,
    ) -> RunOutcome {
        let slices = halt_after.map(|h| h.saturating_sub(self.slices_done()));
        match self.step(env, tel, slices, ResourceShare::FULL) {
            Some(report) => RunOutcome::Done(report),
            None => RunOutcome::Halted(Box::new(self.snapshot(tel))),
        }
    }
}

/// How a stage's slice loop ended: every chunk drained, the time guard
/// (`max_duration`) tripped, or the run reached its step boundary.
enum StageEnd {
    Drained,
    TimedOut,
    Paused,
}

/// The run's accumulators: everything a slice books into, carried across
/// stages and captured whole by a snapshot — each field means what
/// the [`EngineCheckpoint`] field of the same name documents.
#[derive(Default)]
struct Accumulators {
    now: SimTime,
    slices_done: u64,
    estimated_energy: f64,
    retransmitted: Bytes,
    chunk_stats: Vec<ChunkStat>,
    /// Energy attribution (DESIGN.md §14): the per-site energy lives in
    /// the ledger's phase buckets; the report totals are derived from
    /// their fixed-order sum at the end of the run.
    ledger: EnergyLedger,
    /// Tracked on journaled runs only.
    horizon_end: Option<u64>,
    moved_total: Bytes,
    wire_bytes_f: f64,
    throughput_series: TimeSeries,
    power_series: TimeSeries,
    concurrency_series: TimeSeries,
    /// Invariant-auditor state (DESIGN.md §10). The `cfg!` guards make
    /// every update compile away without the `debug-invariants` feature.
    audit_gross: Bytes,
    audit_stage_requested: Bytes,
    prev_src_active: Vec<bool>,
    prev_dst_active: Vec<bool>,
}

/// One site's slice power: the reference model's Watts, the secondary
/// estimator's Watts over the same utilization snapshots, and the Joules
/// the slice books — the whole, and the reference model's per-component
/// split (cpu, nic, disk, other).
#[derive(Debug, Clone, Copy)]
struct SitePower {
    watts: f64,
    estimated: f64,
    joules: f64,
    parts_j: [f64; 4],
}

impl SitePower {
    /// Books the site's slice energy: all of it into `phase`, and its
    /// component split alongside.
    fn book(&self, site: &mut SideLedger, phase: EnergyPhase) {
        *site.phase_mut(phase) += self.joules;
        let [cpu, nic, disk, other] = self.parts_j;
        site.add_components(cpu, nic, disk, other);
    }
}

/// What one slice adds to the accumulators, derived once from its
/// measurements. An executed slice builds it; every slice replayed after
/// it books the same addends, re-reading only the two inputs a window
/// pins differently: no kills, and the backoff flags at its start.
#[derive(Debug, Clone, Copy)]
struct SliceOutcome {
    channels: u32,
    in_backoff: u32,
    kills: bool,
    bytes: Bytes,
    /// Wire bytes: goodput inflated by the congestion efficiency.
    wire: f64,
    power_w: f64,
    thr_mbps: f64,
    estimated_j: f64,
    src: SitePower,
    dst: SitePower,
}

/// The state of one run, everything but its arena: the configuration
/// every phase reads, the collaborators it drives, and the accumulators
/// it books into.
struct SliceRun<'c> {
    /// An owned plan gives up each stage's file lists once the stage's
    /// chunk states hold the files.
    plan: Cow<'c, TransferPlan>,
    controller: Box<dyn Controller + 'c>,
    /// Bytes the plan requests, fixed before any file list is released.
    requested: Bytes,
    fingerprint: u64,
    runtime: Option<FaultRuntime>,
    gauges: Option<EngineGauges>,
    /// The running stage, and whether its chunk states are built.
    stage: usize,
    staged: bool,
    /// Set once the run has produced its report.
    spent: bool,
    /// The running stage's chunk states, in plan order. Per-run data, not
    /// reusable capacity, so it lives here rather than in the arena.
    chunks: Vec<ChunkState>,
    /// The single branch every event hook reduces to when telemetry is
    /// off.
    journaling: bool,
    slice: SimDuration,
    slice_secs: f64,
    acc: Accumulators,
}

/// What one step lends the run: the environment, the telemetry sinks,
/// the resource grant, and the slice count the step pauses at.
struct StepCx<'s> {
    env: &'s TransferEnv,
    tel: &'s mut Telemetry,
    share: ResourceShare,
    until: Option<u64>,
}

impl<'c> SliceRun<'c> {
    /// Run setup (cold): fresh state, telemetry not yet wired.
    fn fresh(
        env: &TransferEnv,
        plan: Cow<'c, TransferPlan>,
        controller: Box<dyn Controller + 'c>,
    ) -> Self {
        let (n_src, n_dst) = (env.src.servers.len(), env.dst.servers.len());
        SliceRun {
            requested: plan.total_bytes(),
            fingerprint: config_fingerprint(env, &plan),
            plan,
            controller,
            runtime: env
                .faults
                .as_ref()
                .filter(|p| p.is_active())
                .map(|p| FaultRuntime::new(p, n_src, n_dst)),
            gauges: None,
            stage: 0,
            staged: false,
            spent: false,
            chunks: Vec::new(),
            journaling: false,
            slice: env.tuning.slice,
            slice_secs: env.tuning.slice.as_secs_f64(),
            acc: Accumulators {
                prev_src_active: vec![false; n_src],
                prev_dst_active: vec![false; n_dst],
                ..Accumulators::default()
            },
        }
    }

    /// Telemetry wiring (cold). Capture flags and gauge handles are not
    /// part of checkpoints: a restore derives them afresh.
    fn wire(&mut self, tel: &mut Telemetry) {
        self.journaling = tel.journaling();
        self.gauges = tel.metrics().map(EngineGauges::register);
        if self.journaling {
            self.controller.enable_event_capture();
            if let Some(rt) = &mut self.runtime {
                rt.capture_events(true);
            }
        }
    }

    /// Stage setup (cold): resets the arena for the running stage, builds
    /// its chunk states from the plan (an owned plan then gives up the
    /// stage's file lists), books the stage and journals its preamble.
    fn stage_setup(&mut self, a: &mut SliceArena, cx: &mut StepCx) {
        let idx = self.stage;
        let stage = &self.plan.stages[idx];
        a.begin_stage(stage.chunks.len());
        self.chunks.clear();
        for (ci, cp) in stage.chunks.iter().enumerate() {
            let c = ChunkState::fresh(cp);
            a.chunk_remaining[ci] = c.total_bytes;
            self.chunks.push(c);
        }
        self.release_files(idx);
        self.staged = true;
        self.stage_caps(a, cx.env);
        if cfg!(feature = "debug-invariants") {
            self.acc.audit_stage_requested += self.chunks.iter().map(|c| c.total_bytes).sum();
        }
        if self.journaling {
            let now = self.acc.now;
            cx.tel.record(now, Event::StageStart { stage: idx as u32 });
            for (ci, c) in self.chunks.iter().enumerate() {
                cx.tel.record_with(now, || Event::ChunkStart {
                    chunk: ci as u32,
                    label: c.label.clone(),
                    bytes: c.total_bytes.as_u64(),
                    files: c.file_count as u64,
                });
            }
        }
    }

    /// Drops the file lists of stages `..=last` from an owned plan: their
    /// files now live in chunk states, or have already moved.
    fn release_files(&mut self, last: usize) {
        if let Cow::Owned(plan) = &mut self.plan {
            for stage in plan.stages.iter_mut().take(last + 1) {
                for cp in &mut stage.chunks {
                    cp.files = Vec::new();
                }
            }
        }
    }

    /// The channel rate ceiling depends only on each chunk's (fixed)
    /// parallelism: computed once per stage, read every slice.
    fn stage_caps(&self, a: &mut SliceArena, env: &TransferEnv) {
        for (ci, c) in self.chunks.iter().enumerate() {
            a.chunk_cap[ci] = env.channel_cap(c.parallelism);
        }
    }

    /// The stage's slice loop: runs slices until every chunk drains, the
    /// time guard trips, or the step boundary arrives.
    fn drive_stage(&mut self, a: &mut SliceArena, cx: &mut StepCx) -> StageEnd {
        while (0..self.chunks.len()).any(|ci| self.chunks[ci].live(a.chunk_in_flight[ci])) {
            let done = self.acc.slices_done;
            // Step boundary: between slices, before the next slice's
            // fault window opens. All controller/runtime event buffers
            // are drained here, so a snapshot taken now is complete.
            if cx.until.is_some_and(|h| done >= h) {
                return StageEnd::Paused;
            }
            // A horizon span closes at the first boundary at/after its
            // promised end. This sits after the boundary check — a
            // paused run leaves the span open (in its snapshot too) and
            // the next step emits the `span_end` at the same sequence
            // number an uninterrupted run would.
            if self.acc.horizon_end.is_some_and(|h| done >= h) {
                self.acc.horizon_end = None;
                cx.tel.record_with(self.acc.now, || Event::SpanEnd {
                    id: 0,
                    kind: "horizon".to_string(),
                    detail: String::new(),
                });
            }
            if self.acc.now.since(SimTime::ZERO) >= cx.env.tuning.max_duration {
                return StageEnd::TimedOut;
            }
            self.run_slice(a, cx);
        }
        StageEnd::Drained
    }

    /// One executed slice, phase by phase, followed by the replay of the
    /// steady window it may open.
    fn run_slice(&mut self, a: &mut SliceArena, cx: &mut StepCx) {
        let start = self.acc.now;
        let channels = self.sync_channels(a, cx);
        if channels == 0 {
            // No channels but work remains (controller zeroed
            // everything): force one channel on the fattest chunk. The
            // stage loop only runs while a chunk is live, so one exists.
            self.acc.concurrency_series.push(start, 0.0);
            let busiest =
                busiest_chunk(&self.chunks, &a.chunk_in_flight, &a.chunk_remaining, false);
            if let Some(idx) = busiest {
                self.chunks[idx].target = 1;
            }
            return;
        }
        self.place_on_sites(a, cx.env, channels);
        let kills = self.kill_faulted(a, cx);
        let (streams, in_backoff) = self.tick_working_set(a, cx);
        let eff = self.demand_and_grant(a, cx, streams);
        let bytes = self.advance_channels(a, cx);
        let (env, secs) = (cx.env, self.slice_secs);
        let src = site_power(env, a, secs, eff, true);
        let dst = site_power(env, a, secs, eff, false);
        let outcome = SliceOutcome {
            channels,
            in_backoff,
            kills,
            bytes,
            wire: bytes.as_f64() / eff.max(1e-6),
            power_w: src.watts + dst.watts,
            thr_mbps: bytes.as_f64() * 8.0 / secs / 1e6,
            estimated_j: (src.estimated + dst.estimated) * secs,
            src,
            dst,
        };
        self.book_slice(a, cx, &outcome);
        let k = self.consult_controller(a, cx, &outcome, start);
        if k > 0 && env.tuning.macro_step {
            self.replay_window(a, cx, k, outcome);
        }
    }

    /// Sync: moves finished chunks' channel targets to the busiest live
    /// chunk, opens the fault runtime's slice window, and grows or
    /// shrinks each chunk's channel block to its target. Returns the
    /// channel count.
    fn sync_channels(&mut self, a: &mut SliceArena, cx: &mut StepCx) -> u32 {
        rebalance_targets(
            &mut self.chunks,
            &a.chunk_in_flight,
            &a.chunk_remaining,
            self.plan.reallocate_on_completion,
        );
        let now = self.acc.now;
        if let Some(rt) = &mut self.runtime {
            rt.begin_slice(now);
        }
        // Blocks stay contiguous and chunk-major: `start` accumulates the
        // post-sync lengths of the chunks already processed, so
        // inserts/removals in earlier chunks shift later blocks without
        // breaking the invariant.
        let mut start = 0usize;
        for (ci, c) in self.chunks.iter_mut().enumerate() {
            a.chunk_start[ci] = start;
            let before = a.chunk_len[ci] as u32;
            sync_chunk_channels(
                &mut a.ch,
                start,
                &mut a.chunk_len[ci],
                &mut a.chunk_in_flight[ci],
                &mut c.queue,
                ci as u32,
                c.target,
                cx.env.link.rtt,
                || self.runtime.as_mut().and_then(FaultRuntime::sample_ttf),
            );
            let (chunk, count) = (ci as u32, a.chunk_len[ci] as u32);
            if self.journaling && count != before {
                let event = if count > before {
                    Event::ChannelOpen {
                        chunk,
                        opened: count - before,
                        count,
                    }
                } else {
                    Event::ChannelClose {
                        chunk,
                        closed: before - count,
                        count,
                    }
                };
                cx.tel.record(now, event);
            }
            start += a.chunk_len[ci];
        }
        a.ch.len() as u32
    }

    /// Place: assigns every channel a server on both sites, routed around
    /// servers whose circuit breaker is open. Only *learned* state masks
    /// — an outage the client has not collided with yet does not; it is
    /// discovered by failing against it. Without a fault runtime the
    /// masks stay empty (the stage setup cleared them), which places
    /// unmasked: the placement is then a pure function of the channel
    /// count, and the last one holds while the count repeats.
    fn place_on_sites(&self, a: &mut SliceArena, env: &TransferEnv, channels: u32) {
        if self.runtime.is_none() && a.placed == Some(channels) {
            if cfg!(feature = "debug-invariants") {
                self.audit_placement(a, env, channels);
            }
            return;
        }
        if let Some(rt) = &self.runtime {
            rt.avail_masks_into(&mut a.src_avail, &mut a.dst_avail);
        }
        let placement = self.plan.placement;
        env.src
            .place_channels_masked_into(channels, placement, &a.src_avail, &mut a.place);
        assign_servers_into(&a.place, &mut a.src_assign);
        env.dst
            .place_channels_masked_into(channels, placement, &a.dst_avail, &mut a.place);
        assign_servers_into(&a.place, &mut a.dst_assign);
        a.placed = Some(channels);
        #[cfg(test)]
        {
            a.placement_solves += 1;
        }
    }

    /// The `debug-invariants` check of a reused placement: a fresh solve
    /// into scratch must reproduce both sites' kept assignment.
    fn audit_placement(&self, a: &mut SliceArena, env: &TransferEnv, channels: u32) {
        let sites = [
            (&env.src, &a.src_avail, &a.src_assign),
            (&env.dst, &a.dst_avail, &a.dst_assign),
        ];
        for (site, avail, kept) in sites {
            site.place_channels_masked_into(channels, self.plan.placement, avail, &mut a.place);
            assign_servers_into(&a.place, &mut a.audit_assign);
            assert_eq!(
                a.audit_assign, *kept,
                "invariant: a reused placement diverged from a fresh solve"
            );
        }
    }

    /// Fault kill: a channel dies when its TTF runs out or when it would
    /// connect to a server inside an outage window. The kill returns the
    /// in-flight file (restarting it without markers — the lost progress
    /// leaves `moved_total` and is booked as retransmission) and
    /// schedules the reconnect through the retry policy. Returns whether
    /// any channel died.
    fn kill_faulted(&mut self, a: &mut SliceArena, cx: &mut StepCx) -> bool {
        let Some(rt) = &mut self.runtime else {
            return false;
        };
        let (slice, now, acc) = (self.slice, self.acc.now, &mut self.acc);
        let ch = &mut a.ch;
        let mut kills = false;
        for i in 0..ch.len() {
            let ci = ch.chunk[i] as usize;
            let connects = ch.gap[i] < slice;
            let busy = ch.has_file[i] || !self.chunks[ci].queue.is_empty();
            let (src, dst) = (a.src_assign[i], a.dst_assign[i]);
            let mut cause = None;
            if let Some(ttf) = ch.ttf[i] {
                if ttf <= slice {
                    cause = Some(FaultCause::Channel);
                } else {
                    ch.ttf[i] = Some(ttf - slice);
                }
            }
            if cause.is_none()
                && connects
                && busy
                && (rt.outage_active(SiteSide::Src, src) || rt.outage_active(SiteSide::Dst, dst))
            {
                cause = Some(FaultCause::Outage);
            }
            let Some(cause) = cause else { continue };
            kills = true;
            if ch.has_file[i] {
                let size = ch.file_size[i];
                let mut rem = ch.file_remaining[i];
                if !rt.restart_markers() {
                    let lost = size.saturating_sub(rem);
                    acc.moved_total = acc.moved_total.saturating_sub(lost);
                    acc.retransmitted += lost;
                    rt.book_retransmit(lost);
                    // The file restarts from zero; its lost progress
                    // re-enters the chunk's remaining.
                    rem = size;
                    a.chunk_remaining[ci] += lost;
                }
                self.chunks[ci].queue.push_front(FileSnapshot {
                    size,
                    remaining: rem,
                });
                ch.has_file[i] = false;
                a.chunk_in_flight[ci] -= 1;
            }
            let attempt = ch.consecutive[i];
            let (delay, exhausted) = rt.next_delay(attempt);
            ch.gap[i] = delay;
            ch.in_backoff[i] = true;
            ch.consecutive[i] = if exhausted { 0 } else { attempt + 1 };
            rt.record_failure(cause, src, dst, now);
            if cause == FaultCause::Channel {
                ch.ttf[i] = rt.sample_ttf();
            }
            if self.journaling {
                let (chunk, channel) = (ci as u32, (i - a.chunk_start[ci]) as u32);
                cx.tel.record_with(now, || Event::ChannelFail {
                    chunk,
                    channel,
                    cause: match cause {
                        FaultCause::Channel => "channel".to_string(),
                        FaultCause::Outage => "outage".to_string(),
                    },
                    src_server: src as u32,
                    dst_server: dst as u32,
                });
                cx.tel.record(
                    now,
                    Event::ChannelRetry {
                        chunk,
                        channel,
                        attempt,
                        delay_us: delay.as_micros(),
                        exhausted,
                    },
                );
            }
        }
        kills
    }

    /// Working set and backoff tick: books one slice of every failure
    /// backoff, then counts per server the channels that move bytes this
    /// slice and their streams. A channel whose gap outlasts the slice is
    /// *blocked* — it moves nothing, holds no demand, and its server
    /// neither counts it for disk contention nor burns power on it.
    /// Returns the working stream total and the channels in backoff at
    /// the slice start.
    fn tick_working_set(&mut self, a: &mut SliceArena, cx: &mut StepCx) -> (u32, u32) {
        let (n_src, n_dst) = (cx.env.src.servers.len(), cx.env.dst.servers.len());
        reset(&mut a.src_chan, n_src, 0);
        reset(&mut a.src_streams, n_src, 0);
        reset(&mut a.dst_chan, n_dst, 0);
        reset(&mut a.dst_streams, n_dst, 0);
        reset(&mut a.working, a.ch.len(), false);
        let (mut streams, mut in_backoff) = (0u32, 0u32);
        for i in 0..a.ch.len() {
            let ci = a.ch.chunk[i] as usize;
            let busy = a.ch.has_file[i] || !self.chunks[ci].queue.is_empty();
            in_backoff += u32::from(backoff_tick(&mut a.ch, i, &mut self.runtime, self.slice));
            a.working[i] = busy && a.ch.gap[i] < self.slice;
            if a.working[i] {
                let p = self.chunks[ci].parallelism;
                let (src, dst) = (a.src_assign[i], a.dst_assign[i]);
                a.src_chan[src] += 1;
                a.src_streams[src] += p;
                a.dst_chan[dst] += 1;
                a.dst_streams[dst] += p;
                streams += p;
            }
        }
        if self.journaling {
            // Power-state edges: a server transitions between idle and
            // active when it gains/loses its first working channel (its
            // power draw follows).
            let acc = &mut self.acc;
            let sides = [
                (Side::Src, &a.src_chan, &mut acc.prev_src_active),
                (Side::Dst, &a.dst_chan, &mut acc.prev_dst_active),
            ];
            for (side, chan, prev) in sides {
                for (srv, (&cnt, prev)) in chan.iter().zip(prev.iter_mut()).enumerate() {
                    let active = cnt > 0;
                    if active != *prev {
                        *prev = active;
                        let server = srv as u32;
                        let edge = Event::PowerState {
                            side,
                            server,
                            active,
                        };
                        cx.tel.record(acc.now, edge);
                    }
                }
            }
        }
        (streams, in_backoff)
    }

    /// Demand and grant: per-channel ceilings from the window/process
    /// model scaled by the channel's control-plane duty cycle (a
    /// small-file channel spends most of its time in per-file gaps and
    /// must not reserve bandwidth it cannot use), shaped max-min fairly
    /// through each server's disk subsystem on both ends, then through
    /// the path. Returns the congestion efficiency of `streams`.
    ///
    /// Without a fault runtime or background traffic the solve reads
    /// nothing but the share, the working set, the channel-to-chunk map,
    /// the placement and stage constants, so while those four repeat the
    /// last solve's grants, gaps and efficiency still hold.
    fn demand_and_grant(&self, a: &mut SliceArena, cx: &StepCx, streams: u32) -> f64 {
        let pure = self.runtime.is_none() && cx.env.background.is_none();
        let last = &a.last_grant;
        if pure
            && last.share == Some(share_bits(cx.share))
            && last.working == a.working
            && last.chunk == a.ch.chunk
            && last.src_assign == a.src_assign
            && last.dst_assign == a.dst_assign
        {
            if cfg!(feature = "debug-invariants") {
                self.audit_grants(a, cx, streams);
            }
            return a.last_grant.eff;
        }
        let eff = self.solve_grants(a, cx, streams);
        if pure {
            let last = &mut a.last_grant;
            last.share = Some(share_bits(cx.share));
            last.working.clone_from(&a.working);
            last.chunk.clone_from(&a.ch.chunk);
            last.src_assign.clone_from(&a.src_assign);
            last.dst_assign.clone_from(&a.dst_assign);
            last.eff = eff;
        }
        #[cfg(test)]
        {
            a.grant_solves += 1;
        }
        eff
    }

    /// The `debug-invariants` check of a reused grant solve: the kept
    /// grants and gaps are copied to scratch, solved afresh, and must
    /// match the fresh solve bit for bit, as must the efficiency.
    fn audit_grants(&self, a: &mut SliceArena, cx: &StepCx, streams: u32) {
        a.audit_grants.clone_from(&a.grants);
        a.audit_gap.clone_from(&a.chunk_gap);
        let eff = self.solve_grants(a, cx, streams);
        let bits = |g: &Rate| g.as_bps().to_bits();
        assert!(
            eff.to_bits() == a.last_grant.eff.to_bits()
                && a.grants
                    .iter()
                    .map(bits)
                    .eq(a.audit_grants.iter().map(bits))
                && a.chunk_gap == a.audit_gap,
            "invariant: reused grants diverged from a fresh solve at t={:?}",
            self.acc.now
        );
    }

    /// The grant solve behind [`SliceRun::demand_and_grant`].
    fn solve_grants(&self, a: &mut SliceArena, cx: &StepCx, streams: u32) -> f64 {
        let (env, rt, share) = (cx.env, self.runtime.as_ref(), cx.share);
        let eff = env.congestion.efficiency(streams);
        let bg = env
            .background
            .map_or(1.0, |b| b.capacity_factor(self.acc.now));
        // Pool arbitration (multi-tenant sites) scales the shared link
        // capacity; the default 1.0 grant is an exact FP identity, so
        // solo runs are byte-for-byte unchanged.
        let capacity = env.link.bandwidth * (eff * bg * share.bandwidth);
        // Every input is per-chunk constant, so the gap, duty and demand
        // are hoisted to one computation per chunk.
        let stall_mult = rt.map_or(1.0, FaultRuntime::gap_multiplier);
        for (ci, c) in self.chunks.iter().enumerate() {
            a.chunk_gap[ci] = (env.link.rtt / u64::from(c.pipelining)).mul_f64(stall_mult)
                + env.tuning.per_file_overhead;
            let gap = a.chunk_gap[ci].as_secs_f64();
            // Steady-state duty cycle from the chunk's mean file size
            // (NOT the in-flight remainder: that would decay the demand
            // to zero as a file nears completion).
            let t_x = c.avg_file.as_f64() * 8.0 / a.chunk_cap[ci].as_bps().max(1.0);
            a.chunk_duty[ci] = if t_x + gap <= 0.0 {
                1.0
            } else {
                (t_x / (t_x + gap)).max(0.05)
            };
            a.chunk_demand[ci] = a.chunk_cap[ci] * a.chunk_duty[ci];
        }
        reset(&mut a.demands, a.ch.len(), Rate::ZERO);
        for i in 0..a.ch.len() {
            if a.working[i] {
                a.demands[i] = a.chunk_demand[a.ch.chunk[i] as usize];
            }
        }
        let sides = [
            (SiteSide::Src, &a.src_assign, &a.src_chan),
            (SiteSide::Dst, &a.dst_assign, &a.dst_chan),
        ];
        for (side, assign, chan) in sides {
            let (site, granted) = match side {
                SiteSide::Src => (&env.src, share.src_disk),
                SiteSide::Dst => (&env.dst, share.dst_disk),
            };
            apply_disk_fairness(&mut a.demands, assign, chan, &mut a.disk, |srv| {
                let factor = rt.map_or(1.0, |rt| rt.disk_factor(side, srv));
                site.servers[srv].disk.aggregate_rate(chan[srv]) * (factor * granted)
            });
        }
        // Grants are time-averaged rates; while a channel is actively
        // moving a file it bursts at grant/duty (its gaps bring the
        // average back down to the grant). Non-working channels hold an
        // exact-zero grant, which any duty maps back to exact zero.
        fair_share_into(capacity, &a.demands, &mut a.grants, &mut a.fair);
        for (i, g) in a.grants.iter_mut().enumerate() {
            let ci = a.ch.chunk[i] as usize;
            *g = (*g / a.chunk_duty[ci]).min(a.chunk_cap[ci]);
        }
        eff
    }

    /// Advance: moves every channel through its queue at its grant. Chunk
    /// remaining bytes are maintained incrementally: `moved` leaves the
    /// queue/in-flight total exactly, in integer arithmetic. Returns the
    /// bytes moved.
    fn advance_channels(&mut self, a: &mut SliceArena, cx: &mut StepCx) -> Bytes {
        let (n_src, n_dst) = (cx.env.src.servers.len(), cx.env.dst.servers.len());
        let mut bytes = Bytes::ZERO;
        reset(&mut a.src_moved, n_src, Bytes::ZERO);
        reset(&mut a.dst_moved, n_dst, Bytes::ZERO);
        reset(&mut a.ch_moved, a.ch.len(), Bytes::ZERO);
        reset(&mut a.chunk_moved, self.chunks.len(), Bytes::ZERO);
        for i in 0..a.ch.len() {
            let ci = a.ch.chunk[i] as usize;
            let moved = advance_channel(
                &mut a.ch,
                i,
                &mut self.chunks[ci].queue,
                &mut a.chunk_in_flight[ci],
                a.grants[i],
                self.slice,
                a.chunk_gap[ci],
            );
            if !moved.is_zero() {
                a.ch.consecutive[i] = 0;
            }
            bytes += moved;
            a.src_moved[a.src_assign[i]] += moved;
            a.dst_moved[a.dst_assign[i]] += moved;
            a.ch_moved[i] = moved;
            a.chunk_moved[ci] += moved;
            a.chunk_remaining[ci] = a.chunk_remaining[ci].saturating_sub(moved);
        }
        let now = self.acc.now;
        if let Some(rt) = &mut self.runtime {
            // Bytes through a server close its half-open breaker and
            // clear its failure run.
            for (side, moved) in [(SiteSide::Src, &a.src_moved), (SiteSide::Dst, &a.dst_moved)] {
                for srv in (0..moved.len()).filter(|&srv| !moved[srv].is_zero()) {
                    rt.record_success(side, srv);
                }
            }
            if self.journaling {
                for ev in rt.take_events() {
                    cx.tel.record(now, ev);
                }
            }
        }
        for (ci, c) in self.chunks.iter_mut().enumerate() {
            if c.completed_at.is_none() && !c.live(a.chunk_in_flight[ci]) {
                c.completed_at = Some(now + self.slice);
            }
        }
        bytes
    }

    /// Book: adds one slice to every accumulator — concurrency, power and
    /// throughput series, ledger phase and component buckets, estimator
    /// energy, wire bytes, gauges, histograms and the sampler — then
    /// closes the slice and audits it. Executed and replayed slices both
    /// book here, so every accumulator receives the same addends in the
    /// same order either way (DESIGN.md §12).
    fn book_slice(&mut self, a: &SliceArena, cx: &mut StepCx, o: &SliceOutcome) {
        let (secs, acc) = (self.slice_secs, &mut self.acc);
        let (now, power, thr_mbps) = (acc.now, o.power_w, o.thr_mbps);
        acc.moved_total += o.bytes;
        if cfg!(feature = "debug-invariants") {
            acc.audit_gross += o.bytes;
        }
        acc.wire_bytes_f += o.wire;
        // Attribute the slice's joules to exactly one phase per site
        // (DESIGN.md §14), by priority.
        let phase = if o.kills {
            EnergyPhase::Retransmit
        } else if self.controller.probing() {
            EnergyPhase::Probe
        } else if self.runtime.as_ref().is_some_and(FaultRuntime::any_outage) {
            EnergyPhase::OutageIdle
        } else if o.in_backoff > 0 {
            EnergyPhase::BackoffIdle
        } else if acc.moved_total.is_zero() {
            EnergyPhase::Startup
        } else {
            EnergyPhase::Steady
        };
        o.src.book(&mut acc.ledger.src, phase);
        o.dst.book(&mut acc.ledger.dst, phase);
        acc.estimated_energy += o.estimated_j;
        acc.concurrency_series.push(now, f64::from(o.channels));
        acc.power_series.push(now, power);
        acc.throughput_series.push(now, thr_mbps);
        // Metrics: refresh gauges, observe slice-level histograms, and
        // let the sampler decide whether this slice lands on the cadence
        // grid (which also journals a `sample` event).
        if let (Some(g), Some(m)) = (&self.gauges, cx.tel.metrics()) {
            for (i, moved) in a.ch_moved.iter().enumerate() {
                if a.working[i] {
                    m.observe(g.channel_mbps, moved.as_f64() * 8.0 / secs / 1e6);
                }
            }
            let queue_depth: u64 = self.chunks.iter().map(|c| c.queue.len() as u64).sum();
            m.set(g.throughput, thr_mbps);
            m.set(g.power, power);
            m.set(g.concurrency, f64::from(o.channels));
            m.set(g.in_backoff, f64::from(o.in_backoff));
            m.set(g.queue_depth, queue_depth as f64);
            m.observe(g.watts, power);
            m.observe(g.backoff_occ, f64::from(o.in_backoff));
            m.observe(g.queue_hist, queue_depth as f64);
            if m.tick(now) && self.journaling {
                cx.tel.record(
                    now,
                    Event::Sample {
                        throughput_mbps: thr_mbps,
                        power_w: power,
                        concurrency: o.channels,
                        in_backoff: o.in_backoff,
                        queue_depth,
                    },
                );
            }
        }
        acc.now += self.slice;
        acc.slices_done += 1;
        if cfg!(feature = "debug-invariants") {
            audit_slice(&self.chunks, a, acc, o);
        }
    }

    /// Decide: journals the chunks that drained at this boundary, shows
    /// the controller the slice, and applies its action. On `Continue` it
    /// computes the event horizon; returns how many upcoming slices are
    /// provably steady (0 for none).
    fn consult_controller(
        &mut self,
        a: &mut SliceArena,
        cx: &mut StepCx,
        o: &SliceOutcome,
        start: SimTime,
    ) -> u64 {
        let now = self.acc.now;
        if self.journaling {
            for (ci, c) in self.chunks.iter().enumerate() {
                if c.completed_at == Some(now) {
                    cx.tel.record_with(now, || Event::ChunkDrain {
                        chunk: ci as u32,
                        label: c.label.clone(),
                    });
                }
            }
        }
        // The controller's view borrows the arena's lending buffers
        // (reclaimed below), so a steady slice builds it without
        // allocating. Remaining bytes are read off the incremental
        // per-chunk column (exact integers, no queue walk).
        let fault = match &self.runtime {
            Some(rt) => {
                let mut q_src = std::mem::take(&mut a.ctx_q_src);
                let mut q_dst = std::mem::take(&mut a.ctx_q_dst);
                rt.quarantined_into(SiteSide::Src, &mut q_src);
                rt.quarantined_into(SiteSide::Dst, &mut q_dst);
                FaultView {
                    capacity_fraction: rt.capacity_fraction(),
                    quarantined_src: q_src,
                    quarantined_dst: q_dst,
                    failures: rt.stats().total_failures(),
                    in_backoff: o.in_backoff,
                }
            }
            None => FaultView::default(),
        };
        let mut channels = std::mem::take(&mut a.ctx_channels);
        channels.clear();
        channels.extend(self.chunks.iter().map(|c| c.target));
        let mut remaining_per_chunk = std::mem::take(&mut a.ctx_remaining);
        remaining_per_chunk.clear();
        remaining_per_chunk.extend_from_slice(&a.chunk_remaining);
        let ctx = SliceCtx {
            now,
            stage: self.stage,
            slice_bytes: o.bytes,
            slice_energy_j: o.power_w * self.slice_secs,
            total_bytes: self.acc.moved_total,
            remaining_bytes: a.chunk_remaining.iter().copied().sum(),
            channels,
            remaining_per_chunk,
            fault,
        };
        let action = self.controller.on_slice(&ctx);
        if self.journaling {
            for ev in self.controller.drain_events() {
                cx.tel.record(now, ev);
            }
        }
        let k = match action {
            ControlAction::Reallocate(new_targets) => {
                assert_eq!(
                    new_targets.len(),
                    self.chunks.len(),
                    "reallocation must cover every chunk of the stage"
                );
                if self.journaling {
                    cx.tel.record_with(now, || Event::Reallocate {
                        targets: new_targets.clone(),
                    });
                }
                for (ci, (c, &t)) in self.chunks.iter_mut().zip(&new_targets).enumerate() {
                    c.target = if c.live(a.chunk_in_flight[ci]) { t } else { 0 };
                }
                0
            }
            // Journaled runs compute the horizon even with macro-stepping
            // off: the window then only drives the horizon span (the
            // slices execute normally), so macro and non-macro journals
            // stay byte-identical. While a span is open (that mode, or a
            // resumed mid-window run) nothing is recomputed until it
            // closes at its boundary.
            ControlAction::Continue
                if (cx.env.tuning.macro_step || self.journaling)
                    && self.acc.horizon_end.is_none() =>
            {
                self.horizon_window(a, cx, &ctx, start)
            }
            ControlAction::Continue => 0,
        };
        // Reclaim the lent buffers (the contents are dead; only the
        // capacity is recycled).
        a.ctx_channels = ctx.channels;
        a.ctx_remaining = ctx.remaining_per_chunk;
        a.ctx_q_src = ctx.fault.quarantined_src;
        a.ctx_q_dst = ctx.fault.quarantined_dst;
        k
    }

    /// Horizon (DESIGN.md §12): counts how many upcoming slices are
    /// provably in steady state, opening a horizon span over them on
    /// journaled runs. Every bound is conservative — when in doubt the
    /// horizon is 0 and the engine falls back to the plain slice loop.
    /// `start` is the start of the slice just executed.
    ///
    /// The checks run cheapest first, and the first channel that pins
    /// the window to 0 ends the scan: the per-channel disqualifiers and
    /// O(1) bounds, then the steady movers' searches, then the
    /// controller's promise and the time bounds.
    fn horizon_window(
        &mut self,
        a: &SliceArena,
        cx: &mut StepCx,
        ctx: &SliceCtx,
        start: SimTime,
    ) -> u64 {
        let (slice, now, env) = (self.slice, self.acc.now, cx.env);
        let ch = &a.ch;
        let mut k_channel = u64::MAX;
        for i in 0..ch.len() {
            let ci = ch.chunk[i] as usize;
            let busy = ch.has_file[i] || !self.chunks[ci].queue.is_empty();
            let next_working = busy && ch.gap[i] < slice;
            let (src, dst) = (a.src_assign[i], a.dst_assign[i]);
            if next_working
                && self.runtime.as_ref().is_some_and(|rt| {
                    rt.outage_active(SiteSide::Src, src) || rt.outage_active(SiteSide::Dst, dst)
                })
            {
                // The next slice's kill check fires for busy connecting
                // channels inside an active outage window — a channel can
                // reach that state mid-slice (e.g. it inherited a killed
                // channel's file after its own kill check passed), so
                // post-slice state must be re-checked.
                return 0;
            }
            if next_working != a.working[i] {
                // The channel would enter or leave the working set next
                // slice.
                return 0;
            }
            if a.working[i] {
                // Steady mover: mid-file, no pending gap, and the
                // executed slice moved exactly the per-slice quantum.
                let quantum = a.grants[i].bytes_in(slice);
                if !(ch.has_file[i] && ch.gap[i].is_zero() && a.ch_moved[i] == quantum) {
                    return 0;
                }
            } else if busy || ch.in_backoff[i] {
                // Blocked channel: its gap must outlast every skipped
                // slice (an idle channel's draining gap is inert and
                // replayed).
                k_channel = k_channel.min(ch.gap[i].slices_within(slice));
            }
            if let Some(ttf) = ch.ttf[i] {
                k_channel = k_channel.min(ttf.slices_before(slice));
            }
            if k_channel == 0 {
                return 0;
            }
        }
        for i in (0..ch.len()).filter(|&i| a.working[i]) {
            let quantum = a.grants[i].bytes_in(slice);
            k_channel = k_channel.min(steady_move_bound(
                ch.file_remaining[i],
                quantum,
                a.grants[i],
                slice,
            ));
        }

        let mut k = self.controller.next_decision_in(ctx, slice);
        // A state boundary at time `b` caps the window: every skipped
        // slice must start strictly before it.
        let bound_at = |b: SimTime| -> u64 {
            if b <= now {
                0
            } else {
                b.since(now).slices_before(slice).saturating_add(1)
            }
        };
        // Which bound won names the horizon span's source; ties keep the
        // earlier (checked-first) source.
        let mut k_src = "controller";
        let bounds = [
            (
                "max_duration",
                Some(SimTime::ZERO + env.tuning.max_duration),
            ),
            (
                "metrics",
                cx.tel.metrics_ref().map(MetricsRegistry::next_tick),
            ),
            ("background", env.background.map(|bg| bg.next_change(start))),
            (
                "faults",
                self.runtime.as_ref().map(|rt| rt.next_change(start)),
            ),
        ];
        for (src, at) in bounds {
            if let Some(b) = at.map(bound_at).filter(|&b| b < k) {
                k = b;
                k_src = src;
            }
        }
        // The channels name the span only when strictly below every
        // other bound.
        if k_channel < k {
            k = k_channel;
            k_src = "channel";
        }

        if k > 0 && self.journaling {
            let detail = format!("{k_src} k={k}");
            cx.tel.record_with(now, || Event::SpanBegin {
                id: 0,
                parent: 0,
                kind: "horizon".to_string(),
                detail,
            });
            self.acc.horizon_end = Some(self.acc.slices_done + k);
        }
        k
    }

    /// Replay: advances `k` provably steady slices arithmetically and
    /// books each through [`SliceRun::book_slice`] with the executed
    /// slice's outcome, so reports, journals and metrics stay
    /// bit-identical to `k` executed slices. A step boundary inside the
    /// window cuts the replay at exactly that slice; the next step
    /// recomputes the remainder (a promised slice re-executed normally is
    /// state-identical by the promise contract).
    fn replay_window(
        &mut self,
        a: &mut SliceArena,
        cx: &mut StepCx,
        k: u64,
        executed: SliceOutcome,
    ) {
        let slice = self.slice;
        // Kills cannot happen inside a window, and the probe flag, outage
        // state and first-byte state are pinned by its bounds, so each
        // replayed slice classifies exactly as an executed one would. The
        // backoff count is re-read each slice: a channel that left backoff
        // during the decision slice was counted there but is a plain
        // mover here.
        let mut o = SliceOutcome {
            kills: false,
            ..executed
        };
        for _ in 0..k {
            o.in_backoff = 0;
            for i in 0..a.ch.len() {
                if let Some(ttf) = a.ch.ttf[i] {
                    a.ch.ttf[i] = Some(ttf - slice);
                }
                o.in_backoff += u32::from(backoff_tick(&mut a.ch, i, &mut self.runtime, slice));
                if !a.working[i] {
                    a.ch.gap[i] = a.ch.gap[i].saturating_sub(slice);
                } else if a.ch.has_file[i] {
                    // Steady movers are mid-file by the window bounds;
                    // each replayed slice drains exactly the quantum.
                    a.ch.file_remaining[i] = a.ch.file_remaining[i].saturating_sub(a.ch_moved[i]);
                }
            }
            // Working channels drain their quantum from the chunk's
            // remaining, exactly as the executed slice did.
            for (ci, moved) in a.chunk_moved.iter().enumerate() {
                a.chunk_remaining[ci] = a.chunk_remaining[ci].saturating_sub(*moved);
            }
            self.book_slice(a, cx, &o);
            if cx.until.is_some_and(|h| self.acc.slices_done >= h) {
                break;
            }
        }
    }

    /// Run end (cold): journals the run summary and moves the
    /// accumulators into the report, which spends the run.
    fn finish(&mut self, cx: &mut StepCx, completed: bool) -> TransferReport {
        self.spent = true;
        let (env, acc) = (cx.env, std::mem::take(&mut self.acc));
        let requested = self.requested;
        let completed = completed && acc.moved_total == requested;
        let duration = acc.now.since(SimTime::ZERO);
        if self.journaling {
            cx.tel.record(
                acc.now,
                Event::RunEnd {
                    moved_bytes: acc.moved_total.as_u64(),
                    duration_s: duration.as_secs_f64(),
                    energy_j: acc.ledger.total_j(),
                    completed,
                },
            );
        }
        let wire_bytes = Bytes(acc.wire_bytes_f.round() as u64);
        let fault_stats = self.runtime.take().map(|rt| rt.stats()).unwrap_or_default();
        debug_assert_eq!(acc.retransmitted, fault_stats.retransmitted_bytes);
        // The report's per-site energy IS the ledger's fixed-order phase
        // sum, so the profile accounts for 100% of it within 0 ULP.
        let ledger = acc.ledger;
        if cfg!(feature = "debug-invariants") {
            let manual = EnergyPhase::ALL
                .iter()
                .fold(0.0f64, |a, &p| a + ledger.src.phase_j(p));
            assert_eq!(
                manual.to_bits(),
                ledger.src.total_j().to_bits(),
                "invariant: ledger phases must sum to the report energy bit-exactly"
            );
        }
        TransferReport {
            schema: crate::report::REPORT_SCHEMA_VERSION,
            requested_bytes: requested,
            moved_bytes: acc.moved_total,
            duration,
            completed,
            src_energy_j: ledger.src.total_j(),
            dst_energy_j: ledger.dst.total_j(),
            ledger,
            wire_bytes,
            packets: env.packets.total_packets(wire_bytes),
            throughput_series: acc.throughput_series,
            power_series: acc.power_series,
            concurrency_series: acc.concurrency_series,
            failures: fault_stats.total_failures(),
            faults: fault_stats,
            estimated_energy_j: env.estimator.map(|_| acc.estimated_energy),
            chunk_stats: acc.chunk_stats,
        }
    }
}

/// Books one slice of channel `i`'s failure backoff, clearing the flag
/// once the gap ends within the slice; true when the channel was in
/// backoff at the slice start. Executed and replayed slices both tick
/// through here.
#[inline]
fn backoff_tick(
    ch: &mut ChannelSoA,
    i: usize,
    runtime: &mut Option<FaultRuntime>,
    slice: SimDuration,
) -> bool {
    if !ch.in_backoff[i] {
        return false;
    }
    if let Some(rt) = runtime {
        rt.book_backoff(ch.gap[i].min(slice));
    }
    if ch.gap[i] <= slice {
        ch.in_backoff[i] = false;
    }
    true
}

/// The per-slice conservation and monotonicity audits (`debug-invariants`,
/// DESIGN.md §10), run after every executed or replayed slice: bytes that
/// entered the stage equal goodput plus what is still queued/in flight
/// (channel kills restore every lost byte to one side of the ledger);
/// gross bytes moved equal goodput plus booked retransmissions; power —
/// and with it accumulated energy — stays finite and non-negative, so
/// energy is monotone in sim-time. The incremental per-chunk remaining
/// column is cross-checked against a full recount of the queues and
/// channel columns.
fn audit_slice(chunks: &[ChunkState], a: &SliceArena, acc: &Accumulators, o: &SliceOutcome) {
    let (src_power, dst_power, now) = (o.src.watts, o.dst.watts, acc.now);
    assert!(
        src_power >= 0.0 && dst_power >= 0.0 && src_power.is_finite() && dst_power.is_finite(),
        "invariant: site power finite and non-negative, got src={src_power} dst={dst_power}"
    );
    let (src_e, dst_e) = (acc.ledger.src.total_j(), acc.ledger.dst.total_j());
    assert!(
        src_e >= 0.0 && dst_e >= 0.0 && (src_e + dst_e).is_finite(),
        "invariant: accumulated energy finite and non-negative, got src={src_e} dst={dst_e}"
    );
    let remaining: Bytes = a.chunk_remaining.iter().copied().sum();
    assert_eq!(
        acc.audit_stage_requested,
        acc.moved_total + remaining,
        "invariant: bytes entered != bytes moved + bytes remaining at t={now:?}"
    );
    assert_eq!(
        acc.audit_gross,
        acc.moved_total + acc.retransmitted,
        "invariant: gross bytes != goodput + retransmitted at t={now:?}"
    );
    for (ci, c) in chunks.iter().enumerate() {
        assert_eq!(
            a.chunk_remaining[ci],
            c.recount_remaining(a, ci),
            "invariant: incremental chunk remaining diverged from channel state at t={now:?}"
        );
    }
}

/// Moves the channel targets of finished chunks to the busiest live
/// chunk (the Multi-Chunk reallocation of the custom client).
fn rebalance_targets(
    chunks: &mut [ChunkState],
    in_flight: &[u32],
    remaining: &[Bytes],
    reallocate: bool,
) {
    let mut freed = 0u32;
    for (ci, c) in chunks.iter_mut().enumerate() {
        if !c.live(in_flight[ci]) && c.target > 0 {
            freed += c.target;
            c.target = 0;
        }
    }
    if !reallocate || freed == 0 {
        return;
    }
    if let Some(idx) = busiest_chunk(chunks, in_flight, remaining, true) {
        chunks[idx].target += freed;
    }
    // If no chunk accepts reallocation, freed channels simply retire —
    // exactly MinE's behaviour once only pinned Large chunks remain.
}

/// The engine's scratch arena (DESIGN.md §17): the flat [`ChannelSoA`]
/// channel columns, the per-chunk hot state, and every per-slice buffer
/// the kernel touches, owned in one place — by the [`EngineRun`] — so
/// buffer capacity survives across slices, stages and steps. A stage
/// setup resets it, and a restore rebuilds it from the checkpoint.
#[derive(Debug, Default, Clone)]
struct SliceArena {
    /// Flat per-channel columns, chunk-major.
    ch: ChannelSoA,
    /// First channel index of each chunk's block.
    chunk_start: Vec<usize>,
    /// Number of channels in each chunk's block.
    chunk_len: Vec<usize>,
    /// Files currently in flight on each chunk's channels.
    chunk_in_flight: Vec<u32>,
    /// Bytes still queued or in flight per chunk, maintained
    /// incrementally in exact integer arithmetic.
    chunk_remaining: Vec<Bytes>,
    /// Per-channel rate ceiling of each chunk (stage-constant).
    chunk_cap: Vec<Rate>,
    /// Inter-file control gap of each chunk this slice.
    chunk_gap: Vec<SimDuration>,
    /// Control-plane duty cycle of each chunk this slice.
    chunk_duty: Vec<f64>,
    /// Duty-scaled per-channel demand of each chunk this slice.
    chunk_demand: Vec<Rate>,
    /// Bytes moved per chunk this slice (macro-step replay).
    chunk_moved: Vec<Bytes>,
    /// Per-channel source / destination server assignment.
    src_assign: Vec<usize>,
    dst_assign: Vec<usize>,
    /// Per-server working-channel and stream counts.
    src_chan: Vec<u32>,
    src_streams: Vec<u32>,
    dst_chan: Vec<u32>,
    dst_streams: Vec<u32>,
    /// Whether each channel moves bytes this slice.
    working: Vec<bool>,
    /// Per-channel demand and granted rate.
    demands: Vec<Rate>,
    grants: Vec<Rate>,
    /// Per-server bytes moved this slice.
    src_moved: Vec<Bytes>,
    dst_moved: Vec<Bytes>,
    /// Per-channel bytes moved this slice (macro-step steadiness check).
    ch_moved: Vec<Bytes>,
    /// Per-server placement counts (shared by both sites sequentially).
    place: Vec<u32>,
    /// Per-server availability masks (breaker state); empty without a
    /// fault runtime.
    src_avail: Vec<bool>,
    dst_avail: Vec<bool>,
    /// The channel count `src_assign`/`dst_assign` were placed for;
    /// `None` until a stage's first placement.
    placed: Option<u32>,
    /// The inputs of the last grant solve, kept to reuse its outputs.
    last_grant: GrantKey,
    /// `debug-invariants` scratch: a placement and the grants and gaps
    /// kept across a reuse, checked against a fresh solve.
    audit_assign: Vec<usize>,
    audit_grants: Vec<Rate>,
    audit_gap: Vec<SimDuration>,
    /// Placement and grant solves so far, which the engine tests pin.
    #[cfg(test)]
    placement_solves: u64,
    #[cfg(test)]
    grant_solves: u64,
    /// Lending buffers for the controller's [`SliceCtx`]/[`FaultView`]
    /// vectors, reclaimed after each decision.
    ctx_channels: Vec<u32>,
    ctx_remaining: Vec<Bytes>,
    ctx_q_src: Vec<bool>,
    ctx_q_dst: Vec<bool>,
    /// Scratch for the path-level max-min fill.
    fair: FairScratch,
    /// Scratch for the per-server disk shaping.
    disk: DiskScratch,
}

impl SliceArena {
    /// Resets the channel columns, per-chunk arrays and placement masks
    /// for a stage of `n` chunks, and forgets the last placement and
    /// grant solve, keeping every buffer's capacity.
    fn begin_stage(&mut self, n: usize) {
        self.ch.clear();
        self.src_avail.clear();
        self.dst_avail.clear();
        self.placed = None;
        self.last_grant.share = None;
        reset(&mut self.chunk_start, n, 0);
        reset(&mut self.chunk_len, n, 0);
        reset(&mut self.chunk_in_flight, n, 0);
        reset(&mut self.chunk_remaining, n, Bytes::ZERO);
        reset(&mut self.chunk_cap, n, Rate::ZERO);
        reset(&mut self.chunk_gap, n, SimDuration::ZERO);
        reset(&mut self.chunk_duty, n, 1.0);
        reset(&mut self.chunk_demand, n, Rate::ZERO);
        reset(&mut self.chunk_moved, n, Bytes::ZERO);
    }
}

/// What the last grant solve read beyond stage constants
/// ([`SliceRun::demand_and_grant`]), and the efficiency it returned.
/// `share` holds the bits of its three factors, so a match is exact; it
/// is `None` until a stage's first solve.
#[derive(Debug, Default, Clone)]
struct GrantKey {
    share: Option<[u64; 3]>,
    working: Vec<bool>,
    chunk: Vec<u32>,
    src_assign: Vec<usize>,
    dst_assign: Vec<usize>,
    eff: f64,
}

/// The bits of a share's three factors.
fn share_bits(s: ResourceShare) -> [u64; 3] {
    [s.bandwidth, s.src_disk, s.dst_disk].map(f64::to_bits)
}

/// Reusable buffers for [`apply_disk_fairness`].
#[derive(Debug, Default, Clone)]
struct DiskScratch {
    members: Vec<usize>,
    local: Vec<Rate>,
    grants: Vec<Rate>,
    fair: FairScratch,
}

/// Clears and refills a scratch vector to `len` copies of `value`
/// without giving up its capacity.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Grows or shrinks one chunk's channel block (at `start`, length
/// `len`) to match `target`. New channels pay a connection-setup gap of
/// one RTT; removed channels return their in-flight file (with
/// progress) to the front of the queue. Structural Vec inserts/removals
/// only happen on target changes — the steady state never enters the
/// loops.
#[allow(clippy::too_many_arguments)]
fn sync_chunk_channels(
    ch: &mut ChannelSoA,
    start: usize,
    len: &mut usize,
    in_flight: &mut u32,
    queue: &mut VecDeque<FileSnapshot>,
    chunk: u32,
    target: u32,
    rtt: SimDuration,
    mut ttf: impl FnMut() -> Option<SimDuration>,
) {
    while (*len as u32) < target {
        ch.insert_fresh(start + *len, chunk, rtt, ttf());
        *len += 1;
    }
    while (*len as u32) > target {
        let last = start + *len - 1;
        // Prefer dropping idle channels (swap-remove within the block,
        // reproducing the old per-chunk `Vec::swap_remove` ordering).
        if let Some(off) = (0..*len).position(|o| !ch.has_file[start + o]) {
            ch.swap(start + off, last);
            ch.remove(last);
        } else {
            // Every channel is busy: the last one returns its file.
            queue.push_front(FileSnapshot {
                size: ch.file_size[last],
                remaining: ch.file_remaining[last],
            });
            *in_flight -= 1;
            ch.remove(last);
        }
        *len -= 1;
    }
}

/// Handles for the engine's registered metrics, resolved once per run so
/// the per-slice updates are plain indexed stores (no hashing).
struct EngineGauges {
    throughput: GaugeId,
    power: GaugeId,
    concurrency: GaugeId,
    in_backoff: GaugeId,
    queue_depth: GaugeId,
    channel_mbps: HistogramId,
    watts: HistogramId,
    backoff_occ: HistogramId,
    queue_hist: HistogramId,
}

impl EngineGauges {
    fn register(m: &mut MetricsRegistry) -> Self {
        EngineGauges {
            throughput: m.gauge("throughput_mbps"),
            power: m.gauge("power_w"),
            concurrency: m.gauge("concurrency"),
            in_backoff: m.gauge("in_backoff"),
            queue_depth: m.gauge("queue_depth"),
            channel_mbps: m.histogram(
                "channel_throughput_mbps",
                &[50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0],
            ),
            watts: m.histogram(
                "site_power_w",
                &[100.0, 200.0, 300.0, 450.0, 600.0, 800.0, 1200.0],
            ),
            backoff_occ: m.histogram("backoff_occupancy", &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]),
            queue_hist: m.histogram("queue_depth_files", &[0.0, 10.0, 100.0, 1000.0, 10000.0]),
        }
    }
}

/// Index of the live chunk with the most remaining bytes (read off the
/// arena's incremental columns). With `respect_pinning`, chunks that
/// refuse reallocation are skipped (used when handing out freed
/// channels); without it, any live chunk qualifies (a liveness guard).
fn busiest_chunk(
    chunks: &[ChunkState],
    in_flight: &[u32],
    remaining: &[Bytes],
    respect_pinning: bool,
) -> Option<usize> {
    chunks
        .iter()
        .enumerate()
        .filter(|&(ci, c)| c.live(in_flight[ci]) && (!respect_pinning || c.accepts_reallocation))
        .max_by_key(|&(ci, _)| remaining[ci])
        .map(|(i, _)| i)
}

/// Shapes per-channel demands max-min fairly through each server's disk
/// subsystem: channels on the same server share its aggregate disk rate by
/// progressive filling, so a 3 Gbps bulk channel coexisting with slow
/// small-file channels gets the disk headroom they leave behind.
fn apply_disk_fairness(
    demands: &mut [Rate],
    assign: &[usize],
    chan_counts: &[u32],
    scratch: &mut DiskScratch,
    disk_rate: impl Fn(usize) -> Rate,
) {
    for (srv, &count) in chan_counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        scratch.members.clear();
        scratch
            .members
            .extend((0..demands.len()).filter(|&i| assign[i] == srv && !demands[i].is_zero()));
        if scratch.members.is_empty() {
            continue;
        }
        scratch.local.clear();
        scratch
            .local
            .extend(scratch.members.iter().map(|&i| demands[i]));
        fair_share_into(
            disk_rate(srv),
            &scratch.local,
            &mut scratch.grants,
            &mut scratch.fair,
        );
        for (k, &i) in scratch.members.iter().enumerate() {
            demands[i] = scratch.grants[k];
        }
    }
}

/// Expands per-server channel counts into a per-channel server index,
/// reusing the output buffer.
fn assign_servers_into(counts: &[u32], out: &mut Vec<usize>) {
    out.clear();
    out.reserve(counts.iter().map(|&c| c as usize).sum());
    for (server, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            out.push(server);
        }
    }
}

/// Largest number of consecutive slices a mid-file channel can replay as
/// "move exactly `per_slice` bytes". The slice that completes the file
/// (`time_at(remaining) <= slice`) — or that would move fewer than
/// `per_slice` bytes because the remainder ran short — must execute
/// normally, so it is excluded. A `per_slice` of zero (zero or sub-byte
/// grant) never completes and never changes state: unbounded, the global
/// bounds cap the window.
fn steady_move_bound(remaining: Bytes, per_slice: Bytes, grant: Rate, slice: SimDuration) -> u64 {
    // True iff replayed slice `j` (1-based) is still a steady partial move.
    // `time_at` rounds to the micro while `bytes_in` floors, so both the
    // byte-count and the time-need condition are checked explicitly.
    let pred = |j: u64| -> bool {
        let Some(consumed) = per_slice.as_u64().checked_mul(j - 1) else {
            return false;
        };
        if consumed >= remaining.as_u64() {
            return false;
        }
        let r = Bytes(remaining.as_u64() - consumed);
        per_slice.as_u64() <= r.as_u64() && r.time_at(grant) > slice
    };
    if !pred(1) {
        return 0;
    }
    if per_slice.is_zero() {
        return u64::MAX;
    }
    // `pred` is monotone in `j`: binary search the last true value.
    let mut lo = 1u64;
    let mut hi = remaining.as_u64() / per_slice.as_u64() + 1; // pred(hi) is false
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Advances channel `i` for one slice at its granted rate; returns bytes
/// moved. Completing a file schedules `inter_file_gap` — the
/// `RTT/pipelining` control gap (stall-inflated when applicable) plus the
/// un-pipelinable per-file server overhead. `in_flight` tracks the
/// owning chunk's in-flight file count as files pop and complete.
fn advance_channel(
    ch: &mut ChannelSoA,
    i: usize,
    queue: &mut VecDeque<FileSnapshot>,
    in_flight: &mut u32,
    grant: Rate,
    slice: SimDuration,
    inter_file_gap: SimDuration,
) -> Bytes {
    let mut moved = Bytes::ZERO;
    let mut budget = slice;
    loop {
        if budget.is_zero() {
            break;
        }
        if !ch.gap[i].is_zero() {
            let g = ch.gap[i].min(budget);
            ch.gap[i] -= g;
            budget -= g;
            continue;
        }
        if !ch.has_file[i] {
            match queue.pop_front() {
                Some(fp) => {
                    ch.has_file[i] = true;
                    ch.file_size[i] = fp.size;
                    ch.file_remaining[i] = fp.remaining;
                    *in_flight += 1;
                }
                None => break,
            }
        }
        if grant.is_zero() {
            break;
        }
        let t_need = ch.file_remaining[i].time_at(grant);
        if t_need <= budget {
            moved += ch.file_remaining[i];
            budget -= t_need;
            ch.has_file[i] = false;
            *in_flight -= 1;
            ch.gap[i] = inter_file_gap;
        } else {
            let b = grant.bytes_in(budget).min(ch.file_remaining[i]);
            moved += b;
            ch.file_remaining[i] = ch.file_remaining[i].saturating_sub(b);
            budget = SimDuration::ZERO;
        }
    }
    moved
}

/// Power of one site's active servers for the slice: the reference
/// model's Watts plus (when configured) the secondary estimator's Watts
/// over the same utilization snapshots, plus the reference model's
/// per-component split (the energy profiler's approximate cpu/nic/disk
/// attribution — the scalar total stays the authoritative number).
fn site_power(
    env: &TransferEnv,
    a: &SliceArena,
    slice_secs: f64,
    eff: f64,
    is_src: bool,
) -> SitePower {
    let (site, channels, streams, moved) = if is_src {
        (&env.src, &a.src_chan, &a.src_streams, &a.src_moved)
    } else {
        (&env.dst, &a.dst_chan, &a.dst_streams, &a.dst_moved)
    };
    let (mut watts, mut estimated, mut parts) = (0.0, 0.0, PowerBreakdown::default());
    for (i, spec) in site.servers.iter().enumerate() {
        if channels[i] == 0 {
            continue;
        }
        let goodput = Rate::from_bps(moved[i].as_f64() * 8.0 / slice_secs);
        let wire = goodput / eff.max(1e-6);
        let load = ServerLoad {
            channels: channels[i],
            streams: streams[i],
            goodput,
            wire_rate: wire,
        };
        let util = Utilization::compute(spec, load, &env.util);
        watts += env.power.power_watts(&util);
        parts.add(&env.power.power_components(&util));
        if let Some(est) = &env.estimator {
            estimated += est.power_watts(&util);
        }
    }
    let parts_w = [parts.cpu_w, parts.nic_w, parts.disk_w, parts.other_w];
    SitePower {
        watts,
        estimated,
        joules: watts * slice_secs,
        parts_j: parts_w.map(|w| w * slice_secs),
    }
}

#[cfg(test)]
mod tests;
