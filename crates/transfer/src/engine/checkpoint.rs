//! Engine checkpoints: versioned, deterministic serialization of the
//! full in-flight state of a run at a slice boundary (DESIGN.md §13).
//!
//! A checkpoint is taken *between* slices — after one slice's controller
//! action has been applied and before the next slice's fault window
//! opens. At that instant every piece of engine state lives in the run's
//! accumulators, the chunk runtime states, the fault runtime, the
//! controller, and the telemetry sinks; [`EngineCheckpoint`] captures all
//! of them ([`EngineRun::snapshot`], and [`EngineRun::restore`] on the
//! way back in — both cold, outside the slice loop). A paused run is
//! already at such a boundary, so a snapshot reads the live state and
//! leaves the run stepping. Restoring with the identical plan and
//! environment resumes the run so that the completed report, the journal
//! suffix, and every metric are **bit-identical** to an uninterrupted run
//! (the chaos suite in `eadt-ckpt` asserts this across algorithms,
//! testbeds and fault regimes).
//!
//! All floating-point accumulators survive the JSON transport exactly:
//! the vendored `serde_json` prints `f64` with shortest-roundtrip
//! formatting, so `parse(print(x)) == x` bit-for-bit.

use super::{Accumulators, ChannelSoA, ChunkState, EngineRun, SliceArena, SliceRun};
use crate::control::{Controller, ControllerSnapshot};
use crate::env::TransferEnv;
use crate::plan::{ChunkPlan, TransferPlan};
use crate::report::{ChunkStat, TransferReport};
use crate::retry::{FaultRuntime, FaultState};
use eadt_sim::{Bytes, Fnv1a, SimDuration, SimTime, TimeSeries};
use eadt_telemetry::{EnergyLedger, MetricsRegistry, SpanCursor, Telemetry};
use serde::ser::Writer;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::borrow::Cow;

/// Version of the checkpoint schema. Bumped on any change to the
/// serialized layout; every reader checks it before decoding anything
/// else, and [`EngineRun::restore`] refuses checkpoints from another
/// version instead of misinterpreting them. Version 3 stores each piece
/// of run state once: controller state nested, chunk snapshots without
/// what the plan fixes, one fault record per server, and neither the
/// auditor's totals nor controller configuration.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;

/// Refuses a checkpoint document whose `key` field is not schema version
/// `want`, before anything else of it is decoded; `what` names the
/// document in the error.
pub fn check_schema_version(doc: &Value, key: &str, what: &str, want: u32) -> Result<(), String> {
    match doc[key].as_u64() {
        Some(got) if got == u64::from(want) => Ok(()),
        Some(got) => Err(format!(
            "{what} schema version {got} is not the supported {want}"
        )),
        None => Err(format!("{what}: no schema version `{key}`")),
    }
}

/// Progress of one file: full size (for restart-on-failure) and bytes
/// still to push. Also the engine's own queue and in-flight element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSnapshot {
    /// Full file size.
    pub size: Bytes,
    /// Bytes left to move.
    pub remaining: Bytes,
}

/// State of one data channel at the checkpoint boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelSnapshot {
    /// The file in flight, if any.
    pub current: Option<FileSnapshot>,
    /// Remaining control-channel gap (connection setup, inter-file, or
    /// failure backoff).
    pub gap: SimDuration,
    /// Remaining time-to-failure (fault injection only).
    pub ttf: Option<SimDuration>,
    /// Consecutive failures without intervening progress.
    pub consecutive: u32,
    /// Whether the current gap is a failure backoff.
    pub in_backoff: bool,
}

/// Mutable state of one chunk within the running stage. What the plan
/// fixes (label, parameters, byte and file counts) is not part of it: a
/// restore rebuilds that from the plan's chunk, which the fingerprint
/// binds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkSnapshot {
    /// When the chunk drained, if it already has.
    pub completed_at: Option<SimTime>,
    /// Files not yet assigned to a channel, front first.
    pub queue: Vec<FileSnapshot>,
    /// The chunk's channels in engine order.
    pub channels: Vec<ChannelSnapshot>,
    /// Channel target the controller has set.
    pub target: u32,
}

impl ChunkSnapshot {
    /// Captures chunk `ci`'s runtime state: the chunk itself plus its
    /// block of channel columns in the arena's SoA, re-materialized as
    /// per-channel records in engine order.
    pub(super) fn of(c: &ChunkState, a: &SliceArena, ci: usize) -> Self {
        let (ch, start) = (&a.ch, a.chunk_start[ci]);
        ChunkSnapshot {
            completed_at: c.completed_at,
            queue: c.queue.iter().cloned().collect(),
            channels: (start..start + a.chunk_len[ci])
                .map(|i| ChannelSnapshot {
                    current: ch.has_file[i].then(|| FileSnapshot {
                        size: ch.file_size[i],
                        remaining: ch.file_remaining[i],
                    }),
                    gap: ch.gap[i],
                    ttf: ch.ttf[i],
                    consecutive: ch.consecutive[i],
                    in_backoff: ch.in_backoff[i],
                })
                .collect(),
            target: c.target,
        }
    }

    /// Rebuilds the runtime state of plan chunk `cp` (whose files the plan
    /// still holds), appending its channels (as chunk `ci`) to the arena's
    /// SoA columns. Callers restore chunks in index order, preserving the
    /// chunk-major block layout.
    pub(super) fn into_state(self, cp: &ChunkPlan, ch: &mut ChannelSoA, ci: u32) -> ChunkState {
        for snap in self.channels {
            let (size, remaining) = snap
                .current
                .as_ref()
                .map_or((Bytes::ZERO, Bytes::ZERO), |f| (f.size, f.remaining));
            ch.push_row((
                ci,
                snap.gap,
                snap.ttf,
                snap.consecutive,
                snap.in_backoff,
                snap.current.is_some(),
                size,
                remaining,
            ));
        }
        let mut queue = std::collections::VecDeque::with_capacity(cp.files.len());
        queue.extend(self.queue);
        ChunkState::of_plan(cp, queue, self.completed_at, self.target)
    }
}

/// The full in-flight state of a run at a slice boundary.
///
/// Everything [`EngineRun::restore`] needs beyond the (reconstructible)
/// plan, environment, and controller configuration. The `fingerprint`
/// binds the checkpoint to that configuration so a resume against the
/// wrong plan fails loudly instead of silently diverging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// [`CHECKPOINT_SCHEMA_VERSION`] at capture time.
    pub version: u32,
    /// [`config_fingerprint`] of the plan and environment.
    pub fingerprint: u64,
    /// Index of the running stage.
    pub stage: u64,
    /// Simulated time at the boundary (start of the next slice).
    pub now: SimTime,
    /// Slices executed since the run began (replayed macro-step slices
    /// count individually).
    pub slices_done: u64,
    /// Secondary-estimator energy accumulated so far, Joules.
    pub estimated_energy_j: f64,
    /// Bytes booked as retransmission so far.
    pub retransmitted: Bytes,
    /// Energy-attribution ledger so far: both sites' phase and component
    /// buckets. The resumed run's report derives its per-site energy from
    /// the restored phase sums.
    pub ledger: EnergyLedger,
    /// End boundary (in `slices_done`) of the horizon span open at the
    /// boundary, if any (journaled runs only). The resumed run closes the
    /// span at this boundary instead of opening a new one.
    pub horizon_end: Option<u64>,
    /// Span cursors open at the boundary (journaled runs only): restored
    /// into the telemetry façade so `span_end` events in the resumed
    /// suffix match their `span_begin` ids from the prefix.
    pub open_spans: Vec<SpanCursor>,
    /// Goodput so far.
    pub moved_total: Bytes,
    /// Wire bytes (goodput inflated by congestion efficiency), exact
    /// f64 accumulator.
    pub wire_bytes_f: f64,
    /// Per-chunk stats of stages that already finished.
    pub chunk_stats: Vec<ChunkStat>,
    /// Per-slice throughput samples so far.
    pub throughput_series: TimeSeries,
    /// Per-slice total-power samples so far.
    pub power_series: TimeSeries,
    /// Per-slice concurrency samples so far.
    pub concurrency_series: TimeSeries,
    /// Runtime state of the running stage's chunks.
    pub chunks: Vec<ChunkSnapshot>,
    /// Last reported per-server power state, source side (edge memory
    /// for `power_state` events).
    pub prev_src_active: Vec<bool>,
    /// Last reported per-server power state, destination side.
    pub prev_dst_active: Vec<bool>,
    /// Fault-runtime state, present iff the environment has an active
    /// fault plan.
    pub faults: Option<FaultState>,
    /// The controller's mutable state.
    pub controller: ControllerSnapshot,
    /// The metrics registry, present iff the run sampled metrics.
    pub metrics: Option<MetricsRegistry>,
    /// Journal sequence cursor: the `seq` the next journaled event will
    /// carry. A resumed run journals only the suffix; concatenated with
    /// the prefix on disk it is byte-identical to an uninterrupted
    /// journal.
    pub journal_seq: u64,
}

impl EngineCheckpoint {
    /// Serializes the checkpoint as compact JSON (newline-terminated),
    /// byte-deterministic for identical states.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut Writer::compact(&mut s));
        s.push('\n');
        s
    }

    /// Parses a checkpoint serialized by [`EngineCheckpoint::to_json`],
    /// refusing another schema version before decoding the rest.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = serde::value::parse(text).map_err(|e| format!("checkpoint: {e}"))?;
        Self::check_version(&doc)?;
        Self::deser_value(&doc).map_err(|e| format!("checkpoint: {e}"))
    }

    /// Refuses an engine checkpoint document of another schema version.
    pub fn check_version(doc: &Value) -> Result<(), String> {
        check_schema_version(doc, "version", "checkpoint", CHECKPOINT_SCHEMA_VERSION)
    }
}

impl<'c> EngineRun<'c> {
    /// Rebuilds a run from a checkpoint read back from disk (cold) — the
    /// only resume path. The plan, the environment, the controller's type
    /// and `tel`'s sinks must be the ones the checkpoint was taken under;
    /// `tel`'s metrics and open spans are restored from it. The run then
    /// continues bit-exactly, its journal at
    /// [`EngineCheckpoint::journal_seq`].
    ///
    /// # Panics
    /// On a mismatch of schema version, fingerprint, stage, chunk count,
    /// fault-plan presence, controller kind, telemetry sinks or metrics
    /// cadence, and on a histogram whose counts do not fit its bounds.
    /// Callers that need a typed error (`eadt-ckpt`) validate first.
    pub fn restore(
        env: &TransferEnv,
        plan: Cow<'c, TransferPlan>,
        controller: Box<dyn Controller + 'c>,
        tel: &mut Telemetry,
        ck: EngineCheckpoint,
    ) -> Self {
        let mut run = SliceRun::fresh(env, plan, controller);
        assert_eq!(
            ck.version, CHECKPOINT_SCHEMA_VERSION,
            "checkpoint schema version mismatch"
        );
        assert_eq!(
            ck.fingerprint, run.fingerprint,
            "checkpoint was taken under a different plan/environment"
        );
        let stage = ck.stage as usize;
        assert!(
            stage < run.plan.stages.len(),
            "checkpoint stage {} out of range ({} stages)",
            ck.stage,
            run.plan.stages.len()
        );
        assert_eq!(
            ck.chunks.len(),
            run.plan.stages[stage].chunks.len(),
            "checkpoint chunk count does not match the stage"
        );
        let active = env.faults.as_ref().filter(|p| p.is_active());
        let (n_src, n_dst) = (env.src.servers.len(), env.dst.servers.len());
        run.runtime = match (active, ck.faults) {
            (Some(plan), Some(state)) => Some(FaultRuntime::restore(plan, n_src, n_dst, state)),
            (None, None) => None,
            #[expect(
                clippy::panic,
                reason = "resume tripwire, not a degradable path: a checkpoint whose fault state contradicts the environment must abort loudly instead of silently diverging (DESIGN.md §13); fleet sessions catch the panic and book a JobFailed outcome"
            )]
            (have_plan, snap) => panic!(
                "checkpoint fault state ({}) does not match the environment ({})",
                snap.as_ref().map_or("absent", |_| "present"),
                have_plan.map_or("no plan", |_| "active plan"),
            ),
        };
        #[expect(
            clippy::panic,
            reason = "resume tripwire, not a degradable path: a controller snapshot that fails kind/shape validation must abort loudly instead of resuming a divergent replay (DESIGN.md §13); fleet sessions catch the panic and book a JobFailed outcome"
        )]
        run.controller
            .restore(&ck.controller)
            .unwrap_or_else(|e| panic!("{e}"));
        // The checkpoint's registry continues the run's: the same cadence
        // (a configured cadence is positive) and sound histograms.
        let cadence = tel.metrics_ref().map(MetricsRegistry::cadence);
        assert!(
            cadence == ck.metrics.as_ref().map(MetricsRegistry::cadence)
                && ck.metrics.as_ref().is_none_or(MetricsRegistry::is_sound),
            "checkpoint metrics state does not match the telemetry configuration"
        );
        if let (Some(m), Some(saved)) = (tel.metrics(), ck.metrics) {
            *m = saved;
        }
        tel.set_open_spans(ck.open_spans);
        run.acc = Accumulators {
            now: ck.now,
            slices_done: ck.slices_done,
            estimated_energy: ck.estimated_energy_j,
            retransmitted: ck.retransmitted,
            chunk_stats: ck.chunk_stats,
            ledger: ck.ledger,
            horizon_end: ck.horizon_end,
            moved_total: ck.moved_total,
            wire_bytes_f: ck.wire_bytes_f,
            throughput_series: ck.throughput_series,
            power_series: ck.power_series,
            concurrency_series: ck.concurrency_series,
            prev_src_active: ck.prev_src_active,
            prev_dst_active: ck.prev_dst_active,
            ..Accumulators::default()
        };
        run.wire(tel);
        // The running stage resumes mid-way: no stage preamble.
        let mut a = SliceArena::default();
        a.begin_stage(ck.chunks.len());
        let planned = &run.plan.stages[stage].chunks;
        for (ci, (snap, cp)) in ck.chunks.into_iter().zip(planned).enumerate() {
            let start = a.ch.len();
            run.chunks.push(snap.into_state(cp, &mut a.ch, ci as u32));
            a.chunk_start[ci] = start;
            a.chunk_len[ci] = a.ch.len() - start;
            let in_flight = (start..a.ch.len()).filter(|&i| a.ch.has_file[i]).count();
            a.chunk_in_flight[ci] = in_flight as u32;
            a.chunk_remaining[ci] = run.chunks[ci].recount_remaining(&a, ci);
        }
        a.backoff = a.ch.in_backoff.contains(&true);
        run.rearm_audit(&a);
        (run.stage, run.staged) = (stage, true);
        run.release_files(stage);
        run.stage_caps(&mut a, env);
        EngineRun { run, arena: a }
    }

    /// The run's full in-flight state at its current slice boundary
    /// (cold), without consuming the run; `tel` must be the run's
    /// telemetry. The last slice journaled its fault-runtime events, and
    /// controllers journal as they decide, so no event is held back.
    ///
    /// # Panics
    /// On a run that discards its series
    /// ([`EngineRun::discard_series`]): a checkpoint carries them.
    pub fn snapshot(&self, tel: &Telemetry) -> EngineCheckpoint {
        let (run, a) = (&self.run, &self.arena);
        assert!(
            run.series,
            "cannot snapshot an engine run that discards its per-slice series: a checkpoint carries them"
        );
        let acc = &run.acc;
        EngineCheckpoint {
            version: CHECKPOINT_SCHEMA_VERSION,
            fingerprint: run.fingerprint,
            stage: run.stage as u64,
            now: acc.now,
            slices_done: acc.slices_done,
            estimated_energy_j: acc.estimated_energy,
            retransmitted: acc.retransmitted,
            ledger: acc.ledger,
            horizon_end: acc.horizon_end,
            open_spans: tel.open_spans().to_vec(),
            moved_total: acc.moved_total,
            wire_bytes_f: acc.wire_bytes_f,
            chunk_stats: acc.chunk_stats.clone(),
            throughput_series: acc.throughput_series.clone(),
            power_series: acc.power_series.clone(),
            concurrency_series: acc.concurrency_series.clone(),
            chunks: (run.chunks.iter().enumerate())
                .map(|(ci, c)| ChunkSnapshot::of(c, a, ci))
                .collect(),
            prev_src_active: acc.prev_src_active.clone(),
            prev_dst_active: acc.prev_dst_active.clone(),
            faults: run.runtime.as_ref().map(FaultRuntime::snapshot),
            controller: run.controller.snapshot(),
            metrics: tel.metrics_ref().cloned(),
            journal_seq: tel.journal().map_or(0, |j| j.next_seq()),
        }
    }
}

/// Fractional grant of externally-shared site resources applied to one
/// engine run.
///
/// When a transfer shares its site with other tenants
/// (`eadt_endsys::pool`), an arbiter outside the engine decides what
/// fraction of the link and disk capacity this transfer may use for the
/// leg being executed. The engine multiplies these factors into its
/// shared-capacity terms each slice: `bandwidth` scales the congested
/// link capacity, `src_disk`/`dst_disk` scale the per-server disk
/// aggregates. The default grant is `1.0` everywhere, which is an exact
/// floating-point identity — un-pooled runs are byte-for-byte unchanged.
///
/// The share is deliberately **not** part of the checkpoint or the
/// config fingerprint: a service recomputes grants deterministically
/// from pool membership every round, so each step of a run may carry a
/// different share (that is the whole point of re-arbitrating each
/// round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceShare {
    /// Fraction of the link bandwidth granted (0–1].
    pub bandwidth: f64,
    /// Fraction of the source site's disk aggregate granted (0–1].
    pub src_disk: f64,
    /// Fraction of the destination site's disk aggregate granted (0–1].
    pub dst_disk: f64,
}

impl ResourceShare {
    /// The whole-machine grant: every factor exactly `1.0`.
    pub const FULL: ResourceShare = ResourceShare {
        bandwidth: 1.0,
        src_disk: 1.0,
        dst_disk: 1.0,
    };
}

impl Default for ResourceShare {
    fn default() -> Self {
        ResourceShare::FULL
    }
}

/// How a one-call run ([`Engine::run_controlled`], an algorithm's
/// `run_controlled`) starts and stops: the cold wrapper over an
/// [`EngineRun`] that restores, steps once and snapshots.
///
/// [`Engine::run_controlled`]: super::Engine::run_controlled
#[derive(Debug, Default)]
pub struct RunControl {
    /// Resume from this checkpoint instead of starting fresh. The plan,
    /// environment and controller passed alongside must be the ones the
    /// checkpoint was taken under (fingerprint-checked).
    pub resume: Option<Box<EngineCheckpoint>>,
    /// Halt at the first slice boundary where the total executed slice
    /// count reaches this value, returning a checkpoint. `None` runs to
    /// completion. A halt inside a macro-stepped horizon cuts the replay
    /// at exactly this boundary — resuming recomputes the rest.
    pub halt_after: Option<u64>,
}

impl RunControl {
    /// Resume from a checkpoint and run to completion.
    pub fn resume_from(ck: EngineCheckpoint) -> Self {
        RunControl {
            resume: Some(Box::new(ck)),
            ..RunControl::default()
        }
    }

    /// Start fresh and halt once `slices` slices have executed.
    pub fn halt_at(slices: u64) -> Self {
        RunControl::default().with_halt(slices)
    }

    /// Caps this control with a halt boundary (keeps any resume state).
    pub fn with_halt(mut self, slices: u64) -> Self {
        self.halt_after = Some(slices);
        self
    }
}

/// What a one-call run ([`EngineRun::run_to`]) produced.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// The run finished (or hit the time guard): the full report.
    Done(TransferReport),
    /// The run halted at the requested boundary: the state to resume
    /// from.
    Halted(Box<EngineCheckpoint>),
}

impl RunOutcome {
    /// The report, when the run finished.
    pub fn into_report(self) -> Option<TransferReport> {
        match self {
            RunOutcome::Done(r) => Some(r),
            RunOutcome::Halted(_) => None,
        }
    }
}

/// A stable digest of the run configuration: plan shape (stages, chunk
/// labels/bytes/files/parameters), slice length, time guard, server
/// counts and link bandwidth. FNV-1a over the fields in declaration
/// order — not cryptographic, just a loud tripwire against resuming a
/// checkpoint under a different configuration.
pub fn config_fingerprint(env: &TransferEnv, plan: &TransferPlan) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&plan.total_bytes().as_u64().to_le_bytes());
    h.write(&(plan.stages.len() as u64).to_le_bytes());
    for stage in &plan.stages {
        for c in &stage.chunks {
            h.write(c.label.as_bytes());
            h.write(&c.total_bytes().as_u64().to_le_bytes());
            h.write(&(c.files.len() as u64).to_le_bytes());
            h.write(&c.channels.to_le_bytes());
            h.write(&c.pipelining.to_le_bytes());
            h.write(&c.parallelism.to_le_bytes());
        }
    }
    h.write(&env.tuning.slice.as_micros().to_le_bytes());
    h.write(&env.tuning.max_duration.as_micros().to_le_bytes());
    h.write(&(env.src.servers.len() as u64).to_le_bytes());
    h.write(&(env.dst.servers.len() as u64).to_le_bytes());
    h.write(&env.link.bandwidth.as_bps().to_bits().to_le_bytes());
    h.write(&env.link.rtt.as_micros().to_le_bytes());
    h.write(&[u8::from(env.faults.as_ref().is_some_and(|p| p.is_active()))]);
    h.finish()
}
