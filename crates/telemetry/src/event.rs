//! The typed event journal.
//!
//! Every interesting state change of a simulated transfer — channels
//! opening, failing and retrying, chunks starting and draining, controller
//! decisions, probe windows, breaker transitions, fault-episode windows,
//! power-state changes — is recorded as one [`Event`] wrapped in a
//! [`Record`] carrying a monotone sequence number and the simulated
//! timestamp. Records serialize to JSON Lines with a stable, versioned,
//! snake_case schema; identical seeds produce byte-identical journals,
//! which the determinism CI gate enforces.
//!
//! The line format is derived: each line is one flat object
//! `{"seq":N,"t_us":T,"ev":"<tag>",...fields}`, fields in declaration
//! order, an absent optional field left out, and floats printed as Rust's
//! `{}` prints them (`5`, not `5.0`). Parsing goes through the vendored
//! [`serde::value`] tree, so readers tolerate extra fields from newer
//! schema versions.

use eadt_sim::SimTime;
use serde::ser::Writer;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version of the journal schema. Bump on any breaking change to
/// [`Event`] field names or semantics; readers skip unknown fields, so
/// additive changes don't need a bump.
pub const SCHEMA_VERSION: u32 = 1;

/// Which end of the transfer a server-scoped event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Side {
    /// The sending site.
    Src,
    /// The receiving site.
    Dst,
}

impl Side {
    /// Stable journal spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Side::Src => "src",
            Side::Dst => "dst",
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Circuit-breaker states as they appear in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BreakerState {
    /// The breaker opened: the server is quarantined.
    Open,
    /// The cooldown expired: the next slice probes the server.
    HalfOpen,
    /// A successful probe closed the breaker.
    Closed,
}

impl BreakerState {
    /// Stable journal spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
            BreakerState::Closed => "closed",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fault-episode kinds (mirrors the fault taxonomy of `eadt-transfer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum EpisodeKind {
    /// A server-outage window.
    Outage,
    /// A control-channel stall window.
    Stall,
    /// A disk-degradation window.
    Disk,
}

impl EpisodeKind {
    /// Stable journal spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            EpisodeKind::Outage => "outage",
            EpisodeKind::Stall => "stall",
            EpisodeKind::Disk => "disk",
        }
    }
}

impl fmt::Display for EpisodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed simulation event.
///
/// The `ev` tag and all field names are part of the stable JSONL schema
/// (documented in DESIGN.md §9); readers ignore unknown fields, so new
/// fields may be added freely, but never rename existing ones without
/// bumping [`SCHEMA_VERSION`]. The `ev` tag is the variant name in
/// snake_case, the same string [`Event::tag`] returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "ev", rename_all = "snake_case", declaration_order)]
pub enum Event {
    /// Emitted once by the tracer before the engine starts.
    RunStart {
        /// Journal schema version ([`SCHEMA_VERSION`]).
        schema: u32,
        /// Algorithm display name.
        algorithm: String,
        /// Environment / testbed name.
        environment: String,
        /// Dataset seed.
        seed: u64,
        /// Bytes the plan asks to move.
        requested_bytes: u64,
    },
    /// A stage of the plan began executing.
    StageStart {
        /// Stage index within the plan.
        stage: u32,
    },
    /// A chunk entered service (start of its stage).
    ChunkStart {
        /// Chunk index within the stage.
        chunk: u32,
        /// Chunk label (usually the size class).
        label: String,
        /// Bytes the chunk carries.
        bytes: u64,
        /// Files in the chunk.
        files: u64,
    },
    /// A chunk moved its last byte.
    ChunkDrain {
        /// Chunk index within the stage.
        chunk: u32,
        /// Chunk label.
        label: String,
    },
    /// Channels were added to a chunk (engine synced up to target).
    ChannelOpen {
        /// Chunk index.
        chunk: u32,
        /// Channels added this slice.
        opened: u32,
        /// Channel count after the sync.
        count: u32,
    },
    /// Channels were removed from a chunk.
    ChannelClose {
        /// Chunk index.
        chunk: u32,
        /// Channels removed this slice.
        closed: u32,
        /// Channel count after the sync.
        count: u32,
    },
    /// A data channel was killed by the fault runtime.
    ChannelFail {
        /// Chunk index.
        chunk: u32,
        /// Channel slot within the chunk.
        channel: u32,
        /// Failure cause (`channel` TTF expiry or server `outage`).
        cause: String,
        /// Source-site server the channel was placed on.
        src_server: u32,
        /// Destination-site server the channel was placed on.
        dst_server: u32,
    },
    /// A killed channel scheduled its reconnect through the retry policy.
    ChannelRetry {
        /// Chunk index.
        chunk: u32,
        /// Channel slot within the chunk.
        channel: u32,
        /// Consecutive-failure count driving the backoff (0-based).
        attempt: u32,
        /// Reconnect delay, microseconds.
        delay_us: u64,
        /// True when the retry budget was exhausted (full cooldown).
        exhausted: bool,
    },
    /// The engine applied a controller reallocation.
    Reallocate {
        /// New channel target per chunk of the running stage.
        targets: Vec<u32>,
    },
    /// A controller-authored decision with its reason.
    Decision {
        /// Human-readable reason ("probe level 3", "shed to 50%", …).
        reason: String,
        /// Channel targets the decision implies (empty when none).
        targets: Vec<u32>,
    },
    /// One finished probe window of HTEE's online search.
    ProbeWindow {
        /// Concurrency level probed.
        level: u32,
        /// Window length, seconds.
        window_s: f64,
        /// Mean throughput measured over the window, Mbps.
        mbps: f64,
        /// End-system energy attributed to the window, Joules.
        energy_j: f64,
        /// The whole-transfer throughput²/energy score of the window.
        ratio: f64,
    },
    /// The online search committed to a level.
    Commit {
        /// The winning concurrency level.
        level: u32,
        /// Why ("best measured ratio", …).
        reason: String,
    },
    /// A per-server circuit breaker changed state.
    Breaker {
        /// Which site the server belongs to.
        side: Side,
        /// Server index within the site.
        server: u32,
        /// The state entered.
        state: BreakerState,
    },
    /// A fault-injection episode window opened or closed.
    FaultEpisode {
        /// Episode kind.
        kind: EpisodeKind,
        /// Site of the affected server (absent for path-wide stalls).
        #[serde(skip_serializing_if = "Option::is_none")]
        side: Option<Side>,
        /// Affected server (absent for path-wide stalls).
        #[serde(skip_serializing_if = "Option::is_none")]
        server: Option<u32>,
        /// True when the window opened, false when it closed.
        active: bool,
    },
    /// A server started or stopped carrying working channels (its power
    /// draw transitions between idle and active).
    PowerState {
        /// Which site the server belongs to.
        side: Side,
        /// Server index within the site.
        server: u32,
        /// True when the server picked up its first working channel.
        active: bool,
    },
    /// A causal span opened (probe window, retry chain, quarantine,
    /// macro-step horizon, …). Emitters may leave `id` as 0; the
    /// [`Telemetry`](crate::Telemetry) façade then assigns the
    /// deterministic id `1 + seq` of this record and fills `parent` with
    /// the innermost still-open span (0 = root).
    SpanBegin {
        /// Deterministic span id (`1 + seq` of the begin record).
        id: u64,
        /// Id of the enclosing open span, 0 when the span is top-level.
        parent: u64,
        /// Span taxonomy kind (`probe`, `retry`, `quarantine`, `horizon`,
        /// `rearrange`, …; see DESIGN.md §14).
        kind: String,
        /// Free-text detail (probed level, server, horizon source, …).
        detail: String,
    },
    /// A causal span closed. Emitters may leave `id` as 0 and `detail`
    /// empty; the façade matches the innermost open span of the same
    /// `kind` (and `detail`, when given) and fills the id in.
    SpanEnd {
        /// Id assigned by the matching [`Event::SpanBegin`] (0 when no
        /// open span matched).
        id: u64,
        /// Span taxonomy kind, mirrors the begin record.
        kind: String,
        /// Free-text detail (may differ from the begin's, e.g. an
        /// outcome annotation).
        detail: String,
    },
    /// A periodic metrics sample (cadence set by the tracer).
    Sample {
        /// Aggregate goodput over the last slice, Mbps.
        throughput_mbps: f64,
        /// Instantaneous total power (both sites), Watts.
        power_w: f64,
        /// Total data channels.
        concurrency: u32,
        /// Channels waiting out a backoff/cooldown.
        in_backoff: u32,
        /// Files still queued (not in flight) across all chunks.
        queue_depth: u64,
    },
    /// Emitted once when the engine returns.
    RunEnd {
        /// Goodput bytes moved.
        moved_bytes: u64,
        /// Simulated duration, seconds.
        duration_s: f64,
        /// Total end-system energy, Joules.
        energy_j: f64,
        /// Whether every file finished before the time guard.
        completed: bool,
    },
    /// A job arrived at the continuous fleet service and joined the
    /// admission queue.
    JobSubmitted {
        /// Service-wide job index.
        job: u32,
        /// Owning tenant index.
        tenant: u32,
        /// Site whose pool the job contends for.
        site: String,
        /// Priority class (higher wins under strict-priority).
        priority: u32,
    },
    /// Admission control moved a queued job into a site's resource pool.
    JobAdmitted {
        /// Service-wide job index.
        job: u32,
        /// Site whose pool admitted the job.
        site: String,
        /// Transfers resident at the site after admission.
        resident: u32,
        /// Jobs still waiting in the queue after admission.
        waiting: u32,
    },
    /// The scheduler evicted a running job from its site pool (its engine
    /// checkpoint goes back to the queue for a later resume).
    JobPreempted {
        /// Service-wide job index.
        job: u32,
        /// The higher-priority job that displaced it (absent when the
        /// eviction had no single displacing job, e.g. a zero grant).
        #[serde(skip_serializing_if = "Option::is_none")]
        by: Option<u32>,
        /// Site whose pool evicted the job.
        site: String,
    },
    /// A previously-preempted job re-entered a site pool and resumed from
    /// its checkpoint.
    JobResumed {
        /// Service-wide job index.
        job: u32,
        /// Site whose pool re-admitted the job.
        site: String,
        /// Scheduling round at which the resume happened.
        round: u64,
    },
    /// A service job ran to completion and left its site pool.
    JobFinished {
        /// Service-wide job index.
        job: u32,
        /// Whether the transfer finished before the time guard.
        completed: bool,
        /// Goodput bytes the job moved.
        moved_bytes: u64,
    },
}

impl Event {
    /// Short tag used in the `ev` field and by timeline/trace renderers.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::StageStart { .. } => "stage_start",
            Event::ChunkStart { .. } => "chunk_start",
            Event::ChunkDrain { .. } => "chunk_drain",
            Event::ChannelOpen { .. } => "channel_open",
            Event::ChannelClose { .. } => "channel_close",
            Event::ChannelFail { .. } => "channel_fail",
            Event::ChannelRetry { .. } => "channel_retry",
            Event::Reallocate { .. } => "reallocate",
            Event::Decision { .. } => "decision",
            Event::ProbeWindow { .. } => "probe_window",
            Event::Commit { .. } => "commit",
            Event::Breaker { .. } => "breaker",
            Event::FaultEpisode { .. } => "fault_episode",
            Event::PowerState { .. } => "power_state",
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::Sample { .. } => "sample",
            Event::RunEnd { .. } => "run_end",
            Event::JobSubmitted { .. } => "job_submitted",
            Event::JobAdmitted { .. } => "job_admitted",
            Event::JobPreempted { .. } => "job_preempted",
            Event::JobResumed { .. } => "job_resumed",
            Event::JobFinished { .. } => "job_finished",
        }
    }
}

/// One journal line: a sequence number, a timestamp and the event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(declaration_order)]
pub struct Record {
    /// Monotone sequence number (0-based), total order of the journal.
    pub seq: u64,
    /// Simulated time of the event, microseconds since transfer start.
    pub t_us: u64,
    /// The event itself, flattened into the same JSON object on disk.
    #[serde(flatten)]
    pub event: Event,
}

impl Record {
    /// Simulated timestamp as [`SimTime`].
    pub fn time(&self) -> SimTime {
        SimTime::from_micros(self.t_us)
    }

    /// Serializes the record as one compact JSON object:
    /// `{"seq":N,"t_us":T,"ev":"<tag>",...}` with fields in declaration
    /// order. Byte-deterministic for identical records.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut line_writer(&mut s));
        s
    }

    /// Parses one JSON journal line. Unknown fields are ignored, so
    /// journals from newer (additive) schema versions stay readable.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = serde::value::parse(line).map_err(|e| e.to_string())?;
        Record::deser_value(&v).map_err(|e| e.to_string())
    }
}

/// The writer of journal lines and of what is rendered from them: compact,
/// with floats printed as Rust's `{}` prints them (`"window_s":5`), where
/// reports and checkpoints print `5.0`.
pub(crate) fn line_writer(s: &mut String) -> Writer<'_> {
    Writer::compact(s).bare_floats()
}

/// What [`Journal::recover_jsonl`] found while reading a journal that
/// may have been truncated by a crash.
///
/// A crash-interrupted writer can leave exactly one kind of damage in
/// an append-only JSONL file: an incomplete **final** line. Recovery
/// repairs that (drops the torn tail and reports it) but refuses to
/// paper over corruption anywhere else — a malformed line in the middle
/// means the file is not a journal we wrote, and recovery hard-errors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JournalRecovery {
    /// The torn final line that was dropped, verbatim, when the last
    /// non-blank line failed to parse. `None` for a clean journal.
    pub torn_tail: Option<String>,
    /// Number of blank (whitespace-only) lines skipped.
    pub blank_lines: usize,
    /// 1-based line number of the first record retained, for reporting.
    pub first_line: Option<usize>,
}

impl JournalRecovery {
    /// True when the file parsed without repair.
    pub fn is_clean(&self) -> bool {
        self.torn_tail.is_none()
    }
}

/// An in-memory, append-only event journal.
///
/// The engine records into it through
/// [`Telemetry`](crate::Telemetry); afterwards it serializes to JSON
/// Lines (one [`Record`] per line) or is inspected directly.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    records: Vec<Record>,
    /// Sequence number the next [`Journal::record`] call will assign.
    /// Equals `records.len()` for journals built from scratch; resumed
    /// journals (checkpoint restore) start past the checkpoint cursor.
    next_seq: u64,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Journal {
            records: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty journal whose first record will carry sequence
    /// number `seq`. Used on checkpoint resume: the restored engine
    /// journals only the suffix of the run, continuing the sequence of
    /// the journal prefix already on disk so the concatenation is
    /// byte-identical to an uninterrupted run.
    pub fn with_start_seq(seq: u64) -> Self {
        Journal {
            records: Vec::new(),
            next_seq: seq,
        }
    }

    /// Appends an event at the given simulated time, assigning the next
    /// sequence number.
    pub fn record(&mut self, t: SimTime, event: Event) {
        self.records.push(Record {
            seq: self.next_seq,
            t_us: t.as_micros(),
            event,
        });
        self.next_seq += 1;
    }

    /// Sequence number the next recorded event will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// All records in sequence order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the journal as JSON Lines, one [`Record::to_json`] line
    /// per record. Output is byte-deterministic for identical event
    /// streams.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            r.write_json(&mut line_writer(&mut out));
            out.push('\n');
        }
        out
    }

    /// Parses a JSON Lines journal (blank lines are skipped).
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let r = Record::from_json(line).map_err(|e| format!("journal line {}: {e}", i + 1))?;
            records.push(r);
        }
        let next_seq = records.last().map(|r: &Record| r.seq + 1).unwrap_or(0);
        Ok(Journal { records, next_seq })
    }

    /// Parses a JSON Lines journal that may have been truncated by a
    /// crash, repairing a torn final line.
    ///
    /// Rules, strictest first:
    ///
    /// * Blank (whitespace-only) lines anywhere are skipped and counted
    ///   in [`JournalRecovery::blank_lines`] — a crashed writer can leave
    ///   a lone trailing newline, and runs of blanks are harmless.
    /// * A line that fails to parse is tolerated **only** when every
    ///   later line is blank — i.e. it is the torn tail of the file. It
    ///   is dropped and returned verbatim in [`JournalRecovery::torn_tail`].
    /// * A malformed line followed by any non-blank line is corruption,
    ///   not truncation: hard error with the 1-based line number.
    /// * Sequence numbers of retained records must be consecutive;
    ///   a gap is a hard error (a torn *middle* cannot be repaired).
    pub fn recover_jsonl(text: &str) -> Result<(Self, JournalRecovery), String> {
        let mut records: Vec<Record> = Vec::new();
        let mut recovery = JournalRecovery::default();
        // (line number, verbatim text, parse error) of a failed line,
        // held until we know whether anything non-blank follows it.
        let mut pending_bad: Option<(usize, String, String)> = None;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                recovery.blank_lines += 1;
                continue;
            }
            if let Some((bad_line, _, err)) = pending_bad.take() {
                return Err(format!(
                    "journal line {bad_line}: {err} (not a torn tail: non-blank line {} follows)",
                    i + 1
                ));
            }
            match Record::from_json(line) {
                Ok(r) => {
                    if let Some(prev) = records.last() {
                        if r.seq != prev.seq + 1 {
                            return Err(format!(
                                "journal line {}: sequence gap ({} after {})",
                                i + 1,
                                r.seq,
                                prev.seq
                            ));
                        }
                    }
                    if records.is_empty() {
                        recovery.first_line = Some(i + 1);
                    }
                    records.push(r);
                }
                Err(e) => pending_bad = Some((i + 1, line.to_string(), e)),
            }
        }
        if let Some((_, text, _)) = pending_bad {
            recovery.torn_tail = Some(text);
        }
        let next_seq = records.last().map(|r| r.seq + 1).unwrap_or(0);
        Ok((Journal { records, next_seq }, recovery))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn journal_assigns_monotone_sequence_numbers() {
        let mut j = Journal::new();
        assert!(j.is_empty());
        j.record(t(0.0), Event::StageStart { stage: 0 });
        j.record(
            t(0.1),
            Event::ChannelOpen {
                chunk: 0,
                opened: 2,
                count: 2,
            },
        );
        assert_eq!(j.len(), 2);
        assert_eq!(j.records()[0].seq, 0);
        assert_eq!(j.records()[1].seq, 1);
        assert_eq!(j.records()[1].t_us, 100_000);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let mut j = Journal::new();
        let events = vec![
            Event::RunStart {
                schema: SCHEMA_VERSION,
                algorithm: "HTEE".into(),
                environment: "didclab".into(),
                seed: 42,
                requested_bytes: 1000,
            },
            Event::StageStart { stage: 0 },
            Event::ChunkStart {
                chunk: 0,
                label: "Small".into(),
                bytes: 500,
                files: 3,
            },
            Event::ChannelOpen {
                chunk: 0,
                opened: 1,
                count: 1,
            },
            Event::ChannelFail {
                chunk: 0,
                channel: 0,
                cause: "outage".into(),
                src_server: 0,
                dst_server: 1,
            },
            Event::ChannelRetry {
                chunk: 0,
                channel: 0,
                attempt: 1,
                delay_us: 4_000_000,
                exhausted: false,
            },
            Event::Breaker {
                side: Side::Dst,
                server: 1,
                state: BreakerState::Open,
            },
            Event::FaultEpisode {
                kind: EpisodeKind::Stall,
                side: None,
                server: None,
                active: true,
            },
            Event::FaultEpisode {
                kind: EpisodeKind::Outage,
                side: Some(Side::Src),
                server: Some(2),
                active: false,
            },
            Event::ProbeWindow {
                level: 3,
                window_s: 5.0,
                mbps: 812.5,
                energy_j: 950.0,
                ratio: 694.9,
            },
            Event::Commit {
                level: 5,
                reason: "best measured ratio".into(),
            },
            Event::Decision {
                reason: "shed to 50% capacity".into(),
                targets: vec![2, 1],
            },
            Event::Reallocate {
                targets: vec![2, 1],
            },
            Event::PowerState {
                side: Side::Src,
                server: 0,
                active: true,
            },
            Event::SpanBegin {
                id: 10,
                parent: 3,
                kind: "probe".into(),
                detail: "level 3".into(),
            },
            Event::SpanEnd {
                id: 10,
                kind: "probe".into(),
                detail: "ratio 694.9".into(),
            },
            Event::Sample {
                throughput_mbps: 420.0,
                power_w: 310.5,
                concurrency: 4,
                in_backoff: 1,
                queue_depth: 12,
            },
            Event::ChannelClose {
                chunk: 0,
                closed: 1,
                count: 0,
            },
            Event::ChunkDrain {
                chunk: 0,
                label: "Small".into(),
            },
            Event::RunEnd {
                moved_bytes: 1000,
                duration_s: 12.5,
                energy_j: 4210.0,
                completed: true,
            },
            Event::Decision {
                reason: "hold".into(),
                targets: vec![],
            },
            Event::JobSubmitted {
                job: 3,
                tenant: 1,
                site: "didclab".into(),
                priority: 9,
            },
            Event::JobAdmitted {
                job: 3,
                site: "didclab".into(),
                resident: 2,
                waiting: 0,
            },
            Event::JobPreempted {
                job: 1,
                by: Some(3),
                site: "didclab".into(),
            },
            Event::JobPreempted {
                job: 2,
                by: None,
                site: "didclab".into(),
            },
            Event::JobResumed {
                job: 1,
                site: "didclab".into(),
                round: 17,
            },
            Event::JobFinished {
                job: 3,
                completed: true,
                moved_bytes: 2048,
            },
        ];
        for (i, e) in events.into_iter().enumerate() {
            j.record(t(i as f64), e);
        }
        let text = j.to_jsonl();
        assert_eq!(text, EVERY_VARIANT_JSONL, "journal bytes changed");
        for (line, r) in text.lines().zip(j.records()) {
            let v = serde::value::parse(line).unwrap();
            assert_eq!(v["ev"], r.event.tag(), "{line}");
        }
        let back = Journal::from_jsonl(&text).unwrap();
        assert_eq!(back.records(), j.records());
        assert_eq!(back.to_jsonl(), text, "serialization is deterministic");
    }

    /// The bytes of `jsonl_round_trips_every_variant`'s journal: every
    /// variant, integral floats printed without a fraction (`"window_s":5`)
    /// and absent options left out.
    const EVERY_VARIANT_JSONL: &str = r#"{"seq":0,"t_us":0,"ev":"run_start","schema":1,"algorithm":"HTEE","environment":"didclab","seed":42,"requested_bytes":1000}
{"seq":1,"t_us":1000000,"ev":"stage_start","stage":0}
{"seq":2,"t_us":2000000,"ev":"chunk_start","chunk":0,"label":"Small","bytes":500,"files":3}
{"seq":3,"t_us":3000000,"ev":"channel_open","chunk":0,"opened":1,"count":1}
{"seq":4,"t_us":4000000,"ev":"channel_fail","chunk":0,"channel":0,"cause":"outage","src_server":0,"dst_server":1}
{"seq":5,"t_us":5000000,"ev":"channel_retry","chunk":0,"channel":0,"attempt":1,"delay_us":4000000,"exhausted":false}
{"seq":6,"t_us":6000000,"ev":"breaker","side":"dst","server":1,"state":"open"}
{"seq":7,"t_us":7000000,"ev":"fault_episode","kind":"stall","active":true}
{"seq":8,"t_us":8000000,"ev":"fault_episode","kind":"outage","side":"src","server":2,"active":false}
{"seq":9,"t_us":9000000,"ev":"probe_window","level":3,"window_s":5,"mbps":812.5,"energy_j":950,"ratio":694.9}
{"seq":10,"t_us":10000000,"ev":"commit","level":5,"reason":"best measured ratio"}
{"seq":11,"t_us":11000000,"ev":"decision","reason":"shed to 50% capacity","targets":[2,1]}
{"seq":12,"t_us":12000000,"ev":"reallocate","targets":[2,1]}
{"seq":13,"t_us":13000000,"ev":"power_state","side":"src","server":0,"active":true}
{"seq":14,"t_us":14000000,"ev":"span_begin","id":10,"parent":3,"kind":"probe","detail":"level 3"}
{"seq":15,"t_us":15000000,"ev":"span_end","id":10,"kind":"probe","detail":"ratio 694.9"}
{"seq":16,"t_us":16000000,"ev":"sample","throughput_mbps":420,"power_w":310.5,"concurrency":4,"in_backoff":1,"queue_depth":12}
{"seq":17,"t_us":17000000,"ev":"channel_close","chunk":0,"closed":1,"count":0}
{"seq":18,"t_us":18000000,"ev":"chunk_drain","chunk":0,"label":"Small"}
{"seq":19,"t_us":19000000,"ev":"run_end","moved_bytes":1000,"duration_s":12.5,"energy_j":4210,"completed":true}
{"seq":20,"t_us":20000000,"ev":"decision","reason":"hold","targets":[]}
{"seq":21,"t_us":21000000,"ev":"job_submitted","job":3,"tenant":1,"site":"didclab","priority":9}
{"seq":22,"t_us":22000000,"ev":"job_admitted","job":3,"site":"didclab","resident":2,"waiting":0}
{"seq":23,"t_us":23000000,"ev":"job_preempted","job":1,"by":3,"site":"didclab"}
{"seq":24,"t_us":24000000,"ev":"job_preempted","job":2,"site":"didclab"}
{"seq":25,"t_us":25000000,"ev":"job_resumed","job":1,"site":"didclab","round":17}
{"seq":26,"t_us":26000000,"ev":"job_finished","job":3,"completed":true,"moved_bytes":2048}
"#;

    #[test]
    fn jsonl_lines_carry_the_tag_field() {
        let mut j = Journal::new();
        j.record(t(1.0), Event::StageStart { stage: 2 });
        let line = j.to_jsonl();
        assert_eq!(
            line,
            "{\"seq\":0,\"t_us\":1000000,\"ev\":\"stage_start\",\"stage\":2}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let r = Record {
            seq: 0,
            t_us: 0,
            event: Event::Commit {
                level: 1,
                reason: "a \"quoted\"\nline\\".into(),
            },
        };
        let text = r.to_json();
        let back = Record::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let r = Record::from_json(
            r#"{"seq":7,"t_us":100,"ev":"stage_start","stage":1,"future_field":"x"}"#,
        )
        .unwrap();
        assert_eq!(r.seq, 7);
        assert_eq!(r.event, Event::StageStart { stage: 1 });
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = Journal::from_jsonl("{\"seq\":0}\nnot json\n").unwrap_err();
        assert!(err.contains("line 1") || err.contains("line 2"), "{err}");
    }

    #[test]
    fn with_start_seq_continues_numbering() {
        let mut j = Journal::with_start_seq(41);
        assert_eq!(j.next_seq(), 41);
        j.record(t(1.0), Event::StageStart { stage: 1 });
        j.record(t(2.0), Event::StageStart { stage: 2 });
        assert_eq!(j.records()[0].seq, 41);
        assert_eq!(j.records()[1].seq, 42);
        assert_eq!(j.next_seq(), 43);
    }

    #[test]
    fn from_jsonl_continues_seq_after_parse() {
        let mut j = Journal::new();
        j.record(t(0.0), Event::StageStart { stage: 0 });
        j.record(t(1.0), Event::StageStart { stage: 1 });
        let mut back = Journal::from_jsonl(&j.to_jsonl()).unwrap();
        back.record(t(2.0), Event::StageStart { stage: 2 });
        assert_eq!(back.records()[2].seq, 2);
    }

    #[test]
    fn recover_clean_journal_reports_no_repair() {
        let mut j = Journal::new();
        j.record(t(0.0), Event::StageStart { stage: 0 });
        j.record(t(1.0), Event::StageStart { stage: 1 });
        let (back, rec) = Journal::recover_jsonl(&j.to_jsonl()).unwrap();
        assert!(rec.is_clean());
        assert_eq!(rec.blank_lines, 0);
        assert_eq!(rec.first_line, Some(1));
        assert_eq!(back.records(), j.records());
        assert_eq!(back.next_seq(), 2);
    }

    #[test]
    fn recover_drops_and_reports_torn_final_line() {
        let mut j = Journal::new();
        j.record(t(0.0), Event::StageStart { stage: 0 });
        j.record(t(1.0), Event::StageStart { stage: 1 });
        let full = j.to_jsonl();
        // Simulate a crash mid-write: cut the last line in half.
        let torn = &full[..full.len() - 12];
        let (back, rec) = Journal::recover_jsonl(torn).unwrap();
        assert_eq!(back.len(), 1, "only the complete record survives");
        assert_eq!(back.records()[0].seq, 0);
        assert!(!rec.is_clean());
        let tail = rec.torn_tail.expect("torn tail must be reported");
        assert!(full.contains(&tail), "tail is reported verbatim: {tail}");
    }

    #[test]
    fn recover_tolerates_trailing_garbage_followed_only_by_blanks() {
        let mut j = Journal::new();
        j.record(t(0.0), Event::StageStart { stage: 0 });
        let text = format!("{}{{\"seq\":1,\"t_us\"\n\n  \n", j.to_jsonl());
        let (back, rec) = Journal::recover_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(rec.torn_tail.as_deref(), Some("{\"seq\":1,\"t_us\""));
        assert_eq!(rec.blank_lines, 2);
    }

    #[test]
    fn recover_counts_blank_line_runs() {
        let mut j = Journal::new();
        j.record(t(0.0), Event::StageStart { stage: 0 });
        j.record(t(1.0), Event::StageStart { stage: 1 });
        let full = j.to_jsonl();
        let lines: Vec<&str> = full.lines().collect();
        let text = format!("\n\n{}\n \n\t\n{}\n\n", lines[0], lines[1]);
        let (back, rec) = Journal::recover_jsonl(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert!(rec.is_clean());
        assert_eq!(rec.blank_lines, 5);
        assert_eq!(rec.first_line, Some(3));
    }

    #[test]
    fn recover_rejects_malformed_line_in_the_middle() {
        let mut j = Journal::new();
        j.record(t(0.0), Event::StageStart { stage: 0 });
        j.record(t(1.0), Event::StageStart { stage: 1 });
        let full = j.to_jsonl();
        let lines: Vec<&str> = full.lines().collect();
        let text = format!("{}\nnot json\n{}\n", lines[0], lines[1]);
        let err = Journal::recover_jsonl(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("not a torn tail"), "{err}");
    }

    #[test]
    fn recover_rejects_sequence_gaps() {
        let text = concat!(
            "{\"seq\":0,\"t_us\":0,\"ev\":\"stage_start\",\"stage\":0}\n",
            "{\"seq\":2,\"t_us\":5,\"ev\":\"stage_start\",\"stage\":1}\n",
        );
        let err = Journal::recover_jsonl(text).unwrap_err();
        assert!(err.contains("sequence gap"), "{err}");
    }

    #[test]
    fn optional_fault_episode_fields_are_omitted() {
        let mut j = Journal::new();
        j.record(
            t(0.0),
            Event::FaultEpisode {
                kind: EpisodeKind::Stall,
                side: None,
                server: None,
                active: true,
            },
        );
        let line = j.to_jsonl();
        assert!(!line.contains("side"), "{line}");
        assert!(!line.contains("server"), "{line}");
    }
}
