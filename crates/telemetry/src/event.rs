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
//! The vendored serde derive emits externally-tagged enums with no field
//! ordering control, so the journal hand-rolls its line format instead:
//! a flat object `{"seq":N,"t_us":T,"ev":"<tag>",...fields}` with fields
//! in declaration order. Parsing goes through the vendored
//! [`serde::value`] tree, so readers tolerate extra fields from newer
//! schema versions.

use eadt_sim::SimTime;
use serde::value::{Map, Value};
use std::fmt::{self, Write as _};

/// Version of the journal schema. Bump on any breaking change to
/// [`Event`] field names or semantics; readers skip unknown fields, so
/// additive changes don't need a bump.
pub const SCHEMA_VERSION: u32 = 1;

/// Which end of the transfer a server-scoped event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "src" => Ok(Side::Src),
            "dst" => Ok(Side::Dst),
            other => Err(format!("unknown side `{other}`")),
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Circuit-breaker states as they appear in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "open" => Ok(BreakerState::Open),
            "half_open" => Ok(BreakerState::HalfOpen),
            "closed" => Ok(BreakerState::Closed),
            other => Err(format!("unknown breaker state `{other}`")),
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Fault-episode kinds (mirrors the fault taxonomy of `eadt-transfer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "outage" => Ok(EpisodeKind::Outage),
            "stall" => Ok(EpisodeKind::Stall),
            "disk" => Ok(EpisodeKind::Disk),
            other => Err(format!("unknown episode kind `{other}`")),
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
/// bumping [`SCHEMA_VERSION`].
#[derive(Debug, Clone, PartialEq)]
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
        side: Option<Side>,
        /// Affected server (absent for path-wide stalls).
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

    /// Writes the variant's fields (each preceded by a comma) onto a
    /// JSON object body in declaration order.
    fn write_fields(&self, s: &mut String) {
        match self {
            Event::RunStart {
                schema,
                algorithm,
                environment,
                seed,
                requested_bytes,
            } => {
                let _ = write!(s, ",\"schema\":{schema},\"algorithm\":");
                write_json_str(s, algorithm);
                s.push_str(",\"environment\":");
                write_json_str(s, environment);
                let _ = write!(s, ",\"seed\":{seed},\"requested_bytes\":{requested_bytes}");
            }
            Event::StageStart { stage } => {
                let _ = write!(s, ",\"stage\":{stage}");
            }
            Event::ChunkStart {
                chunk,
                label,
                bytes,
                files,
            } => {
                let _ = write!(s, ",\"chunk\":{chunk},\"label\":");
                write_json_str(s, label);
                let _ = write!(s, ",\"bytes\":{bytes},\"files\":{files}");
            }
            Event::ChunkDrain { chunk, label } => {
                let _ = write!(s, ",\"chunk\":{chunk},\"label\":");
                write_json_str(s, label);
            }
            Event::ChannelOpen {
                chunk,
                opened,
                count,
            } => {
                let _ = write!(
                    s,
                    ",\"chunk\":{chunk},\"opened\":{opened},\"count\":{count}"
                );
            }
            Event::ChannelClose {
                chunk,
                closed,
                count,
            } => {
                let _ = write!(
                    s,
                    ",\"chunk\":{chunk},\"closed\":{closed},\"count\":{count}"
                );
            }
            Event::ChannelFail {
                chunk,
                channel,
                cause,
                src_server,
                dst_server,
            } => {
                let _ = write!(s, ",\"chunk\":{chunk},\"channel\":{channel},\"cause\":");
                write_json_str(s, cause);
                let _ = write!(
                    s,
                    ",\"src_server\":{src_server},\"dst_server\":{dst_server}"
                );
            }
            Event::ChannelRetry {
                chunk,
                channel,
                attempt,
                delay_us,
                exhausted,
            } => {
                let _ = write!(
                    s,
                    ",\"chunk\":{chunk},\"channel\":{channel},\"attempt\":{attempt},\
                     \"delay_us\":{delay_us},\"exhausted\":{exhausted}"
                );
            }
            Event::Reallocate { targets } => {
                s.push_str(",\"targets\":");
                write_u32_array(s, targets);
            }
            Event::Decision { reason, targets } => {
                s.push_str(",\"reason\":");
                write_json_str(s, reason);
                s.push_str(",\"targets\":");
                write_u32_array(s, targets);
            }
            Event::ProbeWindow {
                level,
                window_s,
                mbps,
                energy_j,
                ratio,
            } => {
                let _ = write!(s, ",\"level\":{level},\"window_s\":");
                write_json_f64(s, *window_s);
                s.push_str(",\"mbps\":");
                write_json_f64(s, *mbps);
                s.push_str(",\"energy_j\":");
                write_json_f64(s, *energy_j);
                s.push_str(",\"ratio\":");
                write_json_f64(s, *ratio);
            }
            Event::Commit { level, reason } => {
                let _ = write!(s, ",\"level\":{level},\"reason\":");
                write_json_str(s, reason);
            }
            Event::Breaker {
                side,
                server,
                state,
            } => {
                let _ = write!(
                    s,
                    ",\"side\":\"{}\",\"server\":{server},\"state\":\"{}\"",
                    side.as_str(),
                    state.as_str()
                );
            }
            Event::FaultEpisode {
                kind,
                side,
                server,
                active,
            } => {
                let _ = write!(s, ",\"kind\":\"{}\"", kind.as_str());
                if let Some(side) = side {
                    let _ = write!(s, ",\"side\":\"{}\"", side.as_str());
                }
                if let Some(server) = server {
                    let _ = write!(s, ",\"server\":{server}");
                }
                let _ = write!(s, ",\"active\":{active}");
            }
            Event::PowerState {
                side,
                server,
                active,
            } => {
                let _ = write!(
                    s,
                    ",\"side\":\"{}\",\"server\":{server},\"active\":{active}",
                    side.as_str()
                );
            }
            Event::SpanBegin {
                id,
                parent,
                kind,
                detail,
            } => {
                let _ = write!(s, ",\"id\":{id},\"parent\":{parent},\"kind\":");
                write_json_str(s, kind);
                s.push_str(",\"detail\":");
                write_json_str(s, detail);
            }
            Event::SpanEnd { id, kind, detail } => {
                let _ = write!(s, ",\"id\":{id},\"kind\":");
                write_json_str(s, kind);
                s.push_str(",\"detail\":");
                write_json_str(s, detail);
            }
            Event::Sample {
                throughput_mbps,
                power_w,
                concurrency,
                in_backoff,
                queue_depth,
            } => {
                s.push_str(",\"throughput_mbps\":");
                write_json_f64(s, *throughput_mbps);
                s.push_str(",\"power_w\":");
                write_json_f64(s, *power_w);
                let _ = write!(
                    s,
                    ",\"concurrency\":{concurrency},\"in_backoff\":{in_backoff},\
                     \"queue_depth\":{queue_depth}"
                );
            }
            Event::RunEnd {
                moved_bytes,
                duration_s,
                energy_j,
                completed,
            } => {
                let _ = write!(s, ",\"moved_bytes\":{moved_bytes},\"duration_s\":");
                write_json_f64(s, *duration_s);
                s.push_str(",\"energy_j\":");
                write_json_f64(s, *energy_j);
                let _ = write!(s, ",\"completed\":{completed}");
            }
            Event::JobSubmitted {
                job,
                tenant,
                site,
                priority,
            } => {
                let _ = write!(s, ",\"job\":{job},\"tenant\":{tenant},\"site\":");
                write_json_str(s, site);
                let _ = write!(s, ",\"priority\":{priority}");
            }
            Event::JobAdmitted {
                job,
                site,
                resident,
                waiting,
            } => {
                let _ = write!(s, ",\"job\":{job},\"site\":");
                write_json_str(s, site);
                let _ = write!(s, ",\"resident\":{resident},\"waiting\":{waiting}");
            }
            Event::JobPreempted { job, by, site } => {
                let _ = write!(s, ",\"job\":{job}");
                if let Some(by) = by {
                    let _ = write!(s, ",\"by\":{by}");
                }
                s.push_str(",\"site\":");
                write_json_str(s, site);
            }
            Event::JobResumed { job, site, round } => {
                let _ = write!(s, ",\"job\":{job},\"site\":");
                write_json_str(s, site);
                let _ = write!(s, ",\"round\":{round}");
            }
            Event::JobFinished {
                job,
                completed,
                moved_bytes,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{job},\"completed\":{completed},\"moved_bytes\":{moved_bytes}"
                );
            }
        }
    }

    /// Rebuilds the variant tagged `tag` from a parsed JSON object.
    fn from_map(tag: &str, m: &Map) -> Result<Self, String> {
        match tag {
            "run_start" => Ok(Event::RunStart {
                schema: get_u32(m, "schema")?,
                algorithm: get_string(m, "algorithm")?,
                environment: get_string(m, "environment")?,
                seed: get_u64(m, "seed")?,
                requested_bytes: get_u64(m, "requested_bytes")?,
            }),
            "stage_start" => Ok(Event::StageStart {
                stage: get_u32(m, "stage")?,
            }),
            "chunk_start" => Ok(Event::ChunkStart {
                chunk: get_u32(m, "chunk")?,
                label: get_string(m, "label")?,
                bytes: get_u64(m, "bytes")?,
                files: get_u64(m, "files")?,
            }),
            "chunk_drain" => Ok(Event::ChunkDrain {
                chunk: get_u32(m, "chunk")?,
                label: get_string(m, "label")?,
            }),
            "channel_open" => Ok(Event::ChannelOpen {
                chunk: get_u32(m, "chunk")?,
                opened: get_u32(m, "opened")?,
                count: get_u32(m, "count")?,
            }),
            "channel_close" => Ok(Event::ChannelClose {
                chunk: get_u32(m, "chunk")?,
                closed: get_u32(m, "closed")?,
                count: get_u32(m, "count")?,
            }),
            "channel_fail" => Ok(Event::ChannelFail {
                chunk: get_u32(m, "chunk")?,
                channel: get_u32(m, "channel")?,
                cause: get_string(m, "cause")?,
                src_server: get_u32(m, "src_server")?,
                dst_server: get_u32(m, "dst_server")?,
            }),
            "channel_retry" => Ok(Event::ChannelRetry {
                chunk: get_u32(m, "chunk")?,
                channel: get_u32(m, "channel")?,
                attempt: get_u32(m, "attempt")?,
                delay_us: get_u64(m, "delay_us")?,
                exhausted: get_bool(m, "exhausted")?,
            }),
            "reallocate" => Ok(Event::Reallocate {
                targets: get_u32_array(m, "targets")?,
            }),
            "decision" => Ok(Event::Decision {
                reason: get_string(m, "reason")?,
                targets: get_u32_array(m, "targets")?,
            }),
            "probe_window" => Ok(Event::ProbeWindow {
                level: get_u32(m, "level")?,
                window_s: get_f64(m, "window_s")?,
                mbps: get_f64(m, "mbps")?,
                energy_j: get_f64(m, "energy_j")?,
                ratio: get_f64(m, "ratio")?,
            }),
            "commit" => Ok(Event::Commit {
                level: get_u32(m, "level")?,
                reason: get_string(m, "reason")?,
            }),
            "breaker" => Ok(Event::Breaker {
                side: Side::parse(&get_string(m, "side")?)?,
                server: get_u32(m, "server")?,
                state: BreakerState::parse(&get_string(m, "state")?)?,
            }),
            "fault_episode" => Ok(Event::FaultEpisode {
                kind: EpisodeKind::parse(&get_string(m, "kind")?)?,
                side: match m.get("side") {
                    Some(v) => Some(Side::parse(
                        v.as_str().ok_or_else(|| err_type("side", "string"))?,
                    )?),
                    None => None,
                },
                server: match m.get("server") {
                    Some(v) => Some(
                        u32::try_from(v.as_u64().ok_or_else(|| err_type("server", "integer"))?)
                            .map_err(|_| err_type("server", "u32"))?,
                    ),
                    None => None,
                },
                active: get_bool(m, "active")?,
            }),
            "power_state" => Ok(Event::PowerState {
                side: Side::parse(&get_string(m, "side")?)?,
                server: get_u32(m, "server")?,
                active: get_bool(m, "active")?,
            }),
            "span_begin" => Ok(Event::SpanBegin {
                id: get_u64(m, "id")?,
                parent: get_u64(m, "parent")?,
                kind: get_string(m, "kind")?,
                detail: get_string(m, "detail")?,
            }),
            "span_end" => Ok(Event::SpanEnd {
                id: get_u64(m, "id")?,
                kind: get_string(m, "kind")?,
                detail: get_string(m, "detail")?,
            }),
            "sample" => Ok(Event::Sample {
                throughput_mbps: get_f64(m, "throughput_mbps")?,
                power_w: get_f64(m, "power_w")?,
                concurrency: get_u32(m, "concurrency")?,
                in_backoff: get_u32(m, "in_backoff")?,
                queue_depth: get_u64(m, "queue_depth")?,
            }),
            "run_end" => Ok(Event::RunEnd {
                moved_bytes: get_u64(m, "moved_bytes")?,
                duration_s: get_f64(m, "duration_s")?,
                energy_j: get_f64(m, "energy_j")?,
                completed: get_bool(m, "completed")?,
            }),
            "job_submitted" => Ok(Event::JobSubmitted {
                job: get_u32(m, "job")?,
                tenant: get_u32(m, "tenant")?,
                site: get_string(m, "site")?,
                priority: get_u32(m, "priority")?,
            }),
            "job_admitted" => Ok(Event::JobAdmitted {
                job: get_u32(m, "job")?,
                site: get_string(m, "site")?,
                resident: get_u32(m, "resident")?,
                waiting: get_u32(m, "waiting")?,
            }),
            "job_preempted" => Ok(Event::JobPreempted {
                job: get_u32(m, "job")?,
                by: match m.get("by") {
                    Some(v) => Some(
                        u32::try_from(v.as_u64().ok_or_else(|| err_type("by", "integer"))?)
                            .map_err(|_| err_type("by", "u32"))?,
                    ),
                    None => None,
                },
                site: get_string(m, "site")?,
            }),
            "job_resumed" => Ok(Event::JobResumed {
                job: get_u32(m, "job")?,
                site: get_string(m, "site")?,
                round: get_u64(m, "round")?,
            }),
            "job_finished" => Ok(Event::JobFinished {
                job: get_u32(m, "job")?,
                completed: get_bool(m, "completed")?,
                moved_bytes: get_u64(m, "moved_bytes")?,
            }),
            other => Err(format!("unknown event tag `{other}`")),
        }
    }
}

/// JSON string literal with escaping for quotes, backslashes and control
/// characters.
pub(crate) fn write_json_str(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Shortest-roundtrip float rendering (Rust's `{}` for `f64`), the same
/// value every run — the byte-determinism guarantee rests on this.
pub(crate) fn write_json_f64(s: &mut String, f: f64) {
    debug_assert!(f.is_finite(), "journal floats must be finite, got {f}");
    if f.is_finite() {
        let _ = write!(s, "{f}");
    } else {
        s.push_str("null");
    }
}

fn write_u32_array(s: &mut String, xs: &[u32]) {
    s.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
}

fn err_missing(key: &str) -> String {
    format!("missing field `{key}`")
}

fn err_type(key: &str, expected: &str) -> String {
    format!("field `{key}`: expected {expected}")
}

fn field<'a>(m: &'a Map, key: &str) -> Result<&'a Value, String> {
    m.get(key).ok_or_else(|| err_missing(key))
}

fn get_u64(m: &Map, key: &str) -> Result<u64, String> {
    field(m, key)?
        .as_u64()
        .ok_or_else(|| err_type(key, "unsigned integer"))
}

fn get_u32(m: &Map, key: &str) -> Result<u32, String> {
    u32::try_from(get_u64(m, key)?).map_err(|_| err_type(key, "u32"))
}

fn get_f64(m: &Map, key: &str) -> Result<f64, String> {
    field(m, key)?
        .as_f64()
        .ok_or_else(|| err_type(key, "number"))
}

fn get_bool(m: &Map, key: &str) -> Result<bool, String> {
    field(m, key)?
        .as_bool()
        .ok_or_else(|| err_type(key, "boolean"))
}

fn get_string(m: &Map, key: &str) -> Result<String, String> {
    Ok(field(m, key)?
        .as_str()
        .ok_or_else(|| err_type(key, "string"))?
        .to_string())
}

fn get_u32_array(m: &Map, key: &str) -> Result<Vec<u32>, String> {
    field(m, key)?
        .as_array()
        .ok_or_else(|| err_type(key, "array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| err_type(key, "array of u32"))
        })
        .collect()
}

/// One journal line: a sequence number, a timestamp and the event.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Monotone sequence number (0-based), total order of the journal.
    pub seq: u64,
    /// Simulated time of the event, microseconds since transfer start.
    pub t_us: u64,
    /// The event itself, flattened into the same JSON object on disk.
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
        let _ = write!(
            s,
            "{{\"seq\":{},\"t_us\":{},\"ev\":\"{}\"",
            self.seq,
            self.t_us,
            self.event.tag()
        );
        self.event.write_fields(&mut s);
        s.push('}');
        s
    }

    /// Parses one JSON journal line. Unknown fields are ignored, so
    /// journals from newer (additive) schema versions stay readable.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = serde::value::parse(line).map_err(|e| e.to_string())?;
        let m = v.as_object().ok_or("expected a JSON object")?;
        let seq = get_u64(m, "seq")?;
        let t_us = get_u64(m, "t_us")?;
        let tag = get_string(m, "ev")?;
        let event = Event::from_map(&tag, m)?;
        Ok(Record { seq, t_us, event })
    }
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

    /// Serializes the journal as JSON Lines. Output is byte-deterministic
    /// for identical event streams (field order is declaration order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
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
        ];
        for (i, e) in events.into_iter().enumerate() {
            j.record(t(i as f64), e);
        }
        let text = j.to_jsonl();
        let back = Journal::from_jsonl(&text).unwrap();
        assert_eq!(back.records(), j.records());
        assert_eq!(back.to_jsonl(), text, "serialization is deterministic");
    }

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
