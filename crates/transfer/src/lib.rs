//! The GridFTP-like transfer engine.
//!
//! This crate is the substrate every algorithm in `eadt-core` runs on: a
//! deterministic, time-sliced flow simulation of a multi-channel,
//! multi-stream file transfer between two sites. It exposes exactly the
//! knobs the paper's algorithms turn —
//!
//! * **pipelining**: consecutive files on a channel pay an inter-file
//!   control-channel gap of `RTT / pipelining`;
//! * **parallelism**: a channel moves its current file over `p` TCP
//!   streams, each window-limited to `min(buffer, BDP)/RTT` and
//!   loss-limited to a per-stream achievable cap;
//! * **concurrency**: the number of simultaneous channels, changeable
//!   *mid-transfer* through a [`Controller`] (the custom-client capability
//!   §3 describes, required by HTEE's search and SLAEE's adaptation);
//!
//! — and measures exactly what the paper measures: achieved throughput,
//! per-endpoint energy (via `eadt-power` models over `eadt-endsys`
//! utilization), and moved packet counts for the §4 network analysis.
//!
//! Robustness lives in two companion modules: [`faults`] describes *what
//! breaks* (per-channel failures, server outages, control-channel stalls,
//! disk degradation — composed through a [`FaultPlan`]) and [`retry`]
//! describes *how the client recovers* (jittered exponential backoff,
//! retry budgets, per-server circuit breakers). Any controller can be
//! wrapped in [`FaultAware`] to shed concurrency while servers are
//! quarantined and re-ramp on recovery.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod control;
pub mod engine;
pub mod env;
pub mod faults;
pub mod params;
pub mod plan;
pub mod report;
pub mod retry;

#[cfg(test)]
mod control_channel;
#[cfg(test)]
mod proptests;

pub use control::{
    ControlAction, Controller, ControllerSnapshot, FaultAware, FaultView, NullController, SliceCtx,
};
pub use engine::{
    check_schema_version, config_fingerprint, ChannelSnapshot, ChunkSnapshot, Engine,
    EngineCheckpoint, EngineRun, FileSnapshot, ResourceShare, RunControl, RunOutcome,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use env::{EngineTuning, TransferEnv};
pub use faults::{
    BackgroundTraffic, DiskDegradationModel, FaultModel, FaultPlan, OutageModel, SiteSide,
    StallModel,
};
pub use params::TransferParams;
pub use plan::{uniform_plan, ChunkPlan, StagePlan, TransferPlan};
pub use report::{ChunkStat, FaultStats, TransferReport, REPORT_SCHEMA_VERSION};
pub use retry::{FaultState, RetryPolicy};
