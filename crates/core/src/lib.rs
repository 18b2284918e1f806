//! The paper's contribution: three energy-aware data transfer algorithms.
//!
//! * [`MinE`] — **Minimum Energy** (Algorithm 1): per-chunk closed-form
//!   parameter selection that floods the Small chunk with pipelined
//!   channels and pins Large chunks to a single channel, minimising energy
//!   with no throughput concern.
//! * [`Htee`] — **High Throughput Energy-Efficient** (Algorithm 2):
//!   weight-proportional channel allocation plus an online search over
//!   concurrency levels (5-second probes, stride 2) for the level with the
//!   best measured throughput/energy ratio.
//! * [`Slaee`] — **SLA-based Energy-Efficient** (Algorithm 3): delivers a
//!   caller-specified fraction of the maximum achievable throughput with
//!   the fewest channels that reach it.
//!
//! [`baselines`] holds the five comparison points of §3: `GlobusUrlCopy`
//! (GUC, untuned), `GlobusOnline` (GO, fixed parameters, channels spread
//! over all servers), `SingleChunk` (SC, tuned but sequential), `ProMc`
//! (Pro-active Multi-Chunk) and `BruteForce` (the efficiency oracle).
//!
//! Every algorithm implements [`Algorithm`]: it plans against a
//! [`TransferEnv`] and executes on the `eadt-transfer` engine, returning
//! the same [`TransferReport`] the figures are built from.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod baselines;
pub mod ctx;
pub mod htee;
pub mod kind;
pub mod mine;
pub mod planner;
pub mod slaee;

#[cfg(test)]
mod proptests;
#[cfg(test)]
pub(crate) mod test_support;

use eadt_dataset::Dataset;
use eadt_telemetry::Telemetry;
use eadt_transfer::{RunControl, RunOutcome, TransferEnv, TransferReport};

pub use ctx::RunCtx;
pub use htee::Htee;
pub use kind::AlgorithmKind;
pub use mine::MinE;
pub use planner::Planner;
#[allow(deprecated)]
pub use planner::{
    chunk_params, linear_weight_allocation, mine_allocation, weight_allocation, ChunkParams,
};
pub use slaee::Slaee;

/// The one-stop import for experiment code: the trait, the run context,
/// every algorithm and baseline, the planner, and the kind selector.
pub mod prelude {
    pub use crate::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, ProMc, SingleChunk};
    pub use crate::ctx::RunCtx;
    pub use crate::kind::AlgorithmKind;
    pub use crate::planner::{ChunkParams, Planner};
    pub use crate::{Algorithm, Htee, MinE, Slaee};
}

/// A data-transfer scheduling algorithm: plans a dataset against an
/// environment and executes it on the simulated GridFTP engine.
pub trait Algorithm {
    /// Display name used in figures and tables.
    fn name(&self) -> &'static str;

    /// Runs the whole transfer described by `ctx` — environment, dataset,
    /// telemetry sink, fault plan — and returns its measurements.
    /// Telemetry is a no-op handle when the context was built with
    /// [`RunCtx::new`], so implementations pay nothing on the plain path.
    #[expect(
        clippy::expect_used,
        reason = "RunControl::default() sets no halt boundary (halt_after is None) and the engine returns Halted only at a requested boundary, so Done is the sole outcome"
    )]
    fn run(&self, ctx: &mut RunCtx<'_>) -> TransferReport {
        self.run_controlled(ctx, RunControl::default())
            .into_report()
            .expect("no halt boundary configured")
    }

    /// Runs with checkpoint control: resuming from an
    /// [`eadt_transfer::EngineCheckpoint`] and/or halting at a slice
    /// boundary to produce one (DESIGN.md §13).
    ///
    /// Planning is deterministic, so a resuming implementation rebuilds
    /// its plan and controller from `ctx` exactly as the original run did,
    /// suppresses any planning-time telemetry (those events are already in
    /// the journal prefix the checkpoint was cut from), and hands the
    /// checkpoint to [`eadt_transfer::Engine::run_controlled`], which
    /// fast-forwards the controller through
    /// [`Controller::restore`](eadt_transfer::Controller::restore).
    fn run_controlled(&self, ctx: &mut RunCtx<'_>, ctl: RunControl) -> RunOutcome;

    /// Shim for the pre-`RunCtx` two-argument entry point.
    #[deprecated(since = "0.2.0", note = "build a `RunCtx` and call `run`")]
    fn run_plain(&self, env: &TransferEnv, dataset: &Dataset) -> TransferReport {
        self.run(&mut RunCtx::new(env, dataset))
    }

    /// Shim for the pre-`RunCtx` instrumented entry point.
    #[deprecated(since = "0.2.0", note = "use `RunCtx::with_telemetry` and call `run`")]
    fn run_instrumented(
        &self,
        env: &TransferEnv,
        dataset: &Dataset,
        tel: &mut Telemetry,
    ) -> TransferReport {
        self.run(&mut RunCtx::with_telemetry(env, dataset, tel))
    }
}
