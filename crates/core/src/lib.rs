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
use eadt_transfer::{
    Controller, EngineCheckpoint, EngineRun, FaultAware, RunControl, RunOutcome, TransferEnv,
    TransferPlan, TransferReport,
};
use std::borrow::Cow;

pub use ctx::RunCtx;
pub use htee::Htee;
pub use kind::AlgorithmKind;
pub use mine::MinE;
pub use planner::{ChunkParams, Planner};
pub use slaee::Slaee;

/// The one-stop import for experiment code: the trait, the run context,
/// every algorithm and baseline, the planner, and the kind selector.
pub mod prelude {
    pub use crate::baselines::{
        BruteForce, GlobusOnline, GlobusUrlCopy, Manual, ProMc, SingleChunk,
    };
    pub use crate::ctx::RunCtx;
    pub use crate::kind::AlgorithmKind;
    pub use crate::planner::{ChunkParams, Planner};
    pub use crate::{Algorithm, Htee, MinE, Slaee};
}

/// A planned transfer: the static plan and the controller that steers it.
pub type Prepared = (TransferPlan, Box<dyn Controller>);

/// A data-transfer scheduling algorithm: plans a dataset against an
/// environment and executes it on the simulated GridFTP engine.
pub trait Algorithm {
    /// Display name used in figures and tables.
    fn name(&self) -> &'static str;

    /// Plans the transfer: the static plan and the controller that steers
    /// it online. Planning is deterministic, so a resumed run rebuilds
    /// exactly the plan and controller the checkpoint was taken under.
    /// Planning-time decisions are journaled into `tel`.
    fn prepare(&self, env: &TransferEnv, dataset: &Dataset, tel: &mut Telemetry) -> Prepared;

    /// Whether the controller runs under a [`FaultAware`] decorator: shed
    /// concurrency while servers are quarantined, re-ramp on recovery.
    fn fault_aware(&self) -> bool {
        false
    }

    /// Plans the transfer and builds its engine run: fresh, or restored
    /// from `resume` (DESIGN.md §13). A restore replays the planning but
    /// not its telemetry — those events are already in the journal prefix
    /// the checkpoint was cut from. This is the one place a controller is
    /// wrapped in [`FaultAware`].
    ///
    /// # Panics
    /// As [`EngineRun::restore`], when `resume` was taken under another
    /// configuration.
    fn start(
        &self,
        env: &TransferEnv,
        dataset: &Dataset,
        tel: &mut Telemetry,
        resume: Option<EngineCheckpoint>,
    ) -> EngineRun<'static> {
        let mut quiet = Telemetry::disabled();
        let plan_tel = if resume.is_some() {
            &mut quiet
        } else {
            &mut *tel
        };
        let (plan, mut controller) = self.prepare(env, dataset, plan_tel);
        if self.fault_aware() {
            controller = Box::new(FaultAware::new(controller));
        }
        let plan = Cow::Owned(plan);
        match resume {
            Some(ck) => EngineRun::restore(env, plan, controller, tel, ck),
            None => EngineRun::new(env, plan, controller, tel),
        }
    }

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
    /// [`EngineCheckpoint`] and/or halting at a slice boundary to produce
    /// one (DESIGN.md §13) — the cold wrapper that starts the run and
    /// hands it to [`EngineRun::run_to`].
    fn run_controlled(&self, ctx: &mut RunCtx<'_>, ctl: RunControl) -> RunOutcome {
        let (env, dataset, tel) = ctx.parts();
        let run = self.start(env, dataset, tel, ctl.resume.map(|ck| *ck));
        run.run_to(env, tel, ctl.halt_after, ctl.share)
    }
}
