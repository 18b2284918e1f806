//! Executing one job spec: dataset generation, the fault override, and
//! dispatch to the spec's [`Algorithm`].

use crate::spec::{FaultOverride, JobSpec};
use eadt_core::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, Manual, ProMc, SingleChunk};
use eadt_core::{Algorithm, AlgorithmKind, Htee, MinE, RunCtx, Slaee};
use eadt_dataset::Dataset;
use eadt_sim::Rate;
use eadt_telemetry::Telemetry;
use eadt_transfer::{
    EngineCheckpoint, EngineRun, RunControl, RunOutcome, TransferEnv, TransferParams,
    TransferReport,
};
use std::borrow::Cow;

/// Runs one job at the given seed and returns the engine's report.
///
/// The seed drives dataset generation; fault streams keep the seeds baked
/// into the (possibly overridden) fault plan so a replayed job is
/// bit-identical. SLAEE derives its reference maximum from a ProMC run at
/// the testbed's reference concurrency, exactly as the CLI does.
pub fn run_job(spec: &JobSpec, seed: u64) -> TransferReport {
    JobRunner::prepare(spec, seed)
        .run_controlled(RunControl::default())
        .into_report()
        .expect("no halt boundary configured")
}

/// A job prepared for execution.
///
/// Preparation does everything *before* planning once — the environment
/// with the spec's fault override, dataset generation and, for SLAEE, the
/// ProMC reference measurement. `JobRunner::start` then plans the job
/// and builds its [`EngineRun`]. Both are bit-reproducible from
/// `(spec, seed)`, which is what lets a run restored from disk re-join its
/// checkpoint exactly.
pub struct JobRunner<'a> {
    spec: &'a JobSpec,
    env: Cow<'a, TransferEnv>,
    dataset: Dataset,
    reference: Option<Rate>,
}

impl<'a> JobRunner<'a> {
    /// Resolves the environment and generates the dataset (and SLAEE's
    /// reference throughput) for a job.
    pub fn prepare(spec: &'a JobSpec, seed: u64) -> Self {
        let tb = &spec.env;
        let env = match &spec.faults {
            FaultOverride::Inherit => Cow::Borrowed(&tb.env),
            FaultOverride::Disable => Cow::Owned(TransferEnv {
                faults: None,
                ..tb.env.clone()
            }),
            FaultOverride::Replace(plan) => Cow::Owned(TransferEnv {
                faults: Some(plan.clone()),
                ..tb.env.clone()
            }),
        };
        let dataset = match &spec.dataset {
            Some(d) => d.clone(),
            None => tb.dataset_spec.scaled(spec.scale).generate(seed),
        };
        let reference = (spec.kind == AlgorithmKind::Slaee).then(|| {
            ProMc {
                partition: tb.partition,
                ..ProMc::new(tb.reference_concurrency)
            }
            .run(&mut RunCtx::new(&env, &dataset))
            .avg_throughput()
        });
        JobRunner {
            spec,
            env,
            dataset,
            reference,
        }
    }

    /// The spec's algorithm, configured from its knobs.
    fn algorithm(&self) -> Box<dyn Algorithm> {
        let spec = self.spec;
        let partition = spec.env.partition;
        match spec.kind {
            AlgorithmKind::MinE => Box::new(MinE {
                partition,
                ..MinE::new(spec.max_channel)
            }),
            AlgorithmKind::Htee => Box::new(Htee {
                partition,
                fault_aware: spec.fault_aware,
                ..Htee::new(spec.max_channel)
            }),
            AlgorithmKind::Slaee => Box::new(Slaee {
                partition,
                fault_aware: spec.fault_aware,
                ..Slaee::new(
                    spec.sla_level,
                    self.reference.expect("prepare measures the reference"),
                    spec.max_channel,
                )
            }),
            AlgorithmKind::Guc => Box::new(GlobusUrlCopy::new()),
            AlgorithmKind::Go => Box::new(GlobusOnline::new()),
            AlgorithmKind::Sc => Box::new(SingleChunk {
                partition,
                ..SingleChunk::new(spec.max_channel)
            }),
            AlgorithmKind::ProMc => Box::new(ProMc {
                partition,
                fault_aware: spec.fault_aware,
                ..ProMc::new(spec.max_channel)
            }),
            AlgorithmKind::Bf => Box::new(BruteForce {
                partition,
                ..BruteForce::new(spec.max_channel)
            }),
            AlgorithmKind::Manual => Box::new(Manual {
                params: TransferParams::new(spec.pipelining, spec.parallelism, spec.max_channel),
                fault_aware: spec.fault_aware,
            }),
        }
    }

    /// Plans the job and builds its engine run: fresh, or restored from
    /// `resume`, a checkpoint read back from disk.
    pub(crate) fn start(
        &self,
        tel: &mut Telemetry,
        resume: Option<EngineCheckpoint>,
    ) -> EngineRun<'static> {
        self.algorithm()
            .start(&self.env, &self.dataset, tel, resume)
    }

    /// The job's environment, fault override applied. Consumes the runner:
    /// a started run holds its own files, so the dataset goes.
    pub(crate) fn into_env(self) -> Cow<'a, TransferEnv> {
        self.env
    }

    /// Runs the job in one call under checkpoint control (fresh, halting,
    /// or resuming per `ctl`). Calling this repeatedly with the default
    /// control always reproduces the same report.
    pub fn run_controlled(&self, ctl: RunControl) -> RunOutcome {
        self.run_instrumented(ctl, &mut Telemetry::disabled())
    }

    /// Like [`JobRunner::run_controlled`], but recording into `tel`. When
    /// `tel` carries a metrics registry the engine samples its gauges and
    /// histograms into it, and a resume restores the registry from the
    /// checkpoint before continuing, so the final snapshot is
    /// interrupt-invariant.
    pub fn run_instrumented(&self, ctl: RunControl, tel: &mut Telemetry) -> RunOutcome {
        let mut ctx = RunCtx::with_telemetry(&self.env, &self.dataset, tel);
        self.algorithm().run_controlled(&mut ctx, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    #[test]
    fn every_kind_dispatches_and_completes() {
        let tb = eadt_testbeds::didclab();
        for kind in AlgorithmKind::ALL {
            let spec = JobSpec::new(kind, tb.clone())
                .with_scale(0.005)
                .with_max_channel(4)
                .with_sla_level(0.8);
            let r = run_job(&spec, 1);
            assert!(r.completed, "{kind:?}");
        }
    }

    #[test]
    fn fault_override_disable_strips_injection() {
        let mut tb = eadt_testbeds::didclab();
        tb.env.faults = Some(eadt_transfer::FaultPlan::channel_only(
            eadt_transfer::FaultModel::new(eadt_sim::SimDuration::from_secs(5), 3),
        ));
        let spec = JobSpec::new(AlgorithmKind::ProMc, tb)
            .with_scale(0.02)
            .without_faults();
        let r = run_job(&spec, 1);
        assert_eq!(r.failures, 0, "disabled faults must not fire");
    }
}
