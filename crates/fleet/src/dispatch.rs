//! Executing one job spec: dataset generation, fault handling, algorithm
//! dispatch through the [`RunCtx`] entry point.

use crate::spec::{FaultOverride, JobSpec};
use eadt_core::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, ProMc, SingleChunk};
use eadt_core::{Algorithm, AlgorithmKind, Htee, MinE, RunCtx, Slaee};
use eadt_dataset::Dataset;
use eadt_sim::Rate;
use eadt_telemetry::Telemetry;
use eadt_transfer::{RunControl, RunOutcome, SliceArena, TransferReport};

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

/// A job prepared for controlled (checkpointable) execution.
///
/// Preparation does everything *before* the engine run once — dataset
/// generation and, for SLAEE, the ProMC reference measurement — so a
/// checkpoint/resume cycle repeats only the deterministic plan build and
/// the engine itself. Both preparation and execution are bit-reproducible
/// from `(spec, seed)`, which is what lets a resumed job re-join its
/// checkpoint exactly.
pub struct JobRunner<'a> {
    spec: &'a JobSpec,
    dataset: Dataset,
    reference: Option<Rate>,
}

impl<'a> JobRunner<'a> {
    /// Generates the dataset (and SLAEE's reference throughput) for a job.
    pub fn prepare(spec: &'a JobSpec, seed: u64) -> Self {
        let tb = &spec.env;
        let dataset = match &spec.dataset {
            Some(d) => d.clone(),
            None => tb.dataset_spec.scaled(spec.scale).generate(seed),
        };
        let reference = (spec.kind == AlgorithmKind::Slaee).then(|| {
            let mut ctx = Self::ctx(spec, &dataset);
            ProMc {
                partition: tb.partition,
                ..ProMc::new(tb.reference_concurrency)
            }
            .run(&mut ctx)
            .avg_throughput()
        });
        JobRunner {
            spec,
            dataset,
            reference,
        }
    }

    fn ctx<'b>(spec: &'b JobSpec, dataset: &'b Dataset) -> RunCtx<'b> {
        Self::ctx_with(spec, dataset, None)
    }

    fn ctx_with<'b>(
        spec: &'b JobSpec,
        dataset: &'b Dataset,
        tel: Option<&'b mut Telemetry>,
    ) -> RunCtx<'b> {
        let mut ctx = match tel {
            Some(tel) => RunCtx::with_telemetry(&spec.env.env, dataset, tel),
            None => RunCtx::new(&spec.env.env, dataset),
        };
        match &spec.faults {
            FaultOverride::Inherit => {}
            FaultOverride::Disable => {
                ctx.override_faults(None);
            }
            FaultOverride::Replace(plan) => {
                ctx.override_faults(Some(plan.clone()));
            }
        }
        ctx
    }

    /// Runs the job under checkpoint control (fresh, halting, or resuming
    /// per `ctl`). Calling this repeatedly with the default control always
    /// reproduces the same report.
    pub fn run_controlled(&self, ctl: RunControl) -> RunOutcome {
        self.run_with(ctl, None, None)
    }

    /// Like [`JobRunner::run_controlled`], but recording into `tel` —
    /// the fleet's metrics-collection path. When `tel` carries a metrics
    /// registry the engine samples its gauges and histograms into it,
    /// and a resume restores the registry from the checkpoint before
    /// continuing, so the final snapshot is interrupt-invariant.
    pub fn run_instrumented(&self, ctl: RunControl, tel: &mut Telemetry) -> RunOutcome {
        self.run_with(ctl, Some(tel), None)
    }

    /// The one dispatch behind every run: `tel` defaults to a disabled
    /// sink and `arena` to a private one. The executor's legs pass their
    /// own, so a job re-entered every quantum reuses warm engine scratch.
    pub(crate) fn run_with(
        &self,
        ctl: RunControl,
        tel: Option<&mut Telemetry>,
        arena: Option<&mut SliceArena>,
    ) -> RunOutcome {
        let spec = self.spec;
        let partition = spec.env.partition;
        let mut ctx = Self::ctx_with(spec, &self.dataset, tel);
        if let Some(arena) = arena {
            ctx.use_arena(arena);
        }
        match spec.kind {
            AlgorithmKind::MinE => MinE {
                partition,
                ..MinE::new(spec.max_channel)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Htee => Htee {
                partition,
                fault_aware: spec.fault_aware,
                ..Htee::new(spec.max_channel)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Slaee => Slaee {
                partition,
                fault_aware: spec.fault_aware,
                ..Slaee::new(
                    spec.sla_level,
                    self.reference.expect("prepare measures the reference"),
                    spec.max_channel,
                )
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Guc => GlobusUrlCopy::new().run_controlled(&mut ctx, ctl),
            AlgorithmKind::Go => GlobusOnline::new().run_controlled(&mut ctx, ctl),
            AlgorithmKind::Sc => SingleChunk {
                partition,
                ..SingleChunk::new(spec.max_channel)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::ProMc => ProMc {
                partition,
                fault_aware: spec.fault_aware,
                ..ProMc::new(spec.max_channel)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Bf => BruteForce {
                partition,
                ..BruteForce::new(spec.max_channel)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Manual => {
                let plan = eadt_transfer::uniform_plan(
                    &self.dataset,
                    eadt_transfer::TransferParams::new(
                        spec.pipelining,
                        spec.parallelism,
                        spec.max_channel,
                    ),
                    eadt_endsys::Placement::PackFirst,
                );
                let (env, _, tel, arena) = ctx.parts_arena();
                let engine = eadt_transfer::Engine::new(env);
                if spec.fault_aware {
                    engine.run_controlled_in(
                        &plan,
                        &mut eadt_transfer::FaultAware::new(eadt_transfer::NullController),
                        tel,
                        ctl,
                        arena,
                    )
                } else {
                    engine.run_controlled_in(
                        &plan,
                        &mut eadt_transfer::NullController,
                        tel,
                        ctl,
                        arena,
                    )
                }
            }
        }
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
