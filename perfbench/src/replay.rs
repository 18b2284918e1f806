//! The traced run: each workload replayed serially, through each layer's
//! public functions, inside spans recorded from outside the program.
//!
//! A replay does the work of the workload's 1-worker body, split at the
//! layer boundaries the public API exposes, and must produce the same
//! canonical output. Probes that repeat work the body does inside one
//! span (planning, journal recovery) run outside the replay's root span,
//! so the root's layer self times stay comparable with the untraced
//! 1-worker wall time.

use crate::trace::Tracer;
use crate::workloads::{Inputs, Kind, RESUME_EVERY, SERVE_QUANTUM};
use eadt_ckpt::{CheckpointStore, JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
use eadt_core::baselines::ProMc;
use eadt_core::{AlgorithmKind, MinE};
use eadt_fleet::{
    derive_job_seed, FleetMetrics, FleetReport, JobOutcome, JobRunner, JobSpec,
    FLEET_SCHEMA_VERSION,
};
use eadt_sim::EadtError;
use eadt_telemetry::{Event, Journal, Telemetry};
use eadt_transfer::{RunControl, RunOutcome, TransferReport};
use std::collections::BTreeMap;
use std::path::Path;

/// The root span of every replay.
pub const ROOT: &str = "replay";

/// Counts a replay takes from the program's outputs, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// What a replay produced: the canonical output and its counts.
pub struct Replayed {
    pub text: String,
    pub counts: Counts,
}

/// Replays `inputs` serially under `t`. `dir` is a fresh checkpoint
/// directory holding the staged crash (for `checkpointed-batch`).
pub fn replay(t: &mut Tracer, inputs: &Inputs, dir: &Path) -> Result<Replayed, String> {
    match inputs.kind {
        Kind::Figures | Kind::Turbulent => batch(t, inputs),
        Kind::Checkpointed => checkpointed(t, inputs, dir),
        Kind::Serve => serve(t, inputs),
    }
}

/// Times each MinE and ProMC job's planner call (`core.plan`). The
/// planners also run inside `fleet.run`; this probe measures that share.
pub fn plan_probe(t: &mut Tracer, inputs: &Inputs) {
    for (i, job) in inputs.jobs.iter().enumerate() {
        if !matches!(job.kind, AlgorithmKind::MinE | AlgorithmKind::ProMc) {
            continue;
        }
        let dataset = generate(job, derive_job_seed(inputs.seed, i as u64));
        let (env, partition) = (&job.env.env, job.env.partition);
        t.span("core.plan", |_| match job.kind {
            AlgorithmKind::MinE => MinE {
                partition,
                ..MinE::new(job.max_channel)
            }
            .plan(env, &dataset),
            _ => ProMc {
                partition,
                ..ProMc::new(job.max_channel)
            }
            .plan(env, &dataset),
        });
    }
}

fn generate(job: &JobSpec, seed: u64) -> eadt_dataset::Dataset {
    job.env.dataset_spec.scaled(job.scale).generate(seed)
}

/// `Session::run` on 1 worker, then `FleetReport::to_json`.
fn batch(t: &mut Tracer, inputs: &Inputs) -> Result<Replayed, String> {
    let mut counts = Counts::new();
    let text = t.span(ROOT, |t| -> Result<String, String> {
        let mut outcomes = Vec::with_capacity(inputs.jobs.len());
        for (i, job) in inputs.jobs.iter().enumerate() {
            let seed = derive_job_seed(inputs.seed, i as u64);
            let outcome = t.span("fleet.job", |t| -> Result<JobOutcome, String> {
                let dataset = t.span("dataset.generate", |_| generate(job, seed));
                let spec = job.clone().with_dataset(dataset);
                let runner = t.span("fleet.prepare", |_| JobRunner::prepare(&spec, seed));
                let report = t
                    .span("fleet.run", |_| {
                        runner.run_controlled(RunControl::default())
                    })
                    .into_report()
                    .ok_or("an unbounded run halted")?;
                Ok(outcome_of(i, job, seed, report, &mut counts))
            })?;
            outcomes.push(outcome);
        }
        Ok(t.span("fleet.report_json", |t| {
            let metrics = t.span("fleet.rollup", |_| FleetMetrics::rollup(&outcomes));
            fleet_report(inputs.seed, metrics, outcomes).to_json()
        }))
    })?;
    counts.insert("fleet.report_bytes", text.len() as f64);
    Ok(Replayed { text, counts })
}

/// `Session::resume` on 1 worker from the crash staged in `dir`.
fn checkpointed(t: &mut Tracer, inputs: &Inputs, dir: &Path) -> Result<Replayed, String> {
    let mut counts = Counts::new();
    let store = CheckpointStore::create(dir).map_err(|e| e.to_string())?;
    let ck_err = |e: eadt_ckpt::CkptError| e.to_string();
    let text = t.span(ROOT, |t| -> Result<String, String> {
        let mut outcomes = Vec::with_capacity(inputs.jobs.len());
        for (i, job) in inputs.jobs.iter().enumerate() {
            let seed = derive_job_seed(inputs.seed, i as u64);
            let label = job.display_label();
            let outcome = t.span("fleet.job", |t| -> Result<JobOutcome, String> {
                let finished = t.span("ckpt.store_read", |_| {
                    store.read(&CheckpointStore::outcome_name(i))
                });
                if finished.map_err(ck_err)?.is_some() {
                    return Err(format!("job {i} has an outcome before it resumed"));
                }
                let dataset = t.span("dataset.generate", |_| generate(job, seed));
                let spec = job.clone().with_dataset(dataset);
                let runner = t.span("fleet.prepare", |_| JobRunner::prepare(&spec, seed));
                let name = CheckpointStore::checkpoint_name(i);
                let text = t
                    .span("ckpt.store_read", |_| store.read(&name))
                    .map_err(ck_err)?;
                let mut ctl = match text {
                    None => RunControl::halt_at(RESUME_EVERY),
                    Some(text) => {
                        *counts.entry("ckpt.loaded").or_default() += 1.0;
                        *counts.entry("ckpt.bytes").or_default() += text.len() as f64;
                        let ck = t.span("ckpt.decode", |_| JobCheckpoint::from_json(&text))?;
                        ck.validate(i, &label, seed).map_err(ck_err)?;
                        let halt = ck.engine.slices_done + RESUME_EVERY;
                        RunControl::resume_from(ck.engine).with_halt(halt)
                    }
                };
                let mut tel = Telemetry::from_parts(None, None);
                let report = loop {
                    match t.span("ckpt.resume_leg", |_| {
                        runner.run_instrumented(ctl, &mut tel)
                    }) {
                        RunOutcome::Done(report) => break report,
                        RunOutcome::Halted(engine) => {
                            let halt = engine.slices_done + RESUME_EVERY;
                            let ck = JobCheckpoint {
                                schema: JOB_CHECKPOINT_SCHEMA_VERSION,
                                job: i,
                                label: label.clone(),
                                algorithm: job.kind.name().to_string(),
                                seed,
                                engine: *engine,
                            };
                            let text = t.span("ckpt.encode", |_| ck.to_json());
                            t.span("ckpt.store_write", |_| store.write(&name, &text))
                                .map_err(ck_err)?;
                            *counts.entry("ckpt.saved").or_default() += 1.0;
                            ctl = RunControl::resume_from(ck.engine).with_halt(halt);
                        }
                    }
                };
                let outcome = outcome_of(i, job, seed, report, &mut counts);
                let text = t.span("ckpt.encode", |_| {
                    serde_json::to_string_pretty(&outcome).map(|mut s| {
                        s.push('\n');
                        s
                    })
                });
                let text = text.map_err(|e| format!("job {i} outcome: {e}"))?;
                t.span("ckpt.store_write", |_| {
                    store.write(&CheckpointStore::outcome_name(i), &text)?;
                    store.remove(&name)
                })
                .map_err(ck_err)?;
                Ok(outcome)
            })?;
            outcomes.push(outcome);
        }
        Ok(t.span("fleet.report_json", |t| {
            let metrics = t.span("fleet.rollup", |_| FleetMetrics::rollup(&outcomes));
            fleet_report(inputs.seed, metrics, outcomes).to_json()
        }))
    })?;
    Ok(Replayed { text, counts })
}

/// `ServiceSession::run` on 1 worker, then the report and journal
/// encodings `eadt serve --json --journal` writes.
fn serve(t: &mut Tracer, inputs: &Inputs) -> Result<Replayed, String> {
    let workload = inputs.service.as_ref().ok_or("service workload missing")?;
    let session = crate::workloads::serve_session(inputs.seed, 1);
    let (run, text) = t.span(ROOT, |t| -> Result<_, String> {
        let run = t
            .span("service.run", |_| session.run(workload))
            .map_err(|e| e.to_string())?;
        let mut text = t.span("service.report_json", |_| run.report.to_json());
        text.push_str(&t.span("telemetry.to_jsonl", |_| run.journal.to_jsonl()));
        Ok((run, text))
    })?;
    let jsonl = run.journal.to_jsonl();
    let (recovered, repair) = t
        .span("telemetry.recover_jsonl", |_| {
            Journal::recover_jsonl(&jsonl)
        })
        .map_err(|e| format!("journal recovery: {e}"))?;
    if !repair.is_clean() || recovered.to_jsonl() != jsonl {
        return Err("a clean journal did not recover to itself".into());
    }
    let slice = workload
        .jobs()
        .first()
        .map_or(0.1, |j| j.spec.env.env.tuning.slice.as_secs_f64());
    let round_us = (slice * SERVE_QUANTUM as f64 * 1e6).round() as u64;
    let mut counts = Counts::new();
    counts.insert("service.rounds", run.report.rounds as f64);
    counts.insert(
        "service.preemptions",
        run.report
            .jobs
            .iter()
            .map(|j| f64::from(j.preemptions))
            .sum(),
    );
    counts.insert(
        "service.resident_rounds",
        resident_rounds(&run.journal, round_us) as f64,
    );
    counts.insert("telemetry.journal_records", run.journal.len() as f64);
    counts.insert("telemetry.journal_bytes", jsonl.len() as f64);
    Ok(Replayed { text, counts })
}

/// Job-rounds spent resident: from each admission or resume to the job's
/// preemption or the end of the round it finished in.
pub fn resident_rounds(journal: &Journal, round_us: u64) -> u64 {
    let mut since: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total_us = 0;
    for r in journal.records() {
        match &r.event {
            Event::JobAdmitted { job, .. } | Event::JobResumed { job, .. } => {
                since.insert(*job, r.t_us);
            }
            Event::JobPreempted { job, .. } | Event::JobFinished { job, .. } => {
                if let Some(start) = since.remove(job) {
                    total_us += r.t_us.saturating_sub(start);
                }
            }
            _ => {}
        }
    }
    total_us / round_us.max(1)
}

fn fleet_report(root_seed: u64, metrics: FleetMetrics, jobs: Vec<JobOutcome>) -> FleetReport {
    FleetReport {
        schema: FLEET_SCHEMA_VERSION,
        root_seed,
        metrics,
        jobs,
    }
}

/// The job's merged outcome, as the session books it; adds the report's
/// transfer-layer counts to `counts`.
fn outcome_of(
    index: usize,
    job: &JobSpec,
    seed: u64,
    report: TransferReport,
    counts: &mut Counts,
) -> JobOutcome {
    let slice = job.env.env.tuning.slice.as_secs_f64();
    *counts.entry("transfer.sim_slices").or_default() +=
        (report.duration.as_secs_f64() / slice).ceil();
    *counts.entry("transfer.failures").or_default() += report.failures as f64;
    *counts.entry("transfer.retries").or_default() += report.faults.retries as f64;
    let failure = report.failure();
    JobOutcome {
        job: index,
        label: job.display_label(),
        algorithm: job.kind.name().to_string(),
        environment: job.env.name.clone(),
        seed,
        completed: report.completed,
        moved_bytes: report.moved_bytes.as_u64(),
        requested_bytes: report.requested_bytes.as_u64(),
        duration_s: report.duration.as_secs_f64(),
        throughput_mbps: report.avg_throughput().as_mbps(),
        energy_j: report.total_energy_j(),
        efficiency: report.efficiency(),
        failures: report.failures,
        wire_bytes: report.wire_bytes.as_u64(),
        packets: report.packets,
        retries: report.faults.retries,
        breaker_opens: report.faults.breaker_opens,
        retransmitted_bytes: report.faults.retransmitted_bytes.as_u64(),
        ledger: report.ledger,
        metrics: None,
        error_kind: failure.as_ref().map(|e| e.kind().as_str().to_string()),
        error: failure.as_ref().map(EadtError::to_string),
        report: Some(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_sim::SimTime;

    #[test]
    fn resident_rounds_sum_residency_intervals() {
        let round = 10_000_000; // 100 slices of 100 ms
        let at = |r: u64| SimTime::from_micros(r * round);
        let mut j = Journal::new();
        // Job 0: admitted round 0, preempted at round 3, resumed at 5,
        // finished during round 6 (booked at the start of round 7).
        j.record(
            at(0),
            Event::JobAdmitted {
                job: 0,
                site: "s".into(),
                resident: 1,
                waiting: 0,
            },
        );
        j.record(
            at(3),
            Event::JobPreempted {
                job: 0,
                by: Some(1),
                site: "s".into(),
            },
        );
        j.record(
            at(3),
            Event::JobAdmitted {
                job: 1,
                site: "s".into(),
                resident: 1,
                waiting: 1,
            },
        );
        j.record(
            at(5),
            Event::JobFinished {
                job: 1,
                completed: true,
                moved_bytes: 1,
            },
        );
        j.record(
            at(5),
            Event::JobResumed {
                job: 0,
                site: "s".into(),
                round: 5,
            },
        );
        j.record(
            at(7),
            Event::JobFinished {
                job: 0,
                completed: true,
                moved_bytes: 1,
            },
        );
        assert_eq!(resident_rounds(&j, round), 3 + 2 + 2);
    }
}
