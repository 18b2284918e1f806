//! The batch session: a parallel map of executor legs that each run to
//! completion, merged in job order, with optional crash-safe
//! checkpointing.

use crate::exec::{self, Leg};
use crate::rollup::FleetMetrics;
use crate::seed::derive_job_seed;
use crate::spec::JobSpec;
use eadt_sim::{EadtError, SimDuration};
use eadt_telemetry::{EnergyLedger, MetricsRegistry};
use eadt_transfer::TransferReport;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Version stamped into [`FleetReport`] JSON. Version 2 added the
/// per-job rollup fields (wire/retry counters, the energy ledger, the
/// optional metrics snapshot) and the fleet-wide `metrics` rollup.
pub const FLEET_SCHEMA_VERSION: u32 = 2;

/// Builder for [`Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    root_seed: u64,
    workers: Option<usize>,
    checkpoint: Option<(PathBuf, u64)>,
    metrics: Option<SimDuration>,
}

impl SessionBuilder {
    /// Sets the root seed every job seed is derived from.
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    /// Sets the thread count, the calling thread included: `n` is the
    /// caller plus up to `n - 1` helper threads that live for one `run`.
    /// `1` runs the batch serially on the calling thread; the default
    /// asks the OS for its parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Enables crash-safe checkpointing (DESIGN.md §13): each job pauses
    /// every `every_slices` engine slices and atomically writes a snapshot
    /// of its run, a [`JobCheckpoint`](eadt_ckpt::JobCheckpoint), under `dir`; finished
    /// jobs leave a `job-<i>.outcome.json` instead. A batch interrupted at
    /// any point can then be completed with [`Session::resume`].
    pub fn checkpoints(mut self, dir: impl Into<PathBuf>, every_slices: u64) -> Self {
        self.checkpoint = Some((dir.into(), every_slices.max(1)));
        self
    }

    /// Enables per-job metrics collection: every job runs with a
    /// [`MetricsRegistry`](eadt_telemetry::MetricsRegistry) sampling on
    /// `cadence`, its final snapshot rides in the [`JobOutcome`], and the
    /// fleet rollup merges the engine histograms bucket-wise. Off by
    /// default — the registry adds per-slice work to every job.
    pub fn metrics(mut self, cadence: SimDuration) -> Self {
        self.metrics = Some(cadence);
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Session {
            root_seed: self.root_seed,
            workers,
            checkpoint: self.checkpoint,
            metrics: self.metrics,
        }
    }
}

/// A batch-execution session: the single entry point the CLI, the bench
/// sweeps, the examples and the tests share.
///
/// The session owns nothing but its configuration — `run` may be called
/// any number of times, and two sessions with the same root seed produce
/// byte-identical [`FleetReport`] JSON regardless of their worker counts.
#[derive(Debug, Clone)]
pub struct Session {
    root_seed: u64,
    workers: usize,
    checkpoint: Option<(PathBuf, u64)>,
    metrics: Option<SimDuration>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The root seed job seeds derive from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The thread count `run` will use, the calling thread included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one job (job index 0 of a single-job batch) on the calling
    /// thread — the convenience path for single-transfer callers. Unlike
    /// [`Session::run`], the outcome keeps the engine `report`, per-slice
    /// series included, when the engine finished the job.
    pub fn run_one(&self, job: &JobSpec) -> JobOutcome {
        let (outcome, report) = self.run_job(0, job, false);
        JobOutcome { report, ..outcome }
    }

    /// Runs the batch and returns results merged in job order.
    ///
    /// The calling thread and the run's helper threads claim jobs one at
    /// a time from the shared job queue: a slow job never stalls the
    /// others, and because each job's seed depends only on
    /// `(root_seed, index)`, claiming order cannot leak into results. A
    /// job that panics is booked as an [`EadtError::JobFailed`] outcome
    /// and the batch moves on. Each outcome holds only its summary: the
    /// engine report is dropped once the summary is built.
    pub fn run(&self, jobs: &[JobSpec]) -> FleetReport {
        self.run_inner(jobs, false)
    }

    /// Completes an interrupted batch from its checkpoint directory.
    ///
    /// For each job in order: a persisted `job-<i>.outcome.json` is
    /// re-admitted as-is (the job finished before the interrupt); a
    /// persisted checkpoint is validated against the job's index, label
    /// and seed and the engine resumes from it; a job with neither runs
    /// from scratch. Determinism makes the merged [`FleetReport`]
    /// byte-identical to an uninterrupted [`Session::run`].
    ///
    /// # Panics
    /// If the session was built without [`SessionBuilder::checkpoints`].
    pub fn resume(&self, jobs: &[JobSpec]) -> FleetReport {
        assert!(
            self.checkpoint.is_some(),
            "Session::resume requires a checkpoint directory (SessionBuilder::checkpoints)"
        );
        self.run_inner(jobs, true)
    }

    fn run_inner(&self, jobs: &[JobSpec], resume: bool) -> FleetReport {
        let indexed: Vec<(usize, &JobSpec)> = jobs.iter().enumerate().collect();
        let run = |(index, job): (usize, &JobSpec)| self.run_job(index, job, resume).0;
        let jobs = exec::with_pool(self.workers, run, |pool| pool.map(indexed));
        FleetReport {
            schema: FLEET_SCHEMA_VERSION,
            root_seed: self.root_seed,
            metrics: FleetMetrics::rollup(&jobs),
            jobs,
        }
    }

    fn run_job(
        &self,
        index: usize,
        job: &JobSpec,
        resume: bool,
    ) -> (JobOutcome, Option<TransferReport>) {
        let seed = job
            .seed
            .unwrap_or_else(|| derive_job_seed(self.root_seed, index as u64));
        let dir = self
            .checkpoint
            .as_ref()
            .map(|(dir, every)| (dir.as_path(), *every));
        exec::run_to_completion(Leg::new(index, job, seed, self.metrics), dir, resume)
    }
}

/// The merged outcome of one job.
///
/// Serialization deliberately covers only simulation-determined fields —
/// no worker id, no wall-clock timing — so the aggregate JSON is
/// byte-identical between serial and parallel runs at the same root seed.
/// An outcome holds just these fields, so its size does not grow with
/// simulated time: only [`Session::run_one`] also keeps the full
/// [`TransferReport`] (`report`), with its per-slice series. Outcomes of
/// [`Session::run`]/[`Session::resume`] and of the service, and outcomes
/// loaded back from a checkpoint directory, have `report: None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The job's index in the batch (also its seed-derivation index).
    pub job: usize,
    /// Display label from the spec.
    pub label: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// Testbed name.
    pub environment: String,
    /// The seed the job ran at.
    pub seed: u64,
    /// Whether the transfer moved every requested byte in time.
    pub completed: bool,
    /// Bytes delivered.
    pub moved_bytes: u64,
    /// Bytes requested.
    pub requested_bytes: u64,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Average throughput, Mbps.
    pub throughput_mbps: f64,
    /// Total end-system energy, Joules.
    pub energy_j: f64,
    /// Throughput per Joule (the paper's efficiency metric).
    pub efficiency: f64,
    /// Injected channel failures over the run.
    pub failures: u64,
    /// Bytes that crossed the wire, retransmissions included.
    #[serde(default)]
    pub wire_bytes: u64,
    /// Packets pushed through the path (data + control).
    #[serde(default)]
    pub packets: u64,
    /// Reconnection attempts scheduled.
    #[serde(default)]
    pub retries: u64,
    /// Circuit-breaker open transitions.
    #[serde(default)]
    pub breaker_opens: u64,
    /// Progress lost to marker-less restarts and moved again.
    #[serde(default)]
    pub retransmitted_bytes: u64,
    /// Phase/component energy attribution for the job (what the fleet
    /// rollup sums and `eadt profile --from` renders).
    #[serde(default)]
    pub ledger: EnergyLedger,
    /// The final metrics registry, when the session collects metrics.
    /// Persisted with the outcome so a resumed batch re-admits finished
    /// jobs with their histograms intact.
    #[serde(default)]
    pub metrics: Option<MetricsRegistry>,
    /// Coarse error class (`None` for a clean run).
    pub error_kind: Option<String>,
    /// Human-readable error (`None` for a clean run).
    pub error: Option<String>,
    /// The full engine report, filled only by [`Session::run_one`] when
    /// the engine finished the job (`None` everywhere else; skipped in
    /// JSON to keep aggregates compact).
    #[serde(skip)]
    pub report: Option<TransferReport>,
}

impl JobOutcome {
    pub(crate) fn from_report(
        index: usize,
        job: &JobSpec,
        seed: u64,
        report: &TransferReport,
        metrics: Option<MetricsRegistry>,
    ) -> Self {
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
            metrics,
            error_kind: failure.as_ref().map(|e| e.kind().as_str().to_string()),
            error: failure.as_ref().map(EadtError::to_string),
            report: None,
        }
    }

    pub(crate) fn failed(index: usize, job: &JobSpec, seed: u64, error: EadtError) -> Self {
        JobOutcome {
            job: index,
            label: job.display_label(),
            algorithm: job.kind.name().to_string(),
            environment: job.env.name.clone(),
            seed,
            completed: false,
            moved_bytes: 0,
            requested_bytes: 0,
            duration_s: 0.0,
            throughput_mbps: 0.0,
            energy_j: 0.0,
            efficiency: 0.0,
            failures: 0,
            wire_bytes: 0,
            packets: 0,
            retries: 0,
            breaker_opens: 0,
            retransmitted_bytes: 0,
            ledger: EnergyLedger::default(),
            metrics: None,
            error_kind: Some(error.kind().as_str().to_string()),
            error: Some(error.to_string()),
            report: None,
        }
    }
}

/// The merged result of a batch, in job order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Report schema version ([`FLEET_SCHEMA_VERSION`]).
    pub schema: u32,
    /// The root seed the batch ran at.
    pub root_seed: u64,
    /// Fleet-wide rollup: counters summed, histograms merged bucket-wise,
    /// ledgers added — all in job-index order.
    #[serde(default)]
    pub metrics: FleetMetrics,
    /// Per-job outcomes, index-ordered (independent of execution order).
    pub jobs: Vec<JobOutcome>,
}

impl FleetReport {
    /// Jobs that completed their transfer.
    pub fn completed_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.completed).count()
    }

    /// Jobs that ended in a typed error.
    pub fn error_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.error.is_some()).count()
    }

    /// The canonical aggregate form: pretty JSON with index-ordered jobs
    /// and no execution metadata. Byte-identical for a given root seed
    /// and job list, whatever the worker count.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::JobRunner;
    use crate::exec::Step;
    use eadt_ckpt::{CheckpointStore, JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
    use eadt_core::AlgorithmKind;
    use eadt_transfer::{ResourceShare, RunControl, RunOutcome};
    use std::fs;

    fn small_jobs() -> Vec<JobSpec> {
        let tb = eadt_testbeds::didclab();
        [AlgorithmKind::Sc, AlgorithmKind::ProMc, AlgorithmKind::Guc]
            .into_iter()
            .map(|kind| {
                JobSpec::new(kind, tb.clone())
                    .with_scale(0.005)
                    .with_max_channel(2)
            })
            .collect()
    }

    fn ckpt_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eadt-fleet-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn results_are_merge_ordered_and_labelled() {
        let report = Session::builder()
            .root_seed(9)
            .workers(2)
            .build()
            .run(&small_jobs());
        assert_eq!(report.jobs.len(), 3);
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.job, i);
            assert!(j.completed, "{}", j.label);
            assert!(j.error.is_none());
        }
        assert_eq!(report.jobs[0].algorithm, "SC");
        assert_eq!(report.completed_count(), 3);
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn serial_and_parallel_json_match() {
        let jobs = small_jobs();
        let serial = Session::builder()
            .root_seed(5)
            .workers(1)
            .build()
            .run(&jobs);
        let parallel = Session::builder()
            .root_seed(5)
            .workers(3)
            .build()
            .run(&jobs);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn only_run_one_keeps_the_engine_report() {
        let jobs = small_jobs();
        let session = Session::builder().root_seed(5).workers(1).build();
        let engine = JobRunner::prepare(&jobs[0], derive_job_seed(5, 0))
            .run_controlled(RunControl::default())
            .into_report()
            .unwrap();
        assert!(!engine.throughput_series.is_empty());
        let dir = ckpt_dir("run-one");
        let checkpointed = Session::builder().root_seed(5).checkpoints(&dir, 4).build();
        for one in [session.run_one(&jobs[0]), checkpointed.run_one(&jobs[0])] {
            let report = one.report.as_ref().expect("run_one keeps the report");
            assert_eq!(
                serde_json::to_string(report).unwrap(),
                serde_json::to_string(&engine).unwrap()
            );
        }
        let batch = session.run(&jobs);
        assert!(batch.jobs.iter().all(|j| j.completed && j.report.is_none()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_seed_overrides_derivation() {
        let tb = eadt_testbeds::didclab();
        let job = JobSpec::new(AlgorithmKind::Sc, tb)
            .with_scale(0.005)
            .with_seed(77);
        let report = Session::builder()
            .root_seed(1)
            .build()
            .run(std::slice::from_ref(&job));
        assert_eq!(report.jobs[0].seed, 77);
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = Session::builder().root_seed(3).workers(4).build().run(&[]);
        assert_eq!(report.jobs.len(), 0);
        assert_eq!(report.schema, FLEET_SCHEMA_VERSION);
    }

    #[test]
    fn worker_panic_surfaces_payload_and_job_id() {
        let mut jobs = small_jobs();
        jobs[1].label = Some(exec::TEST_PANIC_LABEL.into());
        let session = Session::builder().root_seed(9).workers(2).build();
        let report = session.run(&jobs);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.completed_count(), 2);
        let failed = &report.jobs[1];
        assert!(!failed.completed);
        assert_eq!(failed.error_kind.as_deref(), Some("job-failed"));
        let err = failed.error.as_deref().unwrap();
        assert!(err.contains("injected chaos payload"), "{err}");
        assert!(err.contains("job 1"), "{err}");
        assert!(report.jobs[0].error.is_none());
        assert!(report.jobs[2].error.is_none());
    }

    #[test]
    fn checkpointed_run_matches_plain_and_retires_checkpoints() {
        let jobs = small_jobs();
        let plain = Session::builder()
            .root_seed(5)
            .workers(1)
            .build()
            .run(&jobs);
        let dir = ckpt_dir("cadence");
        let checkpointed = Session::builder()
            .root_seed(5)
            .workers(2)
            .checkpoints(&dir, 4)
            .build()
            .run(&jobs);
        assert_eq!(plain.to_json(), checkpointed.to_json());
        for i in 0..jobs.len() {
            assert!(
                dir.join(CheckpointStore::outcome_name(i)).exists(),
                "job {i} outcome missing"
            );
            assert!(
                !dir.join(CheckpointStore::checkpoint_name(i)).exists(),
                "job {i} checkpoint not retired"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_of_half_killed_fleet_is_byte_identical() {
        let jobs = small_jobs();
        let baseline = Session::builder()
            .root_seed(7)
            .workers(1)
            .build()
            .run(&jobs);

        // Fabricate the crash site: job 0 finished (outcome persisted),
        // job 1 died mid-flight (checkpoint on disk), job 2 never started.
        let dir = ckpt_dir("resume");
        Session::builder()
            .root_seed(7)
            .workers(1)
            .checkpoints(&dir, 4)
            .build()
            .run(&jobs[..1]);
        let store = CheckpointStore::create(&dir).unwrap();
        let seed1 = derive_job_seed(7, 1);
        let halted = JobRunner::prepare(&jobs[1], seed1).run_controlled(RunControl::halt_at(1));
        let RunOutcome::Halted(engine) = halted else {
            panic!("job too short to interrupt")
        };
        store
            .save_job_checkpoint(&JobCheckpoint {
                schema: JOB_CHECKPOINT_SCHEMA_VERSION,
                job: 1,
                label: jobs[1].display_label(),
                algorithm: jobs[1].kind.name().to_string(),
                seed: seed1,
                engine: *engine,
            })
            .unwrap();

        let resumed = Session::builder()
            .root_seed(7)
            .workers(2)
            .checkpoints(&dir, 4)
            .build()
            .resume(&jobs);
        assert_eq!(resumed.to_json(), baseline.to_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollup_rides_the_report_and_is_worker_invariant() {
        let jobs = small_jobs();
        let serial = Session::builder()
            .root_seed(5)
            .workers(1)
            .metrics(eadt_sim::SimDuration::from_secs(1))
            .build()
            .run(&jobs);
        let parallel = Session::builder()
            .root_seed(5)
            .workers(3)
            .metrics(eadt_sim::SimDuration::from_secs(1))
            .build()
            .run(&jobs);
        assert_eq!(serial.to_json(), parallel.to_json());
        let m = &serial.metrics;
        assert_eq!(m.jobs_total, 3);
        assert_eq!(m.jobs_completed, 3);
        assert!(m.bytes_moved > 0);
        assert!(m.energy_j > 0.0);
        assert!(!m.ledger.is_empty());
        assert!(
            m.histograms
                .iter()
                .any(|h| h.name() == "channel_throughput_mbps"),
            "engine histograms should be merged into the rollup"
        );
        assert_eq!(
            m.to_prometheus(),
            parallel.metrics.to_prometheus(),
            "exposition must be worker-invariant"
        );
        // Without metrics collection the rollup still carries counters
        // and ledgers, just no histograms.
        let plain = Session::builder().root_seed(5).build().run(&jobs);
        assert!(plain.metrics.histograms.is_empty());
        assert_eq!(plain.metrics.bytes_moved, m.bytes_moved);
        assert_eq!(plain.metrics.energy_j, m.energy_j);
    }

    #[test]
    fn checkpointed_metrics_rollup_matches_straight_run() {
        let jobs = small_jobs();
        let cadence = eadt_sim::SimDuration::from_secs(1);
        let plain = Session::builder()
            .root_seed(5)
            .workers(1)
            .metrics(cadence)
            .build()
            .run(&jobs);
        let dir = ckpt_dir("metrics");
        let checkpointed = Session::builder()
            .root_seed(5)
            .workers(2)
            .metrics(cadence)
            .checkpoints(&dir, 4)
            .build()
            .run(&jobs);
        assert_eq!(plain.to_json(), checkpointed.to_json());
        assert_eq!(
            plain.metrics.to_prometheus(),
            checkpointed.metrics.to_prometheus()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_report_json_round_trips() {
        let report = Session::builder()
            .root_seed(11)
            .workers(1)
            .metrics(eadt_sim::SimDuration::from_secs(1))
            .build()
            .run(&small_jobs()[..1]);
        let text = report.to_json();
        let back: FleetReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema, FLEET_SCHEMA_VERSION);
        assert_eq!(back.to_json(), text, "round trip must be byte-identical");
    }

    #[test]
    fn resume_with_mismatched_checkpoint_books_a_failure() {
        let jobs = small_jobs();
        let dir = ckpt_dir("mismatch");
        let store = CheckpointStore::create(&dir).unwrap();
        let seed0 = derive_job_seed(2, 0);
        let halted = JobRunner::prepare(&jobs[0], seed0).run_controlled(RunControl::halt_at(1));
        let RunOutcome::Halted(engine) = halted else {
            panic!("job too short to interrupt")
        };
        store
            .save_job_checkpoint(&JobCheckpoint {
                schema: JOB_CHECKPOINT_SCHEMA_VERSION,
                job: 0,
                label: jobs[0].display_label(),
                algorithm: jobs[0].kind.name().to_string(),
                seed: seed0.wrapping_add(1), // wrong seed: foreign run
                engine: *engine,
            })
            .unwrap();
        let resumed = Session::builder()
            .root_seed(2)
            .workers(1)
            .checkpoints(&dir, 4)
            .build()
            .resume(&jobs);
        let err = resumed.jobs[0].error.as_deref().unwrap();
        assert!(err.contains("seed"), "{err}");
        assert!(resumed.jobs[1].error.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicked_resume_keeps_job_checkpoints() {
        let jobs = small_jobs();
        let cadence = eadt_sim::SimDuration::from_secs(1);
        let straight = Session::builder()
            .root_seed(4)
            .workers(1)
            .metrics(cadence)
            .build()
            .run(&jobs);

        // The crash site of a metrics run: every job but the last halted
        // after one slice; the last had not started.
        let dir = ckpt_dir("panicked");
        let store = CheckpointStore::create(&dir).unwrap();
        let last = jobs.len() - 1;
        for (i, job) in jobs.iter().enumerate().take(last) {
            let mut leg = Leg::new(i, job, derive_job_seed(4, i as u64), Some(cadence));
            let step = leg.advance(Some(1), ResourceShare::FULL);
            assert!(
                matches!(step, Step::Paused),
                "job {i} too short to interrupt"
            );
            store
                .save_job_checkpoint(&leg.checkpoint().unwrap())
                .unwrap();
        }

        // A resume without metrics panics in every engine restore, books
        // the failures and leaves those job checkpoints in place, while the
        // unstarted last job runs and saves an outcome without metrics ...
        let mismatched = Session::builder()
            .root_seed(4)
            .workers(2)
            .checkpoints(&dir, 4)
            .build()
            .resume(&jobs);
        // ... and so does a resume at twice the cadence: no job finishes at
        // its checkpoint's cadence inside a report of another ...
        let doubled = Session::builder()
            .root_seed(4)
            .workers(2)
            .metrics(eadt_sim::SimDuration::from_secs(2))
            .checkpoints(&dir, 4)
            .build()
            .resume(&jobs);
        for report in [&mismatched, &doubled] {
            for (i, job) in report.jobs.iter().enumerate().take(last) {
                let err = job.error.as_deref().unwrap_or("finished");
                assert!(err.contains("metrics state"), "job {i}: {err}");
                assert!(dir.join(CheckpointStore::checkpoint_name(i)).exists());
                assert!(!dir.join(CheckpointStore::outcome_name(i)).exists());
            }
        }
        // ... so the corrected resume completes the straight run, and
        // recomputes the outcome saved under the other metrics cadences.
        let resumed = Session::builder()
            .root_seed(4)
            .workers(2)
            .metrics(cadence)
            .checkpoints(&dir, 4)
            .build()
            .resume(&jobs);
        assert_eq!(resumed.to_json(), straight.to_json());
        assert_eq!(
            resumed.metrics.to_prometheus(),
            straight.metrics.to_prometheus()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
