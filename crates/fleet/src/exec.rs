//! The fleet executor (DESIGN.md §11, §16): the crate's one worker pool,
//! one [`Leg`] per job, and the only code that reads or writes outcome
//! and batch job-checkpoint files.
//!
//! A batch maps [`run_to_completion`] over its jobs. The service keeps
//! each job's [`Leg`] from its first admission until it finishes and
//! maps [`Leg::advance`] over each round's residents. Either way a job is
//! prepared and planned once and then stepped as one live
//! [`EngineRun`]; a panic anywhere in it is caught in [`Leg::advance`]
//! and booked as that job's `JobFailed` outcome.

use crate::dispatch::JobRunner;
use crate::session::JobOutcome;
use crate::spec::JobSpec;
use eadt_ckpt::{CheckpointStore, CkptError, JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
use eadt_sim::{EadtError, SimDuration};
use eadt_telemetry::{MetricsRegistry, Telemetry};
use eadt_transfer::{EngineCheckpoint, EngineRun, ResourceShare, TransferEnv, TransferReport};
use std::any::Any;
use std::borrow::Cow;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A job carrying this label panics inside its guarded leg in test
/// builds, so the tests can drive the panic path through real jobs.
pub(crate) const TEST_PANIC_LABEL: &str = "exec-test-panic";

/// Applies `f` to every item and returns the results in item order.
///
/// Up to `workers` scoped threads claim items from an atomic cursor, so a
/// slow item never stalls the others; because results land in per-item
/// cells, neither the worker count nor the claiming order can reach the
/// output. One worker (or one item) runs serially on the calling thread.
pub(crate) fn par_map<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let cells: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|item| Mutex::new((Some(item), None)))
        .collect();
    let cursor = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned worker-pool spawn site: the fleet executor's order-preserving parallel map, which both the batch Session and the service's per-round advance run on; results land in per-item cells read back in item order, and the service's single-threaded coordinator emits every journal event, so reports and journals are byte-identical for any worker count (tests/fleet_determinism.rs and tests/service_determinism.rs prove it)"
    )]
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(cell) = cells.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let item = lock(cell).0.take();
                    if let Some(item) = item {
                        let result = f(item);
                        lock(cell).1 = Some(result);
                    }
                }
            });
        }
    });
    cells
        .into_iter()
        .filter_map(|cell| cell.into_inner().unwrap_or_else(PoisonError::into_inner).1)
        .collect()
}

/// Locks a cell. No guard is held while `f` runs and every update is one
/// assignment, so a poisoned cell still holds whole values.
fn lock<T>(cell: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One job from its first admission until it finishes: its telemetry,
/// and — from the first advance on — its environment and live
/// [`EngineRun`]. A finished job's leg is dropped with its run.
pub(crate) struct Leg<'a> {
    index: usize,
    spec: &'a JobSpec,
    seed: u64,
    tel: Telemetry,
    /// The environment (fault override applied) and the run stepping in
    /// it, built inside the first [`Leg::advance`], under its panic guard.
    live: Option<(Cow<'a, TransferEnv>, EngineRun<'static>)>,
    /// Engine state read back from disk, restored by the first advance.
    saved: Option<EngineCheckpoint>,
    /// Engine states this leg snapshotted, and restored from disk.
    pub(crate) snapshots: u64,
    pub(crate) restores: u64,
}

/// How one [`Leg::advance`] ended.
pub(crate) enum Step {
    /// Paused at the step boundary; the leg holds the live run.
    Paused,
    /// The engine ran the job to its end.
    Done(JobOutcome),
    /// A panic was caught and booked as the job's `JobFailed` outcome.
    Panicked(JobOutcome),
}

impl<'a> Leg<'a> {
    /// Job `index` of `spec` at `seed`, not yet prepared. `metrics`
    /// attaches a registry sampling on that cadence; a restore refills it
    /// from the checkpoint, so the final snapshot is interrupt-invariant.
    pub(crate) fn new(
        index: usize,
        spec: &'a JobSpec,
        seed: u64,
        metrics: Option<SimDuration>,
    ) -> Self {
        Leg {
            index,
            spec,
            seed,
            tel: Telemetry::from_parts(None, metrics.map(MetricsRegistry::new)),
            live: None,
            saved: None,
            snapshots: 0,
            restores: 0,
        }
    }

    /// True once the job has engine state: it resumes, not starts.
    pub(crate) fn started(&self) -> bool {
        self.live.is_some() || self.saved.is_some()
    }

    /// The leg's engine state, bound to this job: a snapshot of the live
    /// run, or the state read back from disk that no advance has
    /// restored yet.
    pub(crate) fn checkpoint(&mut self) -> Option<JobCheckpoint> {
        let engine = match (&self.live, &self.saved) {
            (Some((_, run)), _) => {
                self.snapshots += 1;
                run.snapshot(&self.tel)
            }
            (None, Some(saved)) => saved.clone(),
            (None, None) => return None,
        };
        Some(JobCheckpoint {
            schema: JOB_CHECKPOINT_SCHEMA_VERSION,
            job: self.index,
            label: self.spec.display_label(),
            algorithm: self.spec.kind.name().to_string(),
            seed: self.seed,
            engine,
        })
    }

    /// Resumes the job from `ck` once it is validated against the job.
    pub(crate) fn restore(&mut self, ck: JobCheckpoint) -> Result<(), CkptError> {
        ck.validate(self.index, &self.spec.display_label(), self.seed)?;
        self.saved = Some(ck.engine);
        Ok(())
    }

    /// Steps the job by `slices` more slices under `share` (`None`: to
    /// its end). The first advance prepares and plans the job and builds
    /// its run — restored from the saved engine state, if any.
    ///
    /// This is the crate's only panic guard: a panic in preparation or in
    /// the engine becomes the job's `JobFailed` outcome instead of taking
    /// the batch or the service down.
    pub(crate) fn advance(&mut self, slices: Option<u64>, share: ResourceShare) -> Step {
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| self.run_leg(slices, share)));
        let report = match run {
            Ok(None) => return Step::Paused,
            Ok(Some(report)) => report,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                return Step::Panicked(
                    self.failed(format!("worker panicked in job {}: {message}", self.index)),
                );
            }
        };
        let metrics = self.tel.metrics_ref().map(MetricsRegistry::snapshot);
        Step::Done(JobOutcome::from_report(
            self.index, self.spec, self.seed, report, metrics,
        ))
    }

    fn run_leg(&mut self, slices: Option<u64>, share: ResourceShare) -> Option<TransferReport> {
        if cfg!(test) && self.spec.label.as_deref() == Some(TEST_PANIC_LABEL) {
            panic!("injected chaos payload");
        }
        let (env, run) = self.live.get_or_insert_with(|| {
            let runner = JobRunner::prepare(self.spec, self.seed);
            let saved = self.saved.take();
            let restored = saved.is_some();
            let run = runner.start(&mut self.tel, saved);
            self.restores += u64::from(restored);
            (runner.into_env(), run)
        });
        run.step(env, &mut self.tel, slices, share)
    }

    fn failed(&self, message: String) -> JobOutcome {
        let error = EadtError::job_failed(self.spec.display_label(), message);
        JobOutcome::failed(self.index, self.spec, self.seed, error)
    }
}

/// Runs batch job `leg` to completion (DESIGN.md §11).
///
/// With a checkpoint directory `(dir, every)` the job's own files there
/// are its commit point (DESIGN.md §13): on `resume` a matching outcome
/// file is re-admitted as-is; otherwise the job resumes from its job
/// checkpoint when one exists, pauses every `every` slices to save a
/// snapshot of its live run, and once the engine finishes leaves its
/// outcome file in the checkpoint's place. A caught panic is booked but not saved, so the job checkpoint
/// survives for a resume once the cause is fixed. A store failure is
/// booked as the job's failure.
pub(crate) fn run_to_completion(
    mut leg: Leg<'_>,
    dir: Option<(&Path, u64)>,
    resume: bool,
) -> JobOutcome {
    let run_legs = |leg: &mut Leg<'_>| -> Result<JobOutcome, CkptError> {
        let store = dir
            .map(|(dir, _)| CheckpointStore::create(dir))
            .transpose()?;
        if let Some(store) = &store {
            if resume {
                let cadence = leg.tel.metrics_ref().map(MetricsRegistry::cadence);
                if let Some(outcome) = load_outcome(store, leg.index, leg.spec, leg.seed, cadence) {
                    return Ok(outcome);
                }
            }
            if let Some(ck) = store.load_job_checkpoint(leg.index)? {
                leg.restore(ck)?;
            }
        }
        loop {
            match leg.advance(dir.map(|(_, every)| every), ResourceShare::FULL) {
                Step::Paused => {
                    if let (Some(store), Some(ck)) = (&store, leg.checkpoint()) {
                        store.save_job_checkpoint(&ck)?;
                    }
                }
                Step::Done(outcome) => {
                    if let Some(store) = &store {
                        save_outcome(store, &outcome)?;
                        store.remove(&CheckpointStore::checkpoint_name(leg.index))?;
                    }
                    return Ok(outcome);
                }
                Step::Panicked(outcome) => return Ok(outcome),
            }
        }
    };
    run_legs(&mut leg).unwrap_or_else(|e| leg.failed(format!("job {}: {e}", leg.index)))
}

/// Writes a finished job's outcome file.
pub(crate) fn save_outcome(store: &CheckpointStore, outcome: &JobOutcome) -> Result<(), CkptError> {
    let mut text = serde_json::to_string_pretty(outcome).unwrap_or_else(|_| "{}".to_string());
    text.push('\n');
    store.write(&CheckpointStore::outcome_name(outcome.job), &text)
}

/// A finished job's outcome file, if it exists and matches the job it is
/// re-admitted for: its index, label, seed and metrics cadence (`None`
/// for a run that samples no metrics). Any read, parse or match problem
/// is `None`: running the job again reproduces the identical outcome, so
/// recomputing is always a safe answer.
pub(crate) fn load_outcome(
    store: &CheckpointStore,
    index: usize,
    spec: &JobSpec,
    seed: u64,
    cadence: Option<SimDuration>,
) -> Option<JobOutcome> {
    let text = store.read(&CheckpointStore::outcome_name(index)).ok()??;
    let outcome: JobOutcome = serde_json::from_str(&text).ok()?;
    (outcome.job == index
        && outcome.label == spec.display_label()
        && outcome.seed == seed
        && outcome.metrics.as_ref().map(|m| m.cadence) == cadence)
        .then_some(outcome)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_string())
}
