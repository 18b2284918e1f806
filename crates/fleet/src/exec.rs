//! The fleet executor (DESIGN.md §11, §16): the crate's one worker pool,
//! one [`Leg`] per job, and the only code that reads or writes outcome
//! and batch job-checkpoint files.
//!
//! The pool ([`with_pool`]) lives for one batch or one service run: the
//! calling thread plus up to `workers - 1` scoped helpers, which park
//! between [`Pool::map`] calls. A batch makes one `map` call of
//! [`run_to_completion`] over its jobs. The service keeps each job's
//! [`Leg`] from its first admission (or from its preparation ahead of
//! it) until it finishes and makes one `map` call per round, which only
//! wakes parked helpers: [`Leg::advance`] over its residents and, beside
//! a resident's first advance, [`Leg::prepare_ahead`] over the jobs it
//! admits next. Either way a job is prepared and planned once and then
//! stepped as one live [`EngineRun`], which the leg keeps boxed, so the
//! pool moves legs as a few hundred bytes each; a panic anywhere in it is
//! booked as that job's `JobFailed` outcome by its first or current
//! [`Leg::advance`].

use crate::dispatch::JobRunner;
use crate::session::JobOutcome;
use crate::spec::JobSpec;
use eadt_ckpt::{CheckpointStore, CkptError, JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
use eadt_sim::{EadtError, SimDuration};
use eadt_telemetry::{MetricsRegistry, Telemetry};
use eadt_transfer::{EngineCheckpoint, EngineRun, ResourceShare, TransferEnv, TransferReport};
use serde::ser::Writer;
use serde::Serialize;
use std::any::Any;
use std::borrow::Cow;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A job carrying this label panics in its preparation in test builds,
/// so the tests can drive the panic paths through real jobs.
pub(crate) const TEST_PANIC_LABEL: &str = "exec-test-panic";

/// Runs `body` with a worker pool that maps `f` over items: `workers`
/// threads in total, the calling thread included.
///
/// The pool lives until `body` returns. Its `workers - 1` helpers are
/// scoped threads, each spawned the first time a [`Pool::map`] call has
/// an item for it. Between calls a helper parks on its wake channel;
/// when `body` returns or unwinds, dropping the pool closes the channels
/// and the scope joins the helpers. There is no process-wide pool.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned spawn site: the fleet executor's worker pool, whose scoped helpers live for one batch or one service run and park between map calls; results land in per-item slots read back in item order, and the service's single-threaded coordinator emits every journal event, so reports and journals are byte-identical for any worker count (tests/fleet_determinism.rs and tests/service_determinism.rs prove it)"
)]
pub(crate) fn with_pool<T: Send, R: Send, O>(
    workers: usize,
    f: impl Fn(T) -> R + Sync,
    body: impl FnOnce(&mut Pool<'_, '_, T, R>) -> O,
) -> O {
    let shared = Shared {
        batch: Mutex::new(Batch {
            todo: Vec::new().into_iter().enumerate(),
            results: Vec::new(),
            running: 0,
        }),
        done: Condvar::new(),
    };
    std::thread::scope(|scope| {
        body(&mut Pool {
            scope,
            shared: &shared,
            f: &f,
            workers,
            helpers: Vec::new(),
        })
    })
}

/// The handle [`with_pool`] lends its body.
pub(crate) struct Pool<'scope, 'env, T, R> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'env Shared<T, R>,
    f: &'env (dyn Fn(T) -> R + Sync),
    workers: usize,
    /// The wake channel of each helper spawned so far.
    helpers: Vec<Sender<()>>,
}

/// What the caller and the helpers share: the current call's items under
/// a lock, and the condvar the caller waits on for the last of them.
struct Shared<T, R> {
    batch: Mutex<Batch<T, R>>,
    done: Condvar,
}

/// The current [`Pool::map`] call's items.
struct Batch<T, R> {
    /// Items nobody has claimed yet, with their indices.
    todo: std::iter::Enumerate<std::vec::IntoIter<T>>,
    /// Per-item slots: the result, or the payload of a panic in `f`.
    results: Vec<Option<std::thread::Result<R>>>,
    /// Items claimed but not yet finished.
    running: usize,
}

impl<T: Send, R: Send> Pool<'_, '_, T, R> {
    /// Applies `f` to every item and returns the results in item order.
    ///
    /// The caller and `min(workers, items) - 1` woken helpers claim items
    /// one at a time, so a slow item never stalls the others; because
    /// results land in per-item slots, neither the worker count nor the
    /// claiming order can reach the output. One worker, or one item, runs
    /// serially on the calling thread and wakes nobody.
    ///
    /// A panic in `f` on any thread is re-raised here once every item has
    /// finished, so the call never returns fewer results than items. The
    /// caller claims items until none is left, and then waits only for
    /// items a helper is running, so it never waits on a parked or dead
    /// helper.
    pub(crate) fn map(&mut self, items: Vec<T>) -> Vec<R> {
        let wake = self
            .workers
            .saturating_sub(1)
            .min(items.len().saturating_sub(1));
        if wake == 0 {
            return items.into_iter().map(self.f).collect();
        }
        let mut batch = lock(&self.shared.batch);
        batch.results.resize_with(items.len(), || None);
        batch.todo = items.into_iter().enumerate();
        drop(batch);
        while self.helpers.len() < wake {
            let (tx, rx) = mpsc::channel();
            let (shared, f) = (self.shared, self.f);
            self.scope.spawn(move || shared.help(&rx, f));
            self.helpers.push(tx);
        }
        for helper in self.helpers.iter().take(wake) {
            // A helper that is gone leaves its items to the others.
            let _ = helper.send(());
        }
        let mut batch = self.shared.drain(lock(&self.shared.batch), self.f);
        while batch.running > 0 {
            batch = self
                .shared
                .done
                .wait(batch)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let results = std::mem::take(&mut batch.results);
        drop(batch);
        results
            .into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err(Box::new("unclaimed pool item"))))
            .map(|slot| slot.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }
}

impl<T, R> Shared<T, R> {
    /// A helper's life: drain the current call's items on each wake, and
    /// return once the pool has dropped the sending end.
    fn help(&self, wake: &Receiver<()>, f: &(dyn Fn(T) -> R + Sync)) {
        while wake.recv().is_ok() {
            drop(self.drain(lock(&self.batch), f));
        }
    }

    /// Claims and runs items until none is left. Each runs outside the
    /// lock under `catch_unwind`, so every claimed item finishes with a
    /// result or a panic payload; the last one to finish wakes the
    /// caller.
    fn drain<'g>(
        &'g self,
        mut batch: MutexGuard<'g, Batch<T, R>>,
        f: &(dyn Fn(T) -> R + Sync),
    ) -> MutexGuard<'g, Batch<T, R>> {
        while let Some((index, item)) = batch.todo.next() {
            batch.running += 1;
            drop(batch);
            let call = AssertUnwindSafe(|| f(item));
            let result = std::panic::catch_unwind(call);
            batch = lock(&self.batch);
            batch.running -= 1;
            if let Some(slot) = batch.results.get_mut(index) {
                *slot = Some(result);
            }
            if batch.running == 0 {
                self.done.notify_one();
            }
        }
        batch
    }
}

/// Locks a mutex. No guard on the batch is held while `f` runs and every
/// update is a plain assignment, so a poisoned batch is still whole.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One job from its first admission (or its preparation ahead of it)
/// until it finishes: its telemetry and its engine state, whose run or
/// checkpoint is boxed, so a leg moves into and out of the pool as a few
/// hundred bytes. A finished job's leg is dropped with its run.
pub(crate) struct Leg<'a> {
    index: usize,
    spec: &'a JobSpec,
    seed: u64,
    tel: Telemetry,
    /// `None` until the job is prepared or bound to a saved state.
    state: Option<LegState<'a>>,
    /// Whether the run records its per-slice series: only a leg whose
    /// engine state may be checkpointed, or whose report reaches the
    /// caller, needs them.
    series: bool,
    /// Engine states this leg snapshotted, and restored from disk.
    pub(crate) snapshots: u64,
    pub(crate) restores: u64,
}

/// A leg's engine state.
enum LegState<'a> {
    /// Read back from disk; [`Leg::prepare`] restores it.
    Saved(Box<EngineCheckpoint>),
    /// Prepared: never stepped, or live once stepped.
    Run(Box<Live<'a>>),
    /// [`Leg::prepare_ahead`] caught a panic with this message; the first
    /// advance books it.
    Failed(String),
}

/// A prepared job: the environment (fault override applied) and the run
/// stepping in it.
struct Live<'a> {
    env: Cow<'a, TransferEnv>,
    run: EngineRun<'static>,
    stepped: bool,
}

/// How one [`Leg::advance`] ended. The outcome and report are boxed, so
/// a paused step moves through the pool as a few bytes.
pub(crate) enum Step {
    /// Paused at the step boundary; the leg holds the live run.
    Paused,
    /// The engine ran the job to its end: the job's summary, and the
    /// engine report it was built from, with its per-slice series when
    /// the leg records them.
    Done(Box<JobOutcome>, Box<TransferReport>),
    /// A panic was caught and booked as the job's `JobFailed` outcome.
    Panicked(Box<JobOutcome>),
}

impl<'a> Leg<'a> {
    /// Job `index` of `spec` at `seed`, not yet prepared. `metrics`
    /// attaches a registry sampling on that cadence; a restore refills it
    /// from the checkpoint, so the final snapshot is interrupt-invariant.
    /// Without `series` the run discards its per-slice series
    /// ([`EngineRun::discard_series`]): the leg can then neither
    /// checkpoint it nor hand back a report that shows them.
    pub(crate) fn new(
        index: usize,
        spec: &'a JobSpec,
        seed: u64,
        metrics: Option<SimDuration>,
        series: bool,
    ) -> Self {
        Leg {
            index,
            spec,
            seed,
            tel: Telemetry::from_parts(None, metrics.map(MetricsRegistry::new)),
            state: None,
            series,
            snapshots: 0,
            restores: 0,
        }
    }

    /// True once the job has stepped or holds a saved state: it resumes,
    /// not starts.
    pub(crate) fn started(&self) -> bool {
        match &self.state {
            Some(LegState::Saved(_)) => true,
            Some(LegState::Run(live)) => live.stepped,
            Some(LegState::Failed(_)) | None => false,
        }
    }

    /// True once the job is prepared (its run built, or its preparation
    /// failed): its next advance does not prepare it.
    pub(crate) fn prepared(&self) -> bool {
        matches!(self.state, Some(LegState::Run(_) | LegState::Failed(_)))
    }

    /// The leg's engine state, bound to this job: a snapshot of the live
    /// run, or the state read back from disk that no advance has
    /// restored yet. A prepared run that never stepped has none.
    pub(crate) fn checkpoint(&mut self) -> Option<JobCheckpoint> {
        let engine = match &self.state {
            Some(LegState::Run(live)) if live.stepped => {
                self.snapshots += 1;
                live.run.snapshot(&self.tel)
            }
            Some(LegState::Saved(saved)) => EngineCheckpoint::clone(saved),
            _ => return None,
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
        self.state = Some(LegState::Saved(Box::new(ck.engine)));
        Ok(())
    }

    /// Prepares and plans the job and builds its run — restored from the
    /// saved engine state, if any — on a leg that holds no run. It steps
    /// nothing, so no stage starts and not even an empty job ends here.
    /// The first advance calls it unless [`Leg::prepare_ahead`] did.
    fn prepare(&mut self) {
        if cfg!(test) && self.spec.label.as_deref() == Some(TEST_PANIC_LABEL) {
            panic!("injected chaos payload");
        }
        let saved = match self.state.take() {
            Some(LegState::Saved(saved)) => Some(*saved),
            _ => None,
        };
        let restored = saved.is_some();
        let runner = JobRunner::prepare(self.spec, self.seed);
        let mut run = runner.start(&mut self.tel, saved);
        if !self.series {
            run.discard_series();
        }
        self.restores += u64::from(restored);
        self.state = Some(LegState::Run(Box::new(Live {
            env: runner.into_env(),
            run,
            stepped: false,
        })));
    }

    /// Prepares a leg that holds no engine state ahead of its first
    /// advance, which books a panic caught here as the job's `JobFailed`
    /// outcome, exactly as it books one of its own.
    pub(crate) fn prepare_ahead(&mut self) {
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| self.prepare())) {
            self.state = Some(LegState::Failed(panic_message(payload.as_ref())));
        }
    }

    /// Steps the job by `slices` more slices under `share` (`None`: to
    /// its end), preparing it first unless that is done.
    ///
    /// This is the crate's panic guard, with [`Leg::prepare_ahead`]: a
    /// panic in preparation or in the engine becomes the job's `JobFailed`
    /// outcome instead of taking the batch or the service down.
    pub(crate) fn advance(&mut self, slices: Option<u64>, share: ResourceShare) -> Step {
        let run = match &mut self.state {
            Some(LegState::Failed(message)) => Err(std::mem::take(message)),
            _ => std::panic::catch_unwind(AssertUnwindSafe(|| self.run_leg(slices, share)))
                .map_err(|payload| panic_message(payload.as_ref())),
        };
        let report = match run {
            Ok(None) => return Step::Paused,
            Ok(Some(report)) => report,
            Err(message) => {
                let message = format!("worker panicked in job {}: {message}", self.index);
                return Step::Panicked(Box::new(self.failed(message)));
            }
        };
        let metrics = self.tel.metrics_ref().cloned();
        let outcome = JobOutcome::from_report(self.index, self.spec, self.seed, &report, metrics);
        Step::Done(Box::new(outcome), Box::new(report))
    }

    fn run_leg(&mut self, slices: Option<u64>, share: ResourceShare) -> Option<TransferReport> {
        if !self.prepared() {
            self.prepare();
        }
        let Some(LegState::Run(live)) = &mut self.state else {
            unreachable!("a prepared leg holds its run");
        };
        live.stepped = true;
        live.run.step(&live.env, &mut self.tel, slices, share)
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
///
/// Beside the outcome comes the engine report of a job the engine
/// finished here; a re-admitted or failed job has none.
pub(crate) fn run_to_completion(
    mut leg: Leg<'_>,
    dir: Option<(&Path, u64)>,
    resume: bool,
) -> (JobOutcome, Option<TransferReport>) {
    type Finished = (JobOutcome, Option<TransferReport>);
    let run_legs = |leg: &mut Leg<'_>| -> Result<Finished, CkptError> {
        let store = dir
            .map(|(dir, _)| CheckpointStore::create(dir))
            .transpose()?;
        if let Some(store) = &store {
            if resume {
                let cadence = leg.tel.metrics_ref().map(MetricsRegistry::cadence);
                if let Some(outcome) = load_outcome(store, leg.index, leg.spec, leg.seed, cadence) {
                    return Ok((outcome, None));
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
                Step::Done(outcome, report) => {
                    if let Some(store) = &store {
                        save_outcome(store, &outcome)?;
                        store.remove(&CheckpointStore::checkpoint_name(leg.index))?;
                    }
                    return Ok((*outcome, Some(*report)));
                }
                Step::Panicked(outcome) => return Ok((*outcome, None)),
            }
        }
    };
    run_legs(&mut leg).unwrap_or_else(|e| (leg.failed(format!("job {}: {e}", leg.index)), None))
}

/// Writes a finished job's outcome file.
pub(crate) fn save_outcome(store: &CheckpointStore, outcome: &JobOutcome) -> Result<(), CkptError> {
    let mut text = String::new();
    outcome.write_json(&mut Writer::pretty(&mut text));
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
        && outcome.metrics.as_ref().map(MetricsRegistry::cadence) == cadence)
        .then_some(outcome)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::thread::ThreadId;

    /// Item sizes every pool test cycles through: empty, serial and
    /// parallel calls, fewer and more items than workers.
    const SIZES: [u64; 5] = [0, 1, 2, 3, 9];

    fn square(x: u64) -> u64 {
        x * x + 1
    }

    #[test]
    fn map_returns_the_serial_results_in_item_order() {
        for workers in [1, 2, 4] {
            with_pool(workers, square, |pool| {
                for call in 0..60u64 {
                    let n = SIZES[call as usize % SIZES.len()];
                    let items: Vec<u64> = (0..n).map(|i| call * 100 + i).collect();
                    let serial: Vec<u64> = items.iter().copied().map(square).collect();
                    assert_eq!(pool.map(items), serial, "{workers} workers, call {call}");
                }
            });
        }
    }

    #[test]
    fn every_call_of_a_pool_runs_on_at_most_workers_threads() {
        for workers in [1, 2, 4] {
            let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
            let record = |x: u64| {
                let id = std::thread::current().id();
                let mut seen = lock(&seen);
                if !seen.contains(&id) {
                    seen.push(id);
                }
                x
            };
            with_pool(workers, record, |pool| {
                for call in 0..60u64 {
                    let n = SIZES[call as usize % SIZES.len()];
                    assert_eq!(pool.map((0..n).collect()).len() as u64, n);
                }
            });
            let threads = lock(&seen).len();
            assert!(
                (1..=workers).contains(&threads),
                "{workers} workers ran on {threads} threads"
            );
        }
    }

    #[test]
    fn a_panic_in_any_item_panics_the_call_on_the_caller() {
        let f = |x: u64| {
            assert!(x != 5, "item five fails");
            x
        };
        with_pool(3, f, |pool| {
            for _ in 0..10 {
                let call = catch_unwind(AssertUnwindSafe(|| pool.map((0..9).collect())));
                let payload = call.err().map(|p| panic_message(p.as_ref()));
                assert_eq!(payload.as_deref(), Some("item five fails"));
                // The pool survives: the next call maps every item.
                assert_eq!(pool.map((6..9).collect()), vec![6, 7, 8]);
            }
        });
    }

    #[test]
    fn a_leg_keeps_its_engine_state_boxed() {
        // A round moves each resident's leg into the pool and back; a run
        // or checkpoint stored inline again would make that kilobytes.
        let size = std::mem::size_of::<Leg<'static>>();
        assert!(size <= 512, "a leg is {size} bytes");
    }
}
