//! The continuous fleet service: multi-tenant site contention behind a
//! scheduler (DESIGN.md §16).
//!
//! Where [`Session`](crate::Session) runs a fixed batch with every job
//! on a private copy of its testbed, a [`ServiceSession`] runs a
//! [`Workload`] — jobs arriving over simulated time on a seeded Poisson
//! process, competing for shared per-site resource pools
//! ([`eadt_endsys::pool`]) under fair-share or strict-priority
//! arbitration, preempted by simply not being stepped, and rolled up into
//! per-site energy accounting.
//!
//! The scheduler is a deterministic round loop. Each **round** is
//! `quantum` engine slices long; at every round boundary the coordinator
//! (single-threaded, so the journal is worker-invariant):
//!
//! 1. submits newly arrived jobs to the back of the queue
//!    (`job_submitted`);
//! 2. with no job queued or resident, skips to the next arrival round, or
//!    ends the run once no job is left to arrive;
//! 3. preempts, under strict priority, the lowest-priority resident of a
//!    full site when a higher-priority job waits (`job_preempted` with
//!    `by`) — eviction is just *not stepping*: the victim keeps its leg,
//!    paused where the previous round left it, at the back of the queue;
//! 4. admits queued jobs while core slots remain (`job_admitted`,
//!    `job_resumed` for re-entries): fair share in queue order, strict
//!    priority by priority, then by queue position;
//! 5. arbitrates each site's pooled bandwidth and disk across its
//!    residents ([`arbitrate`]) into per-run [`ResourceShare`] factors,
//!    sending a resident granted no bandwidth beside others back to the
//!    queue (`job_preempted` without `by`);
//! 6. advances every resident by one quantum **in parallel** on the
//!    executor's worker pool, which lives for the whole run: a round
//!    wakes parked helpers, and the coordinator's thread advances legs
//!    too. Each job keeps one executor leg (planned once, holding its
//!    live [`eadt_transfer::EngineRun`]) from its first admission, or
//!    its preparation ahead of it, until it finishes, and each quantum is
//!    one
//!    [`step`](eadt_transfer::EngineRun::step): a pure function of that
//!    run and the share, so worker count cannot leak into results. A
//!    resident's first advance prepares its job, which costs several
//!    rounds of stepping, so while one is due the same pool call also
//!    prepares the jobs the policy admits next, beside it: at most
//!    `workers − 1` prepared legs wait unadmitted, none at 1 worker, and
//!    a preparation, a pure function of the job, leaves no trace in the
//!    bytes or in a commit;
//! 7. books finished transfers (`job_finished`) in residency order;
//! 8. with a checkpoint directory, commits every `every_rounds` rounds:
//!    the journal prefix, then the service checkpoint, which snapshots
//!    every live engine run.
//!
//! The run is stepped a round at a time, so stopping it between rounds is
//! simply not stepping it again: to a resume, that stop is a kill.
//!
//! Same root seed ⇒ byte-identical [`ServiceReport`] JSON and service
//! journal, whatever the worker count — the contract CI's
//! `service-determinism` job enforces.

use crate::exec::{self, Leg, Step};
use crate::rollup::FleetMetrics;
use crate::seed::derive_job_seed;
use crate::session::JobOutcome;
use crate::spec::JobSpec;
use eadt_ckpt::{
    CheckpointStore, CkptError, ServiceCheckpoint, ServiceJobState,
    SERVICE_CHECKPOINT_SCHEMA_VERSION,
};
use eadt_endsys::pool::{arbitrate, ArbitrationPolicy, PoolCapacity, PoolMember};
use eadt_sim::{EadtError, Fnv1a, Rate, SimDuration, SimRng, SimTime};
use eadt_telemetry::{EnergyLedger, Event, Journal};
use eadt_transfer::ResourceShare;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Version stamped into [`ServiceReport`] JSON.
pub(crate) const SERVICE_SCHEMA_VERSION: u32 = 1;

/// The label of the chartered RNG stream arrival times derive from.
const ARRIVAL_STREAM: &str = "fleet-service";

/// One tenant transfer submitted to the service: the batch-level
/// [`JobSpec`] plus the service-level placement and scheduling facts.
#[derive(Debug, Clone)]
pub struct ServiceJob {
    /// What to transfer (algorithm, testbed, scale, knobs).
    pub spec: JobSpec,
    /// Owning tenant index (reporting/accounting only).
    pub tenant: u32,
    /// Name of the shared site pool the job's *source* side contends
    /// for; must be declared on the [`Workload`].
    pub site: String,
    /// Priority class — higher wins under
    /// [`ArbitrationPolicy::StrictPriority`].
    pub priority: u32,
    /// Fair-share weight (> 0) under
    /// [`ArbitrationPolicy::FairShare`].
    pub weight: f64,
}

impl ServiceJob {
    /// A job for `site` with tenant 0, priority 0, weight 1.
    pub fn new(spec: JobSpec, site: impl Into<String>) -> Self {
        ServiceJob {
            spec,
            tenant: 0,
            site: site.into(),
            priority: 0,
            weight: 1.0,
        }
    }

    /// Sets the owning tenant.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

/// What a [`ServiceSession`] runs: shared site pools, the jobs that
/// contend for them, and the arrival process pacing submission.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    sites: Vec<(String, PoolCapacity)>,
    jobs: Vec<ServiceJob>,
    arrival_gap_s: f64,
}

impl Workload {
    /// An empty workload (no sites, no jobs, all arrivals at time 0).
    pub fn new() -> Self {
        Workload::default()
    }

    /// Declares a shared site pool. Jobs reference it by name.
    pub fn site(mut self, name: impl Into<String>, capacity: PoolCapacity) -> Self {
        self.sites.push((name.into(), capacity));
        self
    }

    /// Appends a job. Submission order is arrival order: job `i` arrives
    /// after `i` seeded inter-arrival gaps.
    pub fn job(mut self, job: ServiceJob) -> Self {
        self.jobs.push(job);
        self
    }

    /// Sets the mean inter-arrival gap of the seeded Poisson arrival
    /// process, in simulated seconds. `0` (the default) submits every
    /// job at time zero.
    pub fn arrival_gap_s(mut self, gap_s: f64) -> Self {
        self.arrival_gap_s = gap_s;
        self
    }

    /// The declared jobs, submission order.
    pub fn jobs(&self) -> &[ServiceJob] {
        &self.jobs
    }

    /// The declared site pools, declaration order.
    pub fn sites(&self) -> &[(String, PoolCapacity)] {
        &self.sites
    }

    /// Structural fingerprint of the workload under a session's policy
    /// and quantum; a [`ServiceCheckpoint`] taken under a different
    /// shape refuses to resume.
    fn fingerprint(&self, policy: ArbitrationPolicy, quantum: u64) -> u64 {
        let mut h = Fnv1a::new();
        // Each string ends in 0xff, a byte no UTF-8 text contains.
        let end = [0xff];
        h.write(policy.name().as_bytes()).write(&end);
        h.write(&quantum.to_le_bytes());
        h.write(&self.arrival_gap_s.to_bits().to_le_bytes());
        h.write(&(self.sites.len() as u64).to_le_bytes());
        for (name, cap) in &self.sites {
            h.write(name.as_bytes()).write(&end);
            h.write(&cap.bandwidth.as_bps().to_bits().to_le_bytes());
            h.write(&cap.disk.as_bps().to_bits().to_le_bytes());
            h.write(&u64::from(cap.core_slots).to_le_bytes());
        }
        h.write(&(self.jobs.len() as u64).to_le_bytes());
        for job in &self.jobs {
            h.write(job.site.as_bytes()).write(&end);
            h.write(job.spec.display_label().as_bytes()).write(&end);
            h.write(&u64::from(job.tenant).to_le_bytes());
            h.write(&u64::from(job.priority).to_le_bytes());
            h.write(&job.weight.to_bits().to_le_bytes());
            h.write(&job.spec.seed.map_or(0, |s| s ^ 0x5eed).to_le_bytes());
        }
        h.finish()
    }

    /// Validates the workload against a session configuration.
    fn check(&self) -> Result<(), EadtError> {
        for (name, cap) in &self.sites {
            if cap.core_slots == 0 {
                return Err(EadtError::invalid_argument(
                    "workload",
                    format!("site `{name}` has zero core slots: nothing could ever run there"),
                ));
            }
            if cap.bandwidth.as_bps() <= 0.0 {
                return Err(EadtError::invalid_argument(
                    "workload",
                    format!("site `{name}` has zero pooled bandwidth"),
                ));
            }
        }
        let mut slice = None;
        for (i, job) in self.jobs.iter().enumerate() {
            if !self.sites.iter().any(|(name, _)| *name == job.site) {
                return Err(EadtError::invalid_argument(
                    "workload",
                    format!("job {i} targets undeclared site `{}`", job.site),
                ));
            }
            if job.weight.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(EadtError::invalid_argument(
                    "workload",
                    format!("job {i} has non-positive weight {}", job.weight),
                ));
            }
            let s = job.spec.env.env.tuning.slice;
            match slice {
                None => slice = Some(s),
                Some(prev) if prev != s => {
                    return Err(EadtError::invalid_argument(
                        "workload",
                        format!(
                            "job {i} uses slice {s} but the workload clock is {prev}: \
                             all jobs must share one slice duration"
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
        if !(self.arrival_gap_s >= 0.0 && self.arrival_gap_s.is_finite()) {
            return Err(EadtError::invalid_argument(
                "workload",
                format!(
                    "arrival gap {} s is not a finite non-negative",
                    self.arrival_gap_s
                ),
            ));
        }
        Ok(())
    }

    /// Arrival round of every job: cumulative seeded exponential gaps,
    /// floored to the round containing them. Job 0 arrives at time zero.
    fn arrival_rounds(&self, root_seed: u64, round_s: f64) -> Vec<u64> {
        let mut rng = SimRng::new(root_seed).fork(ARRIVAL_STREAM);
        let mut t = 0.0f64;
        let mut rounds = Vec::with_capacity(self.jobs.len());
        for _ in 0..self.jobs.len() {
            rounds.push((t / round_s).floor() as u64);
            if self.arrival_gap_s > 0.0 {
                // Inverse-CDF exponential; (1 - unit) keeps ln's argument
                // in (0, 1].
                t += -self.arrival_gap_s * (1.0 - rng.unit()).ln();
            }
        }
        rounds
    }
}

/// Builder for [`ServiceSession`].
#[derive(Debug, Clone)]
pub struct ServiceSessionBuilder {
    root_seed: u64,
    workers: Option<usize>,
    policy: ArbitrationPolicy,
    quantum: u64,
    checkpoint: Option<(PathBuf, u64)>,
}

impl Default for ServiceSessionBuilder {
    fn default() -> Self {
        ServiceSessionBuilder {
            root_seed: 0,
            workers: None,
            policy: ArbitrationPolicy::FairShare,
            quantum: 600,
            checkpoint: None,
        }
    }
}

impl ServiceSessionBuilder {
    /// Sets the root seed (job seeds and arrival times derive from it).
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    /// Sets the thread count for the per-round parallel advance, the
    /// calling thread included: `n` is the caller plus up to `n - 1`
    /// helper threads that live for the whole run. `1` runs residents
    /// serially on the calling thread; the default asks the OS.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the arbitration policy (default fair-share).
    pub fn policy(mut self, policy: ArbitrationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the scheduling quantum in engine slices (default 600 — one
    /// simulated minute at the standard 100 ms slice). Pool membership
    /// can only change at quantum boundaries, which is exactly the step
    /// boundary each resident's engine run pauses at.
    pub fn quantum(mut self, slices: u64) -> Self {
        self.quantum = slices.max(1);
        self
    }

    /// Enables crash-safe service checkpointing: every `every_rounds`
    /// rounds the scheduler persists the service journal prefix and then
    /// its [`ServiceCheckpoint`], which embeds every live engine state,
    /// under `dir`; finished jobs leave their outcome files there.
    /// [`ServiceSession::resume`] completes an interrupted run
    /// byte-identically.
    pub fn checkpoints(mut self, dir: impl Into<PathBuf>, every_rounds: u64) -> Self {
        self.checkpoint = Some((dir.into(), every_rounds.max(1)));
        self
    }

    /// Builds the session.
    pub fn build(self) -> ServiceSession {
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        ServiceSession {
            root_seed: self.root_seed,
            workers,
            policy: self.policy,
            quantum: self.quantum,
            checkpoint: self.checkpoint,
        }
    }
}

/// A continuous-service session: configuration only, reusable across
/// [`ServiceSession::run`] calls, deterministic in its root seed.
#[derive(Debug, Clone)]
pub struct ServiceSession {
    root_seed: u64,
    workers: usize,
    policy: ArbitrationPolicy,
    quantum: u64,
    checkpoint: Option<(PathBuf, u64)>,
}

/// What a service run produced: the canonical report plus the service
/// journal (admission/preemption/finish events, one record per line via
/// [`Journal::to_jsonl`]), and how often the run serialized or rebuilt
/// an engine state.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// The canonical aggregate report.
    pub report: ServiceReport,
    /// The service-level event journal.
    pub journal: Journal,
    /// Live engine runs snapshotted into service commits: one per live
    /// leg per commit, none without a checkpoint directory.
    pub engine_snapshots: u64,
    /// Engine runs restored from the commit file a resume started from:
    /// exactly the runs it lists, none for a fresh run.
    pub engine_restores: u64,
}

impl ServiceSession {
    /// Starts building a session.
    pub fn builder() -> ServiceSessionBuilder {
        ServiceSessionBuilder::default()
    }

    /// The configured arbitration policy.
    pub fn policy(&self) -> ArbitrationPolicy {
        self.policy
    }

    /// The scheduling quantum in engine slices.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Runs the workload to completion. A finished job keeps its summary;
    /// without a checkpoint directory its run records no per-slice series.
    pub fn run(&self, workload: &Workload) -> Result<ServiceRun, EadtError> {
        self.run_rounds(workload, false)
    }

    /// Completes an interrupted service run from its checkpoint
    /// directory. With no service checkpoint on disk this is a fresh
    /// run. Determinism makes the result byte-identical to an
    /// uninterrupted [`ServiceSession::run`].
    ///
    /// # Panics
    /// If the session was built without
    /// [`ServiceSessionBuilder::checkpoints`].
    pub fn resume(&self, workload: &Workload) -> Result<ServiceRun, EadtError> {
        assert!(
            self.checkpoint.is_some(),
            "ServiceSession::resume requires a checkpoint directory"
        );
        self.run_rounds(workload, true)
    }

    /// Starts the run, steps it until no job is left and finishes it.
    fn run_rounds(&self, workload: &Workload, resume: bool) -> Result<ServiceRun, EadtError> {
        let mut run = Coordinator::start(self, workload, resume)?;
        self.with_pool(|pool| {
            while run.round(pool)? {}
            Ok::<_, EadtError>(())
        })?;
        Ok(run.finish())
    }

    /// Runs `body` with the run's worker pool. It outlives the rounds, so
    /// a round's advance only wakes parked helpers.
    fn with_pool<'w, O>(&self, body: impl FnOnce(&mut LegPool<'_, '_, 'w>) -> O) -> O {
        let quantum = self.quantum;
        let advance = move |(job, mut leg, task): (usize, Leg<'w>, Task)| {
            let step = match task {
                Task::Quantum(share) => Some(leg.advance(Some(quantum), share)),
                Task::Prepare => {
                    leg.prepare_ahead();
                    None
                }
            };
            (job, leg, step)
        };
        exec::with_pool(self.workers, advance, body)
    }
}

/// What a round's pool does with a job's leg.
enum Task {
    /// Advance a resident by one quantum under its share.
    Quantum(ResourceShare),
    /// Prepare a job the policy admits next, ahead of its admission.
    Prepare,
}

/// The run's worker pool: it runs each job's [`Task`] on its leg, and
/// hands back the leg with the step a quantum took.
type LegPool<'p, 'e, 'w> =
    exec::Pool<'p, 'e, (usize, Leg<'w>, Task), (usize, Leg<'w>, Option<Step>)>;

/// A service run in progress, owned and steppable like an engine run: it
/// `start`s fresh or from the last commit, advances a `round` at a time
/// on the caller's worker pool and `finish`es into the [`ServiceRun`].
struct Coordinator<'s, 'w> {
    session: &'s ServiceSession,
    workload: &'w Workload,
    /// The workload's one slice duration: the service clock's tick.
    slice: SimDuration,
    fingerprint: u64,
    /// Each job's arrival round, never decreasing with the job index.
    arrivals: Vec<u64>,
    seeds: Vec<u64>,
    /// The checkpoint directory and its commit cadence in rounds.
    store: Option<(CheckpointStore, u64)>,
    journal: Journal,
    state: SchedulerState<'w>,
    /// Whether legs record their per-slice series: a finished job's
    /// engine report never leaves the service, so only for the
    /// checkpoints a commit may take.
    series: bool,
    /// The jobs prepared ahead of their admission, in preparation order.
    #[cfg(test)]
    prepared_ahead: Vec<usize>,
}

impl<'s, 'w> Coordinator<'s, 'w> {
    /// Checks the workload, derives its arrival rounds and job seeds and,
    /// on `resume`, restores the last commit in the session's checkpoint
    /// directory, if there is one.
    fn start(
        session: &'s ServiceSession,
        workload: &'w Workload,
        resume: bool,
    ) -> Result<Self, EadtError> {
        workload.check()?;
        let jobs = workload.jobs();
        let slice = jobs
            .first()
            .map(|j| j.spec.env.env.tuning.slice)
            .unwrap_or_else(|| SimDuration::from_secs_f64(0.1));
        let round_s = slice.as_secs_f64() * session.quantum as f64;
        let seeds = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                j.spec
                    .seed
                    .unwrap_or_else(|| derive_job_seed(session.root_seed, i as u64))
            })
            .collect();
        let store = match &session.checkpoint {
            Some((dir, every)) => Some((CheckpointStore::create(dir).map_err(ckpt_err)?, *every)),
            None => None,
        };
        let mut run = Coordinator {
            session,
            workload,
            slice,
            fingerprint: workload.fingerprint(session.policy, session.quantum),
            arrivals: workload.arrival_rounds(session.root_seed, round_s),
            seeds,
            series: store.is_some(),
            store,
            journal: Journal::new(),
            state: SchedulerState::fresh(jobs.len()),
            #[cfg(test)]
            prepared_ahead: Vec::new(),
        };
        if let (true, Some((store, _))) = (resume, &run.store) {
            if let Some(ck) = store.load_service_checkpoint().map_err(ckpt_err)? {
                ck.validate(run.fingerprint, session.root_seed)
                    .map_err(ckpt_err)?;
                (run.state, run.journal) = run.restore(store, ck)?;
            }
        }
        Ok(run)
    }

    /// Runs one round (steps 1–8 of the module docs), or only skips to
    /// the next arrival round; `false` once no job is left to arrive.
    fn round(&mut self, pool: &mut LegPool<'_, '_, 'w>) -> Result<bool, EadtError> {
        let (policy, workload) = (self.session.policy, self.workload);
        let jobs = workload.jobs();
        let round = self.state.round;
        let now = self.clock(round);

        // 1. Arrivals join the back of the queue.
        let submitted = self.state.submitted;
        let arrived = self.arrivals.partition_point(|&a| a <= round);
        for (job, j) in (submitted..).zip(&jobs[submitted..arrived]) {
            self.state.queue.push(job);
            self.journal.record(
                now,
                Event::JobSubmitted {
                    job: job as u32,
                    tenant: j.tenant,
                    site: j.site.clone(),
                    priority: j.priority,
                },
            );
        }
        self.state.submitted = arrived;

        // 2. Nothing live: skip to the next arrival round, which lies past
        // this one (every arrival up to it was just submitted), or end.
        if self.state.queue.is_empty() && self.state.resident.is_empty() {
            let Some(&next) = self.arrivals.get(self.state.submitted) else {
                return Ok(false);
            };
            self.state.round = next;
            return Ok(true);
        }

        // 3. Strict-priority preemption: a full site yields its
        // lowest-priority resident to a strictly higher-priority waiter.
        if policy == ArbitrationPolicy::StrictPriority {
            for (site, cap) in workload.sites() {
                let state = &self.state;
                let Some(&challenger) = state
                    .queue
                    .iter()
                    .filter(|&&q| jobs[q].site == *site)
                    .max_by_key(|&&q| jobs[q].priority)
                else {
                    continue;
                };
                if (state.site_residents(jobs, site).count() as u32) < cap.core_slots {
                    continue;
                }
                let Some(victim) = state
                    .site_residents(jobs, site)
                    .min_by_key(|&r| jobs[r].priority)
                else {
                    continue;
                };
                if jobs[victim].priority < jobs[challenger].priority {
                    self.preempt(victim, Some(challenger), now);
                }
            }
        }

        // 4. Admission: fill free slots in policy order.
        loop {
            let state = &self.state;
            let free = |q: &usize| state.site_has_slot(workload, jobs, &jobs[*q].site);
            let candidate = match policy {
                ArbitrationPolicy::FairShare => state.queue.iter().position(free),
                ArbitrationPolicy::StrictPriority => state
                    .queue
                    .iter()
                    .enumerate()
                    .filter(|&(_, q)| free(q))
                    .max_by_key(|&(pos, &q)| (jobs[q].priority, usize::MAX - pos))
                    .map(|(pos, _)| pos),
            };
            let Some(pos) = candidate else { break };
            let job = self.state.queue.remove(pos);
            self.state.resident.push(job);
            let leg = self.state.slots[job]
                .leg
                .take()
                .unwrap_or_else(|| self.new_leg(job));
            let returning = leg.started();
            let slot = &mut self.state.slots[job];
            slot.leg = Some(leg);
            slot.timeline.admitted_round.get_or_insert(round);
            let site = jobs[job].site.clone();
            let event = if returning {
                Event::JobResumed {
                    job: job as u32,
                    site,
                    round,
                }
            } else {
                Event::JobAdmitted {
                    job: job as u32,
                    site,
                    resident: self.state.site_residents(jobs, &jobs[job].site).count() as u32,
                    waiting: self.state.queue.len() as u32,
                }
            };
            self.journal.record(now, event);
        }

        // 5. Arbitration: each site's pooled bandwidth and disk, split
        // across its residents. A resident granted no bandwidth at all
        // would burn its transfer clock idling, so it goes back to the
        // queue instead (only while another resident of the site is
        // granted some, which positive pool capacity guarantees).
        let mut shares = vec![ResourceShare::default(); jobs.len()];
        for (site, cap) in workload.sites() {
            let members: Vec<PoolMember> = self
                .state
                .site_residents(jobs, site)
                .map(|r| {
                    let (bw, disk) = demands(&jobs[r].spec);
                    PoolMember {
                        id: r as u32,
                        weight: jobs[r].weight,
                        priority: jobs[r].priority,
                        bandwidth_demand: bw,
                        disk_demand: disk,
                    }
                })
                .collect();
            if members.is_empty() {
                continue;
            }
            let grants = arbitrate(cap, &members, policy);
            for (member, grant) in members.iter().zip(&grants) {
                let job = member.id as usize;
                if grant.bandwidth.as_bps() == 0.0 && grants.len() > 1 {
                    self.preempt(job, None, now);
                } else {
                    shares[job] = ResourceShare {
                        bandwidth: grant.bandwidth_fraction(member.bandwidth_demand),
                        src_disk: grant.disk_fraction(member.disk_demand),
                        dst_disk: 1.0,
                    };
                }
            }
        }

        // 6. Parallel advance: one quantum per resident on its own leg.
        // While a resident is still to be prepared, the jobs the policy
        // admits next are prepared beside it, after the residents' items.
        let mut tasks: Vec<_> = self
            .state
            .resident
            .iter()
            .filter_map(|&job| {
                let leg = self.state.slots[job].leg.take()?;
                Some((job, leg, Task::Quantum(shares[job])))
            })
            .collect();
        if tasks.iter().any(|(_, leg, _)| !leg.prepared()) {
            for job in self.next_admissions() {
                let leg = self.state.slots[job].leg.take();
                tasks.push((job, leg.unwrap_or_else(|| self.new_leg(job)), Task::Prepare));
                #[cfg(test)]
                self.prepared_ahead.push(job);
            }
        }
        let advanced = pool.map(tasks);

        // 7. Collect in residency order: neither the journal nor a commit
        // may depend on completion order. A finished job's leg is dropped
        // with its run and its engine report; a leg that panicked
        // finishes its job with the `JobFailed` outcome. Prepared legs go
        // back to their slots.
        let end = self.clock(round + 1);
        for (job, leg, step) in advanced {
            let Some(Step::Done(outcome, _) | Step::Panicked(outcome)) = step else {
                self.state.slots[job].leg = Some(leg);
                continue;
            };
            self.state.counts.0 += leg.snapshots;
            self.state.counts.1 += leg.restores;
            self.journal.record(
                end,
                Event::JobFinished {
                    job: job as u32,
                    completed: outcome.completed,
                    moved_bytes: outcome.moved_bytes,
                },
            );
            if let Some((store, _)) = &self.store {
                exec::save_outcome(store, &outcome).map_err(ckpt_err)?;
            }
            let slot = &mut self.state.slots[job];
            slot.timeline.finished_round = Some(round);
            slot.outcome = Some(*outcome);
        }
        let slots = &self.state.slots;
        self.state
            .resident
            .retain(|&job| slots[job].outcome.is_none());

        // 8. Cadence commit.
        self.state.round = round + 1;
        self.persist().map_err(ckpt_err)?;
        Ok(true)
    }

    /// A fresh leg for `job`.
    fn new_leg(&self, job: usize) -> Leg<'w> {
        let spec = &self.workload.jobs()[job].spec;
        Leg::new(job, spec, self.seeds[job], None, self.series)
    }

    /// The jobs to prepare beside this round's advance: the next ones the
    /// policy admits, among the queue and the jobs yet to arrive, which
    /// join its back in arrival order, that hold no engine state; as many
    /// as keep at most `workers − 1` prepared legs waiting unadmitted.
    /// Preparation is a pure function of the job's spec and seed, so it
    /// leaves no trace in the bytes.
    fn next_admissions(&self) -> Vec<usize> {
        let jobs = self.workload.jobs();
        let state = &self.state;
        let leg = |job: usize| state.slots[job].leg.as_ref();
        let mut next = state.queue.clone();
        next.extend(state.submitted..jobs.len());
        let waiting = (next.iter())
            .filter(|&&job| leg(job).is_some_and(|l| l.prepared() && !l.started()))
            .count();
        let room = self.session.workers.saturating_sub(1 + waiting);
        if self.session.policy == ArbitrationPolicy::StrictPriority {
            // Stable: equal priorities keep their queue positions, where
            // a job yet to arrive joins at the back.
            next.sort_by_key(|&job| std::cmp::Reverse(jobs[job].priority));
        }
        next.retain(|&job| leg(job).is_none_or(|l| !l.prepared() && !l.started()));
        next.truncate(room);
        next
    }

    /// Moves resident `job`, leg and all, to the back of the queue: `by`
    /// the waiter it yields to, or `None` for a zero-grant eviction.
    fn preempt(&mut self, job: usize, by: Option<usize>, now: SimTime) {
        self.state.resident.retain(|&r| r != job);
        self.state.queue.push(job);
        self.state.slots[job].timeline.preemptions += 1;
        self.journal.record(
            now,
            Event::JobPreempted {
                job: job as u32,
                by: by.map(|b| b as u32),
                site: self.workload.jobs()[job].site.clone(),
            },
        );
    }

    /// Sim-time at which `round` starts.
    fn clock(&self, round: u64) -> SimTime {
        SimTime::ZERO + self.slice * (self.session.quantum * round)
    }

    /// Commits when the cadence is due: the journal prefix, then the
    /// service checkpoint, whose atomic rename is the whole commit.
    fn persist(&mut self) -> Result<(), CkptError> {
        let Some((store, every)) = &self.store else {
            return Ok(());
        };
        let state = &mut self.state;
        if !state.round.is_multiple_of(*every) {
            return Ok(());
        }
        store.write(
            CheckpointStore::service_journal_name(),
            &self.journal.to_jsonl(),
        )?;
        store.save_service_checkpoint(&ServiceCheckpoint {
            version: SERVICE_CHECKPOINT_SCHEMA_VERSION,
            fingerprint: self.fingerprint,
            root_seed: self.session.root_seed,
            round: state.round,
            queue: state.queue.iter().map(|&j| j as u32).collect(),
            resident: state.resident.iter().map(|&j| j as u32).collect(),
            finished: state
                .slots
                .iter()
                .filter(|slot| slot.outcome.is_some())
                .map(|slot| slot.timeline.job)
                .collect(),
            jobs: state
                .slots
                .iter()
                .map(|slot| slot.timeline.clone())
                .collect(),
            journal_seq: self.journal.next_seq(),
            engines: state
                .slots
                .iter_mut()
                .filter_map(|slot| slot.leg.as_mut()?.checkpoint())
                .collect(),
        })
    }

    /// Rebuilds the scheduler state and the journal prefix from a commit.
    fn restore(
        &self,
        store: &CheckpointStore,
        ck: ServiceCheckpoint,
    ) -> Result<(SchedulerState<'w>, Journal), EadtError> {
        let jobs = self.workload.jobs();
        let invalid = |message: String| EadtError::invalid_argument("service checkpoint", message);
        let mut state = SchedulerState::fresh(jobs.len());
        state.round = ck.round;
        // A commit at round R lists, across queue, resident and finished,
        // exactly the jobs that arrived before R, each once.
        state.submitted = self.arrivals.partition_point(|&a| a < ck.round);
        let mut listed = vec![false; state.submitted];
        for &j in ck.queue.iter().chain(&ck.resident).chain(&ck.finished) {
            match listed.get_mut(j as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => {
                    return Err(invalid(format!(
                        "job {j} is listed twice, or had not arrived by round {}",
                        ck.round
                    )))
                }
            }
        }
        if let Some(j) = listed.iter().position(|seen| !seen) {
            return Err(invalid(format!(
                "job {j} arrived before round {} but is not listed",
                ck.round
            )));
        }
        state.queue = ck.queue.iter().map(|&j| j as usize).collect();
        state.resident = ck.resident.iter().map(|&j| j as usize).collect();
        for timeline in ck.jobs {
            if let Some(slot) = state.slots.get_mut(timeline.job as usize) {
                slot.timeline = timeline;
            }
        }
        for &j in &ck.finished {
            let i = j as usize;
            let outcome = exec::load_outcome(store, i, &jobs[i].spec, self.seeds[i], None)
                .ok_or_else(|| {
                    EadtError::io(
                        CheckpointStore::outcome_name(i),
                        "finished job's outcome file is missing or does not match the workload",
                    )
                })?;
            state.slots[i].outcome = Some(outcome);
        }
        for engine in ck.engines {
            let i = engine.job;
            if !(state.queue.contains(&i) || state.resident.contains(&i)) {
                return Err(invalid(format!(
                    "engine state for job {i}, which is neither queued nor resident"
                )));
            }
            let mut leg = self.new_leg(i);
            leg.restore(engine).map_err(ckpt_err)?;
            state.slots[i].leg = Some(leg);
        }
        if let Some(&j) = state
            .resident
            .iter()
            .find(|&&j| state.slots[j].leg.is_none())
        {
            return Err(invalid(format!("resident job {j} has no engine state")));
        }

        // Journal prefix: the persisted file, cut at the checkpoint's
        // cursor (a crash can leave the journal a fraction of a round
        // ahead of the service checkpoint; the replay below re-emits the
        // cut records identically).
        let mut journal = Journal::new();
        if let Some(text) = store
            .read(CheckpointStore::service_journal_name())
            .map_err(ckpt_err)?
        {
            // A crash mid-write tears at most the final line; if that
            // line lies within the commit, the length check below fails.
            let (loaded, _) = Journal::recover_jsonl(&text)
                .map_err(|e| EadtError::io(CheckpointStore::service_journal_name(), e))?;
            if loaded.next_seq() < ck.journal_seq {
                return Err(EadtError::io(
                    CheckpointStore::service_journal_name(),
                    format!(
                        "journal ends at seq {} but the checkpoint expects {}",
                        loaded.next_seq(),
                        ck.journal_seq
                    ),
                ));
            }
            for record in loaded.records() {
                if record.seq < ck.journal_seq {
                    journal.record(record.time(), record.event.clone());
                }
            }
        } else if ck.journal_seq > 0 {
            return Err(EadtError::io(
                CheckpointStore::service_journal_name(),
                "service journal is missing but the checkpoint recorded events",
            ));
        }
        Ok((state, journal))
    }

    /// Folds the finished run, whose legs are all dropped, into the report
    /// in job order; the rollup absorbs each outcome in place, without a
    /// copy.
    fn finish(self) -> ServiceRun {
        let Coordinator {
            session,
            workload,
            arrivals,
            seeds,
            journal,
            state,
            ..
        } = self;
        let jobs = workload.jobs();
        let mut metrics = FleetMetrics::default();
        let mut outcomes = Vec::with_capacity(jobs.len());
        for (i, slot) in state.slots.into_iter().enumerate() {
            let outcome = slot.outcome.unwrap_or_else(|| {
                JobOutcome::failed(
                    i,
                    &jobs[i].spec,
                    seeds[i],
                    EadtError::job_failed(
                        jobs[i].spec.display_label(),
                        format!("service ended with job {i} unfinished"),
                    ),
                )
            });
            metrics.absorb(&outcome);
            outcomes.push(ServiceJobOutcome {
                tenant: jobs[i].tenant,
                site: jobs[i].site.clone(),
                priority: jobs[i].priority,
                weight: jobs[i].weight,
                arrival_round: arrivals[i],
                admitted_round: slot.timeline.admitted_round,
                finished_round: slot.timeline.finished_round,
                preemptions: slot.timeline.preemptions,
                outcome,
            });
        }
        let sites = workload
            .sites()
            .iter()
            .map(|(name, _)| {
                let mut site = SiteReport {
                    site: name.clone(),
                    jobs: 0,
                    moved_bytes: 0,
                    energy_j: 0.0,
                    ledger: EnergyLedger::default(),
                };
                for o in outcomes.iter().filter(|o| o.site == *name) {
                    site.jobs += 1;
                    site.moved_bytes += o.outcome.moved_bytes;
                    site.energy_j += o.outcome.energy_j;
                    site.ledger.merge(&o.outcome.ledger);
                }
                site
            })
            .collect();
        ServiceRun {
            report: ServiceReport {
                schema: SERVICE_SCHEMA_VERSION,
                root_seed: session.root_seed,
                policy: session.policy.name().to_string(),
                quantum_slices: session.quantum,
                rounds: state.round,
                sites,
                metrics,
                jobs: outcomes,
            },
            journal,
            engine_snapshots: state.counts.0,
            engine_restores: state.counts.1,
        }
    }
}

/// Standalone resource demands of a job: its private link ceiling and
/// the peak disk aggregate of its (pooled) source site.
fn demands(spec: &JobSpec) -> (Rate, Rate) {
    let env = &spec.env.env;
    let alone = PoolCapacity::from_servers(env.link.bandwidth, &env.src.servers, 0);
    (alone.bandwidth, alone.disk)
}

fn ckpt_err(e: CkptError) -> EadtError {
    EadtError::io("checkpoint store", e.to_string())
}

/// The scheduler's state, with one slot per workload job.
struct SchedulerState<'w> {
    /// The next round to run.
    round: u64,
    queue: Vec<usize>,
    /// Residents, admission order.
    resident: Vec<usize>,
    /// Jobs `0..submitted` have arrived: arrival rounds never decrease
    /// with the job index.
    submitted: usize,
    slots: Vec<JobSlot<'w>>,
    /// Engine snapshots and restores of the legs dropped so far.
    counts: (u64, u64),
}

/// One job's scheduler facts. Its lifecycle phase is where its index is:
/// at or past `submitted`, in `queue`, in `resident`, or done once it has
/// an outcome.
struct JobSlot<'w> {
    /// Admitted and finished rounds and preemptions, as a commit has them.
    timeline: ServiceJobState,
    /// The executor leg, from the first admission (or the preparation
    /// ahead of it) until the job finishes.
    leg: Option<Leg<'w>>,
    outcome: Option<JobOutcome>,
}

impl<'w> SchedulerState<'w> {
    fn fresh(n: usize) -> Self {
        SchedulerState {
            round: 0,
            queue: Vec::new(),
            resident: Vec::new(),
            submitted: 0,
            slots: (0..n)
                .map(|job| JobSlot {
                    timeline: ServiceJobState {
                        job: job as u32,
                        admitted_round: None,
                        finished_round: None,
                        preemptions: 0,
                    },
                    leg: None,
                    outcome: None,
                })
                .collect(),
            counts: (0, 0),
        }
    }

    /// Residents of `site`, admission order.
    fn site_residents<'a>(
        &'a self,
        jobs: &'a [ServiceJob],
        site: &'a str,
    ) -> impl Iterator<Item = usize> + 'a {
        self.resident
            .iter()
            .copied()
            .filter(move |&r| jobs[r].site == site)
    }

    fn site_has_slot(&self, workload: &Workload, jobs: &[ServiceJob], site: &str) -> bool {
        let Some((_, cap)) = workload.sites().iter().find(|(name, _)| name == site) else {
            return false;
        };
        (self.site_residents(jobs, site).count() as u32) < cap.core_slots
    }
}

/// One job's outcome plus its service-side scheduling facts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceJobOutcome {
    /// Owning tenant index.
    pub tenant: u32,
    /// Site pool the job contended for.
    pub site: String,
    /// Priority class.
    pub priority: u32,
    /// Fair-share weight.
    pub weight: f64,
    /// Round the job arrived.
    pub arrival_round: u64,
    /// Round the job first entered its site pool.
    pub admitted_round: Option<u64>,
    /// Round the job finished.
    pub finished_round: Option<u64>,
    /// Times the scheduler evicted the job from its pool.
    pub preemptions: u32,
    /// The transfer outcome (same shape as a batch job's).
    pub outcome: JobOutcome,
}

/// Site-level aggregate: how much data and energy the shared site
/// actually served across every tenant that resided there.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteReport {
    /// Site pool name.
    pub site: String,
    /// Jobs that contended for the site.
    pub jobs: u32,
    /// Goodput bytes served.
    pub moved_bytes: u64,
    /// Total end-system energy across the site's jobs, Joules.
    pub energy_j: f64,
    /// Phase/component attribution merged across the site's jobs.
    pub ledger: EnergyLedger,
}

/// The canonical result of a service run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Report schema version (`SERVICE_SCHEMA_VERSION`).
    pub schema: u32,
    /// The root seed the service ran at.
    pub root_seed: u64,
    /// Arbitration policy name (`fair` / `priority`).
    pub policy: String,
    /// Scheduling quantum, engine slices.
    pub quantum_slices: u64,
    /// Rounds the scheduler executed.
    pub rounds: u64,
    /// Per-site aggregates, declaration order.
    pub sites: Vec<SiteReport>,
    /// Fleet-wide rollup over the job outcomes, job-index order.
    pub metrics: FleetMetrics,
    /// Per-job outcomes with scheduling facts, job-index order.
    pub jobs: Vec<ServiceJobOutcome>,
}

impl ServiceReport {
    /// Jobs that completed their transfer.
    pub fn completed_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.completed).count()
    }

    /// The canonical aggregate form: pretty JSON, byte-identical for a
    /// given root seed and workload, whatever the worker count.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        text.push('\n');
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_core::AlgorithmKind;

    fn pool(slots: u32) -> PoolCapacity {
        let tb = eadt_testbeds::didclab();
        PoolCapacity {
            bandwidth: tb.env.link.bandwidth,
            disk: Rate::from_bps(
                tb.env
                    .src
                    .servers
                    .iter()
                    .map(|s| s.disk.peak_rate().as_bps())
                    .sum(),
            ),
            core_slots: slots,
        }
    }

    fn spec(kind: AlgorithmKind) -> JobSpec {
        JobSpec::new(kind, eadt_testbeds::didclab())
            .with_scale(0.01)
            .with_max_channel(2)
    }

    fn two_tenant_workload(slots: u32) -> Workload {
        Workload::new()
            .site("didclab", pool(slots))
            .job(
                ServiceJob::new(spec(AlgorithmKind::Sc), "didclab")
                    .with_tenant(0)
                    .with_priority(1),
            )
            .job(
                ServiceJob::new(spec(AlgorithmKind::ProMc), "didclab")
                    .with_tenant(1)
                    .with_priority(5),
            )
    }

    #[test]
    fn service_runs_workload_to_completion() {
        let run = ServiceSession::builder()
            .root_seed(42)
            .workers(1)
            .quantum(100)
            .build()
            .run(&two_tenant_workload(2))
            .unwrap();
        assert_eq!(run.report.jobs.len(), 2);
        assert_eq!(run.report.completed_count(), 2);
        assert!(run.report.rounds > 0);
        assert_eq!(run.report.sites.len(), 1);
        assert!(run.report.sites[0].energy_j > 0.0);
        assert_eq!(run.report.sites[0].jobs, 2);
        // A finished job keeps its summary, not its engine report.
        assert!(run.report.jobs.iter().all(|j| j.outcome.report.is_none()));
    }

    #[test]
    fn report_and_journal_are_worker_invariant() {
        let workload = two_tenant_workload(2);
        let runs: Vec<ServiceRun> = [1usize, 2, 4]
            .iter()
            .map(|&w| {
                ServiceSession::builder()
                    .root_seed(7)
                    .workers(w)
                    .quantum(80)
                    .build()
                    .run(&workload)
                    .unwrap()
            })
            .collect();
        assert_eq!(runs[0].report.to_json(), runs[1].report.to_json());
        assert_eq!(runs[0].report.to_json(), runs[2].report.to_json());
        assert_eq!(runs[0].journal.to_jsonl(), runs[1].journal.to_jsonl());
        assert_eq!(runs[0].journal.to_jsonl(), runs[2].journal.to_jsonl());
    }

    #[test]
    fn contention_differs_from_isolation() {
        // Two tenants sharing one slot-2 site: each sees roughly half the
        // NIC, so both run longer than the same job alone.
        let shared = ServiceSession::builder()
            .root_seed(3)
            .workers(1)
            .quantum(100)
            .build()
            .run(&two_tenant_workload(2))
            .unwrap();
        let alone = ServiceSession::builder()
            .root_seed(3)
            .workers(1)
            .quantum(100)
            .build()
            .run(
                &Workload::new()
                    .site("didclab", pool(2))
                    .job(ServiceJob::new(spec(AlgorithmKind::Sc), "didclab").with_priority(1)),
            )
            .unwrap();
        let contended = &shared.report.jobs[0].outcome;
        let isolated = &alone.report.jobs[0].outcome;
        assert!(
            contended.duration_s > isolated.duration_s,
            "contended {} s vs isolated {} s",
            contended.duration_s,
            isolated.duration_s
        );
        assert!(contended.throughput_mbps < isolated.throughput_mbps);
    }

    #[test]
    fn fair_and_priority_policies_differ_deterministically() {
        let workload = two_tenant_workload(2);
        let fair = ServiceSession::builder()
            .root_seed(11)
            .workers(2)
            .quantum(100)
            .policy(ArbitrationPolicy::FairShare)
            .build()
            .run(&workload)
            .unwrap();
        let strict = ServiceSession::builder()
            .root_seed(11)
            .workers(2)
            .quantum(100)
            .policy(ArbitrationPolicy::StrictPriority)
            .build()
            .run(&workload)
            .unwrap();
        assert_ne!(fair.report.to_json(), strict.report.to_json());
        let fair2 = ServiceSession::builder()
            .root_seed(11)
            .workers(1)
            .quantum(100)
            .policy(ArbitrationPolicy::FairShare)
            .build()
            .run(&workload)
            .unwrap();
        assert_eq!(fair.report.to_json(), fair2.report.to_json());
    }

    /// One slot; the low-priority job admits first (arrival order), then
    /// the high-priority one arrives and, under strict priority, must
    /// displace it.
    fn preempting_workload() -> Workload {
        Workload::new()
            .site("didclab", pool(1))
            .job(
                ServiceJob::new(
                    JobSpec::new(AlgorithmKind::Sc, eadt_testbeds::didclab())
                        .with_scale(0.05)
                        .with_max_channel(2),
                    "didclab",
                )
                .with_tenant(0)
                .with_priority(1),
            )
            .job(
                ServiceJob::new(spec(AlgorithmKind::ProMc), "didclab")
                    .with_tenant(1)
                    .with_priority(9),
            )
            .arrival_gap_s(20.0)
    }

    #[test]
    fn strict_priority_preempts_and_resumes() {
        let workload = preempting_workload();
        let run = ServiceSession::builder()
            .root_seed(5)
            .workers(1)
            .quantum(100)
            .policy(ArbitrationPolicy::StrictPriority)
            .build()
            .run(&workload)
            .unwrap();
        assert_eq!(run.report.completed_count(), 2);
        let victim = &run.report.jobs[0];
        assert!(
            victim.preemptions >= 1,
            "low-priority job should be preempted: {:?}",
            victim.preemptions
        );
        let journal = run.journal.to_jsonl();
        assert!(journal.contains("\"ev\":\"job_preempted\""), "{journal}");
        assert!(journal.contains("\"ev\":\"job_resumed\""), "{journal}");
    }

    #[test]
    fn undeclared_site_is_rejected() {
        let workload = Workload::new().job(ServiceJob::new(spec(AlgorithmKind::Sc), "nowhere"));
        let err = ServiceSession::builder()
            .build()
            .run(&workload)
            .unwrap_err();
        assert!(err.to_string().contains("undeclared site"), "{err}");
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let run = ServiceSession::builder()
            .root_seed(1)
            .build()
            .run(&Workload::new())
            .unwrap();
        assert_eq!(run.report.jobs.len(), 0);
        assert_eq!(run.report.rounds, 0);
        assert_eq!(run.journal.records().len(), 0);
    }

    #[test]
    fn arrival_rounds_are_deterministic_and_spaced() {
        let w = two_tenant_workload(2).arrival_gap_s(30.0);
        let a = w.arrival_rounds(9, 10.0);
        let b = w.arrival_rounds(9, 10.0);
        assert_eq!(a, b);
        assert_eq!(a[0], 0, "first job arrives at time zero");
        let c = w.arrival_rounds(10, 10.0);
        assert_eq!(c[0], 0);
        // Different seeds may or may not shift the coarse rounds; the
        // underlying gaps must differ though — probe at finer rounds.
        let fine_a = w.arrival_rounds(9, 0.01);
        let fine_c = w.arrival_rounds(10, 0.01);
        assert_ne!(fine_a[1], fine_c[1]);
    }

    /// Live legs summed over the commits of a run that checkpoints every
    /// `every` rounds. The commit after round `c - 1` snapshots job `j`
    /// iff `admitted < c <= finished`: a leg lives from its first
    /// admission until the round it finishes in. (It holds for workloads
    /// whose every admitted job is stepped in its admission round, as on
    /// one-slot sites.)
    fn live_legs_at_commits(report: &ServiceReport, every: u64) -> u64 {
        let live = |j: &ServiceJobOutcome| match (j.admitted_round, j.finished_round) {
            (Some(a), Some(f)) => (a + 1..=f).filter(|c| c % every == 0).count() as u64,
            _ => 0,
        };
        report.jobs.iter().map(live).sum()
    }

    /// Every file in `dir` with its bytes, name order.
    fn contents(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                (
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    /// Resumes `session` on `workload`, which must fail with an error
    /// naming `file` and leave its checkpoint directory `dir` untouched.
    fn fails_untouched(
        session: &ServiceSession,
        workload: &Workload,
        dir: &std::path::Path,
        file: &str,
        what: &str,
    ) {
        let before = contents(dir);
        let Err(err) = session.resume(workload) else {
            panic!("resumed with {what}");
        };
        assert!(err.to_string().contains(file), "{what}: {err}");
        assert_eq!(contents(dir), before, "{what}");
    }

    /// Starts a fresh checkpointing run of `session` in an emptied `dir`
    /// and drops it after `rounds` rounds: what it leaves is what a kill
    /// between rounds leaves.
    fn kill_after(
        session: &ServiceSession,
        workload: &Workload,
        dir: &std::path::Path,
        rounds: u64,
    ) {
        let _ = std::fs::remove_dir_all(dir);
        let mut run = Coordinator::start(session, workload, false).unwrap();
        session.with_pool(|pool| {
            for _ in 0..rounds {
                if !run.round(pool).unwrap() {
                    break;
                }
            }
        });
    }

    #[test]
    fn service_checkpoint_resume_is_byte_identical() {
        // Cadences 1..=5, under both policies on a 1-slot workload that
        // queues and on one that preempts, and under strict priority on a
        // 2-slot workload whose low-priority job is evicted for a zero
        // grant: the checkpointing run, a resume from the directory it
        // leaves, and a resume whose journal file ran ahead of the last
        // commit must all reproduce the straight run's report and journal,
        // and so must one whose journal ran ahead with its last line torn.
        // At cadences 1 and 2 the run is also killed after every round
        // short of its end — right after a commit, or between commits with
        // the outcome files of jobs finished since — and resumed as it was
        // left, and again with the straight journal run ahead of the commit
        // and torn. Engine state is serialized only into commits and
        // rebuilt only from the commit a resume starts from. A missing or
        // foreign outcome file of a finished job, a journal torn inside the
        // commit's last record, and a torn commit file must fail the resume
        // naming the file, without touching the directory.
        use ArbitrationPolicy::{FairShare, StrictPriority};
        let cells = [
            ("queueing", two_tenant_workload(1), FairShare),
            ("queueing", two_tenant_workload(1), StrictPriority),
            ("preempting", preempting_workload(), FairShare),
            ("preempting", preempting_workload(), StrictPriority),
            ("zero-grant", two_tenant_workload(2), StrictPriority),
        ];
        let (mut drilled, mut torn_ahead, mut orphans, mut zero_grants) = (0, 0, 0, 0);
        for (name, workload, policy) in &cells {
            let builder = || {
                ServiceSession::builder()
                    .root_seed(21)
                    .workers(2)
                    .quantum(60)
                    .policy(*policy)
            };
            let straight = builder().workers(1).build().run(workload).unwrap();
            assert_eq!(
                straight.engine_snapshots, 0,
                "{name}: no commits, no snapshots"
            );
            assert_eq!(straight.engine_restores, 0, "{name}");
            let straight_jsonl = straight.journal.to_jsonl();
            let records = straight.journal.records().len();
            zero_grants += straight
                .journal
                .records()
                .iter()
                .filter(|r| matches!(r.event, Event::JobPreempted { by: None, .. }))
                .count();
            // The straight journal's first `n` lines, the last of them cut
            // in half by a crash mid-write.
            let torn = |n: usize| {
                let lines: Vec<&str> = straight_jsonl.lines().take(n).collect();
                let (last, whole) = lines.split_last().unwrap();
                let mut text: String = whole.iter().map(|l| format!("{l}\n")).collect();
                text.push_str(&last[..last.len() / 2]);
                text
            };
            let same_as_straight = |run: Result<ServiceRun, EadtError>, cell: &str| {
                let run = run.unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_eq!(run.report.to_json(), straight.report.to_json(), "{cell}");
                assert_eq!(run.journal.to_jsonl(), straight_jsonl, "{cell}");
                run
            };
            for every in 1..=5 {
                let cell = format!("{name}/{}/every {every}", policy.name());
                let dir = std::env::temp_dir().join(format!(
                    "eadt-service-resume-{name}-{}-{every}-{}",
                    policy.name(),
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let session = builder().checkpoints(&dir, every).build();
                let store = CheckpointStore::create(&dir).unwrap();
                let last_commit = || store.load_service_checkpoint().unwrap().unwrap();
                let journal = dir.join(CheckpointStore::service_journal_name());
                let resume_with = |text: &str| {
                    std::fs::write(&journal, text).unwrap();
                    session.resume(workload)
                };
                let first = same_as_straight(session.run(workload), &cell);
                if workload.sites().iter().all(|(_, cap)| cap.core_slots == 1) {
                    let expected = live_legs_at_commits(&straight.report, every);
                    assert_eq!(first.engine_snapshots, expected, "{cell}");
                }
                assert_eq!(first.engine_restores, 0, "{cell}");
                let listed = last_commit().engines.len() as u64;
                let cursor = last_commit().journal_seq as usize;
                // A crash after the journal write, before the commit;
                // where the journal has records past the commit's cursor,
                // also one that tore its last line.
                let mut resumes = vec![session.resume(workload), resume_with(&straight_jsonl)];
                if cursor < records {
                    resumes.push(resume_with(&torn(records)));
                    torn_ahead += 1;
                }
                for run in resumes {
                    let run = same_as_straight(run, &cell);
                    assert_eq!(run.engine_restores, listed, "{cell}");
                }

                let fails_untouched = |file: &str, what: &str| {
                    fails_untouched(&session, workload, &dir, file, &format!("{cell}: {what}"));
                };
                if let Some(&done) = last_commit().finished.first() {
                    let file = CheckpointStore::outcome_name(done as usize);
                    let path = dir.join(&file);
                    let kept = std::fs::read(&path).unwrap();
                    std::fs::remove_file(&path).unwrap();
                    fails_untouched(&file, "a missing outcome file");
                    let other = &straight.report.jobs[1 - done as usize].outcome;
                    let mut foreign = serde_json::to_string_pretty(other).unwrap();
                    foreign.push('\n');
                    std::fs::write(&path, foreign).unwrap();
                    fails_untouched(&file, "another job's outcome file");
                    std::fs::write(&path, kept).unwrap();
                    drilled += 1;
                }

                std::fs::write(&journal, torn(cursor)).unwrap();
                let name = CheckpointStore::service_journal_name();
                fails_untouched(name, "a journal torn inside the commit");
                std::fs::write(&journal, &straight_jsonl).unwrap();

                let commit = dir.join(CheckpointStore::service_checkpoint_name());
                let text = std::fs::read(&commit).unwrap();
                std::fs::write(&commit, &text[..text.len() / 2]).unwrap();
                fails_untouched(CheckpointStore::service_checkpoint_name(), "a torn commit");

                let stops = if every <= 2 {
                    straight.report.rounds
                } else {
                    0
                };
                for stop in 0..stops {
                    let cell = format!("{cell}/killed after {stop} rounds");
                    kill_after(&session, workload, &dir, stop);
                    let killed = contents(&dir);
                    let commit = store.load_service_checkpoint().unwrap();
                    let finished = commit.as_ref().map_or(&[][..], |ck| &ck.finished);
                    orphans += (0..workload.jobs().len() as u32)
                        .filter(|&j| !finished.contains(&j))
                        .filter(|&j| dir.join(CheckpointStore::outcome_name(j as usize)).exists())
                        .count();
                    let listed = commit.as_ref().map_or(0, |ck| ck.engines.len() as u64);
                    let run = same_as_straight(session.resume(workload), &cell);
                    assert_eq!(run.engine_restores, listed, "{cell}");
                    if commit.is_some_and(|ck| (ck.journal_seq as usize) < records) {
                        std::fs::remove_dir_all(&dir).unwrap();
                        std::fs::create_dir(&dir).unwrap();
                        for (file, bytes) in &killed {
                            std::fs::write(dir.join(file), bytes).unwrap();
                        }
                        same_as_straight(resume_with(&torn(records)), &format!("{cell}, torn"));
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        assert!(drilled > 0, "no last commit listed a finished job");
        assert!(torn_ahead > 0, "no journal ran ahead of its last commit");
        assert!(
            orphans > 0,
            "no kill left an outcome file its commit misses"
        );
        assert!(zero_grants > 0, "no straight run evicted for a zero grant");
    }

    #[test]
    fn service_checkpoint_that_omits_or_repeats_a_job_is_refused() {
        // A commit must list every job that arrived before its round
        // exactly once; one that drops a finished job, or also queues one,
        // is refused instead of rerunning that job.
        let workload = two_tenant_workload(1);
        let dir = std::env::temp_dir().join(format!("eadt-service-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = ServiceSession::builder()
            .root_seed(3)
            .workers(1)
            .quantum(60)
            .checkpoints(&dir, 1)
            .build();
        session.run(&workload).unwrap();
        let store = CheckpointStore::create(&dir).unwrap();
        let last = store.load_service_checkpoint().unwrap().unwrap();
        assert_eq!(last.finished, [0, 1]);
        let damaged = [
            ("a commit that omits a finished job", {
                let mut ck = last.clone();
                ck.finished.pop();
                ck
            }),
            ("a commit that also queues a finished job", {
                let mut ck = last.clone();
                ck.queue.push(ck.finished[0]);
                ck
            }),
        ];
        for (what, ck) in damaged {
            store.save_service_checkpoint(&ck).unwrap();
            fails_untouched(&session, &workload, &dir, "service checkpoint", what);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A commit whose embedded engine checkpoint is of checkpoint schema
    /// version 2 is refused by version, and nothing in it is resumed.
    #[test]
    fn service_checkpoint_of_schema_2_is_refused() {
        let workload = two_tenant_workload(1);
        let dir = std::env::temp_dir().join(format!("eadt-service-v2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let v2 = include_str!("../../ckpt/tests/fixtures/v2-service.ckpt.json");
        CheckpointStore::create(&dir)
            .unwrap()
            .write(CheckpointStore::service_checkpoint_name(), v2)
            .unwrap();
        let session = ServiceSession::builder()
            .root_seed(4)
            .workers(1)
            .checkpoints(&dir, 1)
            .build();
        fails_untouched(
            &session,
            &workload,
            &dir,
            "schema version 2",
            "a schema-2 commit",
        );
        // The error names the version mismatch, not corruption.
        let err = session.resume(&workload).err().unwrap().to_string();
        assert!(err.contains("unsupported checkpoint file"), "{err}");
        assert!(!err.contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Eight jobs of four algorithms from three priority tenants, arriving
    /// over time at one 2-slot site: strict priority queues them, so a
    /// round that admits a job finds later ones queued or yet to arrive.
    fn queued_priority_workload() -> Workload {
        let kinds = [
            AlgorithmKind::Sc,
            AlgorithmKind::ProMc,
            AlgorithmKind::MinE,
            AlgorithmKind::Htee,
        ];
        let workload = Workload::new().site("didclab", pool(2)).arrival_gap_s(4.0);
        (0..8u32).fold(workload, |workload, i| {
            workload.job(
                ServiceJob::new(spec(kinds[i as usize % kinds.len()]), "didclab")
                    .with_tenant(i % 3)
                    .with_priority(i % 3),
            )
        })
    }

    /// Runs `session` on `workload` to its end: the run, the jobs it
    /// prepared ahead of their admission, and the most prepared legs that
    /// waited unadmitted at the end of any round.
    fn run_counting(
        session: &ServiceSession,
        workload: &Workload,
    ) -> (ServiceRun, Vec<usize>, usize) {
        let mut run = Coordinator::start(session, workload, false).unwrap();
        let mut most = 0;
        session.with_pool(|pool| {
            while run.round(pool).unwrap() {
                let state = &run.state;
                let waiting = (0..state.slots.len())
                    .filter(|job| !state.resident.contains(job))
                    .filter_map(|job| state.slots[job].leg.as_ref())
                    .filter(|leg| leg.prepared() && !leg.started())
                    .count();
                most = most.max(waiting);
            }
        });
        let ahead = std::mem::take(&mut run.prepared_ahead);
        (run.finish(), ahead, most)
    }

    #[test]
    fn legs_prepared_ahead_leave_reports_journals_and_commits_unchanged() {
        // With jobs queued and yet to arrive, 2 and 4 workers prepare legs
        // ahead of their admission, never more than `workers - 1` waiting
        // at once, and 1 worker prepares none; the report and journal are
        // the same at each. At a commit every round, a kill after any
        // round leaves the same files at 2 workers as at 1.
        let workload = queued_priority_workload();
        let builder = |workers: usize| {
            ServiceSession::builder()
                .root_seed(13)
                .workers(workers)
                .quantum(100)
                .policy(ArbitrationPolicy::StrictPriority)
        };
        let (serial, none, _) = run_counting(&builder(1).build(), &workload);
        assert_eq!(none, [], "1 worker prepared legs ahead");
        for workers in [2, 4] {
            let (run, ahead, most) = run_counting(&builder(workers).build(), &workload);
            assert_eq!(
                run.report.to_json(),
                serial.report.to_json(),
                "{workers} workers"
            );
            let jsonl = run.journal.to_jsonl();
            assert_eq!(jsonl, serial.journal.to_jsonl(), "{workers} workers");
            assert!(!ahead.is_empty(), "{workers} workers prepared no leg ahead");
            assert!(
                most < workers,
                "{most} prepared legs waited unadmitted at {workers} workers"
            );
        }

        let killed = [1, 2].map(|workers| {
            let dir = std::env::temp_dir().join(format!(
                "eadt-service-ahead-{workers}-{}",
                std::process::id()
            ));
            (builder(workers).checkpoints(&dir, 1).build(), dir)
        });
        for stop in 0..serial.report.rounds {
            for (session, dir) in &killed {
                kill_after(session, &workload, dir, stop);
            }
            let [(_, serial_dir), (_, dir)] = &killed;
            assert_eq!(
                contents(dir),
                contents(serial_dir),
                "killed after {stop} rounds"
            );
        }
        for (_, dir) in &killed {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_panic_in_a_leg_prepared_ahead_is_booked_as_an_inline_one() {
        // One slot: job 1 waits behind job 0, and at 2 workers it is
        // prepared beside job 0's first advance, where its injected panic
        // is caught. Its own first advance books that panic, with the
        // outcome, round and journal of the 1-worker run's inline panic.
        let mut workload = two_tenant_workload(1);
        workload.jobs[1].spec.label = Some(exec::TEST_PANIC_LABEL.into());
        let session = |workers| {
            ServiceSession::builder()
                .root_seed(9)
                .workers(workers)
                .quantum(60)
                .build()
        };
        let (inline, none, _) = run_counting(&session(1), &workload);
        let (ahead, prepared, _) = run_counting(&session(2), &workload);
        assert_eq!(none, []);
        assert_eq!(prepared, [1]);
        assert_eq!(ahead.report.to_json(), inline.report.to_json());
        assert_eq!(ahead.journal.to_jsonl(), inline.journal.to_jsonl());
        assert_eq!(inline.report.completed_count(), 1);
        let failed = &inline.report.jobs[1];
        assert!(failed.finished_round.is_some());
        let err = failed.outcome.error.as_deref().unwrap();
        assert!(err.contains("injected chaos payload"), "{err}");
        assert!(err.contains("job 1"), "{err}");
    }
}
