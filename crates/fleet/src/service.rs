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
//! 1. moves newly-arrived jobs into the admission queue (`job_submitted`);
//! 2. preempts, under strict priority, the lowest-priority resident of a
//!    full site when a higher-priority job waits (`job_preempted`) —
//!    eviction is just *not stepping*: the victim's leg keeps its live
//!    engine run, paused where the previous round left it;
//! 3. admits queued jobs while core slots remain (`job_admitted`,
//!    `job_resumed` for re-entries);
//! 4. arbitrates each site's pooled bandwidth and disk across its
//!    residents ([`arbitrate`]), converting grants into per-run
//!    [`ResourceShare`] factors;
//! 5. advances every resident by one quantum **in parallel** on the
//!    executor's worker pool, which lives for the whole run: a round
//!    wakes parked helpers, and the coordinator's thread advances legs
//!    too. Each job keeps one executor leg (planned once, holding its
//!    live [`eadt_transfer::EngineRun`]) from its first admission until
//!    it finishes, and each quantum is one
//!    [`step`](eadt_transfer::EngineRun::step): a pure function of that
//!    run and the share, so worker count cannot leak into results;
//! 6. books finished transfers (`job_finished`) and carries paused legs
//!    to the next round.
//!
//! Engine state is serialized only when a commit is due: with a
//! checkpoint directory, every `every_rounds` rounds the coordinator
//! snapshots each live run into the service checkpoint, and a resume
//! restores exactly the runs that checkpoint lists.
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
    CheckpointStore, ServiceCheckpoint, ServiceJobState, SERVICE_CHECKPOINT_SCHEMA_VERSION,
};
use eadt_endsys::pool::{arbitrate, ArbitrationPolicy, PoolCapacity, PoolMember};
use eadt_sim::{EadtError, Rate, SimRng, SimTime};
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
        let mut h = Fnv::new();
        h.str(policy.name());
        h.u64(quantum);
        h.u64(self.arrival_gap_s.to_bits());
        h.u64(self.sites.len() as u64);
        for (name, cap) in &self.sites {
            h.str(name);
            h.u64(cap.bandwidth.as_bps().to_bits());
            h.u64(cap.disk.as_bps().to_bits());
            h.u64(u64::from(cap.core_slots));
        }
        h.u64(self.jobs.len() as u64);
        for job in &self.jobs {
            h.str(&job.site);
            h.str(&job.spec.display_label());
            h.u64(u64::from(job.tenant));
            h.u64(u64::from(job.priority));
            h.u64(job.weight.to_bits());
            h.u64(job.spec.seed.map_or(0, |s| s ^ 0x5eed));
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

/// FNV-1a over explicitly-fed words — the same construction
/// `config_fingerprint` uses on the engine side.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
        self.byte(0xff);
    }
    fn finish(&self) -> u64 {
        self.0
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

    /// The round loop: the single-threaded coordinator of the module
    /// docs, with each round's legs advanced on the run's worker pool.
    fn run_rounds<'w>(
        &self,
        workload: &'w Workload,
        resume: bool,
    ) -> Result<ServiceRun, EadtError> {
        workload.check()?;
        let jobs = workload.jobs();
        let slice = jobs
            .first()
            .map(|j| j.spec.env.env.tuning.slice)
            .unwrap_or_else(|| eadt_sim::SimDuration::from_secs_f64(0.1));
        let round_s = slice.as_secs_f64() * self.quantum as f64;
        let fingerprint = workload.fingerprint(self.policy, self.quantum);
        let arrivals = workload.arrival_rounds(self.root_seed, round_s);
        let seeds: Vec<u64> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                j.spec
                    .seed
                    .unwrap_or_else(|| derive_job_seed(self.root_seed, i as u64))
            })
            .collect();

        let mut state = SchedulerState::fresh(jobs.len());
        let mut journal = Journal::new();
        let store = match &self.checkpoint {
            Some((dir, _)) => Some(CheckpointStore::create(dir).map_err(ckpt_err)?),
            None => None,
        };
        if resume {
            if let Some(store) = &store {
                if let Some(ck) = store.load_service_checkpoint().map_err(ckpt_err)? {
                    ck.validate(fingerprint, self.root_seed).map_err(ckpt_err)?;
                    (state, journal) = self.restore(workload, &seeds, store, ck)?;
                }
            }
        }

        // The pool outlives the rounds, so a round's advance (step 5) only
        // wakes parked helpers. A finished job's engine report never
        // leaves the service, so a leg records its per-slice series only
        // for the checkpoints a commit may take of it.
        let series = self.checkpoint.is_some();
        let quantum = self.quantum;
        let advance = |(job, mut leg, share): (usize, Leg<'w>, ResourceShare)| {
            let step = leg.advance(Some(quantum), share);
            (job, leg, step)
        };
        let round = exec::with_pool(self.workers, advance, |pool| {
            let mut round = state.round;
            loop {
                // 1. Arrivals.
                for i in 0..jobs.len() {
                    if state.phase[i] == Phase::Pending && arrivals[i] <= round {
                        state.phase[i] = Phase::Queued;
                        state.queue.push(i);
                        journal.record(
                            round_start(slice, self.quantum, round),
                            Event::JobSubmitted {
                                job: i as u32,
                                tenant: jobs[i].tenant,
                                site: jobs[i].site.clone(),
                                priority: jobs[i].priority,
                            },
                        );
                    }
                }

                // Nothing live: finished, or fast-forward to the next arrival.
                if state.queue.is_empty() && state.resident.is_empty() {
                    let next = (0..jobs.len())
                        .filter(|&i| state.phase[i] == Phase::Pending)
                        .map(|i| arrivals[i])
                        .min();
                    match next {
                        None => break,
                        Some(next_round) => {
                            round = next_round.max(round + 1);
                            continue;
                        }
                    }
                }

                // 2. Priority preemption: under strict priority, a full site
                // must yield its lowest-priority resident to a strictly
                // higher-priority waiter. The victim keeps its leg and goes
                // back to the queue — preemption is "not rescheduling".
                if self.policy == ArbitrationPolicy::StrictPriority {
                    for (site, cap) in workload.sites() {
                        let Some(&challenger) = state
                            .queue
                            .iter()
                            .filter(|&&q| jobs[q].site == *site)
                            .max_by_key(|&&q| jobs[q].priority)
                        else {
                            continue;
                        };
                        let residents_full =
                            state.site_residents(jobs, site).len() as u32 >= cap.core_slots;
                        if !residents_full {
                            continue;
                        }
                        let Some(&victim) = state
                            .site_residents(jobs, site)
                            .iter()
                            .min_by_key(|&&r| jobs[r].priority)
                        else {
                            continue;
                        };
                        if jobs[victim].priority < jobs[challenger].priority {
                            state.evict(victim);
                            state.preemptions[victim] += 1;
                            journal.record(
                                round_start(slice, self.quantum, round),
                                Event::JobPreempted {
                                    job: victim as u32,
                                    by: Some(challenger as u32),
                                    site: site.clone(),
                                },
                            );
                        }
                    }
                }

                // 3. Admission: fill free slots in policy order.
                loop {
                    let candidate = match self.policy {
                        ArbitrationPolicy::FairShare => state
                            .queue
                            .iter()
                            .position(|&q| state.site_has_slot(workload, jobs, &jobs[q].site)),
                        ArbitrationPolicy::StrictPriority => state
                            .queue
                            .iter()
                            .enumerate()
                            .filter(|&(_, &q)| state.site_has_slot(workload, jobs, &jobs[q].site))
                            .max_by_key(|&(pos, &q)| (jobs[q].priority, usize::MAX - pos))
                            .map(|(pos, _)| pos),
                    };
                    let Some(pos) = candidate else { break };
                    let job = state.queue.remove(pos);
                    state.phase[job] = Phase::Resident;
                    state.resident.push(job);
                    let returning = state.legs[job]
                        .get_or_insert_with(|| {
                            Leg::new(job, &jobs[job].spec, seeds[job], None, series)
                        })
                        .started();
                    let now = round_start(slice, self.quantum, round);
                    if state.admitted_round[job].is_none() {
                        state.admitted_round[job] = Some(round);
                    }
                    if returning {
                        journal.record(
                            now,
                            Event::JobResumed {
                                job: job as u32,
                                site: jobs[job].site.clone(),
                                round,
                            },
                        );
                    } else {
                        journal.record(
                            now,
                            Event::JobAdmitted {
                                job: job as u32,
                                site: jobs[job].site.clone(),
                                resident: state.site_residents(jobs, &jobs[job].site).len() as u32,
                                waiting: state.queue.len() as u32,
                            },
                        );
                    }
                }

                // 4. Arbitration: pooled bandwidth/disk split per site.
                let mut shares: Vec<Option<ResourceShare>> = vec![None; jobs.len()];
                for (site, cap) in workload.sites() {
                    let residents = state.site_residents(jobs, site);
                    if residents.is_empty() {
                        continue;
                    }
                    let members: Vec<PoolMember> = residents
                        .iter()
                        .map(|&r| {
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
                    let grants = arbitrate(cap, &members, self.policy);
                    for (member, grant) in members.iter().zip(&grants) {
                        shares[member.id as usize] = Some(ResourceShare {
                            bandwidth: grant.bandwidth_fraction(member.bandwidth_demand),
                            src_disk: grant.disk_fraction(member.disk_demand),
                            dst_disk: 1.0,
                        });
                    }
                    // Zero-grant guard: a resident granted no bandwidth at all
                    // would burn its transfer clock idling; requeue it instead
                    // (only safe while someone else at the site makes
                    // progress, which positive pool capacity guarantees).
                    for (member, grant) in members.iter().zip(&grants) {
                        if grant.bandwidth.as_bps() == 0.0 && grants.len() > 1 {
                            let job = member.id as usize;
                            state.evict(job);
                            state.preemptions[job] += 1;
                            shares[job] = None;
                            journal.record(
                                round_start(slice, self.quantum, round),
                                Event::JobPreempted {
                                    job: job as u32,
                                    by: None,
                                    site: site.clone(),
                                },
                            );
                        }
                    }
                }

                // 5. Parallel advance: one quantum per resident on its own
                // leg, fixed shares.
                let advancing: Vec<(usize, Leg, ResourceShare)> = state
                    .resident
                    .iter()
                    .filter_map(|&job| {
                        let leg = state.legs[job].take()?;
                        Some((job, leg, shares[job].unwrap_or_default()))
                    })
                    .collect();
                let advanced = pool.map(advancing);

                // 6. Collect in residency order (journal and persistence order
                // must not depend on completion order). A finished job's leg
                // is dropped with its run and its engine report; a leg that
                // panicked finishes its job with the `JobFailed` outcome.
                let end = round_start(slice, self.quantum, round + 1);
                for (job, leg, step) in advanced {
                    let (Step::Done(outcome, _) | Step::Panicked(outcome)) = step else {
                        state.legs[job] = Some(leg);
                        continue;
                    };
                    state.counts.0 += leg.snapshots;
                    state.counts.1 += leg.restores;
                    journal.record(
                        end,
                        Event::JobFinished {
                            job: job as u32,
                            completed: outcome.completed,
                            moved_bytes: outcome.moved_bytes,
                        },
                    );
                    state.phase[job] = Phase::Done;
                    state.finished_round[job] = Some(round);
                    if let Some(store) = &store {
                        exec::save_outcome(store, &outcome).map_err(ckpt_err)?;
                    }
                    state.outcome[job] = Some(outcome);
                }
                state
                    .resident
                    .retain(|&job| state.phase[job] == Phase::Resident);

                round += 1;
                state.round = round;

                // Cadence checkpoint: the journal prefix, then the service
                // checkpoint — scheduler state and every live engine state in
                // one file, so its atomic rename is the whole commit.
                if let (Some(store), Some((_, every))) = (&store, &self.checkpoint) {
                    if round.is_multiple_of(*every) {
                        self.persist(workload, store, &mut state, &journal, fingerprint)
                            .map_err(ckpt_err)?;
                    }
                }
            }
            Ok::<u64, EadtError>(round)
        })?;

        let (engine_snapshots, engine_restores) = (state.legs.iter().flatten())
            .fold(state.counts, |(s, r), leg| {
                (s + leg.snapshots, r + leg.restores)
            });
        let report = self.assemble(workload, &seeds, &arrivals, state, round);
        Ok(ServiceRun {
            report,
            journal,
            engine_snapshots,
            engine_restores,
        })
    }

    /// Persists a cadence snapshot: the journal prefix, then the
    /// service checkpoint embedding a snapshot of every live engine run
    /// (the commit point).
    fn persist(
        &self,
        workload: &Workload,
        store: &CheckpointStore,
        state: &mut SchedulerState,
        journal: &Journal,
        fingerprint: u64,
    ) -> Result<(), eadt_ckpt::CkptError> {
        let jobs = workload.jobs();
        store.write(CheckpointStore::service_journal_name(), &journal.to_jsonl())?;
        let ck = ServiceCheckpoint {
            version: SERVICE_CHECKPOINT_SCHEMA_VERSION,
            fingerprint,
            root_seed: self.root_seed,
            round: state.round,
            queue: state.queue.iter().map(|&j| j as u32).collect(),
            resident: state.resident.iter().map(|&j| j as u32).collect(),
            finished: (0..jobs.len())
                .filter(|&i| state.phase[i] == Phase::Done)
                .map(|i| i as u32)
                .collect(),
            jobs: (0..jobs.len())
                .map(|i| ServiceJobState {
                    job: i as u32,
                    admitted_round: state.admitted_round[i],
                    finished_round: state.finished_round[i],
                    preemptions: state.preemptions[i],
                })
                .collect(),
            journal_seq: journal.next_seq(),
            engines: state
                .legs
                .iter_mut()
                .flatten()
                .filter_map(Leg::checkpoint)
                .collect(),
        };
        store.save_service_checkpoint(&ck)
    }

    /// Rebuilds scheduler state and journal prefix from a checkpoint.
    fn restore<'w>(
        &self,
        workload: &'w Workload,
        seeds: &[u64],
        store: &CheckpointStore,
        ck: ServiceCheckpoint,
    ) -> Result<(SchedulerState<'w>, Journal), EadtError> {
        let jobs = workload.jobs();
        let mut state = SchedulerState::fresh(jobs.len());
        state.round = ck.round;
        let in_range = |j: &u32| (*j as usize) < jobs.len();
        if !ck.queue.iter().all(in_range)
            || !ck.resident.iter().all(in_range)
            || !ck.finished.iter().all(in_range)
        {
            return Err(EadtError::invalid_argument(
                "service checkpoint",
                "job index out of range for this workload",
            ));
        }
        for js in &ck.jobs {
            let i = js.job as usize;
            if i >= jobs.len() {
                continue;
            }
            state.admitted_round[i] = js.admitted_round;
            state.finished_round[i] = js.finished_round;
            state.preemptions[i] = js.preemptions;
        }
        for &j in &ck.finished {
            let i = j as usize;
            state.phase[i] = Phase::Done;
            let outcome =
                exec::load_outcome(store, i, &jobs[i].spec, seeds[i], None).ok_or_else(|| {
                    EadtError::io(
                        CheckpointStore::outcome_name(i),
                        "finished job's outcome file is missing or does not match the workload",
                    )
                })?;
            state.outcome[i] = Some(outcome);
        }
        for &j in &ck.queue {
            state.phase[j as usize] = Phase::Queued;
        }
        for &j in &ck.resident {
            state.phase[j as usize] = Phase::Resident;
        }
        for engine in ck.engines {
            let i = engine.job;
            if !matches!(state.phase.get(i), Some(Phase::Queued | Phase::Resident)) {
                return Err(EadtError::invalid_argument(
                    "service checkpoint",
                    format!("engine state for job {i}, which is neither queued nor resident"),
                ));
            }
            // Restored legs exist only under a checkpoint directory, whose
            // commits carry their series.
            let mut leg = Leg::new(i, &jobs[i].spec, seeds[i], None, true);
            leg.restore(engine).map_err(ckpt_err)?;
            state.legs[i] = Some(leg);
        }
        if let Some(&j) = ck
            .resident
            .iter()
            .find(|&&j| state.legs[j as usize].is_none())
        {
            return Err(EadtError::invalid_argument(
                "service checkpoint",
                format!("resident job {j} has no engine state"),
            ));
        }
        state.queue = ck.queue.iter().map(|&j| j as usize).collect();
        state.resident = ck.resident.iter().map(|&j| j as usize).collect();

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

    /// Folds the final state into the canonical report. The rollup
    /// absorbs each outcome in job order as it is placed, without a copy.
    fn assemble(
        &self,
        workload: &Workload,
        seeds: &[u64],
        arrivals: &[u64],
        state: SchedulerState,
        rounds: u64,
    ) -> ServiceReport {
        let jobs = workload.jobs();
        let mut metrics = FleetMetrics::default();
        let mut outcomes = Vec::with_capacity(jobs.len());
        for (i, slot) in state.outcome.into_iter().enumerate() {
            let outcome = slot.unwrap_or_else(|| {
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
                admitted_round: state.admitted_round[i],
                finished_round: state.finished_round[i],
                preemptions: state.preemptions[i],
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
        ServiceReport {
            schema: SERVICE_SCHEMA_VERSION,
            root_seed: self.root_seed,
            policy: self.policy.name().to_string(),
            quantum_slices: self.quantum,
            rounds,
            sites,
            metrics,
            jobs: outcomes,
        }
    }
}

/// Sim-time of a round boundary.
fn round_start(slice: eadt_sim::SimDuration, quantum: u64, round: u64) -> SimTime {
    SimTime::ZERO + slice * (quantum * round)
}

/// Standalone resource demands of a job: its private link ceiling and
/// the peak disk aggregate of its (pooled) source site.
fn demands(spec: &JobSpec) -> (Rate, Rate) {
    let env = &spec.env.env;
    let disk: f64 = env
        .src
        .servers
        .iter()
        .map(|s| s.disk.peak_rate().as_bps())
        .sum();
    (env.link.bandwidth, Rate::from_bps(disk))
}

fn ckpt_err(e: eadt_ckpt::CkptError) -> EadtError {
    EadtError::io("checkpoint store", e.to_string())
}

/// Where a job is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Queued,
    Resident,
    Done,
}

/// The scheduler's mutable state, index-aligned with the workload's job
/// list.
struct SchedulerState<'w> {
    round: u64,
    phase: Vec<Phase>,
    queue: Vec<usize>,
    resident: Vec<usize>,
    /// Each job's executor leg, from its first admission until it
    /// finishes.
    legs: Vec<Option<Leg<'w>>>,
    outcome: Vec<Option<JobOutcome>>,
    admitted_round: Vec<Option<u64>>,
    finished_round: Vec<Option<u64>>,
    preemptions: Vec<u32>,
    /// Engine snapshots and restores of the legs already dropped.
    counts: (u64, u64),
}

impl SchedulerState<'_> {
    fn fresh(n: usize) -> Self {
        SchedulerState {
            round: 0,
            phase: vec![Phase::Pending; n],
            queue: Vec::new(),
            resident: Vec::new(),
            legs: (0..n).map(|_| None).collect(),
            outcome: (0..n).map(|_| None).collect(),
            admitted_round: vec![None; n],
            finished_round: vec![None; n],
            preemptions: vec![0; n],
            counts: (0, 0),
        }
    }

    /// Residents of `site`, admission order.
    fn site_residents(&self, jobs: &[ServiceJob], site: &str) -> Vec<usize> {
        self.resident
            .iter()
            .copied()
            .filter(|&r| jobs[r].site == site)
            .collect()
    }

    fn site_has_slot(&self, workload: &Workload, jobs: &[ServiceJob], site: &str) -> bool {
        let Some((_, cap)) = workload.sites().iter().find(|(name, _)| name == site) else {
            return false;
        };
        (self.site_residents(jobs, site).len() as u32) < cap.core_slots
    }

    /// Moves a resident back to the queue (keeps its live engine run).
    fn evict(&mut self, job: usize) {
        self.resident.retain(|&r| r != job);
        self.phase[job] = Phase::Queued;
        self.queue.push(job);
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

    #[test]
    fn service_checkpoint_resume_is_byte_identical() {
        // Cadences 1..=5 under both policies, on a 1-slot workload that
        // queues and on one that preempts: the checkpointing run, a resume
        // from the directory it leaves, and a resume whose journal file
        // ran ahead of the last commit must all reproduce the straight
        // run's report and journal, and so must one whose journal ran
        // ahead with its last line torn. Engine state is serialized only
        // into commits and rebuilt only from the commit a resume starts
        // from. A missing or foreign outcome file of a finished job, a
        // journal torn inside the commit's last record, and a torn commit
        // file must fail the resume naming the file, without touching the
        // directory.
        let workloads = [
            ("queueing", two_tenant_workload(1)),
            ("preempting", preempting_workload()),
        ];
        let policies = [
            ArbitrationPolicy::FairShare,
            ArbitrationPolicy::StrictPriority,
        ];
        let (mut drilled, mut torn_ahead) = (0, 0);
        for (name, workload) in &workloads {
            for policy in policies {
                let builder = || {
                    ServiceSession::builder()
                        .root_seed(21)
                        .workers(2)
                        .quantum(60)
                        .policy(policy)
                };
                let straight = builder().workers(1).build().run(workload).unwrap();
                assert_eq!(
                    straight.engine_snapshots, 0,
                    "{name}: no commits, no snapshots"
                );
                assert_eq!(straight.engine_restores, 0, "{name}");
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
                    let straight_jsonl = straight.journal.to_jsonl();
                    // The straight journal's first `n` lines, the last of
                    // them cut in half by a crash mid-write.
                    let torn = |n: usize| {
                        let lines: Vec<&str> = straight_jsonl.lines().take(n).collect();
                        let (last, whole) = lines.split_last().unwrap();
                        let mut text: String = whole.iter().map(|l| format!("{l}\n")).collect();
                        text.push_str(&last[..last.len() / 2]);
                        text
                    };
                    let resume_with = |text: &str| {
                        std::fs::write(&journal, text).unwrap();
                        session.resume(workload)
                    };
                    let first = session
                        .run(workload)
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let expected = live_legs_at_commits(&straight.report, every);
                    assert_eq!(first.engine_snapshots, expected, "{cell}");
                    assert_eq!(first.engine_restores, 0, "{cell}");
                    let listed = last_commit().engines.len() as u64;
                    let cursor = last_commit().journal_seq as usize;
                    let records = straight.journal.records().len();
                    // A crash after the journal write, before the commit;
                    // where the journal has records past the commit's
                    // cursor, also one that tore its last line.
                    let mut resumes = vec![session.resume(workload), resume_with(&straight_jsonl)];
                    if cursor < records {
                        resumes.push(resume_with(&torn(records)));
                        torn_ahead += 1;
                    }
                    let resumes: Vec<_> = resumes
                        .into_iter()
                        .map(|run| run.unwrap_or_else(|e| panic!("{cell}: {e}")))
                        .collect();
                    for run in resumes.iter().chain([&first]) {
                        assert_eq!(run.report.to_json(), straight.report.to_json(), "{cell}");
                        assert_eq!(
                            run.journal.to_jsonl(),
                            straight.journal.to_jsonl(),
                            "{cell}"
                        );
                    }
                    for run in &resumes {
                        assert_eq!(run.engine_restores, listed, "{cell}");
                    }

                    let contents = || {
                        let mut files: Vec<_> = std::fs::read_dir(&dir)
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
                    };
                    let fails_untouched = |file: &str, what: &str| {
                        let before = contents();
                        let Err(err) = session.resume(workload) else {
                            panic!("{cell}: resumed with {what}");
                        };
                        assert!(err.to_string().contains(file), "{cell}: {err}");
                        assert_eq!(contents(), before, "{cell}: {what}");
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
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
        assert!(drilled > 0, "no last commit listed a finished job");
        assert!(torn_ahead > 0, "no journal ran ahead of its last commit");
    }
}
