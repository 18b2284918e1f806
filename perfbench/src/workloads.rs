//! The four workloads: their inputs, generated from the workload seed in
//! set-up, and their timed bodies, which drive the public entry points
//! `eadt fleet` and `eadt serve` use.

use eadt_ckpt::{CheckpointStore, JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
use eadt_core::AlgorithmKind;
use eadt_endsys::{ArbitrationPolicy, PoolCapacity};
use eadt_fleet::{
    derive_job_seed, figures_matrix, JobRunner, JobSpec, ServiceJob, ServiceSession, Session,
    Workload,
};
use eadt_sim::SimDuration;
use eadt_transfer::{
    DiskDegradationModel, FaultModel, FaultPlan, OutageModel, RunControl, RunOutcome, SiteSide,
    StallModel,
};
use std::path::{Path, PathBuf};

/// Worker threads of every parallel body: the benchmark host has 2 cores.
pub const WORKERS: usize = 2;
/// The seed whose report digests are committed (see `check.rs`).
pub const DEFAULT_SEED: u64 = 42;

/// Dataset scale of `figures-batch`.
const FIGURES_SCALE: f64 = 3.0;
/// Dataset scale of `turbulent-batch`.
const TURBULENT_SCALE: f64 = 1.0;
/// Dataset scale of the crash `checkpointed-batch` resumes from.
const CRASH_SCALE: f64 = 0.05;
/// The engine slice every staged job halts at.
const CRASH_SLICE: u64 = 200;
/// Checkpoint cadence of the resumed session, engine slices.
pub const RESUME_EVERY: u64 = 600;
/// `serve-contended`: jobs, tenants (= priority classes), slots, gap, quantum.
const SERVE_JOBS: usize = 42;
const SERVE_TENANTS: usize = 3;
const SERVE_SLOTS: u32 = 3;
const SERVE_GAP_S: f64 = 20.0;
pub const SERVE_QUANTUM: u64 = 100;
const SERVE_MAX_CHANNEL: u32 = 8;
const SERVE_KINDS: [AlgorithmKind; 4] = [
    AlgorithmKind::Sc,
    AlgorithmKind::MinE,
    AlgorithmKind::ProMc,
    AlgorithmKind::Htee,
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Figures,
    Turbulent,
    Checkpointed,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Figures,
        Kind::Turbulent,
        Kind::Checkpointed,
        Kind::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Figures => "figures-batch",
            Kind::Turbulent => "turbulent-batch",
            Kind::Checkpointed => "checkpointed-batch",
            Kind::Serve => "serve-contended",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload's generated inputs.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    /// The batch (every workload but `serve-contended`, whose jobs live
    /// in `service`).
    pub jobs: Vec<JobSpec>,
    pub service: Option<Workload>,
    /// The crash `checkpointed-batch` resumes from: one checkpoint per job
    /// the halt caught mid-flight.
    pub crash: Vec<JobCheckpoint>,
    /// Bytes each job must request, from its dataset generated here.
    pub requested: Vec<u64>,
}

impl Inputs {
    /// Generates the workload's inputs from `seed`, staging the crash of
    /// `checkpointed-batch` into a fresh directory under `scratch`, which
    /// is removed again. Returns the inputs and the staged files (name,
    /// contents), which must not depend on anything but the seed.
    pub fn generate(
        kind: Kind,
        seed: u64,
        scratch: &Path,
    ) -> Result<(Inputs, StagedFiles), String> {
        let mut inputs = Inputs {
            kind,
            seed,
            jobs: Vec::new(),
            service: None,
            crash: Vec::new(),
            requested: Vec::new(),
        };
        let mut staged = Vec::new();
        match kind {
            Kind::Figures => inputs.jobs = figures_matrix(FIGURES_SCALE),
            Kind::Turbulent => {
                let plan = turbulent_plan(seed);
                inputs.jobs = figures_matrix(TURBULENT_SCALE)
                    .into_iter()
                    .map(|j| j.with_faults(plan.clone()).with_fault_aware(true))
                    .collect();
            }
            Kind::Checkpointed => {
                inputs.jobs = figures_matrix(CRASH_SCALE);
                inputs.crash = stage_crash(&inputs.jobs, seed);
                let dir = scratch.join("stage");
                let store = save_crash(&dir, &inputs.crash)?;
                staged = read_dir_sorted(store.dir())?;
                remove_dir(&dir)?;
            }
            Kind::Serve => inputs.service = Some(serve_workload()),
        }
        let specs: Vec<&JobSpec> = match &inputs.service {
            Some(w) => w.jobs().iter().map(|j| &j.spec).collect(),
            None => inputs.jobs.iter().collect(),
        };
        inputs.requested = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let job_seed = derive_job_seed(seed, i as u64);
                spec.env
                    .dataset_spec
                    .scaled(spec.scale)
                    .generate(job_seed)
                    .total_size()
                    .as_u64()
            })
            .collect();
        Ok((inputs, staged))
    }

    /// Jobs one run of the body executes.
    pub fn job_count(&self) -> usize {
        self.requested.len()
    }
}

/// The fault plan every `turbulent-batch` job runs under: 20 s channel
/// MTBF, a destination outage, control-channel stalls and source disk
/// degradation, each stream seeded from the workload seed.
fn turbulent_plan(seed: u64) -> FaultPlan {
    let sub = |k: u64| derive_job_seed(seed ^ 0x7475_7262, k);
    FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(20), sub(0)))
        .with_outage(OutageModel::new(
            SiteSide::Dst,
            0,
            SimDuration::from_secs(60),
            SimDuration::from_secs(4),
            sub(1),
        ))
        .with_stall(StallModel::new(
            SimDuration::from_secs(30),
            SimDuration::from_secs(3),
            4.0,
            sub(2),
        ))
        .with_disk(DiskDegradationModel::new(
            SiteSide::Src,
            0,
            SimDuration::from_secs(45),
            SimDuration::from_secs(6),
            0.5,
            sub(3),
        ))
}

/// The `serve-contended` workload: jobs cycling SC, MinE, ProMC and HTEE
/// on one shared XSEDE site pool, tenant = priority class.
fn serve_workload() -> Workload {
    let tb = eadt_testbeds::xsede();
    let site = tb.name.clone();
    let capacity =
        PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, SERVE_SLOTS);
    let mut workload = Workload::new()
        .site(site.clone(), capacity)
        .arrival_gap_s(SERVE_GAP_S);
    for i in 0..SERVE_JOBS {
        let tenant = (i % SERVE_TENANTS) as u32;
        let spec = JobSpec::new(SERVE_KINDS[i % SERVE_KINDS.len()], tb.clone())
            .with_scale(1.0)
            .with_max_channel(SERVE_MAX_CHANNEL);
        workload = workload.job(
            ServiceJob::new(spec, site.clone())
                .with_tenant(tenant)
                .with_priority(tenant),
        );
    }
    workload
}

/// Halts every job at slice [`CRASH_SLICE`], as a crash at that point
/// would leave it. Jobs that finish earlier leave no checkpoint.
fn stage_crash(jobs: &[JobSpec], seed: u64) -> Vec<JobCheckpoint> {
    let mut crash = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let job_seed = derive_job_seed(seed, i as u64);
        let outcome =
            JobRunner::prepare(job, job_seed).run_controlled(RunControl::halt_at(CRASH_SLICE));
        if let RunOutcome::Halted(engine) = outcome {
            crash.push(JobCheckpoint {
                schema: JOB_CHECKPOINT_SCHEMA_VERSION,
                job: i,
                label: job.display_label(),
                algorithm: job.kind.name().to_string(),
                seed: job_seed,
                engine: *engine,
            });
        }
    }
    crash
}

/// Writes the staged crash into a fresh checkpoint directory.
pub fn save_crash(dir: &Path, crash: &[JobCheckpoint]) -> Result<CheckpointStore, String> {
    remove_dir(dir)?;
    let store = CheckpointStore::create(dir).map_err(|e| e.to_string())?;
    for ck in crash {
        store.save_job_checkpoint(ck).map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// Removes `dir` and everything under it; a missing `dir` is fine.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("{}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Every file of `dir`, name-sorted, with its contents.
fn read_dir_sorted(dir: &Path) -> Result<StagedFiles, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        let bytes = std::fs::read(entry.path()).map_err(io)?;
        files.push((entry.file_name().to_string_lossy().into_owned(), bytes));
    }
    files.sort();
    Ok(files)
}

/// The files of a staged crash, name-sorted: (name, contents).
pub type StagedFiles = Vec<(String, Vec<u8>)>;

/// What one execution of a workload's body produced.
pub struct Output {
    /// The canonical output: report JSON, plus the journal for the service.
    pub text: String,
    /// Job outcomes, in job order: (requested bytes, carries an error).
    pub jobs: Vec<(u64, bool)>,
    /// Channel failures over every job.
    pub failures: u64,
}

/// The body's per-execution preparation: a fresh checkpoint directory
/// holding the staged crash, for `checkpointed-batch`.
pub fn prepare_body(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    if inputs.kind == Kind::Checkpointed {
        save_crash(dir, &inputs.crash)?;
    }
    Ok(())
}

/// The timed body: what `eadt fleet --out` (batch), `eadt fleet --resume`
/// (checkpointed) and `eadt serve --json --journal` (service) do.
pub fn run_body(inputs: &Inputs, workers: usize, dir: &Path) -> Result<Output, String> {
    let batch = Session::builder().root_seed(inputs.seed).workers(workers);
    let report = match inputs.kind {
        Kind::Figures | Kind::Turbulent => batch.build().run(&inputs.jobs),
        Kind::Checkpointed => batch
            .checkpoints(PathBuf::from(dir), RESUME_EVERY)
            .build()
            .resume(&inputs.jobs),
        Kind::Serve => {
            let workload = inputs.service.as_ref().ok_or("service workload missing")?;
            let run = serve_session(inputs.seed, workers)
                .run(workload)
                .map_err(|e| e.to_string())?;
            let mut text = run.report.to_json();
            text.push_str(&run.journal.to_jsonl());
            return Ok(Output {
                text,
                jobs: run
                    .report
                    .jobs
                    .iter()
                    .map(|j| (j.outcome.requested_bytes, j.outcome.error.is_some()))
                    .collect(),
                failures: run.report.metrics.failures,
            });
        }
    };
    Ok(Output {
        text: report.to_json(),
        jobs: report
            .jobs
            .iter()
            .map(|j| (j.requested_bytes, j.error.is_some()))
            .collect(),
        failures: report.metrics.failures,
    })
}

/// The straight run `checkpointed-batch`'s resumed report must equal.
pub fn straight_run(inputs: &Inputs) -> String {
    Session::builder()
        .root_seed(inputs.seed)
        .workers(WORKERS)
        .build()
        .run(&inputs.jobs)
        .to_json()
}

/// The service session of `serve-contended`.
pub fn serve_session(seed: u64, workers: usize) -> ServiceSession {
    ServiceSession::builder()
        .root_seed(seed)
        .policy(ArbitrationPolicy::StrictPriority)
        .quantum(SERVE_QUANTUM)
        .workers(workers)
        .build()
}
