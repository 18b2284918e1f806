//! Hand-rolled argument parsing (the workspace's dependency policy keeps
//! external crates to the approved numeric/concurrency set, so no clap).
//!
//! Algorithm selection ([`AlgorithmKind`]) is shared workspace-wide from
//! `eadt-core`; parse failures are typed [`EadtError`]s so callers (and
//! batch runners) classify them without string matching.

use eadt_sim::EadtError;

pub use eadt_core::AlgorithmKind;
pub use eadt_endsys::ArbitrationPolicy;

/// Where the transfer runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvSource {
    /// One of the built-in paper testbeds.
    Testbed(String),
    /// A JSON environment file (see [`crate::envfile`]).
    File(String),
}

/// The sub-command to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one transfer and print its report.
    Transfer {
        /// Algorithm to run.
        algorithm: AlgorithmKind,
        /// Channel budget (`maxChannel`).
        max_channel: u32,
        /// SLA level for `slaee` (fraction of the reference maximum).
        sla_level: f64,
        /// Write the per-slice time series to this CSV file.
        csv: Option<String>,
        /// Pipelining for `--algorithm manual`.
        pipelining: u32,
        /// Parallelism for `--algorithm manual`.
        parallelism: u32,
    },
    /// Run several algorithms over several concurrency levels.
    Sweep {
        /// Algorithms to include.
        algorithms: Vec<AlgorithmKind>,
        /// Concurrency levels.
        levels: Vec<u32>,
    },
    /// Run a batch of transfers on worker threads via the fleet session.
    Fleet {
        /// Algorithms to include (ignored with `--figures`).
        algorithms: Vec<AlgorithmKind>,
        /// Concurrency levels (ignored with `--figures`).
        levels: Vec<u32>,
        /// Worker threads (0 = ask the OS for its parallelism).
        workers: usize,
        /// Run the full three-testbed figures matrix instead of the
        /// environment × algorithms × levels batch.
        figures: bool,
        /// Write the merged fleet report JSON here.
        out: Option<String>,
        /// Complete an interrupted batch from `--checkpoint-dir` instead
        /// of starting over.
        resume: bool,
        /// Write the fleet metrics rollup as Prometheus text exposition
        /// here (also turns per-job metrics collection on).
        metrics_out: Option<String>,
        /// Gauge sampling cadence for `--metrics-out`, simulated seconds.
        cadence_s: f64,
    },
    /// Run a multi-tenant continuous service on shared site pools.
    Serve {
        /// Algorithms to cycle jobs over.
        algorithms: Vec<AlgorithmKind>,
        /// Total jobs to submit (0 = one per algorithm).
        jobs: usize,
        /// Tenants to spread the jobs over round-robin (the tenant index
        /// doubles as the job's priority class).
        tenants: u32,
        /// Mean inter-arrival gap of the seeded arrival process, seconds.
        arrival_gap_s: f64,
        /// Site pool arbitration policy.
        policy: ArbitrationPolicy,
        /// Core slots of the shared site (concurrent residents).
        slots: u32,
        /// Scheduling quantum, engine slices.
        quantum: u64,
        /// Channel budget for every job.
        max_channel: u32,
        /// Worker threads (0 = ask the OS for its parallelism).
        workers: usize,
        /// Write the service report JSON here.
        out: Option<String>,
        /// Write the service event journal (JSON Lines) here.
        journal: Option<String>,
        /// Complete an interrupted service from `--checkpoint-dir`.
        resume: bool,
    },
    /// Run the SLAEE experiment over target percentages.
    Sla {
        /// Target percentages (e.g. 95, 90, 50).
        targets: Vec<u32>,
        /// Channel budget.
        max_channel: u32,
    },
    /// Inspect the dataset and its BDP partitioning.
    Dataset,
    /// Print the environment (or export it as JSON with `--export`).
    Env {
        /// Path to write the JSON environment to.
        export: Option<String>,
    },
    /// Run the §2.2 power-model calibration and print accuracies.
    Calibrate,
    /// Run one transfer with full telemetry and write the event journal.
    Trace {
        /// Algorithm to run.
        algorithm: AlgorithmKind,
        /// Channel budget (`maxChannel`).
        max_channel: u32,
        /// SLA level for `slaee`.
        sla_level: f64,
        /// Pipelining for `--algorithm manual`.
        pipelining: u32,
        /// Parallelism for `--algorithm manual`.
        parallelism: u32,
        /// Journal output path (JSON Lines).
        out: String,
        /// Gauge sampling cadence, simulated seconds.
        cadence_s: f64,
    },
    /// Render a recorded journal: summary, timelines, decision log.
    Inspect {
        /// Journal input path.
        journal: String,
        /// Optional Chrome `trace_event` output (open in Perfetto).
        chrome: Option<String>,
        /// Timeline render width, columns.
        width: usize,
    },
    /// Energy-attribution profile: where did every joule go?
    Profile {
        /// Algorithm to run (ignored with `--from`).
        algorithm: AlgorithmKind,
        /// Channel budget (`maxChannel`).
        max_channel: u32,
        /// SLA level for `slaee`.
        sla_level: f64,
        /// Pipelining for `--algorithm manual`.
        pipelining: u32,
        /// Parallelism for `--algorithm manual`.
        parallelism: u32,
        /// Profile a saved fleet report instead of running a transfer.
        from: Option<String>,
        /// Flame render width, columns.
        width: usize,
    },
    /// The §4 network-energy analysis for one transfer.
    NetEnergy {
        /// Algorithm whose transfer is analysed.
        algorithm: AlgorithmKind,
        /// Channel budget.
        max_channel: u32,
    },
    /// Print usage.
    Help,
}

/// Fault-injection and recovery overrides, applied on top of whatever the
/// environment (testbed or `--env-file`) already declares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultArgs {
    /// `--mtbf SECS`: per-channel mean time to failure.
    pub mtbf_s: Option<f64>,
    /// `--outage GAP:DUR[:SERVER]`: recurring outage windows on a server
    /// of the receiving site (mean gap and duration in seconds; server
    /// index defaults to 0).
    pub outage: Option<(f64, f64, usize)>,
    /// `--retry-budget N`: consecutive failures before a channel is parked
    /// for the full cooldown.
    pub retry_budget: Option<u32>,
    /// `--no-restart-markers`: lose in-flight file progress on failure.
    pub no_restart_markers: bool,
    /// `--fault-aware`: wrap the algorithm's controller in the
    /// fault-aware decorator (shed concurrency under quarantine, re-ramp
    /// on recovery).
    pub fault_aware: bool,
}

impl FaultArgs {
    /// Whether any fault-related flag was given.
    pub fn any(&self) -> bool {
        self.mtbf_s.is_some()
            || self.outage.is_some()
            || self.retry_budget.is_some()
            || self.no_restart_markers
    }
}

/// Fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// What to do.
    pub command: Command,
    /// Where to do it.
    pub env: EnvSource,
    /// Dataset scale factor (1.0 = the paper's volumes).
    pub scale: f64,
    /// Path to a dataset manifest (one file size per line); overrides the
    /// testbed's synthetic dataset.
    pub dataset_file: Option<String>,
    /// Dataset seed (and the fleet's root seed).
    pub seed: u64,
    /// Emit a JSON report instead of tables.
    pub json: bool,
    /// Fault-injection overrides.
    pub faults: FaultArgs,
    /// `--no-macro-step`: force the engine through every 100 ms slice
    /// instead of skipping provably-steady stretches. Output is
    /// bit-identical either way; this is the escape hatch for debugging
    /// the horizon computation (and for timing the plain slice loop).
    pub no_macro_step: bool,
    /// `--checkpoint-dir DIR`: crash-safe checkpointing (DESIGN.md §13)
    /// for `transfer`, `fleet` and `serve` — engine state is persisted
    /// under DIR on the `--checkpoint-every` cadence, and an interrupted
    /// invocation rerun with the same flags (plus `--resume` for `fleet`
    /// and `serve`) resumes from the latest snapshot.
    pub checkpoint_dir: Option<String>,
    /// `--checkpoint-every N`: checkpoint cadence, in 100 ms engine slices
    /// for `transfer` and `fleet` and in scheduling rounds for `serve`.
    pub checkpoint_every: u64,
}

/// The usage string printed by `eadt help`.
pub const USAGE: &str = "\
eadt — energy-aware data transfer simulator (SC'15 reproduction)

USAGE:
  eadt <command> [options]

COMMANDS:
  transfer   run one transfer            (--algorithm, --max-channel, --sla-level)
  sweep      algorithms × concurrency    (--algorithms a,b,c --levels 1,2,4)
  fleet      batch runner on worker threads (--workers N [--figures] [--out F])
             deterministic: same --seed → byte-identical report, any N
  serve      multi-tenant continuous service: jobs arrive on a seeded
             process and contend for one shared site pool
             (--tenants N --policy fair|priority --slots N --arrival-gap S)
             deterministic: same --seed → byte-identical report, any N
  sla        SLAEE target sweep          (--targets 95,90,50 --max-channel N)
  dataset    show the dataset and its BDP partitioning
  env        show the environment        (--export FILE writes JSON)
  calibrate  run the power-model calibration of paper §2.2
  netenergy  §4 analysis: end-system vs network split, per-device breakdown
  trace      run one transfer with telemetry on, write the event journal
             (--algorithm, --out FILE, --cadence SECS)
  inspect    render a journal: summary, per-chunk timeline, decision log
             (--journal FILE [--chrome FILE] for Perfetto [--width COLS])
  profile    energy-attribution profile: joules by phase and component
             (--algorithm … for one run, or --from FLEET.json for a fleet)
  help       this text

OPTIONS:
  --testbed NAME     xsede | futuregrid | didclab        [default: xsede]
  --env-file FILE    load a custom JSON environment instead of a testbed
  --dataset-file F   one file size per line (3MB, 2.5GB, …) instead of the
                     synthetic paper dataset
  --scale F          dataset volume scale                [default: 0.1]
  --seed N           dataset seed / fleet root seed      [default: 42]
  --algorithm NAME   mine|htee|slaee|guc|go|sc|promc|bf  [default: htee]
  --algorithms A,B   for `sweep`/`fleet`                 [default: sc,mine,promc,htee]
  --levels L1,L2     for `sweep`/`fleet`                 [default: 1,2,4,8]
  --targets T1,T2    for `sla`                           [default: 95,90,80,70,50]
  --max-channel N    channel budget                      [default: 8]
  --sla-level F      SLAEE target fraction               [default: 0.9]
  --csv FILE         (transfer) write per-slice series as CSV
  --pipelining N     (transfer --algorithm manual) command queue depth
  --parallelism N    (transfer --algorithm manual) streams per channel
  --workers N        (fleet, serve) worker threads     [default: all cores]
  --jobs N           (serve) total jobs to submit      [default: one per algorithm]
  --tenants N        (serve) tenants, round-robin over jobs; the tenant
                     index is also the job's priority  [default: 2]
  --arrival-gap S    (serve) mean inter-arrival gap, simulated seconds
                     (0 = everything arrives at once)  [default: 0]
  --policy NAME      (serve) fair | priority           [default: fair]
  --slots N          (serve) core slots of the shared site [default: 2]
  --quantum N        (serve) scheduling quantum, 100 ms slices [default: 600]
  --figures          (fleet) run the full 3-testbed figures matrix
  --out FILE         (trace) journal path [default: trace.jsonl]
                     (fleet, serve) write the merged report JSON here
  --cadence SECS     (trace, fleet --metrics-out) gauge sampling cadence
                                                       [default: 1]
  --journal FILE     (inspect) journal to render
                     (serve) write the service event journal here
  --chrome FILE      (inspect) also export Chrome trace_event JSON
  --width COLS       (inspect, profile) render width   [default: 72]
  --from FILE        (profile) read a saved fleet report instead of running
  --metrics-out FILE (fleet) write the metrics rollup as Prometheus text
                     exposition (turns per-job metrics collection on)
  --json             machine-readable output
  --no-macro-step    execute every 100 ms slice instead of macro-stepping
                     steady stretches (same output, slower; for debugging
                     and timing the plain slice loop)

CRASH SAFETY (transfer, fleet and serve):
  --checkpoint-dir D   persist engine checkpoints under D; a rerun with the
                       same flags resumes from the latest snapshot, and the
                       result is byte-identical to an uninterrupted run
  --checkpoint-every N checkpoint cadence: 100 ms slices for transfer and
                       fleet, scheduling rounds for serve   [default: 600]
  --resume             (fleet, serve) complete an interrupted run from
                       --checkpoint-dir: finished jobs are re-admitted from
                       their saved outcomes, half-done jobs resume from
                       their checkpoints, the rest run fresh

FAULT INJECTION (composes with whatever the environment declares):
  --mtbf SECS          per-channel mean time to failure
  --outage G:D[:S]     outage windows on dst server S (default 0): mean gap
                       G seconds, duration D seconds
  --retry-budget N     consecutive failures before the full cooldown
  --no-restart-markers lose in-flight file progress on failure
  --fault-aware        shed concurrency while servers are quarantined,
                       re-ramp on recovery
";

impl Cli {
    /// Parses `argv` (program name excluded).
    pub fn parse(argv: &[String]) -> Result<Cli, EadtError> {
        let mut it = argv.iter().peekable();
        let cmd_word = it.next().map(String::as_str).unwrap_or("help");

        let mut testbed: Option<String> = None;
        let mut env_file: Option<String> = None;
        let mut scale = 0.1f64;
        let mut seed = 42u64;
        let mut json = false;
        let mut algorithm = AlgorithmKind::Htee;
        let mut algorithms = vec![
            AlgorithmKind::Sc,
            AlgorithmKind::MinE,
            AlgorithmKind::ProMc,
            AlgorithmKind::Htee,
        ];
        let mut levels = vec![1u32, 2, 4, 8];
        let mut targets = vec![95u32, 90, 80, 70, 50];
        let mut max_channel = 8u32;
        let mut sla_level = 0.9f64;
        let mut export: Option<String> = None;
        let mut csv: Option<String> = None;
        let mut pipelining = 1u32;
        let mut parallelism = 1u32;
        let mut dataset_file: Option<String> = None;
        let mut faults = FaultArgs::default();
        let mut out_file: Option<String> = None;
        let mut cadence_s = 1.0f64;
        let mut journal: Option<String> = None;
        let mut chrome: Option<String> = None;
        let mut workers = 0usize;
        let mut figures = false;
        let mut width = 72usize;
        let mut from: Option<String> = None;
        let mut metrics_out: Option<String> = None;
        let mut no_macro_step = false;
        let mut checkpoint_dir: Option<String> = None;
        let mut checkpoint_every = 600u64;
        let mut resume = false;
        let mut jobs = 0usize;
        let mut tenants = 2u32;
        let mut arrival_gap_s = 0.0f64;
        let mut policy = ArbitrationPolicy::FairShare;
        let mut slots = 2u32;
        let mut quantum = 600u64;

        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, EadtError> {
                it.next()
                    .ok_or_else(|| EadtError::invalid_argument(name, "requires a value"))
            };
            match flag.as_str() {
                "--testbed" => testbed = Some(value("--testbed")?.clone()),
                "--env-file" => env_file = Some(value("--env-file")?.clone()),
                "--scale" => scale = parse_num(value("--scale")?, "--scale")?,
                "--seed" => seed = parse_num(value("--seed")?, "--seed")?,
                "--json" => json = true,
                "--algorithm" => algorithm = AlgorithmKind::parse(value("--algorithm")?)?,
                "--algorithms" => {
                    algorithms = value("--algorithms")?
                        .split(',')
                        .map(AlgorithmKind::parse)
                        .collect::<Result<_, _>>()?;
                }
                "--levels" => levels = parse_list(value("--levels")?, "--levels")?,
                "--targets" => targets = parse_list(value("--targets")?, "--targets")?,
                "--max-channel" => {
                    max_channel = parse_num(value("--max-channel")?, "--max-channel")?
                }
                "--sla-level" => sla_level = parse_num(value("--sla-level")?, "--sla-level")?,
                "--export" => export = Some(value("--export")?.clone()),
                "--csv" => csv = Some(value("--csv")?.clone()),
                "--dataset-file" => dataset_file = Some(value("--dataset-file")?.clone()),
                "--pipelining" => pipelining = parse_num(value("--pipelining")?, "--pipelining")?,
                "--parallelism" => {
                    parallelism = parse_num(value("--parallelism")?, "--parallelism")?
                }
                "--mtbf" => faults.mtbf_s = Some(parse_num(value("--mtbf")?, "--mtbf")?),
                "--outage" => faults.outage = Some(parse_outage(value("--outage")?)?),
                "--retry-budget" => {
                    faults.retry_budget =
                        Some(parse_num(value("--retry-budget")?, "--retry-budget")?)
                }
                "--no-restart-markers" => faults.no_restart_markers = true,
                "--fault-aware" => faults.fault_aware = true,
                "--out" => out_file = Some(value("--out")?.clone()),
                "--cadence" => cadence_s = parse_num(value("--cadence")?, "--cadence")?,
                "--journal" => journal = Some(value("--journal")?.clone()),
                "--chrome" => chrome = Some(value("--chrome")?.clone()),
                "--workers" => workers = parse_num(value("--workers")?, "--workers")?,
                "--figures" => figures = true,
                "--width" => width = parse_num(value("--width")?, "--width")?,
                "--from" => from = Some(value("--from")?.clone()),
                "--metrics-out" => metrics_out = Some(value("--metrics-out")?.clone()),
                "--no-macro-step" => no_macro_step = true,
                "--checkpoint-dir" => checkpoint_dir = Some(value("--checkpoint-dir")?.clone()),
                "--checkpoint-every" => {
                    checkpoint_every =
                        parse_num(value("--checkpoint-every")?, "--checkpoint-every")?
                }
                "--resume" => resume = true,
                "--jobs" => jobs = parse_num(value("--jobs")?, "--jobs")?,
                "--tenants" => tenants = parse_num(value("--tenants")?, "--tenants")?,
                "--arrival-gap" => {
                    arrival_gap_s = parse_num(value("--arrival-gap")?, "--arrival-gap")?
                }
                "--policy" => {
                    policy = ArbitrationPolicy::parse(value("--policy")?)
                        .map_err(|e| EadtError::invalid_argument("--policy", e))?
                }
                "--slots" => slots = parse_num(value("--slots")?, "--slots")?,
                "--quantum" => quantum = parse_num(value("--quantum")?, "--quantum")?,
                other => {
                    return Err(EadtError::invalid_argument(
                        other,
                        "unknown option (try `eadt help`)",
                    ))
                }
            }
        }

        if testbed.is_some() && env_file.is_some() {
            return Err(EadtError::invalid_argument(
                "--env-file",
                "--testbed and --env-file are mutually exclusive",
            ));
        }
        let env = match env_file {
            Some(f) => EnvSource::File(f),
            None => EnvSource::Testbed(testbed.unwrap_or_else(|| "xsede".into())),
        };
        if scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(EadtError::invalid_argument("--scale", "must be positive"));
        }
        if let Some(m) = faults.mtbf_s {
            if m.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(EadtError::invalid_argument("--mtbf", "must be positive"));
            }
        }
        if checkpoint_every == 0 {
            return Err(EadtError::invalid_argument(
                "--checkpoint-every",
                "must be at least 1 slice",
            ));
        }
        if resume && checkpoint_dir.is_none() {
            return Err(EadtError::invalid_argument(
                "--resume",
                "requires --checkpoint-dir",
            ));
        }

        let command = match cmd_word {
            "transfer" => Command::Transfer {
                algorithm,
                max_channel,
                sla_level,
                csv,
                pipelining,
                parallelism,
            },
            "sweep" => {
                if algorithms.is_empty() || levels.is_empty() {
                    return Err(EadtError::invalid_argument(
                        "sweep",
                        "needs at least one algorithm and one level",
                    ));
                }
                Command::Sweep { algorithms, levels }
            }
            "fleet" => {
                if !figures && (algorithms.is_empty() || levels.is_empty()) {
                    return Err(EadtError::invalid_argument(
                        "fleet",
                        "needs at least one algorithm and one level (or --figures)",
                    ));
                }
                if cadence_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(EadtError::invalid_argument("--cadence", "must be positive"));
                }
                Command::Fleet {
                    algorithms,
                    levels,
                    workers,
                    figures,
                    out: out_file,
                    resume,
                    metrics_out,
                    cadence_s,
                }
            }
            "serve" => {
                if algorithms.is_empty() {
                    return Err(EadtError::invalid_argument(
                        "serve",
                        "needs at least one algorithm",
                    ));
                }
                if tenants == 0 {
                    return Err(EadtError::invalid_argument(
                        "--tenants",
                        "must be at least 1",
                    ));
                }
                if slots == 0 {
                    return Err(EadtError::invalid_argument("--slots", "must be at least 1"));
                }
                if quantum == 0 {
                    return Err(EadtError::invalid_argument(
                        "--quantum",
                        "must be at least 1 slice",
                    ));
                }
                if !(arrival_gap_s >= 0.0 && arrival_gap_s.is_finite()) {
                    return Err(EadtError::invalid_argument(
                        "--arrival-gap",
                        "must be a finite non-negative number of seconds",
                    ));
                }
                Command::Serve {
                    algorithms,
                    jobs,
                    tenants,
                    arrival_gap_s,
                    policy,
                    slots,
                    quantum,
                    max_channel,
                    workers,
                    out: out_file,
                    journal,
                    resume,
                }
            }
            "sla" => {
                if targets.is_empty() {
                    return Err(EadtError::invalid_argument(
                        "sla",
                        "needs at least one target",
                    ));
                }
                Command::Sla {
                    targets,
                    max_channel,
                }
            }
            "dataset" => Command::Dataset,
            "env" => Command::Env { export },
            "calibrate" => Command::Calibrate,
            "trace" => {
                if cadence_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(EadtError::invalid_argument("--cadence", "must be positive"));
                }
                Command::Trace {
                    algorithm,
                    max_channel,
                    sla_level,
                    pipelining,
                    parallelism,
                    out: out_file.unwrap_or_else(|| String::from("trace.jsonl")),
                    cadence_s,
                }
            }
            "inspect" => {
                if width < 20 {
                    return Err(EadtError::invalid_argument(
                        "--width",
                        "must be at least 20 columns",
                    ));
                }
                Command::Inspect {
                    journal: journal.ok_or_else(|| {
                        EadtError::invalid_argument("inspect", "requires --journal FILE")
                    })?,
                    chrome,
                    width,
                }
            }
            "profile" => {
                if width < 20 {
                    return Err(EadtError::invalid_argument(
                        "--width",
                        "must be at least 20 columns",
                    ));
                }
                Command::Profile {
                    algorithm,
                    max_channel,
                    sla_level,
                    pipelining,
                    parallelism,
                    from,
                    width,
                }
            }
            "netenergy" | "net-energy" => Command::NetEnergy {
                algorithm,
                max_channel,
            },
            "help" | "--help" | "-h" => Command::Help,
            other => {
                return Err(EadtError::invalid_argument(
                    other,
                    "unknown command (try `eadt help`)",
                ))
            }
        };

        Ok(Cli {
            command,
            env,
            scale,
            seed,
            json,
            dataset_file,
            faults,
            no_macro_step,
            checkpoint_dir,
            checkpoint_every,
        })
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, EadtError> {
    s.parse()
        .map_err(|_| EadtError::invalid_argument(flag, format!("cannot parse '{s}'")))
}

/// Parses `GAP:DUR[:SERVER]` (seconds, seconds, dst-server index).
fn parse_outage(s: &str) -> Result<(f64, f64, usize), EadtError> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() < 2 || parts.len() > 3 {
        return Err(EadtError::invalid_argument(
            "--outage",
            format!("expected GAP:DUR[:SERVER], got '{s}'"),
        ));
    }
    let gap: f64 = parse_num(parts[0], "--outage gap")?;
    let dur: f64 = parse_num(parts[1], "--outage duration")?;
    if gap <= 0.0 || dur <= 0.0 {
        return Err(EadtError::invalid_argument(
            "--outage",
            "gap and duration must be positive",
        ));
    }
    let server: usize = match parts.get(2) {
        Some(p) => parse_num(p, "--outage server")?,
        None => 0,
    };
    Ok((gap, dur, server))
}

fn parse_list(s: &str, flag: &str) -> Result<Vec<u32>, EadtError> {
    s.split(',').map(|p| parse_num(p.trim(), flag)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_sim::ErrorKind;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn default_invocation_is_help() {
        let cli = Cli::parse(&[]).unwrap();
        assert_eq!(cli.command, Command::Help);
        assert_eq!(cli.env, EnvSource::Testbed("xsede".into()));
    }

    #[test]
    fn transfer_with_options() {
        let cli = Cli::parse(&argv(
            "transfer --testbed didclab --algorithm mine --max-channel 12 --scale 0.5 --seed 7 --json",
        ))
        .unwrap();
        assert_eq!(cli.env, EnvSource::Testbed("didclab".into()));
        assert_eq!(cli.scale, 0.5);
        assert_eq!(cli.seed, 7);
        assert!(cli.json);
        match cli.command {
            Command::Transfer {
                algorithm,
                max_channel,
                csv,
                pipelining,
                parallelism,
                ..
            } => {
                assert_eq!(algorithm, AlgorithmKind::MinE);
                assert_eq!(max_channel, 12);
                assert_eq!(csv, None);
                assert_eq!((pipelining, parallelism), (1, 1));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn sweep_parses_lists() {
        let cli = Cli::parse(&argv("sweep --algorithms sc,promc --levels 1,4,8")).unwrap();
        match cli.command {
            Command::Sweep { algorithms, levels } => {
                assert_eq!(algorithms, vec![AlgorithmKind::Sc, AlgorithmKind::ProMc]);
                assert_eq!(levels, vec![1, 4, 8]);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn fleet_parses_workers_and_figures() {
        let cli = Cli::parse(&argv(
            "fleet --algorithms sc,promc --levels 1,4 --workers 4 --out /tmp/fleet.json",
        ))
        .unwrap();
        match cli.command {
            Command::Fleet {
                algorithms,
                levels,
                workers,
                figures,
                out,
                resume,
                metrics_out,
                cadence_s,
            } => {
                assert_eq!(algorithms, vec![AlgorithmKind::Sc, AlgorithmKind::ProMc]);
                assert_eq!(levels, vec![1, 4]);
                assert_eq!(workers, 4);
                assert!(!figures);
                assert!(!resume);
                assert_eq!(out.as_deref(), Some("/tmp/fleet.json"));
                assert_eq!(metrics_out, None);
                assert_eq!(cadence_s, 1.0);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv("fleet --figures --workers 2")).unwrap();
        match cli.command {
            Command::Fleet {
                figures, workers, ..
            } => {
                assert!(figures);
                assert_eq!(workers, 2);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn serve_parses_service_flags() {
        let cli = Cli::parse(&argv(
            "serve --algorithms sc,promc --tenants 3 --arrival-gap 20 --policy priority \
             --slots 1 --quantum 300 --workers 2 --out /tmp/s.json --journal /tmp/s.jsonl",
        ))
        .unwrap();
        match cli.command {
            Command::Serve {
                algorithms,
                jobs,
                tenants,
                arrival_gap_s,
                policy,
                slots,
                quantum,
                workers,
                out,
                journal,
                resume,
                ..
            } => {
                assert_eq!(algorithms, vec![AlgorithmKind::Sc, AlgorithmKind::ProMc]);
                assert_eq!(jobs, 0, "0 = one job per algorithm");
                assert_eq!(tenants, 3);
                assert_eq!(arrival_gap_s, 20.0);
                assert_eq!(policy, ArbitrationPolicy::StrictPriority);
                assert_eq!(slots, 1);
                assert_eq!(quantum, 300);
                assert_eq!(workers, 2);
                assert_eq!(out.as_deref(), Some("/tmp/s.json"));
                assert_eq!(journal.as_deref(), Some("/tmp/s.jsonl"));
                assert!(!resume);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: fair policy, 2 tenants, 2 slots, immediate arrivals.
        let cli = Cli::parse(&argv("serve")).unwrap();
        match cli.command {
            Command::Serve {
                tenants,
                policy,
                slots,
                quantum,
                arrival_gap_s,
                ..
            } => {
                assert_eq!(tenants, 2);
                assert_eq!(policy, ArbitrationPolicy::FairShare);
                assert_eq!(slots, 2);
                assert_eq!(quantum, 600);
                assert_eq!(arrival_gap_s, 0.0);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(Cli::parse(&argv("serve --policy bogus")).is_err());
        assert!(Cli::parse(&argv("serve --tenants 0")).is_err());
        assert!(Cli::parse(&argv("serve --slots 0")).is_err());
        assert!(Cli::parse(&argv("serve --quantum 0")).is_err());
        assert!(Cli::parse(&argv("serve --arrival-gap -2")).is_err());
        assert!(Cli::parse(&argv("serve --resume")).is_err());
        // Both policy spellings from the pool module parse.
        for name in ["fair", "fair-share", "priority", "strict-priority"] {
            assert!(
                Cli::parse(&argv(&format!("serve --policy {name}"))).is_ok(),
                "{name}"
            );
        }
    }

    #[test]
    fn sla_targets() {
        let cli = Cli::parse(&argv("sla --targets 90,50 --max-channel 6")).unwrap();
        assert_eq!(
            cli.command,
            Command::Sla {
                targets: vec![90, 50],
                max_channel: 6
            }
        );
    }

    #[test]
    fn env_export() {
        let cli = Cli::parse(&argv("env --export /tmp/x.json")).unwrap();
        assert_eq!(
            cli.command,
            Command::Env {
                export: Some("/tmp/x.json".into())
            }
        );
    }

    #[test]
    fn env_file_source() {
        let cli = Cli::parse(&argv("dataset --env-file custom.json")).unwrap();
        assert_eq!(cli.env, EnvSource::File("custom.json".into()));
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(Cli::parse(&argv("frobnicate")).is_err());
        assert!(Cli::parse(&argv("transfer --bogus 1")).is_err());
        assert!(Cli::parse(&argv("transfer --algorithm nope")).is_err());
        assert!(Cli::parse(&argv("transfer --scale -1")).is_err());
        assert!(Cli::parse(&argv("transfer --scale")).is_err());
        assert!(Cli::parse(&argv("transfer --testbed a --env-file b")).is_err());
        assert!(Cli::parse(&argv("sweep --levels x")).is_err());
    }

    #[test]
    fn parse_errors_are_typed() {
        let err = Cli::parse(&argv("transfer --scale -1")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
        let err = Cli::parse(&argv("transfer --algorithm nope")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
        let err = Cli::parse(&argv("frobnicate")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidArgument);
    }

    #[test]
    fn netenergy_command_parses() {
        let cli = Cli::parse(&argv("netenergy --algorithm promc --max-channel 4")).unwrap();
        assert_eq!(
            cli.command,
            Command::NetEnergy {
                algorithm: AlgorithmKind::ProMc,
                max_channel: 4
            }
        );
    }

    #[test]
    fn manual_transfer_parses_params() {
        let cli = Cli::parse(&argv(
            "transfer --algorithm manual --pipelining 8 --parallelism 4 --max-channel 2",
        ))
        .unwrap();
        match cli.command {
            Command::Transfer {
                algorithm,
                pipelining,
                parallelism,
                max_channel,
                ..
            } => {
                assert_eq!(algorithm, AlgorithmKind::Manual);
                assert_eq!((pipelining, parallelism, max_channel), (8, 4, 2));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn fault_flags_round_trip() {
        let cli = Cli::parse(&argv(
            "transfer --mtbf 30 --outage 40:10:1 --retry-budget 4 --no-restart-markers --fault-aware",
        ))
        .unwrap();
        assert_eq!(cli.faults.mtbf_s, Some(30.0));
        assert_eq!(cli.faults.outage, Some((40.0, 10.0, 1)));
        assert_eq!(cli.faults.retry_budget, Some(4));
        assert!(cli.faults.no_restart_markers);
        assert!(cli.faults.fault_aware);
        assert!(cli.faults.any());
        // Server index defaults to 0 when omitted.
        let cli = Cli::parse(&argv("transfer --outage 20:5")).unwrap();
        assert_eq!(cli.faults.outage, Some((20.0, 5.0, 0)));
        // No flags → no overrides.
        let cli = Cli::parse(&argv("transfer")).unwrap();
        assert_eq!(cli.faults, FaultArgs::default());
        assert!(!cli.faults.any());
    }

    #[test]
    fn bad_fault_flags_are_rejected() {
        assert!(Cli::parse(&argv("transfer --mtbf 0")).is_err());
        assert!(Cli::parse(&argv("transfer --mtbf -3")).is_err());
        assert!(Cli::parse(&argv("transfer --mtbf")).is_err());
        assert!(Cli::parse(&argv("transfer --outage 10")).is_err());
        assert!(Cli::parse(&argv("transfer --outage 10:0")).is_err());
        assert!(Cli::parse(&argv("transfer --outage a:b")).is_err());
        assert!(Cli::parse(&argv("transfer --outage 1:2:3:4")).is_err());
        assert!(Cli::parse(&argv("transfer --retry-budget x")).is_err());
    }

    #[test]
    fn trace_and_inspect_parse() {
        let cli = Cli::parse(&argv(
            "trace --testbed didclab --algorithm htee --out /tmp/j.jsonl --cadence 0.5",
        ))
        .unwrap();
        match cli.command {
            Command::Trace {
                algorithm,
                out,
                cadence_s,
                ..
            } => {
                assert_eq!(algorithm, AlgorithmKind::Htee);
                assert_eq!(out, "/tmp/j.jsonl");
                assert_eq!(cadence_s, 0.5);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Default journal path, default cadence.
        let cli = Cli::parse(&argv("trace")).unwrap();
        match cli.command {
            Command::Trace { out, cadence_s, .. } => {
                assert_eq!(out, "trace.jsonl");
                assert_eq!(cadence_s, 1.0);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv("inspect --journal j.jsonl --chrome t.json")).unwrap();
        assert_eq!(
            cli.command,
            Command::Inspect {
                journal: "j.jsonl".into(),
                chrome: Some("t.json".into()),
                width: 72,
            }
        );
        // inspect needs an input; trace needs a positive cadence.
        assert!(Cli::parse(&argv("inspect")).is_err());
        assert!(Cli::parse(&argv("trace --cadence 0")).is_err());
        assert!(Cli::parse(&argv("trace --cadence -2")).is_err());
    }

    #[test]
    fn inspect_width_is_tunable_with_a_floor() {
        let cli = Cli::parse(&argv("inspect --journal j.jsonl --width 120")).unwrap();
        match cli.command {
            Command::Inspect { width, .. } => assert_eq!(width, 120),
            other => panic!("wrong command: {other:?}"),
        }
        // Below the floor the timeline would degenerate to pure labels.
        assert!(Cli::parse(&argv("inspect --journal j.jsonl --width 19")).is_err());
        assert!(Cli::parse(&argv("inspect --journal j.jsonl --width nope")).is_err());
    }

    #[test]
    fn profile_parses_run_and_from_forms() {
        let cli = Cli::parse(&argv("profile --algorithm htee --max-channel 6")).unwrap();
        match cli.command {
            Command::Profile {
                algorithm,
                max_channel,
                from,
                width,
                ..
            } => {
                assert_eq!(algorithm, AlgorithmKind::Htee);
                assert_eq!(max_channel, 6);
                assert_eq!(from, None);
                assert_eq!(width, 72);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv("profile --from fleet.json --width 100")).unwrap();
        match cli.command {
            Command::Profile { from, width, .. } => {
                assert_eq!(from.as_deref(), Some("fleet.json"));
                assert_eq!(width, 100);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(Cli::parse(&argv("profile --width 10")).is_err());
    }

    #[test]
    fn fleet_metrics_out_parses_and_validates_cadence() {
        let cli = Cli::parse(&argv(
            "fleet --figures --metrics-out /tmp/m.prom --cadence 0.5",
        ))
        .unwrap();
        match cli.command {
            Command::Fleet {
                metrics_out,
                cadence_s,
                ..
            } => {
                assert_eq!(metrics_out.as_deref(), Some("/tmp/m.prom"));
                assert_eq!(cadence_s, 0.5);
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(Cli::parse(&argv("fleet --figures --metrics-out m.prom --cadence 0")).is_err());
    }

    #[test]
    fn checkpoint_flags_parse() {
        let cli = Cli::parse(&argv(
            "transfer --checkpoint-dir /tmp/ck --checkpoint-every 50",
        ))
        .unwrap();
        assert_eq!(cli.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(cli.checkpoint_every, 50);
        // Defaults: no directory, 600-slice cadence.
        let cli = Cli::parse(&argv("transfer")).unwrap();
        assert_eq!(cli.checkpoint_dir, None);
        assert_eq!(cli.checkpoint_every, 600);
        // Fleet resume round-trips and requires the directory.
        let cli = Cli::parse(&argv("fleet --checkpoint-dir /tmp/ck --resume")).unwrap();
        match cli.command {
            Command::Fleet { resume, .. } => assert!(resume),
            other => panic!("wrong command: {other:?}"),
        }
        assert!(Cli::parse(&argv("fleet --resume")).is_err());
        assert!(Cli::parse(&argv("transfer --checkpoint-every 0")).is_err());
        assert!(Cli::parse(&argv("transfer --checkpoint-dir")).is_err());
    }

    #[test]
    fn no_macro_step_flag_parses() {
        let cli = Cli::parse(&argv("transfer --no-macro-step")).unwrap();
        assert!(cli.no_macro_step);
        let cli = Cli::parse(&argv("trace --no-macro-step --out /tmp/j.jsonl")).unwrap();
        assert!(cli.no_macro_step);
        let cli = Cli::parse(&argv("transfer")).unwrap();
        assert!(!cli.no_macro_step);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for name in [
            "mine", "htee", "slaee", "guc", "go", "sc", "promc", "bf", "manual",
        ] {
            let kind = AlgorithmKind::parse(name).unwrap();
            assert!(AlgorithmKind::parse(&kind.name().to_ascii_lowercase()).is_ok());
        }
    }
}
