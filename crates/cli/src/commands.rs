//! Command execution: resolve the environment, build the dataset, run the
//! requested experiment, render tables (or JSON).

use crate::args::{AlgorithmKind, Cli, Command, FaultArgs};
use crate::envfile;
use eadt_core::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, Manual, ProMc, SingleChunk};
use eadt_core::{Algorithm, Htee, MinE, RunCtx, Slaee};
use eadt_dataset::{partition, Dataset};
use eadt_endsys::PoolCapacity;
use eadt_fleet::{
    figures_matrix, FleetReport, JobSpec, ServiceJob, ServiceSession, Session, Workload,
};
use eadt_power::calibrate::{build_models, evaluate_model, GroundTruth, ToolProfile};
use eadt_sim::{EadtError, SimDuration, SimTime};
use eadt_telemetry::{chrome, timeline, Event, Journal, Telemetry, SCHEMA_VERSION};
use eadt_testbeds::Environment;
use eadt_transfer::{
    FaultModel, OutageModel, SiteSide, TransferEnv, TransferParams, TransferReport,
};
use std::io::Write;

type Out<'a> = &'a mut dyn Write;

/// Executes a parsed invocation.
pub fn execute(cli: &Cli, out: Out) -> Result<(), EadtError> {
    match &cli.command {
        Command::Help => {
            writeln!(out, "{}", crate::args::USAGE)?;
            Ok(())
        }
        Command::Transfer {
            algorithm,
            max_channel,
            sla_level,
            csv,
            pipelining,
            parallelism,
        } => {
            let tb = resolve(cli)?;
            let dataset = make_dataset(cli, &tb, out)?;
            let report = if let Some(dir) = &cli.checkpoint_dir {
                run_transfer_checkpointed(
                    cli,
                    &tb,
                    &dataset,
                    *algorithm,
                    *max_channel,
                    *sla_level,
                    *pipelining,
                    *parallelism,
                    dir,
                    out,
                )?
            } else if *algorithm == AlgorithmKind::Manual {
                let params = TransferParams::new(*pipelining, *parallelism, *max_channel);
                manual(params, cli).run(&mut RunCtx::new(&tb.env, &dataset))
            } else {
                run_algorithm(
                    &tb,
                    &dataset,
                    *algorithm,
                    *max_channel,
                    *sla_level,
                    cli.faults.fault_aware,
                )
            };
            if let Some(path) = csv {
                let mut file = std::fs::File::create(path)?;
                report.write_series_csv(&mut file)?;
                writeln!(out, "[series written to {path}]")?;
            }
            print_report(cli, out, algorithm.name(), &report)
        }
        Command::Sweep { algorithms, levels } => {
            let tb = resolve(cli)?;
            let dataset = make_dataset(cli, &tb, out)?;
            writeln!(
                out,
                "{:<8} {:>5} {:>10} {:>10} {:>12} {:>10}",
                "algo", "cc", "Mbps", "seconds", "energy (J)", "Mbps/J"
            )?;
            for &cc in levels {
                for &a in algorithms {
                    let r = run_algorithm(&tb, &dataset, a, cc, 0.9, cli.faults.fault_aware);
                    writeln!(
                        out,
                        "{:<8} {:>5} {:>10.0} {:>10.1} {:>12.0} {:>10.4}",
                        a.name(),
                        cc,
                        r.avg_throughput().as_mbps(),
                        r.duration.as_secs_f64(),
                        r.total_energy_j(),
                        r.efficiency()
                    )?;
                }
            }
            Ok(())
        }
        Command::Fleet {
            algorithms,
            levels,
            workers,
            figures,
            out: report_path,
            resume,
            metrics_out,
            cadence_s,
        } => {
            let mut builder = Session::builder().root_seed(cli.seed);
            if *workers > 0 {
                builder = builder.workers(*workers);
            }
            if let Some(dir) = &cli.checkpoint_dir {
                builder = builder.checkpoints(dir, cli.checkpoint_every);
            }
            if metrics_out.is_some() {
                builder = builder.metrics(SimDuration::from_secs_f64(*cadence_s));
            }
            let session = builder.build();
            let jobs = if *figures {
                figures_matrix(cli.scale)
            } else {
                let tb = resolve(cli)?;
                let mut jobs = Vec::with_capacity(levels.len() * algorithms.len());
                for &cc in levels {
                    for &a in algorithms {
                        jobs.push(
                            JobSpec::new(a, tb.clone())
                                .with_scale(cli.scale)
                                .with_max_channel(cc)
                                .with_fault_aware(cli.faults.fault_aware),
                        );
                    }
                }
                jobs
            };
            let report = if *resume {
                session.resume(&jobs)
            } else {
                session.run(&jobs)
            };
            if cli.json {
                write!(out, "{}", report.to_json())?;
            } else {
                writeln!(
                    out,
                    "fleet: {} jobs on {} workers (root seed {})",
                    report.jobs.len(),
                    session.workers(),
                    report.root_seed
                )?;
                writeln!(
                    out,
                    "{:<24} {:>10} {:>10} {:>12} {:>10}",
                    "job", "Mbps", "seconds", "energy (J)", "Mbps/J"
                )?;
                for j in &report.jobs {
                    writeln!(
                        out,
                        "{:<24} {:>10.0} {:>10.1} {:>12.0} {:>10.4}",
                        j.label, j.throughput_mbps, j.duration_s, j.energy_j, j.efficiency
                    )?;
                    if let Some(err) = &j.error {
                        writeln!(out, "  error: {err}")?;
                    }
                }
                writeln!(
                    out,
                    "completed {}/{} ({} errors)",
                    report.completed_count(),
                    report.jobs.len(),
                    report.error_count()
                )?;
            }
            if let Some(path) = report_path {
                std::fs::write(path, report.to_json())
                    .map_err(|e| EadtError::io(path.clone(), e.to_string()))?;
                writeln!(out, "[fleet report -> {path}]")?;
            }
            if let Some(path) = metrics_out {
                std::fs::write(path, report.metrics.to_prometheus())
                    .map_err(|e| EadtError::io(path.clone(), e.to_string()))?;
                writeln!(out, "[fleet metrics -> {path}]")?;
            }
            Ok(())
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
            out: report_path,
            journal: journal_path,
            resume,
        } => {
            let tb = resolve(cli)?;
            let site = tb.name.clone();
            let capacity =
                PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, *slots);
            let n_jobs = if *jobs == 0 { algorithms.len() } else { *jobs };
            let mut workload = Workload::new()
                .site(site.clone(), capacity)
                .arrival_gap_s(*arrival_gap_s);
            for i in 0..n_jobs {
                let kind = algorithms[i % algorithms.len()];
                let tenant = (i % *tenants as usize) as u32;
                workload = workload.job(
                    ServiceJob::new(
                        JobSpec::new(kind, tb.clone())
                            .with_scale(cli.scale)
                            .with_max_channel(*max_channel)
                            .with_fault_aware(cli.faults.fault_aware),
                        site.clone(),
                    )
                    .with_tenant(tenant)
                    .with_priority(tenant),
                );
            }
            let mut builder = ServiceSession::builder()
                .root_seed(cli.seed)
                .policy(*policy)
                .quantum(*quantum);
            if *workers > 0 {
                builder = builder.workers(*workers);
            }
            if let Some(dir) = &cli.checkpoint_dir {
                builder = builder.checkpoints(dir, cli.checkpoint_every);
            }
            let session = builder.build();
            let run = if *resume {
                session.resume(&workload)?
            } else {
                session.run(&workload)?
            };
            let report = &run.report;
            if cli.json {
                write!(out, "{}", report.to_json())?;
            } else {
                writeln!(
                    out,
                    "serve: {} jobs, {} tenants on site {} ({} slots, {} policy, quantum {} slices)",
                    report.jobs.len(),
                    tenants,
                    site,
                    slots,
                    report.policy,
                    report.quantum_slices
                )?;
                writeln!(
                    out,
                    "{:<24} {:>6} {:>4} {:>7} {:>7} {:>7} {:>5} {:>10} {:>12}",
                    "job",
                    "tenant",
                    "pri",
                    "arrive",
                    "admit",
                    "finish",
                    "evict",
                    "Mbps",
                    "energy (J)"
                )?;
                for j in &report.jobs {
                    writeln!(
                        out,
                        "{:<24} {:>6} {:>4} {:>7} {:>7} {:>7} {:>5} {:>10.0} {:>12.0}",
                        j.outcome.label,
                        j.tenant,
                        j.priority,
                        j.arrival_round,
                        j.admitted_round.map_or("-".into(), |r| r.to_string()),
                        j.finished_round.map_or("-".into(), |r| r.to_string()),
                        j.preemptions,
                        j.outcome.throughput_mbps,
                        j.outcome.energy_j
                    )?;
                    if let Some(err) = &j.outcome.error {
                        writeln!(out, "  error: {err}")?;
                    }
                }
                for s in &report.sites {
                    writeln!(
                        out,
                        "site {}: {} jobs, {} bytes, {:.0} J over {} rounds",
                        s.site, s.jobs, s.moved_bytes, s.energy_j, report.rounds
                    )?;
                }
                writeln!(
                    out,
                    "completed {}/{}",
                    report.completed_count(),
                    report.jobs.len()
                )?;
            }
            if let Some(path) = report_path {
                std::fs::write(path, report.to_json())
                    .map_err(|e| EadtError::io(path.clone(), e.to_string()))?;
                writeln!(out, "[service report -> {path}]")?;
            }
            if let Some(path) = journal_path {
                std::fs::write(path, run.journal.to_jsonl())
                    .map_err(|e| EadtError::io(path.clone(), e.to_string()))?;
                writeln!(out, "[service journal -> {path}]")?;
            }
            Ok(())
        }
        Command::Sla {
            targets,
            max_channel,
        } => {
            let tb = resolve(cli)?;
            let dataset = make_dataset(cli, &tb, out)?;
            let mut ctx = RunCtx::new(&tb.env, &dataset);
            let reference = ProMc {
                partition: tb.partition,
                ..ProMc::new(tb.reference_concurrency)
            }
            .run(&mut ctx);
            writeln!(
                out,
                "reference: ProMC@{} = {:.0} Mbps, {:.0} J",
                tb.reference_concurrency,
                reference.avg_throughput().as_mbps(),
                reference.total_energy_j()
            )?;
            writeln!(
                out,
                "{:>7} {:>12} {:>13} {:>11} {:>10}",
                "target", "target Mbps", "achieved Mbps", "energy J", "saved"
            )?;
            for &pct in targets {
                let level = f64::from(pct) / 100.0;
                let slaee = Slaee {
                    partition: tb.partition,
                    fault_aware: cli.faults.fault_aware,
                    ..Slaee::new(level, reference.avg_throughput(), *max_channel)
                };
                let r = slaee.run(&mut ctx);
                writeln!(
                    out,
                    "{:>6}% {:>12.0} {:>13.0} {:>11.0} {:>9.1}%",
                    pct,
                    reference.avg_throughput().as_mbps() * level,
                    r.avg_throughput().as_mbps(),
                    r.total_energy_j(),
                    100.0 * (reference.total_energy_j() - r.total_energy_j())
                        / reference.total_energy_j()
                )?;
            }
            Ok(())
        }
        Command::Dataset => {
            let tb = resolve(cli)?;
            let dataset = make_dataset(cli, &tb, out)?;
            let chunks = partition(&dataset, tb.env.link.bdp(), &tb.partition);
            writeln!(out, "BDP: {}", tb.env.link.bdp())?;
            writeln!(
                out,
                "{:<8} {:>8} {:>12} {:>14} {:>9}",
                "class", "files", "bytes", "avg file", "weight"
            )?;
            for c in &chunks {
                writeln!(
                    out,
                    "{:<8} {:>8} {:>12} {:>14} {:>9.2}",
                    c.class.label(),
                    c.file_count(),
                    c.total_size().to_string(),
                    c.avg_file_size().to_string(),
                    c.weight()
                )?;
            }
            Ok(())
        }
        Command::Env { export } => {
            let tb = resolve(cli)?;
            let json = envfile::to_json(&tb);
            match export {
                Some(path) => {
                    std::fs::write(path, &json)
                        .map_err(|e| EadtError::io(path.clone(), e.to_string()))?;
                    writeln!(out, "wrote {path}")?;
                }
                None => writeln!(out, "{json}")?,
            }
            Ok(())
        }
        Command::NetEnergy {
            algorithm,
            max_channel,
        } => {
            let tb = resolve(cli)?;
            let dataset = make_dataset(cli, &tb, out)?;
            let r = run_algorithm(
                &tb,
                &dataset,
                *algorithm,
                *max_channel,
                0.9,
                cli.faults.fault_aware,
            );
            let packets = tb.env.packets.total_packets(r.wire_bytes);
            let d = eadt_netenergy::decompose(
                r.total_energy_j(),
                &tb.path,
                r.wire_bytes,
                &tb.env.packets,
            );
            writeln!(out, "transfer: {} over {}", algorithm.name(), tb.path.name)?;
            writeln!(
                out,
                "end-system: {:.0} J ({:.1}%)   network: {:.1} J ({:.1}%)   {} packets",
                d.end_system_joules,
                d.end_system_percent(),
                d.network_joules,
                d.network_percent(),
                packets
            )?;
            writeln!(out, "per-device (load-dependent):")?;
            for (device, joules) in eadt_netenergy::path_breakdown(&tb.path, packets) {
                writeln!(out, "  {:<28} {:>10.2} J", device.label(), joules)?;
            }
            let idle = eadt_netenergy::account::path_energy_with_idle_joules(
                &tb.path,
                packets,
                r.duration.as_secs_f64(),
            );
            writeln!(
                out,
                "with idle power the path would burn {:.0} J over the {:.0} s transfer",
                idle,
                r.duration.as_secs_f64()
            )?;
            Ok(())
        }
        Command::Trace {
            algorithm,
            max_channel,
            sla_level,
            pipelining,
            parallelism,
            out: journal_path,
            cadence_s,
        } => {
            let tb = resolve(cli)?;
            let dataset = make_dataset(cli, &tb, out)?;
            let mut tel = Telemetry::enabled(SimDuration::from_secs_f64(*cadence_s));
            tel.record(
                SimTime::ZERO,
                Event::RunStart {
                    schema: SCHEMA_VERSION,
                    algorithm: algorithm.name().to_string(),
                    environment: tb.name.clone(),
                    seed: cli.seed,
                    requested_bytes: dataset.total_size().as_u64(),
                },
            );
            let report = if *algorithm == AlgorithmKind::Manual {
                let params = TransferParams::new(*pipelining, *parallelism, *max_channel);
                manual(params, cli).run(&mut RunCtx::with_telemetry(&tb.env, &dataset, &mut tel))
            } else {
                run_algorithm_instrumented(
                    &tb,
                    &dataset,
                    *algorithm,
                    *max_channel,
                    *sla_level,
                    cli.faults.fault_aware,
                    &mut tel,
                )
            };
            let journal = tel.into_journal().expect("trace telemetry has a journal");
            std::fs::write(journal_path, journal.to_jsonl())
                .map_err(|e| EadtError::io(journal_path.clone(), e.to_string()))?;
            writeln!(out, "[journal: {} events -> {journal_path}]", journal.len())?;
            print_report(cli, out, algorithm.name(), &report)
        }
        Command::Inspect {
            journal,
            chrome: chrome_path,
            width,
        } => {
            let text = std::fs::read_to_string(journal)
                .map_err(|e| EadtError::io(journal.clone(), e.to_string()))?;
            let j = Journal::from_jsonl(&text)
                .map_err(|e| EadtError::io(journal.clone(), format!("cannot parse: {e}")))?;
            out.write_all(timeline::render_summary(&j).as_bytes())?;
            writeln!(out)?;
            out.write_all(timeline::render_timeline(&j, *width).as_bytes())?;
            writeln!(out)?;
            out.write_all(timeline::render_decisions(&j).as_bytes())?;
            if let Some(path) = chrome_path {
                std::fs::write(path, chrome::to_chrome_trace(&j))
                    .map_err(|e| EadtError::io(path.clone(), e.to_string()))?;
                writeln!(out, "[chrome trace -> {path}] (open in Perfetto)")?;
            }
            Ok(())
        }
        Command::Profile {
            algorithm,
            max_channel,
            sla_level,
            pipelining,
            parallelism,
            from,
            width,
        } => {
            // Either re-read a saved fleet report's rolled-up ledger or run
            // one transfer and profile it; both paths print the same flame.
            let (source, ledger) = match from {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| EadtError::io(path.clone(), e.to_string()))?;
                    let report: FleetReport = serde_json::from_str(&text)
                        .map_err(|e| EadtError::io(path.clone(), format!("cannot parse: {e}")))?;
                    let label = format!(
                        "fleet of {} jobs (root seed {})",
                        report.metrics.jobs_total, report.root_seed
                    );
                    (label, report.metrics.ledger)
                }
                None => {
                    let tb = resolve(cli)?;
                    let dataset = make_dataset(cli, &tb, out)?;
                    let report = if *algorithm == AlgorithmKind::Manual {
                        let params = TransferParams::new(*pipelining, *parallelism, *max_channel);
                        manual(params, cli).run(&mut RunCtx::new(&tb.env, &dataset))
                    } else {
                        run_algorithm(
                            &tb,
                            &dataset,
                            *algorithm,
                            *max_channel,
                            *sla_level,
                            cli.faults.fault_aware,
                        )
                    };
                    (algorithm.name().to_string(), report.ledger)
                }
            };
            if cli.json {
                let json = serde_json::json!({
                    "source": source,
                    "total_j": ledger.total_j(),
                    "ledger": ledger,
                });
                writeln!(
                    out,
                    "{}",
                    serde_json::to_string_pretty(&json).expect("serializable")
                )?;
            } else {
                writeln!(out, "profile: {source}")?;
                writeln!(
                    out,
                    "total energy: {:.1} J (src {:.1} + dst {:.1})",
                    ledger.total_j(),
                    ledger.src.total_j(),
                    ledger.dst.total_j()
                )?;
                out.write_all(ledger.render_flame(*width).as_bytes())?;
            }
            Ok(())
        }
        Command::Calibrate => {
            let intel = GroundTruth::intel_server();
            let amd = GroundTruth::amd_server();
            let outcome = build_models(&intel, 115.0, 4, cli.seed);
            writeln!(
                out,
                "fine-grained: cpu_scale={:.3} c_mem={:.3} c_disk={:.3} c_nic={:.3} (R²={:.4})",
                outcome.fine_grained.cpu_scale,
                outcome.fine_grained.c_memory,
                outcome.fine_grained.c_disk,
                outcome.fine_grained.c_nic,
                outcome.fine_r_squared
            )?;
            writeln!(
                out,
                "cpu-only weight={:.3}, CPU↔power correlation {:.2}%",
                outcome.cpu_only.cpu_weight,
                outcome.cpu_power_correlation * 100.0
            )?;
            let ext = outcome.cpu_only.extend_to(95.0);
            writeln!(
                out,
                "{:<9} {:>13} {:>10} {:>14}",
                "tool", "fine-grained", "cpu-only", "tdp-extended"
            )?;
            for tool in ToolProfile::paper_tools() {
                writeln!(
                    out,
                    "{:<9} {:>12.2}% {:>9.2}% {:>13.2}%",
                    tool.name,
                    evaluate_model(&outcome.fine_grained, &tool, &intel, 4, cli.seed),
                    evaluate_model(&outcome.cpu_only, &tool, &intel, 4, cli.seed),
                    evaluate_model(&ext, &tool, &amd, 4, cli.seed),
                )?;
            }
            Ok(())
        }
    }
}

fn resolve(cli: &Cli) -> Result<Environment, EadtError> {
    let mut tb = envfile::load(&cli.env)?;
    apply_fault_args(&cli.faults, cli.seed, &mut tb.env);
    if cli.no_macro_step {
        tb.env.tuning.macro_step = false;
    }
    Ok(tb)
}

/// Folds the CLI fault flags into the environment's fault plan. Flags
/// compose with (and override pieces of) whatever plan the environment
/// already declares; the dataset seed keeps CLI-injected faults exactly
/// reproducible.
fn apply_fault_args(args: &FaultArgs, seed: u64, env: &mut TransferEnv) {
    if !args.any() {
        return;
    }
    let mut plan = env.faults.take().unwrap_or_default();
    if let Some(mtbf) = args.mtbf_s {
        plan.channel = Some(FaultModel::new(SimDuration::from_secs_f64(mtbf), seed));
    }
    if let Some((gap, dur, server)) = args.outage {
        plan.outages.push(OutageModel::new(
            SiteSide::Dst,
            server,
            SimDuration::from_secs_f64(gap),
            SimDuration::from_secs_f64(dur),
            seed ^ 0x0074_a63e,
        ));
    }
    if let Some(budget) = args.retry_budget {
        plan.retry.retry_budget = budget.max(1);
    }
    if args.no_restart_markers {
        plan.drop_restart_markers = true;
    }
    env.faults = Some(plan);
}

fn make_dataset(cli: &Cli, tb: &Environment, out: Out) -> Result<Dataset, EadtError> {
    let dataset = match &cli.dataset_file {
        Some(path) => envfile::load_dataset(path)?,
        None => tb.dataset_spec.scaled(cli.scale).generate(cli.seed),
    };
    writeln!(
        out,
        "[{} | {} files, {} | scale {} seed {}]",
        tb.name,
        dataset.file_count(),
        dataset.total_size(),
        cli.scale,
        cli.seed
    )?;
    Ok(dataset)
}

/// Runs one algorithm by kind. SLAEE derives its reference maximum from a
/// ProMC run at the testbed's reference concurrency. `fault_aware` wraps
/// the controller of the algorithms that support it (HTEE, SLAEE, ProMC,
/// manual); the energy-agnostic baselines run as the paper describes them.
pub fn run_algorithm(
    tb: &Environment,
    dataset: &Dataset,
    kind: AlgorithmKind,
    max_channel: u32,
    sla_level: f64,
    fault_aware: bool,
) -> TransferReport {
    run_algorithm_instrumented(
        tb,
        dataset,
        kind,
        max_channel,
        sla_level,
        fault_aware,
        &mut Telemetry::disabled(),
    )
}

/// [`run_algorithm`] with telemetry: journal events and metric samples
/// land in `tel` (pass [`Telemetry::disabled`] for a plain run). SLAEE's
/// uninstrumented reference run stays out of the journal.
pub fn run_algorithm_instrumented(
    tb: &Environment,
    dataset: &Dataset,
    kind: AlgorithmKind,
    max_channel: u32,
    sla_level: f64,
    fault_aware: bool,
    tel: &mut Telemetry,
) -> TransferReport {
    let partition = tb.partition;
    let mut ctx = RunCtx::with_telemetry(&tb.env, dataset, tel);
    match kind {
        AlgorithmKind::MinE => MinE {
            partition,
            ..MinE::new(max_channel)
        }
        .run(&mut ctx),
        AlgorithmKind::Htee => Htee {
            partition,
            fault_aware,
            ..Htee::new(max_channel)
        }
        .run(&mut ctx),
        AlgorithmKind::Slaee => {
            let reference = ProMc {
                partition,
                ..ProMc::new(tb.reference_concurrency)
            }
            .run(&mut RunCtx::new(&tb.env, dataset));
            Slaee {
                partition,
                fault_aware,
                ..Slaee::new(sla_level, reference.avg_throughput(), max_channel)
            }
            .run(&mut ctx)
        }
        AlgorithmKind::Guc => GlobusUrlCopy::new().run(&mut ctx),
        AlgorithmKind::Go => GlobusOnline::new().run(&mut ctx),
        AlgorithmKind::Sc => SingleChunk {
            partition,
            ..SingleChunk::new(max_channel)
        }
        .run(&mut ctx),
        AlgorithmKind::ProMc => ProMc {
            partition,
            fault_aware,
            ..ProMc::new(max_channel)
        }
        .run(&mut ctx),
        AlgorithmKind::Bf => BruteForce {
            partition,
            ..BruteForce::new(max_channel)
        }
        .run(&mut ctx),
        // Defaults to the untuned baseline when called through this path;
        // the CLI's transfer command supplies explicit values.
        AlgorithmKind::Manual => Manual {
            params: TransferParams::new(1, 1, max_channel),
            fault_aware,
        }
        .run(&mut ctx),
    }
}

/// Runs one transfer under the crash-safe checkpoint cadence (DESIGN.md
/// §13): the job executes through the fleet session's checkpointed
/// runner, so an interrupted invocation rerun with the same flags resumes
/// from the snapshot under `dir` — and determinism makes the final report
/// byte-identical to an uninterrupted run.
#[allow(clippy::too_many_arguments)]
fn run_transfer_checkpointed(
    cli: &Cli,
    tb: &Environment,
    dataset: &Dataset,
    kind: AlgorithmKind,
    max_channel: u32,
    sla_level: f64,
    pipelining: u32,
    parallelism: u32,
    dir: &str,
    out: Out,
) -> Result<TransferReport, EadtError> {
    let mut job = JobSpec::new(kind, tb.clone())
        .with_scale(cli.scale)
        .with_dataset(dataset.clone())
        .with_max_channel(max_channel)
        .with_sla_level(sla_level)
        .with_fault_aware(cli.faults.fault_aware)
        .with_seed(cli.seed);
    if kind == AlgorithmKind::Manual {
        job = job.with_manual_params(pipelining, parallelism);
    }
    let outcome = Session::builder()
        .root_seed(cli.seed)
        .checkpoints(dir, cli.checkpoint_every)
        .build()
        .run_one(&job);
    writeln!(
        out,
        "[checkpoints every {} slices -> {dir}]",
        cli.checkpoint_every
    )?;
    match outcome.report {
        Some(r) => Ok(r),
        None => Err(EadtError::job_failed(
            job.display_label(),
            outcome
                .error
                .unwrap_or_else(|| "job failed without an error message".to_string()),
        )),
    }
}

/// The manual algorithm with explicit parameters and the CLI's
/// fault-aware flag.
fn manual(params: TransferParams, cli: &Cli) -> Manual {
    Manual {
        params,
        fault_aware: cli.faults.fault_aware,
    }
}

fn print_report(cli: &Cli, out: Out, name: &str, r: &TransferReport) -> Result<(), EadtError> {
    if cli.json {
        let faults = serde_json::json!({
            "channel_failures": r.faults.channel_failures,
            "outage_failures": r.faults.outage_failures,
            "outage_episodes": r.faults.outage_episodes,
            "retries": r.faults.retries,
            "breaker_opens": r.faults.breaker_opens,
            "budget_exhaustions": r.faults.budget_exhaustions,
            "backoff_s": r.faults.backoff_time.as_secs_f64(),
            "retransmitted_bytes": r.faults.retransmitted_bytes.as_u64(),
            "retransmitted_energy_j": r.retransmitted_energy_j(),
        });
        let json = serde_json::json!({
            "schema": eadt_transfer::REPORT_SCHEMA_VERSION,
            "algorithm": name,
            "completed": r.completed,
            "moved_bytes": r.moved_bytes.as_u64(),
            "duration_s": r.duration.as_secs_f64(),
            "throughput_mbps": r.avg_throughput().as_mbps(),
            "src_energy_j": r.src_energy_j,
            "dst_energy_j": r.dst_energy_j,
            "efficiency": r.efficiency(),
            "wire_bytes": r.wire_bytes.as_u64(),
            "packets": r.packets,
            "failures": r.failures,
            "faults": faults,
            "chunks": r.chunk_stats.iter().map(|c| serde_json::json!({
                "label": c.label,
                "bytes": c.bytes.as_u64(),
                "files": c.files,
                "completed_at_s": c.completed_at.map(|d| d.as_secs_f64()),
            })).collect::<Vec<_>>(),
        });
        writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&json).expect("serializable")
        )?;
    } else {
        writeln!(out, "algorithm:   {name}")?;
        writeln!(out, "completed:   {}", r.completed)?;
        writeln!(out, "moved:       {}", r.moved_bytes)?;
        writeln!(out, "duration:    {}", r.duration)?;
        writeln!(out, "throughput:  {}", r.avg_throughput())?;
        writeln!(
            out,
            "energy:      {:.0} J (src {:.0} + dst {:.0}), mean {:.1} W",
            r.total_energy_j(),
            r.src_energy_j,
            r.dst_energy_j,
            r.mean_power_w()
        )?;
        writeln!(out, "efficiency:  {:.4} Mbps/J", r.efficiency())?;
        writeln!(out, "wire bytes:  {} ({} packets)", r.wire_bytes, r.packets)?;
        if r.failures > 0 {
            let f = &r.faults;
            writeln!(
                out,
                "failures:    {} ({} channel, {} outage over {} windows)",
                f.total_failures(),
                f.channel_failures,
                f.outage_failures,
                f.outage_episodes
            )?;
            writeln!(
                out,
                "recovery:    {} retries, {} channel-time in backoff, {} breaker opens, {} budget exhaustions",
                f.retries, f.backoff_time, f.breaker_opens, f.budget_exhaustions
            )?;
            if !f.retransmitted_bytes.is_zero() {
                writeln!(
                    out,
                    "retransmit:  {} ({:.0} J of energy re-spent)",
                    f.retransmitted_bytes,
                    r.retransmitted_energy_j()
                )?;
            }
        }
        for c in &r.chunk_stats {
            writeln!(
                out,
                "  chunk {:<7} {:>6} files {:>12}  done at {}",
                c.label,
                c.files,
                c.bytes.to_string(),
                c.completed_at.map_or("-".into(), |d| d.to_string())
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::EnvSource;

    fn run_cli(words: &str) -> String {
        let argv: Vec<String> = words.split_whitespace().map(str::to_string).collect();
        let mut buf = Vec::new();
        crate::run(&argv, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cli("help");
        assert!(out.contains("USAGE"));
        assert!(out.contains("transfer"));
        assert!(out.contains("fleet"));
    }

    #[test]
    fn transfer_prints_report() {
        let out = run_cli("transfer --testbed didclab --algorithm promc --scale 0.01");
        assert!(out.contains("algorithm:   ProMC"), "{out}");
        assert!(out.contains("completed:   true"), "{out}");
        assert!(out.contains("chunk"), "{out}");
    }

    #[test]
    fn transfer_json_is_valid() {
        let out = run_cli("transfer --testbed didclab --algorithm guc --scale 0.01 --json");
        let start = out.find('{').expect("json in output");
        let v: serde_json::Value = serde_json::from_str(&out[start..]).unwrap();
        assert_eq!(v["algorithm"], "GUC");
        assert_eq!(v["completed"], true);
        assert!(v["throughput_mbps"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn fault_flags_inject_and_report_breakdown() {
        let out = run_cli(
            "transfer --testbed didclab --algorithm promc --scale 0.02 --mtbf 8 --retry-budget 3 --fault-aware --json",
        );
        let start = out.find('{').expect("json in output");
        let v: serde_json::Value = serde_json::from_str(&out[start..]).unwrap();
        assert_eq!(v["completed"], true);
        let f = &v["faults"];
        assert!(f["channel_failures"].as_u64().unwrap() > 0, "{out}");
        assert_eq!(
            v["failures"].as_u64().unwrap(),
            f["channel_failures"].as_u64().unwrap() + f["outage_failures"].as_u64().unwrap()
        );
        assert!(f["retries"].as_u64().unwrap() > 0);
        assert!(f["backoff_s"].as_f64().unwrap() > 0.0);
        // Restart markers stay on unless --no-restart-markers is given.
        assert_eq!(f["retransmitted_bytes"].as_u64().unwrap(), 0);

        // Text mode prints the same breakdown.
        let out = run_cli("transfer --testbed didclab --algorithm promc --scale 0.02 --mtbf 8");
        assert!(out.contains("failures:"), "{out}");
        assert!(out.contains("recovery:"), "{out}");

        // Without markers the lost progress is priced in joules.
        let out = run_cli(
            "transfer --testbed didclab --algorithm promc --scale 0.02 --mtbf 8 --no-restart-markers --json",
        );
        let start = out.find('{').expect("json in output");
        let v: serde_json::Value = serde_json::from_str(&out[start..]).unwrap();
        assert_eq!(v["completed"], true);
        assert!(
            v["faults"]["retransmitted_bytes"].as_u64().unwrap() > 0,
            "{out}"
        );
        assert!(v["faults"]["retransmitted_energy_j"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn sweep_emits_rows_for_each_cell() {
        let out = run_cli("sweep --testbed didclab --algorithms sc,mine --levels 1,2 --scale 0.01");
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("SC") || l.starts_with("MinE"))
            .collect();
        assert_eq!(rows.len(), 4, "{out}");
    }

    #[test]
    fn fleet_runs_batch_and_prints_summary() {
        let out = run_cli(
            "fleet --testbed didclab --algorithms sc,promc --levels 1,2 --scale 0.01 --workers 2",
        );
        assert!(out.contains("fleet: 4 jobs"), "{out}");
        assert!(out.contains("DIDCLAB/SC@1"), "{out}");
        assert!(out.contains("completed 4/4 (0 errors)"), "{out}");
    }

    #[test]
    fn fleet_json_is_worker_count_invariant() {
        let run_json = |workers: u32| {
            let out = run_cli(&format!(
                "fleet --testbed didclab --algorithms sc,mine --levels 1,2 --scale 0.01 \
                 --seed 9 --workers {workers} --json"
            ));
            let start = out.find('{').expect("json in output");
            out[start..].to_string()
        };
        let serial = run_json(1);
        let parallel = run_json(4);
        assert_eq!(serial, parallel, "fleet JSON must not depend on workers");
        let v: serde_json::Value = serde_json::from_str(&serial).unwrap();
        assert_eq!(v["root_seed"].as_u64().unwrap(), 9);
        assert_eq!(v["jobs"].as_array().unwrap().len(), 4);
        assert!(serial.find("workers").is_none(), "no worker count in JSON");
    }

    #[test]
    fn fleet_writes_report_file() {
        let dir = std::env::temp_dir().join("eadt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        let path_s = path.to_string_lossy().into_owned();
        let out = run_cli(&format!(
            "fleet --testbed didclab --algorithms sc --levels 1 --scale 0.01 --out {path_s}"
        ));
        assert!(out.contains("fleet report ->"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["jobs"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn checkpointed_transfer_matches_plain_run() {
        let dir = std::env::temp_dir().join(format!("eadt-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = dir.to_string_lossy().into_owned();
        let plain =
            run_cli("transfer --testbed didclab --algorithm mine --scale 0.01 --seed 4 --json");
        let checkpointed = run_cli(&format!(
            "transfer --testbed didclab --algorithm mine --scale 0.01 --seed 4 --json \
             --checkpoint-dir {ds} --checkpoint-every 8"
        ));
        let json_of = |s: &str| s[s.find('{').expect("json in output")..].to_string();
        assert_eq!(json_of(&plain), json_of(&checkpointed));
        assert!(
            checkpointed.contains("checkpoints every 8 slices"),
            "{checkpointed}"
        );
        // The finished job retired its checkpoint and left its outcome.
        assert!(dir.join("job-0.outcome.json").exists());
        assert!(!dir.join("job-0.ckpt.json").exists());

        // A rerun over the same directory re-drives the job (outcome file
        // present, but `transfer` always executes) and stays identical.
        let again = run_cli(&format!(
            "transfer --testbed didclab --algorithm mine --scale 0.01 --seed 4 --json \
             --checkpoint-dir {ds} --checkpoint-every 8"
        ));
        assert_eq!(json_of(&plain), json_of(&again));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_resume_reproduces_straight_run() {
        let dir = std::env::temp_dir().join(format!("eadt-cli-fleet-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = dir.to_string_lossy().into_owned();
        let straight = run_cli(
            "fleet --testbed didclab --algorithms sc,promc --levels 1,2 --scale 0.01 \
             --seed 6 --workers 2 --json",
        );
        let checkpointed = run_cli(&format!(
            "fleet --testbed didclab --algorithms sc,promc --levels 1,2 --scale 0.01 \
             --seed 6 --workers 2 --json --checkpoint-dir {ds} --checkpoint-every 8"
        ));
        // Simulate a crash that lost one finished job's outcome: the
        // resume re-runs exactly that job and re-admits the rest.
        std::fs::remove_file(dir.join("job-2.outcome.json")).unwrap();
        let resumed = run_cli(&format!(
            "fleet --testbed didclab --algorithms sc,promc --levels 1,2 --scale 0.01 \
             --seed 6 --workers 2 --json --checkpoint-dir {ds} --resume"
        ));
        let json_of = |s: &str| s[s.find('{').expect("json in output")..].to_string();
        assert_eq!(json_of(&straight), json_of(&checkpointed));
        assert_eq!(json_of(&straight), json_of(&resumed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_runs_contending_tenants_and_prints_summary() {
        let out = run_cli(
            "serve --testbed didclab --algorithms sc,promc --tenants 2 --slots 2 \
             --quantum 100 --scale 0.01 --workers 2",
        );
        assert!(out.contains("serve: 2 jobs, 2 tenants"), "{out}");
        assert!(out.contains("site DIDCLAB:"), "{out}");
        assert!(out.contains("completed 2/2"), "{out}");
    }

    #[test]
    fn serve_json_is_worker_count_invariant() {
        let run_json = |workers: u32| {
            let out = run_cli(&format!(
                "serve --testbed didclab --algorithms sc,promc --quantum 100 --scale 0.01 \
                 --seed 9 --workers {workers} --json"
            ));
            let start = out.find('{').expect("json in output");
            out[start..].to_string()
        };
        let serial = run_json(1);
        let parallel = run_json(4);
        assert_eq!(serial, parallel, "serve JSON must not depend on workers");
        let v: serde_json::Value = serde_json::from_str(&serial).unwrap();
        assert_eq!(v["root_seed"].as_u64().unwrap(), 9);
        assert_eq!(v["policy"], "fair");
        assert_eq!(v["jobs"].as_array().unwrap().len(), 2);
        assert_eq!(v["sites"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn serve_policies_produce_different_reports_and_journals() {
        let dir = std::env::temp_dir().join(format!("eadt-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_policy = |policy: &str| {
            let jp = dir.join(format!("{policy}.jsonl"));
            // The arrival gap makes the low-priority tenant-0 job land
            // first and occupy the single slot; when the tenant-1 job
            // arrives a round later, strict priority must preempt.
            let out = run_cli(&format!(
                "serve --testbed didclab --algorithms sc,promc --tenants 2 --slots 1 \
                 --quantum 100 --scale 0.05 --seed 4 --arrival-gap 40 --policy {policy} \
                 --json --journal {}",
                jp.to_string_lossy()
            ));
            let start = out.find('{').expect("json in output");
            (
                out[start..].to_string(),
                std::fs::read_to_string(&jp).unwrap(),
            )
        };
        let (fair, fair_journal) = run_policy("fair");
        let (strict, strict_journal) = run_policy("priority");
        assert_ne!(fair, strict, "policies must change the schedule");
        assert!(
            fair_journal.contains("\"ev\":\"job_submitted\""),
            "{fair_journal}"
        );
        assert!(
            fair_journal.contains("\"ev\":\"job_admitted\""),
            "{fair_journal}"
        );
        // One slot + a higher-priority tenant ⇒ strict priority preempts.
        assert!(
            strict_journal.contains("\"ev\":\"job_preempted\""),
            "{strict_journal}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sla_lists_targets() {
        let out = run_cli("sla --testbed didclab --targets 90,50 --scale 0.01");
        assert!(out.contains("90%"), "{out}");
        assert!(out.contains("50%"), "{out}");
        assert!(out.contains("reference: ProMC@1"), "{out}");
    }

    #[test]
    fn dataset_shows_partition() {
        let out = run_cli("dataset --testbed xsede --scale 0.01");
        assert!(out.contains("BDP: 50.00 MB"), "{out}");
        assert!(out.contains("Small"), "{out}");
    }

    #[test]
    fn env_export_round_trips() {
        let dir = std::env::temp_dir().join("eadt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fg.json");
        let path_s = path.to_string_lossy().into_owned();
        let out = run_cli(&format!("env --testbed futuregrid --export {path_s}"));
        assert!(out.contains("wrote"), "{out}");
        // And the exported file powers a transfer.
        let out = run_cli(&format!(
            "transfer --env-file {path_s} --algorithm sc --max-channel 2 --scale 0.01"
        ));
        assert!(out.contains("completed:   true"), "{out}");
        assert!(out.contains("FutureGrid"), "{out}");
    }

    #[test]
    fn dataset_file_overrides_synthetic_dataset() {
        let dir = std::env::temp_dir().join("eadt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.txt");
        std::fs::write(&path, "100MB\n100MB\n100MB\n").unwrap();
        let out = run_cli(&format!(
            "transfer --testbed didclab --algorithm promc --dataset-file {}",
            path.to_string_lossy()
        ));
        assert!(out.contains("3 files, 300.00 MB"), "{out}");
        assert!(out.contains("completed:   true"), "{out}");
    }

    #[test]
    fn manual_transfer_uses_given_parameters() {
        let out = run_cli(
            "transfer --testbed xsede --algorithm manual --pipelining 8 --parallelism 2 \
             --max-channel 4 --scale 0.01",
        );
        assert!(out.contains("algorithm:   manual"), "{out}");
        assert!(out.contains("completed:   true"), "{out}");
    }

    #[test]
    fn transfer_csv_writes_series() {
        let dir = std::env::temp_dir().join("eadt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.csv");
        let path_s = path.to_string_lossy().into_owned();
        let out = run_cli(&format!(
            "transfer --testbed didclab --algorithm sc --scale 0.01 --csv {path_s}"
        ));
        assert!(out.contains("series written"), "{out}");
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("time_s,throughput_mbps,power_w,concurrency"));
        assert!(csv.lines().count() > 2, "{csv}");
    }

    #[test]
    fn trace_writes_journal_and_inspect_renders_it() {
        let dir = std::env::temp_dir().join("eadt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("htee.jsonl");
        let jp = jpath.to_string_lossy().into_owned();
        // max-channel 3 keeps the search to two 5 s probe windows so the
        // commit lands well before this small transfer drains.
        let out = run_cli(&format!(
            "trace --testbed didclab --algorithm htee --scale 0.05 --max-channel 3 --out {jp}"
        ));
        assert!(out.contains("journal:"), "{out}");
        assert!(out.contains("completed:   true"), "{out}");
        let text = std::fs::read_to_string(&jpath).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"ev\":\"run_start\""), "{first}");
        assert!(first.contains("\"algorithm\":\"HTEE\""), "{first}");
        for tag in [
            "\"ev\":\"chunk_start\"",
            "\"ev\":\"channel_open\"",
            "\"ev\":\"probe_window\"",
            "\"ev\":\"commit\"",
            "\"ev\":\"sample\"",
            "\"ev\":\"run_end\"",
        ] {
            assert!(text.contains(tag), "missing {tag} in journal");
        }

        let cpath = dir.join("htee-trace.json");
        let cp = cpath.to_string_lossy().into_owned();
        let out = run_cli(&format!("inspect --journal {jp} --chrome {cp}"));
        assert!(out.contains("run: HTEE"), "{out}");
        assert!(out.contains("timeline:"), "{out}");
        assert!(out.contains("probe"), "{out}");
        assert!(out.contains("commit"), "{out}");
        let chrome_text = std::fs::read_to_string(&cpath).unwrap();
        let v: serde_json::Value = serde_json::from_str(&chrome_text).unwrap();
        assert!(!v["traceEvents"].as_array().unwrap().is_empty());
    }

    #[test]
    fn trace_same_seed_is_byte_identical() {
        let dir = std::env::temp_dir().join("eadt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("det-a.jsonl");
        let b = dir.join("det-b.jsonl");
        let cmd = |p: &std::path::Path| {
            format!(
                "trace --testbed didclab --algorithm promc --scale 0.02 --seed 11 \
                 --mtbf 8 --fault-aware --out {}",
                p.to_string_lossy()
            )
        };
        run_cli(&cmd(&a));
        run_cli(&cmd(&b));
        let ja = std::fs::read(&a).unwrap();
        let jb = std::fs::read(&b).unwrap();
        assert!(!ja.is_empty());
        assert_eq!(ja, jb, "same seed must produce byte-identical journals");
    }

    #[test]
    fn inspect_width_changes_timeline_columns() {
        let dir = std::env::temp_dir().join("eadt-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("width.jsonl");
        let jp = jpath.to_string_lossy().into_owned();
        run_cli(&format!(
            "trace --testbed didclab --algorithm sc --scale 0.01 --out {jp}"
        ));
        let narrow = run_cli(&format!("inspect --journal {jp} --width 40"));
        let wide = run_cli(&format!("inspect --journal {jp} --width 100"));
        let max_line = |s: &str| s.lines().map(str::len).max().unwrap_or(0);
        assert!(
            max_line(&wide) > max_line(&narrow),
            "wider --width must widen the render: {} vs {}",
            max_line(&wide),
            max_line(&narrow)
        );
    }

    #[test]
    fn profile_accounts_for_the_report_energy() {
        let out = run_cli("profile --testbed didclab --algorithm htee --scale 0.01 --json");
        let start = out.find('{').expect("json in output");
        let v: serde_json::Value = serde_json::from_str(&out[start..]).unwrap();
        assert_eq!(v["source"], "HTEE");
        let total = v["total_j"].as_f64().unwrap();
        assert!(total > 0.0);
        let phases = [
            "steady_j",
            "probe_j",
            "retransmit_j",
            "backoff_idle_j",
            "outage_idle_j",
            "startup_j",
        ];
        for side in ["src", "dst"] {
            for p in phases {
                assert!(
                    v["ledger"][side][p].as_f64().is_some(),
                    "missing {side}.{p}"
                );
            }
        }
        // HTEE's probe windows must book probe-phase joules.
        assert!(
            v["ledger"]["src"]["probe_j"].as_f64().unwrap() > 0.0,
            "{out}"
        );

        // Text mode draws the flame.
        let out = run_cli("profile --testbed didclab --algorithm htee --scale 0.01");
        assert!(out.contains("profile: HTEE"), "{out}");
        assert!(out.contains("energy by phase"), "{out}");
        assert!(out.contains("energy by component"), "{out}");
        assert!(out.contains("probe"), "{out}");
    }

    #[test]
    fn profile_from_fleet_report_uses_the_rollup() {
        let dir = std::env::temp_dir().join(format!("eadt-cli-prof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        let ps = path.to_string_lossy().into_owned();
        run_cli(&format!(
            "fleet --testbed didclab --algorithms sc,promc --levels 1 --scale 0.01 \
             --seed 5 --out {ps}"
        ));
        let out = run_cli(&format!("profile --from {ps}"));
        assert!(
            out.contains("profile: fleet of 2 jobs (root seed 5)"),
            "{out}"
        );
        assert!(out.contains("energy by phase"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_metrics_out_writes_deterministic_exposition() {
        let dir = std::env::temp_dir().join(format!("eadt-cli-prom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |name: &str, workers: u32| {
            let p = dir.join(name);
            let ps = p.to_string_lossy().into_owned();
            let out = run_cli(&format!(
                "fleet --testbed didclab --algorithms sc,mine --levels 1,2 --scale 0.01 \
                 --seed 7 --workers {workers} --metrics-out {ps}"
            ));
            assert!(out.contains("fleet metrics ->"), "{out}");
            std::fs::read_to_string(&p).unwrap()
        };
        let serial = run_once("a.prom", 1);
        let parallel = run_once("b.prom", 4);
        assert_eq!(serial, parallel, "exposition must not depend on workers");
        assert!(
            serial.contains("# TYPE eadt_fleet_jobs_total counter"),
            "{serial}"
        );
        assert!(serial.contains("eadt_fleet_energy_joules{side=\"src\",phase=\"steady\"}"));
        assert!(
            serial.contains("eadt_fleet_channel_throughput_mbps_bucket{le=\"+Inf\"}"),
            "{serial}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn netenergy_prints_breakdown() {
        let out = run_cli("netenergy --testbed futuregrid --algorithm promc --scale 0.02");
        assert!(out.contains("end-system:"), "{out}");
        assert!(out.contains("Metro IP Router"), "{out}");
        assert!(out.contains("with idle power"), "{out}");
    }

    #[test]
    fn calibrate_prints_tool_errors() {
        let out = run_cli("calibrate");
        assert!(out.contains("gridftp"), "{out}");
        assert!(out.contains("correlation"), "{out}");
    }

    #[test]
    fn bad_testbed_is_a_typed_error() {
        let argv: Vec<String> = "transfer --testbed mars"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let mut buf = Vec::new();
        let err = crate::run(&argv, &mut buf).unwrap_err();
        assert_eq!(err.kind(), eadt_sim::ErrorKind::InvalidArgument);
    }

    #[test]
    fn run_algorithm_covers_every_kind() {
        let tb = envfile::load(&EnvSource::Testbed("didclab".into())).unwrap();
        let dataset = tb.dataset_spec.scaled(0.005).generate(1);
        for kind in [
            AlgorithmKind::MinE,
            AlgorithmKind::Htee,
            AlgorithmKind::Slaee,
            AlgorithmKind::Guc,
            AlgorithmKind::Go,
            AlgorithmKind::Sc,
            AlgorithmKind::ProMc,
            AlgorithmKind::Bf,
        ] {
            let r = run_algorithm(&tb, &dataset, kind, 4, 0.8, false);
            assert!(r.completed, "{kind:?}");
            assert_eq!(r.moved_bytes, dataset.total_size(), "{kind:?}");
        }
    }
}
