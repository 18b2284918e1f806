//! Macro-stepping equivalence: the event-horizon fast path must not change
//! a single byte of output.
//!
//! Every algorithm runs twice on every testbed — once with event-horizon
//! macro-stepping (the default) and once with `macro_step = false` (the
//! CLI's `--no-macro-step`) — and the *serialized* `TransferReport`, the
//! telemetry journal JSONL and the serialized metrics registry (counters,
//! gauges, histograms) are compared for byte identity. The same
//! matrix repeats under fault plans (MTBF channel failures, correlated
//! outages + stalls + disk degradation, markers-off restarts) and
//! background cross traffic, because those are exactly the state sources
//! the horizon computation must respect.
//!
//! Controller coverage (checked by the `eadt-lint` `horizon` rule): every
//! production `Controller` that overrides `next_decision_in` is exercised
//! here — `NullController` (Manual, and inside every planner-driven run),
//! `FaultAware` (fault-aware Manual/HTEE/SLAEE/ProMC), `HteeController`
//! (HTEE), `SlaeeController` (SLAEE), and the bench measurement probes
//! `SliceCounter` and `AllocWindow` (never-wake observers).

use eadt::core::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, ProMc, SingleChunk};
use eadt::core::{Algorithm, AlgorithmKind, Htee, MinE, RunCtx, Slaee};
use eadt::sim::{Bytes, Fnv1a, SimDuration};
use eadt::telemetry::{Telemetry, DEFAULT_CADENCE};
use eadt::testbeds::{didclab, futuregrid, xsede, Environment};
use eadt::transfer::{
    BackgroundTraffic, DiskDegradationModel, EngineCheckpoint, FaultModel, FaultPlan, OutageModel,
    RunControl, RunOutcome, SiteSide, StallModel,
};

const SEED: u64 = 11;
const SCALE: f64 = 0.01;

/// Runs one algorithm with journal + metrics telemetry under `ctl` and
/// returns what it produced with the telemetry it fed.
fn run_cell(
    tb: &Environment,
    kind: AlgorithmKind,
    fault_aware: bool,
    ctl: RunControl,
) -> (RunOutcome, Telemetry) {
    let dataset = tb.dataset_spec.scaled(SCALE).generate(SEED);
    let partition = tb.partition;
    let mut tel = Telemetry::enabled(DEFAULT_CADENCE);
    let outcome = {
        let mut ctx = RunCtx::with_telemetry(&tb.env, &dataset, &mut tel);
        match kind {
            AlgorithmKind::MinE => MinE {
                partition,
                ..MinE::new(6)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Htee => Htee {
                partition,
                fault_aware,
                ..Htee::new(6)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Slaee => {
                let reference = ProMc {
                    partition,
                    ..ProMc::new(tb.reference_concurrency)
                }
                .run(&mut RunCtx::new(&tb.env, &dataset));
                Slaee {
                    partition,
                    fault_aware,
                    ..Slaee::new(0.8, reference.avg_throughput(), 6)
                }
                .run_controlled(&mut ctx, ctl)
            }
            AlgorithmKind::Guc => GlobusUrlCopy::new().run_controlled(&mut ctx, ctl),
            AlgorithmKind::Go => GlobusOnline::new().run_controlled(&mut ctx, ctl),
            AlgorithmKind::Sc => SingleChunk {
                partition,
                ..SingleChunk::new(6)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::ProMc => ProMc {
                partition,
                fault_aware,
                ..ProMc::new(6)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Bf => BruteForce {
                partition,
                ..BruteForce::new(6)
            }
            .run_controlled(&mut ctx, ctl),
            AlgorithmKind::Manual => {
                let plan = eadt::transfer::uniform_plan(
                    &dataset,
                    eadt::transfer::TransferParams::new(4, 4, 4),
                    eadt::endsys::Placement::PackFirst,
                );
                let engine = eadt::transfer::Engine::new(&tb.env);
                if fault_aware {
                    engine.run_controlled(
                        &plan,
                        &mut eadt::transfer::FaultAware::new(eadt::transfer::NullController),
                        &mut tel,
                        ctl,
                    )
                } else {
                    engine.run_controlled(&plan, &mut eadt::transfer::NullController, &mut tel, ctl)
                }
            }
        }
    };
    (outcome, tel)
}

/// Runs one algorithm to completion and returns the serialized report,
/// journal and metrics snapshot — the three artifacts that must be
/// bit-identical with and without macro-stepping — and the run's slice
/// count.
fn run_once(
    tb: &Environment,
    kind: AlgorithmKind,
    fault_aware: bool,
) -> (String, String, String, u64) {
    let (outcome, tel) = run_cell(tb, kind, fault_aware, RunControl::default());
    let report = outcome.into_report().expect("no halt boundary configured");
    let json = serde_json::to_string(&report).expect("report serializes");
    let metrics = serde_json::to_string(tel.metrics_ref().expect("metrics attached"))
        .expect("metrics registry serializes");
    let journal = tel.into_journal().expect("journal attached").to_jsonl();
    let slices = report.throughput_series.len() as u64;
    (json, journal, metrics, slices)
}

/// Asserts byte identity of report, journal and metrics across the
/// macro-step toggle for one (testbed, fault-plan) cell, over every
/// algorithm.
fn assert_matrix(mut tb: Environment, label: &str, fault_aware: bool) {
    for kind in AlgorithmKind::ALL {
        tb.env.tuning.macro_step = true;
        let (fast_report, fast_journal, fast_metrics, _) = run_once(&tb, kind, fault_aware);
        tb.env.tuning.macro_step = false;
        let (slow_report, slow_journal, slow_metrics, _) = run_once(&tb, kind, fault_aware);
        assert_eq!(
            fast_report, slow_report,
            "{label}/{kind}: macro-stepped report differs from slice-by-slice"
        );
        assert_eq!(
            fast_journal, slow_journal,
            "{label}/{kind}: macro-stepped journal differs from slice-by-slice"
        );
        assert_eq!(
            fast_metrics, slow_metrics,
            "{label}/{kind}: macro-stepped metrics registry differs from slice-by-slice"
        );
    }
}

fn testbeds() -> [(Environment, &'static str); 3] {
    [
        (xsede(), "xsede"),
        (futuregrid(), "futuregrid"),
        (didclab(), "didclab"),
    ]
}

/// The four fault regimes of the matrix, applied to one testbed. Returns
/// `(label suffix, configured testbed, fault_aware)` cells.
fn regimes(tb: Environment, name: &str) -> [(String, Environment, bool); 4] {
    let plain = tb.clone();
    let mut mtbf = tb.clone();
    mtbf.env.faults = Some(FaultPlan::channel_only(FaultModel::new(
        SimDuration::from_secs(30),
        7,
    )));
    let mut correlated = tb.clone();
    correlated.env.faults = Some(
        FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(45), 11))
            .with_outage(OutageModel::new(
                SiteSide::Src,
                0,
                SimDuration::from_secs(20),
                SimDuration::from_secs(3),
                13,
            ))
            .with_stall(StallModel::new(
                SimDuration::from_secs(15),
                SimDuration::from_secs(2),
                4.0,
                17,
            ))
            .with_disk(DiskDegradationModel::new(
                SiteSide::Dst,
                0,
                SimDuration::from_secs(25),
                SimDuration::from_secs(4),
                0.4,
                19,
            )),
    );
    correlated.env.background = Some(BackgroundTraffic::square(
        SimDuration::from_secs(10),
        SimDuration::from_secs(4),
        0.5,
    ));
    let mut markers_off = tb;
    let mut plan = FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(12), 23));
    plan.drop_restart_markers = true;
    markers_off.env.faults = Some(plan);
    [
        (name.to_string(), plain, false),
        (format!("{name}+mtbf"), mtbf, true),
        (format!("{name}+correlated"), correlated, true),
        (format!("{name}+markers-off"), markers_off, false),
    ]
}

#[test]
fn every_algorithm_is_bit_identical_without_faults() {
    for (tb, name) in testbeds() {
        let [(label, tb, aware), _, _, _] = regimes(tb, name);
        assert_matrix(tb, &label, aware);
    }
}

#[test]
fn every_algorithm_is_bit_identical_under_mtbf_faults() {
    for (tb, name) in testbeds() {
        let [_, (label, tb, aware), _, _] = regimes(tb, name);
        assert_matrix(tb, &label, aware);
    }
}

#[test]
fn every_algorithm_is_bit_identical_under_correlated_faults() {
    for (tb, name) in testbeds() {
        let [_, _, (label, tb, aware), _] = regimes(tb, name);
        assert_matrix(tb, &label, aware);
    }
}

#[test]
fn every_algorithm_is_bit_identical_with_markers_off() {
    for (tb, name) in testbeds() {
        let [_, _, _, (label, tb, aware)] = regimes(tb, name);
        assert_matrix(tb, &label, aware);
    }
}

// ---- SoA-vs-seed byte identity (DESIGN.md §17) ----
//
// The data-layout refactor (flat struct-of-arrays channel state in the
// engine's scratch arena) must not change one output byte. Digests of
// every matrix cell's (report, journal) pair — and of a service run that
// preempts and resumes through the checkpoint path — were captured from
// the pre-SoA engine and committed under `tests/golden/`; the refactored
// engine must reproduce them exactly. The checkpoint of each cell's run
// halted halfway and the last commit of a checkpointed service run are
// pinned the same way, so a change to the JSON writer cannot move a byte
// of what a resume reads back.
//
// Regenerate (only when an intentional output change lands) with:
//   EADT_REGEN_GOLDEN=1 cargo test --release --test macro_equivalence golden

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/engine_digests.txt"
);

/// FNV-1a over the artifact bytes: a stable fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

/// A strict-priority service run on one slot whose low-priority incumbent
/// is preempted mid-transfer and resumed from its engine checkpoint — the
/// halt/resume path the arena must leave byte-identical.
fn serve_preempt_resume_digest() -> String {
    let run = serve_preempt_resume_session(None);
    assert!(
        run.report.jobs.iter().any(|j| j.preemptions > 0),
        "golden service scenario must actually preempt"
    );
    format!(
        "serve/preempt-resume report={:016x} journal={:016x}\n",
        fnv1a(run.report.to_json().as_bytes()),
        fnv1a(run.journal.to_jsonl().as_bytes())
    )
}

/// Runs the golden service scenario, committing every `n` rounds into
/// the directory when `checkpoints` names one.
fn serve_preempt_resume_session(
    checkpoints: Option<(&std::path::Path, u64)>,
) -> eadt::fleet::ServiceRun {
    use eadt::core::AlgorithmKind;
    use eadt::endsys::{ArbitrationPolicy, PoolCapacity};
    use eadt::fleet::{JobSpec, ServiceJob, ServiceSession, Workload};
    let tb = didclab();
    let pool = PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, 1);
    let spec = |kind: AlgorithmKind, scale: f64| {
        JobSpec::new(kind, didclab())
            .with_scale(scale)
            .with_max_channel(2)
    };
    let workload = Workload::new()
        .site("didclab", pool)
        .arrival_gap_s(20.0)
        .job(
            ServiceJob::new(spec(AlgorithmKind::Sc, 0.05), "didclab")
                .with_tenant(0)
                .with_priority(1),
        )
        .job(
            ServiceJob::new(spec(AlgorithmKind::ProMc, 0.01), "didclab")
                .with_tenant(1)
                .with_priority(9),
        );
    let mut builder = ServiceSession::builder()
        .root_seed(5)
        .workers(1)
        .policy(ArbitrationPolicy::StrictPriority)
        .quantum(100);
    if let Some((dir, every)) = checkpoints {
        builder = builder.checkpoints(dir, every);
    }
    builder.build().run(&workload).expect("workload is valid")
}

/// The golden service scenario checkpointed every `COMMIT_EVERY` rounds:
/// the last commit it leaves, `service.ckpt.json`, embeds the engine state
/// of a job still running.
fn serve_commit_digest() -> String {
    use eadt_ckpt::{CheckpointStore, ServiceCheckpoint};
    const COMMIT_EVERY: u64 = 3;
    let dir = std::env::temp_dir().join(format!("eadt-golden-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    serve_preempt_resume_session(Some((&dir, COMMIT_EVERY)));
    let commit = std::fs::read_to_string(dir.join(CheckpointStore::service_checkpoint_name()))
        .expect("the checkpointed run commits");
    std::fs::remove_dir_all(&dir).expect("scratch checkpoint directory is removable");
    let mut ck = ServiceCheckpoint::from_json(&commit).expect("the commit parses");
    assert_eq!(ck.to_json(), commit, "the commit round-trips byte for byte");
    assert!(
        !ck.engines.is_empty(),
        "the last commit must list a live engine"
    );
    for job in &mut ck.engines {
        without_audit(&mut job.engine);
    }
    format!(
        "serve/preempt-resume commit={:016x}\n",
        fnv1a(ck.to_json().as_bytes())
    )
}

/// Zeroes the `debug-invariants` auditor's accumulators, which book only
/// in builds with that feature, so that one digest holds for both builds.
fn without_audit(ck: &mut EngineCheckpoint) -> &EngineCheckpoint {
    ck.audit_gross = Bytes::ZERO;
    ck.audit_stage_requested = Bytes::ZERO;
    ck
}

#[test]
fn golden_digests_match_the_seed_engine() {
    let mut lines = String::new();
    for (tb, name) in testbeds() {
        for (label, mut tb, aware) in regimes(tb, name) {
            tb.env.tuning.macro_step = true;
            for kind in AlgorithmKind::ALL {
                let (report, journal, _, slices) = run_once(&tb, kind, aware);
                lines.push_str(&format!(
                    "{label}/{kind} report={:016x} journal={:016x}\n",
                    fnv1a(report.as_bytes()),
                    fnv1a(journal.as_bytes())
                ));
                // The same run halted halfway, with its journal and
                // metrics on: the checkpoint carries the controller's
                // state, the metrics, the open spans and, under a fault
                // plan, the fault runtime.
                let (outcome, _) = run_cell(&tb, kind, aware, RunControl::halt_at(slices / 2));
                let RunOutcome::Halted(mut ck) = outcome else {
                    panic!("{label}/{kind}: the run must halt at slice {}", slices / 2);
                };
                lines.push_str(&format!(
                    "{label}/{kind} checkpoint={:016x}\n",
                    fnv1a(without_audit(&mut ck).to_json().as_bytes())
                ));
            }
        }
    }
    lines.push_str(&serve_preempt_resume_digest());
    lines.push_str(&serve_commit_digest());
    if std::env::var_os("EADT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("golden dir");
        std::fs::write(GOLDEN_PATH, &lines).expect("golden file is writable");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH).expect(
        "tests/golden/engine_digests.txt is committed; regenerate with EADT_REGEN_GOLDEN=1",
    );
    for (got, want) in lines.lines().zip(committed.lines()) {
        assert_eq!(
            got, want,
            "engine output diverged from the committed seed digest"
        );
    }
    assert_eq!(
        lines.lines().count(),
        committed.lines().count(),
        "digest line count changed — regenerate the golden file"
    );
}

/// The bench measurement probes — `SliceCounter` (the executed-slice
/// odometer) and `AllocWindow` (the counting-allocator sampler) — promise
/// `u64::MAX` from `next_decision_in`, i.e. they never request a wake-up.
/// The horizon may therefore skip freely around them, and neither probe
/// may change a byte of the report relative to the other or to the
/// slice-by-slice run.
#[test]
fn bench_probe_controllers_preserve_equivalence() {
    use eadt::transfer::Engine;
    use eadt_bench::kernel::{turbulent_scenario, AllocWindow, SliceCounter};

    let (env, plan) = turbulent_scenario();
    let mut fast_env = env.clone();
    fast_env.tuning.macro_step = true;
    let mut slow_env = env;
    slow_env.tuning.macro_step = false;

    let mut slow_ctr = SliceCounter::default();
    let slow = Engine::new(&slow_env).run(&plan, &mut slow_ctr);
    let mut fast_ctr = SliceCounter::default();
    let fast = Engine::new(&fast_env).run(&plan, &mut fast_ctr);
    let slow_json = serde_json::to_string(&slow).expect("report serializes");
    assert_eq!(
        slow_json,
        serde_json::to_string(&fast).expect("report serializes"),
        "SliceCounter must not perturb macro-stepping"
    );
    assert!(
        fast_ctr.slices < slow_ctr.slices,
        "the horizon must actually skip slices ({} vs {})",
        fast_ctr.slices,
        slow_ctr.slices
    );

    // A window over executed-slice ordinals 2..3 closes under both
    // execution modes (even the macro-stepped run executes a ramp-in).
    fn inert() -> u64 {
        0
    }
    let mut slow_probe = AllocWindow::new(inert, 2, 3);
    let slow_probed = Engine::new(&slow_env).run(&plan, &mut slow_probe);
    let mut fast_probe = AllocWindow::new(inert, 2, 3);
    let fast_probed = Engine::new(&fast_env).run(&plan, &mut fast_probe);
    let slow_probed_json = serde_json::to_string(&slow_probed).expect("report serializes");
    assert_eq!(
        slow_probed_json,
        serde_json::to_string(&fast_probed).expect("report serializes"),
        "AllocWindow must not perturb macro-stepping"
    );
    assert_eq!(slow_json, slow_probed_json, "probes are inert observers");
}
