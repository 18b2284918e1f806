//! The kill-point chaos suite (ISSUE 6 acceptance): for every sampled
//! interrupt point — a uniform slice grid plus the adversarial instants
//! mined from the baseline journal (mid-outage, mid-backoff, inside a
//! macro-stepped horizon, between HTEE probe and commit) — the resumed
//! run's report JSON, telemetry journal and metrics are byte-identical
//! to the uninterrupted run, across 3 algorithms × 2 testbeds × 2 fault
//! regimes.

use eadt_ckpt::{
    adversarial_kill_points, assert_kill_equivalence, every_nth, Baseline, ChaosDriver, CrashWrite,
};
use eadt_core::prelude::*;
use eadt_dataset::Dataset;
use eadt_sim::{Rate, SimDuration};
use eadt_telemetry::Telemetry;
use eadt_testbeds::Environment;
use eadt_transfer::{
    EngineCheckpoint, FaultModel, FaultPlan, OutageModel, RunControl, RunOutcome, SiteSide,
    StallModel, TransferEnv,
};

const CADENCE: SimDuration = SimDuration::from_millis(500);
const SEED: u64 = 11;

/// The two fault regimes of the acceptance matrix.
#[derive(Clone, Copy, PartialEq)]
enum Regime {
    Clean,
    Faulty,
}

impl Regime {
    fn apply(self, env: &mut TransferEnv) {
        match self {
            Regime::Clean => env.faults = None,
            Regime::Faulty => {
                // Channel failures tight enough to trigger retries and
                // backoffs, plus outage and stall episodes so the
                // adversarial miner finds mid-episode boundaries.
                env.faults = Some(
                    FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(8), 7))
                        .with_outage(OutageModel::new(
                            SiteSide::Src,
                            0,
                            SimDuration::from_secs(6),
                            SimDuration::from_secs(2),
                            13,
                        ))
                        .with_stall(StallModel::new(
                            SimDuration::from_secs(7),
                            SimDuration::from_secs(1),
                            6.0,
                            17,
                        )),
                );
            }
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Regime::Clean => "clean",
            Regime::Faulty => "faulty",
        }
    }
}

fn testbeds() -> Vec<Environment> {
    vec![eadt_testbeds::didclab(), eadt_testbeds::xsede()]
}

fn case_env(tb: &Environment, regime: Regime) -> (TransferEnv, Dataset) {
    let mut env = tb.env.clone();
    regime.apply(&mut env);
    let dataset = tb.dataset_spec.scaled(0.01).generate(SEED);
    (env, dataset)
}

fn algorithms(tb: &Environment, regime: Regime) -> Vec<(&'static str, Box<dyn Algorithm>)> {
    let fault_aware = regime == Regime::Faulty;
    vec![
        (
            "mine",
            Box::new(MinE {
                partition: tb.partition,
                ..MinE::new(8)
            }),
        ),
        (
            "htee",
            Box::new(Htee {
                partition: tb.partition,
                fault_aware,
                ..Htee::new(8)
            }),
        ),
        (
            "slaee",
            Box::new(Slaee {
                partition: tb.partition,
                fault_aware,
                ..Slaee::new(0.8, Rate::from_mbps(600.0), 8)
            }),
        ),
    ]
}

fn driver<'a>(
    algo: &'a dyn Algorithm,
    env: &'a TransferEnv,
    dataset: &'a Dataset,
) -> ChaosDriver<impl Fn(&mut Telemetry, RunControl) -> RunOutcome + 'a> {
    ChaosDriver::new(
        move |tel: &mut Telemetry, ctl: RunControl| {
            let mut ctx = RunCtx::with_telemetry(env, dataset, tel);
            algo.run_controlled(&mut ctx, ctl)
        },
        CADENCE,
    )
}

/// Uniform kill grid for every cell of the acceptance matrix, with the
/// clean crash-write shape.
#[test]
fn uniform_kill_grid_is_recoverable_across_the_matrix() {
    for tb in &testbeds() {
        for regime in [Regime::Clean, Regime::Faulty] {
            let (env, dataset) = case_env(tb, regime);
            for (name, algo) in algorithms(tb, regime) {
                let context = format!("{name}/{}/{}", tb.name, regime.tag());
                let d = driver(algo.as_ref(), &env, &dataset);
                let baseline = d.baseline(env.tuning.slice);
                assert!(baseline.slices > 4, "{context}: run too short to kill");
                let step = (baseline.slices / 4).max(1);
                let mut killed = 0u32;
                for kill in every_nth(baseline.slices, step) {
                    if assert_kill_equivalence(&d, &baseline, kill, CrashWrite::Clean, &context) {
                        killed += 1;
                    }
                }
                assert!(killed >= 3, "{context}: only {killed} kill points landed");
            }
        }
    }
}

/// Adversarial kill points (mined from the journal) with crashed-appender
/// tail shapes: events written past the checkpoint and a torn final line.
#[test]
fn adversarial_kill_points_recover_with_torn_tails() {
    for tb in &testbeds() {
        let regime = Regime::Faulty;
        let (env, dataset) = case_env(tb, regime);
        for (name, algo) in algorithms(tb, regime) {
            let context = format!("{name}/{}/adversarial", tb.name);
            let d = driver(algo.as_ref(), &env, &dataset);
            let baseline = d.baseline(env.tuning.slice);
            let points = adversarial_kill_points(&baseline.journal, env.tuning.slice);
            assert!(
                !points.mid_episode.is_empty(),
                "{context}: fault regime produced no episode windows to kill inside"
            );
            assert!(
                !points.intra_horizon.is_empty(),
                "{context}: no inter-event gap wide enough for an intra-horizon kill"
            );
            if name == "htee" {
                assert!(
                    !points.probe_commit_gap.is_empty(),
                    "{context}: HTEE journal shows no probe→commit gap"
                );
            }
            let mut landed = 0u32;
            for (i, kill) in points.all().into_iter().enumerate() {
                // Alternate crash shapes so both torn variants run.
                let crash = if i % 2 == 0 {
                    CrashWrite::TailThenTorn
                } else {
                    CrashWrite::TornTail
                };
                if assert_kill_equivalence(&d, &baseline, kill, crash, &context) {
                    landed += 1;
                }
            }
            assert!(landed > 0, "{context}: no adversarial kill landed");
        }
    }
}

/// Mid-backoff kills: the faulty regime's retry policy schedules
/// multi-slice backoffs; killing inside one must preserve the pending
/// reconnect across the checkpoint.
#[test]
fn mid_backoff_kills_preserve_pending_reconnects() {
    let tb = eadt_testbeds::xsede();
    let (env, dataset) = case_env(&tb, Regime::Faulty);
    let algo = MinE {
        partition: tb.partition,
        ..MinE::new(8)
    };
    let d = driver(&algo, &env, &dataset);
    let baseline = d.baseline(env.tuning.slice);
    let points = adversarial_kill_points(&baseline.journal, env.tuning.slice);
    assert!(
        !points.mid_backoff.is_empty(),
        "faulty xsede/mine run scheduled no multi-slice backoffs"
    );
    for kill in points.mid_backoff {
        assert_kill_equivalence(&d, &baseline, kill, CrashWrite::Clean, "mine/xsede/backoff");
    }
}

/// A second seed's journal must not be resumable against the first
/// seed's checkpoint: the tail cross-check refuses to stitch.
#[test]
fn cross_run_journal_is_rejected() {
    let tb = eadt_testbeds::didclab();
    let (env, dataset) = case_env(&tb, Regime::Faulty);
    let algo = MinE {
        partition: tb.partition,
        ..MinE::new(8)
    };
    let d = driver(&algo, &env, &dataset);
    let baseline = d.baseline(env.tuning.slice);
    let kill = baseline.slices / 2;
    let (ck, prefix) = d.checkpoint_at(kill).expect("run long enough");

    // Forge a tail: take the real next line and corrupt its payload.
    let suffix_line = baseline.journal[prefix.len()..]
        .lines()
        .next()
        .expect("events follow the checkpoint");
    let forged = format!(
        "{prefix}{}\n",
        suffix_line.replace("\"t_us\":", "\"t_us\":9")
    );
    let err = eadt_ckpt::resume_verified(ck, &forged, |tel, ctl| {
        let mut ctx = RunCtx::with_telemetry(&env, &dataset, tel);
        algo.run_controlled(&mut ctx, ctl)
    })
    .expect_err("forged tail must be rejected");
    assert!(
        matches!(err, eadt_ckpt::CkptError::TailDiverged { .. }),
        "{err}"
    );
}

/// A checkpoint whose metrics registry cannot sample — a zero cadence, or
/// a histogram whose counts do not fit its bounds — is corrupt: recovery
/// refuses it instead of replaying into a hang or a panic.
#[test]
fn unsound_checkpoint_metrics_are_corrupt() {
    let tb = eadt_testbeds::didclab();
    let (env, dataset) = case_env(&tb, Regime::Clean);
    let algo = MinE {
        partition: tb.partition,
        ..MinE::new(8)
    };
    let d = driver(&algo, &env, &dataset);
    let baseline = d.baseline(env.tuning.slice);
    let (ck, prefix) = d
        .checkpoint_at(baseline.slices / 2)
        .expect("run long enough");
    // Every histogram one count too long, or the sampler's cadence zero.
    let text = serde_json::to_string(&ck).unwrap();
    let cadence = format!(
        "\"metrics\":{{\"cadence\":{{\"micros\":{}}}",
        CADENCE.as_micros()
    );
    assert!(text.contains(&cadence) && text.contains("\"counts\":["));
    for bad in [
        text.replace(&cadence, "\"metrics\":{\"cadence\":{\"micros\":0}"),
        text.replace("\"counts\":[", "\"counts\":[0,"),
    ] {
        let ck: EngineCheckpoint = serde_json::from_str(&bad).unwrap();
        let err = eadt_ckpt::resume_verified(ck, &prefix, |tel, ctl| {
            let mut ctx = RunCtx::with_telemetry(&env, &dataset, tel);
            algo.run_controlled(&mut ctx, ctl)
        })
        .expect_err("an unsound registry must be refused");
        assert!(matches!(err, eadt_ckpt::CkptError::Corrupt { .. }), "{err}");
    }
}

/// The recovered journal from a torn-tail crash reports the repair.
#[test]
fn torn_tail_repair_is_reported() {
    let tb = eadt_testbeds::didclab();
    let (env, dataset) = case_env(&tb, Regime::Clean);
    let algo = MinE {
        partition: tb.partition,
        ..MinE::new(8)
    };
    let d = driver(&algo, &env, &dataset);
    let baseline = d.baseline(env.tuning.slice);
    let resumed = d
        .kill_and_recover(&baseline, baseline.slices / 3, CrashWrite::TornTail)
        .expect("run long enough")
        .expect("recovery succeeds");
    assert!(!resumed.repair.is_clean(), "torn line must be reported");
    assert_eq!(resumed.journal, baseline.journal);
    assert_eq!(
        eadt_ckpt::report_to_json(&resumed.report),
        baseline.report_json
    );
}

/// Baseline sanity: the faulty regimes actually exercise faults (the
/// matrix would otherwise silently degenerate to clean runs).
#[test]
fn faulty_regime_fires_faults_on_both_testbeds() {
    for tb in &testbeds() {
        let (env, dataset) = case_env(tb, Regime::Faulty);
        let algo = MinE {
            partition: tb.partition,
            ..MinE::new(8)
        };
        let d = driver(&algo, &env, &dataset);
        let b: Baseline = d.baseline(env.tuning.slice);
        let report: serde_json::Value = serde_json::from_str(&b.report_json).unwrap();
        let failures = report
            .as_object()
            .and_then(|o| o.get("failures"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        assert!(failures > 0, "{}: no failures injected", tb.name);
    }
}
