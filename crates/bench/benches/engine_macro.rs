//! Event-horizon macro-stepping benchmark: the engine's slice loop versus
//! the macro-stepped fast path on a long steady transfer and on a
//! fault-heavy turbulent one, with the measurements (speedup and
//! slices-skipped ratio) recorded in `BENCH_engine.json` at the workspace
//! root for the bench-smoke CI job to upload.
//!
//! The two scenarios bracket the optimisation: steady state is where the
//! horizon opens up (the ≥10× target), turbulence is where it must cost
//! nothing (every slice hosts a fault/backoff/completion event, so the
//! horizon stays closed and only the horizon computation itself is paid).
//! The scenarios themselves live in `eadt_bench::kernel`, shared with the
//! `slice_kernel` bench and the `perf_gate` test.

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, Criterion};
use eadt_bench::kernel::{
    merge_into_bench_json, run_counting, steady_scenario, turbulent_scenario,
};
use eadt_transfer::{Engine, NullController, TransferEnv, TransferPlan};
use std::hint::black_box;

/// Timed passes per configuration; the minimum is recorded so scheduler
/// noise on small CI hosts cannot fake a regression.
const PASSES: usize = 5;

/// Runs one configuration `PASSES` times; returns (min wall seconds,
/// executed slice count) and asserts the report is identical every pass.
fn measure(env: &TransferEnv, plan: &TransferPlan, macro_step: bool) -> (f64, u64) {
    let mut env = env.clone();
    env.tuning.macro_step = macro_step;
    let mut best = f64::INFINITY;
    let mut slices = 0;
    for _ in 0..PASSES {
        let ((report, executed), s) = WallTime::time(|| run_counting(&env, plan));
        black_box(&report);
        assert!(report.completed, "bench transfer must finish");
        best = best.min(s);
        slices = executed;
    }
    (best, slices)
}

fn record(key: &str, env: &TransferEnv, plan: &TransferPlan) -> (f64, f64) {
    let (slow_s, slow_slices) = measure(env, plan, false);
    let (fast_s, fast_slices) = measure(env, plan, true);
    let speedup = slow_s / fast_s.max(1e-9);
    let skipped_ratio = 1.0 - fast_slices as f64 / slow_slices.max(1) as f64;
    merge_into_bench_json(
        key,
        serde_json::json!({
            "passes": PASSES,
            "sim_slices": slow_slices,
            "executed_slices_macro": fast_slices,
            "skipped_ratio": skipped_ratio,
            "slice_loop_s": slow_s,
            "macro_step_s": fast_s,
            "speedup": speedup,
        }),
    );
    println!(
        "engine {key}: {slow_slices} slices, {fast_slices} executed under macro-stepping \
         ({:.1}% skipped), {slow_s:.4}s -> {fast_s:.4}s ({speedup:.1}x)",
        skipped_ratio * 100.0
    );
    (speedup, skipped_ratio)
}

fn bench(c: &mut Criterion) {
    let (steady_env, steady_plan) = steady_scenario();
    let (turb_env, turb_plan) = turbulent_scenario();

    let mut g = c.benchmark_group("engine_macro");
    g.sample_size(10);
    for (name, env, plan) in [
        ("steady_slice_loop", &steady_env, &steady_plan),
        ("turbulent_slice_loop", &turb_env, &turb_plan),
    ] {
        let mut env = env.clone();
        env.tuning.macro_step = false;
        g.bench_function(name, |b| {
            b.iter(|| black_box(Engine::new(&env).run(plan, &mut NullController)))
        });
    }
    for (name, env, plan) in [
        ("steady_macro_step", &steady_env, &steady_plan),
        ("turbulent_macro_step", &turb_env, &turb_plan),
    ] {
        let mut env = env.clone();
        env.tuning.macro_step = true;
        g.bench_function(name, |b| {
            b.iter(|| black_box(Engine::new(&env).run(plan, &mut NullController)))
        });
    }
    g.finish();

    record("steady", &steady_env, &steady_plan);
    record("turbulent", &turb_env, &turb_plan);
}

criterion_group!(benches, bench);
criterion_main!(benches);
