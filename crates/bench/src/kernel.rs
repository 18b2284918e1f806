//! Slice-kernel measurement support shared by the `engine_macro` and
//! `slice_kernel` benches and the `perf_gate` regression test.
//!
//! The engine's SoA refactor (DESIGN.md §17) promises **zero heap
//! allocations per executed steady-state slice** once the scratch arena
//! is warm. This module holds everything needed to *prove* that claim
//! instead of asserting it in prose: the two bracket scenarios (steady
//! and turbulent), slice-counting and allocation-window controllers, the
//! delta-method measurement, and the `BENCH_engine.json` plumbing the
//! CI perf gate reads its committed thresholds from.
//!
//! Timing itself stays out of this module: `clippy.toml` bans
//! `Instant::now` workspace-wide (the determinism policy, DESIGN.md §10),
//! so wall-clock reads route through `criterion::measurement::WallTime`
//! in the bench/test targets.

use eadt_dataset::Dataset;
use eadt_endsys::Placement;
use eadt_sim::{Bytes, SimDuration};
use eadt_testbeds::xsede;
use eadt_transfer::{
    uniform_plan, BackgroundTraffic, ControlAction, Controller, DiskDegradationModel, Engine,
    FaultModel, FaultPlan, OutageModel, SiteSide, SliceCtx, StallModel, TransferEnv,
    TransferParams, TransferPlan,
};

/// `NullController` with an odometer: counts how many slices the engine
/// actually executed (macro-stepped replays never reach the controller),
/// so `1 - executed_fast / executed_slow` is the slices-skipped ratio.
#[derive(Default)]
pub struct SliceCounter {
    /// Executed-slice count after the run.
    pub slices: u64,
}

impl Controller for SliceCounter {
    fn on_slice(&mut self, _ctx: &SliceCtx) -> ControlAction {
        self.slices += 1;
        ControlAction::Continue
    }

    fn next_decision_in(&self, _ctx: &SliceCtx, _slice: SimDuration) -> u64 {
        u64::MAX
    }
}

/// Snapshots an external allocation counter at two executed-slice
/// ordinals, so `(end - start) / (hi - lo)` is the per-slice allocation
/// rate over a mid-run window — after the arena has warmed up, before
/// the completion tail builds the report.
///
/// The counter is a plain `fn` pointer (typically reading the target's
/// counting `#[global_allocator]`) and `on_slice` itself allocates
/// nothing, so the probe never perturbs what it measures.
pub struct AllocWindow {
    counter: fn() -> u64,
    lo: u64,
    hi: u64,
    slices: u64,
    start_count: u64,
    end_count: u64,
}

impl AllocWindow {
    /// A probe sampling the counter at executed slices `lo` and `hi`.
    pub fn new(counter: fn() -> u64, lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "window must be non-empty");
        AllocWindow {
            counter,
            lo,
            hi,
            slices: 0,
            start_count: 0,
            end_count: 0,
        }
    }

    /// Allocations per executed slice across the window.
    pub fn allocs_per_slice(&self) -> f64 {
        assert!(
            self.slices >= self.hi,
            "run ended before the window closed ({} < {})",
            self.slices,
            self.hi
        );
        (self.end_count - self.start_count) as f64 / (self.hi - self.lo) as f64
    }
}

impl Controller for AllocWindow {
    fn on_slice(&mut self, _ctx: &SliceCtx) -> ControlAction {
        self.slices += 1;
        if self.slices == self.lo {
            self.start_count = (self.counter)();
        } else if self.slices == self.hi {
            self.end_count = (self.counter)();
        }
        ControlAction::Continue
    }

    fn next_decision_in(&self, _ctx: &SliceCtx, _slice: SimDuration) -> u64 {
        u64::MAX
    }
}

/// Long steady transfer: a handful of very large files, no faults — after
/// the ramp-in every slice is a steady mover slice.
pub fn steady_scenario() -> (TransferEnv, TransferPlan) {
    let env = xsede().env;
    let dataset = Dataset::from_sizes("steady", [Bytes::from_gb(60); 16]);
    let plan = uniform_plan(&dataset, TransferParams::new(4, 4, 4), Placement::PackFirst);
    (env, plan)
}

/// Fault-heavy turbulent transfer: short MTBF kills, an outage window, a
/// stall regime, disk degradation and square-wave cross traffic keep the
/// horizon pinned near zero.
pub fn turbulent_scenario() -> (TransferEnv, TransferPlan) {
    let mut env = xsede().env;
    env.faults = Some(
        FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(5), 7))
            .with_outage(OutageModel::new(
                SiteSide::Src,
                0,
                SimDuration::from_secs(15),
                SimDuration::from_secs(3),
                13,
            ))
            .with_stall(StallModel::new(
                SimDuration::from_secs(10),
                SimDuration::from_secs(2),
                4.0,
                17,
            ))
            .with_disk(DiskDegradationModel::new(
                SiteSide::Dst,
                0,
                SimDuration::from_secs(20),
                SimDuration::from_secs(4),
                0.4,
                19,
            )),
    );
    env.background = Some(BackgroundTraffic::square(
        SimDuration::from_secs(7),
        SimDuration::from_secs(3),
        0.5,
    ));
    let dataset = Dataset::from_sizes("turbulent", [Bytes::from_gb(2); 4]);
    let plan = uniform_plan(&dataset, TransferParams::new(4, 4, 4), Placement::PackFirst);
    (env, plan)
}

/// The scenario with macro-stepping forced off, so every slice executes
/// through the kernel (the configuration the kernel numbers describe).
pub fn kernel_env(env: &TransferEnv) -> TransferEnv {
    let mut env = env.clone();
    env.tuning.macro_step = false;
    env
}

/// Counts the executed slices of one kernel (macro-step off) run.
pub fn count_executed_slices(env: &TransferEnv, plan: &TransferPlan) -> u64 {
    let env = kernel_env(env);
    let mut ctrl = SliceCounter::default();
    let report = Engine::new(&env).run(plan, &mut ctrl);
    assert!(report.completed, "kernel scenario must finish");
    ctrl.slices
}

/// Delta-method allocation rate: runs the kernel once and samples
/// `counter` at slices N/2 and 3N/4, returning allocations per executed
/// slice across that window. The first half of the run absorbs arena
/// growth; the final quarter keeps the completion tail (report assembly)
/// out of the window.
pub fn measure_allocs_per_slice(
    env: &TransferEnv,
    plan: &TransferPlan,
    counter: fn() -> u64,
) -> f64 {
    let slices = count_executed_slices(env, plan);
    assert!(slices >= 8, "scenario too short for a measurement window");
    let env = kernel_env(env);
    let mut probe = AllocWindow::new(counter, slices / 2, slices / 2 + slices / 4);
    let report = Engine::new(&env).run(plan, &mut probe);
    assert!(report.completed);
    probe.allocs_per_slice()
}

/// Workspace-root path of `BENCH_engine.json`.
pub(crate) fn bench_json_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json")
}

/// Merges one top-level key into `BENCH_engine.json`, preserving every
/// other key — in particular the committed `kernel_gate` thresholds,
/// which regeneration must never overwrite.
pub fn merge_into_bench_json(key: &str, value: serde_json::Value) {
    let path = bench_json_path();
    let mut root: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({}));
    if let Some(map) = root.as_object_mut() {
        map.insert("schema".to_string(), serde_json::json!(2));
        map.insert(key.to_string(), value);
    }
    let mut text = serde_json::to_string_pretty(&root).expect("serializable");
    text.push('\n');
    std::fs::write(path, text).expect("workspace root is writable");
}

/// The committed perf-gate thresholds (the `kernel_gate` key of
/// `BENCH_engine.json`). The allocation bounds are machine-independent;
/// the nanosecond ceiling is sized ~8× above a developer-laptop
/// observation so a slow 1-core CI host cannot trip it, while a
/// reintroduced per-slice allocation or an accidentally quadratic kernel
/// still does.
#[derive(Debug, Clone, Copy)]
pub struct KernelGate {
    /// Ceiling on kernel wall time per executed steady slice.
    pub max_kernel_ns_per_slice: f64,
    /// Ceiling on steady-state allocations per executed slice (the
    /// zero-allocation claim, with float-division headroom).
    pub max_steady_allocs_per_slice: f64,
    /// Ceiling on turbulent allocations per executed slice (fault
    /// machinery may allocate, but only a bounded constant).
    pub max_turbulent_allocs_per_slice: f64,
}

impl KernelGate {
    /// Loads the committed thresholds, falling back to the defaults the
    /// repo ships when the key is absent (e.g. a freshly regenerated
    /// file on a branch).
    pub fn load() -> Self {
        let fallback = KernelGate {
            max_kernel_ns_per_slice: 40_000.0,
            max_steady_allocs_per_slice: 0.01,
            max_turbulent_allocs_per_slice: 16.0,
        };
        let Some(root) = std::fs::read_to_string(bench_json_path())
            .ok()
            .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        else {
            return fallback;
        };
        let gate = &root["kernel_gate"];
        let num = |key: &str, fb: f64| gate[key].as_f64().unwrap_or(fb);
        KernelGate {
            max_kernel_ns_per_slice: num(
                "max_kernel_ns_per_slice",
                fallback.max_kernel_ns_per_slice,
            ),
            max_steady_allocs_per_slice: num(
                "max_steady_allocs_per_slice",
                fallback.max_steady_allocs_per_slice,
            ),
            max_turbulent_allocs_per_slice: num(
                "max_turbulent_allocs_per_slice",
                fallback.max_turbulent_allocs_per_slice,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_complete_and_count_slices() {
        let (env, plan) = turbulent_scenario();
        let n = count_executed_slices(&env, &plan);
        assert!(n >= 8, "turbulent run too short: {n}");
    }

    #[test]
    fn alloc_window_divides_by_window_width() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        fn counter() -> u64 {
            // Test-only monotone counter: 3 per call.
            TICK.fetch_add(3, Ordering::Relaxed) + 3
        }
        let mut w = AllocWindow::new(counter, 2, 6);
        let ctx_free = |w: &mut AllocWindow| {
            // Drive on_slice without an engine: the probe only reads
            // its own odometer.
            for _ in 0..8 {
                w.slices += 1;
                if w.slices == w.lo {
                    w.start_count = (w.counter)();
                } else if w.slices == w.hi {
                    w.end_count = (w.counter)();
                }
            }
        };
        ctx_free(&mut w);
        assert!((w.allocs_per_slice() - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn gate_load_survives_missing_file() {
        let g = KernelGate::load();
        assert!(g.max_steady_allocs_per_slice > 0.0);
        assert!(g.max_kernel_ns_per_slice > 0.0);
    }
}
