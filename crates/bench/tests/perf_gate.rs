//! The CI perf gate: kernel throughput and allocation counts versus the
//! thresholds committed under the `kernel_gate` key of
//! `BENCH_engine.json` (DESIGN.md §17).
//!
//! Two properties are enforced, each with an observed-vs-allowed failure
//! message so a regression is diagnosable from the CI log alone:
//!
//! * **zero-allocation kernel** — a counting `#[global_allocator]`
//!   proves the steady-state slice loop performs no heap allocation once
//!   the arena is warm (delta method: the counter is sampled at slices
//!   N/2 and 3N/4 of a macro-step-off run), and that turbulent slices —
//!   where fault machinery legitimately allocates — stay under a small
//!   committed constant;
//! * **kernel throughput** — wall time per executed steady slice stays
//!   under a committed ceiling sized for slow 1-core CI hosts (~8×
//!   headroom over a developer-laptop observation), so only a real
//!   regression (a reintroduced per-slice allocation, an accidentally
//!   quadratic scan) trips it, not scheduler noise. The ceiling holds
//!   for optimized builds only (CI's `perf-gate` job runs `--release`);
//!   a debug build measures and prints, but does not assert.
//!
//! The allocation counter is process-global and libtest runs tests on
//! parallel threads, so every test here holds [`MEASURE`] for its whole
//! body: no measurement window ever overlaps another test's work.

use criterion::measurement::WallTime;
use eadt_bench::kernel::{
    count_executed_slices, kernel_env, measure_allocs_per_slice, steady_scenario,
    turbulent_scenario, KernelGate,
};
use eadt_transfer::{Engine, NullController};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counting allocator: `System` plus an allocation odometer. Duplicated
/// in `benches/slice_kernel.rs` — a `#[global_allocator]` must live in
/// the binary target it measures, and the library forbids unsafe code.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Serializes the measurements: held for the whole of each test.
static MEASURE: Mutex<()> = Mutex::new(());

/// Takes the measurement lock; a test that failed while holding it
/// leaves nothing to repair, so poisoning is ignored.
fn measure_alone() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The zero-allocation claim of DESIGN.md §17, measured not asserted:
/// once the scratch arena is warm, an executed steady-state slice
/// performs no heap allocation at all. The threshold is a committed
/// fraction (default 0.01) only to keep the float division honest — the
/// expected observation is exactly 0.
#[test]
fn steady_slice_kernel_allocates_nothing() {
    let _alone = measure_alone();
    let gate = KernelGate::load();
    let (env, plan) = steady_scenario();
    let observed = measure_allocs_per_slice(&env, &plan, alloc_count);
    assert!(
        observed <= gate.max_steady_allocs_per_slice,
        "perf-gate: steady allocs/slice regression: observed {observed:.4} > allowed {:.4} \
         (the slice kernel must not touch the heap; see DESIGN.md §17)",
        gate.max_steady_allocs_per_slice
    );
}

/// Turbulent slices may allocate (retry queues, fault episodes, breaker
/// transitions), but only a bounded constant per slice — never something
/// proportional to dataset size or elapsed time.
#[test]
fn turbulent_slices_allocate_a_bounded_constant() {
    let _alone = measure_alone();
    let gate = KernelGate::load();
    let (env, plan) = turbulent_scenario();
    let observed = measure_allocs_per_slice(&env, &plan, alloc_count);
    assert!(
        observed <= gate.max_turbulent_allocs_per_slice,
        "perf-gate: turbulent allocs/slice regression: observed {observed:.2} > allowed {:.2}",
        gate.max_turbulent_allocs_per_slice
    );
}

/// Kernel wall time per executed steady slice versus the committed
/// ceiling. Minimum over several passes, so scheduler noise on a busy CI
/// host must hit every pass to fake a regression. The ceiling is sized
/// for optimized builds; an unoptimized build only reports.
#[test]
fn kernel_throughput_within_committed_threshold() {
    const PASSES: usize = 5;
    let _alone = measure_alone();
    let gate = KernelGate::load();
    let (env, plan) = steady_scenario();
    let slices = count_executed_slices(&env, &plan);
    let env = kernel_env(&env);
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let (report, s) = WallTime::time(|| Engine::new(&env).run(&plan, &mut NullController));
        assert!(report.completed);
        best = best.min(s);
    }
    let observed = best * 1e9 / slices as f64;
    if cfg!(debug_assertions) {
        eprintln!(
            "perf-gate: kernel ns/slice ceiling skipped: this is a debug build, and the \
             {:.0} ns ceiling is sized for optimized code (observed {observed:.0} ns; \
             the release perf-gate job enforces it)",
            gate.max_kernel_ns_per_slice
        );
        return;
    }
    assert!(
        observed <= gate.max_kernel_ns_per_slice,
        "perf-gate: kernel ns/slice regression: observed {observed:.0} ns > allowed {:.0} ns \
         (min of {PASSES} passes over {slices} slices)",
        gate.max_kernel_ns_per_slice
    );
}
