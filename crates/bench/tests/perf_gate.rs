//! The CI perf gate: kernel throughput and allocation counts versus the
//! thresholds committed under the `kernel_gate` key of
//! `BENCH_engine.json` (DESIGN.md §17).
//!
//! Three properties are enforced, each with an observed-vs-allowed failure
//! message so a regression is diagnosable from the CI log alone:
//!
//! * **zero-allocation kernel** — a counting `#[global_allocator]`
//!   proves the steady-state slice loop performs no heap allocation once
//!   the arena is warm (delta method: the counter is sampled at slices
//!   N/2 and 3N/4 of a macro-step-off run), and that turbulent slices —
//!   where fault machinery legitimately allocates — stay under a small
//!   committed constant;
//! * **bounded checkpoint encoding** — encoding an engine checkpoint
//!   makes at most a committed constant of allocations, for a run halted
//!   early and for one halted 30× later whose checkpoint is 30× larger;
//! * **bounded retained memory** — a finished batch or service report
//!   keeps at most a committed constant of live heap bytes per job,
//!   however long its jobs ran in simulated time;
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
    count_executed_slices, kernel_env, measure_allocs_per_slice, small_file_scenario,
    steady_scenario, turbulent_scenario, KernelGate,
};
use eadt_core::AlgorithmKind;
use eadt_endsys::{ArbitrationPolicy, PoolCapacity};
use eadt_fleet::{figures_matrix, JobSpec, ServiceJob, ServiceSession, Session, Workload};
use eadt_telemetry::Telemetry;
use eadt_transfer::{Engine, NullController, RunControl, RunOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counting allocator: `System` plus an allocation odometer and a count
/// of live heap bytes. The odometer is duplicated in
/// `benches/slice_kernel.rs` — a `#[global_allocator]` must live in the
/// binary target it measures, and the library forbids unsafe code.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Live heap bytes: alloc adds the size, dealloc subtracts it, realloc
/// adds the difference (a wrapping add, so a shrink subtracts).
static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let grown = (new_size as u64).wrapping_sub(layout.size() as u64);
        LIVE.fetch_add(grown, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
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

/// A pure run whose working set flips at every file boundary recalls
/// remembered solves and refills their buffers, and allocates nothing
/// for it once the arena is warm (DESIGN.md §17).
#[test]
fn flipping_slices_allocate_nothing() {
    let _alone = measure_alone();
    let gate = KernelGate::load();
    let (env, plan) = small_file_scenario();
    let observed = measure_allocs_per_slice(&env, &plan, alloc_count);
    assert!(
        observed <= gate.max_steady_allocs_per_slice,
        "perf-gate: small-file allocs/slice regression: observed {observed:.4} > allowed {:.4} \
         (recalling or refilling a remembered working set must not touch the heap)",
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

/// `EngineCheckpoint::to_json` writes JSON text straight into its output
/// string, so its allocations stay under a committed constant however
/// many per-slice samples the checkpoint carries: the steady scenario
/// halted at slice 200 and at slice 6,000 must both stay under it.
#[test]
fn checkpoint_encode_allocations_are_bounded() {
    let _alone = measure_alone();
    let gate = KernelGate::load();
    let (env, plan) = steady_scenario();
    for halt in [200, 6_000] {
        let outcome = Engine::new(&env).run_controlled(
            &plan,
            &mut NullController,
            &mut Telemetry::disabled(),
            RunControl::halt_at(halt),
        );
        let RunOutcome::Halted(ck) = outcome else {
            panic!("the steady scenario must halt at slice {halt}");
        };
        let before = alloc_count();
        let text = std::hint::black_box(ck.to_json());
        let observed = alloc_count() - before;
        eprintln!(
            "perf-gate: checkpoint at slice {halt}: {} bytes, {observed} allocations",
            text.len()
        );
        assert!(
            observed as f64 <= gate.max_checkpoint_encode_allocs,
            "perf-gate: checkpoint encode allocations at slice {halt}: observed {observed} > \
             allowed {:.0}",
            gate.max_checkpoint_encode_allocs
        );
    }
}

/// The heap bytes `run`'s result holds per job: live bytes while it is
/// held, less live bytes before the call.
fn retained_per_job<R>(jobs: usize, run: impl FnOnce() -> R) -> f64 {
    let before = live_bytes();
    let held = std::hint::black_box(run());
    let retained = live_bytes().wrapping_sub(before) as i64;
    drop(held);
    retained as f64 / jobs as f64
}

/// A finished batch or service keeps each job's summary, not the
/// per-slice series its engine run recorded (48 bytes per simulated
/// slice), so the bytes its report retains per job stay under a committed
/// constant: for the didclab jobs of the figures matrix at scales 0.05
/// and 0.2 (21,458 and 59,016 simulated slices), and for a small contended
/// service workload (without its journal, which grows with rounds, not
/// jobs). Runs on 1 worker, so no helper thread allocates alongside.
#[test]
fn finished_jobs_retain_a_bounded_summary() {
    let _alone = measure_alone();
    let gate = KernelGate::load();
    let batch = |scale: f64| -> Vec<JobSpec> {
        let didclab = eadt_testbeds::didclab().name;
        let jobs = figures_matrix(scale).into_iter();
        jobs.filter(|job| job.env.name == didclab).collect()
    };
    let session = Session::builder().root_seed(42).workers(1).build();
    let mut observed = Vec::new();
    for scale in [0.05, 0.2] {
        let jobs = batch(scale);
        let per_job = retained_per_job(jobs.len(), || session.run(&jobs));
        observed.push((
            format!("batch of {} jobs at scale {scale}", jobs.len()),
            per_job,
        ));
    }
    let workload = service_workload();
    let service = ServiceSession::builder()
        .root_seed(42)
        .workers(1)
        .policy(ArbitrationPolicy::StrictPriority)
        .quantum(100)
        .build();
    let per_job = retained_per_job(workload.jobs().len(), || {
        service.run(&workload).map(|run| run.report)
    });
    observed.push((
        format!("service of {} jobs", workload.jobs().len()),
        per_job,
    ));
    for (what, per_job) in &observed {
        eprintln!("perf-gate: {what}: {per_job:.0} bytes retained per job");
    }
    for (what, per_job) in observed {
        assert!(
            per_job <= gate.max_retained_bytes_per_job,
            "perf-gate: {what} retains {per_job:.0} bytes per job > allowed {:.0} \
             (a finished job must keep its summary, not its per-slice series)",
            gate.max_retained_bytes_per_job
        );
    }
}

/// Six didclab jobs of three tenants, whose index is their priority, on
/// one 2-slot pool.
fn service_workload() -> Workload {
    let kinds = [AlgorithmKind::Sc, AlgorithmKind::MinE, AlgorithmKind::ProMc];
    let tb = eadt_testbeds::didclab();
    let site = tb.name.clone();
    let capacity = PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, 2);
    let mut workload = Workload::new()
        .site(site.clone(), capacity)
        .arrival_gap_s(5.0);
    for i in 0..6 {
        let tenant = (i % 3) as u32;
        let spec = JobSpec::new(kinds[i % kinds.len()], tb.clone()).with_scale(0.05);
        workload = workload.job(
            ServiceJob::new(spec, site.clone())
                .with_tenant(tenant)
                .with_priority(tenant),
        );
    }
    workload
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
