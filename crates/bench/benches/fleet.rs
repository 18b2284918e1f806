//! Fleet benchmark: the figures matrix as a batch and a contended
//! service workload, each run serially and on all host cores, with the
//! measurements merged into `BENCH_fleet.json` at the workspace root.
//!
//! The vendored Criterion subset prints rough ns/iter numbers; the JSON
//! artifact is the machine-readable record CI uploads. Each recorded time
//! is the median of [`PASSES`] timed passes after one warm-up pass, the
//! serial and parallel passes alternating. Both paths also assert that
//! the reports (and the service journal) are byte-identical however many
//! workers ran them.

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, Criterion};
use eadt_core::AlgorithmKind;
use eadt_endsys::{ArbitrationPolicy, PoolCapacity};
use eadt_fleet::{figures_matrix, JobSpec, ServiceJob, ServiceSession, Session, Workload};

/// Dataset scale for the benched matrix: large enough to exercise every
/// algorithm, small enough for a smoke run on one core.
const SCALE: f64 = 0.01;

/// Timed passes per side; the recorded time is their median.
const PASSES: usize = 7;

/// Jobs of the service entry.
const SERVICE_JOBS: usize = 12;

/// The service entry's workload: the `serve-contended` shape of
/// `perfbench/` (one 3-slot XSEDE pool, SC/MinE/ProMC/HTEE round-robin
/// over three tenants whose index is their priority, a 20 s mean arrival
/// gap), with [`SERVICE_JOBS`] jobs.
fn service_workload() -> Workload {
    let kinds = [
        AlgorithmKind::Sc,
        AlgorithmKind::MinE,
        AlgorithmKind::ProMc,
        AlgorithmKind::Htee,
    ];
    let tb = eadt_testbeds::xsede();
    let site = tb.name.clone();
    let capacity = PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, 3);
    let mut workload = Workload::new()
        .site(site.clone(), capacity)
        .arrival_gap_s(20.0);
    for i in 0..SERVICE_JOBS {
        let tenant = (i % 3) as u32;
        let spec = JobSpec::new(kinds[i % kinds.len()], tb.clone());
        workload = workload.job(
            ServiceJob::new(spec, site.clone())
                .with_tenant(tenant)
                .with_priority(tenant),
        );
    }
    workload
}

/// Runs each side once to warm up, then [`PASSES`] timed passes of each,
/// alternating so that a burst of load on a shared host falls on both
/// sides. Returns each side's last output and median wall time, seconds.
fn paired_medians<O>(
    mut serial: impl FnMut() -> O,
    mut parallel: impl FnMut() -> O,
) -> ((O, f64), (O, f64)) {
    let (mut a, mut b) = (serial(), parallel());
    let (mut a_s, mut b_s) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let (pass, s) = WallTime::time(&mut serial);
        a = pass;
        a_s.push(s);
        let (pass, s) = WallTime::time(&mut parallel);
        b = pass;
        b_s.push(s);
    }
    ((a, median(a_s)), (b, median(b_s)))
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Adds both timings to `entry` and records it under `key`. On a single
/// core the two sides race the same CPU, so their ratio is marked skipped
/// instead of published as a speedup.
fn record(key: &str, mut entry: serde_json::Value, serial_s: f64, parallel_s: f64, workers: usize) {
    let map = entry.as_object_mut().expect("entry is an object");
    map.insert("serial_s".to_string(), serde_json::json!(serial_s));
    map.insert("parallel_s".to_string(), serde_json::json!(parallel_s));
    map.insert("workers".to_string(), serde_json::json!(workers));
    map.insert("host_parallelism".to_string(), serde_json::json!(workers));
    map.insert("passes".to_string(), serde_json::json!(PASSES));
    if workers == 1 {
        map.insert("skipped".to_string(), serde_json::json!(true));
        map.insert(
            "skip_reason".to_string(),
            serde_json::json!("single-core host: wall-clock ratio is not a parallel speedup"),
        );
    } else {
        map.insert(
            "speedup".to_string(),
            serde_json::json!(serial_s / parallel_s.max(1e-9)),
        );
    }
    merge_into_bench_json(key, entry);
}

fn merge_into_bench_json(key: &str, value: serde_json::Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let mut root: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({ "schema": 1 }));
    if let Some(map) = root.as_object_mut() {
        map.insert(key.to_string(), value);
    }
    let mut text = serde_json::to_string_pretty(&root).expect("serializable");
    text.push('\n');
    std::fs::write(path, text).expect("workspace root is writable");
}

fn bench(c: &mut Criterion) {
    let jobs = figures_matrix(SCALE);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);

    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    g.bench_function("figures_matrix_serial", |b| {
        b.iter(|| {
            Session::builder()
                .root_seed(42)
                .workers(1)
                .build()
                .run(&jobs)
        })
    });
    g.bench_function("figures_matrix_all_cores", |b| {
        b.iter(|| Session::builder().root_seed(42).build().run(&jobs))
    });
    g.finish();

    // The machine-readable record: the median pass each way, plus the
    // byte-identity check that makes the parallel numbers trustworthy.
    let serial = Session::builder().root_seed(42).workers(1).build();
    let parallel = Session::builder().root_seed(42).build();
    let ((serial_report, serial_s), (parallel_report, parallel_s)) =
        paired_medians(|| serial.run(&jobs), || parallel.run(&jobs));
    assert_eq!(
        serial_report.to_json(),
        parallel_report.to_json(),
        "aggregate report must not depend on worker count"
    );
    let entry = serde_json::json!({
        "jobs": jobs.len(),
        "scale": SCALE,
        "root_seed": 42,
        "completed": serial_report.completed_count(),
    });
    record("figures_matrix", entry, serial_s, parallel_s, workers);
    println!(
        "fleet figures_matrix: {} jobs, serial {serial_s:.3}s, {workers}-worker {parallel_s:.3}s",
        jobs.len()
    );

    // The service: every round advances its residents on the run's pool.
    let workload = service_workload();
    let service = |workers: usize| {
        ServiceSession::builder()
            .root_seed(42)
            .workers(workers)
            .policy(ArbitrationPolicy::StrictPriority)
            .quantum(100)
            .build()
    };
    let (serial, parallel) = (service(1), service(workers));
    let run = |session: &ServiceSession| session.run(&workload).expect("workload is valid");
    let ((serial_run, serial_s), (parallel_run, parallel_s)) =
        paired_medians(|| run(&serial), || run(&parallel));
    assert_eq!(
        serial_run.report.to_json(),
        parallel_run.report.to_json(),
        "service report must not depend on worker count"
    );
    assert_eq!(
        serial_run.journal.to_jsonl(),
        parallel_run.journal.to_jsonl(),
        "service journal must not depend on worker count"
    );
    let entry = serde_json::json!({
        "jobs": SERVICE_JOBS,
        "slots": 3,
        "policy": ArbitrationPolicy::StrictPriority.name(),
        "quantum": 100,
        "root_seed": 42,
        "completed": serial_run.report.completed_count(),
        "rounds": serial_run.report.rounds,
    });
    record("service", entry, serial_s, parallel_s, workers);
    println!(
        "fleet service: {SERVICE_JOBS} jobs, serial {serial_s:.3}s, {workers}-worker {parallel_s:.3}s"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
