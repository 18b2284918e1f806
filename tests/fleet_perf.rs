//! Fleet scaling check (ignored by default): the full figures matrix must
//! run at least 3× faster on 8 workers than on 1, and the measurement is
//! recorded in `BENCH_fleet.json` next to the Criterion numbers. Each
//! side's time is the median of [`PASSES`] timed passes after one
//! warm-up pass, the two sides' passes alternating.
//!
//! Run with: `cargo test --release --test fleet_perf -- --ignored`
//! The speedup assertion only fires on hosts with ≥4 cores — a 1-core CI
//! runner still executes both passes and records its numbers, it just
//! cannot meaningfully parallelise.

use criterion::measurement::WallTime;
use eadt::fleet::{figures_matrix, Session};

/// Timed passes per side; the recorded time is their median.
const PASSES: usize = 7;

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

fn merge_into_bench_json(key: &str, value: serde_json::Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fleet.json");
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

#[test]
#[ignore = "perf measurement: run explicitly with --ignored on a multi-core host"]
fn figures_matrix_scales_on_eight_workers() {
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = figures_matrix(0.02);

    let serial = Session::builder().root_seed(42).workers(1).build();
    let eight = Session::builder().root_seed(42).workers(8).build();
    let ((serial_report, serial_s), (eight_report, eight_s)) =
        paired_medians(|| serial.run(&jobs), || eight.run(&jobs));
    assert_eq!(
        serial_report.to_json(),
        eight_report.to_json(),
        "8-worker aggregate diverged from serial"
    );

    // A 1-core host still proves serial/parallel result equality above, but
    // its wall-clock ratio is scheduling noise, not a speedup — record the
    // measurement as skipped instead of publishing a meaningless number.
    let mut entry = serde_json::json!({
        "jobs": jobs.len(),
        "scale": 0.02,
        "root_seed": 42,
        "host_parallelism": host_parallelism,
        "serial_s": serial_s,
        "eight_worker_s": eight_s,
        "passes": PASSES,
    });
    let speedup = serial_s / eight_s.max(1e-9);
    let map = entry.as_object_mut().expect("entry is an object");
    if host_parallelism == 1 {
        map.insert("skipped".to_string(), serde_json::json!(true));
        map.insert(
            "skip_reason".to_string(),
            serde_json::json!("single-core host: wall-clock ratio is not a parallel speedup"),
        );
        println!(
            "figures matrix: {} jobs, serial {serial_s:.3}s, 8-worker {eight_s:.3}s (speedup skipped: 1 core)",
            jobs.len()
        );
    } else {
        map.insert("speedup".to_string(), serde_json::json!(speedup));
        println!(
            "figures matrix: {} jobs, serial {serial_s:.3}s, 8-worker {eight_s:.3}s ({speedup:.2}x, {host_parallelism} cores)",
            jobs.len()
        );
    }
    merge_into_bench_json("perf_test", entry);

    if host_parallelism >= 4 {
        assert!(
            speedup >= 3.0,
            "expected ≥3x on {host_parallelism} cores, measured {speedup:.2}x"
        );
    }
}
