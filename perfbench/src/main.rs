//! The repository's benchmark: four workloads driven through the public
//! entry points of `eadt fleet` and `eadt serve`, end to end, and a
//! separate traced run that replays every workload layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures-batch --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end metrics of the named
//! workload; with `--trace 1` they are the per-layer metrics of every
//! workload (the traced run replays all four), named `<workload>.<layer>.<metric>`.

mod check;
mod probe;
mod replay;
mod stats;
mod trace;
mod workloads;

use check::Verdict;
use probe::measure;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use trace::Tracer;
use workloads::{prepare_body, run_body, Inputs, Kind, Output, WORKERS};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// The fewest timed executions of the body in one run.
const MIN_REPS: usize = 5;
/// Largest share by which a workload's traced layer sum may differ from
/// its untraced 1-worker wall time before the ledger check flags it.
const LEDGER_TOLERANCE: f64 = 0.15;
/// Traced replays per workload in a traced run.
const TRACE_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                kind = Some(Kind::parse(&name).ok_or(format!(
                    "unknown workload {name:?} (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The run's result: the last line of standard output.
struct RunResult {
    attempted: u64,
    verdict: Verdict,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.verdict.failed == 0,
            self.attempted,
            self.verdict.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they cannot arise from the
            // measurements below, but would be reported as 0 rather than
            // as an unparsable line.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // A directory of its own under the working directory (the checkout
    // root), removed before exit.
    let scratch = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let result = if args.trace {
        traced(&args, &scratch)
    } else {
        end_to_end(&args, &scratch)
    };
    let cleanup = workloads::remove_dir(&scratch);
    // The shared parent goes too once no run is using it.
    let _ = std::fs::remove_dir(".bench_tmp");
    match result.and_then(|r| cleanup.map(|()| r)) {
        Ok(result) => {
            for note in &result.verdict.notes {
                println!("check failed: {note}");
            }
            println!("{}", result.to_json());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Set-up `SETUP_REPS` times (checking that the staged crash repeats byte
/// for byte), a 1-worker reference execution, then the timed 2-worker
/// body for `--seconds`, each execution checked against the reference.
fn end_to_end(args: &Args, scratch: &Path) -> Result<RunResult, String> {
    let kind = args.kind;
    let mut verdict = Verdict::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut first = None;
    for _ in 0..SETUP_REPS {
        let m = measure(|| Inputs::generate(kind, args.seed, scratch));
        let (inputs, staged) = m.out?;
        setup_s.push(m.wall_s);
        match &first {
            None => first = Some((inputs, staged)),
            Some((_, want)) => {
                if staged != *want {
                    verdict.fail("staging the same seed gave different checkpoint files".into());
                }
            }
        }
    }
    let (inputs, staged) = first.ok_or("no set-up ran")?;
    let dir = scratch.join("ckpt");
    println!(
        "{} seed {}: {} jobs on {WORKERS} workers{}",
        kind.name(),
        args.seed,
        inputs.job_count(),
        if staged.is_empty() {
            String::new()
        } else {
            format!(", resuming from {} staged checkpoints", staged.len())
        }
    );

    // The reference execution, on 1 worker: it warms caches, gives the
    // output every 2-worker execution must equal, and is the only body
    // run before peak memory is read, so that reading repeats run to run
    // (a single thread allocates in the same order every time).
    prepare_body(&inputs, &dir)?;
    let reference = run_body(&inputs, 1, &dir)?;
    let peak_rss_mb = probe::peak_rss_mb();
    verdict.committed(kind, args.seed, &reference.text);
    verdict.jobs(&reference, &inputs.requested);
    if kind == Kind::Checkpointed {
        let straight = workloads::straight_run(&inputs);
        verdict.same("resumed == straight run", &reference.text, &straight);
    }

    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    while wall.len() < MIN_REPS || spent < args.seconds {
        let (prepared, prep_s) = probe::timed(|| prepare_body(&inputs, &dir));
        prepared?;
        spent += prep_s;
        let m = measure(|| run_body(&inputs, WORKERS, &dir));
        let out = m.out?;
        verdict.same("2 workers == 1 worker", &out.text, &reference.text);
        verdict.jobs(&out, &inputs.requested);
        wall.push(m.wall_s);
        cpu.push(m.cpu_s);
        spent += m.wall_s;
    }

    // The reference execution's jobs count too: its outcomes are checked.
    let attempted = (inputs.job_count() * (wall.len() + 1)) as u64;
    let metrics = vec![
        metric("wall_s", stats::median(&wall), "s"),
        metric("cpu_s", stats::median(&cpu), "s"),
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    for (name, values) in [("wall_s", &wall), ("cpu_s", &cpu), ("setup_s", &setup_s)] {
        let [q1, q2, q3] = stats::quartiles(values);
        println!(
            "  {name:<12} {q2:>9.4} s   median of {} (quartiles {q1:.4} .. {q3:.4}, spread {:.1}%)",
            values.len(),
            100.0 * stats::relative_iqr(values)
        );
    }
    println!(
        "  {:<12} {peak_rss_mb:>9.1} MB (after set-up and the 1-worker run)",
        "peak_rss_mb"
    );
    println!(
        "  {:<12} {:>9.4} ratio ({} failed of {attempted} jobs attempted)",
        "failed_frac",
        verdict.failed as f64 / attempted as f64,
        verdict.failed
    );
    println!(
        "  output digest {:#018x}{}",
        check::digest(&reference.text),
        match check::committed(kind) {
            Some(_) if args.seed == workloads::DEFAULT_SEED => " (committed digest checked)",
            _ => "",
        }
    );
    Ok(RunResult {
        attempted,
        verdict,
        metrics,
    })
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The traced run: every workload replayed serially under spans, each
/// replay followed by the untraced 1-worker (and, where the body is
/// parallel, 2-worker) body, for the ledger check, the tracing overhead
/// and the scaling ratio. Per-layer values are medians over the repeats.
fn traced(args: &Args, scratch: &Path) -> Result<RunResult, String> {
    probe::count_allocations();
    let mut verdict = Verdict::default();
    let mut metrics = Vec::new();
    let mut attempted = 0;
    for kind in Kind::ALL {
        let (inputs, _) = Inputs::generate(kind, args.seed, scratch)?;
        let dir = scratch.join("ckpt");
        let mut reps = Vec::with_capacity(TRACE_REPS);
        for rep in 0..TRACE_REPS {
            let mut t = Tracer::new();
            prepare_body(&inputs, &dir)?;
            let replayed = replay::replay(&mut t, &inputs, &dir)?;
            if matches!(kind, Kind::Figures | Kind::Turbulent) {
                replay::plan_probe(&mut t, &inputs);
            }
            prepare_body(&inputs, &dir)?;
            let one = measure(|| run_body(&inputs, 1, &dir));
            let one_out = one.out?;
            verdict.same("replay == 1-worker body", &replayed.text, &one_out.text);
            verdict.committed(kind, args.seed, &one_out.text);
            verdict.jobs(&one_out, &inputs.requested);
            attempted += inputs.job_count() as u64;
            let two_s = match kind {
                Kind::Checkpointed => {
                    verdict.same(
                        "resumed == straight run",
                        &one_out.text,
                        &workloads::straight_run(&inputs),
                    );
                    None
                }
                _ => {
                    prepare_body(&inputs, &dir)?;
                    let two = measure(|| run_body(&inputs, WORKERS, &dir));
                    verdict.same("1 worker == 2 workers", &two.out?.text, &one_out.text);
                    Some(two.wall_s)
                }
            };
            if rep == 0 {
                print_layers(kind, &t)?;
                write_trace(kind, args.seed, &t)?;
            }
            reps.push(layer_metrics(
                kind,
                &t,
                &replayed.counts,
                &one_out,
                one.wall_s,
                two_s,
            )?);
        }
        let layer = median_metrics(&reps);
        print_ledger(&layer);
        metrics.extend(layer.into_iter().map(|(name, value, unit)| Metric {
            name: format!("{}.{name}", kind.name()),
            value,
            unit,
        }));
    }
    for m in &metrics {
        println!("  {:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(RunResult {
        attempted,
        verdict,
        metrics,
    })
}

type LayerMetrics = Vec<(&'static str, f64, &'static str)>;

/// Element-wise medians of repeats that list the same metrics in order.
fn median_metrics(reps: &[LayerMetrics]) -> LayerMetrics {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = reps.iter().map(|r| r[i].1).collect();
            (name, stats::median(&values), unit)
        })
        .collect()
}

/// Prints each layer's self time and share of the layer sum.
fn print_layers(kind: Kind, t: &Tracer) -> Result<(), String> {
    let root = t
        .last_root(replay::ROOT)
        .ok_or("the replay left no root span")?;
    let under = t.totals_under(root);
    let layer_sum: f64 = under.values().map(|x| x.self_s).sum();
    println!(
        "{} trace: layer self times (share of the layer sum)",
        kind.name()
    );
    for (name, x) in &under {
        println!(
            "  {name:<24} {:>9.4} s {:>6.1}%  ({} spans, {} allocs)",
            x.self_s,
            100.0 * x.self_s / layer_sum,
            x.count,
            x.allocs
        );
    }
    Ok(())
}

/// The accounting check: a replay's layer self times must sum to the
/// untraced 1-worker wall time measured right after it, within
/// [`LEDGER_TOLERANCE`]. Pairs adjacent in time keep host drift out of
/// the gap, which is the tracing overhead.
fn print_ledger(layer: &LayerMetrics) {
    let get = |name: &str| layer.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1);
    let gap = get("trace.overhead_frac");
    println!(
        "  ledger: layer sum {:.4} s vs untraced 1-worker {:.4} s; tracing overhead {:+.4} s \
         ({:+.1}%, medians of {TRACE_REPS} pairs), {} (tolerance {:.0}%)",
        get("trace.layer_sum_s"),
        get("trace.untraced_1w_s"),
        get("trace.overhead_s"),
        100.0 * gap,
        if gap.abs() <= LEDGER_TOLERANCE {
            "within tolerance"
        } else {
            "OUTSIDE tolerance"
        },
        100.0 * LEDGER_TOLERANCE
    );
}

/// One replay's per-layer metrics, from its trace and counts.
fn layer_metrics(
    kind: Kind,
    t: &Tracer,
    counts: &replay::Counts,
    one: &Output,
    one_s: f64,
    two_s: Option<f64>,
) -> Result<LayerMetrics, String> {
    let root = t
        .last_root(replay::ROOT)
        .ok_or("the replay left no root span")?;
    let under = t.totals_under(root);
    let all = t.totals();
    let total = |name: &str| under.get(name).map_or(0.0, |x| x.total_s);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let layer_sum: f64 = under.values().map(|x| x.self_s).sum();
    let gap = (layer_sum - one_s) / one_s;
    let mut m = vec![
        ("trace.layer_sum_s", layer_sum, "s"),
        ("trace.untraced_1w_s", one_s, "s"),
        ("trace.overhead_s", layer_sum - one_s, "s"),
        ("trace.overhead_frac", gap, "ratio"),
    ];
    match kind {
        Kind::Figures | Kind::Turbulent => {
            let run_s = total("fleet.run");
            let slices = count("transfer.sim_slices");
            let critical = t
                .spans()
                .iter()
                .filter(|s| s.name == "fleet.job")
                .map(trace::Span::duration_s)
                .fold(0.0, f64::max);
            let work = total("dataset.generate") + total("fleet.prepare") + run_s;
            m.extend([
                ("dataset.generate_s", total("dataset.generate"), "s"),
                (
                    "core.plan_s",
                    all.get("core.plan").map_or(0.0, |x| x.total_s),
                    "s",
                ),
                ("fleet.prepare_s", total("fleet.prepare"), "s"),
                ("fleet.run_s", run_s, "s"),
                (
                    "fleet.run_allocs",
                    under.get("fleet.run").map_or(0, |x| x.allocs) as f64,
                    "count",
                ),
                ("fleet.critical_job_s", critical, "s"),
                ("transfer.sim_slices", slices, "count"),
                ("transfer.ns_per_sim_slice", run_s * 1e9 / slices, "ns"),
                ("fleet.overhead_s", one_s - work, "s"),
                (
                    "fleet.scaling_1to2",
                    one_s / two_s.ok_or("no 2-worker run")?,
                    "ratio",
                ),
                (
                    "fleet.report_json_s",
                    under.get("fleet.report_json").map_or(0.0, |x| x.self_s),
                    "s",
                ),
                ("fleet.report_bytes", count("fleet.report_bytes"), "bytes"),
                ("fleet.rollup_s", total("fleet.rollup"), "s"),
            ]);
            if kind == Kind::Turbulent {
                m.extend([
                    ("transfer.failures", count("transfer.failures"), "count"),
                    ("transfer.retries", count("transfer.retries"), "count"),
                ]);
                if one.failures as f64 != count("transfer.failures") {
                    return Err("replay failures differ from the session's".into());
                }
            }
        }
        Kind::Checkpointed => m.extend([
            ("dataset.generate_s", total("dataset.generate"), "s"),
            ("fleet.prepare_s", total("fleet.prepare"), "s"),
            ("ckpt.encode_s", total("ckpt.encode"), "s"),
            ("ckpt.decode_s", total("ckpt.decode"), "s"),
            (
                "ckpt.decode_allocs",
                under.get("ckpt.decode").map_or(0, |x| x.allocs) as f64,
                "count",
            ),
            ("ckpt.bytes", count("ckpt.bytes"), "bytes"),
            ("ckpt.saved", count("ckpt.saved"), "count"),
            ("ckpt.loaded", count("ckpt.loaded"), "count"),
            ("ckpt.store_write_s", total("ckpt.store_write"), "s"),
            ("ckpt.store_read_s", total("ckpt.store_read"), "s"),
            ("ckpt.resume_leg_s", total("ckpt.resume_leg"), "s"),
        ]),
        Kind::Serve => m.extend([
            ("service.rounds", count("service.rounds"), "count"),
            (
                "service.resident_rounds",
                count("service.resident_rounds"),
                "count",
            ),
            ("service.preemptions", count("service.preemptions"), "count"),
            (
                "service.round_us",
                total("service.run") * 1e6 / count("service.rounds"),
                "us",
            ),
            (
                "service.scaling_1to2",
                one_s / two_s.ok_or("no 2-worker run")?,
                "ratio",
            ),
            ("service.report_json_s", total("service.report_json"), "s"),
            (
                "telemetry.journal_records",
                count("telemetry.journal_records"),
                "count",
            ),
            (
                "telemetry.journal_bytes",
                count("telemetry.journal_bytes"),
                "bytes",
            ),
            ("telemetry.to_jsonl_s", total("telemetry.to_jsonl"), "s"),
            (
                "telemetry.recover_jsonl_s",
                all.get("telemetry.recover_jsonl")
                    .map_or(0.0, |x| x.total_s),
                "s",
            ),
        ]),
    }
    Ok(m)
}

/// Writes the workload's spans as a Chrome trace under `.bench_out/`.
fn write_trace(kind: Kind, seed: u64, t: &Tracer) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{seed}.json", kind.name()));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, t.to_chrome_json()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args(&[
            "--workload",
            "serve-contended",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.kind, Kind::Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = args(&["--workload", "figures-batch"]).unwrap();
        assert_eq!((a.seed, a.trace), (workloads::DEFAULT_SEED, false));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "figures-batch", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "figures-batch", "--seconds", "0"]).is_err());
    }

    #[test]
    fn layer_metrics_take_element_wise_medians() {
        let reps = vec![
            vec![("a_s", 3.0, "s"), ("n", 7.0, "count")],
            vec![("a_s", 1.0, "s"), ("n", 7.0, "count")],
            vec![("a_s", 2.0, "s"), ("n", 7.0, "count")],
        ];
        assert_eq!(
            median_metrics(&reps),
            vec![("a_s", 2.0, "s"), ("n", 7.0, "count")]
        );
        assert!(median_metrics(&[]).is_empty());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = RunResult {
            attempted: 3,
            verdict: Verdict::default(),
            metrics: vec![metric("wall_s", 1.25, "s"), metric("x", f64::NAN, "count")],
        };
        let line = r.to_json();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"], serde_json::Value::Bool(true));
        assert_eq!(v["attempted"].as_u64(), Some(3));
        assert_eq!(v["metrics"]["wall_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["x"]["value"].as_f64(), Some(0.0));
        assert!(!line.contains('\n'));
    }
}
