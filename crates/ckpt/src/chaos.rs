//! The kill-point chaos harness: deterministic crash/recover drills.
//!
//! The harness runs a transfer straight through once (the *baseline*),
//! then replays it with a kill at a chosen slice boundary: the run is
//! halted, its checkpoint round-trips through JSON (the durability
//! transport), the on-disk journal is reconstructed as a crashed
//! appender would have left it — durable prefix, a few lines written
//! after the checkpoint, optionally a torn final line — and
//! [`resume_verified`] drives recovery. The resumed report and stitched
//! journal must be **byte-identical** to the baseline's.
//!
//! Kill points come from two generators: [`every_nth`] sweeps the
//! uniform grid, and [`adversarial_kill_points`] mines the baseline
//! journal for the awkward instants — inside a fault outage, during a
//! retry backoff, in the dead middle of a macro-stepped horizon (the
//! widest event gap), and between an HTEE probe window and its commit.

use crate::error::CkptError;
use crate::recover::{resume_verified, VerifiedResume};
use eadt_sim::SimDuration;
use eadt_telemetry::{Event, Journal, MetricsRegistry, Telemetry};
use eadt_transfer::{EngineCheckpoint, RunControl, RunOutcome};

/// A straight-through reference run.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Report JSON (pretty, newline-terminated).
    pub report_json: String,
    /// Full journal JSONL.
    pub journal: String,
    /// Total slices the run executed (every kill point below this halts).
    pub slices: u64,
    /// The final metrics registry.
    pub metrics: Option<MetricsRegistry>,
}

/// How the simulated crash mangles the journal tail on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWrite {
    /// The appender stopped exactly at the checkpoint boundary.
    Clean,
    /// The appender wrote `0` whole lines past the checkpoint, then died
    /// mid-line, tearing the next record.
    TornTail,
    /// The appender wrote a few whole lines past the checkpoint and then
    /// died mid-line on the following one.
    TailThenTorn,
}

/// Drives baseline and killed runs of one deterministic transfer.
///
/// The runner closure must start the identical run every time it is
/// called — same algorithm, environment, dataset, seeds — executing it
/// under the given control. Determinism is what makes the byte-equality
/// assertions meaningful.
pub struct ChaosDriver<R>
where
    R: Fn(&mut Telemetry, RunControl) -> RunOutcome,
{
    runner: R,
    cadence: SimDuration,
}

impl<R> ChaosDriver<R>
where
    R: Fn(&mut Telemetry, RunControl) -> RunOutcome,
{
    /// A driver sampling metrics every `cadence` (the registry state is
    /// part of what checkpoints must carry faithfully).
    pub fn new(runner: R, cadence: SimDuration) -> Self {
        ChaosDriver { runner, cadence }
    }

    fn fresh_telemetry(&self) -> Telemetry {
        Telemetry::enabled(self.cadence)
    }

    /// Runs straight through with full telemetry.
    pub fn baseline(&self, slice: SimDuration) -> Baseline {
        let mut tel = self.fresh_telemetry();
        let report = (self.runner)(&mut tel, RunControl::default())
            .into_report()
            .expect("no halt boundary configured");
        let slices = report
            .duration
            .as_micros()
            .div_ceil(slice.as_micros().max(1));
        let report_json = report_to_json(&report);
        let (journal, metrics) = tel.into_parts();
        Baseline {
            report_json,
            journal: journal.expect("telemetry was enabled").to_jsonl(),
            slices,
            metrics,
        }
    }

    /// Halts the run at slice boundary `kill` and returns the checkpoint
    /// after a JSON round-trip, plus the journal prefix the crashed run
    /// had durably written at the boundary. `None` when the run finishes
    /// before `kill` slices.
    pub fn checkpoint_at(&self, kill: u64) -> Option<(EngineCheckpoint, String)> {
        let mut tel = self.fresh_telemetry();
        match (self.runner)(&mut tel, RunControl::halt_at(kill)) {
            RunOutcome::Done(_) => None,
            RunOutcome::Halted(ck) => {
                let ck = EngineCheckpoint::from_json(&ck.to_json())
                    .expect("checkpoint JSON transport is lossless");
                let prefix = tel.journal().expect("telemetry was enabled").to_jsonl();
                Some((ck, prefix))
            }
        }
    }

    /// Kills the run at slice boundary `kill` and recovers it.
    ///
    /// The on-disk journal is simulated from the baseline: the crashed
    /// appender had durably written the checkpoint's prefix and — per
    /// `crash` — some of the events that followed, possibly tearing the
    /// last one. Recovery must cross-check that tail and produce a
    /// report and journal byte-identical to `baseline`'s (asserted by
    /// [`assert_kill_equivalence`], not here).
    ///
    /// Returns `None` when the run completes before `kill` slices (no
    /// checkpoint to crash on).
    pub fn kill_and_recover(
        &self,
        baseline: &Baseline,
        kill: u64,
        crash: CrashWrite,
    ) -> Option<Result<VerifiedResume, CkptError>> {
        let (ck, prefix) = self.checkpoint_at(kill)?;
        let disk = simulate_crash_journal(&prefix, &baseline.journal, crash);
        Some(resume_verified(ck, &disk, |tel, ctl| {
            (self.runner)(tel, ctl)
        }))
    }
}

/// Builds the journal bytes a crashed appender would have left: the
/// durable `prefix`, then (depending on `crash`) a few complete lines
/// the run appended after the checkpoint, then a torn final line cut
/// mid-record.
pub(crate) fn simulate_crash_journal(prefix: &str, full: &str, crash: CrashWrite) -> String {
    debug_assert!(
        full.starts_with(prefix),
        "baseline journal must extend the halted run's prefix"
    );
    let after: Vec<&str> = full[prefix.len()..].lines().collect();
    let mut disk = String::from(prefix);
    match crash {
        CrashWrite::Clean => {}
        CrashWrite::TornTail => {
            if let Some(line) = after.first() {
                disk.push_str(&line[..line.len() * 2 / 3]);
            }
        }
        CrashWrite::TailThenTorn => {
            let whole = after.len().saturating_sub(1).min(3);
            for line in &after[..whole] {
                disk.push_str(line);
                disk.push('\n');
            }
            if let Some(line) = after.get(whole) {
                disk.push_str(&line[..line.len() / 2]);
            }
        }
    }
    disk
}

/// The uniform kill grid: every `n`-th slice boundary strictly inside
/// the run.
pub fn every_nth(total_slices: u64, n: u64) -> Vec<u64> {
    let n = n.max(1);
    (0..total_slices).step_by(n as usize).collect()
}

/// Kill points mined from a baseline journal, by adversarial class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdversarialPoints {
    /// Mid-outage / mid-stall / mid-disk-episode boundaries (between a
    /// fault episode opening and closing).
    pub mid_episode: Vec<u64>,
    /// Boundaries inside a scheduled retry backoff window.
    pub mid_backoff: Vec<u64>,
    /// Boundaries between an HTEE probe window closing and the commit.
    pub probe_commit_gap: Vec<u64>,
    /// The middle of the widest gap between consecutive events — inside
    /// a macro-stepped steady-state horizon if the run had one.
    pub intra_horizon: Vec<u64>,
}

impl AdversarialPoints {
    /// All classes flattened, deduplicated, ascending.
    pub fn all(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .mid_episode
            .iter()
            .chain(&self.mid_backoff)
            .chain(&self.probe_commit_gap)
            .chain(&self.intra_horizon)
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Mines a baseline journal for adversarial kill points (slice indices).
///
/// Every returned boundary is strictly inside the run. Classes are empty
/// when the journal has no matching structure (no faults configured, no
/// probing controller, no macro-steppable steady state).
pub fn adversarial_kill_points(journal_jsonl: &str, slice: SimDuration) -> AdversarialPoints {
    let journal = Journal::from_jsonl(journal_jsonl).expect("baseline journal parses");
    let slice_us = slice.as_micros().max(1);
    let to_slice = |t_us: u64| t_us / slice_us;
    let mut points = AdversarialPoints::default();

    // Fault episodes: pair each opening with its closing edge and take
    // the middle boundary. Keyed loosely (kind only) — overlapping
    // windows still yield in-window midpoints.
    let mut open: Vec<(u64, u64)> = Vec::new(); // (kind discriminant, t_us)
    for r in journal.records() {
        match &r.event {
            Event::FaultEpisode { kind, active, .. } => {
                let k = *kind as u64;
                if *active {
                    open.push((k, r.t_us));
                } else if let Some(pos) = open.iter().rposition(|(ok, _)| *ok == k) {
                    let (_, start) = open.swap_remove(pos);
                    let mid = to_slice((start + r.t_us) / 2);
                    if mid > to_slice(start) && mid <= to_slice(r.t_us) {
                        points.mid_episode.push(mid);
                    }
                }
            }
            Event::ChannelRetry { delay_us, .. } => {
                // Halt in the middle of the backoff the retry scheduled.
                let mid = to_slice(r.t_us + delay_us / 2);
                if *delay_us > slice_us && mid > to_slice(r.t_us) {
                    points.mid_backoff.push(mid);
                }
            }
            Event::Commit { .. } => {
                // Between the last probe window and the commit.
                let prev_probe = journal
                    .records()
                    .iter()
                    .rfind(|p| p.t_us < r.t_us && matches!(p.event, Event::ProbeWindow { .. }));
                if let Some(p) = prev_probe {
                    let mid = to_slice((p.t_us + r.t_us) / 2);
                    if mid > to_slice(p.t_us) {
                        points.probe_commit_gap.push(mid);
                    }
                }
            }
            _ => {}
        }
    }

    // Widest inter-event gap: a macro-stepped steady state shows up as a
    // long stretch with no events; kill in its middle.
    let mut widest: Option<(u64, u64)> = None; // (gap, mid_slice)
    for w in journal.records().windows(2) {
        let gap = w[1].t_us.saturating_sub(w[0].t_us);
        if gap > 2 * slice_us {
            let mid = to_slice(w[0].t_us + gap / 2);
            if widest.is_none_or(|(g, _)| gap > g) {
                widest = Some((gap, mid));
            }
        }
    }
    if let Some((_, mid)) = widest {
        points.intra_horizon.push(mid);
    }

    for v in [
        &mut points.mid_episode,
        &mut points.mid_backoff,
        &mut points.probe_commit_gap,
    ] {
        v.sort_unstable();
        v.dedup();
    }
    points
}

/// Asserts one kill/recover cycle reproduced the baseline byte-for-byte.
/// Returns `false` when the run finished before the kill point (nothing
/// to assert).
pub fn assert_kill_equivalence<R>(
    driver: &ChaosDriver<R>,
    baseline: &Baseline,
    kill: u64,
    crash: CrashWrite,
    context: &str,
) -> bool
where
    R: Fn(&mut Telemetry, RunControl) -> RunOutcome,
{
    let Some(result) = driver.kill_and_recover(baseline, kill, crash) else {
        return false;
    };
    let resumed = match result {
        Ok(r) => r,
        Err(e) => panic!("{context}: kill at slice {kill} failed recovery: {e}"),
    };
    assert_eq!(
        report_to_json(&resumed.report),
        baseline.report_json,
        "{context}: report diverged after kill at slice {kill}"
    );
    assert_eq!(
        resumed.journal, baseline.journal,
        "{context}: journal diverged after kill at slice {kill}"
    );
    assert_eq!(
        resumed.metrics, baseline.metrics,
        "{context}: metrics diverged after kill at slice {kill}"
    );
    if crash == CrashWrite::TornTail || crash == CrashWrite::TailThenTorn {
        assert!(
            !resumed.repair.is_clean(),
            "{context}: torn line at kill {kill} was not detected"
        );
    }
    true
}

/// Canonical report JSON (pretty, newline-terminated) — the byte string
/// equivalence is asserted over.
pub fn report_to_json(report: &eadt_transfer::TransferReport) -> String {
    let mut s = serde_json::to_string_pretty(report).expect("reports always serialize");
    s.push('\n');
    s
}
