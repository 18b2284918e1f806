//! Journal-verified resume: replay from a checkpoint and prove the
//! replay re-joins the event stream the crashed run was writing.
//!
//! A crashed process leaves two artifacts: the last checkpoint (written
//! atomically, so intact) and the journal (append-only, so possibly
//! ahead of the checkpoint and possibly ending in a torn line). Recovery
//! treats the journal *prefix* — records below the checkpoint's sequence
//! cursor — as durable history, and the *tail* — records the crashed run
//! appended after the checkpoint — as evidence: the resumed run must
//! re-emit exactly those events before producing anything new. A replay
//! that diverges from its own tail means the checkpoint, the journal, or
//! the configuration is not what it claims to be, and recovery refuses
//! to stitch a Frankenstein journal.

use crate::error::CkptError;
use eadt_telemetry::{Journal, JournalRecovery, MetricsRegistry, Telemetry};
use eadt_transfer::{EngineCheckpoint, RunControl, RunOutcome, TransferReport};

/// The product of a verified resume.
#[derive(Debug)]
pub struct VerifiedResume {
    /// The completed run's report — bit-identical to an uninterrupted
    /// run's.
    pub report: TransferReport,
    /// The stitched journal: durable prefix + replayed suffix, as JSONL.
    /// Byte-identical to an uninterrupted run's journal.
    pub journal: String,
    /// What journal repair found on disk (torn tail, blank lines).
    pub repair: JournalRecovery,
    /// How many tail records (events the crashed run wrote *after* the
    /// checkpoint) were cross-checked against the replay.
    pub tail_verified: usize,
    /// The final metrics registry, when the run sampled metrics.
    pub metrics: Option<MetricsRegistry>,
}

/// Resumes a run from `ck` against the journal bytes found on disk,
/// verifying the replay against the journal tail.
///
/// `run` executes the resumed transfer: it receives the telemetry facade
/// (journal cursor and metrics registry already positioned from the
/// checkpoint) and the [`RunControl`] carrying the checkpoint, and must
/// drive the same algorithm/plan/environment the checkpoint was taken
/// under — typically a closure over
/// [`Engine::run_controlled`](eadt_transfer::Engine::run_controlled) or
/// an `Algorithm::run_controlled` call.
///
/// Recovery protocol (DESIGN.md §13):
/// 1. parse the journal, repairing a torn final line;
/// 2. split at the checkpoint's sequence cursor into durable prefix and
///    unverified tail; a prefix shorter than the cursor is a hard error
///    (the journal and checkpoint are not from the same run);
/// 3. replay from the checkpoint, journaling the suffix and sampling into
///    the checkpoint's own metrics registry (one that cannot sample is
///    corrupt);
/// 4. cross-check every tail record against the replayed suffix,
///    byte-for-byte;
/// 5. stitch prefix + suffix into the canonical journal.
pub fn resume_verified<F>(
    ck: EngineCheckpoint,
    journal_text: &str,
    run: F,
) -> Result<VerifiedResume, CkptError>
where
    F: FnOnce(&mut Telemetry, RunControl) -> RunOutcome,
{
    let (disk, repair) =
        Journal::recover_jsonl(journal_text).map_err(|detail| CkptError::Corrupt {
            path: Default::default(),
            detail,
        })?;
    if let Some(first) = disk.records().first() {
        if first.seq != 0 {
            return Err(CkptError::Corrupt {
                path: Default::default(),
                detail: format!("journal starts at seq {}, not 0", first.seq),
            });
        }
    }
    let cursor = ck.journal_seq;
    // recover_jsonl guarantees contiguity, so the record count is also
    // the next sequence number; a count below the cursor means events
    // the checkpoint declared durable are missing.
    if (disk.len() as u64) < cursor {
        return Err(CkptError::JournalGap {
            expected: cursor,
            found: disk.records().last().map(|r| r.seq),
        });
    }
    let tail: Vec<String> = disk.records()[cursor as usize..]
        .iter()
        .map(|r| r.to_json())
        .collect();

    // The replay samples into the checkpoint's own registry, which must
    // be able to: a zero cadence or a histogram whose counts do not fit
    // its bounds would hang or panic the run.
    if !ck.metrics.as_ref().is_none_or(MetricsRegistry::is_sound) {
        return Err(CkptError::Corrupt {
            path: Default::default(),
            detail: "checkpoint metrics registry cannot sample: a zero cadence or a \
                     histogram whose counts do not fit its bounds"
                .to_string(),
        });
    }
    let mut tel = Telemetry::from_parts(Some(Journal::with_start_seq(cursor)), ck.metrics.clone());
    let report = run(&mut tel, RunControl::resume_from(ck))
        .into_report()
        .ok_or(CkptError::Interrupted)?;

    let (journal, metrics) = tel.into_parts();
    // The telemetry above is built with a journal; losing it mid-run is
    // corruption, reported as such rather than aborting the recovery.
    let Some(suffix) = journal else {
        return Err(CkptError::Corrupt {
            path: Default::default(),
            detail: "replay telemetry returned without its journal".to_string(),
        });
    };
    let replayed = suffix.records();
    if tail.len() > replayed.len() {
        return Err(CkptError::TailDiverged {
            seq: cursor + replayed.len() as u64,
            disk: tail.get(replayed.len()).cloned().unwrap_or_default(),
            replay: "<run ended>".to_string(),
        });
    }
    for (i, disk_line) in tail.iter().enumerate() {
        let replay_line = replayed[i].to_json();
        if *disk_line != replay_line {
            return Err(CkptError::TailDiverged {
                seq: cursor + i as u64,
                disk: disk_line.clone(),
                replay: replay_line,
            });
        }
    }

    let mut stitched = String::new();
    for r in &disk.records()[..cursor as usize] {
        stitched.push_str(&r.to_json());
        stitched.push('\n');
    }
    stitched.push_str(&suffix.to_jsonl());

    Ok(VerifiedResume {
        report,
        journal: stitched,
        repair,
        tail_verified: tail.len(),
        metrics,
    })
}
