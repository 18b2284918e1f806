//! Typed failures of checkpoint I/O and journal-verified recovery.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong between a checkpoint file on disk and a
/// verified, resumed run.
///
/// The engine itself panics on configuration mismatches (they are caller
/// bugs); this crate's entry points validate first and return these
/// instead, so a service can report a damaged checkpoint directory
/// without dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The file system said no (anything but "not found").
    Io {
        /// Offending path.
        path: PathBuf,
        /// OS error text.
        detail: String,
    },
    /// A checkpoint or journal file exists but does not parse — and not
    /// in the one way a crash can damage it (a torn final journal line).
    Corrupt {
        /// Offending path (empty for in-memory inputs).
        path: PathBuf,
        /// Parser diagnostic.
        detail: String,
    },
    /// A checkpoint file parses but is of a schema version this build
    /// does not read (an older or newer build wrote it).
    Version {
        /// Offending path.
        path: PathBuf,
        /// Which version was found and which one is supported.
        detail: String,
    },
    /// The checkpoint belongs to a different job, seed or configuration
    /// than the one being resumed.
    Mismatch {
        /// What differed.
        detail: String,
    },
    /// The journal on disk ends before the checkpoint's sequence cursor:
    /// events the checkpoint claims were durable are missing, so the
    /// journal and checkpoint are not from the same crashed run.
    JournalGap {
        /// The checkpoint's sequence cursor (first seq the replay emits).
        expected: u64,
        /// Highest sequence number found on disk (`None`: empty journal).
        found: Option<u64>,
    },
    /// Replayed events diverged from the journal tail written between the
    /// checkpoint and the crash — the checkpoint does not reproduce the
    /// run that wrote the journal.
    TailDiverged {
        /// Sequence number of the first diverging record.
        seq: u64,
        /// The line on disk.
        disk: String,
        /// The line the replay produced.
        replay: String,
    },
    /// The resumed run halted again instead of completing (the caller's
    /// runner re-applied a halt boundary).
    Interrupted,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, detail } => {
                write!(f, "checkpoint I/O failed at {}: {detail}", path.display())
            }
            CkptError::Corrupt { path, detail } if path.as_os_str().is_empty() => {
                write!(f, "corrupt checkpoint data: {detail}")
            }
            CkptError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint file {}: {detail}", path.display())
            }
            CkptError::Version { path, detail } => {
                write!(
                    f,
                    "unsupported checkpoint file {}: {detail}",
                    path.display()
                )
            }
            CkptError::Mismatch { detail } => {
                write!(
                    f,
                    "checkpoint does not match the job being resumed: {detail}"
                )
            }
            CkptError::JournalGap { expected, found } => match found {
                Some(seq) => write!(
                    f,
                    "journal ends at seq {seq} but the checkpoint was cut at seq {expected}: \
                     the two are not from the same run"
                ),
                None => write!(
                    f,
                    "journal is empty but the checkpoint was cut at seq {expected}"
                ),
            },
            CkptError::TailDiverged { seq, disk, replay } => write!(
                f,
                "replay diverged from the journal tail at seq {seq}: disk {disk} vs replay {replay}"
            ),
            CkptError::Interrupted => {
                write!(f, "resumed run halted again before completing")
            }
        }
    }
}

impl std::error::Error for CkptError {}
