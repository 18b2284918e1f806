//! Service-session snapshots: the scheduler state of a continuous fleet
//! service (DESIGN.md §16) at a round boundary.
//!
//! An engine checkpoint captures *one transfer's* in-flight state; a
//! [`ServiceCheckpoint`] captures the layer above it — which jobs are
//! still pending, queued, resident in a site pool, or finished, plus the
//! per-job admission timeline — and embeds the engine state of every
//! live job, so one atomic rename commits the whole round. Together with
//! finished jobs' outcome files and the persisted service journal, the
//! checkpoint directory holds a consistent snapshot of the whole service
//! as of the round it was written, and a resumed service replays the
//! remaining rounds byte-identically.

use crate::error::CkptError;
use crate::store::{CheckpointStore, JobCheckpoint};
use serde::{Deserialize, Serialize};

/// Schema version of [`ServiceCheckpoint`] (versioning policy: §13 —
/// additive growth bumps the version, readers reject versions they do
/// not understand). Version 2 embedded the live engine states
/// (`engines`) in place of per-job checkpoint files.
pub const SERVICE_CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// One job's service-side timeline, as known at the checkpoint round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceJobState {
    /// Service-wide job index.
    pub job: u32,
    /// Round the job first entered a site pool (`None` while waiting).
    pub admitted_round: Option<u64>,
    /// Round the job finished (`None` while unfinished).
    pub finished_round: Option<u64>,
    /// Times the scheduler evicted the job from its pool.
    pub preemptions: u32,
}

/// The scheduler state of a continuous fleet service at a round
/// boundary.
///
/// Job indices refer to the workload's job list; jobs absent from
/// `queue`, `resident` and `finished` have not arrived yet (their
/// arrival rounds are recomputed from the root seed on resume, so the
/// arrival process itself needs no state here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCheckpoint {
    /// Schema version ([`SERVICE_CHECKPOINT_SCHEMA_VERSION`]).
    pub version: u32,
    /// Workload fingerprint: hash of root seed, policy, quantum, site
    /// and job shape. A resume against an edited workload is rejected
    /// before any engine state loads.
    pub fingerprint: u64,
    /// The root seed the service ran at.
    pub root_seed: u64,
    /// The next round to execute (all rounds below it are complete).
    pub round: u64,
    /// Jobs waiting for admission, queue order.
    pub queue: Vec<u32>,
    /// Jobs resident in site pools, admission order. Each has an entry
    /// in `engines`.
    pub resident: Vec<u32>,
    /// Jobs that finished, index order. Each has a
    /// `job-<i>.outcome.json` beside this file.
    pub finished: Vec<u32>,
    /// Per-job admission timeline (admitted/finished rounds, preemption
    /// counts), index order over all jobs.
    pub jobs: Vec<ServiceJobState>,
    /// Sequence number the service journal will assign next; the
    /// persisted journal prefix ends exactly here.
    pub journal_seq: u64,
    /// Engine state of every live job that has run — each resident, and
    /// each queued job a preemption sent back — job-index order, each
    /// bound to its job.
    pub engines: Vec<JobCheckpoint>,
}

impl ServiceCheckpoint {
    /// Serializes as pretty JSON with a trailing newline (deterministic:
    /// declaration field order, shortest-roundtrip floats).
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        text.push('\n');
        text
    }

    /// Parses and version-checks a snapshot produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let ck: ServiceCheckpoint = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if ck.version != SERVICE_CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "service checkpoint schema {} (this build reads {})",
                ck.version, SERVICE_CHECKPOINT_SCHEMA_VERSION
            ));
        }
        Ok(ck)
    }

    /// Checks the snapshot against the workload it is about to resume.
    pub fn validate(&self, fingerprint: u64, root_seed: u64) -> Result<(), CkptError> {
        if self.fingerprint != fingerprint {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "service checkpoint fingerprint {:#018x} does not match workload {fingerprint:#018x}",
                    self.fingerprint
                ),
            });
        }
        if self.root_seed != root_seed {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "service checkpoint root seed {}, resuming with {root_seed}",
                    self.root_seed
                ),
            });
        }
        Ok(())
    }
}

impl CheckpointStore {
    /// File name of the service-session snapshot.
    pub fn service_checkpoint_name() -> &'static str {
        "service.ckpt.json"
    }

    /// File name of the persisted service journal prefix.
    pub fn service_journal_name() -> &'static str {
        "service.journal.jsonl"
    }

    /// Reads and parses the service checkpoint; `Ok(None)` when absent.
    pub fn load_service_checkpoint(&self) -> Result<Option<ServiceCheckpoint>, CkptError> {
        let name = Self::service_checkpoint_name();
        match self.read(name)? {
            None => Ok(None),
            Some(text) => ServiceCheckpoint::from_json(&text)
                .map(Some)
                .map_err(|detail| CkptError::Corrupt {
                    path: self.dir().join(name),
                    detail,
                }),
        }
    }

    /// Writes the service checkpoint atomically.
    pub fn save_service_checkpoint(&self, ck: &ServiceCheckpoint) -> Result<(), CkptError> {
        self.write(Self::service_checkpoint_name(), &ck.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceCheckpoint {
        ServiceCheckpoint {
            version: SERVICE_CHECKPOINT_SCHEMA_VERSION,
            fingerprint: 0xfeed_beef,
            root_seed: 42,
            round: 7,
            queue: vec![3],
            resident: vec![1, 2],
            finished: vec![0],
            jobs: vec![
                ServiceJobState {
                    job: 0,
                    admitted_round: Some(0),
                    finished_round: Some(5),
                    preemptions: 0,
                },
                ServiceJobState {
                    job: 1,
                    admitted_round: Some(1),
                    finished_round: None,
                    preemptions: 1,
                },
            ],
            journal_seq: 19,
            engines: vec![JobCheckpoint {
                schema: crate::JOB_CHECKPOINT_SCHEMA_VERSION,
                job: 1,
                // Multi-byte characters and escapes: the decoder copies
                // runs between escapes and must keep both intact.
                label: "mine/didclab \"ü→日本\" \\ tab\there\nnext ✓".to_string(),
                algorithm: "MinE".to_string(),
                seed: 11,
                engine: crate::store::tests::sample_engine_checkpoint(),
            }],
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let ck = sample();
        let text = ck.to_json();
        let back = ServiceCheckpoint::from_json(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut ck = sample();
        ck.version = SERVICE_CHECKPOINT_SCHEMA_VERSION + 1;
        let err = ServiceCheckpoint::from_json(&ck.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn validation_catches_workload_drift() {
        let ck = sample();
        ck.validate(0xfeed_beef, 42).unwrap();
        assert!(ck.validate(0xdead_beef, 42).is_err());
        assert!(ck.validate(0xfeed_beef, 43).is_err());
    }

    #[test]
    fn store_round_trip() {
        let dir = std::env::temp_dir().join(format!("eadt-ckpt-service-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();
        assert!(store.load_service_checkpoint().unwrap().is_none());
        let ck = sample();
        store.save_service_checkpoint(&ck).unwrap();
        assert_eq!(store.load_service_checkpoint().unwrap(), Some(ck));
        let _ = std::fs::remove_dir_all(dir);
    }
}
