//! Parallel experiment fleet: a sharded, deterministic batch runner.
//!
//! A figures-quality evaluation runs *hundreds* of simulated transfers —
//! every algorithm at every concurrency level on every testbed, often at
//! several seeds. Serially that is minutes of wall time for what is an
//! embarrassingly parallel workload. This crate runs those transfers on
//! scoped worker threads while keeping the one property the whole
//! workspace is built around: **the same root seed produces byte-identical
//! aggregate output, no matter how many workers ran the batch**.
//!
//! Three mechanisms deliver that:
//!
//! * **Per-job seed derivation** ([`derive_job_seed`]) — every job's seed
//!   is derived from the root seed and the job's index via the `eadt-sim`
//!   RNG splitter plus an index-bijective splitmix step, so job N's world
//!   is the same whether it runs first on one thread or last on eight,
//!   and no two jobs of a batch ever share a seed.
//! * **Work stealing over an atomic cursor** ([`Session::run`]) — workers
//!   pull the next unclaimed job index; scheduling order affects only
//!   wall time, never results, because no job reads another job's state.
//! * **Merge-ordered aggregation** ([`FleetReport`]) — results land in a
//!   slot per job index and are emitted in job order. The report contains
//!   no worker count, timestamps or wall-clock measurements, so its JSON
//!   is byte-identical between a serial and an 8-worker run.
//!
//! [`Session`] is the single entry point: the CLI's `fleet` command, the
//! bench sweeps and the examples all build a session, describe jobs with
//! [`JobSpec`], and consume the merged [`FleetReport`].
//!
//! ```
//! use eadt_fleet::{JobSpec, Session};
//! use eadt_core::AlgorithmKind;
//!
//! let jobs = vec![
//!     JobSpec::new(AlgorithmKind::ProMc, eadt_testbeds::didclab()).with_scale(0.01),
//!     JobSpec::new(AlgorithmKind::Sc, eadt_testbeds::didclab()).with_scale(0.01),
//! ];
//! let report = Session::builder().root_seed(42).workers(2).build().run(&jobs);
//! assert_eq!(report.jobs.len(), 2);
//! assert!(report.jobs.iter().all(|j| j.completed));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dispatch;
mod exec;
mod matrix;
mod rollup;
mod seed;
mod service;
mod session;
mod spec;

pub use dispatch::JobRunner;
pub use matrix::figures_matrix;
pub use rollup::FleetMetrics;
pub use seed::derive_job_seed;
pub use service::{
    ServiceJob, ServiceJobOutcome, ServiceReport, ServiceRun, ServiceSession,
    ServiceSessionBuilder, SiteReport, Workload,
};
pub use session::{FleetReport, JobOutcome, Session, SessionBuilder, FLEET_SCHEMA_VERSION};
pub use spec::{FaultOverride, JobSpec};
