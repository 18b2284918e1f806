//! # EADT — Energy-Aware Data Transfer algorithms
//!
//! A reproduction of *"Energy-Aware Data Transfer Algorithms"* (Alan,
//! Arslan, Kosar — SC 2015) as a Rust workspace. This facade crate
//! re-exports the public API of every member crate so applications can
//! depend on a single crate:
//!
//! ```
//! use eadt::prelude::*;
//!
//! let testbed = eadt::testbeds::didclab();
//! let dataset = testbed.dataset_spec.scaled(0.01).generate(42);
//! let report = Htee::new(4).run(&mut RunCtx::new(&testbed.env, &dataset));
//! assert!(report.completed);
//! assert!(report.avg_throughput().as_mbps() > 0.0);
//! ```
//!
//! Batches of transfers — sweeps, repeated trials, whole figure matrices —
//! go through the [`fleet`] session instead of hand-rolled loops:
//!
//! ```
//! use eadt::prelude::*;
//!
//! let jobs = vec![JobSpec::new(AlgorithmKind::ProMc, eadt::testbeds::didclab())
//!     .with_scale(0.01)];
//! let report = Session::builder().root_seed(42).workers(1).build().run(&jobs);
//! assert!(report.jobs[0].completed);
//! ```
//!
//! Multi-tenant workloads contending for shared site pools go through the
//! continuous [`fleet`] service ([`ServiceSession`](fleet::ServiceSession),
//! DESIGN.md §16): jobs arrive on a seeded process, are admitted and
//! preempted by the scheduler, and share each site's bandwidth and disk
//! under fair-share or strict-priority arbitration:
//!
//! ```
//! use eadt::prelude::*;
//!
//! let tb = eadt::testbeds::didclab();
//! let capacity = PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, 2);
//! let workload = Workload::new()
//!     .site("didclab", capacity)
//!     .job(ServiceJob::new(
//!         JobSpec::new(AlgorithmKind::Sc, tb.clone()).with_scale(0.01),
//!         "didclab",
//!     ))
//!     .job(ServiceJob::new(
//!         JobSpec::new(AlgorithmKind::ProMc, tb).with_scale(0.01),
//!         "didclab",
//!     ).with_tenant(1));
//! let run = ServiceSession::builder().root_seed(42).quantum(100).build()
//!     .run(&workload)
//!     .unwrap();
//! assert_eq!(run.report.completed_count(), 2);
//! ```
//!
//! The three paper algorithms live in [`core`] as [`MinE`](core::MinE),
//! [`Htee`](core::Htee) and [`Slaee`](core::Slaee); the baselines they are
//! evaluated against (GUC, GO, SC, ProMC, BF) are in
//! [`core::baselines`]. The simulated substrate — network paths,
//! end-systems, power models, the GridFTP-like transfer engine and the
//! network-device energy accounting — lives in the remaining crates.

pub use eadt_core as core;
pub use eadt_dataset as dataset;
pub use eadt_endsys as endsys;
pub use eadt_fleet as fleet;
pub use eadt_net as net;
pub use eadt_netenergy as netenergy;
pub use eadt_power as power;
pub use eadt_sim as sim;
pub use eadt_telemetry as telemetry;
pub use eadt_testbeds as testbeds;
pub use eadt_transfer as transfer;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use eadt_core::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, ProMc, SingleChunk};
    pub use eadt_core::{Algorithm, AlgorithmKind, Htee, MinE, RunCtx, Slaee};
    pub use eadt_dataset::{Dataset, FileSpec};
    pub use eadt_endsys::{ArbitrationPolicy, PoolCapacity};
    pub use eadt_fleet::{
        FleetReport, JobSpec, ServiceJob, ServiceReport, ServiceSession, Session, Workload,
    };
    pub use eadt_sim::{Bytes, EadtError, Rate, SimDuration, SimTime};
    pub use eadt_testbeds::{didclab, futuregrid, xsede, Environment};
    pub use eadt_transfer::{TransferParams, TransferReport};
}
