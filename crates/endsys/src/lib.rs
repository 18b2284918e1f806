//! End-system (sender/receiver) models.
//!
//! The paper's thesis is that a quarter or more of transfer energy is spent
//! at the *end systems*, and that tuning application-layer parameters
//! changes how hard those end systems work. This crate models exactly the
//! parts of an end system the power models of §2.2 observe:
//!
//! * [`server`] — a data-transfer node: cores, CPU TDP, NIC, disks;
//! * [`disk`] — storage subsystems whose throughput responds to concurrent
//!   accesses (a parallel array scales; the DIDCLAB single disk *degrades* —
//!   the cause of Figure 4's inverted shape);
//! * [`util`] — OS-level utilization (CPU/mem/disk/NIC, plus active core
//!   count) as a function of transfer load, feeding Eq. 1–3;
//! * [`site`] — a site with one or more transfer servers and a channel
//!   **placement policy**: the custom client packs channels onto one server
//!   while Globus Online spreads them, which is why GO burns ~60% more
//!   energy at concurrency 2 on XSEDE (Figure 2b);
//! * [`pool`] — the multi-tenant contention surface: per-site shared
//!   bandwidth/disk/core-slot pools arbitrated fair-share or
//!   strict-priority across all transfers resident at the site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod pool;
#[cfg(test)]
mod proptests;
pub mod server;
pub mod site;
pub mod util;

pub use disk::DiskSubsystem;
pub use pool::{arbitrate, ArbitrationPolicy, PoolCapacity, PoolGrant, PoolMember};
pub use server::ServerSpec;
pub use site::{Placement, Site};
pub use util::{ServerLoad, Utilization, UtilizationCoeffs};
