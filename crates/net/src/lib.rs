//! Flow-level network path model.
//!
//! The transfer engine does not simulate individual packets; it computes
//! per-slice steady-state rates the way flow-level WAN simulators do:
//!
//! 1. each TCP stream has a **window ceiling** `min(buffer, BDP)/RTT`
//!    ([`tcp::stream_ceiling`]) — the reason the paper's parallelism rule
//!    `p = ⌈BDP/bufSize⌉` exists;
//! 2. aggregate demand is fit onto the bottleneck link by **max-min fair
//!    sharing** ([`fair::fair_share`]);
//! 3. oversubscription (too many total streams) costs goodput via a
//!    **congestion efficiency** factor (`tcp::congestion_efficiency`) —
//!    the paper's "too many simultaneous streams can cause network
//!    congestion and throughput decline";
//! 4. moved bytes are converted to **packet counts** ([`packets`]) for the
//!    network-device energy accounting of §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fair;
pub mod link;
pub mod packets;
#[cfg(test)]
mod proptests;
pub mod tcp;

pub use fair::{fair_share, fair_share_into, FairScratch};
pub use link::Link;
pub use tcp::{stream_ceiling, CongestionModel};
