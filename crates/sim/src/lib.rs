//! Simulation kernel for the EADT (Energy-Aware Data Transfer) workspace.
//!
//! This crate provides the deterministic foundation every other crate builds
//! on:
//!
//! * [`time`] — fixed-point simulated time ([`SimTime`], [`SimDuration`])
//!   with microsecond resolution, immune to floating-point drift across long
//!   transfers.
//! * [`units`] — strongly typed data-size and rate units ([`Bytes`],
//!   [`Rate`]) plus bandwidth-delay-product helpers.
//! * [`rng`] — a seedable, splittable deterministic random source so every
//!   experiment is exactly reproducible.
//! * [`error`] — the workspace-wide typed error ([`EadtError`]) and its
//!   coarse classification ([`ErrorKind`]), shared by the CLI, the transfer
//!   runtime, and the fleet batch runner.
//! * [`series`] — append-only time series with trapezoidal integration
//!   (power → energy).
//! * [`stats`] — summary statistics and ordinary least squares regression
//!   (simple and multiple), used to fit the paper's power-model
//!   coefficients during calibration.
//!
//! Nothing in this crate knows about networks, servers or transfers; it is a
//! generic, allocation-conscious kernel in the spirit of the HPC guides
//! (pre-sized `Vec`s, no hashing in hot paths, no wall-clock access).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
#[cfg(test)]
mod proptests;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use error::{EadtError, ErrorKind};
pub use rng::{LogUniform, SimRng};
pub use series::TimeSeries;
pub use stats::{LinearFit, MultiLinearFit, Summary};
pub use time::{SimDuration, SimTime};
pub use units::{Bytes, Rate};
