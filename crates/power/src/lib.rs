//! End-system power models (paper §2.2).
//!
//! Measuring transfer power with meters is impossible on machines you do
//! not own, so the paper predicts it from OS-visible utilization with two
//! regression models built in a one-time calibration phase:
//!
//! * the **fine-grained model** (Eq. 1) — a linear combination of CPU,
//!   memory, disk and NIC utilization, with the CPU coefficient depending
//!   on the number of active cores (Eq. 2:
//!   `C_cpu(n) = 0.011·n² − 0.082·n + 0.344`);
//! * the **CPU-only model** (Eq. 3) — for servers where only CPU stats are
//!   visible, optionally *extended* to a different machine by scaling with
//!   the ratio of CPU Thermal Design Power values.
//!
//! [`calibrate`] reproduces the model-building phase: sweep synthetic load
//! levels against a ground-truth power oracle, fit coefficients by least
//! squares, and score models with MAPE against held-out transfer profiles
//! (the paper's "error rate below 6%" experiment). The transfer engine
//! integrates the predicted Watts into Joules over simulated time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod model;

pub use calibrate::{CalibrationOutcome, GroundTruth, ToolProfile};
pub use model::{
    cpu_coefficient, CpuOnlyModel, FineGrainedModel, PowerBreakdown, PowerModel, PowerModelKind,
};
