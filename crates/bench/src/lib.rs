//! The experiment harness: one function per paper table/figure.
//!
//! Every figure and table of the paper's evaluation can be regenerated
//! from here — the `figures` binary prints them, the Criterion benches in
//! `benches/` time them on scaled datasets, and the workspace integration
//! tests assert their shapes. See DESIGN.md §5 for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod ablate;
pub mod accuracy;
pub mod device;
pub mod estimator;
pub mod kernel;
pub mod plot;
pub mod repeat;
pub mod sla;
pub mod surface;
pub mod sweep;
pub mod table;
pub mod workloads;

pub use ablate::{ablation_matrix, fault_ablation, AblationRow, FaultAblationRow};
pub use accuracy::{model_accuracy, AccuracyRow};
pub use device::{fig10_decomposition, fig8_series, fig9_paths, table1_rows, DecompositionRow};
pub use estimator::{estimator_experiment, EstimatorRow};
pub use kernel::{
    count_executed_slices, measure_allocs_per_slice, merge_into_bench_json, steady_scenario,
    turbulent_scenario, AllocWindow, KernelGate, SliceCounter,
};
pub use plot::{write_sla_plot, write_sweep_plot, write_trace_plot};
pub use repeat::{replicated_sweep, AggregatePoint, ReplicatedSweep};
pub use sla::{sla_figure, SlaFigure, SlaRow};
pub use surface::{parameter_surface, Knob, ParameterSweep, SurfacePoint};
pub use sweep::{sweep_figure, SweepFigure, SweepPoint};
pub use workloads::{workload_study, WorkloadRow};
