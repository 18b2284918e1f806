//! The §2.1 parameter-effect surface.
//!
//! Before proposing algorithms, the paper (leaning on the authors' CCGrid'14
//! study) characterises how each application-layer parameter affects
//! throughput and energy: pipelining pays on datasets of sub-BDP files and
//! is useless beyond; parallelism pays on large files when the TCP buffer
//! is below the BDP; concurrency is the most influential knob everywhere
//! but wastes energy once the path saturates. This module sweeps one
//! parameter at a time over single-class datasets and returns the surfaces,
//! so those claims are reproducible numbers here too.

use eadt_dataset::Dataset;
use eadt_endsys::Placement;
use eadt_sim::Bytes;
use eadt_testbeds::Environment;
use eadt_transfer::{uniform_plan, Engine, NullController, TransferParams};
use serde::{Deserialize, Serialize};

/// Which parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Knob {
    /// Control-channel pipelining depth.
    Pipelining,
    /// Streams per channel.
    Parallelism,
    /// Simultaneous channels.
    Concurrency,
}

impl Knob {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Knob::Pipelining => "pipelining",
            Knob::Parallelism => "parallelism",
            Knob::Concurrency => "concurrency",
        }
    }
}

/// One measured point of a parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfacePoint {
    /// The varied parameter's value (other knobs stay at 1).
    pub value: u32,
    /// Average throughput, Mbps.
    pub throughput_mbps: f64,
    /// Total end-system energy, Joules.
    pub energy_j: f64,
}

/// A single-knob sweep over a single-class dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterSweep {
    /// Which knob was varied.
    pub knob: Knob,
    /// Dataset label ("small files" / "large files").
    pub workload: String,
    /// Measured points in knob order.
    pub points: Vec<SurfacePoint>,
}

/// A uniform dataset of `n` files of `size` each.
pub(crate) fn uniform_dataset(n: usize, size: Bytes) -> Dataset {
    Dataset::from_sizes(format!("{n} × {size}"), std::iter::repeat_n(size, n))
}

fn run_point(tb: &Environment, dataset: &Dataset, params: TransferParams) -> SurfacePoint {
    let plan = uniform_plan(dataset, params, Placement::PackFirst);
    let r = Engine::new(&tb.env).run(&plan, &mut NullController);
    SurfacePoint {
        value: 0, // filled by caller
        throughput_mbps: r.avg_throughput().as_mbps(),
        energy_j: r.total_energy_j(),
    }
}

/// Sweeps one knob over `values` with the other two pinned at 1.
pub(crate) fn sweep_knob(
    tb: &Environment,
    dataset: &Dataset,
    knob: Knob,
    values: &[u32],
) -> ParameterSweep {
    let points = values
        .iter()
        .map(|&v| {
            let params = match knob {
                Knob::Pipelining => TransferParams::new(v, 1, 1),
                Knob::Parallelism => TransferParams::new(1, v, 1),
                Knob::Concurrency => TransferParams::new(1, 1, v),
            };
            SurfacePoint {
                value: v,
                ..run_point(tb, dataset, params)
            }
        })
        .collect();
    ParameterSweep {
        knob,
        workload: dataset.name.clone(),
        points,
    }
}

/// The full §2.1 characterisation on one testbed: every knob swept over a
/// many-small-files workload and a few-large-files workload of roughly
/// equal volume.
pub fn parameter_surface(tb: &Environment, values: &[u32], seed: u64) -> Vec<ParameterSweep> {
    let _ = seed; // uniform datasets need no randomness; kept for symmetry
    let bdp = tb.env.link.bdp();
    // Small files: one tenth of the BDP each (clamped to ≥ 1 MB).
    let small_size = Bytes((bdp.as_u64() / 10).max(1_000_000));
    let large_size = Bytes(bdp.as_u64().max(1_000_000) * 20);
    let volume = large_size.as_u64() * 8;
    let small = uniform_dataset((volume / small_size.as_u64()).max(8) as usize, small_size);
    let large = uniform_dataset(8, large_size);

    let mut out = Vec::new();
    for knob in [Knob::Pipelining, Knob::Parallelism, Knob::Concurrency] {
        out.push(sweep_knob(tb, &small, knob, values));
        out.push(sweep_knob(tb, &large, knob, values));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_testbeds::xsede;

    /// Throughput gain of the best point over the first (value = 1).
    fn best_speedup(sweep: &ParameterSweep) -> f64 {
        let base = sweep.points.first().map_or(0.0, |p| p.throughput_mbps);
        let best = sweep
            .points
            .iter()
            .map(|p| p.throughput_mbps)
            .fold(0.0, f64::max);
        if base <= 0.0 {
            0.0
        } else {
            best / base
        }
    }

    fn values() -> Vec<u32> {
        vec![1, 2, 4, 8]
    }

    #[test]
    fn pipelining_helps_small_files_not_large() {
        let tb = xsede();
        let bdp = tb.env.link.bdp();
        let small = uniform_dataset(400, Bytes(bdp.as_u64() / 10));
        let large = uniform_dataset(4, Bytes(bdp.as_u64() * 20));
        let s = sweep_knob(&tb, &small, Knob::Pipelining, &values());
        let l = sweep_knob(&tb, &large, Knob::Pipelining, &values());
        assert!(
            best_speedup(&s) > 1.15,
            "pipelining must pay on sub-BDP files: {}",
            best_speedup(&s)
        );
        assert!(
            best_speedup(&l) < 1.05,
            "pipelining must be useless on files ≫ BDP: {}",
            best_speedup(&l)
        );
    }

    #[test]
    fn parallelism_helps_large_files_on_buffer_limited_paths() {
        // XSEDE: 32 MB buffer < 50 MB BDP → parallel streams pay.
        let tb = xsede();
        assert!(tb.env.link.buffer_limited());
        let large = uniform_dataset(4, Bytes::from_gb(1));
        let l = sweep_knob(&tb, &large, Knob::Parallelism, &values());
        assert!(
            best_speedup(&l) > 1.2,
            "parallelism must pay on large files: {}",
            best_speedup(&l)
        );
    }

    #[test]
    fn concurrency_is_the_most_influential_knob() {
        let tb = xsede();
        let mixed = tb.dataset_spec.scaled(0.02).generate(3);
        let vals = values();
        let cc = sweep_knob(&tb, &mixed, Knob::Concurrency, &vals);
        let pp = sweep_knob(&tb, &mixed, Knob::Pipelining, &vals);
        let p = sweep_knob(&tb, &mixed, Knob::Parallelism, &vals);
        assert!(
            best_speedup(&cc) >= best_speedup(&pp) && best_speedup(&cc) >= best_speedup(&p),
            "cc {} vs pp {} vs p {}",
            best_speedup(&cc),
            best_speedup(&pp),
            best_speedup(&p)
        );
    }

    #[test]
    fn surface_covers_all_knob_workload_pairs() {
        let tb = xsede();
        let sweeps = parameter_surface(&tb, &[1, 4], 1);
        assert_eq!(sweeps.len(), 6);
        for s in &sweeps {
            assert_eq!(s.points.len(), 2);
            for p in &s.points {
                assert!(p.throughput_mbps > 0.0);
                assert!(p.energy_j > 0.0);
            }
        }
    }
}
