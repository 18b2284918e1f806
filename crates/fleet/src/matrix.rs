//! Prebuilt job matrices: the figure sweeps as ready-made batches.

use crate::spec::JobSpec;
use eadt_core::AlgorithmKind;
use eadt_testbeds::Environment;

/// The algorithm panel swept in the paper's figures. Brute force and the
/// manual baseline are excluded: BF is an oracle (exponential in chunk
/// count) and Manual needs explicit per-run parameters.
const FIGURE_KINDS: [AlgorithmKind; 7] = [
    AlgorithmKind::MinE,
    AlgorithmKind::Htee,
    AlgorithmKind::Slaee,
    AlgorithmKind::Guc,
    AlgorithmKind::Go,
    AlgorithmKind::Sc,
    AlgorithmKind::ProMc,
];

/// One testbed's figure sweep: every panel algorithm at every concurrency
/// level the testbed declares, at the given dataset scale.
pub(crate) fn sweep_matrix(tb: &Environment, scale: f64) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(tb.sweep_levels.len() * FIGURE_KINDS.len());
    for &cc in &tb.sweep_levels {
        for kind in FIGURE_KINDS {
            jobs.push(
                JobSpec::new(kind, tb.clone())
                    .with_scale(scale)
                    .with_max_channel(cc),
            );
        }
    }
    jobs
}

/// The full figures matrix: all three paper testbeds × their sweep levels
/// × the seven panel algorithms (147 jobs at the paper's levels). This is
/// the workload the fleet benchmarks and the parallel speed-up test run.
pub fn figures_matrix(scale: f64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for tb in [
        eadt_testbeds::xsede(),
        eadt_testbeds::futuregrid(),
        eadt_testbeds::didclab(),
    ] {
        jobs.extend(sweep_matrix(&tb, scale));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_matrix_covers_all_testbeds_and_levels() {
        let jobs = figures_matrix(0.01);
        assert_eq!(jobs.len(), 3 * 7 * 7, "3 testbeds x 7 levels x 7 kinds");
        assert!(jobs.iter().any(|j| j.env.name == "XSEDE"));
        assert!(jobs.iter().any(|j| j.env.name == "FutureGrid"));
        assert!(jobs.iter().any(|j| j.env.name == "DIDCLAB"));
        assert!(jobs.iter().all(|j| (j.scale - 0.01).abs() < 1e-12));
        // No duplicate labels: label = testbed/kind@cc is unique per job.
        let mut labels: Vec<String> = jobs.iter().map(JobSpec::display_label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), jobs.len());
    }

    #[test]
    fn sweep_matrix_tracks_testbed_levels() {
        let mut tb = eadt_testbeds::didclab();
        tb.sweep_levels = vec![1, 4];
        let jobs = sweep_matrix(&tb, 0.05);
        assert_eq!(jobs.len(), 2 * 7);
        assert!(jobs
            .iter()
            .all(|j| j.max_channel == 1 || j.max_channel == 4));
    }
}
