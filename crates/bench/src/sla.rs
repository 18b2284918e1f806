//! Figures 5, 6 and 7: SLAEE at different target percentages.

use eadt_core::baselines::ProMc;
use eadt_core::{Algorithm, RunCtx, Slaee};
use eadt_dataset::Dataset;
use eadt_sim::SimTime;
use eadt_testbeds::Environment;
use eadt_transfer::TransferReport;
use serde::{Deserialize, Serialize};

/// One SLA target's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaRow {
    /// Target percentage of the maximum achievable throughput (95/90/…).
    pub target_pct: u32,
    /// The absolute target, Mbps (panel a, dark bars).
    pub target_mbps: f64,
    /// SLAEE's steady-state achieved throughput, Mbps (panel a, light
    /// bars): the time-weighted mean after the adaptation phase settles.
    pub achieved_mbps: f64,
    /// SLAEE's total energy, Joules (panel b).
    pub energy_j: f64,
    /// Signed deviation from the target in percent (panel c):
    /// positive = undershoot, negative = overshoot.
    pub deviation_pct: f64,
    /// Transfer duration in simulated seconds.
    pub duration_s: f64,
}

/// A whole SLA figure for one testbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaFigure {
    /// Testbed name.
    pub testbed: String,
    /// The ProMC reference: its maximum throughput (Mbps) at the testbed's
    /// reference concurrency, and its energy (the dashed lines of panels
    /// a/b).
    pub max_throughput_mbps: f64,
    /// ProMC's energy at the reference concurrency, Joules.
    pub promc_energy_j: f64,
    /// One row per target percentage.
    pub rows: Vec<SlaRow>,
}

/// Steady-state throughput: time-weighted mean of the throughput series
/// once the adaptation phase has had time to settle (after `skip_secs`),
/// falling back to the whole-transfer mean for short runs.
pub(crate) fn steady_throughput_mbps(report: &TransferReport, skip_secs: f64) -> f64 {
    let series = &report.throughput_series;
    let (Some(start), Some(end)) = (series.start(), series.end()) else {
        return 0.0;
    };
    let from = SimTime::from_secs_f64(start.as_secs_f64() + skip_secs);
    if from.as_secs_f64() >= end.as_secs_f64() {
        return series.time_weighted_mean();
    }
    let span = end.as_secs_f64() - from.as_secs_f64();
    if span <= 0.0 {
        return series.time_weighted_mean();
    }
    series.integrate_between(from, end) / span
}

/// Runs the SLA experiment of Figures 5/6/7 on one testbed.
///
/// `targets` are the paper's percentages (95, 90, 80, 70, 50). The
/// reference maximum is ProMC at the testbed's reference concurrency.
pub fn sla_figure(tb: &Environment, dataset: &Dataset, targets: &[u32]) -> SlaFigure {
    let env = &tb.env;
    let promc = ProMc {
        partition: tb.partition,
        ..ProMc::new(tb.reference_concurrency)
    }
    .run(&mut RunCtx::new(env, dataset));
    let max_mbps = promc.avg_throughput().as_mbps();
    let max_rate = promc.avg_throughput();

    let rows: Vec<SlaRow> = targets
        .iter()
        .map(|&pct| {
            let level = f64::from(pct) / 100.0;
            let slaee = Slaee {
                partition: tb.partition,
                ..Slaee::new(level, max_rate, 12)
            };
            let r = slaee.run(&mut RunCtx::new(env, dataset));
            // Skip three probe windows: first measurement + proportional
            // jump + one settling window.
            let skip = 3.0 * slaee.probe_window.as_secs_f64();
            let achieved = steady_throughput_mbps(&r, skip);
            let target_mbps = max_mbps * level;
            let deviation = if target_mbps > 0.0 {
                100.0 * (target_mbps - achieved) / target_mbps
            } else {
                0.0
            };
            SlaRow {
                target_pct: pct,
                target_mbps,
                achieved_mbps: achieved,
                energy_j: r.total_energy_j(),
                deviation_pct: deviation,
                duration_s: r.duration.as_secs_f64(),
            }
        })
        .collect();

    SlaFigure {
        testbed: tb.name.clone(),
        max_throughput_mbps: max_mbps,
        promc_energy_j: promc.total_energy_j(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_testbeds::didclab;

    #[test]
    fn sla_rows_cover_targets_in_order() {
        let tb = didclab();
        let dataset = tb.dataset_spec.scaled(0.02).generate(3);
        let fig = sla_figure(&tb, &dataset, &[90, 50]);
        assert_eq!(fig.rows.len(), 2);
        assert_eq!(fig.rows[0].target_pct, 90);
        assert_eq!(fig.rows[1].target_pct, 50);
        assert!(fig.max_throughput_mbps > 0.0);
        for row in &fig.rows {
            assert!(row.achieved_mbps > 0.0);
            assert!(row.energy_j > 0.0);
        }
    }

    #[test]
    fn steady_throughput_of_empty_report_is_zero() {
        let tb = didclab();
        let dataset = tb.dataset_spec.scaled(0.01).generate(3);
        let r = ProMc::new(1).run(&mut RunCtx::new(&tb.env, &dataset));
        // Skip longer than the transfer → falls back to the overall mean.
        let all = r.throughput_series.time_weighted_mean();
        let s = steady_throughput_mbps(&r, 1e9);
        assert!((s - all).abs() < 1e-9);
    }
}
