//! Deterministic fleet-wide rollup of per-job outcomes (DESIGN.md §14.3).
//!
//! Counters are summed, histograms merged bucket-wise and energy ledgers
//! added — always in job-index order, never in completion order, so the
//! rolled-up [`FleetMetrics`] is byte-identical whatever the worker count
//! and whether or not the batch went through a checkpoint/resume cycle.

use crate::session::JobOutcome;
use eadt_telemetry::{EnergyLedger, EnergyPhase, Histogram};
use serde::{Deserialize, Serialize};

/// Fleet-wide counters, merged distributions and the summed energy
/// ledger. Produced by [`FleetMetrics::rollup`]; rendered as Prometheus
/// text exposition by [`FleetMetrics::to_prometheus`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Jobs in the batch.
    pub jobs_total: u64,
    /// Jobs that moved every requested byte in time.
    pub jobs_completed: u64,
    /// Jobs that ended in a typed error.
    pub jobs_failed: u64,
    /// Bytes the batch asked to move.
    pub bytes_requested: u64,
    /// Bytes delivered (goodput).
    pub bytes_moved: u64,
    /// Bytes that crossed the wire, retransmissions included.
    pub wire_bytes: u64,
    /// Progress lost to marker-less restarts and moved again.
    pub retransmitted_bytes: u64,
    /// Packets pushed through the paths (data + control).
    pub packets: u64,
    /// Injected channel failures, all causes.
    pub failures: u64,
    /// Reconnection attempts scheduled.
    pub retries: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Summed simulated duration across jobs, seconds (channel-time, not
    /// batch wall-time: jobs overlap).
    pub sim_seconds: f64,
    /// Total end-system energy across jobs, Joules (summed per-job
    /// totals, job-index order).
    pub energy_j: f64,
    /// Phase- and component-attributed energy, summed across jobs.
    #[serde(default)]
    pub ledger: EnergyLedger,
    /// Engine histograms merged bucket-wise by name, in first-seen
    /// (job-index, registration) order. Empty unless the session was
    /// built with metrics collection on.
    #[serde(default)]
    pub histograms: Vec<Histogram>,
}

impl FleetMetrics {
    /// Rolls a batch up in job-index order.
    pub fn rollup(jobs: &[JobOutcome]) -> Self {
        let mut m = FleetMetrics::default();
        for job in jobs {
            m.absorb(job);
        }
        m
    }

    /// Folds one job into the rollup. Addition order is the caller's
    /// responsibility — [`FleetMetrics::rollup`] walks job-index order.
    pub fn absorb(&mut self, job: &JobOutcome) {
        self.jobs_total += 1;
        if job.completed {
            self.jobs_completed += 1;
        }
        if job.error.is_some() {
            self.jobs_failed += 1;
        }
        self.bytes_requested += job.requested_bytes;
        self.bytes_moved += job.moved_bytes;
        self.wire_bytes += job.wire_bytes;
        self.retransmitted_bytes += job.retransmitted_bytes;
        self.packets += job.packets;
        self.failures += job.failures;
        self.retries += job.retries;
        self.breaker_opens += job.breaker_opens;
        self.sim_seconds += job.duration_s;
        self.energy_j += job.energy_j;
        self.ledger.merge(&job.ledger);
        if let Some(registry) = &job.metrics {
            for h in registry.histograms() {
                self.merge_histogram(h);
            }
        }
    }

    /// Bucket-wise merge of one histogram by name; first sighting of a
    /// name adopts its bounds. A later histogram whose bounds disagree is
    /// dropped (merging across grids would silently misbucket) — in
    /// practice every job registers the engine's fixed bucket grids, so
    /// this never fires.
    fn merge_histogram(&mut self, h: &Histogram) {
        match self.histograms.iter_mut().find(|m| m.name() == h.name()) {
            Some(existing) => {
                let _ = existing.merge(h);
            }
            None => self.histograms.push(h.clone()),
        }
    }

    /// Renders the rollup in the Prometheus text exposition format:
    /// counters, the energy ledger as labelled gauges, and one classic
    /// histogram series (`_bucket`/`_sum`/`_count`) per merged engine
    /// histogram. Deterministic: fixed emission order, shortest-roundtrip
    /// float formatting.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let counters: [(&str, &str, u64); 11] = [
            ("jobs_total", "Jobs in the batch.", self.jobs_total),
            (
                "jobs_completed_total",
                "Jobs that completed their transfer.",
                self.jobs_completed,
            ),
            (
                "jobs_failed_total",
                "Jobs that ended in a typed error.",
                self.jobs_failed,
            ),
            (
                "bytes_requested_total",
                "Bytes the batch asked to move.",
                self.bytes_requested,
            ),
            ("bytes_moved_total", "Bytes delivered.", self.bytes_moved),
            (
                "wire_bytes_total",
                "Bytes that crossed the wire, retransmissions included.",
                self.wire_bytes,
            ),
            (
                "retransmitted_bytes_total",
                "Bytes moved more than once after marker-less restarts.",
                self.retransmitted_bytes,
            ),
            ("packets_total", "Packets, data plus control.", self.packets),
            (
                "channel_failures_total",
                "Injected channel failures, all causes.",
                self.failures,
            ),
            (
                "retries_total",
                "Reconnection attempts scheduled.",
                self.retries,
            ),
            (
                "breaker_opens_total",
                "Circuit-breaker open transitions.",
                self.breaker_opens,
            ),
        ];
        for (name, help, value) in counters {
            Self::header(&mut out, name, help, "counter");
            out.push_str(&format!("eadt_fleet_{name} {value}\n"));
        }
        Self::header(
            &mut out,
            "sim_seconds_total",
            "Summed simulated job duration, seconds.",
            "counter",
        );
        out.push_str(&format!(
            "eadt_fleet_sim_seconds_total {}\n",
            self.sim_seconds
        ));
        Self::header(
            &mut out,
            "energy_joules_total",
            "Total end-system energy, Joules.",
            "counter",
        );
        out.push_str(&format!(
            "eadt_fleet_energy_joules_total {}\n",
            self.energy_j
        ));
        Self::header(
            &mut out,
            "energy_joules",
            "Energy by site and phase, Joules.",
            "gauge",
        );
        for (side, sl) in [("src", &self.ledger.src), ("dst", &self.ledger.dst)] {
            for phase in EnergyPhase::ALL {
                out.push_str(&format!(
                    "eadt_fleet_energy_joules{{side=\"{side}\",phase=\"{}\"}} {}\n",
                    phase.as_str(),
                    sl.phase_j(phase)
                ));
            }
        }
        Self::header(
            &mut out,
            "energy_component_joules",
            "Approximate energy by site and hardware component, Joules.",
            "gauge",
        );
        for (side, sl) in [("src", &self.ledger.src), ("dst", &self.ledger.dst)] {
            for (component, j) in [
                ("cpu", sl.cpu_j),
                ("nic", sl.nic_j),
                ("disk", sl.disk_j),
                ("other", sl.other_j),
            ] {
                out.push_str(&format!(
                    "eadt_fleet_energy_component_joules{{side=\"{side}\",component=\"{component}\"}} {j}\n"
                ));
            }
        }
        for h in &self.histograms {
            let name = format!("eadt_fleet_{}", h.name());
            out.push_str(&format!(
                "# HELP {name} Engine histogram {:?}, merged across jobs.\n# TYPE {name} histogram\n",
                h.name()
            ));
            let mut cumulative = 0u64;
            for (i, count) in h.counts().iter().enumerate() {
                cumulative += count;
                let le = match h.bounds().get(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }

    fn header(out: &mut String, name: &str, help: &str, kind: &str) {
        out.push_str(&format!(
            "# HELP eadt_fleet_{name} {help}\n# TYPE eadt_fleet_{name} {kind}\n"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_sim::SimDuration;
    use eadt_telemetry::MetricsRegistry;

    fn outcome(job: usize, values: &[f64]) -> JobOutcome {
        let mut reg = MetricsRegistry::new(SimDuration::from_secs(1));
        let h = reg.histogram("channel_throughput_mbps", &[100.0, 1000.0]);
        for v in values {
            reg.observe(h, *v);
        }
        let mut ledger = EnergyLedger::default();
        *ledger.src.phase_mut(EnergyPhase::Steady) += 10.0 * (job as f64 + 1.0);
        *ledger.dst.phase_mut(EnergyPhase::Probe) += 1.0;
        JobOutcome {
            job,
            label: format!("job-{job}"),
            algorithm: "SC".into(),
            environment: "didclab".into(),
            seed: job as u64,
            completed: true,
            moved_bytes: 100,
            requested_bytes: 100,
            duration_s: 2.0,
            throughput_mbps: 1.0,
            energy_j: ledger.total_j(),
            efficiency: 0.0,
            failures: 1,
            wire_bytes: 120,
            packets: 10,
            retries: 2,
            breaker_opens: 0,
            retransmitted_bytes: 20,
            ledger,
            metrics: Some(reg),
            error_kind: None,
            error: None,
            report: None,
        }
    }

    #[test]
    fn rollup_sums_counters_and_ledgers_in_job_order() {
        let jobs = [outcome(0, &[50.0]), outcome(1, &[500.0, 5000.0])];
        let m = FleetMetrics::rollup(&jobs);
        assert_eq!(m.jobs_total, 2);
        assert_eq!(m.jobs_completed, 2);
        assert_eq!(m.jobs_failed, 0);
        assert_eq!(m.bytes_moved, 200);
        assert_eq!(m.wire_bytes, 240);
        assert_eq!(m.retransmitted_bytes, 40);
        assert_eq!(m.retries, 4);
        assert_eq!(m.failures, 2);
        assert_eq!(m.sim_seconds, 4.0);
        assert_eq!(m.ledger.src.phase_j(EnergyPhase::Steady), 30.0);
        assert_eq!(m.ledger.dst.phase_j(EnergyPhase::Probe), 2.0);
        assert_eq!(m.energy_j, 32.0);
        assert_eq!(m.histograms.len(), 1);
        assert_eq!(m.histograms[0].counts(), [1, 1, 1]);
    }

    #[test]
    fn rollup_histogram_merge_is_associative_across_groupings() {
        // Integer-valued observations keep the f64 sums exact, so any
        // grouping of the same job sequence merges to identical buckets
        // and sums.
        let a = outcome(0, &[50.0, 200.0]);
        let b = outcome(1, &[2000.0]);
        let c = outcome(2, &[70.0, 3000.0, 400.0]);
        let all = FleetMetrics::rollup(&[a.clone(), b.clone(), c.clone()]);

        let mut grouped = FleetMetrics::rollup(&[a, b]);
        grouped.absorb(&c);
        assert_eq!(all, grouped);
        assert_eq!(all.histograms[0].counts(), [2, 2, 2]);
        assert_eq!(all.histograms[0].sum(), 5720.0);
    }

    #[test]
    fn rollup_drops_histograms_with_foreign_bounds() {
        let a = outcome(0, &[50.0]);
        let mut b = outcome(1, &[]);
        let mut foreign = MetricsRegistry::new(SimDuration::from_secs(1));
        let h = foreign.histogram("channel_throughput_mbps", &[1.0, 2.0]);
        foreign.observe(h, 60.0);
        b.metrics = Some(foreign);
        let m = FleetMetrics::rollup(&[a, b]);
        assert_eq!(m.histograms.len(), 1);
        assert_eq!(m.histograms[0].counts(), [1, 0, 0]);
    }

    #[test]
    fn rollup_without_metrics_snapshots_has_no_histograms() {
        let mut a = outcome(0, &[50.0]);
        a.metrics = None;
        let m = FleetMetrics::rollup(&[a]);
        assert!(m.histograms.is_empty());
        assert_eq!(m.jobs_total, 1);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_well_formed() {
        let jobs = [outcome(0, &[50.0]), outcome(1, &[500.0])];
        let m = FleetMetrics::rollup(&jobs);
        let text = m.to_prometheus();
        assert_eq!(text, m.to_prometheus(), "exposition must be stable");
        assert!(text.contains("# TYPE eadt_fleet_jobs_total counter"));
        assert!(text.contains("eadt_fleet_jobs_total 2\n"));
        assert!(text.contains("eadt_fleet_energy_joules{side=\"src\",phase=\"steady\"} 30\n"));
        assert!(text.contains("eadt_fleet_channel_throughput_mbps_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("eadt_fleet_channel_throughput_mbps_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("eadt_fleet_channel_throughput_mbps_count 2\n"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("eadt_fleet_"),
                "unexpected exposition line: {line}"
            );
        }
    }

    #[test]
    fn empty_rollup_renders_zeroes() {
        let m = FleetMetrics::rollup(&[]);
        let text = m.to_prometheus();
        assert!(text.contains("eadt_fleet_jobs_total 0\n"));
        assert!(!text.contains("_bucket"), "no histograms when empty");
    }
}
