//! Workload-composition study: how the byte balance between small and
//! large files decides which algorithm wins.
//!
//! The paper's chunking exists because mixed datasets defeat any single
//! parameter combination. This study makes that quantitative: sweep the
//! small-file byte share from 0% to 100% at fixed total volume and watch
//! the winner change — bulk-dominated mixes reward ProMC's channel mass,
//! small-dominated mixes reward pipelining-aware scheduling, and MinE's
//! Large-chunk pin only pays where small files dominate the timeline.

use eadt_core::baselines::{ProMc, SingleChunk};
use eadt_core::{Algorithm, MinE, RunCtx};
use eadt_dataset::{Dataset, DatasetMix, DatasetSpec};
use eadt_sim::Bytes;
use eadt_testbeds::Environment;
use serde::{Deserialize, Serialize};

/// One composition's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRow {
    /// Fraction of the bytes carried by small (sub-BDP) files.
    pub small_share: f64,
    /// (algorithm, throughput Mbps, energy J, efficiency) per contender.
    pub outcomes: Vec<(String, f64, f64, f64)>,
    /// The efficiency winner.
    pub winner: String,
}

/// Builds a dataset of `total` bytes with the given small-file byte share
/// (small: BDP/10-ish files; large: ≫ BDP files).
pub(crate) fn composed_dataset(
    tb: &Environment,
    total: Bytes,
    small_share: f64,
    seed: u64,
) -> Dataset {
    let share = small_share.clamp(0.0, 1.0);
    let bdp = tb.env.link.bdp().as_u64().max(10_000_000);
    let small_total = Bytes((total.as_f64() * share) as u64);
    let large_total = total.saturating_sub(small_total);
    let mut components = Vec::new();
    if !small_total.is_zero() {
        components.push(DatasetSpec::new(
            "small",
            small_total,
            Bytes(bdp / 16),
            Bytes(bdp / 8),
        ));
    }
    if !large_total.is_zero() {
        components.push(DatasetSpec::new(
            "large",
            large_total,
            Bytes(bdp * 4),
            Bytes(bdp * 40),
        ));
    }
    DatasetMix {
        name: format!("small-share {share:.2}"),
        components,
    }
    .generate(seed)
}

/// Sweeps the small-file byte share and records each contender's outcome.
pub fn workload_study(
    tb: &Environment,
    total: Bytes,
    shares: &[f64],
    max_channel: u32,
    seed: u64,
) -> Vec<WorkloadRow> {
    shares
        .iter()
        .map(|&share| {
            let dataset = composed_dataset(tb, total, share, seed);
            let contenders: Vec<(&str, Box<dyn Algorithm>)> = vec![
                (
                    "SC",
                    Box::new(SingleChunk {
                        partition: tb.partition,
                        ..SingleChunk::new(max_channel)
                    }),
                ),
                (
                    "MinE",
                    Box::new(MinE {
                        partition: tb.partition,
                        ..MinE::new(max_channel)
                    }),
                ),
                (
                    "ProMC",
                    Box::new(ProMc {
                        partition: tb.partition,
                        ..ProMc::new(max_channel)
                    }),
                ),
            ];
            let outcomes: Vec<(String, f64, f64, f64)> = contenders
                .into_iter()
                .map(|(name, algo)| {
                    let r = algo.run(&mut RunCtx::new(&tb.env, &dataset));
                    (
                        name.to_string(),
                        r.avg_throughput().as_mbps(),
                        r.total_energy_j(),
                        r.efficiency(),
                    )
                })
                .collect();
            let winner = outcomes
                .iter()
                .max_by(|a, b| a.3.total_cmp(&b.3))
                .map(|o| o.0.clone())
                .expect("non-empty contenders");
            WorkloadRow {
                small_share: share,
                outcomes,
                winner,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_testbeds::xsede;

    #[test]
    fn composed_dataset_hits_the_requested_share() {
        let tb = xsede();
        let d = composed_dataset(&tb, Bytes::from_gb(8), 0.4, 3);
        let bdp = tb.env.link.bdp();
        let small_bytes: u64 = d
            .files()
            .iter()
            .filter(|f| f.size < bdp)
            .map(|f| f.size.as_u64())
            .sum();
        let share = small_bytes as f64 / d.total_size().as_f64();
        assert!((share - 0.4).abs() < 0.15, "share={share}");
    }

    #[test]
    fn extremes_are_single_class() {
        let tb = xsede();
        let bdp = tb.env.link.bdp();
        let all_small = composed_dataset(&tb, Bytes::from_gb(2), 1.0, 1);
        assert!(all_small.files().iter().all(|f| f.size < bdp));
        let all_large = composed_dataset(&tb, Bytes::from_gb(2), 0.0, 1);
        assert!(all_large.files().iter().all(|f| f.size >= bdp));
    }

    #[test]
    fn study_produces_a_row_per_share_with_a_winner() {
        let tb = xsede();
        let rows = workload_study(&tb, Bytes::from_gb(4), &[0.0, 0.5, 1.0], 8, 5);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.outcomes.len(), 3);
            assert!(row.outcomes.iter().any(|o| o.0 == row.winner));
            for (_, thr, e, eff) in &row.outcomes {
                assert!(*thr > 0.0 && *e > 0.0 && *eff > 0.0);
            }
        }
        // On the all-large mix, MinE's pin cannot win throughput.
        let bulk = &rows[0];
        let mine = bulk.outcomes.iter().find(|o| o.0 == "MinE").unwrap();
        let promc = bulk.outcomes.iter().find(|o| o.0 == "ProMC").unwrap();
        assert!(promc.1 >= mine.1, "ProMC {} vs MinE {}", promc.1, mine.1);
    }
}
