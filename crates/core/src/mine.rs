//! Algorithm 1 — the Minimum Energy (MinE) transfer algorithm.

use crate::planner::{chunk_params, mine_allocation};
use crate::{Algorithm, Prepared};
use eadt_dataset::{partition, Dataset, PartitionConfig, SizeClass};
use eadt_endsys::Placement;
use eadt_sim::SimTime;
use eadt_telemetry::{Event, Telemetry};
use eadt_transfer::{ChunkPlan, NullController, TransferEnv, TransferPlan};
use serde::{Deserialize, Serialize};

/// Minimum Energy transfer (Algorithm 1).
///
/// Partitions the dataset by BDP, merges undersized chunks, computes
/// per-chunk pipelining/parallelism/concurrency with the closed-form rules
/// of §2.3, and transfers all chunks concurrently. Small chunks get deep
/// pipelines and most of the channels (keeping the network busy and the
/// transfer short, which *is* the energy saving for small files); Large
/// chunks — the dominant energy sink — are pinned to a single channel, with
/// the Multi-Chunk reallocation picking up the slack once smaller chunks
/// drain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinE {
    /// `maxChannel`: the channel budget handed to the allocation rule.
    pub max_channel: u32,
    /// BDP-relative partitioning thresholds.
    pub partition: PartitionConfig,
}

impl MinE {
    /// MinE with the default partitioning.
    pub fn new(max_channel: u32) -> Self {
        MinE {
            max_channel: max_channel.max(1),
            partition: PartitionConfig::default(),
        }
    }

    /// Builds the static transfer plan (exposed for inspection and tests).
    pub fn plan(&self, env: &TransferEnv, dataset: &Dataset) -> TransferPlan {
        let chunks = partition(dataset, env.link.bdp(), &self.partition);
        let alloc = mine_allocation(&chunks, self.max_channel);
        let chunk_plans: Vec<ChunkPlan> = chunks
            .iter()
            .zip(&alloc)
            .map(|(chunk, &channels)| {
                let params = chunk_params(&env.link, chunk);
                let mut plan =
                    ChunkPlan::from_chunk(chunk, params.pipelining, params.parallelism, channels);
                // The energy guard: Large chunks keep one channel for the
                // whole transfer, even when other chunks free theirs.
                plan.accepts_reallocation = chunk.class != SizeClass::Large;
                plan
            })
            .collect();
        TransferPlan::concurrent(chunk_plans, Placement::PackFirst)
    }
}

impl Algorithm for MinE {
    fn name(&self) -> &'static str {
        "MinE"
    }

    fn prepare(&self, env: &TransferEnv, dataset: &Dataset, tel: &mut Telemetry) -> Prepared {
        let plan = self.plan(env, dataset);
        tel.record_with(SimTime::ZERO, || {
            let targets: Vec<u32> = plan.stages[0].chunks.iter().map(|c| c.channels).collect();
            Event::Decision {
                reason: "closed-form plan: Large chunks pinned to one channel".to_string(),
                targets,
            }
        });
        (plan, Box::new(NullController))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{mixed_dataset, wan_env};
    use crate::RunCtx;

    #[test]
    fn plan_pins_large_chunk_to_one_channel() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let plan = MinE::new(12).plan(&env, &dataset);
        assert_eq!(plan.stages.len(), 1, "MinE is multi-chunk (concurrent)");
        let chunks = &plan.stages[0].chunks;
        assert!(chunks.len() >= 2);
        let large = chunks
            .iter()
            .find(|c| c.label == "Large")
            .expect("has a large chunk");
        assert_eq!(large.channels, 1);
        // Small chunk holds the bulk of the allocation.
        let small = chunks
            .iter()
            .find(|c| c.label == "Small")
            .expect("has a small chunk");
        assert!(
            small.channels > large.channels,
            "{:?}",
            chunks
                .iter()
                .map(|c| (&c.label, c.channels))
                .collect::<Vec<_>>()
        );
        assert!(small.pipelining > 1);
        assert_eq!(large.pipelining, 1);
    }

    #[test]
    fn run_completes_and_reports() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let report = MinE::new(8).run(&mut RunCtx::new(&env, &dataset));
        assert!(report.completed);
        assert_eq!(report.moved_bytes, dataset.total_size());
        assert!(report.total_energy_j() > 0.0);
    }

    #[test]
    fn more_channels_do_not_hurt_throughput() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let lo = MinE::new(2).run(&mut RunCtx::new(&env, &dataset));
        let hi = MinE::new(12).run(&mut RunCtx::new(&env, &dataset));
        assert!(
            hi.avg_throughput().as_mbps() >= lo.avg_throughput().as_mbps() * 0.95,
            "hi={} lo={}",
            hi.avg_throughput(),
            lo.avg_throughput()
        );
    }
}
