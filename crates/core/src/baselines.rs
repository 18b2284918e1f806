//! The energy-agnostic baselines of §3.
//!
//! * [`GlobusUrlCopy`] (GUC) — the stock GridFTP command-line client with
//!   no tuning: pipelining, parallelism and concurrency all 1, channels
//!   landing wherever the site load-balancer puts them.
//! * [`GlobusOnline`] (GO) — the hosted service: fixed file-size
//!   partitions (< 50 MB / 50–250 MB / > 250 MB), fixed parameters
//!   (pipelining 20 for small files, parallelism 2, concurrency 2),
//!   chunks transferred one at a time, channels spread over every
//!   available server.
//! * [`SingleChunk`] (SC) — network-aware parameters per chunk, but chunks
//!   transferred *sequentially*, each with the full user-chosen
//!   concurrency.
//! * [`ProMc`] — Pro-active Multi-Chunk: all chunks concurrently with
//!   weight-proportional channels; the throughput champion.
//! * [`BruteForce`] (BF) — the oracle: runs the full transfer at every
//!   concurrency level and reports the best throughput/energy ratio,
//!   the 100% mark of Figures 2c/3c/4c.
//!
//! [`Manual`] is the hand-tuned client: the whole dataset with explicit
//! pipelining, parallelism and concurrency.

use crate::planner::{chunk_params, weight_allocation};
use crate::{Algorithm, Prepared, RunCtx};
use eadt_dataset::{partition, partition_globus_online, Dataset, PartitionConfig, SizeClass};
use eadt_endsys::Placement;
use eadt_telemetry::Telemetry;
use eadt_transfer::{
    uniform_plan, ChunkPlan, NullController, TransferEnv, TransferParams, TransferPlan,
    TransferReport,
};
use serde::{Deserialize, Serialize};

/// globus-url-copy with no parameter tuning (the paper's base case: "a
/// user without much experience on GridFTP").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GlobusUrlCopy;

impl GlobusUrlCopy {
    /// Creates the untuned client.
    pub fn new() -> Self {
        GlobusUrlCopy
    }
}

impl Algorithm for GlobusUrlCopy {
    fn name(&self) -> &'static str {
        "GUC"
    }

    fn prepare(&self, _env: &TransferEnv, dataset: &Dataset, _tel: &mut Telemetry) -> Prepared {
        let plan = uniform_plan(dataset, TransferParams::BASELINE, Placement::RoundRobin);
        (plan, Box::new(NullController))
    }
}

/// Globus Online's fixed divide-and-transfer strategy (checksum disabled, as in
/// the paper's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GlobusOnline;

impl GlobusOnline {
    /// Creates the GO baseline.
    pub fn new() -> Self {
        GlobusOnline
    }

    /// GO's fixed per-class parameters: (pipelining, parallelism).
    fn params_for(class: SizeClass) -> (u32, u32) {
        match class {
            SizeClass::Small => (20, 2),
            SizeClass::Medium => (5, 2),
            SizeClass::Large => (2, 2),
        }
    }
}

impl Algorithm for GlobusOnline {
    fn name(&self) -> &'static str {
        "GO"
    }

    fn prepare(&self, _env: &TransferEnv, dataset: &Dataset, _tel: &mut Telemetry) -> Prepared {
        let chunks = partition_globus_online(dataset);
        let chunk_plans: Vec<ChunkPlan> = chunks
            .iter()
            .map(|chunk| {
                let (pp, p) = Self::params_for(chunk.class);
                ChunkPlan::from_chunk(chunk, pp, p, 2)
            })
            .collect();
        // GO transfers partitions one by one and spreads its channels over
        // all of the site's servers.
        let plan = TransferPlan::sequential(chunk_plans, Placement::RoundRobin);
        (plan, Box::new(NullController))
    }
}

/// Single-Chunk: network-aware per-chunk parameters, sequential schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleChunk {
    /// Channels used for each chunk in turn (user-chosen, as in the paper).
    pub concurrency: u32,
    /// BDP-relative partitioning thresholds.
    pub partition: PartitionConfig,
}

impl SingleChunk {
    /// SC at a given concurrency level.
    pub fn new(concurrency: u32) -> Self {
        SingleChunk {
            concurrency: concurrency.max(1),
            partition: PartitionConfig::default(),
        }
    }
}

impl Algorithm for SingleChunk {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn prepare(&self, env: &TransferEnv, dataset: &Dataset, _tel: &mut Telemetry) -> Prepared {
        let chunks = partition(dataset, env.link.bdp(), &self.partition);
        let chunk_plans: Vec<ChunkPlan> = chunks
            .iter()
            .map(|chunk| {
                let params = chunk_params(&env.link, chunk);
                ChunkPlan::from_chunk(
                    chunk,
                    params.pipelining,
                    params.parallelism,
                    self.concurrency,
                )
            })
            .collect();
        let plan = TransferPlan::sequential(chunk_plans, Placement::PackFirst);
        (plan, Box::new(NullController))
    }
}

/// Pro-active Multi-Chunk: all chunks concurrently, channels by weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProMc {
    /// Total channels across all chunks (user-chosen).
    pub concurrency: u32,
    /// BDP-relative partitioning thresholds.
    pub partition: PartitionConfig,
    /// Run under a [`FaultAware`](eadt_transfer::FaultAware) wrapper: shed
    /// concurrency while servers are quarantined, re-ramp on recovery (the
    /// static plan is otherwise kept as-is).
    #[serde(default)]
    pub fault_aware: bool,
}

impl ProMc {
    /// ProMC at a given total concurrency.
    pub fn new(concurrency: u32) -> Self {
        ProMc {
            concurrency: concurrency.max(1),
            partition: PartitionConfig::default(),
            fault_aware: false,
        }
    }

    /// Builds ProMC's static plan (shared with BruteForce).
    pub fn plan(&self, env: &TransferEnv, dataset: &Dataset) -> TransferPlan {
        let chunks = partition(dataset, env.link.bdp(), &self.partition);
        let alloc = weight_allocation(&chunks, self.concurrency);
        let chunk_plans: Vec<ChunkPlan> = chunks
            .iter()
            .zip(&alloc)
            .map(|(chunk, &channels)| {
                let params = chunk_params(&env.link, chunk);
                ChunkPlan::from_chunk(chunk, params.pipelining, params.parallelism, channels)
            })
            .collect();
        TransferPlan::concurrent(chunk_plans, Placement::PackFirst)
    }
}

impl Algorithm for ProMc {
    fn name(&self) -> &'static str {
        "ProMC"
    }

    fn prepare(&self, env: &TransferEnv, dataset: &Dataset, _tel: &mut Telemetry) -> Prepared {
        (self.plan(env, dataset), Box::new(NullController))
    }

    fn fault_aware(&self) -> bool {
        self.fault_aware
    }
}

/// Brute-force search over concurrency levels (the paper's BF oracle): a
/// "revised version of the HTEE algorithm in a way that it skips the
/// search phase and runs the transfer with pre-defined concurrency
/// levels", keeping the one with the highest throughput/energy ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BruteForce {
    /// Largest concurrency level tried (20 in the paper).
    pub max_channel: u32,
    /// BDP-relative partitioning thresholds.
    pub partition: PartitionConfig,
}

impl BruteForce {
    /// BF over `1..=max_channel`.
    pub fn new(max_channel: u32) -> Self {
        BruteForce {
            max_channel: max_channel.max(1),
            partition: PartitionConfig::default(),
        }
    }

    /// Runs the full transfer at every concurrency level; returns
    /// `(level, report)` pairs in level order — the data behind the BF
    /// series of Figures 2c/3c/4c.
    pub fn sweep(&self, env: &TransferEnv, dataset: &Dataset) -> Vec<(u32, TransferReport)> {
        (1..=self.max_channel.max(1))
            .map(|cc| {
                let promc = ProMc {
                    concurrency: cc,
                    partition: self.partition,
                    fault_aware: false,
                };
                (cc, promc.run(&mut RunCtx::new(env, dataset)))
            })
            .collect()
    }

    /// The best level and its report, by throughput/energy ratio.
    #[expect(
        clippy::expect_used,
        reason = "BruteForce::best consumes sweep(), whose 1..=max_channel.max(1) range is never empty; restructuring to return Option would push an unreachable error onto every caller"
    )]
    pub fn best(&self, env: &TransferEnv, dataset: &Dataset) -> (u32, TransferReport) {
        self.sweep(env, dataset)
            .into_iter()
            .max_by(|a, b| a.1.efficiency().total_cmp(&b.1.efficiency()))
            .expect("sweep over 1..=max_channel.max(1) yields at least one run")
    }
}

impl Algorithm for BruteForce {
    fn name(&self) -> &'static str {
        "BF"
    }

    /// Runs the sweep (uninstrumented) and plans the winning level as
    /// ProMC, so the journal shows one coherent transfer. The sweep runs
    /// once per planning: once per job, and again only to restore a
    /// checkpoint read back from disk.
    fn prepare(&self, env: &TransferEnv, dataset: &Dataset, tel: &mut Telemetry) -> Prepared {
        let (level, _) = self.best(env, dataset);
        let promc = ProMc {
            concurrency: level,
            partition: self.partition,
            fault_aware: false,
        };
        promc.prepare(env, dataset, tel)
    }
}

/// Manual tuning: the whole dataset as one chunk with explicit
/// pipelining, parallelism and concurrency (a hand-tuned
/// globus-url-copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manual {
    /// The hand-picked parameters.
    pub params: TransferParams,
    /// Run under a [`FaultAware`](eadt_transfer::FaultAware) wrapper.
    pub fault_aware: bool,
}

impl Algorithm for Manual {
    fn name(&self) -> &'static str {
        "manual"
    }

    fn prepare(&self, _env: &TransferEnv, dataset: &Dataset, _tel: &mut Telemetry) -> Prepared {
        let plan = uniform_plan(dataset, self.params, Placement::PackFirst);
        (plan, Box::new(NullController))
    }

    fn fault_aware(&self) -> bool {
        self.fault_aware
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{mixed_dataset, wan_env};

    #[test]
    fn guc_moves_everything_on_one_channel() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let r = GlobusUrlCopy::new().run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        assert_eq!(r.moved_bytes, dataset.total_size());
        assert_eq!(r.concurrency_series.max_value().unwrap(), 1.0);
    }

    #[test]
    fn go_uses_two_channels_flat() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let r = GlobusOnline::new().run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        assert!(r.concurrency_series.max_value().unwrap() <= 2.0);
    }

    #[test]
    fn sc_runs_chunks_sequentially() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let r = SingleChunk::new(6).run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        // Sequential: never more than one chunk's channels at a time.
        assert!(r.concurrency_series.max_value().unwrap() <= 6.0);
    }

    #[test]
    fn promc_outperforms_guc_and_sc() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let promc = ProMc::new(12).run(&mut RunCtx::new(&env, &dataset));
        let guc = GlobusUrlCopy::new().run(&mut RunCtx::new(&env, &dataset));
        let sc = SingleChunk::new(12).run(&mut RunCtx::new(&env, &dataset));
        assert!(
            promc.avg_throughput().as_mbps() > sc.avg_throughput().as_mbps(),
            "promc={} sc={}",
            promc.avg_throughput(),
            sc.avg_throughput()
        );
        assert!(promc.avg_throughput().as_mbps() > 2.0 * guc.avg_throughput().as_mbps());
    }

    #[test]
    fn promc_throughput_rises_with_concurrency() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let lo = ProMc::new(2).run(&mut RunCtx::new(&env, &dataset));
        let hi = ProMc::new(12).run(&mut RunCtx::new(&env, &dataset));
        assert!(
            hi.avg_throughput().as_mbps() > 1.5 * lo.avg_throughput().as_mbps(),
            "hi={} lo={}",
            hi.avg_throughput(),
            lo.avg_throughput()
        );
    }

    #[test]
    fn brute_force_finds_at_least_as_good_a_ratio_as_any_level() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let bf = BruteForce::new(6);
        let sweep = bf.sweep(&env, &dataset);
        assert_eq!(sweep.len(), 6);
        let (_, best) = bf.best(&env, &dataset);
        for (cc, r) in &sweep {
            assert!(
                best.efficiency() >= r.efficiency() - 1e-12,
                "cc={cc}: {} vs best {}",
                r.efficiency(),
                best.efficiency()
            );
        }
    }

    #[test]
    fn all_baselines_conserve_bytes() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let algos: Vec<Box<dyn Algorithm>> = vec![
            Box::new(GlobusUrlCopy::new()),
            Box::new(GlobusOnline::new()),
            Box::new(SingleChunk::new(4)),
            Box::new(ProMc::new(4)),
        ];
        for a in &algos {
            let r = a.run(&mut RunCtx::new(&env, &dataset));
            assert!(r.completed, "{} did not complete", a.name());
            assert_eq!(r.moved_bytes, dataset.total_size(), "{}", a.name());
        }
    }
}
