//! Algorithm 2 — the High Throughput Energy-Efficient (HTEE) algorithm.

use crate::planner::{weight_allocation_live, Planner};
use crate::{Algorithm, Prepared};
use eadt_dataset::{partition, Chunk, Dataset, PartitionConfig};
use eadt_endsys::Placement;
use eadt_sim::{SimDuration, SimTime};
use eadt_telemetry::{Event, Telemetry};
use eadt_transfer::{
    ChunkPlan, ControlAction, Controller, ControllerSnapshot, SliceCtx, TransferEnv, TransferPlan,
};
use serde::{Deserialize, Serialize};

/// The paper's probe window: each concurrency level is "executed for five
/// second time intervals" (§2.4).
pub(crate) const PROBE_WINDOW: SimDuration = SimDuration::from_secs(5);

/// High Throughput Energy-Efficient transfer (Algorithm 2).
///
/// Same chunking and per-chunk pipelining/parallelism as MinE, but
/// channels are spread across chunks proportionally to
/// `log(size) × log(fileCount)` weights, and the concurrency level is found
/// *online*: the transfer starts at one channel and walks the levels
/// `1, 3, 5, … ≤ maxChannel` (stride two halves the search space), probing
/// each for five seconds; the level with the highest measured
/// throughput/energy ratio carries the rest of the dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Htee {
    /// Upper bound on the concurrency search range.
    pub max_channel: u32,
    /// BDP-relative partitioning thresholds.
    pub partition: PartitionConfig,
    /// Probe window length (the paper's five seconds by default).
    pub probe_window: SimDuration,
    /// Search stride over concurrency levels: 2 in the paper ("halves the
    /// search space"); 1 sweeps every level (ablation knob).
    pub search_stride: usize,
    /// Extension beyond the paper: re-run the probe search every so often
    /// after committing, so the transfer re-tunes when conditions change
    /// (background traffic, faults). `None` (the paper's behaviour) commits
    /// once and never looks back.
    pub reprobe_interval: Option<SimDuration>,
    /// Wrap the search controller in
    /// [`FaultAware`](eadt_transfer::FaultAware): shed concurrency while
    /// servers are quarantined, re-ramp on recovery.
    #[serde(default)]
    pub fault_aware: bool,
}

impl Htee {
    /// HTEE with the paper's defaults.
    pub fn new(max_channel: u32) -> Self {
        Htee {
            max_channel: max_channel.max(1),
            partition: PartitionConfig::default(),
            probe_window: PROBE_WINDOW,
            search_stride: 2,
            reprobe_interval: None,
            fault_aware: false,
        }
    }

    /// The search schedule: 1, 3, 5, … up to `max_channel` (inclusive when
    /// it falls on the stride).
    pub(crate) fn search_levels(&self) -> Vec<u32> {
        (1..=self.max_channel)
            .step_by(self.search_stride.max(1))
            .collect()
    }

    fn chunks(&self, env: &TransferEnv, dataset: &Dataset) -> Vec<Chunk> {
        partition(dataset, env.link.bdp(), &self.partition)
    }
}

impl Algorithm for Htee {
    fn name(&self) -> &'static str {
        "HTEE"
    }

    fn prepare(&self, env: &TransferEnv, dataset: &Dataset, _tel: &mut Telemetry) -> Prepared {
        let chunks = self.chunks(env, dataset);
        let levels = self.search_levels();
        let first_alloc = Planner::new(&env.link).weight_allocation(&chunks, levels[0]);
        let chunk_plans: Vec<ChunkPlan> = chunks
            .iter()
            .zip(&first_alloc)
            .map(|(chunk, &channels)| {
                let params = Planner::new(&env.link).chunk_params(chunk);
                ChunkPlan::from_chunk(chunk, params.pipelining, params.parallelism, channels)
            })
            .collect();
        let plan = TransferPlan::concurrent(chunk_plans, Placement::PackFirst);
        let mut controller = HteeController::new(&chunks, levels, self.probe_window);
        controller.state.reprobe_interval = self.reprobe_interval;
        (plan, Box::new(controller))
    }

    fn fault_aware(&self) -> bool {
        self.fault_aware
    }
}

/// Search state of the online probe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Phase {
    /// Probing `levels[idx]`.
    Searching { idx: usize },
    /// Committed to the winning level (holds the commit time).
    Committed { since: SimTime },
}

/// Snapshot kind tag for [`HteeController`].
pub(crate) const HTEE_KIND: &str = "htee";

/// The run state of [`HteeController`], which is also its checkpoint
/// form (the `data` of its [`ControllerSnapshot`]). Configuration (chunk
/// weights, levels, window) is rebuilt from the algorithm definition on
/// resume and therefore not part of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HteeState {
    phase: Phase,
    window_start: SimTime,
    window_bytes: f64,
    window_energy: f64,
    ratios: Vec<f64>,
    /// Re-probe period after committing (extension; `None` = paper).
    reprobe_interval: Option<SimDuration>,
    /// How many full searches have run (1 = the initial one).
    searches: u32,
    /// The concurrency level the search settled on.
    chosen_level: Option<u32>,
    /// True while a probe-window span is open (capture only).
    span_open: bool,
}

/// The controller implementing HTEE's search phase.
#[derive(Debug, Clone)]
pub struct HteeController {
    /// Per-chunk [`Chunk::weight`]s, in plan order.
    weights: Vec<f64>,
    levels: Vec<u32>,
    window: SimDuration,
    state: HteeState,
    capture: bool,
    events: Vec<Event>,
}

impl HteeController {
    /// Creates the controller for the plan's `chunks`; the engine must
    /// start at `levels[0]`.
    pub fn new(chunks: &[Chunk], levels: Vec<u32>, window: SimDuration) -> Self {
        assert!(!levels.is_empty());
        HteeController {
            weights: chunks.iter().map(Chunk::weight).collect(),
            levels,
            window,
            state: HteeState {
                phase: Phase::Searching { idx: 0 },
                window_start: SimTime::ZERO,
                window_bytes: 0.0,
                window_energy: 0.0,
                ratios: Vec::new(),
                reprobe_interval: None,
                searches: 1,
                chosen_level: None,
                span_open: false,
            },
            capture: false,
            events: Vec::new(),
        }
    }

    /// Opens a probe-window span for `level` (capture only). The façade
    /// assigns the deterministic id.
    fn open_probe_span(&mut self, level: u32) {
        if self.capture {
            self.events.push(Event::SpanBegin {
                id: 0,
                parent: 0,
                kind: "probe".to_string(),
                detail: format!("level {level}"),
            });
            self.state.span_open = true;
        }
    }

    /// Closes the open probe-window span for `level`.
    fn close_probe_span(&mut self, level: u32) {
        if self.capture && self.state.span_open {
            self.events.push(Event::SpanEnd {
                id: 0,
                kind: "probe".to_string(),
                detail: format!("level {level}"),
            });
            self.state.span_open = false;
        }
    }

    /// Scores a probe window by the *whole-transfer* throughput/energy
    /// ratio it projects: moving the remaining bytes `D` at throughput
    /// `thr` with power `P` costs `E = P·D/thr`, so the transfer-level
    /// ratio `thr/E = thr²/(P·D)` is, for a fixed-length window,
    /// proportional to `thr² / window_energy`. Scoring windows by the raw
    /// per-window `thr/energy` would instead reward the *marginal* power
    /// efficiency, which always favours the lowest concurrency.
    fn window_ratio(&self, elapsed: f64) -> f64 {
        if self.state.window_energy <= 0.0 || elapsed <= 0.0 {
            return 0.0;
        }
        let mbps = self.state.window_bytes * 8.0 / elapsed / 1e6;
        mbps * mbps / self.state.window_energy
    }
}

impl Controller for HteeController {
    fn on_slice(&mut self, ctx: &SliceCtx) -> ControlAction {
        let idx = match self.state.phase {
            Phase::Searching { idx } => idx,
            Phase::Committed { since } => {
                // Extension: periodically restart the search so the level
                // tracks changing conditions.
                if let Some(every) = self.state.reprobe_interval {
                    if ctx.now.since(since) >= every {
                        self.state.phase = Phase::Searching { idx: 0 };
                        self.state.ratios.clear();
                        self.state.window_bytes = 0.0;
                        self.state.window_energy = 0.0;
                        self.state.window_start = ctx.now;
                        self.state.searches += 1;
                        let targets = weight_allocation_live(
                            &self.weights,
                            &ctx.live_chunks(),
                            self.levels[0],
                        );
                        if self.capture {
                            self.events.push(Event::Decision {
                                reason: format!(
                                    "re-probe: search {} restarts at level {}",
                                    self.state.searches, self.levels[0]
                                ),
                                targets: targets.clone(),
                            });
                        }
                        self.open_probe_span(self.levels[0]);
                        return ControlAction::Reallocate(targets);
                    }
                }
                return ControlAction::Continue;
            }
        };
        if self.capture && !self.state.span_open {
            // First observed slice of this probe window (covers the very
            // first window, whose start predates any controller event).
            self.open_probe_span(self.levels[idx]);
        }
        self.state.window_bytes += ctx.slice_bytes.as_f64();
        self.state.window_energy += ctx.slice_energy_j;
        let elapsed = ctx.now.since(self.state.window_start);
        if elapsed < self.window {
            return ControlAction::Continue;
        }
        // Window done: score this level.
        let ratio = self.window_ratio(elapsed.as_secs_f64());
        if self.capture {
            let secs = elapsed.as_secs_f64();
            self.events.push(Event::ProbeWindow {
                level: self.levels[idx],
                window_s: secs,
                mbps: self.state.window_bytes * 8.0 / secs / 1e6,
                energy_j: self.state.window_energy,
                ratio,
            });
        }
        self.state.ratios.push(ratio);
        self.close_probe_span(self.levels[idx]);
        self.state.window_bytes = 0.0;
        self.state.window_energy = 0.0;
        self.state.window_start = ctx.now;
        let live = ctx.live_chunks();
        let next = idx + 1;
        if next < self.levels.len() {
            self.state.phase = Phase::Searching { idx: next };
            self.open_probe_span(self.levels[next]);
            ControlAction::Reallocate(weight_allocation_live(
                &self.weights,
                &live,
                self.levels[next],
            ))
        } else {
            // Pick the level with the best throughput/energy ratio.
            let best = self
                .state
                .ratios
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let level = self.levels[best];
            self.state.chosen_level = Some(level);
            self.state.phase = Phase::Committed { since: ctx.now };
            if self.capture {
                self.events.push(Event::Commit {
                    level,
                    reason: format!(
                        "best thr\u{b2}/energy ratio {:.3} across {} probed levels",
                        self.state.ratios[best],
                        self.state.ratios.len()
                    ),
                });
            }
            ControlAction::Reallocate(weight_allocation_live(&self.weights, &live, level))
        }
    }

    /// Searching windows sacrifice throughput to measure: the engine's
    /// energy ledger books them under the `probe` phase.
    fn probing(&self) -> bool {
        matches!(self.state.phase, Phase::Searching { .. })
    }

    fn enable_event_capture(&mut self) {
        self.capture = true;
    }

    fn drain_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// While searching, every slice feeds the probe-window accumulators,
    /// so no slice may be skipped. Once committed the controller is inert
    /// until the re-probe deadline (or forever, without one).
    ///
    /// Covered by the macro-equivalence suite (`tests/macro_equivalence.rs`).
    fn next_decision_in(&self, ctx: &SliceCtx, slice: SimDuration) -> u64 {
        match self.state.phase {
            Phase::Searching { .. } => 0,
            Phase::Committed { since } => match self.state.reprobe_interval {
                None => u64::MAX,
                // Calls at `now + i·slice` stay `Continue` while they land
                // strictly before the re-probe deadline `since + every`.
                Some(every) => (since + every).since(ctx.now).slices_before(slice),
            },
        }
    }

    fn snapshot(&self) -> ControllerSnapshot {
        debug_assert!(
            self.events.is_empty(),
            "snapshot must follow an event drain"
        );
        ControllerSnapshot::of(HTEE_KIND, &self.state)
    }

    fn restore(&mut self, snap: &ControllerSnapshot) -> Result<(), String> {
        let state: HteeState = snap.payload(HTEE_KIND)?;
        if let Phase::Searching { idx } = state.phase {
            if idx >= self.levels.len() {
                return Err(format!(
                    "htee snapshot probes level index {idx}, controller has {} levels",
                    self.levels.len()
                ));
            }
        }
        self.state = state;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{mixed_dataset, wan_env};
    use crate::RunCtx;
    use eadt_transfer::{Engine, RunControl, RunOutcome};

    #[test]
    fn search_levels_stride_two() {
        assert_eq!(Htee::new(12).search_levels(), vec![1, 3, 5, 7, 9, 11]);
        assert_eq!(Htee::new(1).search_levels(), vec![1]);
        assert_eq!(Htee::new(4).search_levels(), vec![1, 3]);
    }

    #[test]
    fn run_completes_and_adapts_concurrency() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let r = Htee::new(8).run(&mut RunCtx::new(&env, &dataset));
        assert!(r.completed);
        assert_eq!(r.moved_bytes, dataset.total_size());
        // The concurrency trace must show more than one level (the search).
        let max = r.concurrency_series.max_value().unwrap();
        assert!(max > 1.0, "search never raised concurrency: max={max}");
    }

    #[test]
    fn htee_beats_single_channel_throughput() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let htee = Htee::new(8).run(&mut RunCtx::new(&env, &dataset));
        let single = crate::baselines::GlobusUrlCopy::new().run(&mut RunCtx::new(&env, &dataset));
        assert!(
            htee.avg_throughput().as_mbps() > single.avg_throughput().as_mbps(),
            "htee={} guc={}",
            htee.avg_throughput(),
            single.avg_throughput()
        );
    }

    #[test]
    fn reprobing_reacts_to_background_traffic() {
        use eadt_transfer::BackgroundTraffic;
        let mut env = wan_env();
        // The link loses 70% of its capacity after the initial search is
        // long done; static HTEE keeps its stale level, re-probing HTEE
        // searches again.
        env.background = Some(BackgroundTraffic::square(
            SimDuration::from_secs(1_000_000),
            SimDuration::from_secs(1_000_000),
            0.7,
        ));
        let dataset = {
            // Big enough that several re-probe periods fit.
            let mut sizes = Vec::new();
            for _ in 0..64 {
                sizes.push(eadt_sim::Bytes::from_mb(400));
            }
            eadt_dataset::Dataset::from_sizes("big", sizes)
        };
        let algo = Htee {
            reprobe_interval: Some(SimDuration::from_secs(30)),
            ..Htee::new(8)
        };
        let chunks = algo.chunks(&env, &dataset);
        let levels = algo.search_levels();
        let first = Planner::new(&env.link).weight_allocation(&chunks, levels[0]);
        let plans: Vec<ChunkPlan> = chunks
            .iter()
            .zip(&first)
            .map(|(c, &ch)| {
                let p = Planner::new(&env.link).chunk_params(c);
                ChunkPlan::from_chunk(c, p.pipelining, p.parallelism, ch)
            })
            .collect();
        let plan = TransferPlan::concurrent(plans, Placement::PackFirst);
        let mut ctl = HteeController::new(&chunks, levels, SimDuration::from_secs(5));
        ctl.state.reprobe_interval = Some(SimDuration::from_secs(30));
        let r = Engine::new(&env).run(&plan, &mut ctl);
        assert!(r.completed);
        assert!(
            ctl.state.searches >= 2,
            "expected at least one re-probe, got {}",
            ctl.state.searches
        );
    }

    #[test]
    fn probe_windows_land_in_journal_with_energy_attribution() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let algo = Htee::new(6);
        let levels = algo.search_levels();
        let mut tel = Telemetry::with_journal();
        let r = algo.run(&mut RunCtx::with_telemetry(&env, &dataset, &mut tel));
        assert!(r.completed);
        let journal = tel.into_journal().unwrap();
        let mut probes = Vec::new();
        let mut commit = None;
        for rec in journal.records() {
            match &rec.event {
                Event::ProbeWindow {
                    level,
                    window_s,
                    mbps,
                    energy_j,
                    ratio,
                } => probes.push((*level, *window_s, *mbps, *energy_j, *ratio)),
                Event::Commit { level, .. } => commit = Some(*level),
                _ => {}
            }
        }
        // One five-second probe per search level, in search order.
        let probed: Vec<u32> = probes.iter().map(|p| p.0).collect();
        assert_eq!(probed, levels);
        for &(level, window_s, mbps, energy_j, ratio) in &probes {
            assert!(
                (window_s - PROBE_WINDOW.as_secs_f64()).abs() < 0.11,
                "probe for level {level} ran {window_s}s"
            );
            assert!(mbps > 0.0, "level {level} measured no throughput");
            assert!(energy_j > 0.0, "level {level} has no energy attributed");
            let expect = mbps * mbps / energy_j;
            assert!(
                (ratio - expect).abs() <= 1e-9 * expect,
                "level {level}: ratio {ratio} vs thr\u{b2}/E {expect}"
            );
        }
        // The committed level is the one with the best measured ratio.
        let best = probes
            .iter()
            .max_by(|a, b| a.4.partial_cmp(&b.4).unwrap())
            .unwrap();
        assert_eq!(commit, Some(best.0), "commit must match best ratio");
    }

    #[test]
    fn controller_scores_every_level() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let algo = Htee::new(6);
        let chunks = algo.chunks(&env, &dataset);
        let levels = algo.search_levels();
        let n_levels = levels.len();
        let first = Planner::new(&env.link).weight_allocation(&chunks, levels[0]);
        let plans: Vec<ChunkPlan> = chunks
            .iter()
            .zip(&first)
            .map(|(c, &ch)| {
                let p = Planner::new(&env.link).chunk_params(c);
                ChunkPlan::from_chunk(c, p.pipelining, p.parallelism, ch)
            })
            .collect();
        let plan = TransferPlan::concurrent(plans, Placement::PackFirst);
        let mut ctl = HteeController::new(&chunks, levels, SimDuration::from_secs(5));
        let _ = Engine::new(&env).run(&plan, &mut ctl);
        assert_eq!(ctl.state.ratios.len(), n_levels, "{:?}", ctl.state.ratios);
        assert!(ctl.state.chosen_level.is_some());
    }

    #[test]
    fn checkpointed_state_is_pinned_mid_search_and_after_commit() {
        let env = wan_env();
        let dataset = mixed_dataset();
        let mid_search = "{\"chosen_level\":null,\"phase\":{\"Searching\":{\"idx\":0}},\
            \"ratios\":[],\"reprobe_interval\":null,\"searches\":1,\"span_open\":false,\
            \"window_bytes\":402000000.0,\"window_energy\":24.75031073684211,\
            \"window_start\":{\"micros\":0}}";
        let committed = "{\"chosen_level\":5,\"phase\":{\"Committed\":{\"since\":\
            {\"micros\":15000000}}},\"ratios\":[19696.639022261013,57143.58287349285,\
            102002.22750014791],\"reprobe_interval\":null,\"searches\":1,\"span_open\":false,\
            \"window_bytes\":0.0,\"window_energy\":0.0,\"window_start\":{\"micros\":15000000}}";
        for (halt, data) in [(42, mid_search), (200, committed)] {
            let ctl = RunControl::halt_at(halt);
            let RunOutcome::Halted(ck) =
                Htee::new(6).run_controlled(&mut RunCtx::new(&env, &dataset), ctl)
            else {
                panic!("the run ended before slice {halt}");
            };
            assert_eq!(ck.controller.kind, HTEE_KIND);
            assert_eq!(ck.controller.data, data);
            // A fresh controller restored from it snapshots the same bytes.
            let (_, mut fresh) = Htee::new(6).prepare(&env, &dataset, &mut Telemetry::disabled());
            fresh.restore(&ck.controller).unwrap();
            assert_eq!(fresh.snapshot(), ck.controller);
        }
        // A probe index past the controller's levels is refused.
        let (_, mut fresh) = Htee::new(6).prepare(&env, &dataset, &mut Telemetry::disabled());
        let foreign = ControllerSnapshot {
            kind: HTEE_KIND.to_string(),
            data: mid_search.replace("\"idx\":0", "\"idx\":3"),
        };
        assert!(fresh.restore(&foreign).is_err());
    }
}
