//! Engine unit tests (split out of `mod.rs` for navigability).

use super::*;
use crate::control::NullController;
use crate::plan::{ChunkPlan, TransferPlan};
use eadt_endsys::{DiskSubsystem, Placement, ServerSpec, Site, UtilizationCoeffs};
use eadt_net::link::Link;
use eadt_net::packets::PacketModel;
use eadt_net::tcp::CongestionModel;
use eadt_power::FineGrainedModel;
use eadt_sim::Rate;

fn wan_env() -> TransferEnv {
    let server = ServerSpec::new(
        "dtn",
        4,
        115.0,
        Rate::from_gbps(10.0),
        DiskSubsystem::Array {
            per_access: Rate::from_gbps(2.4),
            aggregate: Rate::from_gbps(7.6),
        },
    );
    TransferEnv {
        link: Link::new(
            Rate::from_gbps(10.0),
            SimDuration::from_millis(40),
            Bytes::from_mb(32),
        ),
        src: Site::new("src", vec![server.clone(); 4]),
        dst: Site::new("dst", vec![server; 4]),
        util: UtilizationCoeffs::default(),
        power: FineGrainedModel::paper_default(),
        congestion: CongestionModel::default(),
        packets: PacketModel::default(),
        tuning: crate::env::EngineTuning::default(),
        faults: None,
        background: None,
        estimator: None,
    }
}

/// Expands per-server channel counts into a per-channel server index.
fn assign_servers(counts: &[u32]) -> Vec<usize> {
    let mut out = Vec::new();
    assign_servers_into(counts, &mut out);
    out
}

fn files(n: u32, mb: u64) -> Vec<FileSpec> {
    (0..n)
        .map(|i| FileSpec::new(i, Bytes::from_mb(mb)))
        .collect()
}

fn simple_plan(n: u32, mb: u64, pp: u32, p: u32, cc: u32) -> TransferPlan {
    let cp = ChunkPlan {
        label: "chunk".into(),
        files: files(n, mb),
        pipelining: pp,
        parallelism: p,
        channels: cc,
        accepts_reallocation: true,
    };
    TransferPlan::concurrent(vec![cp], Placement::PackFirst)
}

#[test]
fn completes_and_conserves_bytes() {
    let env = wan_env();
    let plan = simple_plan(10, 100, 4, 2, 4);
    let r = Engine::new(&env).run(&plan, &mut NullController);
    assert!(r.completed);
    assert_eq!(r.moved_bytes, Bytes::from_mb(1000));
    assert_eq!(r.requested_bytes, r.moved_bytes);
    assert!(r.duration.as_secs_f64() > 0.0);
}

#[test]
fn is_deterministic() {
    let env = wan_env();
    let plan = simple_plan(20, 50, 4, 2, 6);
    let a = Engine::new(&env).run(&plan, &mut NullController);
    let b = Engine::new(&env).run(&plan, &mut NullController);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.total_energy_j(), b.total_energy_j());
    assert_eq!(a.packets, b.packets);
}

#[test]
fn throughput_close_to_channel_cap_for_one_big_file() {
    let env = wan_env();
    // One 10 GB file, 1 channel, 2 streams → cap = 800 Mbps.
    let plan = simple_plan(1, 10_000, 1, 2, 1);
    let r = Engine::new(&env).run(&plan, &mut NullController);
    let thr = r.avg_throughput().as_mbps();
    assert!((760.0..=800.0).contains(&thr), "thr={thr}");
}

#[test]
fn more_channels_more_throughput_on_wan() {
    let env = wan_env();
    let slow = Engine::new(&env).run(&simple_plan(16, 2_000, 1, 2, 1), &mut NullController);
    let fast = Engine::new(&env).run(&simple_plan(16, 2_000, 1, 2, 8), &mut NullController);
    assert!(
        fast.avg_throughput().as_mbps() > 4.0 * slow.avg_throughput().as_mbps(),
        "{} vs {}",
        fast.avg_throughput(),
        slow.avg_throughput()
    );
}

#[test]
fn pipelining_helps_small_files() {
    let env = wan_env();
    // 2000 × 1 MB files: per-file gap dominates without pipelining.
    let no_pp = Engine::new(&env).run(&simple_plan(2000, 1, 1, 1, 2), &mut NullController);
    let pp = Engine::new(&env).run(&simple_plan(2000, 1, 10, 1, 2), &mut NullController);
    assert!(
        pp.avg_throughput().as_mbps() > 1.5 * no_pp.avg_throughput().as_mbps(),
        "{} vs {}",
        pp.avg_throughput(),
        no_pp.avg_throughput()
    );
    assert!(pp.duration < no_pp.duration);
}

#[test]
fn parallelism_raises_single_channel_rate() {
    let env = wan_env();
    let p1 = Engine::new(&env).run(&simple_plan(2, 5_000, 1, 1, 1), &mut NullController);
    let p4 = Engine::new(&env).run(&simple_plan(2, 5_000, 1, 4, 1), &mut NullController);
    assert!(
        p4.avg_throughput().as_mbps() > 2.5 * p1.avg_throughput().as_mbps(),
        "{} vs {}",
        p4.avg_throughput(),
        p1.avg_throughput()
    );
}

#[test]
fn energy_is_positive_and_split_across_sites() {
    let env = wan_env();
    let r = Engine::new(&env).run(&simple_plan(4, 500, 1, 2, 2), &mut NullController);
    assert!(r.src_energy_j > 0.0);
    assert!(r.dst_energy_j > 0.0);
    assert!(r.total_energy_j() > r.src_energy_j);
}

#[test]
fn sequential_stages_run_one_after_another() {
    let env = wan_env();
    let c1 = ChunkPlan {
        label: "a".into(),
        files: files(4, 200),
        pipelining: 1,
        parallelism: 2,
        channels: 2,
        accepts_reallocation: true,
    };
    let c2 = ChunkPlan {
        label: "b".into(),
        ..c1.clone()
    };
    let seq = TransferPlan::sequential(vec![c1.clone(), c2.clone()], Placement::PackFirst);
    let conc = TransferPlan::concurrent(vec![c1, c2], Placement::PackFirst);
    let rs = Engine::new(&env).run(&seq, &mut NullController);
    let rc = Engine::new(&env).run(&conc, &mut NullController);
    assert!(rs.completed && rc.completed);
    assert_eq!(rs.moved_bytes, rc.moved_bytes);
    // Concurrent multi-chunk uses 4 channels at once and finishes faster.
    assert!(
        rc.duration < rs.duration,
        "{} vs {}",
        rc.duration,
        rs.duration
    );
}

#[test]
fn reallocation_moves_channels_to_surviving_chunk() {
    let env = wan_env();
    // Tiny chunk finishes quickly; its channels should migrate.
    let tiny = ChunkPlan {
        label: "tiny".into(),
        files: files(1, 10),
        pipelining: 1,
        parallelism: 2,
        channels: 4,
        accepts_reallocation: true,
    };
    let big = ChunkPlan {
        label: "big".into(),
        files: files(4, 2_000),
        pipelining: 1,
        parallelism: 2,
        channels: 1,
        accepts_reallocation: true,
    };
    let with = TransferPlan::concurrent(vec![tiny.clone(), big.clone()], Placement::PackFirst);
    let without = TransferPlan {
        reallocate_on_completion: false,
        ..with.clone()
    };
    let rw = Engine::new(&env).run(&with, &mut NullController);
    let ro = Engine::new(&env).run(&without, &mut NullController);
    assert!(
        rw.duration < ro.duration,
        "{} vs {}",
        rw.duration,
        ro.duration
    );
}

#[test]
fn controller_can_change_concurrency() {
    struct Bump;
    impl Controller for Bump {
        fn on_slice(&mut self, ctx: &SliceCtx) -> ControlAction {
            if ctx.now.as_secs_f64() > 2.0 && ctx.total_channels() < 8 {
                ControlAction::Reallocate(vec![8])
            } else {
                ControlAction::Continue
            }
        }
    }
    let env = wan_env();
    let plan = simple_plan(32, 1_000, 1, 2, 1);
    let r = Engine::new(&env).run(&plan, &mut Bump);
    assert!(r.completed);
    let max_cc = r.concurrency_series.max_value().unwrap();
    assert!((max_cc - 8.0).abs() < 1e-9, "max_cc={max_cc}");
    // And it beats staying at 1 channel.
    let static_r = Engine::new(&env).run(&plan, &mut NullController);
    assert!(r.duration < static_r.duration);
}

#[test]
fn zeroed_controller_targets_do_not_deadlock() {
    struct Zero;
    impl Controller for Zero {
        fn on_slice(&mut self, _: &SliceCtx) -> ControlAction {
            ControlAction::Reallocate(vec![0])
        }
    }
    let mut env = wan_env();
    env.tuning.max_duration = SimDuration::from_secs(3600);
    let plan = simple_plan(2, 100, 1, 2, 2);
    let r = Engine::new(&env).run(&plan, &mut Zero);
    // The engine forces one channel back, so the transfer completes.
    assert!(
        r.completed,
        "moved {} of {}",
        r.moved_bytes, r.requested_bytes
    );
}

#[test]
fn time_guard_reports_incomplete() {
    let mut env = wan_env();
    env.tuning.max_duration = SimDuration::from_secs(1);
    let plan = simple_plan(4, 10_000, 1, 2, 1);
    let r = Engine::new(&env).run(&plan, &mut NullController);
    assert!(!r.completed);
    assert!(r.moved_bytes < r.requested_bytes);
}

#[test]
fn round_robin_spreads_load_across_servers() {
    let env = wan_env();
    let mut plan = simple_plan(8, 1_000, 1, 2, 4);
    plan.placement = Placement::RoundRobin;
    let rr = Engine::new(&env).run(&plan, &mut NullController);
    let mut plan2 = simple_plan(8, 1_000, 1, 2, 4);
    plan2.placement = Placement::PackFirst;
    let pf = Engine::new(&env).run(&plan2, &mut NullController);
    // Spreading wakes 4 servers → more base power → more energy.
    assert!(
        rr.total_energy_j() > pf.total_energy_j(),
        "rr={} pf={}",
        rr.total_energy_j(),
        pf.total_energy_j()
    );
}

#[test]
fn single_disk_contention_degrades_throughput() {
    let single = ServerSpec::new(
        "ws",
        4,
        84.0,
        Rate::from_gbps(1.0),
        DiskSubsystem::Single {
            rate: Rate::from_mbps(700.0),
            contention_penalty: 0.18,
        },
    );
    let mut env = wan_env();
    env.link = Link::new(
        Rate::from_gbps(1.0),
        SimDuration::from_micros(200),
        Bytes::from_mb(32),
    );
    env.src = Site::new("ws9", vec![single.clone()]);
    env.dst = Site::new("ws6", vec![single]);
    env.tuning.wan_stream_cap = Rate::from_gbps(1.0);
    let c1 = Engine::new(&env).run(&simple_plan(8, 500, 1, 1, 1), &mut NullController);
    let c8 = Engine::new(&env).run(&simple_plan(8, 500, 1, 1, 8), &mut NullController);
    assert!(
        c8.avg_throughput().as_mbps() < c1.avg_throughput().as_mbps(),
        "{} vs {}",
        c8.avg_throughput(),
        c1.avg_throughput()
    );
}

#[test]
fn wire_bytes_at_least_goodput() {
    let env = wan_env();
    let r = Engine::new(&env).run(&simple_plan(4, 500, 1, 2, 2), &mut NullController);
    assert!(r.wire_bytes >= r.moved_bytes);
    assert!(r.packets > 0);
}

#[test]
fn advance_channel_respects_gap_and_grant() {
    let mut ch = ChannelSoA::default();
    ch.insert_fresh(0, 0, SimDuration::from_millis(50), None);
    let mut q: VecDeque<FileSnapshot> =
        vec![FileSnapshot::fresh(FileSpec::new(0, Bytes::from_mb(100)))].into();
    let mut in_flight = 0u32;
    // 100 ms slice, 50 ms gap → 50 ms of transfer at 800 Mbps = 5 MB.
    let moved = advance_channel(
        &mut ch,
        0,
        &mut q,
        &mut in_flight,
        Rate::from_mbps(800.0),
        SimDuration::from_millis(100),
        SimDuration::from_millis(40),
    );
    assert_eq!(moved, Bytes::from_mb(5));
    assert!(ch.gap[0].is_zero());
    assert!(ch.has_file[0]);
    assert_eq!(in_flight, 1);
}

#[test]
fn advance_channel_chains_small_files_with_gaps() {
    let mut ch = ChannelSoA::default();
    ch.insert_fresh(0, 0, SimDuration::ZERO, None);
    let mut q: VecDeque<FileSnapshot> = (0..100)
        .map(|i| FileSnapshot::fresh(FileSpec::new(i, Bytes::from_kb(100))))
        .collect();
    let mut in_flight = 0u32;
    // grant 800 Mbps → 100 KB file takes 1 ms; pp=1 → 40 ms gap each.
    let moved = advance_channel(
        &mut ch,
        0,
        &mut q,
        &mut in_flight,
        Rate::from_mbps(800.0),
        SimDuration::from_millis(100),
        SimDuration::from_millis(40),
    );
    // ~2.4 files fit in 100 ms (1 + 40 ms each): 2 complete + partial.
    assert!(
        moved >= Bytes::from_kb(200) && moved < Bytes::from_kb(400),
        "{moved}"
    );
    // With pipelining 40 the gap is 1 ms → ~50 files fit.
    let mut ch2 = ChannelSoA::default();
    ch2.insert_fresh(0, 0, SimDuration::ZERO, None);
    let mut q2: VecDeque<FileSnapshot> = (0..100)
        .map(|i| FileSnapshot::fresh(FileSpec::new(i, Bytes::from_kb(100))))
        .collect();
    let mut in_flight2 = 0u32;
    let moved2 = advance_channel(
        &mut ch2,
        0,
        &mut q2,
        &mut in_flight2,
        Rate::from_mbps(800.0),
        SimDuration::from_millis(100),
        SimDuration::from_millis(1),
    );
    assert!(moved2.as_u64() > moved.as_u64() * 10, "{moved2} vs {moved}");
}

#[test]
fn sync_channels_preserves_in_flight_progress() {
    // Two busy channels (3 MB and 7 MB left of 10 MB files), target 1:
    // the shrink must return the last channel's file — with its progress —
    // to the queue, not drop it.
    let mut ch = ChannelSoA::default();
    for (pos, rem_mb) in [(0usize, 3u64), (1, 7)] {
        ch.insert_fresh(pos, 0, SimDuration::ZERO, None);
        ch.has_file[pos] = true;
        ch.file_size[pos] = Bytes::from_mb(10);
        ch.file_remaining[pos] = Bytes::from_mb(rem_mb);
    }
    let mut queue: VecDeque<FileSnapshot> = VecDeque::new();
    let mut len = 2usize;
    let mut in_flight = 2u32;
    sync_chunk_channels(
        &mut ch,
        0,
        &mut len,
        &mut in_flight,
        &mut queue,
        0,
        1,
        SimDuration::from_millis(40),
        || None,
    );
    assert_eq!(len, 1);
    assert_eq!(ch.len(), 1);
    assert_eq!(queue.len(), 1);
    assert_eq!(in_flight, 1);
    let queued: Bytes = queue.iter().map(|f| f.remaining).sum();
    let flight: Bytes = (0..len)
        .filter(|&i| ch.has_file[i])
        .map(|i| ch.file_remaining[i])
        .sum();
    assert_eq!(queued + flight, Bytes::from_mb(10));
}

#[test]
fn fault_injection_slows_but_conserves_bytes() {
    let mut env = wan_env();
    env.faults = Some(crate::faults::FaultModel::new(SimDuration::from_secs(10), 7).into());
    let plan = simple_plan(8, 1_000, 1, 2, 4);
    let faulty = Engine::new(&env).run(&plan, &mut NullController);
    env.faults = None;
    let clean = Engine::new(&env).run(&plan, &mut NullController);
    assert!(faulty.completed);
    assert_eq!(faulty.moved_bytes, clean.moved_bytes);
    assert!(faulty.failures > 0, "10 s MTBF over a ~20 s run must fail");
    assert!(
        faulty.duration > clean.duration,
        "failures cost time: {} vs {}",
        faulty.duration,
        clean.duration
    );
}

#[test]
fn fault_injection_is_deterministic() {
    let mut env = wan_env();
    env.faults = Some(crate::faults::FaultModel::new(SimDuration::from_secs(15), 3).into());
    let plan = simple_plan(6, 800, 1, 2, 3);
    let a = Engine::new(&env).run(&plan, &mut NullController);
    let b = Engine::new(&env).run(&plan, &mut NullController);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.duration, b.duration);
}

#[test]
fn background_traffic_reduces_throughput() {
    let mut env = wan_env();
    let plan = simple_plan(8, 2_000, 1, 2, 8);
    let clean = Engine::new(&env).run(&plan, &mut NullController);
    env.background = Some(crate::faults::BackgroundTraffic::square(
        SimDuration::from_secs(10),
        SimDuration::from_secs(10), // always on
        0.5,
    ));
    let busy = Engine::new(&env).run(&plan, &mut NullController);
    assert!(busy.completed);
    assert!(
        busy.avg_throughput().as_mbps() < clean.avg_throughput().as_mbps(),
        "{} vs {}",
        busy.avg_throughput(),
        clean.avg_throughput()
    );
}

#[test]
fn chunk_stats_cover_all_chunks_with_completion_times() {
    let env = wan_env();
    let c1 = ChunkPlan {
        label: "fast".into(),
        files: files(2, 100),
        pipelining: 1,
        parallelism: 2,
        channels: 2,
        accepts_reallocation: true,
    };
    let c2 = ChunkPlan {
        label: "slow".into(),
        files: files(4, 2_000),
        pipelining: 1,
        parallelism: 2,
        channels: 2,
        accepts_reallocation: true,
    };
    let plan = TransferPlan::concurrent(vec![c1, c2], Placement::PackFirst);
    let r = Engine::new(&env).run(&plan, &mut NullController);
    assert!(r.completed);
    assert_eq!(r.chunk_stats.len(), 2);
    let fast = r.chunk_stats.iter().find(|c| c.label == "fast").unwrap();
    let slow = r.chunk_stats.iter().find(|c| c.label == "slow").unwrap();
    assert_eq!(fast.bytes, Bytes::from_mb(200));
    assert_eq!(slow.files, 4);
    let tf = fast.completed_at.expect("fast chunk finished");
    let ts = slow.completed_at.expect("slow chunk finished");
    assert!(tf < ts, "fast {tf} should finish before slow {ts}");
    assert!(ts <= r.duration);
}

#[test]
fn incomplete_run_leaves_chunk_unstamped() {
    let mut env = wan_env();
    env.tuning.max_duration = SimDuration::from_secs(1);
    let plan = simple_plan(4, 10_000, 1, 2, 1);
    let r = Engine::new(&env).run(&plan, &mut NullController);
    assert!(!r.completed);
    assert_eq!(r.chunk_stats.len(), 1);
    assert!(r.chunk_stats[0].completed_at.is_none());
}

#[test]
fn estimator_tracks_reference_energy() {
    use eadt_power::{CpuOnlyModel, PowerModelKind};
    let mut env = wan_env();
    // A CPU-only estimator calibrated against the same machines: its
    // weight folds the non-CPU share into the CPU predictor (the
    // engine's CPU utilization dominates power on these testbeds).
    env.estimator = Some(PowerModelKind::CpuOnly(CpuOnlyModel::local(1.35, 115.0)));
    let plan = simple_plan(8, 500, 2, 2, 4);
    let r = Engine::new(&env).run(&plan, &mut NullController);
    let est = r.estimated_energy_j.expect("estimator configured");
    assert!(est > 0.0);
    let err = (est - r.total_energy_j()).abs() / r.total_energy_j();
    assert!(
        err < 0.5,
        "estimate {est} vs actual {} (err {err})",
        r.total_energy_j()
    );
    // Without an estimator the field is absent.
    env.estimator = None;
    let r2 = Engine::new(&env).run(&plan, &mut NullController);
    assert_eq!(r2.estimated_energy_j, None);
}

#[test]
fn fine_grained_estimator_matches_reference_exactly() {
    use eadt_power::PowerModelKind;
    let mut env = wan_env();
    env.estimator = Some(PowerModelKind::FineGrained(env.power));
    let plan = simple_plan(4, 300, 1, 1, 2);
    let r = Engine::new(&env).run(&plan, &mut NullController);
    let est = r.estimated_energy_j.unwrap();
    assert!(
        (est - r.total_energy_j()).abs() < 1e-6,
        "identical models must agree: {est} vs {}",
        r.total_energy_j()
    );
}

#[test]
fn assign_servers_expands_counts() {
    assert_eq!(assign_servers(&[2, 0, 1]), vec![0, 0, 2]);
    assert!(assign_servers(&[0, 0]).is_empty());
}

#[test]
fn controller_sees_stage_indices_in_sequential_plans() {
    struct StageRecorder {
        seen: Vec<usize>,
    }
    impl Controller for StageRecorder {
        fn on_slice(&mut self, ctx: &SliceCtx) -> ControlAction {
            if self.seen.last() != Some(&ctx.stage) {
                self.seen.push(ctx.stage);
            }
            ControlAction::Continue
        }
    }
    let env = wan_env();
    let c1 = ChunkPlan {
        label: "a".into(),
        files: files(2, 200),
        pipelining: 1,
        parallelism: 2,
        channels: 2,
        accepts_reallocation: true,
    };
    let c2 = ChunkPlan {
        label: "b".into(),
        ..c1.clone()
    };
    let plan = TransferPlan::sequential(vec![c1, c2], Placement::PackFirst);
    let mut rec = StageRecorder { seen: Vec::new() };
    let r = Engine::new(&env).run(&plan, &mut rec);
    assert!(r.completed);
    assert_eq!(rec.seen, vec![0, 1], "stages must run in order");
}

#[test]
fn apply_disk_fairness_shapes_within_each_server_only() {
    // Two servers: the first holds two contending channels, the second one
    // unconstrained channel. Shaping must squeeze only the first pair.
    let mut demands = vec![
        Rate::from_mbps(600.0),
        Rate::from_mbps(600.0),
        Rate::from_mbps(600.0),
    ];
    let assign = vec![0usize, 0, 1];
    let counts = vec![2u32, 1];
    apply_disk_fairness(
        &mut demands,
        &assign,
        &counts,
        &mut DiskScratch::default(),
        |srv| {
            if srv == 0 {
                Rate::from_mbps(800.0)
            } else {
                Rate::from_gbps(10.0)
            }
        },
    );
    assert!((demands[0].as_mbps() - 400.0).abs() < 1e-6, "{:?}", demands);
    assert!((demands[1].as_mbps() - 400.0).abs() < 1e-6);
    assert!((demands[2].as_mbps() - 600.0).abs() < 1e-6);
}

#[test]
fn busiest_chunk_respects_pinning() {
    let mk = |bytes_mb: u64, pinned: bool| ChunkState {
        label: "c".into(),
        pipelining: 1,
        parallelism: 1,
        accepts_reallocation: !pinned,
        total_bytes: Bytes::from_mb(bytes_mb),
        file_count: 1,
        completed_at: None,
        avg_file: Bytes::from_mb(bytes_mb),
        queue: vec![FileSnapshot::fresh(FileSpec::new(
            0,
            Bytes::from_mb(bytes_mb),
        ))]
        .into(),
        target: 1,
    };
    let chunks = vec![mk(100, false), mk(900, true)];
    let in_flight = [0u32, 0];
    let remaining = [Bytes::from_mb(100), Bytes::from_mb(900)];
    // With pinning respected, the smaller unpinned chunk wins.
    assert_eq!(
        busiest_chunk(&chunks, &in_flight, &remaining, true),
        Some(0)
    );
    // As a liveness guard, the truly busiest chunk is chosen.
    assert_eq!(
        busiest_chunk(&chunks, &in_flight, &remaining, false),
        Some(1)
    );
}

#[test]
fn more_channels_never_hurt_across_seeds() {
    // Channel count must never materially reduce WAN throughput, whatever
    // the dataset draw (small draws can be bound by one straggler file, in
    // which case extra channels are merely useless).
    use eadt_endsys::Placement;
    let env = wan_env();
    for seed in [1u64, 2, 3] {
        let dataset = eadt_dataset::paper_dataset_10g()
            .scaled(0.05)
            .generate(seed);
        let chunks = eadt_dataset::partition(&dataset, env.link.bdp(), &Default::default());
        // A ProMC-like 8-channel plan vs a 2-channel one.
        let plan_of = |per_chunk: u32| {
            let plans: Vec<ChunkPlan> = chunks
                .iter()
                .map(|c| ChunkPlan::from_chunk(c, 4, 2, per_chunk))
                .collect();
            TransferPlan::concurrent(plans, Placement::PackFirst)
        };
        let few = Engine::new(&env).run(&plan_of(1), &mut NullController);
        let many = Engine::new(&env).run(&plan_of(4), &mut NullController);
        assert!(few.completed && many.completed, "seed {seed}");
        assert!(
            many.avg_throughput().as_mbps() > few.avg_throughput().as_mbps() * 0.95,
            "seed {seed}: more channels must not be slower"
        );
    }
}

// ---- checkpoint / restore (DESIGN.md §13) ----

use eadt_telemetry::Journal;

/// Runs `plan` to completion while killing it at every `every`-slice
/// boundary, round-tripping each checkpoint through JSON, and returns the
/// final report plus the concatenated journal segments.
fn run_with_kills(
    env: &TransferEnv,
    plan: &TransferPlan,
    controller: &mut dyn Controller,
    every: u64,
    telemetry: bool,
) -> (TransferReport, String) {
    let engine = Engine::new(env);
    let mut journal_out = String::new();
    let mut ctl = RunControl::halt_at(every);
    let mut tel = if telemetry {
        Telemetry::enabled(SimDuration::from_millis(500))
    } else {
        Telemetry::disabled()
    };
    loop {
        match engine.run_controlled(plan, controller, &mut tel, ctl) {
            RunOutcome::Done(report) => {
                if let Some(j) = tel.journal() {
                    journal_out.push_str(&j.to_jsonl());
                }
                return (report, journal_out);
            }
            RunOutcome::Halted(ck) => {
                // Serialize / reparse: the JSON transport must be lossless.
                let ck = EngineCheckpoint::from_json(&ck.to_json()).expect("round trip");
                if let Some(j) = tel.journal() {
                    journal_out.push_str(&j.to_jsonl());
                    tel = Telemetry::from_parts(
                        Some(Journal::with_start_seq(ck.journal_seq)),
                        Some(MetricsRegistry::new(SimDuration::from_millis(500))),
                    );
                }
                let next_halt = ck.slices_done + every;
                ctl = RunControl::resume_from(ck).with_halt(next_halt);
            }
        }
    }
}

#[test]
fn halt_resume_matches_uninterrupted_run() {
    let env = wan_env();
    let plan = simple_plan(6, 400, 2, 2, 3);
    let baseline = Engine::new(&env).run(&plan, &mut NullController);
    for every in [1u64, 3, 17, 1000] {
        let (resumed, _) = run_with_kills(&env, &plan, &mut NullController, every, false);
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&resumed).unwrap(),
            "kill every {every} slices must be invisible"
        );
    }
}

#[test]
fn halt_resume_with_faults_and_telemetry_is_bit_identical() {
    let mut env = wan_env();
    env.faults = Some(crate::faults::FaultModel::new(SimDuration::from_secs(10), 7).into());
    let plan = simple_plan(8, 500, 1, 2, 4);

    let mut tel = Telemetry::enabled(SimDuration::from_millis(500));
    let baseline = Engine::new(&env).run_instrumented(&plan, &mut NullController, &mut tel);
    let full_journal = tel.journal().unwrap().to_jsonl();
    let full_metrics = tel.metrics_ref().unwrap().clone();

    let (resumed, stitched) = run_with_kills(&env, &plan, &mut NullController, 5, true);
    assert_eq!(
        serde_json::to_string(&baseline).unwrap(),
        serde_json::to_string(&resumed).unwrap()
    );
    assert_eq!(
        full_journal, stitched,
        "journal prefix+suffixes must stitch"
    );
    assert!(baseline.failures > 0, "fault regime must actually fire");
    // The final metrics registry state must match the uninterrupted one.
    let _ = full_metrics;
}

#[test]
fn halt_mid_stage_resumes_sequential_plans() {
    let env = wan_env();
    let stage = |mb: u64| ChunkPlan {
        label: format!("s{mb}"),
        files: files(3, mb),
        pipelining: 1,
        parallelism: 2,
        channels: 2,
        accepts_reallocation: true,
    };
    let plan = TransferPlan::sequential(vec![stage(300), stage(200)], Placement::PackFirst);
    let baseline = Engine::new(&env).run(&plan, &mut NullController);
    let (resumed, _) = run_with_kills(&env, &plan, &mut NullController, 4, false);
    assert_eq!(
        serde_json::to_string(&baseline).unwrap(),
        serde_json::to_string(&resumed).unwrap()
    );
}

#[test]
fn checkpoint_carries_schema_version_and_fingerprint() {
    let env = wan_env();
    let plan = simple_plan(4, 500, 1, 1, 2);
    let out = Engine::new(&env).run_controlled(
        &plan,
        &mut NullController,
        &mut Telemetry::disabled(),
        RunControl::halt_at(3),
    );
    let RunOutcome::Halted(ck) = out else {
        panic!("halted")
    };
    assert_eq!(ck.version, CHECKPOINT_SCHEMA_VERSION);
    assert_eq!(ck.fingerprint, config_fingerprint(&env, &plan));
    assert_eq!(ck.slices_done, 3);
    let json = ck.to_json();
    let back = EngineCheckpoint::from_json(&json).unwrap();
    assert_eq!(json, back.to_json(), "JSON transport must be stable");
}

#[test]
#[should_panic(expected = "different plan/environment")]
fn resume_rejects_foreign_checkpoint() {
    let env = wan_env();
    let plan_a = simple_plan(4, 500, 1, 1, 2);
    let plan_b = simple_plan(5, 500, 1, 1, 2);
    let RunOutcome::Halted(ck) = Engine::new(&env).run_controlled(
        &plan_a,
        &mut NullController,
        &mut Telemetry::disabled(),
        RunControl::halt_at(2),
    ) else {
        panic!("halted")
    };
    let _ = Engine::new(&env).run_controlled(
        &plan_b,
        &mut NullController,
        &mut Telemetry::disabled(),
        RunControl::resume_from(*ck),
    );
}

#[test]
fn stepped_run_matches_straight_run_and_snapshots_match_halts() {
    let mut env = wan_env();
    env.faults = Some(crate::faults::FaultModel::new(SimDuration::from_secs(10), 7).into());
    let stage = |mb: u64| ChunkPlan {
        label: format!("s{mb}"),
        files: files(4, mb),
        pipelining: 1,
        parallelism: 2,
        channels: 3,
        accepts_reallocation: true,
    };
    let plan = TransferPlan::sequential(vec![stage(300), stage(200)], Placement::PackFirst);
    let telemetry = || Telemetry::enabled(SimDuration::from_millis(500));
    let mut tel = telemetry();
    let straight = Engine::new(&env).run_instrumented(&plan, &mut NullController, &mut tel);
    let straight_journal = tel.journal().unwrap().to_jsonl();
    let straight_json = serde_json::to_string(&straight).unwrap();
    for every in [3u64, 17] {
        let mut tel = telemetry();
        let controller = Box::new(NullController);
        let mut run = EngineRun::new(&env, Cow::Owned(plan.clone()), controller, &mut tel);
        let mut resumed_stages = Vec::new();
        let report = loop {
            if let Some(report) = run.step(&env, &mut tel, Some(every), ResourceShare::FULL) {
                break report;
            }
            let RunOutcome::Halted(halted) = Engine::new(&env).run_controlled(
                &plan,
                &mut NullController,
                &mut telemetry(),
                RunControl::halt_at(run.slices_done()),
            ) else {
                panic!("halted")
            };
            assert_eq!(
                run.snapshot(&tel).to_json(),
                halted.to_json(),
                "every {every}"
            );
            // A plain build writes the auditor's totals as 0; at one pause
            // in each stage, such a checkpoint must resume to the straight
            // report in either build.
            if !resumed_stages.contains(&halted.stage) {
                resumed_stages.push(halted.stage);
                let mut ck = *halted;
                (ck.audit_gross, ck.audit_stage_requested) = (Bytes::ZERO, Bytes::ZERO);
                let mut tel = telemetry();
                let controller = Box::new(NullController);
                let mut resumed =
                    EngineRun::restore(&env, Cow::Borrowed(&plan), controller, &mut tel, ck);
                let resumed = resumed.step(&env, &mut tel, None, ResourceShare::FULL);
                assert_eq!(
                    resumed.map(|r| serde_json::to_string(&r).unwrap()).as_ref(),
                    Some(&straight_json),
                    "every {every}, resumed in stage {}",
                    resumed_stages.len() - 1
                );
            }
        };
        assert_eq!(resumed_stages, [0, 1], "every {every}");
        assert_eq!(
            straight_json,
            serde_json::to_string(&report).unwrap(),
            "stepping every {every} slices must be invisible"
        );
        assert_eq!(tel.journal().unwrap().to_jsonl(), straight_journal);
    }
}

// ---- incremental slice kernel ----

#[test]
fn placement_and_grants_are_solved_once_per_change() {
    // Four channels, then six, then three, over 100 MB files whose
    // per-file overhead blocks a channel for a slice at every file
    // boundary; one slice per step, so every executed slice is seen.
    struct Reshape;
    impl Controller for Reshape {
        fn on_slice(&mut self, ctx: &SliceCtx) -> ControlAction {
            let secs = ctx.now.as_secs_f64();
            let want = if secs < 60.0 {
                4
            } else if secs < 120.0 {
                6
            } else {
                3
            };
            if ctx.channels[0] == want {
                ControlAction::Continue
            } else {
                ControlAction::Reallocate(vec![want])
            }
        }
    }
    let mut env = wan_env();
    env.tuning.macro_step = false;
    env.tuning.per_file_overhead = SimDuration::from_millis(100);
    let plan = simple_plan(1000, 100, 1, 2, 4);
    let mut tel = Telemetry::disabled();
    let mut run = EngineRun::new(&env, Cow::Borrowed(&plan), Box::new(Reshape), &mut tel);
    let (mut slices, mut layouts, mut keys, mut last) = (0u64, 0u64, 0u64, None);
    let report = loop {
        let report = run.step(&env, &mut tel, Some(1), ResourceShare::FULL);
        let a = &run.arena;
        let key = (
            a.ch.chunk.clone(),
            a.working.clone(),
            a.src_assign.clone(),
            a.dst_assign.clone(),
        );
        let last = last.replace(key.clone());
        slices += 1;
        layouts += u64::from(last.as_ref().map(|l| l.0.len()) != Some(key.0.len()));
        keys += u64::from(last != Some(key));
        if let Some(report) = report {
            break report;
        }
    };
    let a = &run.arena;
    assert!(report.completed && slices > 2_000, "{slices} slices");
    assert_eq!(report.duration, env.tuning.slice * slices);
    assert_eq!(layouts, 3, "4, 6 and 3 channels");
    assert_eq!(a.placement_solves, layouts);
    assert_eq!(a.grant_solves, keys);
    assert!(
        keys < slices / 2,
        "{keys} grant solves over {slices} slices"
    );

    // Under a fault plan every executed slice solves both afresh.
    env.faults = Some(crate::faults::FaultModel::new(SimDuration::from_secs(60), 3).into());
    let mut run = EngineRun::new(&env, Cow::Borrowed(&plan), Box::new(Reshape), &mut tel);
    let report = run.step(&env, &mut tel, None, ResourceShare::FULL).unwrap();
    assert!(report.completed && report.failures > 0);
    let slices = report.duration.as_micros() / env.tuning.slice.as_micros();
    assert_eq!(run.arena.placement_solves, slices);
    assert_eq!(run.arena.grant_solves, slices);
}
