//! Property-based tests of fault-injected runs.
//!
//! The engine's accounting must conserve bytes whatever the fault draw:
//! with restart markers every byte crosses the wire usefully exactly once
//! (`moved == requested`, nothing retransmitted); without markers a kill
//! throws away the in-flight file's progress, and that loss must show up
//! — exactly — in `FaultStats::retransmitted_bytes` while goodput still
//! converges to the dataset size.
//!
//! The slice kernel's quantum move (DESIGN.md §17) must leave every
//! channel column as the division-based `advance_channel` does.

use crate::control::NullController;
use crate::engine::{advance_channel, quantum_move, ChannelSoA, Engine, FileSnapshot, Quantum};
use crate::env::TransferEnv;
use crate::faults::{FaultModel, FaultPlan, OutageModel, SiteSide};
use crate::plan::{ChunkPlan, TransferPlan};
use eadt_dataset::FileSpec;
use eadt_endsys::{DiskSubsystem, Placement, ServerSpec, Site, UtilizationCoeffs};
use eadt_net::link::Link;
use eadt_net::packets::PacketModel;
use eadt_net::tcp::CongestionModel;
use eadt_power::FineGrainedModel;
use eadt_sim::{Bytes, Rate, SimDuration};
use proptest::prelude::*;
use std::collections::VecDeque;

fn env(servers_per_site: usize) -> TransferEnv {
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
        src: Site::new("src", vec![server.clone(); servers_per_site]),
        dst: Site::new("dst", vec![server; servers_per_site]),
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

fn plan(files: u32, mb: u64, channels: u32) -> TransferPlan {
    let cp = ChunkPlan {
        label: "chunk".into(),
        files: (0..files)
            .map(|i| FileSpec::new(i, Bytes::from_mb(mb)))
            .collect(),
        pipelining: 2,
        parallelism: 2,
        channels,
        accepts_reallocation: true,
    };
    TransferPlan::concurrent(vec![cp], Placement::RoundRobin)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn markers_conserve_goodput_and_retransmit_nothing(
        mtbf_s in 4u64..30,
        seed in 0u64..1_000,
        files in 2u32..8,
        mb in 50u64..400,
        channels in 1u32..5,
    ) {
        let mut e = env(1);
        e.faults = Some(FaultPlan::from(FaultModel::new(
            SimDuration::from_secs(mtbf_s),
            seed,
        )));
        let p = plan(files, mb, channels);
        let r = Engine::new(&e).run(&p, &mut NullController);
        prop_assert!(r.completed, "run must finish despite faults");
        prop_assert_eq!(r.moved_bytes, r.requested_bytes);
        prop_assert_eq!(r.faults.retransmitted_bytes, Bytes::ZERO);
        prop_assert_eq!(r.failures, r.faults.total_failures());
        prop_assert!(r.wire_bytes >= r.moved_bytes);
    }

    #[test]
    fn dropped_markers_book_every_lost_byte_as_retransmitted(
        mtbf_s in 4u64..20,
        seed in 0u64..1_000,
        files in 2u32..6,
        mb in 50u64..300,
        channels in 1u32..4,
    ) {
        let mut e = env(1);
        let model = FaultModel {
            restart_markers: false,
            ..FaultModel::new(SimDuration::from_secs(mtbf_s), seed)
        };
        e.faults = Some(FaultPlan::from(model));
        let p = plan(files, mb, channels);
        let r = Engine::new(&e).run(&p, &mut NullController);
        prop_assert!(r.completed);
        // Goodput converges to exactly the dataset: lost progress was
        // subtracted back out when the file restarted from zero.
        prop_assert_eq!(r.moved_bytes, r.requested_bytes);
        // ... and every lost byte crossed the wire a second time.
        prop_assert!(
            r.wire_bytes >= r.moved_bytes + r.faults.retransmitted_bytes,
            "wire {} < goodput {} + retransmitted {}",
            r.wire_bytes, r.moved_bytes, r.faults.retransmitted_bytes
        );
        if r.failures > 0 {
            // A kill mid-file loses progress; with ≥ 1 failure over files
            // this large some progress is essentially always in flight.
            prop_assert!(r.faults.backoff_time > SimDuration::ZERO);
        }
    }

    /// Drives the engine through a hostile mix — channel kills, an
    /// outage window, markers off — purely to arm the `debug-invariants`
    /// auditor: every slice re-proves bytes-in = moved + remaining,
    /// gross = goodput + retransmitted, and power/energy ≥ 0. Without
    /// the feature this still pins the end-of-run conservation laws.
    #[test]
    fn audited_engine_survives_hostile_fault_mix(
        mtbf_s in 3u64..15,
        seed in 0u64..1_000,
        files in 2u32..6,
        mb in 40u64..250,
        channels in 1u32..5,
        markers_bit in 0u64..2,
    ) {
        let mut e = env(2);
        let model = FaultModel {
            restart_markers: markers_bit == 1,
            ..FaultModel::new(SimDuration::from_secs(mtbf_s), seed)
        };
        e.faults = Some(FaultPlan::from(model).with_outage(OutageModel::new(
            SiteSide::Src,
            1,
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
            seed ^ 0x5eed,
        )));
        let p = plan(files, mb, channels);
        let r = Engine::new(&e).run(&p, &mut NullController);
        prop_assert!(r.completed, "run must finish despite faults");
        prop_assert_eq!(r.moved_bytes, r.requested_bytes);
        prop_assert!(r.wire_bytes >= r.moved_bytes + r.faults.retransmitted_bytes);
        prop_assert!(r.src_energy_j >= 0.0 && r.src_energy_j.is_finite());
        prop_assert!(r.dst_energy_j >= 0.0 && r.dst_energy_j.is_finite());
    }

    /// Event-horizon macro-stepping must be invisible in the output: the
    /// serialized report, the telemetry journal and the metrics snapshot
    /// are compared byte for byte against the plain slice loop across
    /// randomized fault draws (channel kills, optional outage windows,
    /// markers on/off).
    #[test]
    fn macro_stepping_is_bit_identical_to_slice_loop(
        mtbf_s in 4u64..30,
        seed in 0u64..1_000,
        files in 2u32..6,
        mb in 50u64..300,
        channels in 1u32..4,
        markers_bit in 0u64..2,
        outage_bit in 0u64..2,
    ) {
        let mut e = env(2);
        let model = FaultModel {
            restart_markers: markers_bit == 1,
            ..FaultModel::new(SimDuration::from_secs(mtbf_s), seed)
        };
        let mut fp = FaultPlan::from(model);
        if outage_bit == 1 {
            fp = fp.with_outage(OutageModel::new(
                SiteSide::Src,
                0,
                SimDuration::from_secs(20),
                SimDuration::from_secs(5),
                seed ^ 0x5eed,
            ));
        }
        e.faults = Some(fp);
        let p = plan(files, mb, channels);
        let run = |macro_step: bool| {
            let mut e = e.clone();
            e.tuning.macro_step = macro_step;
            let mut tel =
                eadt_telemetry::Telemetry::enabled(eadt_telemetry::DEFAULT_CADENCE);
            let r = Engine::new(&e).run_instrumented(&p, &mut NullController, &mut tel);
            let json = serde_json::to_string(&r).expect("report serializes");
            let metrics = tel.metrics_ref().expect("metrics attached");
            let metrics = serde_json::to_string(metrics).expect("metrics serialize");
            let journal = tel.into_journal().expect("journal attached").to_jsonl();
            (json, journal, metrics)
        };
        let (fast_report, fast_journal, fast_metrics) = run(true);
        let (slow_report, slow_journal, slow_metrics) = run(false);
        prop_assert_eq!(fast_report, slow_report);
        prop_assert_eq!(fast_journal, slow_journal);
        prop_assert_eq!(fast_metrics, slow_metrics);
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed(
        mtbf_s in 4u64..20,
        seed in 0u64..1_000,
    ) {
        let mut e = env(2);
        e.faults = Some(
            FaultPlan::from(FaultModel::new(SimDuration::from_secs(mtbf_s), seed))
                .with_outage(OutageModel::new(
                    SiteSide::Dst,
                    1,
                    SimDuration::from_secs(30),
                    SimDuration::from_secs(8),
                    seed ^ 0xabcd,
                )),
        );
        let p = plan(4, 200, 3);
        let a = Engine::new(&e).run(&p, &mut NullController);
        let b = Engine::new(&e).run(&p, &mut NullController);
        prop_assert_eq!(a.duration, b.duration);
        prop_assert_eq!(a.failures, b.failures);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.moved_bytes, b.moved_bytes);
        prop_assert!(a.completed);
        prop_assert_eq!(a.moved_bytes, a.requested_bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// A channel's quantum, and its move at remainders on both sides of
    /// the threshold, for zero, sub-byte and ordinary grants: the
    /// threshold is the least remainder a slice cannot finish, and the
    /// quantum move and `advance_channel` (with the stored quantum, and
    /// with `time_at` deciding every branch) leave identical columns.
    #[test]
    fn quantum_moves_match_advance_channel(
        bps in prop_oneof![Just(0.0), 0.0f64..80.0, 0.0f64..1e11],
        slice_us in 1u64..2_000_000,
        offset in -3i64..4,
        far in 0u64..1 << 40,
        gap_us in prop_oneof![Just(0u64), 1u64..200_000],
    ) {
        let (grant, slice) = (Rate::from_bps(bps), SimDuration::from_micros(slice_us));
        let q = Quantum::of(grant, slice);
        prop_assert_eq!(q.bytes, grant.bytes_in(slice));
        let threshold = q.threshold.as_u64();
        prop_assert!(Bytes(threshold).time_at(grant) > slice);
        if threshold > 0 {
            prop_assert!(Bytes(threshold - 1).time_at(grant) <= slice);
        }
        let reference = Quantum { bytes: q.bytes, threshold: Bytes(u64::MAX) };
        let inter_file_gap = SimDuration::from_millis(40);
        let near = threshold.saturating_add_signed(offset);
        for rem in [near, threshold.saturating_add(far), far] {
            let mut ch = ChannelSoA::default();
            let size = Bytes(rem.saturating_add(1_000));
            let gap = SimDuration::from_micros(gap_us);
            ch.push_row((0, gap, None, 0, false, true, size, Bytes(rem)));
            let queue: VecDeque<FileSnapshot> =
                [FileSnapshot { size: Bytes(far), remaining: Bytes(far) }].into();
            let run = |q: Quantum| {
                let (mut ch, mut queue, mut in_flight) = (ch.clone(), queue.clone(), 1u32);
                let moved = advance_channel(
                    &mut ch, 0, &mut queue, &mut in_flight, grant, q, slice, inter_file_gap,
                );
                (moved, ch.row(0), queue, in_flight)
            };
            let want = run(reference);
            prop_assert_eq!(&run(q), &want);
            let mut moved_ch = ch.clone();
            if let Some(moved) = quantum_move(&mut moved_ch, 0, q) {
                prop_assert!(rem >= threshold && gap_us == 0);
                prop_assert_eq!((moved, moved_ch.row(0), queue, 1), want);
            }
        }
    }
}
