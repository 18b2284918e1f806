//! Property-based tests of disks, utilization and placement.

use crate::disk::{busy_fraction, DiskSubsystem};
use crate::server::ServerSpec;
use crate::site::{Placement, Site};
use crate::util::{LoadShape, ServerLoad, Utilization, UtilizationCoeffs};
use eadt_sim::Rate;
use proptest::prelude::*;

fn any_disk() -> impl Strategy<Value = DiskSubsystem> {
    prop_oneof![
        (10.0f64..2_000.0, 0.0f64..0.5).prop_map(|(mbps, penalty)| DiskSubsystem::Single {
            rate: Rate::from_mbps(mbps),
            contention_penalty: penalty,
        }),
        (10.0f64..2_000.0, 1.0f64..20.0).prop_map(|(per, mult)| DiskSubsystem::Array {
            per_access: Rate::from_mbps(per),
            aggregate: Rate::from_mbps(per * mult),
        }),
    ]
}

fn any_server() -> impl Strategy<Value = ServerSpec> {
    (1u32..32, 40.0f64..200.0, 1.0f64..100.0, any_disk()).prop_map(|(cores, tdp, gbps, disk)| {
        ServerSpec::new("p", cores, tdp, Rate::from_gbps(gbps), disk)
    })
}

proptest! {
    #[test]
    fn disk_rates_are_nonnegative_and_capped(disk in any_disk(), k in 0u32..64) {
        let agg = disk.aggregate_rate(k);
        prop_assert!(agg.as_bps() >= 0.0);
        prop_assert!(agg.as_bps() <= disk.peak_rate().as_bps() + 1e-6);
    }

    #[test]
    fn single_disk_aggregate_never_increases_with_contention(
        mbps in 10.0f64..2_000.0, penalty in 0.0f64..0.5, k in 1u32..63
    ) {
        let d = DiskSubsystem::Single { rate: Rate::from_mbps(mbps), contention_penalty: penalty };
        prop_assert!(d.aggregate_rate(k + 1).as_bps() <= d.aggregate_rate(k).as_bps() + 1e-6);
    }

    #[test]
    fn busy_fraction_is_a_fraction(disk in any_disk(), k in 0u32..64, mbps in 0.0f64..20_000.0) {
        let b = busy_fraction(Rate::from_mbps(mbps), disk.busy_capability(k));
        prop_assert!((0.0..=1.0).contains(&b));
    }

    #[test]
    fn utilization_components_are_percentages(
        spec in any_server(),
        channels in 0u32..64,
        extra_streams in 0u32..128,
        goodput in 0.0f64..50_000.0,
        wire_extra in 0.0f64..5_000.0,
    ) {
        let load = ServerLoad {
            channels,
            streams: channels + extra_streams,
            goodput: Rate::from_mbps(goodput),
            wire_rate: Rate::from_mbps(goodput + wire_extra),
        };
        let u = Utilization::compute(&spec, load, &UtilizationCoeffs::default());
        for v in u.as_vector() {
            prop_assert!((0.0..=100.0).contains(&v), "{:?}", u);
        }
        prop_assert!(u.active_cores <= spec.cores);
        if channels == 0 {
            prop_assert_eq!(u, Utilization::IDLE);
        } else {
            prop_assert!(u.active_cores >= 1);
        }
    }

    #[test]
    fn a_kept_load_shape_evaluates_to_the_one_pass_formulas_bits(
        spec in any_server(),
        channels in 1u32..64,
        extra_streams in 0u32..128,
        goodputs in proptest::collection::vec((0.0f64..50_000.0, 0.0f64..5_000.0), 1..8),
    ) {
        // `compute` used to evaluate everything in one pass; a shape kept
        // across several goodputs must reproduce those formulas, each
        // operation in its order, bit for bit.
        let coeffs = UtilizationCoeffs::default();
        let streams = channels + extra_streams;
        let shape = LoadShape::new(&spec, channels, streams, &coeffs);
        for (mbps, extra) in goodputs {
            let (goodput, wire) = (Rate::from_mbps(mbps), Rate::from_mbps(mbps + extra));
            let threads = streams.max(channels);
            let cores = spec.cores.max(1);
            let oversub = if threads > cores {
                1.0 + coeffs.oversub_penalty * (threads - cores) as f64 / cores as f64
            } else {
                1.0
            };
            let thread_cpu = (coeffs.per_channel_cpu * channels as f64
                + coeffs.per_stream_cpu * streams as f64)
                * oversub;
            let traffic_cpu = coeffs.cpu_per_gbps * wire.as_gbps() * oversub.sqrt();
            let one_pass = Utilization {
                cpu: (coeffs.base_cpu + thread_cpu + traffic_cpu).clamp(0.0, 100.0),
                memory: (coeffs.mem_base
                    + coeffs.mem_per_gbps * goodput.as_gbps()
                    + coeffs.mem_per_stream * streams as f64)
                    .clamp(0.0, 100.0),
                disk: busy_fraction(goodput, spec.disk.busy_capability(channels)) * 100.0,
                nic: (wire.fraction_of(spec.nic) * 100.0).clamp(0.0, 100.0),
                active_cores: threads.min(cores),
            };
            let kept = shape.at(goodput, wire);
            prop_assert_eq!(kept.as_vector().map(f64::to_bits), one_pass.as_vector().map(f64::to_bits));
            prop_assert_eq!(kept.active_cores, one_pass.active_cores);
            let load = ServerLoad { channels, streams, goodput, wire_rate: wire };
            prop_assert_eq!(Utilization::compute(&spec, load, &coeffs), kept);
        }
    }

    #[test]
    fn utilization_cpu_is_monotone_in_wire_rate(
        spec in any_server(), channels in 1u32..16, mbps in 0.0f64..5_000.0
    ) {
        let coeffs = UtilizationCoeffs::default();
        let lo = Utilization::compute(
            &spec,
            ServerLoad::new(channels, channels, Rate::from_mbps(mbps)),
            &coeffs,
        );
        let hi = Utilization::compute(
            &spec,
            ServerLoad::new(channels, channels, Rate::from_mbps(mbps + 500.0)),
            &coeffs,
        );
        prop_assert!(hi.cpu >= lo.cpu - 1e-9);
        prop_assert!(hi.nic >= lo.nic - 1e-9);
    }

    #[test]
    fn placement_conserves_and_bounds(
        src_servers in 1usize..8, dst_servers in 1usize..8, channels in 0u32..64,
        mask in 0u8..=u8::MAX
    ) {
        let server = ServerSpec::new(
            "s",
            4,
            100.0,
            Rate::from_gbps(10.0),
            DiskSubsystem::Array { per_access: Rate::from_gbps(1.0), aggregate: Rate::from_gbps(4.0) },
        );
        let src = Site::new("src", vec![server.clone(); src_servers]);
        let dst = Site::new("dst", vec![server; dst_servers]);
        // One buffer serves both sites in turn, as in the engine's slice
        // arena, so it must be resized to each site's server count.
        let mut counts = Vec::new();
        for placement in [Placement::PackFirst, Placement::RoundRobin] {
            for site in [&src, &dst] {
                let avail: Vec<bool> =
                    (0..site.server_count()).map(|i| mask & (1 << i) != 0).collect();
                site.place_channels_masked_into(channels, placement, &avail, &mut counts);
                prop_assert_eq!(counts.len(), site.server_count());
                prop_assert_eq!(counts.iter().sum::<u32>(), channels);
                // An all-false mask is ignored: placement falls back to every server.
                let usable: Vec<u32> = if avail.contains(&true) {
                    counts.iter().zip(&avail).filter(|(_, &a)| a).map(|(&c, _)| c).collect()
                } else {
                    counts.clone()
                };
                prop_assert_eq!(usable.iter().sum::<u32>(), channels, "channels on masked servers: {:?}", counts);
                if placement == Placement::RoundRobin && channels > 0 {
                    let max = usable.iter().max().unwrap();
                    let min = usable.iter().min().unwrap();
                    prop_assert!(max - min <= 1, "uneven spread: {:?}", counts);
                }
            }
        }
    }
}
