//! Property-based tests of the allocation policies.

use crate::planner::{
    linear_weight_allocation, mine_allocation, sla_allocation, sla_allocation_live,
    weight_allocation, weight_allocation_live,
};
use eadt_dataset::{Chunk, FileSpec, SizeClass};
use eadt_sim::Bytes;
use proptest::prelude::*;

fn any_chunks() -> impl Strategy<Value = Vec<Chunk>> {
    // 1–3 chunks with arbitrary class, file counts and sizes.
    prop::collection::vec(
        (
            prop_oneof![
                Just(SizeClass::Small),
                Just(SizeClass::Medium),
                Just(SizeClass::Large)
            ],
            1usize..40,
            1u64..4_000,
        ),
        1..4,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(class, n, mb)| {
                Chunk::new(
                    class,
                    (0..n as u32)
                        .map(|i| FileSpec::new(i, Bytes::from_mb(mb)))
                        .collect(),
                )
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn weight_allocation_is_exact_and_covering(chunks in any_chunks(), max in 1u32..32) {
        let alloc = weight_allocation(&chunks, max);
        prop_assert_eq!(alloc.len(), chunks.len());
        let total: u32 = alloc.iter().sum();
        if max as usize >= chunks.len() {
            prop_assert_eq!(total, max);
            prop_assert!(alloc.iter().all(|&c| c >= 1));
        } else {
            prop_assert_eq!(total, max);
        }
    }

    #[test]
    fn linear_weight_allocation_is_exact(chunks in any_chunks(), max in 1u32..32) {
        let alloc = linear_weight_allocation(&chunks, max);
        prop_assert_eq!(alloc.iter().sum::<u32>(), max.max(1));
    }

    #[test]
    fn live_allocation_gives_dead_chunks_nothing(
        chunks in any_chunks(), max in 1u32..32, dead_mask in 0u8..8
    ) {
        let live: Vec<bool> =
            (0..chunks.len()).map(|i| dead_mask & (1 << i) == 0).collect();
        let weights: Vec<f64> = chunks.iter().map(Chunk::weight).collect();
        let alloc = weight_allocation_live(&weights, &live, max);
        for (i, &a) in alloc.iter().enumerate() {
            if !live[i] {
                prop_assert_eq!(a, 0);
            }
        }
        if live.iter().any(|&l| l) {
            prop_assert!(alloc.iter().sum::<u32>() >= 1);
        } else {
            prop_assert_eq!(alloc.iter().sum::<u32>(), 0);
        }
    }

    #[test]
    fn mine_allocation_pins_every_large_chunk(chunks in any_chunks(), max in 1u32..32) {
        let alloc = mine_allocation(&chunks, max);
        prop_assert_eq!(alloc.len(), chunks.len());
        let all_large = chunks.iter().all(|c| c.class == SizeClass::Large);
        for (c, &a) in chunks.iter().zip(&alloc) {
            prop_assert!(a >= 1);
            if c.class == SizeClass::Large && !all_large {
                prop_assert_eq!(a, 1, "Large chunk must be pinned");
            }
        }
    }

    #[test]
    fn sla_allocation_caps_large_until_rearranged(chunks in any_chunks(), max in 1u32..32) {
        let alloc = sla_allocation(&chunks, max, false);
        let has_non_large = chunks.iter().any(|c| c.class != SizeClass::Large);
        if has_non_large {
            for (c, &a) in chunks.iter().zip(&alloc) {
                if c.class == SizeClass::Large {
                    prop_assert!(a <= 1, "capped Large got {a}");
                }
            }
        }
        // Rearranged equals the pure weight allocation.
        prop_assert_eq!(
            sla_allocation(&chunks, max, true),
            weight_allocation(&chunks, max)
        );
        // Both conserve the budget.
        prop_assert_eq!(
            alloc.iter().sum::<u32>(),
            weight_allocation(&chunks, max).iter().sum::<u32>()
        );
    }

    #[test]
    fn sla_live_matches_mask(chunks in any_chunks(), max in 1u32..32, dead_mask in 0u8..8) {
        let live: Vec<bool> =
            (0..chunks.len()).map(|i| dead_mask & (1 << i) == 0).collect();
        let weights: Vec<f64> = chunks.iter().map(Chunk::weight).collect();
        let is_large: Vec<bool> = chunks.iter().map(|c| c.class == SizeClass::Large).collect();
        let alloc = sla_allocation_live(&weights, &is_large, &live, max, false);
        for (i, &a) in alloc.iter().enumerate() {
            if !live[i] {
                prop_assert_eq!(a, 0);
            }
        }
    }
}
