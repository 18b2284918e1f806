//! Shared parameter rules and channel-allocation policies.
//!
//! All three paper algorithms (and the tuned baselines) compute pipelining
//! and parallelism the same way from the BDP, the TCP buffer and the
//! chunk's average file size (Algorithm 1 lines 8–9, reused by Algorithms
//! 2–3 via `calculateParameters()`); they differ in how they spread
//! channels across chunks.

use eadt_dataset::Chunk;
use eadt_net::link::Link;
use serde::{Deserialize, Serialize};

/// Upper bound on the pipelining depth (control-channel command queue).
pub(crate) const MAX_PIPELINING: u32 = 64;
/// Upper bound on per-channel parallel streams.
pub(crate) const MAX_PARALLELISM: u32 = 8;

/// Pipelining and parallelism chosen for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkParams {
    /// Control-channel pipelining depth.
    pub pipelining: u32,
    /// Streams per channel.
    pub parallelism: u32,
}

/// Algorithm 1 lines 8–9, for a chunk sent over `link`:
///
/// ```text
/// pipelining  = ⌈ BDP / avgFileSize ⌉
/// parallelism = max(min(⌈BDP/bufSize⌉, ⌈avgFileSize/bufSize⌉), 1)
/// ```
///
/// Small chunks get deep pipelines and one stream; Large chunks get
/// shallow pipelines and enough streams to cover the BDP with the
/// available buffer.
pub fn chunk_params(link: &Link, chunk: &Chunk) -> ChunkParams {
    let bdp = link.bdp().as_f64().max(1.0);
    let avg = chunk.avg_file_size().as_f64().max(1.0);
    let buf = link.tcp_buffer.as_f64().max(1.0);
    let pipelining = ((bdp / avg).ceil() as u32).clamp(1, MAX_PIPELINING);
    let parallelism =
        (((bdp / buf).ceil() as u32).min((avg / buf).ceil() as u32)).clamp(1, MAX_PARALLELISM);
    ChunkParams {
        pipelining,
        parallelism,
    }
}

/// Algorithm 1 lines 10–11: MinE's channel allocation.
///
/// The listing computes `concurrency = min(⌈BDP/avgFileSize⌉,
/// ⌈(availChannel+1)/2⌉)`, which pins chunks whose files meet or exceed
/// the BDP to a **single channel**. Taken literally, on a low-BDP path
/// (FutureGrid's 3.5 MB) *every* chunk would be pinned to one channel and
/// MinE could never "benefit from increased number of data channels" as
/// §3 reports it does; the paper's own description is authoritative here:
/// *"MinE assigns single channel to the large chunk regardless of the
/// maximum channel count and shares the rest of the available channels
/// between medium and small chunks."* So:
///
/// * Large-class chunks get exactly one channel each (the energy guard);
/// * the remaining budget is shared by the non-Large chunks,
///   weight-proportionally, each getting at least one.
pub(crate) fn mine_allocation(chunks: &[Chunk], max_channel: u32) -> Vec<u32> {
    let n = chunks.len();
    if n == 0 {
        return Vec::new();
    }
    let is_large: Vec<bool> = chunks
        .iter()
        .map(|c| c.class == eadt_dataset::SizeClass::Large)
        .collect();
    let large_count = is_large.iter().filter(|&&l| l).count() as u32;
    if large_count as usize == n {
        // Only Large chunks: one channel each (the LAN/low-BDP case).
        return vec![1; n];
    }
    let rest: Vec<Chunk> = chunks
        .iter()
        .zip(&is_large)
        .filter(|(_, &l)| !l)
        .map(|(c, _)| c.clone())
        .collect();
    let budget = max_channel
        .max(1)
        .saturating_sub(large_count)
        .max(rest.len() as u32);
    let rest_alloc = weight_allocation(&rest, budget);
    let mut out = Vec::with_capacity(n);
    let mut k = 0usize;
    for &l in &is_large {
        if l {
            out.push(1);
        } else {
            out.push(rest_alloc[k]);
            k += 1;
        }
    }
    // Auditor (Algorithm 1): the total never exceeds maxChannel except
    // through the every-live-chunk-gets-one floor, and Large chunks stay
    // pinned to a single channel.
    if cfg!(feature = "debug-invariants") {
        let total: u32 = out.iter().sum();
        assert!(
            total <= max_channel.max(1).max(n as u32),
            "invariant: MinE allocated {total} channels with maxChannel={max_channel}, n={n}"
        );
        assert!(
            out.iter().all(|&c| c >= 1),
            "invariant: MinE starved a chunk: {out:?}"
        );
    }
    out
}

/// Algorithm 2 lines 6–13: HTEE's weight-proportional allocation.
///
/// `weight_i = log(size_i) × log(fileCount_i)`, normalised; chunk *i* gets
/// `⌊maxChannel × weight_i⌋` channels. Unlike the bare floor in the paper's
/// listing, every live chunk is guaranteed one channel and leftover
/// channels (from flooring) go to the heaviest chunks, so exactly
/// `max_channel` channels are allocated whenever `max_channel ≥ #chunks`.
pub(crate) fn weight_allocation(chunks: &[Chunk], max_channel: u32) -> Vec<u32> {
    allocation_by_weights(
        &chunks.iter().map(Chunk::weight).collect::<Vec<_>>(),
        max_channel,
    )
}

/// [`weight_allocation`] restricted to chunks still holding bytes,
/// over the chunks' [`Chunk::weight`]s: dead chunks get zero channels and
/// the whole budget lands on the live ones (mid-transfer reallocations
/// must not leak channels to finished chunks).
pub(crate) fn weight_allocation_live(weights: &[f64], live: &[bool], max_channel: u32) -> Vec<u32> {
    debug_assert_eq!(weights.len(), live.len());
    let live_weights: Vec<f64> = weights
        .iter()
        .zip(live)
        .filter(|(_, &l)| l)
        .map(|(&w, _)| w)
        .collect();
    if live_weights.is_empty() {
        return vec![0; weights.len()];
    }
    let mut sub = allocation_by_weights(&live_weights, max_channel).into_iter();
    live.iter()
        .map(|&l| if l { sub.next().unwrap_or(0) } else { 0 })
        .collect()
}

/// Ablation variant of HTEE's weight-proportional allocation
/// (Algorithm 2): weights proportional to raw chunk byte counts instead
/// of the paper's `log(size)·log(count)`. Linear weights starve
/// many-small-file chunks of channels — the ablation bench quantifies
/// what the paper's logarithmic damping buys.
pub fn linear_weight_allocation(chunks: &[Chunk], max_channel: u32) -> Vec<u32> {
    allocation_by_weights(
        &chunks
            .iter()
            .map(|c| c.total_size().as_f64())
            .collect::<Vec<_>>(),
        max_channel,
    )
}

fn allocation_by_weights(weights: &[f64], max_channel: u32) -> Vec<u32> {
    let out = allocation_by_weights_impl(weights, max_channel);
    // Auditor (Algorithms 2–3): the weight split spends the channel
    // budget exactly — never more than maxChannel, never leaving
    // channels idle while chunks wait.
    if cfg!(feature = "debug-invariants") && !out.is_empty() {
        let total: u32 = out.iter().sum();
        assert_eq!(
            total,
            max_channel.max(1),
            "invariant: weight allocation {out:?} does not spend maxChannel={max_channel}"
        );
    }
    out
}

fn allocation_by_weights_impl(weights: &[f64], max_channel: u32) -> Vec<u32> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let total_weight: f64 = weights.iter().sum();
    let max_channel = max_channel.max(1);
    if total_weight <= 0.0 {
        // Degenerate: split evenly.
        let mut out = vec![max_channel / n as u32; n];
        for item in out.iter_mut().take(max_channel as usize % n) {
            *item += 1;
        }
        return out;
    }
    if (max_channel as usize) <= n {
        // Not enough channels for everyone: heaviest chunks first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
        let mut out = vec![0u32; n];
        for &i in order.iter().take(max_channel as usize) {
            out[i] = 1;
        }
        return out;
    }
    let mut out = vec![0u32; n];
    let mut fractions: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0u32;
    for i in 0..n {
        let exact = max_channel as f64 * weights[i] / total_weight;
        let floor = exact.floor() as u32;
        out[i] = floor.max(1);
        assigned += out[i];
        fractions.push((exact - floor as f64, i));
    }
    // Distribute (or claw back) the difference by fractional part / weight.
    fractions.sort_by(|a, b| b.0.total_cmp(&a.0));
    // `fractions` holds one entry per chunk (n ≥ 1 here), so cycling it
    // hands out exactly the deficit, round-robin by fractional part.
    let deficit = max_channel.saturating_sub(assigned);
    for &(_, i) in fractions.iter().cycle().take(deficit as usize) {
        out[i] += 1;
        assigned += 1;
    }
    while assigned > max_channel {
        // Take from the smallest fractional parts, never below 1.
        let idx = fractions
            .iter()
            .rev()
            .map(|&(_, i)| i)
            .find(|&i| out[i] > 1);
        match idx {
            Some(i) => {
                out[i] -= 1;
                assigned -= 1;
            }
            None => break,
        }
    }
    out
}

/// SLAEE's allocation: start from the weight allocation, then cap Large
/// chunks at one channel each (the energy guard of Algorithm 3) and move
/// the excess to the non-Large chunks in weight order. `rearranged = true`
/// lifts the cap (Algorithm 3 line 18, `reArrangeChannels`) and falls back
/// to the pure weight allocation. The total never changes, so a budget of
/// one really is one channel.
pub(crate) fn sla_allocation(chunks: &[Chunk], max_channel: u32, rearranged: bool) -> Vec<u32> {
    let weights: Vec<f64> = chunks.iter().map(Chunk::weight).collect();
    let is_large: Vec<bool> = chunks
        .iter()
        .map(|c| c.class == eadt_dataset::SizeClass::Large)
        .collect();
    let live = vec![true; chunks.len()];
    sla_allocation_live(&weights, &is_large, &live, max_channel, rearranged)
}

/// [`sla_allocation`] over live chunks only (see [`weight_allocation_live`]),
/// given each chunk's weight and whether it is Large.
pub(crate) fn sla_allocation_live(
    weights: &[f64],
    is_large: &[bool],
    live: &[bool],
    max_channel: u32,
    rearranged: bool,
) -> Vec<u32> {
    let mut alloc = weight_allocation_live(weights, live, max_channel);
    let budget_spent: u32 = if cfg!(feature = "debug-invariants") {
        alloc.iter().sum()
    } else {
        0
    };
    if rearranged {
        return alloc;
    }
    let has_live_non_large = live.iter().zip(is_large).any(|(&l, &lg)| l && !lg);
    if !has_live_non_large {
        return alloc; // nothing to shift the excess onto
    }
    // Claw back everything above 1 on Large chunks.
    let mut excess = 0u32;
    for (i, &lg) in is_large.iter().enumerate() {
        if lg && alloc[i] > 1 {
            excess += alloc[i] - 1;
            alloc[i] = 1;
        }
    }
    if excess == 0 {
        return alloc;
    }
    // Hand the excess to live non-Large chunks, heaviest first, round-robin.
    let mut order: Vec<usize> = (0..weights.len())
        .filter(|&i| live[i] && !is_large[i])
        .collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
    // `order` is non-empty (has_live_non_large above), so cycling it
    // places every excess channel.
    for &i in order.iter().cycle().take(excess as usize) {
        alloc[i] += 1;
    }
    // Auditor (Algorithm 3): rearranging the Large-chunk cap moves
    // channels, it never mints or burns them; and with the cap in force
    // every Large chunk sits at one channel or less (dead chunks at 0).
    if cfg!(feature = "debug-invariants") {
        let total: u32 = alloc.iter().sum();
        assert_eq!(
            total, budget_spent,
            "invariant: SLAEE rearrangement changed the channel total"
        );
        assert!(
            is_large.iter().zip(&alloc).all(|(&lg, &a)| !lg || a <= 1),
            "invariant: SLAEE left a Large chunk above one channel: {alloc:?}"
        );
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadt_dataset::{FileSpec, SizeClass};
    use eadt_sim::{Bytes, Rate, SimDuration};

    fn xsede_link() -> Link {
        Link::new(
            Rate::from_gbps(10.0),
            SimDuration::from_millis(40),
            Bytes::from_mb(32),
        )
    }

    fn chunk_of(class: SizeClass, count: u32, mb_each: u64) -> Chunk {
        Chunk::new(
            class,
            (0..count)
                .map(|i| FileSpec::new(i, Bytes::from_mb(mb_each)))
                .collect(),
        )
    }

    #[test]
    fn params_small_chunk_gets_deep_pipeline_one_stream() {
        // BDP 50 MB, avg 5 MB → pp = 10; parallelism min(2, 1) = 1.
        let p = chunk_params(&xsede_link(), &chunk_of(SizeClass::Small, 10, 5));
        assert_eq!(p.pipelining, 10);
        assert_eq!(p.parallelism, 1);
    }

    #[test]
    fn params_large_chunk_gets_streams_no_pipeline() {
        // avg 3 GB → pp = ⌈50/3000⌉ = 1; parallelism min(⌈50/32⌉=2, 94) = 2.
        let p = chunk_params(&xsede_link(), &chunk_of(SizeClass::Large, 4, 3000));
        assert_eq!(p.pipelining, 1);
        assert_eq!(p.parallelism, 2);
    }

    #[test]
    fn params_lan_is_all_ones() {
        // DIDCLAB: BDP 25 KB ≪ everything → pp 1, parallelism 1.
        let lan = Link::new(
            Rate::from_gbps(1.0),
            SimDuration::from_micros(200),
            Bytes::from_mb(32),
        );
        let p = chunk_params(&lan, &chunk_of(SizeClass::Large, 4, 500));
        assert_eq!(p.pipelining, 1);
        assert_eq!(p.parallelism, 1);
    }

    #[test]
    fn params_clamp_pipelining() {
        // avg 100 KB → BDP/avg = 500 → clamped to MAX_PIPELINING.
        let c = Chunk::new(
            SizeClass::Small,
            (0..10)
                .map(|i| FileSpec::new(i, Bytes::from_kb(100)))
                .collect(),
        );
        assert_eq!(chunk_params(&xsede_link(), &c).pipelining, MAX_PIPELINING);
    }

    #[test]
    fn mine_allocation_pins_large_shares_rest() {
        let chunks = vec![
            chunk_of(SizeClass::Small, 200, 5),
            chunk_of(SizeClass::Medium, 40, 150),
            chunk_of(SizeClass::Large, 4, 3000),
        ];
        let alloc = mine_allocation(&chunks, 12);
        assert_eq!(alloc[2], 1, "Large pinned to one channel: {alloc:?}");
        assert_eq!(alloc.iter().sum::<u32>(), 12);
        assert!(alloc[0] >= alloc[1], "small chunk favoured: {alloc:?}");
    }

    #[test]
    fn mine_allocation_all_large_is_one_each() {
        let chunks = vec![
            chunk_of(SizeClass::Large, 4, 3000),
            chunk_of(SizeClass::Large, 6, 8000),
        ];
        assert_eq!(mine_allocation(&chunks, 12), vec![1, 1]);
    }

    #[test]
    fn mine_allocation_always_gives_at_least_one() {
        let chunks = vec![
            chunk_of(SizeClass::Small, 20, 1),
            chunk_of(SizeClass::Medium, 8, 30),
            chunk_of(SizeClass::Large, 4, 3000),
        ];
        let alloc = mine_allocation(&chunks, 1);
        assert!(alloc.iter().all(|&c| c >= 1), "{alloc:?}");
    }

    #[test]
    fn mine_allocation_respects_budget_for_reasonable_inputs() {
        let chunks = vec![
            chunk_of(SizeClass::Small, 20, 5),
            chunk_of(SizeClass::Medium, 8, 150),
            chunk_of(SizeClass::Large, 4, 3000),
        ];
        for max in 3..=20u32 {
            let alloc = mine_allocation(&chunks, max);
            let total: u32 = alloc.iter().sum();
            // Every chunk gets a channel even on a tiny budget, so the total
            // may overrun `max` by at most the chunk count; with a sane
            // budget it stays within it.
            assert!(
                total <= max + chunks.len() as u32,
                "max={max} alloc={alloc:?}"
            );
            if max >= 2 * chunks.len() as u32 {
                assert!(total <= max, "max={max} alloc={alloc:?}");
            }
        }
    }

    #[test]
    fn weight_allocation_sums_to_max_and_covers_all() {
        let chunks = vec![
            chunk_of(SizeClass::Small, 200, 5),
            chunk_of(SizeClass::Medium, 40, 150),
            chunk_of(SizeClass::Large, 10, 3000),
        ];
        for max in 3..=24u32 {
            let alloc = weight_allocation(&chunks, max);
            assert_eq!(alloc.iter().sum::<u32>(), max, "max={max} alloc={alloc:?}");
            assert!(alloc.iter().all(|&c| c >= 1), "{alloc:?}");
        }
    }

    #[test]
    fn weight_allocation_favours_heavy_chunks() {
        let chunks = vec![
            chunk_of(SizeClass::Small, 500, 5), // many files, big log·log weight
            chunk_of(SizeClass::Large, 2, 3000),
        ];
        let alloc = weight_allocation(&chunks, 10);
        assert!(alloc[0] > alloc[1], "{alloc:?}");
    }

    #[test]
    fn weight_allocation_with_fewer_channels_than_chunks() {
        let chunks = vec![
            chunk_of(SizeClass::Small, 100, 5),
            chunk_of(SizeClass::Medium, 40, 150),
            chunk_of(SizeClass::Large, 10, 3000),
        ];
        let alloc = weight_allocation(&chunks, 2);
        assert_eq!(alloc.iter().sum::<u32>(), 2);
        assert_eq!(alloc.iter().filter(|&&c| c > 0).count(), 2);
    }

    #[test]
    fn weight_allocation_empty_and_single() {
        assert!(weight_allocation(&[], 5).is_empty());
        let one = vec![chunk_of(SizeClass::Large, 3, 1000)];
        assert_eq!(weight_allocation(&one, 7), vec![7]);
    }

    #[test]
    fn sla_allocation_caps_large_at_one() {
        let chunks = vec![
            chunk_of(SizeClass::Small, 200, 5),
            chunk_of(SizeClass::Medium, 40, 150),
            chunk_of(SizeClass::Large, 10, 3000),
        ];
        let alloc = sla_allocation(&chunks, 12, false);
        assert_eq!(alloc[2], 1, "{alloc:?}");
        assert_eq!(alloc.iter().sum::<u32>(), 12);
        // After reArrangeChannels the cap lifts.
        let re = sla_allocation(&chunks, 12, true);
        assert!(re[2] >= 1);
        assert_eq!(re, weight_allocation(&chunks, 12));
    }

    #[test]
    fn sla_allocation_all_large_falls_back_to_weights() {
        let chunks = vec![
            chunk_of(SizeClass::Large, 4, 2000),
            chunk_of(SizeClass::Large, 6, 5000),
        ];
        let alloc = sla_allocation(&chunks, 8, false);
        assert_eq!(alloc, weight_allocation(&chunks, 8));
    }
}
