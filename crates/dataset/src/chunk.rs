//! BDP-relative dataset partitioning (`partitionFiles` + `mergeChunks`).
//!
//! The paper's algorithms never use one parameter set for a whole mixed
//! dataset. They first split it into three chunks by comparing each file
//! size to the bandwidth-delay product:
//!
//! * **Small** — files far below the BDP, which benefit from pipelining
//!   (the per-file control-channel round trip dominates otherwise);
//! * **Medium** — files of the same order as the BDP;
//! * **Large** — files above the BDP, which benefit from parallel streams
//!   (when the TCP buffer is below the BDP) and are the main energy sink.
//!
//! A chunk with too few files or too few bytes is not worth scheduling
//! separately, so `mergeChunks` folds it into its neighbour class (§2.3).
//!
//! [`partition_globus_online`] implements the *fixed* partitioning Globus
//! Online uses as a baseline: < 50 MB, 50–250 MB, > 250 MB — independent of
//! the network.

use crate::file::{Dataset, FileSpec};
use eadt_sim::Bytes;
use serde::{Deserialize, Serialize};

/// The three BDP-relative size classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// Files well below the BDP.
    Small,
    /// Files comparable to the BDP.
    Medium,
    /// Files at or above the BDP.
    Large,
}

impl SizeClass {
    /// All classes in ascending size order.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SizeClass::Small => "Small",
            SizeClass::Medium => "Medium",
            SizeClass::Large => "Large",
        }
    }
}

/// Thresholds controlling [`partition`].
///
/// Non-exhaustive: build one with [`PartitionConfig::default`] and the
/// `with_*` setters so new thresholds can land without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct PartitionConfig {
    /// Files with `size < small_fraction × BDP` are Small.
    pub small_fraction: f64,
    /// Files with `size < large_fraction × BDP` are Medium; the rest Large.
    pub large_fraction: f64,
    /// `mergeChunks`: a chunk with fewer files than this is merged away.
    pub min_files: usize,
    /// `mergeChunks`: a chunk holding less than this fraction of the total
    /// dataset bytes is merged away. The paper's rule is count-based, so
    /// this defaults to 0 (disabled); it exists as an ablation knob.
    pub min_bytes_fraction: f64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            small_fraction: 0.2,
            large_fraction: 1.0,
            min_files: 2,
            min_bytes_fraction: 0.0,
        }
    }
}

impl PartitionConfig {
    /// Sets the Small-class threshold (fraction of BDP).
    pub fn with_small_fraction(mut self, small_fraction: f64) -> Self {
        self.small_fraction = small_fraction;
        self
    }

    /// Sets the Medium/Large boundary (fraction of BDP).
    pub fn with_large_fraction(mut self, large_fraction: f64) -> Self {
        self.large_fraction = large_fraction;
        self
    }
}

/// A contiguous class of files scheduled with one parameter combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chunk {
    /// The size class this chunk represents after merging. A merged chunk
    /// keeps the class of its dominant (larger-byte-count) contributor.
    pub class: SizeClass,
    files: Vec<FileSpec>,
    total: Bytes,
}

impl Chunk {
    /// Creates a chunk from files (order preserved).
    pub fn new(class: SizeClass, files: Vec<FileSpec>) -> Self {
        let total = files.iter().map(|f| f.size).sum();
        Chunk {
            class,
            files,
            total,
        }
    }

    /// Files in this chunk.
    pub fn files(&self) -> &[FileSpec] {
        &self.files
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total bytes in the chunk.
    pub fn total_size(&self) -> Bytes {
        self.total
    }

    /// Mean file size (`findAverage` in Algorithm 1); zero when empty.
    pub fn avg_file_size(&self) -> Bytes {
        if self.files.is_empty() {
            Bytes::ZERO
        } else {
            Bytes(self.total.as_u64() / self.files.len() as u64)
        }
    }

    /// True when the chunk holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The HTEE chunk weight: `log(size) × log(fileCount)` (Algorithm 2,
    /// line 7). Sizes are taken in MB and counts as-is; both logs are
    /// clamped at ≥ 0 so single-file or sub-MB chunks do not produce
    /// negative weights.
    pub fn weight(&self) -> f64 {
        if self.files.is_empty() {
            return 0.0;
        }
        let size_term = self.total.as_mb().max(1.0).log10();
        let count_term = (self.files.len() as f64).max(1.0).log10();
        // A chunk with one file still deserves a channel: floor the count
        // term the way the authors' implementation does (log10(1) = 0 would
        // starve single-file chunks entirely).
        (size_term.max(0.0)) * (count_term.max(0.3))
    }

    fn absorb(&mut self, other: Chunk) {
        // Keep the class of the larger contributor.
        if other.total > self.total {
            self.class = other.class;
        }
        self.files.extend(other.files);
        self.files.sort_by_key(|f| f.id);
        self.total += other.total;
    }
}

/// Splits `dataset` into up to three chunks relative to `bdp`
/// (`partitionFiles`), then merges undersized chunks (`mergeChunks`).
///
/// The result is ordered Small → Large and contains no empty chunks; a
/// uniform dataset may legitimately collapse to a single chunk. An empty
/// dataset yields no chunks.
///
/// ```
/// use eadt_dataset::{partition, Dataset, PartitionConfig, SizeClass};
/// use eadt_sim::Bytes;
///
/// let mut sizes = vec![Bytes::from_mb(4); 10];   // Small on a 50 MB BDP
/// sizes.extend(vec![Bytes::from_gb(2); 4]);      // Large
/// let dataset = Dataset::from_sizes("mixed", sizes);
/// let chunks = partition(&dataset, Bytes::from_mb(50), &PartitionConfig::default());
/// assert_eq!(chunks.len(), 2);
/// assert_eq!(chunks[0].class, SizeClass::Small);
/// assert_eq!(chunks[1].class, SizeClass::Large);
/// ```
pub fn partition(dataset: &Dataset, bdp: Bytes, config: &PartitionConfig) -> Vec<Chunk> {
    let small_cut = (bdp.as_f64() * config.small_fraction) as u64;
    let large_cut = (bdp.as_f64() * config.large_fraction) as u64;
    partition_by(dataset, config, |size| {
        if size.as_u64() < small_cut {
            SizeClass::Small
        } else if size.as_u64() < large_cut {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    })
}

/// The fixed Globus Online partitioning: Small < 50 MB ≤ Medium ≤ 250 MB <
/// Large, independent of network characteristics.
pub fn partition_globus_online(dataset: &Dataset) -> Vec<Chunk> {
    let config = PartitionConfig {
        min_files: 1,
        min_bytes_fraction: 0.0,
        ..Default::default()
    };
    partition_by(dataset, &config, |size| {
        if size < Bytes::from_mb(50) {
            SizeClass::Small
        } else if size <= Bytes::from_mb(250) {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    })
}

fn partition_by(
    dataset: &Dataset,
    config: &PartitionConfig,
    classify: impl Fn(Bytes) -> SizeClass,
) -> Vec<Chunk> {
    let mut buckets: [Vec<FileSpec>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for f in dataset.files() {
        let idx = match classify(f.size) {
            SizeClass::Small => 0,
            SizeClass::Medium => 1,
            SizeClass::Large => 2,
        };
        buckets[idx].push(*f);
    }
    let total_bytes = dataset.total_size().as_f64();
    let mut chunks: Vec<Chunk> = buckets
        .into_iter()
        .zip(SizeClass::ALL)
        .filter(|(files, _)| !files.is_empty())
        .map(|(files, class)| Chunk::new(class, files))
        .collect();

    // mergeChunks: fold undersized chunks into their nearest neighbour.
    loop {
        if chunks.len() <= 1 {
            break;
        }
        let undersized = chunks.iter().position(|c| {
            c.file_count() < config.min_files
                || (total_bytes > 0.0
                    && c.total_size().as_f64() / total_bytes < config.min_bytes_fraction)
        });
        let Some(i) = undersized else { break };
        // Merge into the adjacent chunk (prefer the next-larger class; the
        // last chunk merges downward).
        let target = if i + 1 < chunks.len() { i + 1 } else { i - 1 };
        let small = chunks.remove(i);
        let target = if target > i { target - 1 } else { target };
        chunks[target].absorb(small);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_dataset() -> Dataset {
        // BDP will be 50 MB: smalls (< 10 MB), mediums (10–50 MB), larges.
        let mut sizes = Vec::new();
        for _ in 0..20 {
            sizes.push(Bytes::from_mb(3));
        }
        for _ in 0..10 {
            sizes.push(Bytes::from_mb(20));
        }
        for _ in 0..5 {
            sizes.push(Bytes::from_gb(2));
        }
        Dataset::from_sizes("mixed", sizes)
    }

    #[test]
    fn partition_classifies_by_bdp() {
        let d = mixed_dataset();
        let chunks = partition(&d, Bytes::from_mb(50), &PartitionConfig::default());
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].class, SizeClass::Small);
        assert_eq!(chunks[0].file_count(), 20);
        assert_eq!(chunks[1].class, SizeClass::Medium);
        assert_eq!(chunks[1].file_count(), 10);
        assert_eq!(chunks[2].class, SizeClass::Large);
        assert_eq!(chunks[2].file_count(), 5);
    }

    #[test]
    fn partition_preserves_every_file_exactly_once() {
        let d = mixed_dataset();
        let chunks = partition(&d, Bytes::from_mb(50), &PartitionConfig::default());
        let mut ids: Vec<u32> = chunks
            .iter()
            .flat_map(|c| c.files().iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..d.file_count() as u32).collect::<Vec<_>>());
        let total: Bytes = chunks.iter().map(|c| c.total_size()).sum();
        assert_eq!(total, d.total_size());
    }

    #[test]
    fn merge_chunks_folds_tiny_chunk_into_neighbour() {
        // One lone medium file among many smalls and larges.
        let mut sizes = vec![Bytes::from_mb(30)]; // 1 medium, below min_files=2
        for _ in 0..10 {
            sizes.push(Bytes::from_mb(1));
        }
        for _ in 0..10 {
            sizes.push(Bytes::from_gb(1));
        }
        let d = Dataset::from_sizes("m", sizes);
        let chunks = partition(&d, Bytes::from_mb(50), &PartitionConfig::default());
        assert_eq!(chunks.len(), 2);
        // The medium file went into the Large chunk (next-larger neighbour).
        assert_eq!(chunks[1].file_count(), 11);
        // All files still accounted for.
        let n: usize = chunks.iter().map(Chunk::file_count).sum();
        assert_eq!(n, d.file_count());
    }

    #[test]
    fn merge_respects_byte_fraction() {
        // The Small chunk has many files but a negligible byte share.
        let mut sizes = Vec::new();
        for _ in 0..5 {
            sizes.push(Bytes::from_kb(1));
        }
        for _ in 0..10 {
            sizes.push(Bytes::from_gb(10));
        }
        let d = Dataset::from_sizes("tiny-smalls", sizes);
        let config = PartitionConfig {
            min_bytes_fraction: 0.01,
            ..Default::default()
        };
        let chunks = partition(&d, Bytes::from_mb(50), &config);
        assert_eq!(
            chunks.len(),
            1,
            "tiny byte-share chunk should merge: {chunks:?}"
        );
        assert_eq!(chunks[0].class, SizeClass::Large);
    }

    #[test]
    fn uniform_dataset_collapses_to_one_chunk() {
        let d = Dataset::from_sizes("uniform", vec![Bytes::from_gb(1); 8]);
        let chunks = partition(&d, Bytes::from_mb(50), &PartitionConfig::default());
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].class, SizeClass::Large);
    }

    #[test]
    fn empty_dataset_yields_no_chunks() {
        let chunks = partition(
            &Dataset::default(),
            Bytes::from_mb(50),
            &PartitionConfig::default(),
        );
        assert!(chunks.is_empty());
    }

    #[test]
    fn globus_online_uses_fixed_thresholds() {
        let d = Dataset::from_sizes(
            "go",
            [
                Bytes::from_mb(10),  // small
                Bytes::from_mb(49),  // small
                Bytes::from_mb(50),  // medium
                Bytes::from_mb(250), // medium
                Bytes::from_mb(251), // large
                Bytes::from_gb(5),   // large
            ],
        );
        let chunks = partition_globus_online(&d);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].file_count(), 2);
        assert_eq!(chunks[1].file_count(), 2);
        assert_eq!(chunks[2].file_count(), 2);
    }

    #[test]
    fn chunk_stats() {
        let c = Chunk::new(
            SizeClass::Medium,
            vec![
                FileSpec::new(0, Bytes::from_mb(10)),
                FileSpec::new(1, Bytes::from_mb(30)),
            ],
        );
        assert_eq!(c.total_size(), Bytes::from_mb(40));
        assert_eq!(c.avg_file_size(), Bytes::from_mb(20));
        assert!(!c.is_empty());
    }

    #[test]
    fn weight_grows_with_size_and_count() {
        let small = Chunk::new(
            SizeClass::Small,
            (0..10)
                .map(|i| FileSpec::new(i, Bytes::from_mb(5)))
                .collect(),
        );
        let large = Chunk::new(
            SizeClass::Large,
            (0..100)
                .map(|i| FileSpec::new(i, Bytes::from_gb(1)))
                .collect(),
        );
        assert!(large.weight() > small.weight());
        assert!(small.weight() > 0.0);
    }

    #[test]
    fn weight_of_single_file_chunk_is_positive() {
        let c = Chunk::new(SizeClass::Large, vec![FileSpec::new(0, Bytes::from_gb(20))]);
        assert!(
            c.weight() > 0.0,
            "single-file chunks must still get channels"
        );
    }

    #[test]
    fn weight_of_empty_chunk_is_zero() {
        let c = Chunk::new(SizeClass::Small, Vec::new());
        assert_eq!(c.weight(), 0.0);
    }

    #[test]
    fn class_labels() {
        assert_eq!(SizeClass::Small.label(), "Small");
        assert_eq!(SizeClass::Medium.label(), "Medium");
        assert_eq!(SizeClass::Large.label(), "Large");
    }
}
