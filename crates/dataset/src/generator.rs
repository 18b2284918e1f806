//! Dataset generators reproducing the paper's workloads.
//!
//! §3: *"For 10 Gbps networks, the total size of dataset is 160 GB where
//! file sizes range between 3 MB – 20 GB and for 1 Gbps networks, the total
//! size of experiment dataset is 40 GB where file sizes range between
//! 3 MB – 5 GB."* File sizes are drawn log-uniformly so the mix spans the
//! Small/Medium/Large classes the way a real mixed scientific dataset does.

use crate::file::Dataset;
use eadt_sim::{Bytes, LogUniform, SimRng};
use serde::{Deserialize, Serialize};

/// Declarative description of a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Label for reports.
    pub name: String,
    /// Target total volume; generation stops at the first file that reaches
    /// it (the total may overshoot by at most one file).
    pub total: Bytes,
    /// Smallest file size drawn.
    pub min_file: Bytes,
    /// Largest file size drawn.
    pub max_file: Bytes,
}

impl DatasetSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, total: Bytes, min_file: Bytes, max_file: Bytes) -> Self {
        DatasetSpec {
            name: name.into(),
            total,
            min_file,
            max_file,
        }
    }

    /// Generates a concrete dataset with log-uniform file sizes, clamped to
    /// `[min_file, max_file]`, stopping once `total` is reached.
    ///
    /// Deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut sizes = Vec::new();
        self.draw_into(seed, &mut sizes);
        Dataset::from_sizes(self.name.clone(), sizes)
    }

    /// Appends [`DatasetSpec::generate`]'s file sizes to `sizes`. The
    /// range's logarithms are taken once, not per draw.
    fn draw_into(&self, seed: u64, sizes: &mut Vec<Bytes>) {
        let mut rng = SimRng::new(seed).fork("dataset-generator");
        let lo = self.min_file.as_f64().max(1.0);
        let hi = self.max_file.as_f64().max(lo + 1.0);
        let sizes_in = LogUniform::new(lo, hi);
        let (min, max) = (self.min_file.as_u64().max(1), self.max_file.as_u64());
        let mut acc: u64 = 0;
        while acc < self.total.as_u64() {
            let size = sizes_in.sample_rounded(&mut rng).clamp(min, max);
            sizes.push(Bytes(size));
            acc += size;
        }
    }
}

/// A dataset assembled from several [`DatasetSpec`] components, each
/// contributing a controlled byte volume from its own size range.
///
/// A single log-uniform draw over three decades puts almost all *bytes*
/// into the largest files; the paper's mixed workloads clearly carried
/// substantial byte volume in every size class (otherwise the per-chunk
/// scheduling it evaluates would be moot), so the reference datasets pin
/// the per-class volumes explicitly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetMix {
    /// Label for reports.
    pub name: String,
    /// The component ranges.
    pub components: Vec<DatasetSpec>,
}

impl DatasetMix {
    /// Generates the concatenated dataset (ids re-assigned globally, files
    /// shuffled deterministically so classes interleave like a real
    /// directory tree).
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut sizes: Vec<Bytes> = Vec::new();
        for (i, spec) in self.components.iter().enumerate() {
            spec.draw_into(seed.wrapping_add(i as u64 * 0x9e37_79b9), &mut sizes);
        }
        let mut rng = SimRng::new(seed).fork("dataset-mix-shuffle");
        rng.shuffle(&mut sizes);
        Dataset::from_sizes(self.name.clone(), sizes)
    }

    /// Target total volume across components.
    pub fn total(&self) -> Bytes {
        self.components.iter().map(|c| c.total).sum()
    }

    /// A copy with every component's target volume scaled by `factor`
    /// (file-size ranges unchanged). Tests and micro-benchmarks use scaled
    /// mixes to keep runs quick while preserving the class structure.
    pub fn scaled(&self, factor: f64) -> DatasetMix {
        let factor = factor.max(0.0);
        DatasetMix {
            name: format!("{} ×{:.3}", self.name, factor),
            components: self
                .components
                .iter()
                .map(|c| DatasetSpec {
                    name: c.name.clone(),
                    total: Bytes((c.total.as_f64() * factor).round() as u64),
                    min_file: c.min_file,
                    max_file: c.max_file,
                })
                .collect(),
        }
    }
}

/// The paper's 10 Gbps workload: 160 GB, files of 3 MB – 20 GB, with
/// byte volume spread across the Small/Medium/Large classes of a 50 MB-BDP
/// path (48 / 40 / 72 GB).
pub fn paper_dataset_10g() -> DatasetMix {
    DatasetMix {
        name: "paper-10g (160 GB, 3 MB – 20 GB)".into(),
        components: vec![
            DatasetSpec::new(
                "small",
                Bytes::from_gb(48),
                Bytes::from_mb(3),
                Bytes::from_mb(6),
            ),
            DatasetSpec::new(
                "medium",
                Bytes::from_gb(40),
                Bytes::from_mb(12),
                Bytes::from_mb(45),
            ),
            DatasetSpec::new(
                "large",
                Bytes::from_gb(72),
                Bytes::from_mb(60),
                Bytes::from_gb(20),
            ),
        ],
    }
}

/// The paper's 1 Gbps workload: 40 GB, files of 3 MB – 5 GB (3.5 MB BDP on
/// FutureGrid: byte volume split between near-BDP files and bulk files).
pub fn paper_dataset_1g() -> DatasetMix {
    DatasetMix {
        name: "paper-1g (40 GB, 3 MB – 5 GB)".into(),
        components: vec![
            DatasetSpec::new(
                "small",
                Bytes::from_gb(14),
                Bytes::from_mb(3),
                Bytes::from_mb(8),
            ),
            DatasetSpec::new(
                "medium",
                Bytes::from_gb(20),
                Bytes::from_mb(10),
                Bytes::from_mb(80),
            ),
            DatasetSpec::new(
                "large",
                Bytes::from_gb(6),
                Bytes::from_mb(100),
                Bytes::from_gb(5),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{partition, PartitionConfig};

    #[test]
    fn generator_is_deterministic() {
        let spec = paper_dataset_1g();
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = paper_dataset_1g();
        assert_ne!(spec.generate(1), spec.generate(2));
    }

    #[test]
    fn component_total_reaches_target_without_large_overshoot() {
        let spec = DatasetSpec::new(
            "c",
            Bytes::from_gb(10),
            Bytes::from_mb(3),
            Bytes::from_gb(1),
        );
        let d = spec.generate(3);
        let total = d.total_size().as_u64();
        assert!(total >= spec.total.as_u64());
        assert!(total < spec.total.as_u64() + spec.max_file.as_u64());
    }

    #[test]
    fn sizes_respect_bounds_10g() {
        let mix = paper_dataset_10g();
        let d = mix.generate(5);
        for f in d.files() {
            assert!(f.size >= Bytes::from_mb(3), "{:?}", f);
            assert!(f.size <= Bytes::from_gb(20), "{:?}", f);
        }
    }

    #[test]
    fn mix_class_byte_shares_are_balanced_on_xsede_bdp() {
        // The point of the mix: every class carries real byte volume
        // relative to a 50 MB BDP (small < 10 MB, large >= 50 MB).
        let d = paper_dataset_10g().generate(42);
        let chunks = partition(&d, Bytes::from_mb(50), &PartitionConfig::default());
        assert_eq!(chunks.len(), 3);
        let total = d.total_size().as_f64();
        for c in &chunks {
            let share = c.total_size().as_f64() / total;
            assert!(share > 0.15, "{:?} share={share}", c.class);
        }
    }

    #[test]
    fn paper_10g_mix_spans_all_classes() {
        // On a 50 MB-BDP path the paper's 10G dataset must produce Small,
        // Medium and Large chunks — the whole point of the mixed workload.
        let d = paper_dataset_10g().generate(42);
        let chunks = partition(&d, Bytes::from_mb(50), &PartitionConfig::default());
        assert_eq!(
            chunks.len(),
            3,
            "expected all three classes: {:?}",
            chunks
                .iter()
                .map(|c| (c.class, c.file_count()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_1g_totals_are_40gb_scale() {
        let d = paper_dataset_1g().generate(42);
        let gb = d.total_size().as_gb();
        assert!((40.0..46.0).contains(&gb), "gb={gb}");
        assert!(d.file_count() > 10, "mixed dataset should have many files");
    }

    /// The paper datasets' bytes, pinned: every file count, total and
    /// `(id, size)` pair below was produced by the per-draw `ln` and libm
    /// `round` generator, and the once-per-component logarithms and
    /// one-buffer mix must reproduce them exactly.
    #[test]
    fn paper_datasets_are_pinned() {
        let cases = [
            (
                paper_dataset_10g().generate(42),
                12_700,
                162_818_384_087,
                [(0, 3_644_270), (1, 5_059_251), (2, 4_325_348)],
                [
                    (12_697, 3_110_442),
                    (12_698, 5_883_591),
                    (12_699, 3_389_739),
                ],
            ),
            (
                paper_dataset_1g().generate(7),
                3_323,
                43_652_384_697,
                [(0, 22_927_082), (1, 65_617_315), (2, 5_250_651)],
                [(3_320, 7_297_961), (3_321, 6_991_697), (3_322, 5_002_017)],
            ),
        ];
        for (d, count, total, head, tail) in cases {
            let pairs: Vec<(u32, u64)> =
                d.files().iter().map(|f| (f.id, f.size.as_u64())).collect();
            assert_eq!(pairs.len(), count);
            assert_eq!(d.total_size().as_u64(), total);
            assert_eq!(pairs[..3], head);
            assert_eq!(pairs[count - 3..], tail);
        }
    }

    #[test]
    fn degenerate_range_still_terminates() {
        let spec = DatasetSpec::new(
            "deg",
            Bytes::from_mb(10),
            Bytes::from_mb(5),
            Bytes::from_mb(5),
        );
        let d = spec.generate(1);
        assert_eq!(d.file_count(), 2);
        for f in d.files() {
            assert_eq!(f.size, Bytes::from_mb(5));
        }
    }
}
