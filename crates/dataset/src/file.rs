//! Files and datasets.

use eadt_sim::Bytes;
use serde::{Deserialize, Serialize};

/// A single file to transfer: an identifier and a size.
///
/// The simulator never materialises file contents — the algorithms only ever
/// look at sizes, and the engine only moves byte counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FileSpec {
    /// Stable identifier, unique within a dataset.
    pub id: u32,
    /// File size.
    pub size: Bytes,
}

impl FileSpec {
    /// Creates a file spec.
    pub fn new(id: u32, size: Bytes) -> Self {
        FileSpec { id, size }
    }
}

/// An ordered collection of files, the unit a transfer request operates on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable label (shows up in reports).
    pub name: String,
    files: Vec<FileSpec>,
}

impl Dataset {
    /// Creates a dataset from a list of files.
    pub fn new(name: impl Into<String>, files: Vec<FileSpec>) -> Self {
        Dataset {
            name: name.into(),
            files,
        }
    }

    /// Creates a dataset from raw sizes, assigning sequential ids.
    pub fn from_sizes(name: impl Into<String>, sizes: impl IntoIterator<Item = Bytes>) -> Self {
        let files = sizes
            .into_iter()
            .enumerate()
            .map(|(i, size)| FileSpec::new(i as u32, size))
            .collect();
        Dataset {
            name: name.into(),
            files,
        }
    }

    /// The files, in order.
    pub fn files(&self) -> &[FileSpec] {
        &self.files
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// True when the dataset has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Sum of all file sizes.
    pub fn total_size(&self) -> Bytes {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Mean file size; zero for an empty dataset.
    pub fn avg_file_size(&self) -> Bytes {
        if self.files.is_empty() {
            Bytes::ZERO
        } else {
            Bytes(self.total_size().as_u64() / self.files.len() as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dataset() {
        let d = Dataset::default();
        assert!(d.is_empty());
        assert_eq!(d.total_size(), Bytes::ZERO);
        assert_eq!(d.avg_file_size(), Bytes::ZERO);
    }

    #[test]
    fn from_sizes_assigns_sequential_ids() {
        let d = Dataset::from_sizes("d", [Bytes::from_mb(1), Bytes::from_mb(2)]);
        assert_eq!(d.file_count(), 2);
        assert_eq!(d.files()[0].id, 0);
        assert_eq!(d.files()[1].id, 1);
    }

    #[test]
    fn aggregates() {
        let d = Dataset::from_sizes(
            "d",
            [Bytes::from_mb(1), Bytes::from_mb(2), Bytes::from_mb(6)],
        );
        assert_eq!(d.total_size(), Bytes::from_mb(9));
        assert_eq!(d.avg_file_size(), Bytes::from_mb(3));
    }
}
