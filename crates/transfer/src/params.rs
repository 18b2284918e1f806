//! The three application-layer parameters (§2.1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A (pipelining, parallelism, concurrency) combination.
///
/// All three are at least 1: a transfer always has one command outstanding,
/// one stream per channel, and one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransferParams {
    /// Commands kept in flight on the control channel (hides per-file RTTs).
    pub pipelining: u32,
    /// TCP streams per file (multiplies the per-stream window).
    pub parallelism: u32,
    /// Simultaneous data channels, each moving its own file.
    pub concurrency: u32,
}

impl TransferParams {
    /// Everything set to 1 — the untuned baseline (globus-url-copy as the
    /// paper configures it).
    pub const BASELINE: TransferParams = TransferParams {
        pipelining: 1,
        parallelism: 1,
        concurrency: 1,
    };

    /// Creates a parameter set, clamping every field to ≥ 1.
    pub fn new(pipelining: u32, parallelism: u32, concurrency: u32) -> Self {
        TransferParams {
            pipelining: pipelining.max(1),
            parallelism: parallelism.max(1),
            concurrency: concurrency.max(1),
        }
    }

    /// Total TCP streams this combination opens (`concurrency ×
    /// parallelism`) — the quantity congestion cares about.
    pub fn total_streams(&self) -> u32 {
        self.concurrency.saturating_mul(self.parallelism)
    }
}

impl Default for TransferParams {
    fn default() -> Self {
        TransferParams::BASELINE
    }
}

impl fmt::Display for TransferParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pp={} p={} cc={}",
            self.pipelining, self.parallelism, self.concurrency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_zeroes() {
        let p = TransferParams::new(0, 0, 0);
        assert_eq!(p, TransferParams::BASELINE);
    }

    #[test]
    fn total_streams() {
        assert_eq!(TransferParams::new(4, 3, 5).total_streams(), 15);
        assert_eq!(TransferParams::BASELINE.total_streams(), 1);
    }

    #[test]
    fn display_format() {
        assert_eq!(TransferParams::new(20, 2, 2).to_string(), "pp=20 p=2 cc=2");
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(TransferParams::default(), TransferParams::BASELINE);
    }

    #[test]
    fn total_streams_saturates() {
        let p = TransferParams::new(1, u32::MAX, 2);
        assert_eq!(p.total_streams(), u32::MAX);
    }
}
