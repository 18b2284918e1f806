//! Deterministic, splittable random source.
//!
//! Every stochastic choice in the workspace (dataset generation, utilization
//! jitter, loss events) flows through [`SimRng`], which wraps a small
//! counter-based generator seeded explicitly. Two properties matter:
//!
//! 1. **Reproducibility** — the same seed always produces the same
//!    experiment, across platforms (no `HashMap` iteration order, no
//!    wall-clock seeding).
//! 2. **Splittability** — independent subsystems get derived streams
//!    (`fork`) so adding a random draw in one module does not perturb the
//!    sequence seen by another (a classic simulation-reproducibility trap).

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{de::Error, ser::Writer, value::Value, Deserialize, Serialize};

/// A deterministic random stream.
///
/// A stream serializes as `{"seed", "state"}`: the seed it was created
/// from (so [`SimRng::fork`] keeps deriving the same children after a
/// checkpoint restore) and the generator's raw state words (so the draw
/// sequence resumes exactly where it stopped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

/// The written form of a [`SimRng`]: the vendored `SmallRng` keeps its
/// xoshiro256++ state words private, so they travel through this pair.
#[derive(Serialize, Deserialize)]
struct StateWords {
    seed: u64,
    state: [u64; 4],
}

impl Serialize for SimRng {
    fn write_json(&self, w: &mut Writer<'_>) {
        StateWords {
            seed: self.seed,
            state: self.inner.state(),
        }
        .write_json(w);
    }
}

impl Deserialize for SimRng {
    fn deser_value(v: &Value) -> Result<Self, Error> {
        let StateWords { seed, state } = StateWords::deser_value(v)?;
        Ok(SimRng {
            inner: SmallRng::from_state(state),
            seed,
        })
    }
}

impl SimRng {
    /// Creates a stream from an explicit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child's sequence depends only on `(parent seed, label)`, not on
    /// how many values the parent has already produced.
    ///
    /// ```
    /// use eadt_sim::SimRng;
    /// use rand::RngCore;
    ///
    /// let mut a = SimRng::new(7).fork("dataset");
    /// let mut parent = SimRng::new(7);
    /// parent.next_u64(); // consuming the parent does not matter
    /// let mut b = parent.fork("dataset");
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a's shape, but not `Fnv1a`: the multiplier is not the FNV
        // prime (0x100_0000_01b3), and every seeded stream depends on it.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // splitmix finalizer to decorrelate nearby labels
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        SimRng::new(h)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform `f64` in `[lo, hi)`; returns `lo` when the range is empty.
    #[inline]
    pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.unit()
    }

    /// Uniform `u64` in `[lo, hi)`; returns `lo` when the range is empty.
    #[inline]
    pub(crate) fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Log-uniform `f64` in `[lo, hi)`, for heavy-tailed file-size mixes.
    ///
    /// Both bounds must be positive; degenerate ranges return `lo`.
    #[inline]
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        LogUniform::new(lo, hi).sample(self)
    }

    /// Gaussian sample via Box–Muller (mean 0, std 1).
    #[inline]
    pub(crate) fn standard_normal(&mut self) -> f64 {
        // Box–Muller; u1 is kept away from 0 so ln() stays finite.
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Gaussian sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.standard_normal()
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.range_u64(0, (i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }
}

/// The log-uniform distribution over `[lo, hi)` of
/// [`SimRng::log_uniform`], with both logarithms taken once: a draw is
/// one uniform draw between them and one `exp`, the same bits as
/// `log_uniform(lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogUniform {
    ln_lo: f64,
    ln_hi: f64,
    /// What a degenerate range (a bound not positive, or `hi <= lo`)
    /// returns without drawing.
    fixed: Option<f64>,
}

impl LogUniform {
    /// The distribution over `[lo, hi)`; degenerate ranges draw `lo`
    /// (at least 0).
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= 0.0 || hi <= lo {
            return LogUniform {
                ln_lo: 0.0,
                ln_hi: 0.0,
                fixed: Some(lo.max(0.0)),
            };
        }
        LogUniform {
            ln_lo: lo.ln(),
            ln_hi: hi.ln(),
            fixed: None,
        }
    }

    /// One draw.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self.fixed {
            Some(x) => x,
            None => rng.range_f64(self.ln_lo, self.ln_hi).exp(),
        }
    }

    /// One draw rounded to the nearest integer, ties away from zero:
    /// `sample(rng).round() as u64` for every draw below 2^64.
    #[inline]
    pub fn sample_rounded(&self, rng: &mut SimRng) -> u64 {
        crate::time::round_to_u64(self.sample(rng))
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_stable_regardless_of_parent_consumption() {
        let parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        // Consume some values from parent2 before forking.
        for _ in 0..10 {
            parent2.next_u64();
        }
        let mut c1 = parent1.fork("dataset");
        let mut c2 = parent2.fork("dataset");
        for _ in 0..20 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn fork_labels_decorrelate() {
        let parent = SimRng::new(7);
        let mut a = parent.fork("a");
        let mut b = parent.fork("b");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn snapshot_resumes_draws_and_forks() {
        let mut live = SimRng::new(42);
        for _ in 0..13 {
            live.next_u64();
        }
        let mut text = String::new();
        live.write_json(&mut Writer::compact(&mut text));
        assert_eq!(
            text,
            "{\"seed\":42,\"state\":[7019281298391013388,11822455574851291876,\
             8790548154218500974,13179076047628313453]}"
        );
        let mut resumed = SimRng::deser_value(&serde::value::parse(&text).unwrap()).unwrap();
        // Same draw sequence from the capture point...
        for _ in 0..50 {
            assert_eq!(live.next_u64(), resumed.next_u64());
        }
        // ...and forks still derive from the original seed.
        assert_eq!(
            live.fork("child").next_u64(),
            resumed.fork("child").next_u64()
        );
        assert_eq!(resumed.seed(), 42);
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_f64_bounds_and_degenerate() {
        let mut r = SimRng::new(4);
        for _ in 0..1000 {
            let x = r.range_f64(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
        assert_eq!(r.range_f64(5.0, 2.0), 5.0);
    }

    #[test]
    fn range_u64_bounds_and_degenerate() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
        assert_eq!(r.range_u64(9, 9), 9);
    }

    #[test]
    fn log_uniform_spans_orders_of_magnitude() {
        let mut r = SimRng::new(6);
        let mut below = 0usize;
        let n = 4000;
        for _ in 0..n {
            let x = r.log_uniform(1.0, 10_000.0);
            assert!((1.0..10_000.0).contains(&x));
            if x < 100.0 {
                below += 1;
            }
        }
        // log-uniform: half the mass below the geometric mean (100).
        let frac = below as f64 / n as f64;
        assert!((0.42..0.58).contains(&frac), "frac={frac}");
    }

    #[test]
    fn log_uniform_degenerate_inputs() {
        let mut r = SimRng::new(8);
        assert_eq!(r.log_uniform(-1.0, 5.0), 0.0);
        assert_eq!(r.log_uniform(3.0, 2.0), 3.0);
    }

    #[test]
    fn normal_moments_are_roughly_right() {
        let mut r = SimRng::new(9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std={}", var.sqrt());
    }

    #[test]
    fn chance_clamps_probability() {
        let mut r = SimRng::new(10);
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
