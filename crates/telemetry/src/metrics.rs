//! The metrics registry: counters, gauges and fixed-bucket histograms,
//! with gauges sampled on a configurable sim-time cadence into
//! [`TimeSeries`].
//!
//! Handles ([`CounterId`], [`GaugeId`], [`HistogramId`]) are resolved
//! once at registration; hot-path updates are plain indexed stores with
//! no hashing, matching the engine's no-allocation slice loop.

use eadt_sim::{SimDuration, SimTime, TimeSeries};
use serde::{Deserialize, Serialize};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram: counts of observations falling at or below
/// each upper bound, plus an overflow bucket, running count and sum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Registered name.
    name: String,
    /// Ascending bucket upper bounds (inclusive).
    bounds: Vec<f64>,
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(name: &str, mut bounds: Vec<f64>) -> Self {
        bounds.sort_by(f64::total_cmp);
        let n = bounds.len();
        Histogram {
            name: name.to_string(),
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket-wise merge (fleet rollup): adds `other`'s counts and sum
    /// into `self`. Returns `false` — and leaves `self` untouched — when
    /// the bucket bounds differ (merging across incompatible grids would
    /// silently misbucket). Counts are integers and bucket addition is
    /// commutative and associative; the f64 `sum` is order-sensitive like
    /// any float accumulation, which is why the fleet merges in job-index
    /// order.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds || self.counts.len() != other.counts.len() {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        true
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Counter {
    name: String,
    value: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Gauge {
    name: String,
    /// Current (not-yet-sampled) value.
    value: f64,
    /// Samples taken so far.
    series: TimeSeries,
}

/// The registry. Gauges carry a current value set by instrumented code;
/// [`MetricsRegistry::tick`] snapshots every gauge into its
/// [`TimeSeries`] whenever the sampling cadence elapses.
///
/// The registry is its own checkpoint form: it serializes whole,
/// registrations in order, so a registry read back from a checkpoint
/// resolves the same handles (registration is find-by-name) and resumes
/// the sampler grid where it stopped. Check such a registry with
/// [`MetricsRegistry::is_sound`] before it samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    cadence: SimDuration,
    /// Next instant the sampler fires.
    next_sample: SimTime,
    /// Registrations, each in registration order.
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// Creates a registry sampling gauges every `cadence` of sim time.
    /// The first sample fires on the first `tick` at or after t=0.
    pub fn new(cadence: SimDuration) -> Self {
        assert!(!cadence.is_zero(), "sampling cadence must be positive");
        MetricsRegistry {
            cadence,
            next_sample: SimTime::ZERO,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Sampling cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|c| c.name == name) {
            return CounterId(i);
        }
        self.counters.push(Counter {
            name: name.to_string(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(i);
        }
        self.gauges.push(Gauge {
            name: name.to_string(),
            value: 0.0,
            series: TimeSeries::new(),
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram by name with the given ascending
    /// bucket upper bounds. Bounds are fixed at first registration.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i);
        }
        self.histograms.push(Histogram::new(name, bounds.to_vec()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Sets a gauge's current value (snapshotted on the next sample).
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].observe(value);
    }

    /// Advances the sampler to `now`. When the cadence has elapsed,
    /// snapshots every gauge into its series and returns `true` (at most
    /// once per call — a long gap records one sample at `now`, not
    /// backfill, since gauge history between ticks is unknown).
    pub fn tick(&mut self, now: SimTime) -> bool {
        if now < self.next_sample {
            return false;
        }
        for g in &mut self.gauges {
            g.series.push(now, g.value);
        }
        // Next deadline on the cadence grid strictly after `now`.
        let mut next = self.next_sample;
        while next <= now {
            next += self.cadence;
        }
        self.next_sample = next;
        true
    }

    /// The next instant at which [`MetricsRegistry::tick`] will sample —
    /// i.e. the earliest `now` for which `tick(now)` returns `true`. The
    /// engine's macro-stepper uses this to bound the number of slices it
    /// may skip without missing a gauge sample.
    pub fn next_tick(&self) -> SimTime {
        self.next_sample
    }

    /// All counters as `(name, value)` in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|c| (c.name.as_str(), c.value))
    }

    /// All gauges as `(name, series)` in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.gauges.iter().map(|g| (g.name.as_str(), &g.series))
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> &[Histogram] {
        &self.histograms
    }

    /// Whether the registry keeps the invariants [`MetricsRegistry::new`]
    /// and [`MetricsRegistry::histogram`] establish: a positive cadence
    /// (else [`MetricsRegistry::tick`] never returns) and one count per
    /// bucket plus the overflow in every histogram (else
    /// [`Histogram::observe`] indexes out of range). A registry read back
    /// from a checkpoint must pass this before it samples.
    pub fn is_sound(&self) -> bool {
        !self.cadence.is_zero()
            && (self.histograms.iter()).all(|h| h.counts.len() == h.bounds.len() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn counters_and_gauges_register_once_per_name() {
        let mut m = MetricsRegistry::new(SimDuration::from_secs(1));
        let a = m.counter("retries");
        let b = m.counter("retries");
        assert_eq!(a, b);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("retries", 0)]);

        let g = m.gauge("watts");
        assert_eq!(m.gauge("watts"), g);
        assert_eq!(m.gauges().count(), 1);
    }

    #[test]
    fn tick_samples_on_the_cadence_grid() {
        let mut m = MetricsRegistry::new(SimDuration::from_secs(1));
        let g = m.gauge("thr");

        m.set(g, 10.0);
        assert!(m.tick(t(0.0)), "first tick samples at t=0");
        assert!(!m.tick(t(0.1)));
        assert!(!m.tick(t(0.9)));
        m.set(g, 20.0);
        assert!(m.tick(t(1.0)));
        assert!(!m.tick(t(1.5)));

        let s = m.gauges().next().unwrap().1.samples();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].value, 10.0);
        assert_eq!(s[1].value, 20.0);
        assert_eq!(s[1].time, t(1.0));
    }

    #[test]
    fn tick_does_not_backfill_after_a_gap() {
        let mut m = MetricsRegistry::new(SimDuration::from_secs(1));
        let g = m.gauge("thr");
        assert!(m.tick(t(0.0)));
        // Jump far ahead: one sample at `now`, and the grid realigns.
        m.set(g, 5.0);
        assert!(m.tick(t(10.25)));
        assert!(!m.tick(t(10.9)));
        assert!(m.tick(t(11.0)));
        assert_eq!(m.gauges().next().unwrap().1.len(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new("lat", vec![1.0, 5.0, 10.0]);
        for v in [0.5, 0.9, 3.0, 7.0, 12.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert!((h.mean() - 23.4 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_restores_registrations_and_sampler_grid() {
        let mut m = MetricsRegistry::new(SimDuration::from_secs(1));
        let c = m.counter("retries");
        let g = m.gauge("thr");
        let h = m.histogram("lat", &[1.0, 5.0]);
        m.set(g, 42.0);
        m.observe(h, 3.0);
        m.tick(t(0.0));
        m.set(g, 43.0);
        m.tick(t(1.0));

        // The registry is its own checkpoint form, written sorted by name.
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(
            text,
            "{\"cadence\":{\"micros\":1000000},\"counters\":[{\"name\":\"retries\",\"value\":0}],\
             \"gauges\":[{\"name\":\"thr\",\"series\":{\"samples\":[{\"time\":{\"micros\":0},\
             \"value\":42.0},{\"time\":{\"micros\":1000000},\"value\":43.0}]},\"value\":43.0}],\
             \"histograms\":[{\"bounds\":[1.0,5.0],\"count\":1,\"counts\":[0,1,0],\"name\":\"lat\",\
             \"sum\":3.0}],\"next_sample\":{\"micros\":2000000}}"
        );
        // It survives its JSON transport bit-exactly...
        let mut back: MetricsRegistry = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
        assert!(back.is_sound());
        // ...the same handles resolve (find-by-name, same order)...
        assert_eq!(back.counter("retries"), c);
        assert_eq!(back.gauge("thr"), g);
        assert_eq!(back.histogram("lat", &[1.0, 5.0]), h);
        assert_eq!(back.gauges().next().unwrap().1.len(), 2);
        // ...and the sampler grid continues where it stopped.
        assert_eq!(back.next_tick(), m.next_tick());
        assert!(!back.tick(t(1.5)));
        assert!(back.tick(t(2.0)));
    }

    #[test]
    fn registries_read_from_disk_are_checked_for_soundness() {
        let mut m = MetricsRegistry::new(SimDuration::from_secs(1));
        m.histogram("lat", &[1.0, 5.0]);
        assert!(m.is_sound());
        let mut short = m.clone();
        short.histograms[0].counts.pop();
        assert!(!short.is_sound(), "observe would index past the counts");
        let mut stalled = m.clone();
        stalled.cadence = SimDuration::ZERO;
        assert!(!stalled.is_sound(), "tick would never return");
    }

    #[test]
    fn histogram_boundary_values_fall_in_the_lower_bucket() {
        let mut h = Histogram::new("lat", vec![1.0, 2.0]);
        h.observe(1.0);
        h.observe(2.0);
        assert_eq!(h.counts(), &[1, 1, 0]);
        // No explicit bounds: everything lands in the overflow bucket.
        let mut h = Histogram::new("lat", vec![]);
        h.observe(3.0);
        assert_eq!(h.counts(), &[1]);
    }

    fn snap_of(values: &[f64]) -> Histogram {
        let mut h = Histogram::new("lat", vec![1.0, 5.0, 10.0]);
        for v in values {
            h.observe(*v);
        }
        h
    }

    #[test]
    fn snapshot_merge_is_bucket_wise_and_associative() {
        // Integer-valued observations keep the f64 sums exact, so
        // associativity holds bit-for-bit.
        let a = snap_of(&[0.0, 3.0]);
        let b = snap_of(&[7.0]);
        let c = snap_of(&[12.0, 12.0, 4.0]);

        let mut ab_c = a.clone();
        assert!(ab_c.merge(&b));
        assert!(ab_c.merge(&c));

        let mut bc = b.clone();
        assert!(bc.merge(&c));
        let mut a_bc = a.clone();
        assert!(a_bc.merge(&bc));

        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.count, 6);
        assert_eq!(ab_c.counts, vec![1, 2, 1, 2]);
        assert_eq!(ab_c.sum, 38.0);
    }

    #[test]
    fn snapshot_merge_rejects_mismatched_bounds() {
        let mut a = snap_of(&[3.0]);
        let before = a.clone();
        let mut other = snap_of(&[3.0]);
        other.bounds = vec![2.0, 5.0, 10.0];
        assert!(!a.merge(&other));
        assert_eq!(a, before, "rejected merge must not mutate");
    }
}
