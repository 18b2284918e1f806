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
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Ascending bucket upper bounds (inclusive).
    bounds: Vec<f64>,
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(mut bounds: Vec<f64>) -> Self {
        bounds.sort_by(f64::total_cmp);
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
        }
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
}

struct Counter {
    name: String,
    value: u64,
}

struct Gauge {
    name: String,
    value: f64,
    series: TimeSeries,
}

struct NamedHistogram {
    name: String,
    hist: Histogram,
}

/// The registry. Gauges carry a current value set by instrumented code;
/// [`MetricsRegistry::tick`] snapshots every gauge into its
/// [`TimeSeries`] whenever the sampling cadence elapses.
pub struct MetricsRegistry {
    cadence: SimDuration,
    next_sample: SimTime,
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<NamedHistogram>,
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
        self.histograms.push(NamedHistogram {
            name: name.to_string(),
            hist: Histogram::new(bounds.to_vec()),
        });
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
        self.histograms[id.0].hist.observe(value);
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

    /// All histograms as `(name, histogram)` in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|h| (h.name.as_str(), &h.hist))
    }

    /// Captures the registry's full state (registrations included) for a
    /// checkpoint.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cadence: self.cadence,
            next_sample: self.next_sample,
            counters: self
                .counters
                .iter()
                .map(|c| CounterSnapshot {
                    name: c.name.clone(),
                    value: c.value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| GaugeSnapshot {
                    name: g.name.clone(),
                    value: g.value,
                    series: g.series.clone(),
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSnapshot {
                    name: h.name.clone(),
                    bounds: h.hist.bounds.clone(),
                    counts: h.hist.counts.clone(),
                    count: h.hist.count,
                    sum: h.hist.sum,
                })
                .collect(),
        }
    }

    /// Rebuilds a registry from a [`snapshot`]. Registration order is
    /// preserved, so handles resolved by instrumented code after a restore
    /// (registration is find-by-name) land on the restored slots.
    ///
    /// [`snapshot`]: MetricsRegistry::snapshot
    pub fn restore(snap: &MetricsSnapshot) -> Self {
        MetricsRegistry {
            cadence: snap.cadence,
            next_sample: snap.next_sample,
            counters: snap
                .counters
                .iter()
                .map(|c| Counter {
                    name: c.name.clone(),
                    value: c.value,
                })
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|g| Gauge {
                    name: g.name.clone(),
                    value: g.value,
                    series: g.series.clone(),
                })
                .collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|h| NamedHistogram {
                    name: h.name.clone(),
                    hist: Histogram {
                        bounds: h.bounds.clone(),
                        counts: h.counts.clone(),
                        count: h.count,
                        sum: h.sum,
                    },
                })
                .collect(),
        }
    }
}

/// Serializable state of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// Serializable state of one gauge, including its sampled series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Current (not-yet-sampled) value.
    pub value: f64,
    /// Samples taken so far.
    pub series: TimeSeries,
}

/// Serializable state of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (last entry is overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Bucket-wise merge (fleet rollup): adds `other`'s counts and sum
    /// into `self`. Returns `false` — and leaves `self` untouched — when
    /// the bucket bounds differ (merging across incompatible grids would
    /// silently misbucket). Counts are integers and bucket addition is
    /// commutative and associative; the f64 `sum` is order-sensitive like
    /// any float accumulation, which is why the fleet merges in job-index
    /// order.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> bool {
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

/// Serializable state of a [`MetricsRegistry`], for checkpointing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Sampling cadence.
    pub cadence: SimDuration,
    /// Next instant the sampler fires.
    pub next_sample: SimTime,
    /// Counters in registration order.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms in registration order.
    pub histograms: Vec<HistogramSnapshot>,
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
        let mut h = Histogram::new(vec![1.0, 5.0, 10.0]);
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

        let snap = m.snapshot();
        let mut back = MetricsRegistry::restore(&snap);
        // Same handles resolve (find-by-name, same order)...
        assert_eq!(back.counter("retries"), c);
        assert_eq!(back.gauge("thr"), g);
        assert_eq!(back.histogram("lat", &[1.0, 5.0]), h);
        assert_eq!(back.snapshot(), snap);
        assert_eq!(back.gauges().next().unwrap().1.len(), 2);
        // ...and the sampler grid continues where it stopped.
        assert_eq!(back.next_tick(), m.next_tick());
        assert!(!back.tick(t(1.5)));
        assert!(back.tick(t(2.0)));
        // The snapshot survives its JSON transport bit-exactly.
        let text = serde_json::to_string(&snap).unwrap();
        let reparsed: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(reparsed, snap);
    }

    #[test]
    fn histogram_boundary_values_fall_in_the_lower_bucket() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.observe(1.0);
        h.observe(2.0);
        assert_eq!(h.counts(), &[1, 1, 0]);
        // No explicit bounds: everything lands in the overflow bucket.
        let mut h = Histogram::new(vec![]);
        h.observe(3.0);
        assert_eq!(h.counts(), &[1]);
    }

    fn snap_of(values: &[f64]) -> HistogramSnapshot {
        let mut h = Histogram::new(vec![1.0, 5.0, 10.0]);
        for v in values {
            h.observe(*v);
        }
        HistogramSnapshot {
            name: "lat".into(),
            bounds: h.bounds().to_vec(),
            counts: h.counts().to_vec(),
            count: h.count(),
            sum: h.sum(),
        }
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
