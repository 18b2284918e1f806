//! Append-only time series with integration and summaries.
//!
//! The transfer engine samples instantaneous power (Watts) and throughput
//! (Mbps) once per slice; [`TimeSeries`] turns those samples into the
//! quantities the paper reports: energy in Joules (trapezoidal integral of
//! power over time) and time-weighted means.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// One sample: a value observed at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// When the value was observed.
    pub time: SimTime,
    /// The observed value (unit decided by the owner of the series).
    pub value: f64,
}

/// An append-only series of `(time, value)` samples with non-decreasing
/// timestamps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Creates an empty series with room for `cap` samples.
    pub fn with_capacity(cap: usize) -> Self {
        TimeSeries {
            samples: Vec::with_capacity(cap),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last appended sample — the
    /// engine only moves forward.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(last) = self.samples.last() {
            assert!(
                time >= last.time,
                "time series must be appended in order: {time} < {}",
                last.time
            );
        }
        self.samples.push(Sample { time, value });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// The timestamp of the first sample.
    pub fn start(&self) -> Option<SimTime> {
        self.samples.first().map(|s| s.time)
    }

    /// The timestamp of the last sample.
    pub fn end(&self) -> Option<SimTime> {
        self.samples.last().map(|s| s.time)
    }

    /// Trapezoidal integral of the series over its full span.
    ///
    /// For a power series in Watts sampled in seconds, the result is energy
    /// in **Joules**. Returns 0 for fewer than two samples.
    ///
    /// ```
    /// use eadt_sim::{SimTime, TimeSeries};
    ///
    /// let mut power = TimeSeries::new();
    /// for t in 0..=10 {
    ///     power.push(SimTime::from_secs_f64(t as f64), 150.0); // 150 W
    /// }
    /// assert_eq!(power.integrate(), 1500.0); // J over 10 s
    /// ```
    pub fn integrate(&self) -> f64 {
        self.integrate_between(
            self.start().unwrap_or(SimTime::ZERO),
            self.end().unwrap_or(SimTime::ZERO),
        )
    }

    /// Trapezoidal integral restricted to `[from, to]`, interpolating at the
    /// boundaries.
    pub fn integrate_between(&self, from: SimTime, to: SimTime) -> f64 {
        if self.samples.len() < 2 || to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        for w in self.samples.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b.time <= from || a.time >= to {
                continue;
            }
            // Clip segment [a, b] to [from, to] with linear interpolation.
            let seg = (b.time - a.time).as_secs_f64();
            if seg <= 0.0 {
                continue;
            }
            let t0 = if a.time < from { from } else { a.time };
            let t1 = if b.time > to { to } else { b.time };
            let v_at = |t: SimTime| {
                let frac = (t - a.time).as_secs_f64() / seg;
                a.value + (b.value - a.value) * frac
            };
            let dt = (t1 - t0).as_secs_f64();
            acc += 0.5 * (v_at(t0) + v_at(t1)) * dt;
        }
        acc
    }

    /// Time-weighted mean over the full span (integral / duration).
    /// Returns the plain mean of values if the span is degenerate.
    pub fn time_weighted_mean(&self) -> f64 {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) if e > s => self.integrate() / (e - s).as_secs_f64(),
            _ => {
                if self.samples.is_empty() {
                    0.0
                } else {
                    self.samples.iter().map(|s| s.value).sum::<f64>() / self.samples.len() as f64
                }
            }
        }
    }

    /// Maximum sample value; `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.value)
            .fold(None, |m, v| match m {
                None => Some(v),
                Some(m) => Some(m.max(v)),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn empty_series_behaviour() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.integrate(), 0.0);
        assert_eq!(s.time_weighted_mean(), 0.0);
        assert_eq!(s.max_value(), None);
    }

    #[test]
    fn constant_power_integrates_to_p_times_t() {
        let mut s = TimeSeries::new();
        for i in 0..=10 {
            s.push(t(i as f64), 200.0); // 200 W for 10 s
        }
        assert!((s.integrate() - 2000.0).abs() < 1e-9);
        assert!((s.time_weighted_mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn linear_ramp_integrates_exactly() {
        // P(t) = 10 t over [0, 4] → ∫ = 80. Trapezoid is exact for linear.
        let mut s = TimeSeries::new();
        for i in 0..=4 {
            s.push(t(i as f64), 10.0 * i as f64);
        }
        assert!((s.integrate() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_between_clips_and_interpolates() {
        let mut s = TimeSeries::new();
        s.push(t(0.0), 0.0);
        s.push(t(10.0), 100.0); // P(t) = 10 t
                                // ∫_2^4 10t dt = 5(16-4) = 60
        assert!((s.integrate_between(t(2.0), t(4.0)) - 60.0).abs() < 1e-6);
        // Degenerate and out-of-range windows
        assert_eq!(s.integrate_between(t(4.0), t(4.0)), 0.0);
        assert_eq!(s.integrate_between(t(20.0), t(30.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new();
        s.push(t(5.0), 1.0);
        s.push(t(4.0), 1.0);
    }

    #[test]
    fn duplicate_timestamps_are_allowed() {
        let mut s = TimeSeries::new();
        s.push(t(1.0), 1.0);
        s.push(t(1.0), 2.0); // step change at the same instant
        s.push(t(2.0), 2.0);
        assert!((s.integrate() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn max_value_finds_peak() {
        let mut s = TimeSeries::new();
        s.push(t(0.0), 1.0);
        s.push(t(1.0), 9.0);
        s.push(t(2.0), 3.0);
        assert_eq!(s.max_value(), Some(9.0));
    }

    #[test]
    fn single_sample_mean_is_its_value() {
        let mut s = TimeSeries::new();
        s.push(t(3.0), 7.5);
        assert_eq!(s.time_weighted_mean(), 7.5);
    }
}
