//! Property-based tests over the kernel's core data structures.

use crate::stats::{mape, LinearFit, MultiLinearFit};
use crate::time::{round_to_u64, SimDuration, SimTime};
use crate::units::{Bytes, Rate};
use crate::{SimRng, TimeSeries};
use proptest::prelude::*;

proptest! {
    #[test]
    fn time_addition_is_monotone(base in 0u64..1_000_000_000, add in 0u64..1_000_000_000) {
        let t = SimTime::from_micros(base);
        let t2 = t + SimDuration::from_micros(add);
        prop_assert!(t2 >= t);
        prop_assert_eq!(t2.since(t).as_micros(), add);
    }

    #[test]
    fn duration_sub_saturates(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let d = SimDuration::from_micros(a) - SimDuration::from_micros(b);
        prop_assert_eq!(d.as_micros(), a.saturating_sub(b));
    }

    #[test]
    fn bytes_time_rate_roundtrip(mb in 1u64..10_000, mbps in 1u64..100_000) {
        let size = Bytes::from_mb(mb);
        let rate = Rate::from_mbps(mbps as f64);
        let t = size.time_at(rate);
        let back = rate.bytes_in(t);
        // Rounding to whole microseconds loses at most one rate-quantum.
        let loss = size.as_f64() - back.as_f64();
        prop_assert!(loss.abs() <= rate.as_bps() / 8.0 * 2e-6 + 1.0,
            "loss {} for {} at {}", loss, size, rate);
    }

    // Bit patterns below that of 2^64 are every non-negative f64 that
    // fits a u64, each binade equally likely.
    #[test]
    fn rounding_and_flooring_match_libm(bits in 0u64..0x43F0_0000_0000_0000, bps in 0u64..1 << 40) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(round_to_u64(x), x.round() as u64, "{:?}", x);
        let rate = Rate::from_bps(bps as f64);
        let dur = SimDuration::from_micros(bits >> 20);
        let floored = (rate.as_bps() * dur.as_secs_f64() / 8.0).floor() as u64;
        prop_assert_eq!(rate.bytes_in(dur).as_u64(), floored);
    }

    #[test]
    fn series_integral_of_nonnegative_is_nonnegative(values in prop::collection::vec(0.0f64..1e6, 2..50)) {
        let mut s = TimeSeries::new();
        for (i, v) in values.iter().enumerate() {
            s.push(SimTime::from_secs_f64(i as f64), *v);
        }
        prop_assert!(s.integrate() >= 0.0);
    }

    #[test]
    fn series_integral_is_additive_over_split(values in prop::collection::vec(0.0f64..1e3, 4..40), cut in 1usize..3) {
        let mut s = TimeSeries::new();
        for (i, v) in values.iter().enumerate() {
            s.push(SimTime::from_secs_f64(i as f64), *v);
        }
        let end = (values.len() - 1) as f64;
        let mid = end * cut as f64 / 3.0;
        let a = s.integrate_between(SimTime::ZERO, SimTime::from_secs_f64(mid));
        let b = s.integrate_between(SimTime::from_secs_f64(mid), SimTime::from_secs_f64(end));
        let whole = s.integrate();
        prop_assert!((a + b - whole).abs() < 1e-6 * whole.max(1.0),
            "{} + {} != {}", a, b, whole);
    }

    #[test]
    fn linear_fit_recovers_any_line(slope in -100.0f64..100.0, intercept in -1000.0f64..1000.0) {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * slope.abs().max(1.0));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * intercept.abs().max(1.0));
    }

    #[test]
    fn multi_fit_predicts_training_points_of_exact_models(
        c0 in 0.01f64..2.0, c1 in 0.01f64..2.0
    ) {
        let rows: Vec<(Vec<f64>, f64)> = (0..30)
            .map(|i| {
                let x0 = (i % 7) as f64 * 13.0;
                let x1 = ((i * 3) % 11) as f64 * 7.0;
                (vec![x0, x1], c0 * x0 + c1 * x1)
            })
            .collect();
        let fit = MultiLinearFit::fit(&rows, false).unwrap();
        for (x, y) in &rows {
            let predicted: f64 = fit.coefficients.iter().zip(x).map(|(c, v)| c * v).sum();
            prop_assert!((predicted + fit.intercept - y).abs() < 1e-6 * y.abs().max(1.0));
        }
    }

    #[test]
    fn mape_is_nonnegative_and_zero_for_exact(values in prop::collection::vec(1.0f64..1e6, 1..30)) {
        prop_assert_eq!(mape(&values, &values), 0.0);
        let shifted: Vec<f64> = values.iter().map(|v| v * 1.1).collect();
        let e = mape(&values, &shifted);
        prop_assert!((e - 10.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_preserves_multiset(seed in 0u64..1000, n in 0usize..64) {
        let mut rng = SimRng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn log_uniform_stays_in_bounds(seed in 0u64..500, lo in 1.0f64..100.0, span in 1.5f64..1000.0) {
        let mut rng = SimRng::new(seed);
        let hi = lo * span;
        for _ in 0..50 {
            let x = rng.log_uniform(lo, hi);
            prop_assert!(x >= lo && x < hi, "{} not in [{}, {})", x, lo, hi);
        }
    }

    #[test]
    fn log_uniform_sampler_draws_log_uniforms_bits(
        seed in 0u64..500,
        lo in -10.0f64..1e7,
        span in 0.5f64..1e4,
    ) {
        // The sampler takes the logarithms once; the draws, their
        // rounding, and the degenerate ranges (a bound not positive,
        // `hi <= lo`) must all match `log_uniform` exactly.
        let hi = lo * span;
        let dist = crate::LogUniform::new(lo, hi);
        let (mut a, mut b, mut c) = (SimRng::new(seed), SimRng::new(seed), SimRng::new(seed));
        for _ in 0..20 {
            let x = a.log_uniform(lo, hi);
            prop_assert_eq!(dist.sample(&mut b).to_bits(), x.to_bits());
            prop_assert_eq!(dist.sample_rounded(&mut c), x.round() as u64);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}
