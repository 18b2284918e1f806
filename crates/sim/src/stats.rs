//! Summary statistics and least-squares regression.
//!
//! The paper builds its power models with a "one time model building phase":
//! measure component power at varying load levels, then apply **linear
//! regression** to derive per-component coefficients (§2.2). This module
//! provides that regression machinery: simple OLS for one predictor and
//! multiple OLS (normal equations + Gaussian elimination with partial
//! pivoting) for the four-component fine-grained model.

use serde::{Deserialize, Serialize};

/// Basic summary statistics over a slice of observations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean; 0 when empty.
    pub mean: f64,
    /// Population standard deviation; 0 when fewer than two observations.
    pub std_dev: f64,
    /// Minimum value; 0 when empty.
    pub min: f64,
    /// Maximum value; 0 when empty.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `values`.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        Summary {
            count: values.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// Result of a simple (one predictor) least-squares fit `y ≈ a·x + b`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope `a`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
    /// Pearson correlation coefficient `r` (the paper quotes 89.71% CPU/power
    /// correlation).
    pub r: f64,
    /// Coefficient of determination `r²`.
    pub r_squared: f64,
}

impl LinearFit {
    /// Fits `y ≈ slope·x + intercept` by ordinary least squares.
    ///
    /// Returns `None` when fewer than two points are supplied or all `x`
    /// are identical (the slope is then undefined).
    pub fn fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
        let n = xs.len().min(ys.len());
        if n < 2 {
            return None;
        }
        let xs = &xs[..n];
        let ys = &ys[..n];
        let nf = n as f64;
        let mx = xs.iter().sum::<f64>() / nf;
        let my = ys.iter().sum::<f64>() / nf;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        let mut sxy = 0.0;
        for i in 0..n {
            let dx = xs[i] - mx;
            let dy = ys[i] - my;
            sxx += dx * dx;
            syy += dy * dy;
            sxy += dx * dy;
        }
        if sxx <= 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let r = if syy <= 0.0 {
            0.0
        } else {
            sxy / (sxx.sqrt() * syy.sqrt())
        };
        Some(LinearFit {
            slope,
            intercept,
            r,
            r_squared: r * r,
        })
    }
}

/// Result of a multiple least-squares fit `y ≈ Σ cᵢ·xᵢ (+ intercept)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiLinearFit {
    /// One coefficient per predictor column.
    pub coefficients: Vec<f64>,
    /// Intercept (0 when fitted without one).
    pub intercept: f64,
    /// Coefficient of determination on the training data.
    pub r_squared: f64,
}

impl MultiLinearFit {
    /// Fits `y ≈ Σ cᵢ·xᵢ + b` by solving the normal equations.
    ///
    /// `rows` holds one observation per entry: the predictor vector (all the
    /// same length) and the response. When `with_intercept` is false, the
    /// model is forced through the origin — appropriate for power models
    /// where zero utilization of every component should predict zero
    /// *dynamic* power.
    ///
    /// Returns `None` for an empty system, ragged rows, or a singular
    /// normal matrix (e.g. perfectly collinear predictors).
    pub fn fit(rows: &[(Vec<f64>, f64)], with_intercept: bool) -> Option<MultiLinearFit> {
        let m = rows.first()?.0.len();
        if m == 0 || rows.iter().any(|(x, _)| x.len() != m) {
            return None;
        }
        let k = m + usize::from(with_intercept);
        if rows.len() < k {
            return None;
        }
        // Build X^T X (k×k) and X^T y (k), with the intercept as a trailing
        // all-ones column when requested.
        let mut xtx = vec![0.0f64; k * k];
        let mut xty = vec![0.0f64; k];
        let col = |x: &[f64], j: usize| -> f64 {
            if j < m {
                x[j]
            } else {
                1.0
            }
        };
        for (x, y) in rows {
            for i in 0..k {
                let xi = col(x, i);
                xty[i] += xi * *y;
                for j in 0..k {
                    xtx[i * k + j] += xi * col(x, j);
                }
            }
        }
        let solution = solve_linear_system(&mut xtx, &mut xty, k)?;
        let (coefficients, intercept) = if with_intercept {
            (solution[..m].to_vec(), solution[m])
        } else {
            (solution, 0.0)
        };
        // R² on the training data.
        let my = rows.iter().map(|(_, y)| *y).sum::<f64>() / rows.len() as f64;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (x, y) in rows {
            let pred: f64 = coefficients.iter().zip(x).map(|(c, v)| c * v).sum::<f64>() + intercept;
            ss_res += (y - pred).powi(2);
            ss_tot += (y - my).powi(2);
        }
        let r_squared = if ss_tot <= 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        Some(MultiLinearFit {
            coefficients,
            intercept,
            r_squared,
        })
    }
}

/// Solves `A·x = b` in place (A is `n×n`, row-major) by Gaussian elimination
/// with partial pivoting. Returns `None` if the matrix is singular.
fn solve_linear_system(a: &mut [f64], b: &mut [f64], n: usize) -> Option<Vec<f64>> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n);
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return None;
        }
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = a[row * n + col] / a[col * n + col];
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                a[row * n + j] -= factor * a[col * n + j];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for j in (row + 1)..n {
            acc -= a[row * n + j] * x[j];
        }
        x[row] = acc / a[row * n + row];
    }
    Some(x)
}

/// Mean absolute percentage error between predictions and observations,
/// skipping observations with zero actual value. This is the error metric
/// behind the paper's "error rate is below 6%" model-accuracy claims.
pub fn mape(actual: &[f64], predicted: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for (a, p) in actual.iter().zip(predicted) {
        if a.abs() > f64::EPSILON {
            acc += ((a - p) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-10);
        assert!((fit.intercept - 2.0).abs() < 1e-10);
        assert!((fit.r - 1.0).abs() < 1e-10);
        assert!((fit.slope * 20.0 + fit.intercept - 62.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_rejects_degenerate_input() {
        assert!(LinearFit::fit(&[1.0], &[2.0]).is_none());
        assert!(LinearFit::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn linear_fit_correlation_sign() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -2.0 * x + 40.0).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!(fit.r < -0.999);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn multi_fit_recovers_coefficients_no_intercept() {
        // y = 0.3 x0 + 0.05 x1 + 0.1 x2, through origin (like Eq. 1).
        let mut rows = Vec::new();
        for i in 0..30 {
            let x0 = (i % 10) as f64 * 10.0;
            let x1 = ((i * 7) % 10) as f64 * 10.0;
            let x2 = ((i * 3) % 10) as f64 * 10.0;
            let y = 0.3 * x0 + 0.05 * x1 + 0.1 * x2;
            rows.push((vec![x0, x1, x2], y));
        }
        let fit = MultiLinearFit::fit(&rows, false).unwrap();
        assert!((fit.coefficients[0] - 0.3).abs() < 1e-8);
        assert!((fit.coefficients[1] - 0.05).abs() < 1e-8);
        assert!((fit.coefficients[2] - 0.1).abs() < 1e-8);
        assert_eq!(fit.intercept, 0.0);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn multi_fit_recovers_intercept() {
        let mut rows = Vec::new();
        for i in 0..20 {
            let x = i as f64;
            rows.push((vec![x], 2.0 * x + 5.0));
        }
        let fit = MultiLinearFit::fit(&rows, true).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 5.0).abs() < 1e-9);
        assert!((fit.coefficients[0] * 10.0 + fit.intercept - 25.0).abs() < 1e-8);
    }

    #[test]
    fn multi_fit_rejects_collinear_predictors() {
        // x1 = 2·x0 exactly → singular normal matrix.
        let rows: Vec<(Vec<f64>, f64)> = (0..10)
            .map(|i| (vec![i as f64, 2.0 * i as f64], i as f64))
            .collect();
        assert!(MultiLinearFit::fit(&rows, false).is_none());
    }

    #[test]
    fn multi_fit_rejects_underdetermined_and_ragged() {
        let rows = vec![(vec![1.0, 2.0], 3.0)];
        assert!(MultiLinearFit::fit(&rows, false).is_none());
        let ragged = vec![(vec![1.0], 1.0), (vec![1.0, 2.0], 2.0)];
        assert!(MultiLinearFit::fit(&ragged, false).is_none());
        assert!(MultiLinearFit::fit(&[], false).is_none());
    }

    #[test]
    fn multi_fit_with_noise_stays_close() {
        // Deterministic pseudo-noise; coefficients should be recovered to ~1%.
        let mut rows = Vec::new();
        for i in 0..200 {
            let x0 = (i % 17) as f64 * 6.0;
            let x1 = ((i * 5) % 13) as f64 * 8.0;
            let noise = (((i * 2654435761u64) % 1000) as f64 / 1000.0 - 0.5) * 0.5;
            rows.push((vec![x0, x1], 0.34 * x0 + 0.11 * x1 + noise));
        }
        let fit = MultiLinearFit::fit(&rows, false).unwrap();
        assert!((fit.coefficients[0] - 0.34).abs() < 0.01);
        assert!((fit.coefficients[1] - 0.11).abs() < 0.01);
    }

    #[test]
    fn mape_behaviour() {
        assert_eq!(mape(&[], &[]), 0.0);
        assert_eq!(mape(&[0.0], &[5.0]), 0.0); // zero actuals skipped
        let e = mape(&[100.0, 200.0], &[90.0, 220.0]);
        assert!((e - 10.0).abs() < 1e-9); // (10% + 10%) / 2
    }

    #[test]
    fn solver_handles_pivoting() {
        // Leading zero forces a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![2.0, 3.0];
        let x = solve_linear_system(&mut a, &mut b, 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solver_rejects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(solve_linear_system(&mut a, &mut b, 2).is_none());
    }
}
