//! Residual diagnostics for identified models.
//!
//! A model that captures the dynamics leaves *white* one-step-ahead
//! residuals; left-over structure (autocorrelation) means unmodelled
//! dynamics. This is the standard system-identification lens on the
//! paper's first- vs second-order comparison: the first-order model's
//! residuals stay correlated at short lags because the mixing delay is
//! unmodelled, the second-order model whitens them.

use serde::{Deserialize, Serialize};

use thermal_linalg::Matrix;
use thermal_timeseries::{Dataset, Mask};

use crate::regressors::{resolve_spec, usable_segments, write_transitions};
use crate::{Result, SysidError, ThermalModel};

/// One-step-ahead residuals of a model over the usable segments of a
/// mask, stacked per sensor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualReport {
    sensor_names: Vec<String>,
    /// `residuals[s]` holds sensor `s`'s one-step residuals in time
    /// order (segments concatenated).
    residuals: Vec<Vec<f64>>,
}

impl ResidualReport {
    /// Sensor names, aligned with the residual series.
    pub fn sensor_names(&self) -> &[String] {
        &self.sensor_names
    }

    /// Residual series for sensor `s`.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn residuals(&self, s: usize) -> &[f64] {
        &self.residuals[s]
    }

    /// Number of residual samples per sensor.
    pub fn len(&self) -> usize {
        self.residuals.first().map_or(0, Vec::len)
    }

    /// `true` when no residuals were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample autocorrelation of sensor `s`'s residuals at lags
    /// `1..=max_lag`.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::InsufficientData`] when fewer than
    /// `max_lag + 2` residuals exist or the residual variance is zero.
    pub fn autocorrelation(&self, s: usize, max_lag: usize) -> Result<Vec<f64>> {
        autocorrelation(&self.residuals[s], max_lag)
    }

    /// Ljung–Box Q statistic for sensor `s` over `max_lag` lags
    /// (`n(n+2) Σ ρ_k²/(n−k)`); larger means more leftover structure.
    /// Under whiteness Q is approximately χ² with `max_lag` degrees of
    /// freedom, so `Q ≫ max_lag` flags unmodelled dynamics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResidualReport::autocorrelation`].
    pub fn ljung_box(&self, s: usize, max_lag: usize) -> Result<f64> {
        let rho = self.autocorrelation(s, max_lag)?;
        let n = self.residuals[s].len() as f64;
        Ok(n * (n + 2.0)
            * rho
                .iter()
                .enumerate()
                .map(|(i, r)| r * r / (n - (i + 1) as f64))
                .sum::<f64>())
    }

    /// Mean Ljung–Box statistic across all sensors — a one-number
    /// whiteness summary for model comparison.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResidualReport::ljung_box`].
    pub fn mean_ljung_box(&self, max_lag: usize) -> Result<f64> {
        let mut total = 0.0;
        for s in 0..self.residuals.len() {
            total += self.ljung_box(s, max_lag)?;
        }
        Ok(total / self.residuals.len() as f64)
    }
}

/// Sample autocorrelation of a series at lags `1..=max_lag`.
///
/// # Errors
///
/// Returns [`SysidError::InsufficientData`] for series shorter than
/// `max_lag + 2` or with zero variance.
pub fn autocorrelation(series: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    let n = series.len();
    if n < max_lag + 2 {
        return Err(SysidError::InsufficientData {
            available: n,
            required: max_lag + 2,
        });
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var == 0.0 {
        return Err(SysidError::InsufficientData {
            available: 0,
            required: 1,
        });
    }
    Ok((1..=max_lag)
        .map(|lag| {
            let cov: f64 = (0..n - lag)
                .map(|i| (series[i] - mean) * (series[i + lag] - mean))
                .sum();
            cov / var
        })
        .collect())
}

/// Computes one-step-ahead residuals of `model` over the usable
/// segments of `mask`.
///
/// # Errors
///
/// * channel-resolution failures,
/// * [`SysidError::InsufficientData`] when no transition exists.
pub fn residual_report(
    model: &ThermalModel,
    dataset: &Dataset,
    mask: &Mask,
) -> Result<ResidualReport> {
    let spec = model.spec();
    let (outputs, inputs) = resolve_spec(dataset, spec)?;
    let segments = usable_segments(dataset, spec, mask)?;
    let warmup = spec.order.warmup();
    let width = spec.regressor_width();
    let p = outputs.len();

    let total: usize = segments.iter().map(|s| s.transition_count(warmup)).sum();
    let mut residuals: Vec<Vec<f64>> = vec![Vec::with_capacity(total); p];
    let (mut x, mut y) = (Vec::new(), Vec::new());
    let mut predicted = Vec::with_capacity(p);
    for seg in segments {
        let rows = seg.transition_count(warmup);
        x.resize(rows * width, 0.0);
        y.resize(rows * p, 0.0);
        let run = (seg.start + warmup - 1, seg.end - 1);
        write_transitions(dataset, &outputs, &inputs, spec.order, run, &mut x, &mut y)?;
        for (xr, actual) in x.chunks_exact(width).zip(y.chunks_exact(p)) {
            model.predict_regressor_into(xr, &mut predicted)?;
            for ((series, a), f) in residuals.iter_mut().zip(actual).zip(&predicted) {
                series.push(a - f);
            }
        }
    }
    if residuals[0].is_empty() {
        return Err(SysidError::InsufficientData {
            available: 0,
            required: 1,
        });
    }
    Ok(ResidualReport {
        sensor_names: spec.outputs.clone(),
        residuals,
    })
}

/// Matrix view of the residuals (`samples × sensors`), convenient for
/// further statistics.
pub fn residual_matrix(report: &ResidualReport) -> Matrix {
    let p = report.sensor_names.len();
    let n = report.len();
    Matrix::from_fn(n, p, |r, c| report.residuals[c][r])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{identify, FitConfig, ModelOrder, ModelSpec};
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    /// A second-order scalar plant: T(k+1) = 0.7 T(k) + 0.25 ΔT(k) + u.
    fn second_order_dataset(n: usize) -> Dataset {
        let u: Vec<f64> = (0..n).map(|k| (k as f64 * 0.23).sin()).collect();
        let mut t = vec![1.0_f64, 1.2];
        for k in 1..n - 1 {
            let dt = t[k] - t[k - 1];
            t.push(0.7 * t[k] + 0.25 * dt + u[k]);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        Dataset::new(
            grid,
            vec![
                Channel::from_values("t", t).unwrap(),
                Channel::from_values("u", u).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative_at_lag_one() {
        let series: Vec<f64> = (0..60)
            .map(|k| if k % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let rho = autocorrelation(&series, 2).unwrap();
        assert!(rho[0] < -0.9);
        assert!(rho[1] > 0.9);
    }

    #[test]
    fn autocorrelation_validation() {
        assert!(autocorrelation(&[1.0, 2.0], 3).is_err());
        assert!(autocorrelation(&[5.0; 20], 2).is_err()); // zero variance
        let rho = autocorrelation(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2).unwrap();
        assert_eq!(rho.len(), 2);
    }

    #[test]
    fn underfit_model_has_higher_ljung_box_than_correct_one() {
        let ds = second_order_dataset(400);
        let mask = Mask::all(ds.grid());
        let fit = FitConfig::plain();
        let spec1 = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First).unwrap();
        let spec2 = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::Second).unwrap();
        let m1 = identify(&ds, &spec1, &mask, &fit).unwrap();
        let m2 = identify(&ds, &spec2, &mask, &fit).unwrap();

        let r1 = residual_report(&m1, &ds, &mask).unwrap();
        let r2 = residual_report(&m2, &ds, &mask).unwrap();
        // The second-order fit reproduces the plant exactly: residuals
        // are numerically zero, so whiteness statistics are undefined
        // for it; the first-order fit leaves structured residuals.
        let q1 = r1.mean_ljung_box(5).unwrap();
        // Whiteness threshold: chi-square(5) 99th percentile is ~15.1.
        assert!(
            q1 > 15.1,
            "first-order residuals should be detectably autocorrelated, Q = {q1}"
        );
        // The exact fit leaves only float-level residuals.
        let worst = r2.residuals(0).iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        assert!(worst < 1e-8, "exact fit left real residuals: {worst}");
    }

    #[test]
    fn residual_report_shapes() {
        let ds = second_order_dataset(100);
        let mask = Mask::all(ds.grid());
        let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First).unwrap();
        let model = identify(&ds, &spec, &mask, &FitConfig::plain()).unwrap();
        let report = residual_report(&model, &ds, &mask).unwrap();
        assert_eq!(report.sensor_names(), &["t".to_owned()]);
        assert!(!report.is_empty());
        assert_eq!(report.len(), 99);
        assert_eq!(report.residuals(0).len(), 99);
        let m = residual_matrix(&report);
        assert_eq!(m.shape(), (99, 1));
        assert!(report.autocorrelation(0, 5).unwrap().len() == 5);
    }

    #[test]
    fn empty_mask_is_an_error() {
        let ds = second_order_dataset(50);
        let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First).unwrap();
        let model = identify(&ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain()).unwrap();
        assert!(residual_report(&model, &ds, &Mask::none(ds.grid())).is_err());
    }
}
