//! Model fitting: the least-squares solve behind the paper's Eq. (4).
//!
//! The original work solved the convex objective with CVX + SeDuMi;
//! here the (identical) global optimum is reached directly with a
//! Householder-QR least-squares solve, optionally ridge-regularised
//! for the short-training-horizon regimes of the Fig. 5 sweep.

use serde::{Deserialize, Serialize};

use thermal_linalg::lstsq;
use thermal_timeseries::{Dataset, Mask};

use crate::regressors::{assemble, fold_transitions, RegressionData};
use crate::{ModelSpec, Result, ThermalModel};

/// Fitting configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitConfig {
    /// Tikhonov regularisation weight `λ` on the coefficients. Zero
    /// means plain least squares.
    pub ridge: f64,
}

impl Default for FitConfig {
    fn default() -> Self {
        // A whisper of regularisation keeps near-collinear VAV
        // channels from blowing up coefficients without visibly
        // biasing the fit.
        FitConfig { ridge: 1e-6 }
    }
}

impl FitConfig {
    /// Plain (unregularised) least squares.
    pub fn plain() -> Self {
        FitConfig { ridge: 0.0 }
    }

    /// Ridge regression with the given weight.
    pub fn with_ridge(ridge: f64) -> Self {
        FitConfig { ridge }
    }
}

/// Identifies a thermal model on the masked portion of a dataset.
///
/// This is the paper's three-ingredient recipe in one call: segment
/// the trace (Eq. 4's intervals), stack the regressors, solve the
/// least squares.
///
/// With `ridge > 0` the regressors are never stacked: each transition's
/// row is written through
/// [`write_regressor`](crate::regressors::write_regressor) into one
/// reused panel of at most 128 rows, and each panel is folded into the
/// ridge normal equations
/// ([`RidgeNormalEquations`](thermal_linalg::lstsq::RidgeNormalEquations))
/// on the calling thread. Every chain of `XᵀX` and `XᵀY` runs over the
/// rows in [`assemble`]'s order, so the coefficients equal
/// [`identify_from_data`] on [`assemble`]'s output bit for bit, and
/// nothing allocated grows with the number of transitions. With
/// `ridge == 0` the stacked design matrix is assembled and solved by
/// QR.
///
/// # Errors
///
/// In this order:
///
/// * [`crate::SysidError::InvalidSpec`] for unknown channels,
/// * [`crate::SysidError::InsufficientData`] when too few transitions
///   exist,
/// * [`crate::SysidError::Linalg`] for a negative or non-finite ridge
///   (`InvalidData`), a non-finite regressor or target (`NonFinite`),
///   or a failed solve (e.g. an exactly collinear regressor with
///   `ridge == 0`).
///
/// # Example
///
/// ```
/// use thermal_sysid::{identify, FitConfig, ModelOrder, ModelSpec};
/// use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A scalar system T(k+1) = 0.5 T(k) + 2 u(k).
/// let n = 40;
/// let mut t = vec![10.0_f64];
/// let u: Vec<f64> = (0..n).map(|k| ((k % 7) as f64) / 7.0).collect();
/// for k in 0..n - 1 {
///     t.push(0.5 * t[k] + 2.0 * u[k]);
/// }
/// let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n)?;
/// let ds = Dataset::new(
///     grid,
///     vec![
///         Channel::from_values("t", t)?,
///         Channel::from_values("u", u)?,
///     ],
/// )?;
/// let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First)?;
/// let model = identify(&ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain())?;
/// assert!((model.coefficients()[(0, 0)] - 0.5).abs() < 1e-8);
/// assert!((model.coefficients()[(0, 1)] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn identify(
    dataset: &Dataset,
    spec: &ModelSpec,
    mask: &Mask,
    config: &FitConfig,
) -> Result<ThermalModel> {
    if config.ridge == 0.0 {
        let data = assemble(dataset, spec, mask)?;
        return identify_from_data(spec, &data, config);
    }
    let theta_t = fold_transitions(dataset, spec, mask, config.ridge)?.solve()?;
    ThermalModel::new(spec.clone(), theta_t.transpose())
}

/// Fits a model from an already-assembled regression problem (useful
/// when the same `(X, Y)` feeds several solver configurations).
///
/// # Errors
///
/// Same numerical conditions as [`identify`].
pub fn identify_from_data(
    spec: &ModelSpec,
    data: &RegressionData,
    config: &FitConfig,
) -> Result<ThermalModel> {
    // Solve min ||X Θᵀ − Y||: coefficient layout is Θ (p × width), the
    // solver returns width × p.
    let theta_t = lstsq::solve_ridge_matrix(&data.x, &data.y, config.ridge)?;
    ThermalModel::new(spec.clone(), theta_t.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelOrder;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    /// Builds a dataset from a known 2-output, 1-input first-order
    /// system, optionally with a gap in the middle.
    fn synth_first_order(n: usize, gap_at: Option<usize>) -> (Dataset, [[f64; 3]; 2]) {
        // T(k+1) = A T(k) + B u(k)
        let a = [[0.85, 0.1], [0.05, 0.9]];
        let b = [0.8, -0.4];
        let mut t0 = vec![20.0_f64];
        let mut t1 = vec![22.0_f64];
        let u: Vec<f64> = (0..n)
            .map(|k| 0.5 + 0.5 * ((k as f64) * 0.7).sin())
            .collect();
        for k in 0..n - 1 {
            t0.push(a[0][0] * t0[k] + a[0][1] * t1[k] + b[0] * u[k]);
            t1.push(a[1][0] * t0[k] + a[1][1] * t1[k] + b[1] * u[k]);
        }
        let wrap = |v: Vec<f64>| -> Vec<Option<f64>> {
            v.into_iter()
                .enumerate()
                .map(|(i, x)| if Some(i) == gap_at { None } else { Some(x) })
                .collect()
        };
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        let ds = Dataset::new(
            grid,
            vec![
                Channel::new("t0", wrap(t0)).unwrap(),
                Channel::new("t1", wrap(t1)).unwrap(),
                Channel::new("u", wrap(u)).unwrap(),
            ],
        )
        .unwrap();
        let truth = [[a[0][0], a[0][1], b[0]], [a[1][0], a[1][1], b[1]]];
        (ds, truth)
    }

    #[test]
    fn recovers_true_first_order_system() {
        let (ds, truth) = synth_first_order(120, None);
        let spec = ModelSpec::new(
            vec!["t0".into(), "t1".into()],
            vec!["u".into()],
            ModelOrder::First,
        )
        .unwrap();
        let model = identify(&ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain()).unwrap();
        for r in 0..2 {
            for c in 0..3 {
                assert!(
                    (model.coefficients()[(r, c)] - truth[r][c]).abs() < 1e-7,
                    "coef ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn gaps_do_not_bias_the_fit() {
        let (ds, truth) = synth_first_order(120, Some(60));
        let spec = ModelSpec::new(
            vec!["t0".into(), "t1".into()],
            vec!["u".into()],
            ModelOrder::First,
        )
        .unwrap();
        let model = identify(&ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain()).unwrap();
        for r in 0..2 {
            for c in 0..3 {
                assert!((model.coefficients()[(r, c)] - truth[r][c]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn second_order_fit_on_second_order_data() {
        // T(k+1) = 0.9 T(k) + 0.3 ΔT(k) + u(k).
        let n = 150;
        let u: Vec<f64> = (0..n).map(|k| ((k as f64) * 0.31).cos()).collect();
        let mut t = vec![1.0_f64, 1.1];
        for k in 1..n - 1 {
            let dt = t[k] - t[k - 1];
            t.push(0.9 * t[k] + 0.3 * dt + u[k]);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        let ds = Dataset::new(
            grid,
            vec![
                Channel::from_values("t", t).unwrap(),
                Channel::from_values("u", u).unwrap(),
            ],
        )
        .unwrap();
        let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::Second).unwrap();
        let model = identify(&ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain()).unwrap();
        let c = model.coefficients();
        assert!((c[(0, 0)] - 0.9).abs() < 1e-7);
        assert!((c[(0, 1)] - 0.3).abs() < 1e-7);
        assert!((c[(0, 2)] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn ridge_tames_collinear_inputs() {
        // Two identical input channels make plain LS singular.
        let n = 60;
        let u: Vec<f64> = (0..n).map(|k| (k as f64 * 0.3).sin()).collect();
        let mut t = vec![5.0_f64];
        for k in 0..n - 1 {
            t.push(0.9 * t[k] + u[k]);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        let ds = Dataset::new(
            grid,
            vec![
                Channel::from_values("t", t).unwrap(),
                Channel::from_values("u1", u.clone()).unwrap(),
                Channel::from_values("u2", u).unwrap(),
            ],
        )
        .unwrap();
        let spec = ModelSpec::new(
            vec!["t".into()],
            vec!["u1".into(), "u2".into()],
            ModelOrder::First,
        )
        .unwrap();
        assert!(identify(&ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain()).is_err());
        let model = identify(
            &ds,
            &spec,
            &Mask::all(ds.grid()),
            &FitConfig::with_ridge(1e-8),
        )
        .unwrap();
        // The two collinear coefficients share the true effect.
        let c = model.coefficients();
        assert!((c[(0, 1)] + c[(0, 2)] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn default_config_has_small_ridge() {
        assert!(FitConfig::default().ridge > 0.0);
        assert!(FitConfig::default().ridge < 1e-3);
        assert_eq!(FitConfig::plain().ridge, 0.0);
        assert_eq!(FitConfig::with_ridge(0.5).ridge, 0.5);
    }
}
