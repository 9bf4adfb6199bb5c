//! Model fitting: the least-squares solve behind the paper's Eq. (4).
//!
//! The original work solved the convex objective with CVX + SeDuMi;
//! here the (identical) global optimum is reached directly. A fit with
//! a ridge (the default, `1e-6`, for the short-training-horizon regimes
//! of the Fig. 5 sweep) sums the normal equations of the trace's
//! gap-free pieces, one per piece as Problem (4) sums them, and solves
//! them by Cholesky; plain least squares solves the stacked rows by
//! Householder QR.

use serde::{Deserialize, Serialize};

use thermal_linalg::lstsq::{self, RidgeNormalEquations};
use thermal_timeseries::{Dataset, Mask};

use crate::cache::GramBlock;
use crate::regressors::RegressionData;
use crate::{identify_with_cache, GramCache, ModelSpec, Result, SysidError, ThermalModel};

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
/// the trace (Eq. 4's intervals), write the regressors, solve the
/// least squares.
///
/// With `ridge > 0` this is [`identify_with_cache`] over
/// [`GramCache::disabled`]: the regressors are never stacked. Each
/// gap-free range of transitions is written through
/// [`write_regressor`](crate::regressors::write_regressor) into one
/// reused panel of at most 128 rows and folded into normal equations
/// of its own, each entry one chain from `+0.0`; the ranges' sums are
/// added in ascending order and `λI + XᵀX` is solved by Cholesky.
/// Nothing allocated grows with the number of transitions, and the
/// coefficients equal [`identify_with_cache`] in any cache
/// state and [`identify_from_data`] on [`assemble`](crate::regressors::assemble)'s
/// output bit for bit. With `ridge == 0` the stacked design matrix is
/// assembled and solved by QR.
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
    identify_with_cache(dataset, spec, mask, config, &mut GramCache::disabled())
}

/// Fits a model from an already-assembled regression problem (useful
/// when the same `(X, Y)` feeds several solver configurations).
///
/// With `ridge > 0` the rows of each of `data.segments`, in order, fold
/// into normal equations of their own and the segments' sums are added
/// as [`identify`] adds its ranges', so on [`assemble`](crate::regressors::assemble)'s
/// output the two agree bit for bit. With `ridge == 0` the stacked
/// rows are solved by QR.
///
/// # Errors
///
/// Same numerical conditions as [`identify`], and
/// [`SysidError::DimensionMismatch`] when the columns of `data` do not
/// match `spec` or, with a ridge, its segments do not add up to its
/// rows.
pub fn identify_from_data(
    spec: &ModelSpec,
    data: &RegressionData,
    config: &FitConfig,
) -> Result<ThermalModel> {
    let (x, y) = (&data.x, &data.y);
    if config.ridge == 0.0 {
        // Solve min ||X Θᵀ − Y||: coefficient layout is Θ (p × width),
        // the solver returns width × p.
        let theta_t = lstsq::solve_matrix(x, y)?;
        return ThermalModel::new(spec.clone(), theta_t.transpose());
    }
    let (width, p) = (spec.regressor_width(), spec.output_count());
    let mut piece = RidgeNormalEquations::new(width, p, config.ridge)?;
    let warmup = spec.order.warmup();
    let rows: usize = data
        .segments
        .iter()
        .map(|s| s.transition_count(warmup))
        .sum();
    let shapes = [
        ("regressor columns", width, x.cols()),
        ("target columns", p, y.cols()),
        ("regressor rows of the segments", rows, x.rows()),
        ("target rows of the segments", rows, y.rows()),
    ];
    if let Some(&(what, expected, actual)) = shapes.iter().find(|(_, want, got)| want != got) {
        return Err(SysidError::DimensionMismatch {
            what,
            expected,
            actual,
        });
    }
    let mut sums = GramBlock::zeros(width, p);
    let (mut x, mut y) = (x.as_slice(), y.as_slice());
    for segment in &data.segments {
        let n = segment.transition_count(warmup);
        let (xs, x_rest) = x.split_at(n * width);
        let (ys, y_rest) = y.split_at(n * p);
        (x, y) = (x_rest, y_rest);
        piece.fold(xs, ys)?;
        sums.drain(&mut piece)?;
    }
    sums.solve(spec, config.ridge)
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

    /// With a ridge, segments that do not add up to the stacked rows are
    /// a typed error, not a panic; plain least squares never reads them.
    #[test]
    fn ridge_fit_from_data_needs_segments_that_cover_the_rows() {
        let (ds, _) = synth_first_order(120, Some(60));
        let spec = ModelSpec::new(
            vec!["t0".into(), "t1".into()],
            vec!["u".into()],
            ModelOrder::First,
        )
        .unwrap();
        let mut data = crate::regressors::assemble(&ds, &spec, &Mask::all(ds.grid())).unwrap();
        let fit = FitConfig::default();
        assert!(identify_from_data(&spec, &data, &fit).is_ok());
        data.segments.pop();
        assert!(matches!(
            identify_from_data(&spec, &data, &fit),
            Err(SysidError::DimensionMismatch {
                what: "regressor rows of the segments",
                ..
            })
        ));
        assert!(identify_from_data(&spec, &data, &FitConfig::plain()).is_ok());
    }

    #[test]
    fn default_config_has_small_ridge() {
        assert!(FitConfig::default().ridge > 0.0);
        assert!(FitConfig::default().ridge < 1e-3);
        assert_eq!(FitConfig::plain().ridge, 0.0);
        assert_eq!(FitConfig::with_ridge(0.5).ridge, 0.5);
    }
}
