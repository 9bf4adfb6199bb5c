//! Forgetting-factor recursive least squares over the batch
//! regressor layout.
//!
//! The batch fit ([`crate::identify`]) answers "what model explains
//! this recorded trace?" once. A served model needs the continuous
//! version: every accepted reading should refine the coefficients a
//! little, and readings from a previous operating regime should fade
//! so a physics change (a stuck damper, a shifted occupancy schedule)
//! is *learnable* instead of averaged away. This module keeps the
//! ridge-regularised normal equations in factored form —
//!
//! ```text
//! P(t) = λᵗ·ρI + Σᵢ λ^(t-i) x(i) x(i)ᵀ      (information matrix)
//! B(t) =        Σᵢ λ^(t-i) x(i) y(i)ᵀ      (cross moments)
//! Θ(t)ᵀ = P(t)⁻¹ B(t)
//! ```
//!
//! — where each new row costs one `O(n²)` Cholesky
//! [`rank_one_update`](thermal_linalg::CholeskyDecomposition::rank_one_update)
//! instead of an `O(n³)` refactorisation, and the forgetting factor
//! `λ` is applied by rescaling the factor
//! ([`scale`](thermal_linalg::CholeskyDecomposition::scale)). The
//! estimate reproduces the batch
//! [`identify_from_data`](crate::identify_from_data) solution on rows
//! weighted by `λ^((t−i)/2)` with ridge `λᵗ·ρ` (at `λ = 1`, the plain
//! batch fit for the same ridge), which is what the property suite
//! pins.

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Snapshot};
use thermal_linalg::{CholeskyDecomposition, LinalgError, Matrix};

use crate::regressors::RegressionData;
use crate::{ModelSpec, Result, SysidError, ThermalModel};

/// Configuration of a [`RlsEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlsConfig {
    /// Forgetting factor `λ ∈ (0, 1]`: the weight of an observation
    /// decays as `λ^age`. `1.0` means never forget (batch-equivalent);
    /// the default `0.995` gives an effective memory of about 200
    /// slots (~17 hours at 5-minute slots).
    pub forgetting: f64,
    /// Ridge weight `ρ > 0` seeding the information matrix at `ρ I`.
    /// Matches the batch [`crate::FitConfig::ridge`] semantics; the
    /// seed itself decays as `λᵗ ρ`, so it only matters early on.
    pub ridge: f64,
}

impl Default for RlsConfig {
    fn default() -> Self {
        RlsConfig {
            forgetting: 0.995,
            ridge: 1e-6,
        }
    }
}

impl RlsConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::InvalidSpec`] when the forgetting factor
    /// is outside `(0, 1]` or the ridge is not finite and positive.
    pub fn validate(&self) -> Result<()> {
        if !self.forgetting.is_finite() || self.forgetting <= 0.0 || self.forgetting > 1.0 {
            return Err(SysidError::InvalidSpec {
                reason: "rls forgetting factor must lie in (0, 1]".to_owned(),
            });
        }
        if !self.ridge.is_finite() || self.ridge <= 0.0 {
            return Err(SysidError::InvalidSpec {
                reason: "rls ridge must be finite and positive".to_owned(),
            });
        }
        Ok(())
    }
}

/// Recursive least-squares estimator of a [`ThermalModel`].
///
/// Holds the Cholesky factor of the exponentially-weighted
/// information matrix plus the matching cross moments; each
/// [`ingest`](RlsEstimator::ingest) costs `O(width²)`, each
/// [`solve`](RlsEstimator::solve) one pair of triangular sweeps per
/// output.
#[derive(Debug, Clone)]
pub struct RlsEstimator {
    spec: ModelSpec,
    config: RlsConfig,
    /// Cholesky factor of the information matrix `P`.
    chol: CholeskyDecomposition,
    /// Cross moments `B` (`width × outputs`).
    cross: Matrix,
    /// Rows folded in so far.
    observations: u64,
    /// Scratch for the rank-1 Givens sweep (capacity retained so the
    /// per-slot ingest stays allocation-free after warmup).
    workspace: Vec<f64>,
}

impl RlsEstimator {
    /// Creates an estimator with no observations: `P = ρ I`, `B = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::InvalidSpec`] for an invalid `config`,
    /// and propagates the (unreachable for valid ridge) factorisation
    /// error of the seed matrix.
    pub fn new(spec: ModelSpec, config: RlsConfig) -> Result<Self> {
        config.validate()?;
        let width = spec.regressor_width();
        let mut seed = Matrix::identity(width);
        for i in 0..width {
            seed[(i, i)] = config.ridge;
        }
        let chol = CholeskyDecomposition::new(&seed)?;
        let cross = Matrix::zeros(width, spec.output_count());
        Ok(RlsEstimator {
            spec,
            config,
            chol,
            cross,
            observations: 0,
            workspace: Vec::with_capacity(width),
        })
    }

    /// Creates an estimator warm-started from a batch regression
    /// problem: every row of `data` is ingested in order, so at
    /// `λ < 1` the oldest batch rows are already partially forgotten
    /// — exactly as if the estimator had been running all along.
    ///
    /// # Errors
    ///
    /// Propagates [`RlsEstimator::new`] and
    /// [`RlsEstimator::ingest`] failures.
    pub fn warm_start(spec: ModelSpec, data: &RegressionData, config: RlsConfig) -> Result<Self> {
        let mut est = RlsEstimator::new(spec, config)?;
        let mut xrow = vec![0.0; est.spec.regressor_width()];
        let mut yrow = vec![0.0; est.spec.output_count()];
        for r in 0..data.x.rows() {
            for (c, slot) in xrow.iter_mut().enumerate() {
                *slot = data.x[(r, c)];
            }
            for (c, slot) in yrow.iter_mut().enumerate() {
                *slot = data.y[(r, c)];
            }
            est.ingest(&xrow, &yrow)?;
        }
        Ok(est)
    }

    /// The model specification being estimated.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The configuration in force.
    pub fn config(&self) -> RlsConfig {
        self.config
    }

    /// Rows folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// `true` once enough rows arrived for the normal equations to be
    /// data- rather than ridge-dominated (one full regressor width).
    pub fn is_warmed_up(&self) -> bool {
        self.observations >= self.spec.regressor_width() as u64
    }

    /// Folds one transition into the estimate: decays every previous
    /// observation by `λ`, then adds the row `x → y` at full weight.
    ///
    /// # Errors
    ///
    /// * [`SysidError::DimensionMismatch`] when `x` is not one
    ///   regressor row or `y` not one output row,
    /// * [`SysidError::Linalg`] with
    ///   [`LinalgError::NonFinite`] for NaN/∞ entries (the estimator
    ///   state is left untouched).
    pub fn ingest(&mut self, x: &[f64], y: &[f64]) -> Result<()> {
        let width = self.spec.regressor_width();
        let outputs = self.spec.output_count();
        if x.len() != width {
            return Err(SysidError::DimensionMismatch {
                what: "rls regressor row",
                expected: width,
                actual: x.len(),
            });
        }
        if y.len() != outputs {
            return Err(SysidError::DimensionMismatch {
                what: "rls target row",
                expected: outputs,
                actual: y.len(),
            });
        }
        if !x.iter().chain(y.iter()).all(|v| v.is_finite()) {
            return Err(SysidError::Linalg(LinalgError::NonFinite {
                op: "rls ingest",
            }));
        }
        let lambda = self.config.forgetting;
        if lambda < 1.0 {
            self.chol.scale(lambda)?;
            for i in 0..width {
                for j in 0..outputs {
                    self.cross[(i, j)] *= lambda;
                }
            }
        }
        self.chol.rank_one_update_with(x, &mut self.workspace)?;
        for (i, &xi) in x.iter().enumerate() {
            for (j, &yj) in y.iter().enumerate() {
                self.cross[(i, j)] += xi * yj;
            }
        }
        self.observations += 1;
        Ok(())
    }

    /// Solves the current normal equations into a served model.
    ///
    /// # Errors
    ///
    /// Propagates the triangular-solve error (unreachable while the
    /// factor stays positive-definite, which ingest maintains) and
    /// [`ThermalModel::new`] validation.
    pub fn solve(&self) -> Result<ThermalModel> {
        let theta_t = self.chol.solve_matrix(&self.cross)?;
        ThermalModel::new(self.spec.clone(), theta_t.transpose())
    }
}

/// Crash-safe capture/restore of the factored estimator state: the
/// Cholesky factor `L`, the cross moments `B`, and the observation
/// count. The spec and config are construction context (the restoring
/// process rebuilds the estimator from the same deterministic inputs)
/// and are only *verified*, via the factor/cross dimensions, not
/// serialised.
impl Snapshot for RlsEstimator {
    const TAG: &'static str = "sysid-rls";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put_usize("width", self.chol.dim())
            .put_usize("outputs", self.cross.cols())
            .put_f64_slice("chol_l", self.chol.l().as_slice())
            .put_f64_slice("cross", self.cross.as_slice())
            .put_u64("observations", self.observations);
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let width = rec.get_usize("width")?;
        let outputs = rec.get_usize("outputs")?;
        if width != self.spec.regressor_width() || outputs != self.spec.output_count() {
            return Err(CkptError::decode(
                "rls snapshot",
                format!(
                    "shape {}x{} does not match spec {}x{}",
                    width,
                    outputs,
                    self.spec.regressor_width(),
                    self.spec.output_count()
                ),
            ));
        }
        let l = Matrix::from_vec(width, width, rec.get_f64_slice("chol_l")?)
            .map_err(|e| CkptError::decode("rls snapshot", e))?;
        let chol = CholeskyDecomposition::from_factor(l)
            .map_err(|e| CkptError::decode("rls snapshot", e))?;
        let cross = Matrix::from_vec(width, outputs, rec.get_f64_slice("cross")?)
            .map_err(|e| CkptError::decode("rls snapshot", e))?;
        let observations = rec.get_u64("observations")?;
        self.chol = chol;
        self.cross = cross;
        self.observations = observations;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regressors::assemble;
    use crate::{identify_from_data, FitConfig, ModelOrder};
    use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};

    fn dataset(n: usize, gain: f64) -> Dataset {
        let u: Vec<f64> = (0..n)
            .map(|k| 0.5 + 0.5 * (k as f64 * 0.23).sin())
            .collect();
        let mut t = vec![20.0_f64];
        for k in 0..n - 1 {
            t.push(0.9 * t[k] + 2.0 + gain * u[k]);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        Dataset::new(
            grid,
            vec![
                Channel::from_values("room", t).unwrap(),
                Channel::from_values("vav", u).unwrap(),
            ],
        )
        .unwrap()
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(vec!["room".into()], vec!["vav".into()], ModelOrder::First).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(RlsConfig::default().validate().is_ok());
        for forgetting in [0.0, -0.5, 1.5, f64::NAN] {
            let c = RlsConfig {
                forgetting,
                ..RlsConfig::default()
            };
            assert!(c.validate().is_err(), "accepted forgetting {forgetting}");
        }
        for ridge in [0.0, -1.0, f64::INFINITY] {
            let c = RlsConfig {
                ridge,
                ..RlsConfig::default()
            };
            assert!(c.validate().is_err(), "accepted ridge {ridge}");
        }
    }

    #[test]
    fn matches_batch_fit_at_unit_forgetting() {
        let ds = dataset(120, 0.7);
        let spec = spec();
        let data = assemble(&ds, &spec, &Mask::all(ds.grid())).unwrap();
        let ridge = 1e-6;
        let batch = identify_from_data(&spec, &data, &FitConfig::with_ridge(ridge)).unwrap();
        let rls = RlsEstimator::warm_start(
            spec,
            &data,
            RlsConfig {
                forgetting: 1.0,
                ridge,
            },
        )
        .unwrap();
        let online = rls.solve().unwrap();
        let b = batch.coefficients();
        let o = online.coefficients();
        for i in 0..b.rows() {
            for j in 0..b.cols() {
                assert!(
                    (b[(i, j)] - o[(i, j)]).abs() < 1e-8,
                    "coef ({i},{j}): batch {} vs rls {}",
                    b[(i, j)],
                    o[(i, j)]
                );
            }
        }
    }

    #[test]
    fn forgetting_tracks_a_regime_change() {
        let spec = spec();
        let config = RlsConfig {
            forgetting: 0.94,
            ridge: 1e-4,
        };
        let mut est = RlsEstimator::new(spec.clone(), config).unwrap();
        // Regime 1: gain 0.5; regime 2: gain 2.0.
        let feed = |est: &mut RlsEstimator, gain: f64, slots: usize, t0: f64| {
            let mut t = t0;
            for k in 0..slots {
                let u = 0.5 + 0.5 * ((k as f64) * 0.31).sin();
                let next = 0.9 * t + 2.0 + gain * u;
                est.ingest(&[t, u], &[next]).unwrap();
                t = next;
            }
        };
        feed(&mut est, 0.5, 150, 20.0);
        let before = est.solve().unwrap();
        feed(&mut est, 2.0, 150, 24.0);
        let after = est.solve().unwrap();
        let gain_of = |m: &ThermalModel| m.coefficients()[(0, 1)];
        assert!(
            (gain_of(&before) - 0.5).abs() < 0.05,
            "pre-shift gain {}",
            gain_of(&before)
        );
        assert!(
            (gain_of(&after) - 2.0).abs() < 0.1,
            "post-shift gain {} should have converged to the new regime",
            gain_of(&after)
        );
    }

    #[test]
    fn ingest_rejects_bad_rows_without_corrupting_state() {
        let mut est = RlsEstimator::new(spec(), RlsConfig::default()).unwrap();
        est.ingest(&[20.0, 0.5], &[20.4]).unwrap();
        let snapshot = est.clone();
        assert!(matches!(
            est.ingest(&[20.0], &[20.4]),
            Err(SysidError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            est.ingest(&[20.0, 0.5], &[]),
            Err(SysidError::DimensionMismatch { .. })
        ));
        assert!(est.ingest(&[f64::NAN, 0.5], &[20.4]).is_err());
        assert_eq!(est.observations(), snapshot.observations());
        let a = est.solve().unwrap();
        let b = snapshot.solve().unwrap();
        assert_eq!(
            a.coefficients(),
            b.coefficients(),
            "rejected rows must not alter the estimate"
        );
    }

    #[test]
    fn warmup_threshold() {
        let mut est = RlsEstimator::new(spec(), RlsConfig::default()).unwrap();
        assert!(!est.is_warmed_up());
        est.ingest(&[20.0, 0.5], &[20.4]).unwrap();
        assert!(!est.is_warmed_up());
        est.ingest(&[20.4, 0.6], &[20.8]).unwrap();
        assert!(est.is_warmed_up(), "width-2 spec warms up after 2 rows");
    }

    #[test]
    fn estimator_is_deterministic() {
        let run = || {
            let ds = dataset(80, 1.1);
            let spec = spec();
            let data = assemble(&ds, &spec, &Mask::all(ds.grid())).unwrap();
            let est = RlsEstimator::warm_start(spec, &data, RlsConfig::default()).unwrap();
            est.solve().unwrap().coefficients().clone()
        };
        assert_eq!(run(), run());
    }
}
