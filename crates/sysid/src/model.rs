//! Thermal state-space model container: coefficient blocks, one-
//! step prediction and multi-step rollout (the paper's Eq. 2 family).

use serde::{Deserialize, Serialize};

use thermal_linalg::kernels::{self, RowPanels};
use thermal_linalg::{Matrix, Vector};

use crate::regressors::write_regressor;
use crate::{Result, SysidError};

/// Dynamic order of the identified thermal model.
///
/// The paper compares a first-order model (Eq. 1), which assumes supply
/// air mixes instantaneously, against a second-order model (Eq. 2)
/// that adds the temperature *increment* `ΔT(k) = T(k) − T(k−1)` to
/// the state and thereby captures the mixing delay of the plumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelOrder {
    /// `T(k+1) = A·T(k) + B·u(k)`.
    First,
    /// `[T(k+1); ΔT(k+1)] = A'·[T(k); ΔT(k)] + B'·u(k)`.
    Second,
}

impl ModelOrder {
    /// Number of lagged temperature blocks in the regressor
    /// (`1` for first order, `2` for second order counting the
    /// increment block).
    pub fn state_blocks(self) -> usize {
        match self {
            ModelOrder::First => 1,
            ModelOrder::Second => 2,
        }
    }

    /// Number of leading samples a segment must donate before the
    /// first usable transition (one extra for the increment).
    pub fn warmup(self) -> usize {
        match self {
            ModelOrder::First => 1,
            ModelOrder::Second => 2,
        }
    }
}

impl std::fmt::Display for ModelOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelOrder::First => write!(f, "first-order"),
            ModelOrder::Second => write!(f, "second-order"),
        }
    }
}

/// What to identify: which channels are the modelled temperatures,
/// which are exogenous inputs, and the dynamic order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Names of the temperature channels the model predicts.
    pub outputs: Vec<String>,
    /// Names of the exogenous input channels (paper order: four VAV
    /// flows, occupancy, lighting, ambient).
    pub inputs: Vec<String>,
    /// Dynamic order.
    pub order: ModelOrder,
}

impl ModelSpec {
    /// Creates a spec after basic validation.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::InvalidSpec`] when `outputs` is empty or
    /// names repeat across the two lists.
    pub fn new(outputs: Vec<String>, inputs: Vec<String>, order: ModelOrder) -> Result<Self> {
        if outputs.is_empty() {
            return Err(SysidError::InvalidSpec {
                reason: "model must have at least one output".to_owned(),
            });
        }
        let mut all: Vec<&String> = outputs.iter().chain(inputs.iter()).collect();
        all.sort();
        for w in all.windows(2) {
            if w[0] == w[1] {
                return Err(SysidError::InvalidSpec {
                    reason: format!("channel {:?} appears twice in the spec", w[0]),
                });
            }
        }
        Ok(ModelSpec {
            outputs,
            inputs,
            order,
        })
    }

    /// Number of outputs `p`.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of inputs `m`.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Width of the stacked regressor `[T(k); (ΔT(k)); u(k)]`.
    pub fn regressor_width(&self) -> usize {
        self.order.state_blocks() * self.output_count() + self.input_count()
    }
}

/// The rows one rollout rotates through: `T(k−1)`, `T(k)`, the
/// prediction `T(k+1)` and the regressor `[T(k); (ΔT(k)); u(k)]`.
/// Reused across rollouts, they keep their capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct StateRows {
    prev: Vec<f64>,
    cur: Vec<f64>,
    next: Vec<f64>,
    regressor: Vec<f64>,
}

/// An identified linear thermal model.
///
/// Stores the compact coefficient matrix `Θ` (`p × regressor_width`)
/// with `T(k+1) = Θ · [T(k); (ΔT(k)); u(k)]`. For the second-order
/// form this is the top block row of the paper's `[A' B']`; the bottom
/// block row (`ΔT(k+1)`) is implied (`ΔT(k+1) = T(k+1) − T(k)`) and
/// carries no extra information.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    spec: ModelSpec,
    /// `p × (state_blocks·p + m)` coefficient matrix.
    coef: Matrix,
}

impl ThermalModel {
    /// Assembles a model from a spec and coefficient matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::DimensionMismatch`] when `coef` does not
    /// have shape `p × regressor_width`.
    pub fn new(spec: ModelSpec, coef: Matrix) -> Result<Self> {
        let expected = (spec.output_count(), spec.regressor_width());
        if coef.shape() != expected {
            return Err(SysidError::DimensionMismatch {
                what: "coefficient matrix rows",
                expected: expected.0 * expected.1,
                actual: coef.rows() * coef.cols(),
            });
        }
        Ok(ThermalModel { spec, coef })
    }

    /// The model specification.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// The raw coefficient matrix `Θ`.
    pub fn coefficients(&self) -> &Matrix {
        &self.coef
    }

    /// The `A` block (effect of `T(k)` on `T(k+1)`), `p × p`.
    ///
    /// # Errors
    ///
    /// Propagates [`SysidError::Linalg`] if the column selection fails
    /// (impossible for a model built through [`ThermalModel::new`]).
    pub fn a_matrix(&self) -> Result<Matrix> {
        let p = self.spec.output_count();
        let idx: Vec<usize> = (0..p).collect();
        Ok(self.coef.select_columns(&idx)?)
    }

    /// The `B` block (effect of inputs on `T(k+1)`), `p × m`.
    ///
    /// # Errors
    ///
    /// Propagates [`SysidError::Linalg`] if the column selection fails
    /// (impossible for a model built through [`ThermalModel::new`]).
    pub fn b_matrix(&self) -> Result<Matrix> {
        let p = self.spec.output_count();
        let start = self.spec.order.state_blocks() * p;
        let idx: Vec<usize> = (start..start + self.spec.input_count()).collect();
        Ok(self.coef.select_columns(&idx)?)
    }

    /// One-step prediction.
    ///
    /// `t_prev` is required (and used) only for second-order models.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::DimensionMismatch`] on mis-sized inputs
    /// or a missing `t_prev` for a second-order model.
    pub fn predict_next(&self, t: &[f64], t_prev: Option<&[f64]>, u: &[f64]) -> Result<Vector> {
        let mut regressor = Vec::with_capacity(self.spec.regressor_width());
        let mut out = Vec::with_capacity(self.spec.output_count());
        self.predict_next_into(t, t_prev, u, &mut regressor, &mut out)?;
        Ok(Vector::from(out))
    }

    /// One-step prediction into caller-owned buffers, so steady-state
    /// callers (the live prediction service) avoid heap allocation.
    ///
    /// `regressor` and `out` are cleared and refilled; their capacity
    /// is retained across calls. Arithmetic is identical to
    /// [`ThermalModel::predict_next`].
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::DimensionMismatch`] on mis-sized inputs
    /// or a missing `t_prev` for a second-order model.
    pub fn predict_next_into(
        &self,
        t: &[f64],
        t_prev: Option<&[f64]>,
        u: &[f64],
        regressor: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.write_step_regressor(t, t_prev, u, regressor)?;
        self.predict_regressor_into(regressor, out)
    }

    /// Checks one step's state and inputs against the spec and writes
    /// its regressor row `[T(k); (ΔT(k)); u(k)]` into `regressor`.
    fn write_step_regressor(
        &self,
        t: &[f64],
        t_prev: Option<&[f64]>,
        u: &[f64],
        regressor: &mut Vec<f64>,
    ) -> Result<()> {
        let p = self.spec.output_count();
        let m = self.spec.input_count();
        if t.len() != p {
            return Err(SysidError::DimensionMismatch {
                what: "state vector",
                expected: p,
                actual: t.len(),
            });
        }
        if u.len() != m {
            return Err(SysidError::DimensionMismatch {
                what: "input vector",
                expected: m,
                actual: u.len(),
            });
        }
        let t_prev = match self.spec.order {
            ModelOrder::First => None,
            ModelOrder::Second => Some(t_prev.ok_or(SysidError::DimensionMismatch {
                what: "previous state (second-order model)",
                expected: p,
                actual: 0,
            })?),
        };
        regressor.clear();
        regressor.resize(self.spec.regressor_width(), 0.0);
        // `t` and `u` fit the spec, so only a mis-sized `t_prev` can
        // leave the row unwritten.
        if !write_regressor(t, t_prev, u, regressor) {
            return Err(SysidError::DimensionMismatch {
                what: "previous state",
                expected: p,
                actual: t_prev.map_or(0, <[f64]>::len),
            });
        }
        Ok(())
    }

    /// `out = Θ · x` for an already-written regressor row `x` (see
    /// [`crate::regressors::write_regressor`]).
    ///
    /// This is [`Matrix::matvec_into`], four coefficient rows per pass
    /// over `x`, so it stays bitwise identical to `Matrix::matvec`.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::Linalg`] when `x` is not one regressor
    /// wide.
    pub(crate) fn predict_regressor_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        Ok(self.coef.matvec_into(x, out)?)
    }

    /// Open-loop simulation: starting from the measured initial
    /// condition(s), roll the model forward under a sequence of
    /// measured inputs.
    ///
    /// `initial` must contain `order.warmup()` rows of initial
    /// temperatures (oldest first); `inputs` holds one row per
    /// predicted step. The result has `inputs.rows()` rows: prediction
    /// for times `k = warmup .. warmup + inputs.rows()`.
    ///
    /// `Θ` is packed once per call into [`RowPanels`], and each step's
    /// `Θ·x` runs eight rows per pass ([`kernels::dot_panels_from`]).
    /// Those are the per-row chains of [`Matrix::matvec_into`], so the
    /// rollout equals one-step prediction bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::DimensionMismatch`] on shape problems.
    pub fn simulate(&self, initial: &Matrix, inputs: &Matrix) -> Result<Matrix> {
        let p = self.spec.output_count();
        if initial.rows() != self.spec.order.warmup() || initial.cols() != p {
            return Err(SysidError::DimensionMismatch {
                what: "initial condition rows",
                expected: self.spec.order.warmup() * p,
                actual: initial.rows() * initial.cols(),
            });
        }
        if inputs.cols() != self.spec.input_count() {
            return Err(SysidError::DimensionMismatch {
                what: "input columns",
                expected: self.spec.input_count(),
                actual: inputs.cols(),
            });
        }
        let mut out = Vec::new();
        self.roll(
            &RowPanels::new(&self.coef),
            (initial.as_slice(), inputs.as_slice()),
            inputs.rows(),
            &mut out,
            &mut StateRows::default(),
        )?;
        Ok(Matrix::from_vec(inputs.rows(), p, out)?)
    }

    /// The rollout of [`ThermalModel::simulate`] over row-major slices,
    /// with `Θ` already packed so callers that roll out many segments
    /// pack once: `initial` holds `warmup` rows of `p` temperatures,
    /// `inputs` `steps` rows of `m` inputs, and `out` is refilled with
    /// `steps` rows of `p` predictions. `out` and `state` keep their
    /// capacity, so a caller rolling many segments allocates only while
    /// its longest segment grows them.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::DimensionMismatch`] when `initial` is not
    /// `warmup` rows or `inputs` not `steps` rows.
    pub(crate) fn roll(
        &self,
        panels: &RowPanels,
        (initial, inputs): (&[f64], &[f64]),
        steps: usize,
        out: &mut Vec<f64>,
        state: &mut StateRows,
    ) -> Result<()> {
        let p = self.spec.output_count();
        let m = self.spec.input_count();
        let warmup = self.spec.order.warmup();
        if initial.len() != warmup * p {
            return Err(SysidError::DimensionMismatch {
                what: "initial condition rows",
                expected: warmup * p,
                actual: initial.len(),
            });
        }
        if inputs.len() != steps * m {
            return Err(SysidError::DimensionMismatch {
                what: "input rows",
                expected: steps * m,
                actual: inputs.len(),
            });
        }
        let second = self.spec.order == ModelOrder::Second;
        out.clear();
        out.resize(steps * p, 0.0);
        // Three state rows rotate through one step: T(k−1), T(k) and
        // the prediction T(k+1), plus one regressor row — no step
        // allocates.
        let StateRows {
            prev,
            cur,
            next,
            regressor,
        } = state;
        let (first, last) = initial.split_at(initial.len() - p);
        prev.clear();
        if second {
            prev.extend_from_slice(first);
        } else {
            prev.resize(p, 0.0);
        }
        cur.clear();
        cur.extend_from_slice(last);
        next.clear();
        next.resize(p, 0.0);
        for k in 0..steps {
            let (Some(row), Some(u)) = (
                out.get_mut(k * p..(k + 1) * p),
                inputs.get(k * m..(k + 1) * m),
            ) else {
                break;
            };
            let t_prev = second.then_some(prev.as_slice());
            self.write_step_regressor(cur, t_prev, u, regressor)?;
            kernels::dot_panels_from(-0.0, regressor, panels, next);
            row.copy_from_slice(next);
            std::mem::swap(prev, cur);
            std::mem::swap(cur, next);
        }
        Ok(())
    }

    /// Spectral radius proxy: the largest absolute eigenvalue of the
    /// symmetric part of `A` — a cheap stability indicator used by
    /// diagnostics (a healthy room model has `A` close to, but inside,
    /// the unit circle).
    pub fn a_symmetric_spectral_bound(&self) -> f64 {
        let Ok(a) = self.a_matrix() else {
            return f64::NAN;
        };
        let sym = thermal_linalg::SymmetricEigen::new_symmetrized(&a);
        match sym {
            Ok(e) => e
                .eigenvalues()
                .iter()
                .fold(0.0_f64, |acc, v| acc.max(v.abs())),
            Err(_) => f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec1() -> ModelSpec {
        ModelSpec::new(
            vec!["a".into(), "b".into()],
            vec!["u".into()],
            ModelOrder::First,
        )
        .unwrap()
    }

    fn spec2() -> ModelSpec {
        ModelSpec::new(
            vec!["a".into(), "b".into()],
            vec!["u".into()],
            ModelOrder::Second,
        )
        .unwrap()
    }

    #[test]
    fn spec_validation() {
        assert!(ModelSpec::new(vec![], vec![], ModelOrder::First).is_err());
        assert!(ModelSpec::new(vec!["a".into(), "a".into()], vec![], ModelOrder::First).is_err());
        assert!(ModelSpec::new(vec!["a".into()], vec!["a".into()], ModelOrder::First).is_err());
        let s = spec2();
        assert_eq!(s.output_count(), 2);
        assert_eq!(s.input_count(), 1);
        assert_eq!(s.regressor_width(), 5);
        assert_eq!(spec1().regressor_width(), 3);
    }

    #[test]
    fn order_properties() {
        assert_eq!(ModelOrder::First.state_blocks(), 1);
        assert_eq!(ModelOrder::Second.state_blocks(), 2);
        assert_eq!(ModelOrder::First.warmup(), 1);
        assert_eq!(ModelOrder::Second.warmup(), 2);
        assert_eq!(ModelOrder::First.to_string(), "first-order");
        assert_eq!(ModelOrder::Second.to_string(), "second-order");
    }

    #[test]
    fn model_construction_checks_shape() {
        assert!(ThermalModel::new(spec1(), Matrix::zeros(2, 3)).is_ok());
        assert!(ThermalModel::new(spec1(), Matrix::zeros(2, 4)).is_err());
        assert!(ThermalModel::new(spec2(), Matrix::zeros(2, 5)).is_ok());
    }

    #[test]
    fn blocks_are_extracted_correctly() {
        // coef = [A | B] with recognisable entries.
        let coef = Matrix::from_rows(&[&[0.9, 0.1, 5.0][..], &[0.2, 0.8, -3.0][..]]).unwrap();
        let model = ThermalModel::new(spec1(), coef).unwrap();
        let a = model.a_matrix().unwrap();
        assert_eq!(a[(0, 0)], 0.9);
        assert_eq!(a[(1, 1)], 0.8);
        let b = model.b_matrix().unwrap();
        assert_eq!(b.shape(), (2, 1));
        assert_eq!(b[(0, 0)], 5.0);
        assert_eq!(b[(1, 0)], -3.0);
    }

    #[test]
    fn first_order_one_step_prediction() {
        let coef = Matrix::from_rows(&[&[0.5, 0.0, 1.0][..], &[0.0, 0.5, 0.0][..]]).unwrap();
        let model = ThermalModel::new(spec1(), coef).unwrap();
        let next = model.predict_next(&[2.0, 4.0], None, &[3.0]).unwrap();
        assert_eq!(next.as_slice(), &[4.0, 2.0]);
        assert!(model.predict_next(&[1.0], None, &[0.0]).is_err());
        assert!(model.predict_next(&[1.0, 2.0], None, &[]).is_err());
    }

    #[test]
    fn second_order_uses_increment() {
        // T(k+1) = T(k) + 0.5 ΔT(k): pure momentum, no inputs used.
        let coef = Matrix::from_rows(&[
            &[1.0, 0.0, 0.5, 0.0, 0.0][..],
            &[0.0, 1.0, 0.0, 0.5, 0.0][..],
        ])
        .unwrap();
        let model = ThermalModel::new(spec2(), coef).unwrap();
        let next = model
            .predict_next(&[10.0, 20.0], Some(&[8.0, 21.0]), &[0.0])
            .unwrap();
        assert_eq!(next.as_slice(), &[11.0, 19.5]);
        // Missing previous state is rejected.
        assert!(model.predict_next(&[10.0, 20.0], None, &[0.0]).is_err());
        assert!(model
            .predict_next(&[10.0, 20.0], Some(&[1.0]), &[0.0])
            .is_err());
    }

    #[test]
    fn simulation_rolls_forward() {
        // Scalar-ish check with two decoupled outputs: T' = 0.5 T + u.
        let coef = Matrix::from_rows(&[&[0.5, 0.0, 1.0][..], &[0.0, 0.5, 0.0][..]]).unwrap();
        let model = ThermalModel::new(spec1(), coef).unwrap();
        let init = Matrix::from_rows(&[&[4.0, 8.0][..]]).unwrap();
        let inputs = Matrix::from_rows(&[&[1.0][..], &[1.0][..], &[1.0][..]]).unwrap();
        let traj = model.simulate(&init, &inputs).unwrap();
        // 4 -> 3 -> 2.5 -> 2.25 ; 8 -> 4 -> 2 -> 1
        assert_eq!(traj.column(0).as_slice(), &[3.0, 2.5, 2.25]);
        assert_eq!(traj.column(1).as_slice(), &[4.0, 2.0, 1.0]);
        // Bad shapes rejected.
        assert!(model.simulate(&Matrix::zeros(2, 2), &inputs).is_err());
        assert!(model.simulate(&init, &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn second_order_simulation_tracks_momentum() {
        // T(k+1) = T(k) + ΔT(k): constant-velocity extrapolation.
        let coef = Matrix::from_rows(&[&[1.0, 1.0, 0.0][..]]).unwrap();
        let spec = ModelSpec::new(vec!["a".into()], vec!["u".into()], ModelOrder::Second).unwrap();
        let model = ThermalModel::new(spec, coef).unwrap();
        let init = Matrix::from_rows(&[&[1.0][..], &[2.0][..]]).unwrap(); // T(-1)=1, T(0)=2
        let inputs = Matrix::from_rows(&[&[0.0][..], &[0.0][..]]).unwrap();
        let traj = model.simulate(&init, &inputs).unwrap();
        assert_eq!(traj.column(0).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn stability_bound_of_contraction() {
        let coef = Matrix::from_rows(&[&[0.5, 0.1, 0.0][..], &[0.1, 0.5, 0.0][..]]).unwrap();
        let model = ThermalModel::new(spec1(), coef).unwrap();
        let bound = model.a_symmetric_spectral_bound();
        assert!((bound - 0.6).abs() < 1e-12);
    }
}
