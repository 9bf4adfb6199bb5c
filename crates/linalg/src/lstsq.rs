//! Least-squares solvers.
//!
//! The identification problem of the paper (Eq. 3–4) is an ordinary
//! linear least-squares problem once the regressor matrix is
//! assembled: the MATLAB CVX/SeDuMi pipeline of the original work is
//! replaced by a Householder-QR solve ([`solve`] / [`solve_matrix`]),
//! which reaches the same global optimum of the convex objective.
//! A ridge-regularised variant ([`solve_ridge`] /
//! [`solve_ridge_matrix`]) is provided for the rank-deficient regimes
//! the paper's over-fitting discussion (Fig. 5, top) brushes against
//! with short training horizons; [`RidgeNormalEquations`] accumulates
//! its normal equations from rows folded in piece by piece, so a caller
//! that produces the rows in panels never stacks them.

use crate::matrix::{fold_panels, mirror_upper, NormalChains, PanelScratch};
use crate::{CholeskyDecomposition, LinalgError, Matrix, QrDecomposition, Result, Vector};

/// Solves `min_x ‖A x − b‖₂` via Householder QR.
///
/// # Errors
///
/// * [`LinalgError::Underdetermined`] when `A` has fewer rows than
///   columns,
/// * [`LinalgError::Singular`] when `A` is column-rank-deficient,
/// * [`LinalgError::ShapeMismatch`] when `b.len() != A.rows()`,
/// * [`LinalgError::NonFinite`] for NaN/∞ inputs.
///
/// # Example
///
/// ```
/// use thermal_linalg::{lstsq, Matrix, Vector};
///
/// # fn main() -> Result<(), thermal_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..], &[1.0, 1.0][..]])?;
/// let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
/// let x = lstsq::solve(&a, &b)?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector> {
    QrDecomposition::new(a)?.solve(b)
}

/// Solves `min_X ‖A X − B‖_F` (multi-right-hand-side least squares).
///
/// # Errors
///
/// Same conditions as [`solve`], applied per column of `B`.
pub fn solve_matrix(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    QrDecomposition::new(a)?.solve_matrix(b)
}

/// Solves the ridge problem `min_x ‖A x − b‖₂² + λ‖x‖₂²` via the
/// regularised normal equations `(AᵀA + λI) x = Aᵀ b` and Cholesky.
///
/// `lambda` must be non-negative; `lambda == 0` falls back to the QR
/// path of [`solve`] for numerical robustness.
///
/// # Errors
///
/// * [`LinalgError::InvalidData`] when `lambda` is negative or not
///   finite,
/// * [`LinalgError::ShapeMismatch`] when `b.len() != A.rows()`,
/// * the QR/Cholesky error conditions of the underlying solvers.
pub fn solve_ridge(a: &Matrix, b: &Vector, lambda: f64) -> Result<Vector> {
    if !(lambda.is_finite() && lambda >= 0.0) {
        return Err(LinalgError::InvalidData {
            reason: "ridge parameter must be finite and non-negative",
        });
    }
    if lambda == 0.0 {
        return solve(a, b);
    }
    if b.len() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    if !a.is_finite() || !b.is_finite() {
        return Err(LinalgError::NonFinite { op: "ridge" });
    }
    let mut gram = a.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    let atb = a.transpose_matvec(b)?;
    CholeskyDecomposition::new(&gram)?.solve(&atb)
}

/// Multi-right-hand-side ridge regression: solves
/// `min_X ‖A X − B‖_F² + λ‖X‖_F²`.
///
/// Factors the regularised Gram matrix once and reuses it across all
/// columns of `B`, which is what makes the per-sensor identification
/// loop of the paper cheap. For `λ > 0` the normal equations are those
/// of [`RidgeNormalEquations`] with every row of `A` and `B` folded in
/// at once: entry `(i, j ≥ i)` of `AᵀA` and every entry of `AᵀB` is one
/// [`kernels`](crate::kernels) chain from `+0.0` over the rows in
/// order, run in 128-row panels on the calling thread, so the result
/// is bitwise that of any split of the rows into folds.
///
/// # Errors
///
/// Same conditions as [`solve_ridge`].
pub fn solve_ridge_matrix(a: &Matrix, b: &Matrix, lambda: f64) -> Result<Matrix> {
    if lambda == 0.0 {
        return solve_matrix(a, b);
    }
    let mut normal = RidgeNormalEquations::new(a.cols(), b.cols(), lambda)?;
    if b.rows() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    normal.fold(a.as_slice(), b.as_slice())?;
    normal.solve()
}

/// The ridge normal equations `(XᵀX + λI) Θ = XᵀY`, accumulated from
/// sample rows folded in piece by piece, for a caller that produces
/// its rows in panels and never stacks `X` or `Y`.
///
/// Every fold runs the 128-row panel loop of [`Matrix::gram`] and
/// [`Matrix::transpose_matmul`] on the calling thread: entry
/// `(i, j ≥ i)` of `XᵀX` and every entry of `XᵀY` is one
/// [`kernels`](crate::kernels) chain from `+0.0` over the folded rows
/// in fold order, continued across panels and folds. Any split of the
/// rows into folds (empty ones included) therefore yields the same
/// bits, and [`RidgeNormalEquations::solve`] equals
/// [`solve_ridge_matrix`] on the stacked rows.
///
/// # Example
///
/// ```
/// use thermal_linalg::lstsq::{solve_ridge_matrix, RidgeNormalEquations};
/// use thermal_linalg::Matrix;
///
/// # fn main() -> Result<(), thermal_linalg::LinalgError> {
/// let x = Matrix::from_fn(5, 2, |r, c| (r + 2 * c) as f64);
/// let y = Matrix::from_fn(5, 1, |r, _| r as f64 * 0.5);
/// let mut normal = RidgeNormalEquations::new(2, 1, 1e-3)?;
/// normal.fold(&x.as_slice()[..4], &y.as_slice()[..2])?;
/// normal.fold(&x.as_slice()[4..], &y.as_slice()[2..])?;
/// assert_eq!(normal.rows(), 5);
/// assert_eq!(normal.solve()?, solve_ridge_matrix(&x, &y, 1e-3)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RidgeNormalEquations {
    cols: usize,
    rhs: usize,
    lambda: f64,
    rows: usize,
    /// `cols × cols`: the upper triangle's chains.
    gram: Vec<f64>,
    /// `rhs × cols`: row `j` holds the chains of column `j` of `XᵀY`.
    cross: Vec<f64>,
    scratch: PanelScratch,
}

impl RidgeNormalEquations {
    /// Empty normal equations for rows of `cols` regressors and `rhs`
    /// targets, regularised by `lambda`. At `lambda == 0` they are the
    /// plain normal equations, which [`solve_ridge_matrix`] does not
    /// use: it solves by QR there.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidData`] when `lambda` is negative or not
    /// finite.
    pub fn new(cols: usize, rhs: usize, lambda: f64) -> Result<Self> {
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(LinalgError::InvalidData {
                reason: "ridge parameter must be finite and non-negative",
            });
        }
        Ok(RidgeNormalEquations {
            cols,
            rhs,
            lambda,
            rows: 0,
            gram: vec![0.0; cols * cols],
            cross: vec![0.0; rhs * cols],
            scratch: PanelScratch::for_columns(cols, rhs),
        })
    }

    /// Rows folded in so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Folds in the row-major rows `x` (`cols` wide) and their targets
    /// `y` (`rhs` wide), after every row folded before.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `x` and `y` are not whole
    ///   rows of one common count,
    /// * [`LinalgError::NonFinite`] when an entry of either is NaN or
    ///   ±∞; nothing is folded then.
    pub fn fold(&mut self, x: &[f64], y: &[f64]) -> Result<()> {
        let (p, q) = (self.cols, self.rhs);
        let rows = x
            .len()
            .checked_div(p)
            .or_else(|| y.len().checked_div(q))
            .unwrap_or(0);
        if x.len() != rows * p || y.len() != rows * q {
            return Err(LinalgError::ShapeMismatch {
                op: "ridge fold",
                lhs: (x.len().checked_div(p).unwrap_or(0), p),
                rhs: (y.len().checked_div(q).unwrap_or(0), q),
            });
        }
        if !x.iter().chain(y).all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite { op: "ridge" });
        }
        let chains = NormalChains {
            first: 0,
            gram: &mut self.gram,
            cross: &mut self.cross,
        };
        fold_panels(x, p, y, q, chains, &mut self.scratch);
        self.rows += rows;
        Ok(())
    }

    /// `XᵀX` over the rows folded so far, without `λ`: the upper
    /// triangle's chains, mirrored. Bitwise [`Matrix::gram`] of the
    /// stacked rows.
    pub fn gram(&self) -> Matrix {
        let mut gram = Matrix::zeros(self.cols, self.cols);
        gram.as_mut_slice().copy_from_slice(&self.gram);
        mirror_upper(gram.as_mut_slice(), self.cols);
        gram
    }

    /// `XᵀY` (`cols × rhs`) over the rows folded so far: bitwise
    /// [`Matrix::transpose_matmul`] of the stacked rows.
    pub fn cross(&self) -> Matrix {
        let p = self.cols;
        Matrix::from_fn(p, self.rhs, |i, j| self.cross[j * p + i])
    }

    /// Solves `(XᵀX + λI) Θ = XᵀY` for the `cols × rhs` coefficients
    /// `Θ` by Cholesky, over every row folded so far: `λ` added to the
    /// diagonal of [`RidgeNormalEquations::gram`], the factor applied to
    /// each column of [`RidgeNormalEquations::cross`].
    ///
    /// # Errors
    ///
    /// The Cholesky error conditions (a Gram that is not positive
    /// definite).
    pub fn solve(&self) -> Result<Matrix> {
        let mut gram = self.gram();
        for i in 0..self.cols {
            gram[(i, i)] += self.lambda;
        }
        CholeskyDecomposition::new(&gram)?.solve_matrix(&self.cross())
    }
}

/// Residual vector `b − A x`.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] on incompatible shapes.
pub fn residual(a: &Matrix, x: &Vector, b: &Vector) -> Result<Vector> {
    let ax = a.matvec(x)?;
    if ax.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "residual",
            lhs: (ax.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    Ok(b - &ax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_fit_recovers_coefficients() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0][..],
            &[2.0, 1.0][..],
            &[3.0, 3.0][..],
            &[0.0, 1.0][..],
        ])
        .unwrap();
        let truth = Vector::from_slice(&[1.5, -0.5]);
        let b = a.matvec(&truth).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!((&x - &truth).norm2() < 1e-12);
    }

    #[test]
    fn ridge_shrinks_toward_zero() {
        let a = Matrix::from_rows(&[&[1.0][..], &[1.0][..], &[1.0][..]]).unwrap();
        let b = Vector::from_slice(&[3.0, 3.0, 3.0]);
        let x0 = solve_ridge(&a, &b, 0.0).unwrap();
        let x1 = solve_ridge(&a, &b, 3.0).unwrap();
        assert!((x0[0] - 3.0).abs() < 1e-12);
        // (3 + 3) x = 9 -> x = 1.5
        assert!((x1[0] - 1.5).abs() < 1e-12);
        assert!(x1[0].abs() < x0[0].abs());
    }

    #[test]
    fn ridge_handles_rank_deficiency() {
        // Plain LS fails on collinear columns; ridge succeeds.
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..], &[3.0, 6.0][..]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert!(solve(&a, &b).is_err());
        let x = solve_ridge(&a, &b, 1e-6).unwrap();
        // Prediction should still be accurate even if x itself is not unique.
        let pred = a.matvec(&x).unwrap();
        assert!((&pred - &b).norm2() < 1e-3);
    }

    #[test]
    fn ridge_matrix_matches_per_column() {
        let a = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c) as f64).cos());
        let b = Matrix::from_fn(6, 2, |r, c| ((r + c) as f64).sin());
        let lambda = 0.1;
        let x = solve_ridge_matrix(&a, &b, lambda).unwrap();
        for j in 0..2 {
            let xj = solve_ridge(&a, &b.column(j), lambda).unwrap();
            for i in 0..3 {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_negative_or_nan_lambda() {
        let a = Matrix::identity(2);
        let b = Vector::zeros(2);
        assert!(solve_ridge(&a, &b, -1.0).is_err());
        assert!(solve_ridge(&a, &b, f64::NAN).is_err());
        assert!(solve_ridge_matrix(&a, &Matrix::zeros(2, 1), -1.0).is_err());
    }

    #[test]
    fn shape_mismatches_rejected() {
        let a = Matrix::identity(2);
        assert!(solve_ridge(&a, &Vector::zeros(3), 1.0).is_err());
        assert!(solve_ridge_matrix(&a, &Matrix::zeros(3, 1), 1.0).is_err());
    }

    #[test]
    fn residual_is_zero_for_exact_solution() {
        let a = Matrix::identity(3);
        let x = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let r = residual(&a, &x, &x).unwrap();
        assert_eq!(r.norm2(), 0.0);
    }
}
