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

    /// Adds the rows folded so far into running totals and restarts:
    /// `gram` takes the upper triangle of `XᵀX` packed row by row (row
    /// `i` holds columns `i..cols`, `cols·(cols+1)/2` entries), `cross`
    /// takes `XᵀY` row-major (`cols × rhs`), one addition per entry;
    /// then every chain starts again from `+0.0` with no rows folded,
    /// in the same buffers.
    ///
    /// A fold and a drain per row set sum the normal equations of
    /// several sets, each its own chain, in the order they are drained:
    /// the piece-wise sum over the gap-free pieces of a trace.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `gram` or `cross` has the
    /// wrong length; nothing is added or restarted then.
    ///
    /// # Example
    ///
    /// ```
    /// use thermal_linalg::lstsq::RidgeNormalEquations;
    ///
    /// # fn main() -> Result<(), thermal_linalg::LinalgError> {
    /// let mut piece = RidgeNormalEquations::new(2, 1, 0.0)?;
    /// let (mut gram, mut cross) = ([0.0; 3], [0.0; 2]);
    /// piece.fold(&[1.0, 2.0], &[3.0])?;
    /// piece.drain_into(&mut gram, &mut cross)?;
    /// piece.fold(&[0.5, 1.0], &[2.0])?;
    /// piece.drain_into(&mut gram, &mut cross)?;
    /// assert_eq!((gram, cross), ([1.25, 2.5, 5.0], [4.0, 8.0]));
    /// assert_eq!(piece.rows(), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn drain_into(&mut self, gram: &mut [f64], cross: &mut [f64]) -> Result<()> {
        let (p, q) = (self.cols, self.rhs);
        if gram.len() != p * (p + 1) / 2 || cross.len() != p * q {
            return Err(LinalgError::ShapeMismatch {
                op: "ridge drain",
                lhs: (gram.len(), cross.len()),
                rhs: (p * (p + 1) / 2, p * q),
            });
        }
        let mut packed = gram.iter_mut();
        for (i, row) in self.gram.chunks_exact(p.max(1)).enumerate() {
            for (v, g) in row.iter().skip(i).zip(packed.by_ref()) {
                *g += v;
            }
        }
        for (i, row) in cross.chunks_exact_mut(q.max(1)).enumerate() {
            for (c, v) in row.iter_mut().zip(self.cross.iter().skip(i).step_by(p)) {
                *c += v;
            }
        }
        self.gram.fill(0.0);
        self.cross.fill(0.0);
        self.rows = 0;
        Ok(())
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

    /// A drain adds the packed upper triangle of `gram()` and the
    /// row-major `cross()` into the totals, one addition per entry, and
    /// the next fold starts fresh chains; a wrong total length adds and
    /// restarts nothing.
    #[test]
    fn drain_adds_packed_chains_and_restarts() {
        let x = Matrix::from_fn(7, 3, |r, c| ((r * 3 + c) as f64 * 0.7).sin());
        let y = Matrix::from_fn(7, 2, |r, c| ((r + 5 * c) as f64).cos());
        let mut piece = RidgeNormalEquations::new(3, 2, 0.5).unwrap();
        piece.fold(x.as_slice(), y.as_slice()).unwrap();
        let (gram, cross) = (piece.gram(), piece.cross());
        assert!(piece.drain_into(&mut [0.0; 5], &mut [0.0; 6]).is_err());
        assert_eq!(piece.rows(), 7);
        let (mut totals, mut totals_cross) = (vec![1.0; 6], vec![-1.0; 6]);
        piece.drain_into(&mut totals, &mut totals_cross).unwrap();
        let packed = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
        for (t, (i, j)) in totals.iter().zip(packed) {
            assert_eq!(t.to_bits(), (1.0 + gram[(i, j)]).to_bits());
        }
        for (k, t) in totals_cross.iter().enumerate() {
            assert_eq!(t.to_bits(), (-1.0 + cross[(k / 2, k % 2)]).to_bits());
        }
        assert_eq!(piece.rows(), 0);
        piece.fold(x.row(2), y.row(2)).unwrap();
        let mut fresh = RidgeNormalEquations::new(3, 2, 0.5).unwrap();
        fresh.fold(x.row(2), y.row(2)).unwrap();
        assert_eq!(piece.solve().unwrap(), fresh.solve().unwrap());
    }

    #[test]
    fn residual_is_zero_for_exact_solution() {
        let a = Matrix::identity(3);
        let x = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let r = residual(&a, &x, &x).unwrap();
        assert_eq!(r.norm2(), 0.0);
    }
}
