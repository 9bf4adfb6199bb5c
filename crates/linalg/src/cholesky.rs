//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! Backs the ridge-regularised normal equations of the identification
//! stage and the Gaussian-process mutual-information selector.
//!
//! One routine validates and factors, for [`CholeskyDecomposition::new`]
//! and [`CholeskyDecomposition::refactor_principal`] alike, in place on
//! the row-major buffer: every entry of `L` is one
//! [`kernels`](crate::kernels) chain that starts from `a_ij` and
//! subtracts `l_ik · l_jk` with `k` ascending, and column `j`'s
//! sub-diagonal entries advance four rows at a time. The triangular
//! solves follow the same rule, so both are bit-identical to the
//! textbook one-entry-at-a-time loops (test references in
//! `reference.rs`). [`LeaveOneOut`] factors every leave-one-out block
//! of one matrix through the same routine, started at a later column
//! off one right-looking factorisation of the whole block.

use crate::kernels::{sub_dot4_from, sub_dot_from};
use crate::{LinalgError, Matrix, Result, Vector};

/// Cholesky decomposition `A = L Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// Used by the ridge-regularised normal equations
/// (`(XᵀX + λI) β = Xᵀy`) of the identification stage and by the
/// Gaussian-process mutual-information sensor selector, where
/// conditional variances reduce to Schur complements of covariance
/// blocks.
///
/// # Example
///
/// ```
/// use thermal_linalg::{CholeskyDecomposition, Matrix, Vector};
///
/// # fn main() -> Result<(), thermal_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0][..], &[2.0, 3.0][..]])?;
/// let chol = CholeskyDecomposition::new(&a)?;
/// let x = chol.solve(&Vector::from_slice(&[2.0, 1.0]))?;
/// // Verify A x = b.
/// let b = a.matvec(&x)?;
/// assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
}

impl CholeskyDecomposition {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is trusted (callers holding near-symmetric matrices
    /// should symmetrise first).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input,
    /// * [`LinalgError::Empty`] for a `0 × 0` input,
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries,
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is not
    ///   strictly positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let mut l = Matrix::zeros(0, 0);
        factor_principal(&mut l, a, 0..a.rows())?;
        Ok(CholeskyDecomposition { l })
    }

    /// The decomposition of the principal submatrix `a[idx, idx]`
    /// (rows and columns in `idx` order), built in this
    /// decomposition's storage.
    ///
    /// The result, errors included, is bit for bit that of
    /// `CholeskyDecomposition::new(&a.submatrix(idx, idx)?)`, without
    /// the submatrix copy or a fresh factor: a caller factoring many
    /// conditioning sets of one covariance (GP selection) allocates
    /// nothing once the storage has grown to its largest set. On error
    /// the storage is dropped with `self`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidData`] when an index is out of bounds,
    /// * [`LinalgError::Empty`] for an empty `idx`,
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries of the submatrix,
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is not
    ///   strictly positive.
    pub fn refactor_principal(self, a: &Matrix, idx: &[usize]) -> Result<Self> {
        let mut l = self.l;
        factor_principal(&mut l, a, idx.iter().copied())?;
        Ok(CholeskyDecomposition { l })
    }

    /// Rebuilds a decomposition from a previously extracted factor
    /// `L` (snapshot restore path): the factor must be square,
    /// non-empty, finite, and carry a strictly positive diagonal.
    /// Entries above the diagonal are trusted to be zero — `L` comes
    /// from [`CholeskyDecomposition::l`], which never writes them.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for a non-square factor,
    /// * [`LinalgError::Empty`] for a `0 × 0` factor,
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries,
    /// * [`LinalgError::NotPositiveDefinite`] for a non-positive
    ///   diagonal entry.
    pub fn from_factor(l: Matrix) -> Result<Self> {
        if !l.is_square() {
            return Err(LinalgError::NotSquare { shape: l.shape() });
        }
        if l.rows() == 0 {
            return Err(LinalgError::Empty {
                op: "cholesky from_factor",
            });
        }
        if !l.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "cholesky from_factor",
            });
        }
        for j in 0..l.rows() {
            let pivot = l[(j, j)];
            if pivot <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { index: j, pivot });
            }
        }
        Ok(CholeskyDecomposition { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward and back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = Vec::with_capacity(b.len());
        self.solve_into(b.as_slice(), &mut x)?;
        Ok(Vector::from(x))
    }

    /// Solves `A x = b` into a caller-owned buffer: `x` is cleared and
    /// refilled, its capacity retained across calls. Arithmetic is
    /// identical to [`CholeskyDecomposition::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        x.clear();
        x.extend_from_slice(b);
        substitute_in_place(self.l.as_slice(), n, x, 0);
        Ok(())
    }

    /// Solves `A X = B` column by column, each column bit for bit one
    /// [`CholeskyDecomposition::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `B.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let m = b.cols();
        let mut out = Matrix::zeros(n, m);
        let mut x = Vec::with_capacity(n);
        for j in 0..m {
            x.clear();
            x.extend(b.iter_rows().map(|row| row[j]));
            substitute_in_place(self.l.as_slice(), n, &mut x, 0);
            for (orow, v) in out.as_mut_slice().chunks_exact_mut(m).zip(&x) {
                orow[j] = *v;
            }
        }
        Ok(out)
    }

    /// Determinant of `A` (square of the product of `L`'s diagonal).
    pub fn determinant(&self) -> f64 {
        let p: f64 = (0..self.dim()).map(|i| self.l[(i, i)]).product();
        p * p
    }

    /// Natural log-determinant of `A`, computed stably as
    /// `2 Σ ln L_ii` (used by the GP mutual-information objective).
    pub fn log_determinant(&self) -> f64 {
        2.0 * (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>()
    }

    /// Inverse of `A` (solve against the identity). Prefer
    /// [`CholeskyDecomposition::solve`] when a solve suffices.
    ///
    /// # Errors
    ///
    /// Propagates any [`LinalgError`] from the underlying solve.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        self.solve_matrix(&Matrix::identity(n))
    }

    /// Rescales the factorisation from `A` to `factor · A` in place
    /// (by scaling `L` with `√factor`).
    ///
    /// This is the forgetting step of a recursive least-squares
    /// estimator: the information matrix decays as `P ← λ P` each
    /// slot before the new observation is folded in with
    /// [`CholeskyDecomposition::rank_one_update`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] unless `factor` is finite
    /// and strictly positive.
    pub fn scale(&mut self, factor: f64) -> Result<()> {
        if !factor.is_finite() || factor <= 0.0 {
            return Err(LinalgError::InvalidData {
                reason: "cholesky scale factor must be finite and positive",
            });
        }
        let root = factor.sqrt();
        let n = self.dim();
        for i in 0..n {
            for j in 0..=i {
                self.l[(i, j)] *= root;
            }
        }
        Ok(())
    }

    /// Rank-1 update: replaces the factorisation of `A` with one of
    /// `A + x xᵀ` in `O(n²)`, without refactorising.
    ///
    /// Uses the LINPACK `dchud` Givens sweep: each step rotates the
    /// diagonal pivot against the carried vector, so the factor stays
    /// lower-triangular with a positive diagonal. An update of an SPD
    /// matrix is always SPD, hence this cannot lose positive
    /// definiteness.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `x.len() != dim()`,
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries in `x`.
    pub fn rank_one_update(&mut self, x: &Vector) -> Result<()> {
        let mut workspace = Vec::new();
        self.rank_one_update_with(x.as_slice(), &mut workspace)
    }

    /// Rank-1 update taking a slice and a caller-owned workspace, so
    /// steady-state callers (the RLS estimator, the sweep cache) can
    /// run the Givens sweep without heap allocation.
    ///
    /// The workspace is cleared and refilled with a copy of `x`; its
    /// capacity is retained across calls. Arithmetic is identical to
    /// [`CholeskyDecomposition::rank_one_update`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `x.len() != dim()`,
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries in `x`.
    pub fn rank_one_update_with(&mut self, x: &[f64], workspace: &mut Vec<f64>) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky rank-1 update",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite {
                op: "cholesky rank-1 update",
            });
        }
        workspace.clear();
        workspace.extend_from_slice(x);
        let w = workspace.as_mut_slice();
        for k in 0..n {
            let pivot = self.l[(k, k)];
            let r = pivot.hypot(w[k]);
            let c = r / pivot;
            let s = w[k] / pivot;
            self.l[(k, k)] = r;
            for i in (k + 1)..n {
                self.l[(i, k)] = (self.l[(i, k)] + s * w[i]) / c;
                w[i] = c * w[i] - s * self.l[(i, k)];
            }
        }
        Ok(())
    }

    /// Rank-1 downdate: replaces the factorisation of `A` with one of
    /// `A - x xᵀ` in `O(n²)`, without refactorising.
    ///
    /// The downdated matrix may not be positive definite; the sweep
    /// runs on a scratch copy and commits only on success, so a
    /// failed downdate leaves the factorisation untouched.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `x.len() != dim()`,
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries in `x`,
    /// * [`LinalgError::NotPositiveDefinite`] when `A - x xᵀ` is not
    ///   positive definite (the factorisation is left unchanged).
    pub fn rank_one_downdate(&mut self, x: &Vector) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky rank-1 downdate",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        if !x.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "cholesky rank-1 downdate",
            });
        }
        let mut l = self.l.clone();
        let mut w = x.as_slice().to_vec();
        for k in 0..n {
            let pivot = l[(k, k)];
            let d = pivot * pivot - w[k] * w[k];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { index: k, pivot: d });
            }
            let r = d.sqrt();
            let c = r / pivot;
            let s = w[k] / pivot;
            l[(k, k)] = r;
            for i in (k + 1)..n {
                l[(i, k)] = (l[(i, k)] - s * w[i]) / c;
                w[i] = c * w[i] - s * l[(i, k)];
            }
        }
        self.l = l;
        Ok(())
    }
}

/// The factors of every leave-one-out block of one principal block:
/// for the block `a[R, R]` on the index list `R`, the factor of the
/// block `a[R∖{r_p}, R∖{r_p}]` (order kept) for positions
/// `p = 0, 1, …` in turn, each solvable against its left-out column
/// `a[R∖{r_p}, r_p]`. It is the conditioning step of greedy GP
/// selection: one factorisation per candidate, of the remaining set
/// without it.
///
/// `a[R, R]` is factored right-looking, one column per position.
/// Position `p`'s block shares the full factor's columns `< p` (row
/// `p` left out) bit for bit, and each of its trailing entries is the
/// full factor's chain through column `p − 1` continued, so only the
/// trailing block is factored (`factor_in_place` from column `p`).
/// Likewise its forward substitution starts `p` entries in: they are
/// the full factor's row `p`, and the rest start from column `p`'s
/// chains. Each entry of a factor or solution is still "start from
/// `a_ij`, subtract `l_ik · l_jk` with `k` ascending", so every factor,
/// solution and error (`NonFinite`, `NotPositiveDefinite` with its
/// index and pivot) is bit for bit that of
/// [`CholeskyDecomposition::new`] and
/// [`CholeskyDecomposition::solve_into`] on the submatrix.
///
/// Only `a`'s lower triangle is read, the left-out column included;
/// the column equals `a[R∖{r_p}, r_p]` when `a` is symmetric bit for
/// bit, as every covariance from [`crate::stats`] is. Storage is reused
/// across [`LeaveOneOut::reset`]s, so nothing is allocated once it has
/// grown to the largest set.
#[derive(Debug, Clone)]
pub struct LeaveOneOut {
    /// `a[R, R]`'s lower triangle, `m × m`, factored right-looking
    /// through the column before the current position.
    work: Matrix,
    /// The current position's factor, `(m − 1) × (m − 1)`.
    factor: Matrix,
    /// Positions handed out by [`LeaveOneOut::factor_next`] so far.
    next: usize,
    /// Whether `factor` holds position `next − 1`'s factor.
    ready: bool,
    /// The full factorisation's failure at a finished column, which
    /// every later position's block shares.
    failed: Option<LinalgError>,
    /// Non-finite entries of `a[R, R]`.
    nonfinite: usize,
    /// Non-finite entries in row or column `p` of `a[R, R]`, per `p`.
    crossing: Vec<usize>,
    /// Scratch for the column being eliminated.
    column: Vec<f64>,
}

impl LeaveOneOut {
    /// Empty storage; [`LeaveOneOut::reset`] loads a block.
    pub fn new() -> Self {
        LeaveOneOut {
            work: Matrix::zeros(0, 0),
            factor: Matrix::zeros(0, 0),
            next: 0,
            ready: false,
            failed: None,
            nonfinite: 0,
            crossing: Vec::new(),
            column: Vec::new(),
        }
    }

    /// Loads `a[idx, idx]` and rewinds to position 0.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidData`] when an index is out of bounds.
    pub fn reset(&mut self, a: &Matrix, idx: &[usize]) -> Result<()> {
        if idx.iter().any(|&r| r >= a.rows()) {
            return Err(LinalgError::InvalidData {
                reason: "row index out of bounds in submatrix",
            });
        }
        if idx.iter().any(|&c| c >= a.cols()) {
            return Err(LinalgError::InvalidData {
                reason: "column index out of bounds in submatrix",
            });
        }
        let m = idx.len();
        self.work.reset_zeros(m, m);
        self.factor
            .reset_zeros(m.saturating_sub(1), m.saturating_sub(1));
        self.crossing.clear();
        self.crossing.resize(m, 0);
        self.nonfinite = 0;
        for (i, &r) in idx.iter().enumerate() {
            let arow = a.row(r);
            for (dst, &c) in self.work.row_mut(i)[..=i].iter_mut().zip(idx) {
                *dst = arow[c];
            }
            for (j, &c) in idx.iter().enumerate() {
                if !arow[c].is_finite() {
                    self.nonfinite += 1;
                    self.crossing[i] += 1;
                    if j != i {
                        self.crossing[j] += 1;
                    }
                }
            }
        }
        self.next = 0;
        self.ready = false;
        self.failed = None;
        Ok(())
    }

    /// Factors the next position's block and returns the position.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidData`] when every position was used,
    /// * [`LinalgError::Empty`] when the block is empty (`R` has one
    ///   index),
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries of the block,
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is not
    ///   strictly positive.
    pub fn factor_next(&mut self) -> Result<usize> {
        let m = self.work.rows();
        let p = self.next;
        if p >= m {
            return Err(LinalgError::InvalidData {
                reason: "every leave-one-out position is used",
            });
        }
        self.next += 1;
        self.ready = false;
        if p > 0 && self.failed.is_none() {
            let work = self.work.as_mut_slice();
            self.failed = eliminate_column(work, m, p - 1, &mut self.column).err();
        }
        let c = m - 1;
        if c == 0 {
            return Err(LinalgError::Empty { op: "cholesky" });
        }
        if self.crossing[p] != self.nonfinite {
            return Err(LinalgError::NonFinite { op: "cholesky" });
        }
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let work = self.work.as_slice();
        for (i, frow) in self.factor.as_mut_slice().chunks_exact_mut(c).enumerate() {
            if i < p {
                frow[..=i].copy_from_slice(&work[i * m..=i * m + i]);
            } else {
                let wrow = &work[(i + 1) * m..(i + 2) * m];
                frow[..p].copy_from_slice(&wrow[..p]);
                frow[p..=i].copy_from_slice(&wrow[p + 1..=i + 1]);
            }
        }
        factor_in_place(self.factor.as_mut_slice(), c, p)?;
        self.ready = true;
        Ok(p)
    }

    /// The factor of the block [`LeaveOneOut::factor_next`] last returned.
    pub fn l(&self) -> &Matrix {
        &self.factor
    }

    /// Solves the block [`LeaveOneOut::factor_next`] last returned against
    /// its left-out column into `x` (cleared and refilled, capacity
    /// kept).
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidData`] unless the last
    /// [`LeaveOneOut::factor_next`] succeeded.
    pub fn solve_into(&self, x: &mut Vec<f64>) -> Result<()> {
        if !self.ready {
            return Err(LinalgError::InvalidData {
                reason: "leave-one-out solve without a factored block",
            });
        }
        let (m, p) = (self.work.rows(), self.next - 1);
        let work = self.work.as_slice();
        x.clear();
        x.extend_from_slice(&work[p * m..p * m + p]);
        x.extend(work[(p + 1) * m..].chunks_exact(m).map(|row| row[p]));
        substitute_in_place(self.factor.as_slice(), m - 1, x, p);
        Ok(())
    }
}

impl Default for LeaveOneOut {
    fn default() -> Self {
        Self::new()
    }
}

/// The checks of [`CholeskyDecomposition::new`] on the principal block
/// `a[idx, idx]`, then its lower triangle copied into `l` (reshaped,
/// storage reused) and factored in place. `idx` yields the block's
/// rows, which are also its columns, in order; `new` passes `0..n`.
fn factor_principal<I>(l: &mut Matrix, a: &Matrix, idx: I) -> Result<()>
where
    I: ExactSizeIterator<Item = usize> + Clone,
{
    if idx.clone().any(|r| r >= a.rows()) {
        return Err(LinalgError::InvalidData {
            reason: "row index out of bounds in submatrix",
        });
    }
    if idx.clone().any(|c| c >= a.cols()) {
        return Err(LinalgError::InvalidData {
            reason: "column index out of bounds in submatrix",
        });
    }
    let n = idx.len();
    if n == 0 {
        return Err(LinalgError::Empty { op: "cholesky" });
    }
    let finite = idx.clone().all(|r| {
        let arow = a.row(r);
        idx.clone().all(|c| arow[c].is_finite())
    });
    if !finite {
        return Err(LinalgError::NonFinite { op: "cholesky" });
    }
    l.reset_zeros(n, n);
    for (i, (lrow, r)) in l
        .as_mut_slice()
        .chunks_exact_mut(n)
        .zip(idx.clone())
        .enumerate()
    {
        let arow = a.row(r);
        for (dst, c) in lrow[..=i].iter_mut().zip(idx.clone()) {
            *dst = arow[c];
        }
    }
    factor_in_place(l.as_mut_slice(), n, 0)
}

/// The factorisation. On entry the row-major `n × n` buffer `l` holds
/// `A`'s lower triangle (zeros above), with columns before `start`
/// already factored and every entry from `(start, start)` on holding
/// its chain through column `start − 1`; on success it holds `L`.
/// Every caller but [`LeaveOneOut`] factors from `start = 0`, where the
/// entries are `A`'s own.
///
/// Column `j` takes its pivot `a_jj − Σ_k l_jk²`, then its sub-diagonal
/// entries `(a_ij − Σ_k l_ik · l_jk) / l_jj`, four rows per
/// [`sub_dot4_from`] pass over the shared `l_j·` prefix, `k` running
/// from `start`. Row `i`'s entry `j` still holds its chain when column
/// `j` reads it, and every chain subtracts with `k` ascending, the
/// order of the one-entry reference loop.
fn factor_in_place(l: &mut [f64], n: usize, start: usize) -> Result<()> {
    for j in start..n {
        let (head, below) = l.split_at_mut((j + 1) * n);
        let (lj, pivot) = head[j * n..].split_at_mut(j);
        let lj: &[f64] = &lj[start..];
        let d = sub_dot_from(pivot[0], lj, lj);
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { index: j, pivot: d });
        }
        let dsqrt = d.sqrt();
        pivot[0] = dsqrt;
        let mut quads = below.chunks_exact_mut(4 * n);
        for quad in &mut quads {
            let (r0, rest) = quad.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            let s = sub_dot4_from(
                [r0[j], r1[j], r2[j], r3[j]],
                lj,
                [&r0[start..j], &r1[start..j], &r2[start..j], &r3[start..j]],
            );
            for (row, s) in [r0, r1, r2, r3].into_iter().zip(s) {
                row[j] = s / dsqrt;
            }
        }
        for row in quads.into_remainder().chunks_exact_mut(n) {
            let s = sub_dot_from(row[j], &row[start..j], lj);
            row[j] = s / dsqrt;
        }
    }
    Ok(())
}

/// Finishes column `k` of the row-major `n × n` buffer `l` right-looking:
/// columns before `k` are final and every entry from `(k, k)` on holds
/// its chain through column `k − 1`. The pivot and the entries below it
/// are finished as [`factor_in_place`] finishes them, then every entry
/// `(i, j)` with `k < j ≤ i` subtracts `l_ik · l_jk`, the next term of
/// its chain, so [`factor_in_place`] from `k + 1` can take over. `column`
/// is scratch for the finished column below the pivot.
fn eliminate_column(l: &mut [f64], n: usize, k: usize, column: &mut Vec<f64>) -> Result<()> {
    let d = l[k * n + k];
    if d <= 0.0 || !d.is_finite() {
        return Err(LinalgError::NotPositiveDefinite { index: k, pivot: d });
    }
    let dsqrt = d.sqrt();
    l[k * n + k] = dsqrt;
    column.clear();
    for row in l[(k + 1) * n..].chunks_exact_mut(n) {
        row[k] /= dsqrt;
        column.push(row[k]);
    }
    for (r, row) in l[(k + 1) * n..].chunks_exact_mut(n).enumerate() {
        let lik = column[r];
        for (dst, ljk) in row[k + 1..=k + 1 + r].iter_mut().zip(&column[..=r]) {
            *dst -= lik * ljk;
        }
    }
    Ok(())
}

/// Solves `L Lᵀ x = b` in place: `x` holds `b` on entry, `x` on exit.
/// With `start > 0`, `x[..start]` already holds the forward solution's
/// first `start` entries and every later entry its chain through
/// column `start − 1` ([`LeaveOneOut`]); every other caller passes 0.
///
/// Forward, `y_i = (b_i − Σ_{k<i} l_ik y_k) / l_ii` advances four rows
/// per pass over the solved prefix (from `start`), then finishes their
/// triangle. Back, `x_i = (y_i − Σ_{k>i} l_ki x_k) / l_ii` walks column
/// `i` strided; each of its terms waits on the previous row's answer.
fn substitute_in_place(l: &[f64], n: usize, x: &mut [f64], start: usize) {
    let row = |i: usize| &l[i * n..(i + 1) * n];
    let mut i = start;
    while i + 4 <= n {
        let rows = [row(i), row(i + 1), row(i + 2), row(i + 3)];
        let (y, block) = x.split_at_mut(i);
        let s = sub_dot4_from(
            [block[0], block[1], block[2], block[3]],
            &y[start..],
            rows.map(|r| &r[start..i]),
        );
        for (lane, (r, s)) in rows.into_iter().zip(s).enumerate() {
            let s = sub_dot_from(s, &r[i..i + lane], &block[..lane]);
            block[lane] = s / r[i + lane];
        }
        i += 4;
    }
    for i in i..n {
        let r = row(i);
        let (y, rest) = x.split_at_mut(i);
        rest[0] = sub_dot_from(rest[0], &r[start..i], &y[start..]) / r[i];
    }
    for i in (0..n).rev() {
        let (head, solved) = x.split_at_mut(i + 1);
        let column = l.iter().skip((i + 1) * n + i).step_by(n);
        head[i] = sub_dot_from(head[i], column, &*solved) / l[i * n + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 2.0, 0.6][..],
            &[2.0, 5.0, 1.0][..],
            &[0.6, 1.0, 3.0][..],
        ])
        .unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let llt = chol.l().matmul(&chol.l().transpose()).unwrap();
        assert!(llt.approx_eq(&a, 1e-12));
    }

    #[test]
    fn l_is_lower_triangular_with_positive_diagonal() {
        let chol = CholeskyDecomposition::new(&spd3()).unwrap();
        let l = chol.l();
        for i in 0..3 {
            assert!(l[(i, i)] > 0.0);
            for j in (i + 1)..3 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_satisfies_system() {
        let a = spd3();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let x = chol.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for i in 0..3 {
            assert!((back[i] - b[i]).abs() < 1e-12);
        }
        assert!(chol.solve(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn solve_matrix_and_inverse() {
        let a = spd3();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let inv = chol.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
        assert!(chol.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn determinant_matches_known_value() {
        let a = Matrix::from_rows(&[&[2.0, 0.0][..], &[0.0, 8.0][..]]).unwrap();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        assert!((chol.determinant() - 16.0).abs() < 1e-12);
        assert!((chol.log_determinant() - 16.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let indef = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 1.0][..]]).unwrap();
        assert!(matches!(
            CholeskyDecomposition::new(&indef),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let zero = Matrix::zeros(2, 2);
        assert!(CholeskyDecomposition::new(&zero).is_err());
    }

    #[test]
    fn rejects_bad_shapes_and_nan() {
        assert!(matches!(
            CholeskyDecomposition::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            CholeskyDecomposition::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty { .. })
        ));
        let mut nan = Matrix::identity(2);
        nan[(1, 1)] = f64::NAN;
        assert!(matches!(
            CholeskyDecomposition::new(&nan),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn rank_one_update_matches_refactorisation() {
        let a = spd3();
        let x = Vector::from_slice(&[0.7, -1.1, 0.4]);
        let mut chol = CholeskyDecomposition::new(&a).unwrap();
        chol.rank_one_update(&x).unwrap();
        let mut bumped = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                bumped[(i, j)] += x[i] * x[j];
            }
        }
        let fresh = CholeskyDecomposition::new(&bumped).unwrap();
        assert!(chol.l().approx_eq(fresh.l(), 1e-12));
    }

    #[test]
    fn rank_one_downdate_inverts_update() {
        let a = spd3();
        let x = Vector::from_slice(&[0.3, 0.9, -0.5]);
        let mut chol = CholeskyDecomposition::new(&a).unwrap();
        chol.rank_one_update(&x).unwrap();
        chol.rank_one_downdate(&x).unwrap();
        let original = CholeskyDecomposition::new(&a).unwrap();
        assert!(chol.l().approx_eq(original.l(), 1e-10));
    }

    #[test]
    fn failed_downdate_leaves_factor_untouched() {
        let a = spd3();
        let mut chol = CholeskyDecomposition::new(&a).unwrap();
        let before = chol.l().clone();
        // Removing 10·e0 e0ᵀ makes the (0,0) pivot negative.
        let too_big = Vector::from_slice(&[10.0, 0.0, 0.0]);
        assert!(matches!(
            chol.rank_one_downdate(&too_big),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert_eq!(chol.l(), &before, "failed downdate must not commit");
    }

    #[test]
    fn rank_one_rejects_bad_vectors() {
        let mut chol = CholeskyDecomposition::new(&spd3()).unwrap();
        assert!(matches!(
            chol.rank_one_update(&Vector::zeros(2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            chol.rank_one_downdate(&Vector::zeros(4)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let nan = Vector::from_slice(&[0.0, f64::NAN, 0.0]);
        assert!(matches!(
            chol.rank_one_update(&nan),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn scale_matches_refactorisation() {
        let a = spd3();
        let mut chol = CholeskyDecomposition::new(&a).unwrap();
        chol.scale(0.25).unwrap();
        let mut shrunk = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                shrunk[(i, j)] *= 0.25;
            }
        }
        let fresh = CholeskyDecomposition::new(&shrunk).unwrap();
        assert!(chol.l().approx_eq(fresh.l(), 1e-12));
        assert!(chol.scale(0.0).is_err());
        assert!(chol.scale(-1.0).is_err());
        assert!(chol.scale(f64::NAN).is_err());
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_rows(&[&[9.0][..]]).unwrap();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        assert_eq!(chol.l()[(0, 0)], 3.0);
        assert_eq!(chol.determinant(), 9.0);
        let x = chol.solve(&Vector::from_slice(&[18.0])).unwrap();
        assert_eq!(x[0], 2.0);
    }
}
