//! Dense row-major `f64` matrix container and arithmetic.
//!
//! The shared data structure under every kernel in this crate.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Range, Sub};

use serde::{Deserialize, Serialize};

use crate::{kernels, LinalgError, Result, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// The type is deliberately simple: owned contiguous storage, checked
/// constructors, and the handful of operations the thermal-modeling
/// pipeline needs (products, transpose, slicing by row/column index
/// sets). Heavy factorisations live in dedicated types
/// ([`crate::QrDecomposition`], [`crate::CholeskyDecomposition`],
/// [`crate::SymmetricEigen`]).
///
/// # Example
///
/// ```
/// use thermal_linalg::Matrix;
///
/// # fn main() -> Result<(), thermal_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]])?;
/// let b = a.matmul(&a.transpose())?;
/// assert_eq!(b[(0, 0)], 5.0);
/// assert_eq!(b[(1, 1)], 25.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// use thermal_linalg::Matrix;
    /// let i = Matrix::identity(2);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidData {
                reason: "buffer length does not equal rows * cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::InvalidData`] when rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let Some(first) = rows.first() else {
            return Err(LinalgError::Empty { op: "from_rows" });
        };
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::InvalidData {
                    reason: "rows have differing lengths",
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a generating function of `(row, col)`.
    ///
    /// ```
    /// use thermal_linalg::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
    /// assert_eq!(m[(1, 0)], 10.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix holds no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning the row-major backing storage.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Mutably borrows the row-major backing storage.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Turns `self` into a `rows × cols` matrix of zeros, reusing its
    /// allocation.
    pub(crate) fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns entry `(r, c)`, or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of bounds.
    pub fn column(&self, c: usize) -> Vector {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        Vector::from_fn(self.rows, |r| self.data[r * self.cols + c])
    }

    /// Copies the main diagonal into a new [`Vector`].
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.data.len());
        columns_into(&self.data, self.cols, 0..self.cols, &mut data);
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// The kernel is cache-blocked over the inner dimension and, for
    /// large products, fans out over row panels of the result via the
    /// deterministic `thermal-par` executor; every output row is
    /// accumulated in the same order regardless of thread count, so
    /// the result is bitwise identical at any parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when inner dimensions
    /// differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let work = self.rows * self.cols * rhs.cols;
        self.matmul_with_threads(rhs, crate::kernel_threads(work))
    }

    /// [`Matrix::matmul`] with an explicit worker count — the
    /// differential-testing surface of the determinism contract
    /// (`threads == 1` is the sequential path).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when inner dimensions
    /// differ.
    pub fn matmul_with_threads(&self, rhs: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.rows == 0 || rhs.cols == 0 {
            return Ok(out);
        }
        let panel_rows = self.rows.div_ceil(threads.max(1)).max(1);
        let n = rhs.cols;
        thermal_par::parallel_chunks_mut_with(
            threads,
            &mut out.data,
            panel_rows * n,
            |p, panel| {
                matmul_panel(self, rhs, p * panel_rows, panel);
            },
        );
        Ok(out)
    }

    /// Product with the transpose of `rhs`: `self * rhsᵀ`, i.e.
    /// `out[i][j] = ⟨self.row(i), rhs.row(j)⟩` — both operands are
    /// walked row-major, which is what the pairwise-similarity kernels
    /// want. Large products fan out over row panels deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when column counts
    /// differ.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Result<Matrix> {
        let work = self.rows * self.cols * rhs.rows;
        self.matmul_transpose_b_with_threads(rhs, crate::kernel_threads(work))
    }

    /// [`Matrix::matmul_transpose_b`] with an explicit worker count
    /// (`threads == 1` is the sequential path).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when column counts
    /// differ.
    pub fn matmul_transpose_b_with_threads(&self, rhs: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_b",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        if self.rows == 0 || rhs.rows == 0 {
            return Ok(out);
        }
        let n = rhs.rows;
        let panel_rows = self.rows.div_ceil(threads.max(1)).max(1);
        thermal_par::parallel_chunks_mut_with(
            threads,
            &mut out.data,
            panel_rows * n,
            |p, panel| {
                let i0 = p * panel_rows;
                for (r, orow) in panel.chunks_mut(n).enumerate() {
                    kernels::dot_rows_from(0.0, self.row(i0 + r), &rhs.data, rhs.cols, orow);
                }
            },
        );
        Ok(out)
    }

    /// Product of the transpose of `self` with `rhs`: `selfᵀ * rhs`,
    /// the `AᵀB` half of the normal-equation solvers.
    ///
    /// Entry `(i, j)` is one [`kernels`] chain from `+0.0` over the
    /// sample rows in ascending order: column `i` of `self` against
    /// column `j` of `rhs`. Both operands are read in panels of 128
    /// rows whose columns are first made contiguous;
    /// each chain continues from panel to panel, four chains per pass.
    /// Large products fan out over blocks of output rows, so the result
    /// is bitwise identical at any worker count.
    ///
    /// On finite input this equals the row-streaming product that skips
    /// exact-zero entries of `self`: a chain from `+0.0` never becomes
    /// `-0.0`, so adding a zero product changes nothing. An entry whose
    /// operands hold ±∞ or NaN may differ from it, e.g. NaN where
    /// `0 · ∞` used to be skipped; the ridge solvers reject non-finite
    /// input before calling this.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when row counts differ.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (p, q) = (self.cols, rhs.cols);
        let mut out = Matrix::zeros(p, q);
        if p == 0 || q == 0 {
            return Ok(out);
        }
        let threads = crate::kernel_threads(self.rows * p * q);
        let block_rows = p.div_ceil(threads.max(1)).max(1);
        thermal_par::parallel_chunks_mut_with(
            threads,
            &mut out.data,
            block_rows * q,
            |blk, out_block| {
                let first = blk * block_rows;
                let ni = out_block.len() / q;
                // Row `j` of `acc` holds entries `(first.., j)`: each
                // chain runs as a lane of column `j` of `rhs` against the
                // block's columns of `self` (IEEE products commute), so
                // the lanes stay four wide even for a single output.
                let mut acc = vec![0.0; q * ni];
                let (mut lhs, mut rcols) = (Vec::new(), Vec::new());
                let panels = self.data.chunks(PANEL_ROWS * p);
                for (panel, rpanel) in panels.zip(rhs.data.chunks(PANEL_ROWS * q)) {
                    let n = panel.len() / p;
                    columns_into(panel, p, first..first + ni, &mut lhs);
                    columns_into(rpanel, q, 0..q, &mut rcols);
                    for (arow, cj) in acc.chunks_exact_mut(ni).zip(rcols.chunks_exact(n)) {
                        kernels::dot_rows_acc(cj, &lhs, n, arow);
                    }
                }
                for (j, arow) in acc.chunks_exact(ni).enumerate() {
                    for (o, v) in out_block.iter_mut().skip(j).step_by(q).zip(arow) {
                        *o = *v;
                    }
                }
            },
        );
        Ok(out)
    }

    /// Product of the transpose of `self` with a vector: `selfᵀ v`,
    /// streaming `self` row-major.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != rows`.
    pub fn transpose_matvec(&self, v: &Vector) -> Result<Vector> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, row) in self.iter_rows().enumerate() {
            let s = v[r];
            if s == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(row) {
                *o += s * a;
            }
        }
        Ok(Vector::from(out))
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &Vector) -> Result<Vector> {
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(v.as_slice(), &mut out)?;
        Ok(Vector::from(out))
    }

    /// Matrix-vector product `self * x` into a caller-owned buffer, so
    /// steady-state callers (model rollouts) avoid heap allocation.
    ///
    /// `out` is cleared and refilled with one entry per row; its
    /// capacity is retained across calls. This is the arithmetic of
    /// [`Matrix::matvec`]: every row is one
    /// [`kernels::dot_from`](crate::kernels::dot_from) chain from
    /// `-0.0` (the start of `Iterator::sum`), four rows per pass.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != cols`.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if self.cols != x.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        out.clear();
        out.resize(self.rows, 0.0);
        kernels::dot_rows_from(-0.0, x, &self.data, self.cols, out);
        Ok(())
    }

    /// `Aᵀ A` computed directly (used by normal-equation solvers).
    ///
    /// Upper-triangle entry `(i, j)` is one [`kernels`] chain from
    /// `+0.0` over the sample rows in ascending order, column `i`
    /// against column `j`; the lower triangle is its mirror. The rows
    /// are read in panels of 128 whose columns are first made
    /// contiguous, each chain continues from panel to panel, and
    /// four entries of a row advance per pass. Large problems fan out
    /// over blocks of output rows, so the result is bitwise identical
    /// at any worker count.
    ///
    /// On finite input this equals the row-streaming accumulation that
    /// skips exact-zero entries: a chain from `+0.0` never becomes
    /// `-0.0`, so adding a zero product changes nothing. An entry whose
    /// column holds ±∞ or NaN may differ from it, e.g. NaN where
    /// `0 · ∞` used to be skipped; the ridge solvers reject non-finite
    /// input before calling this.
    pub fn gram(&self) -> Matrix {
        // Upper-triangular work: rows * cols² / 2 multiply-adds.
        let work = self.rows * self.cols * self.cols / 2;
        self.gram_with_threads(crate::kernel_threads(work))
    }

    /// [`Matrix::gram`] with an explicit worker count (`threads == 1`
    /// is the sequential path).
    pub fn gram_with_threads(&self, threads: usize) -> Matrix {
        let p = self.cols;
        let mut out = Matrix::zeros(p, p);
        if p == 0 {
            return out;
        }
        let block_rows = p.div_ceil(threads.max(1)).max(1);
        thermal_par::parallel_chunks_mut_with(
            threads,
            &mut out.data,
            block_rows * p,
            |blk, out_block| {
                let first = blk * block_rows;
                let mut cols = Vec::new();
                for panel in self.data.chunks(PANEL_ROWS * p) {
                    let n = panel.len() / p;
                    columns_into(panel, p, first..p, &mut cols);
                    // Output row `i` continues the chains of column `i`
                    // against columns `i..`, the front of `tail`.
                    let mut tail = cols.as_slice();
                    for (orow, i) in out_block.chunks_exact_mut(p).zip(first..) {
                        let (_, upper) = orow.split_at_mut(i);
                        let (column, rest) = tail.split_at(n);
                        kernels::dot_rows_acc(column, tail, n, upper);
                        tail = rest;
                    }
                }
            },
        );
        // Mirror the upper triangle: row `i` takes column `i` of the
        // rows above it.
        for i in 1..p {
            let (above, from_i) = out.data.split_at_mut(i * p);
            let column = above.iter().skip(i).step_by(p);
            for (dst, src) in from_i.iter_mut().take(i).zip(column) {
                *dst = *src;
            }
        }
        out
    }

    /// Element-wise scaling by `s`, returning a new matrix.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Extracts the sub-matrix with the given row and column indices
    /// (in the given order; duplicates allowed).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] when any index is out of
    /// bounds.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Result<Matrix> {
        for &r in row_idx {
            if r >= self.rows {
                return Err(LinalgError::InvalidData {
                    reason: "row index out of bounds in submatrix",
                });
            }
        }
        for &c in col_idx {
            if c >= self.cols {
                return Err(LinalgError::InvalidData {
                    reason: "column index out of bounds in submatrix",
                });
            }
        }
        Ok(Matrix::from_fn(row_idx.len(), col_idx.len(), |r, c| {
            self[(row_idx[r], col_idx[c])]
        }))
    }

    /// Selects columns by index, keeping all rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] when any index is out of
    /// bounds.
    pub fn select_columns(&self, col_idx: &[usize]) -> Result<Matrix> {
        let all_rows: Vec<usize> = (0..self.rows).collect();
        self.submatrix(&all_rows, col_idx)
    }

    /// Horizontally concatenates `self` with `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when row counts differ.
    pub fn hstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Vertically concatenates `self` with `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when column counts
    /// differ.
    pub fn vstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + rhs.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Ok(Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        })
    }

    /// Frobenius norm (root of the sum of squared entries).
    pub fn norm_frobenius(&self) -> f64 {
        Vector::from_slice(&self.data).norm2()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// `true` when `|self - other|` is entry-wise below `tol`.
    ///
    /// Shapes must match; mismatched shapes return `false`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Symmetry check up to tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols.max(1))
    }
}

/// Sample rows per panel of [`Matrix::gram`] and
/// [`Matrix::transpose_matmul`]: a panel's columns, made contiguous,
/// take at most `PANEL_ROWS × cols` scratch entries (61 KiB at 61
/// columns) instead of a full transposed copy.
const PANEL_ROWS: usize = 128;

/// Appends columns `columns` of the row-major `rows` (each row `width`
/// entries) to `out` after clearing it: column after column, each one
/// contiguous run of `rows.len() / width` entries.
fn columns_into(rows: &[f64], width: usize, columns: Range<usize>, out: &mut Vec<f64>) {
    out.clear();
    if width == 0 {
        return;
    }
    for c in columns {
        out.extend(rows.iter().skip(c).step_by(width));
    }
}

/// Inner-dimension tile for the blocked product: a `MATMUL_KC × cols`
/// panel of the right-hand side (≤ ~32 KiB of `f64` at typical widths)
/// stays cache-resident while every row of the output panel sweeps it.
const MATMUL_KC: usize = 64;

/// Computes output rows `i0 ..` of `a * b` into `panel` (a row-major
/// slice of `b.cols`-wide rows). The inner dimension is visited in
/// ascending order for every output entry — tiling and row-panel
/// splits never change the accumulation order, which is what makes
/// the parallel product bitwise deterministic.
fn matmul_panel(a: &Matrix, b: &Matrix, i0: usize, panel: &mut [f64]) {
    let n = b.cols;
    for k0 in (0..a.cols).step_by(MATMUL_KC) {
        let k1 = (k0 + MATMUL_KC).min(a.cols);
        for (r, orow) in panel.chunks_mut(n).enumerate() {
            let arow = a.row(i0 + r);
            for k in k0..k1 {
                let av = arow[k];
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[k * n..(k + 1) * n];
                for (o, bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: matrix shapes differ");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub: matrix shapes differ");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap()
    }

    #[test]
    fn construction_checks_buffer_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::InvalidData { .. })
        ));
    }

    #[test]
    fn from_rows_checks_consistency() {
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::Empty { .. })
        ));
        assert!(matches!(
            Matrix::from_rows(&[&[1.0][..], &[1.0, 2.0][..]]),
            Err(LinalgError::InvalidData { .. })
        ));
    }

    #[test]
    fn identity_and_diagonal() {
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.diagonal().as_slice(), &[1.0, 1.0, 1.0]);
        let d = Matrix::from_diagonal(&[2.0, 5.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(1, 1)], 5.0);
    }

    #[test]
    fn indexing_and_rows_cols() {
        let m = m22();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0).as_slice(), &[1.0, 3.0]);
        assert_eq!(m.get(5, 0), None);
        assert_eq!(m.get(1, 1), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = m22();
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t[(0, 2)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22();
        let b = Matrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]).unwrap();
        let p = a.matmul(&b).unwrap();
        assert_eq!(
            p,
            Matrix::from_rows(&[&[2.0, 1.0][..], &[4.0, 3.0][..]]).unwrap()
        );
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matvec_known_product() {
        let a = m22();
        let v = Vector::from_slice(&[1.0, -1.0]);
        assert_eq!(a.matvec(&v).unwrap().as_slice(), &[-1.0, -1.0]);
        assert!(a.matvec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn gram_equals_explicit_ata() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f64 + 1.0) * (c as f64 - 1.0) + 0.5);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn submatrix_and_select_columns() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let s = m.submatrix(&[0, 2], &[1, 2]).unwrap();
        assert_eq!(
            s,
            Matrix::from_rows(&[&[1.0, 2.0][..], &[7.0, 8.0][..]]).unwrap()
        );
        let c = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(c.column(0).as_slice(), &[2.0, 5.0, 8.0]);
        assert!(m.submatrix(&[3], &[0]).is_err());
        assert!(m.submatrix(&[0], &[3]).is_err());
    }

    #[test]
    fn stacking() {
        let a = m22();
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 1.0, 2.0]);
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.column(0).as_slice(), &[1.0, 3.0, 1.0, 3.0]);
        assert!(a.hstack(&Matrix::zeros(3, 2)).is_err());
        assert!(a.vstack(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn norms_and_finite() {
        let m = Matrix::from_rows(&[&[3.0, 0.0][..], &[0.0, 4.0][..]]).unwrap();
        assert!((m.norm_frobenius() - 5.0).abs() < 1e-12);
        assert_eq!(m.norm_max(), 4.0);
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 3.0][..]]).unwrap();
        assert!(s.is_symmetric(0.0));
        assert!(!m22().is_symmetric(1e-9));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn elementwise_operators() {
        let a = m22();
        let sum = &a + &a;
        assert_eq!(sum[(1, 1)], 8.0);
        let diff = &sum - &a;
        assert_eq!(diff, a);
        let scaled = &a * 0.5;
        assert_eq!(scaled[(0, 1)], 1.0);
    }

    #[test]
    fn iter_rows_covers_all_rows() {
        let m = Matrix::from_fn(3, 2, |r, _| r as f64);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[2.0, 2.0]);
    }

    #[test]
    fn display_contains_shape() {
        assert!(m22().to_string().contains("[2x2]"));
    }
}
