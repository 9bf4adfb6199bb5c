//! Cyclic Jacobi eigensolver for real symmetric matrices.
//!
//! Supplies the sorted Laplacian eigenpairs the spectral-clustering
//! stage embeds sensors with.
//!
//! The sweep runs on flat row-major buffers. Each rotation updates
//! columns `p` and `q` of the working matrix (a strided pass), then
//! rows `p` and `q` (two contiguous rows). Eigenvectors accumulate
//! transposed, so their rotation also touches two contiguous rows; one
//! transpose after sorting restores column `j` ↔ eigenvalue `j`. Sweep
//! order, thresholds and rotation formulas are those of the
//! index-by-index reference loop in `reference.rs`, and the proptests
//! there hold every eigenpair bit-identical to it.

use crate::{LinalgError, Matrix, Result, Vector};

/// Eigendecomposition of a real symmetric matrix via the cyclic Jacobi
/// method.
///
/// Produces all eigenvalues and an orthonormal set of eigenvectors,
/// sorted by ascending eigenvalue — the order the spectral-clustering
/// stage needs (the smallest Laplacian eigenvectors span the cluster
/// indicator space, and the paper's *eigengap* rule
/// `argmax_i (log λ_{i+1} − log λ_i)` reads the sorted spectrum).
///
/// Jacobi iteration is quadratically convergent, unconditionally
/// stable, and perfectly adequate at the `n ≈ 27` sensor-count scale
/// of the auditorium.
///
/// # Example
///
/// ```
/// use thermal_linalg::{Matrix, SymmetricEigen};
///
/// # fn main() -> Result<(), thermal_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 2.0][..]])?;
/// let eig = SymmetricEigen::new(&a)?;
/// assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    /// Column `j` holds the eigenvector for `eigenvalues[j]`.
    eigenvectors: Matrix,
}

/// Hard cap on Jacobi sweeps; convergence is typically < 15 sweeps for
/// the matrices in this workspace.
const MAX_SWEEPS: usize = 100;

impl SymmetricEigen {
    /// Computes the eigendecomposition of the symmetric matrix `a`.
    ///
    /// The input is checked for symmetry up to a scaled tolerance; use
    /// [`SymmetricEigen::new_symmetrized`] to silently average away
    /// small asymmetries.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input,
    /// * [`LinalgError::Empty`] for a `0 × 0` input,
    /// * [`LinalgError::NonFinite`] for NaN/∞ entries,
    /// * [`LinalgError::InvalidData`] when the matrix is not symmetric,
    /// * [`LinalgError::NoConvergence`] if Jacobi sweeps fail to reduce
    ///   the off-diagonal norm (practically unreachable).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if a.rows() == 0 {
            return Err(LinalgError::Empty {
                op: "symmetric eigen",
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "symmetric eigen",
            });
        }
        let tol = a.norm_max().max(1.0) * 1e-10;
        if !a.is_symmetric(tol) {
            return Err(LinalgError::InvalidData {
                reason: "matrix is not symmetric",
            });
        }
        Self::decompose(a.clone())
    }

    /// Like [`SymmetricEigen::new`] but first replaces `a` by
    /// `(a + aᵀ)/2`, forgiving round-off asymmetry from upstream
    /// computations (e.g. empirically estimated covariance matrices).
    ///
    /// # Errors
    ///
    /// Same as [`SymmetricEigen::new`] except the symmetry check.
    pub fn new_symmetrized(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if a.rows() == 0 {
            return Err(LinalgError::Empty {
                op: "symmetric eigen",
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                op: "symmetric eigen",
            });
        }
        let sym = Matrix::from_fn(a.rows(), a.cols(), |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        Self::decompose(sym)
    }

    fn decompose(a: Matrix) -> Result<Self> {
        let n = a.rows();
        let frob = a.norm_frobenius().max(f64::MIN_POSITIVE);
        let target = frob * 1e-14;
        let mut m = a.into_inner();
        // Row `j` of `vt` is eigenvector column `j`.
        let mut vt = Matrix::identity(n).into_inner();

        let off_norm = |m: &[f64]| -> f64 {
            let mut s = 0.0;
            for (i, row) in m.chunks_exact(n).enumerate() {
                for x in &row[i + 1..] {
                    s += x * x;
                }
            }
            s.sqrt()
        };

        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            if off_norm(&m) <= target {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[p * n + q];
                    if apq.abs() <= target / (n as f64) {
                        continue;
                    }
                    let app = m[p * n + p];
                    let aqq = m[q * n + q];
                    // Stable rotation computation (Golub & Van Loan).
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Columns p and q of m, then rows p and q.
                    for row in m.chunks_exact_mut(n) {
                        let mkp = row[p];
                        let mkq = row[q];
                        row[p] = c * mkp - s * mkq;
                        row[q] = s * mkp + c * mkq;
                    }
                    rotate_rows(&mut m, n, p, q, c, s);
                    // Accumulate eigenvectors (columns p and q of V).
                    rotate_rows(&mut vt, n, p, q, c, s);
                }
            }
        }
        if !converged && off_norm(&m) > target {
            return Err(LinalgError::NoConvergence {
                algorithm: "jacobi eigensolver",
                iterations: MAX_SWEEPS,
            });
        }

        // Sort ascending by eigenvalue, permuting eigenvector columns.
        let diag = |i: usize| m[i * n + i];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| diag(i).total_cmp(&diag(j)));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| diag(i)).collect();
        let eigenvectors = Matrix::from_fn(n, n, |r, c| vt[order[c] * n + r]);

        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Orthonormal eigenvectors; column `j` pairs with
    /// `eigenvalues()[j]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Eigenvector for the `j`-th smallest eigenvalue.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn eigenvector(&self, j: usize) -> Vector {
        self.eigenvectors.column(j)
    }

    /// The first `k` eigenvectors as an `n × k` matrix — the spectral
    /// embedding used by spectral clustering.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] when `k` exceeds the
    /// dimension.
    pub fn embedding(&self, k: usize) -> Result<Matrix> {
        let n = self.eigenvalues.len();
        if k > n {
            return Err(LinalgError::InvalidData {
                reason: "requested more eigenvectors than the matrix dimension",
            });
        }
        let idx: Vec<usize> = (0..k).collect();
        self.eigenvectors.select_columns(&idx)
    }
}

/// Rotates rows `p < q` of the row-major `n`-wide buffer `m`:
/// `(r_p, r_q) ← (c·r_p − s·r_q, s·r_p + c·r_q)`.
fn rotate_rows(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = m.split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    for (x, y) in rp.iter_mut().zip(&mut tail[..n]) {
        let (xp, xq) = (*x, *y);
        *x = c * xp - s * xq;
        *y = s * xp + c * xq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let a = Matrix::from_diagonal(&[3.0, -1.0, 2.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues(), &[-1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] + 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_residuals_are_small() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.0][..],
            &[1.0, 3.0, 0.2, 0.7][..],
            &[0.5, 0.2, 2.0, -0.3][..],
            &[0.0, 0.7, -0.3, 1.0][..],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        for j in 0..4 {
            let v = eig.eigenvector(j);
            let av = a.matvec(&v).unwrap();
            let lv = v.scaled(eig.eigenvalues()[j]);
            assert!((&av - &lv).norm2() < 1e-10, "residual too large for j={j}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_fn(5, 5, |i, j| 1.0 / ((i + j + 1) as f64));
        let eig = SymmetricEigen::new(&a).unwrap();
        let v = eig.eigenvectors();
        let vtv = v.transpose().matmul(v).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(5), 1e-10));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[
            &[2.0, -1.0, 0.0][..],
            &[-1.0, 2.0, -1.0][..],
            &[0.0, -1.0, 2.0][..],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let trace: f64 = (0..3).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.eigenvalues().iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn laplacian_of_disconnected_graph_has_two_zero_eigenvalues() {
        // Two disconnected edges: {0,1} and {2,3}.
        let l = Matrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0][..],
            &[-1.0, 1.0, 0.0, 0.0][..],
            &[0.0, 0.0, 1.0, -1.0][..],
            &[0.0, 0.0, -1.0, 1.0][..],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&l).unwrap();
        assert!(eig.eigenvalues()[0].abs() < 1e-12);
        assert!(eig.eigenvalues()[1].abs() < 1e-12);
        assert!((eig.eigenvalues()[2] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[3] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn embedding_returns_first_k_columns() {
        let a = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        let eig = SymmetricEigen::new(&a).unwrap();
        let e = eig.embedding(2).unwrap();
        assert_eq!(e.shape(), (3, 2));
        assert!(eig.embedding(4).is_err());
    }

    #[test]
    fn symmetrized_constructor_forgives_roundoff() {
        let mut a = Matrix::from_rows(&[&[1.0, 0.5][..], &[0.5 + 1e-12, 1.0][..]]).unwrap();
        assert!(SymmetricEigen::new_symmetrized(&a).is_ok());
        a[(1, 0)] = 0.9; // grossly asymmetric: strict constructor rejects
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::InvalidData { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(0, 0)).is_err());
        let mut nan = Matrix::identity(2);
        nan[(0, 0)] = f64::NAN;
        assert!(SymmetricEigen::new(&nan).is_err());
        assert!(SymmetricEigen::new_symmetrized(&nan).is_err());
    }

    #[test]
    fn one_by_one() {
        let eig = SymmetricEigen::new(&Matrix::from_diagonal(&[5.0])).unwrap();
        assert_eq!(eig.eigenvalues(), &[5.0]);
        assert_eq!(eig.eigenvector(0).as_slice(), &[1.0]);
    }
}
