//! Dense linear algebra and statistics kernels for the
//! `auditorium-thermal` workspace.
//!
//! The crate implements, from scratch, exactly the numerical tools the
//! ICDCS'14 auditorium-modeling pipeline needs:
//!
//! * [`Matrix`] / [`Vector`] — small dense row-major containers,
//! * [`QrDecomposition`] — Householder QR, the least-squares work-horse
//!   behind the paper's model-identification step (Eq. 3–4),
//! * [`CholeskyDecomposition`] — SPD factorisation used by the
//!   ridge-regularised normal equations and the Gaussian-process
//!   mutual-information sensor selector,
//! * [`SymmetricEigen`] — a cyclic Jacobi eigensolver for the graph
//!   Laplacians of the spectral-clustering stage,
//! * [`lstsq`] — least-squares solvers (plain and ridge),
//! * [`stats`] — means, covariance and correlation matrices,
//!   percentiles and empirical CDFs used throughout the evaluation,
//! * [`kernels`] — the dot-product chains (one- and four-lane) whose
//!   fixed accumulation order every reduction above is built on.
//!
//! Everything is `f64`. The dense kernels on the identification hot
//! path (`matmul`, `gram`, the Householder sweep) are cache-blocked
//! and row-streamed, and the large products fan out over row panels
//! via the deterministic `thermal-par` executor: outputs are bitwise
//! identical for any thread count (see `DESIGN.md` § performance), and
//! `THERMAL_THREADS=1` forces the sequential path.
//!
//! # Example
//!
//! ```
//! use thermal_linalg::{Matrix, Vector, lstsq};
//!
//! # fn main() -> Result<(), thermal_linalg::LinalgError> {
//! // Fit y = 2 x0 - x1 by least squares.
//! let x = Matrix::from_rows(&[
//!     &[1.0, 0.0][..],
//!     &[0.0, 1.0][..],
//!     &[1.0, 1.0][..],
//!     &[2.0, 1.0][..],
//! ])?;
//! let y = Vector::from_slice(&[2.0, -1.0, 1.0, 3.0]);
//! let beta = lstsq::solve(&x, &y)?;
//! assert!((beta[0] - 2.0).abs() < 1e-10);
//! assert!((beta[1] + 1.0).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
mod cholesky;
mod error;
pub mod kernels;
mod matrix;
mod qr;
mod symmetric_eigen;
mod vector;

pub mod lstsq;
pub mod stats;

#[cfg(test)]
mod reference;

pub use cholesky::{CholeskyDecomposition, LeaveOneOut};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use qr::QrDecomposition;
pub use symmetric_eigen::SymmetricEigen;
pub use vector::Vector;

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Flop count below which a kernel stays on the calling thread, per
/// extra worker: scoped-thread spawn costs tens of microseconds, so a
/// worker must amortise ~2ⁱ⁷ multiply-adds to pay for itself.
const PAR_MIN_WORK_PER_THREAD: usize = 1 << 17;

/// Worker count for a kernel performing `work` multiply-adds: the
/// configured [`thermal_par::thread_count`], capped so every worker
/// has at least [`PAR_MIN_WORK_PER_THREAD`] to do. Returns 1 (the
/// inline sequential path) for small problems.
pub(crate) fn kernel_threads(work: usize) -> usize {
    thermal_par::thread_count().min((work / PAR_MIN_WORK_PER_THREAD).max(1))
}
