//! The reductions as they were before the [`kernels`](crate::kernels)
//! module, kept as a test-only oracle: per-entry dots through the
//! asserting `(i, j)` index, `Iterator::sum` zip-sums, the
//! row-streaming Gram and `AᵀB` products that skip exact zeros, the
//! observation-major covariance, the centred Gram over a full centred
//! copy with one chain per entry, the one-entry-at-a-time Cholesky and
//! substitutions, the index-by-index Jacobi sweep with strided
//! eigenvector columns, and the percentile that sorts a full copy.
//!
//! The production kernels must match them bit for bit: the proptests
//! below compare `to_bits` on random inputs — lengths and row counts
//! that are not multiples of four, `n = 1` and `n = 2`, signed zeros,
//! zero-variance columns, SPD matrices up to 64 × 64, symmetric
//! matrices with repeated eigenvalues, the 3,000 × 61 normal
//! equations, and samples with ties, ±∞ and subnormals.

use crate::{LinalgError, Matrix, Result, Vector};

/// Dot product accumulated left to right from `+0.0`.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `Vector::dot` and every `matvec` row: a zip-sum.
pub(crate) fn zip_sum(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `self * v`, one zip-sum per row.
pub(crate) fn matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    (0..m.rows()).map(|r| zip_sum(m.row(r), v)).collect()
}

/// `a * bᵀ`, one [`dot`] per entry.
pub(crate) fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| dot(a.row(i), b.row(j)))
}

/// `aᵀ a` as one streaming pass over the sample rows, skipping exact
/// zeros: every upper entry `(i, j)` accumulates `row[i] · row[j]` in
/// ascending row order from `+0.0`, then the lower triangle mirrors it.
pub(crate) fn gram(a: &Matrix) -> Matrix {
    let p = a.cols();
    let mut out = Matrix::zeros(p, p);
    for r in 0..a.rows() {
        let row = a.row(r);
        for i in 0..p {
            let x = row[i];
            if x == 0.0 {
                continue;
            }
            for j in i..p {
                out[(i, j)] += x * row[j];
            }
        }
    }
    for i in 0..p {
        for j in 0..i {
            out[(i, j)] = out[(j, i)];
        }
    }
    out
}

/// `aᵀ b` as one streaming pass over the sample rows, skipping exact
/// zeros of `a`: entry `(i, j)` accumulates `a[r][i] · b[r][j]` in
/// ascending row order from `+0.0`.
pub(crate) fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (p, q) = (a.cols(), b.cols());
    let mut out = Matrix::zeros(p, q);
    for r in 0..a.rows() {
        let (arow, brow) = (a.row(r), b.row(r));
        for i in 0..p {
            let x = arow[i];
            if x == 0.0 {
                continue;
            }
            for j in 0..q {
                out[(i, j)] += x * brow[j];
            }
        }
    }
    out
}

/// Column covariance, accumulated observation by observation through
/// the `(i, j)` index.
pub(crate) fn covariance_matrix(data: &Matrix) -> Result<Matrix> {
    let (n, p) = data.shape();
    if n < 2 {
        return Err(LinalgError::Empty { op: "covariance" });
    }
    let means: Vec<f64> = (0..p).map(|j| data.column(j).sum() / n as f64).collect();
    let mut cov = Matrix::zeros(p, p);
    for r in 0..n {
        let row = data.row(r);
        for i in 0..p {
            let di = row[i] - means[i];
            for j in i..p {
                cov[(i, j)] += di * (row[j] - means[j]);
            }
        }
    }
    let denom = (n - 1) as f64;
    for i in 0..p {
        for j in i..p {
            cov[(i, j)] /= denom;
            cov[(j, i)] = cov[(i, j)];
        }
    }
    Ok(cov)
}

/// `data` with each row shifted by its mean, `x − (Σ row) / cols`,
/// each `Σ` the row's `Iterator::sum`: the full centred copy
/// `stats::centred_gram` made before it centred panel by panel.
pub(crate) fn centre_rows(data: &Matrix) -> Matrix {
    let n = data.cols();
    let mut centred = data.clone();
    for r in 0..data.rows() {
        let mean = data.row(r).iter().sum::<f64>() / n as f64;
        for x in centred.row_mut(r) {
            *x -= mean;
        }
    }
    centred
}

/// The centred Gram as one [`crate::kernels::dot`] chain per upper
/// entry over the fully centred rows, mirrored below the diagonal.
pub(crate) fn centred_gram(data: &Matrix) -> Matrix {
    let z = centre_rows(data);
    let p = z.rows();
    let mut gram = Matrix::zeros(p, p);
    for i in 0..p {
        for j in i..p {
            let g = crate::kernels::dot(z.row(i), z.row(j));
            gram[(i, j)] = g;
            gram[(j, i)] = g;
        }
    }
    gram
}

/// Type-7 percentile read off a fully sorted copy.
pub(crate) fn percentile(values: &[f64], p: f64) -> Result<f64> {
    if values.is_empty() {
        return Err(LinalgError::Empty { op: "percentile" });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(LinalgError::InvalidData {
            reason: "percentile must be in [0, 100]",
        });
    }
    if values.iter().any(|v| v.is_nan()) {
        return Err(LinalgError::NonFinite { op: "percentile" });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = crate::cast::floor_to_index(rank, n - 1);
    let hi = crate::cast::ceil_to_index(rank, n - 1);
    let frac = rank - lo as f64;
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// The lower factor `L`, one entry at a time.
pub(crate) fn cholesky(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty { op: "cholesky" });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite { op: "cholesky" });
    }
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { index: j, pivot: d });
        }
        let dsqrt = d.sqrt();
        l[(j, j)] = dsqrt;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dsqrt;
        }
    }
    Ok(l)
}

/// Forward then back substitution against the factor `l`.
pub(crate) fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * y[k];
        }
        y[i] = s / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// Cyclic Jacobi through the `(i, j)` index, eigenvector columns
/// rotated in place; returns the sorted eigenvalues and eigenvectors.
pub(crate) fn jacobi(mut m: Matrix) -> Result<(Vec<f64>, Matrix)> {
    let n = m.rows();
    let mut v = Matrix::identity(n);
    let off_norm = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        s.sqrt()
    };
    let frob = m.norm_frobenius().max(f64::MIN_POSITIVE);
    let target = frob * 1e-14;
    let mut converged = false;
    for _sweep in 0..100 {
        if off_norm(&m) <= target {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= target / (n as f64) {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    if !converged && off_norm(&m) > target {
        return Err(LinalgError::NoConvergence {
            algorithm: "jacobi eigensolver",
            iterations: 100,
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].total_cmp(&m[(j, j)]));
    let eigenvalues = order.iter().map(|&i| m[(i, i)]).collect();
    Ok((eigenvalues, Matrix::from_fn(n, n, |r, c| v[(r, order[c])])))
}

/// Bit patterns of `values`.
pub(crate) fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A random `rows × cols` matrix from `seed`: mostly uniform entries in
/// `[-5, 5)`, with some exact and signed zeros.
pub(crate) fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..10) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-5.0..5.0),
    })
}

/// A random SPD matrix `MᵀM + I/4` of order `n`.
pub(crate) fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut g = random_matrix(n + 3, n, seed).gram();
    for i in 0..n {
        g[(i, i)] += 0.25;
    }
    g
}

/// `Q diag(λ) Qᵀ` for a random orthogonal `Q`, where `λ` repeats each of
/// `distinct` values.
pub(crate) fn repeated_spectrum(n: usize, distinct: usize, seed: u64) -> Matrix {
    let q = crate::QrDecomposition::new(&random_matrix(n, n, seed))
        .map(|qr| qr.q())
        .unwrap_or_else(|_| Matrix::identity(n));
    let lambda: Vec<f64> = (0..n).map(|i| (i % distinct.max(1)) as f64 - 1.5).collect();
    let ql = Matrix::from_fn(n, n, |i, j| q[(i, j)] * lambda[j]);
    ql.matmul_transpose_b(&q)
        .unwrap_or_else(|_| Matrix::zeros(n, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stats, CholeskyDecomposition, LeaveOneOut, SymmetricEigen};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `matvec`, `matvec_into`, `matmul_transpose_b` (at any thread
        /// count) and `Vector::dot` equal their per-entry references.
        #[test]
        fn products_match_reference(
            rows in 0usize..11,
            cols in 0usize..11,
            other in 1usize..10,
            threads in 1usize..4,
            seed in any::<u64>(),
        ) {
            let a = random_matrix(rows, cols, seed);
            let b = random_matrix(other, cols, seed ^ 1);
            let v = random_matrix(1, cols, seed ^ 2).into_inner();
            let want = matvec(&a, &v);
            prop_assert_eq!(bits(a.matvec(&Vector::from_slice(&v)).unwrap().as_slice()), bits(&want));
            let mut out = vec![7.0; 3];
            a.matvec_into(&v, &mut out).unwrap();
            prop_assert_eq!(bits(&out), bits(&want));
            let got = a.matmul_transpose_b_with_threads(&b, threads).unwrap();
            prop_assert_eq!(bits(got.as_slice()), bits(matmul_transpose_b(&a, &b).as_slice()));
            let w = random_matrix(1, cols, seed ^ 3).into_inner();
            let d = Vector::from_slice(&v).dot(&Vector::from_slice(&w)).unwrap();
            prop_assert_eq!(d.to_bits(), zip_sum(&v, &w).to_bits());
        }

        /// `gram` and `transpose_matmul` equal the row-streaming
        /// products at any worker count: exact and signed zeros, one
        /// row or one column, widths that are not multiples of four,
        /// and row counts on both sides of a panel boundary.
        #[test]
        fn normal_equations_match_reference(
            tall in 1usize..400,
            short in any::<bool>(),
            cols in 1usize..14,
            other in 1usize..7,
            threads in 1usize..4,
            sparse in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let rows = if short { 1 + tall % 5 } else { tall };
            let mut a = random_matrix(rows, cols, seed);
            let b = random_matrix(rows, other, seed ^ 1);
            if sparse {
                // Whole zero columns and rows, of both signs.
                for r in 0..rows {
                    a[(r, cols / 2)] = if r % 2 == 0 { 0.0 } else { -0.0 };
                }
                for c in 0..cols {
                    a[(rows / 2, c)] = -0.0;
                }
            }
            let want = gram(&a);
            prop_assert_eq!(bits(a.gram().as_slice()), bits(want.as_slice()));
            prop_assert_eq!(bits(a.gram_with_threads(threads).as_slice()), bits(want.as_slice()));
            let got = a.transpose_matmul(&b).unwrap();
            prop_assert_eq!(bits(got.as_slice()), bits(transpose_matmul(&a, &b).as_slice()));
            let t = a.transpose();
            prop_assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(t[(c, r)].to_bits(), a[(r, c)].to_bits());
                }
            }
        }

        /// Both covariance paths equal the observation-major reference,
        /// including a zero-variance variable and two observations.
        #[test]
        fn covariance_matches_reference(
            n in 2usize..40,
            p in 1usize..11,
            dead in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut data = random_matrix(n, p, seed);
            if dead {
                for r in 0..n {
                    data[(r, p / 2)] = 21.5;
                }
            }
            let want = covariance_matrix(&data).unwrap();
            prop_assert_eq!(bits(stats::covariance_matrix(&data).unwrap().as_slice()), bits(want.as_slice()));
            let rows = stats::row_covariance_matrix(&data.transpose()).unwrap();
            prop_assert_eq!(bits(rows.as_slice()), bits(want.as_slice()));
        }

        /// The panel-centred Gram at 1–4 workers equals one chain per
        /// entry over fully centred rows: 1, 127, 128, 129 and about
        /// 300 observations (inside, at and across a panel boundary),
        /// zero-variance and signed-zero rows, one variable to eleven.
        #[test]
        fn centred_gram_matches_reference(
            p in 1usize..12,
            width in 0usize..9,
            threads in 1usize..5,
            dead in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let cols = [1, 127, 128, 129, 255, 256, 257, 300, 301][width];
            let mut data = random_matrix(p, cols, seed);
            if dead {
                for c in 0..cols {
                    data[(p / 2, c)] = if c % 2 == 0 { 21.5 } else { -0.0 };
                }
            }
            let want = centred_gram(&data);
            let got = stats::centred_gram_with_threads(&data, threads);
            prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
            prop_assert_eq!(bits(stats::centred_gram(&data).as_slice()), bits(want.as_slice()));
        }

        /// `new`, `refactor_principal`, `solve` and `solve_into` equal
        /// the one-entry reference on SPD matrices up to 64 × 64.
        #[test]
        fn cholesky_matches_reference(n in 1usize..65, seed in any::<u64>()) {
            let a = random_spd(n, seed);
            let want = cholesky(&a).unwrap();
            let chol = CholeskyDecomposition::new(&a).unwrap();
            prop_assert_eq!(bits(chol.l().as_slice()), bits(want.as_slice()));
            let b = random_matrix(1, n, seed ^ 5).into_inner();
            let x = cholesky_solve(&want, &b);
            prop_assert_eq!(bits(chol.solve(&Vector::from_slice(&b)).unwrap().as_slice()), bits(&x));
            let mut into = Vec::new();
            chol.solve_into(&b, &mut into).unwrap();
            prop_assert_eq!(bits(&into), bits(&x));
            // Several right-hand sides, each column one solve.
            let rhs = random_matrix(n, 1 + (seed % 10) as usize, seed ^ 7);
            let solved = chol.solve_matrix(&rhs).unwrap();
            for c in 0..rhs.cols() {
                let col = cholesky_solve(&want, rhs.column(c).as_slice());
                prop_assert_eq!(bits(solved.column(c).as_slice()), bits(&col), "column {}", c);
            }

            // A principal submatrix in scrambled order, refactored into
            // storage that held a larger factor.
            let idx: Vec<usize> = (0..n).rev().step_by(2).chain((0..n).skip(1).step_by(3)).collect();
            let sub = a.submatrix(&idx, &idx).unwrap();
            match (chol.clone().refactor_principal(&a, &idx), cholesky(&sub)) {
                (Ok(got), Ok(l)) => prop_assert_eq!(bits(got.l().as_slice()), bits(l.as_slice())),
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }

        /// Indefinite and non-finite inputs fail with the reference's
        /// error, through `new` and `refactor_principal` alike.
        #[test]
        fn cholesky_errors_match_reference(n in 1usize..12, shift in -40.0_f64..0.0, seed in any::<u64>()) {
            let mut a = random_spd(n, seed);
            a[(n - 1, n - 1)] += shift;
            let idx: Vec<usize> = (0..n).collect();
            let storage = || CholeskyDecomposition::new(&Matrix::identity(3)).unwrap();
            match (CholeskyDecomposition::new(&a), cholesky(&a)) {
                (Ok(c), Ok(l)) => {
                    prop_assert_eq!(bits(c.l().as_slice()), bits(l.as_slice()));
                    let got = storage().refactor_principal(&a, &idx).unwrap();
                    prop_assert_eq!(bits(got.l().as_slice()), bits(l.as_slice()));
                }
                (got, want) => {
                    let want = want.err();
                    prop_assert_eq!(got.err(), want.clone());
                    prop_assert_eq!(storage().refactor_principal(&a, &idx).err(), want);
                }
            }
            a[(0, n - 1)] = f64::NAN;
            prop_assert_eq!(storage().refactor_principal(&a, &idx).err(), cholesky(&a).err());
            prop_assert!(storage().refactor_principal(&a, &[n]).is_err());
            prop_assert_eq!(storage().refactor_principal(&a, &[]).err(), cholesky(&Matrix::zeros(0, 0)).err());
        }

        /// Every leave-one-out block, factored from its start column
        /// off the right-looking full factor, equals a fresh factor of
        /// the submatrix bit for bit, and its solve the fresh solve
        /// against the left-out column. Errors match too: a diagonal
        /// entry pulled down fails the full factor part-way, and a
        /// mirrored NaN pair spoils every block holding it.
        #[test]
        fn leave_one_out_matches_fresh_factor(
            n in 1usize..24,
            f in 0usize..24,
            drop in 0.0_f64..1.3,
            nan in prop::option::weighted(0.3, (0usize..24, 0usize..24)),
            skip in 0usize..5,
            seed in any::<u64>(),
        ) {
            let mut a = random_spd(n, seed);
            let f = f % n;
            a[(f, f)] -= drop * a[(f, f)];
            if let Some((r, c)) = nan {
                a[(r % n, c % n)] = f64::NAN;
                a[(c % n, r % n)] = f64::NAN;
            }
            // A scrambled subset, like the remaining set of a greedy step.
            let idx: Vec<usize> = (0..n).rev().filter(|&i| i % 5 != skip || n < 3).collect();
            let mut loo = LeaveOneOut::new();
            loo.reset(&a, &idx).unwrap();
            for p in 0..idx.len() {
                let rest: Vec<usize> = idx.iter().enumerate().filter(|&(q, _)| q != p).map(|(_, &i)| i).collect();
                let fresh = CholeskyDecomposition::new(&a.submatrix(&rest, &rest).unwrap());
                match (loo.factor_next(), fresh) {
                    (Ok(got), Ok(chol)) => {
                        prop_assert_eq!(got, p);
                        prop_assert_eq!(bits(loo.l().as_slice()), bits(chol.l().as_slice()), "position {}", p);
                        let column: Vec<f64> = rest.iter().map(|&i| a[(i, idx[p])]).collect();
                        let (mut want, mut x) = (Vec::new(), Vec::new());
                        chol.solve_into(&column, &mut want).unwrap();
                        loo.solve_into(&mut x).unwrap();
                        prop_assert_eq!(bits(&x), bits(&want), "position {}", p);
                    }
                    (got, want) => {
                        prop_assert_eq!(got.err(), want.err(), "position {}", p);
                        prop_assert!(loo.solve_into(&mut Vec::new()).is_err());
                    }
                }
            }
            prop_assert!(loo.factor_next().is_err());
        }

        /// The selection percentile equals the sorted one, errors
        /// included: ties, ±0.0, ±∞, subnormals and the odd NaN, at
        /// n = 1, 2 and up to 10,000, at the paper's percentiles and
        /// random ones (some outside `[0, 100]`).
        #[test]
        fn percentile_matches_reference(
            size in 0usize..4,
            random_n in 0usize..10_001,
            pick in 0usize..7,
            random_p in -5.0_f64..105.0,
            nan in 0usize..40,
            seed in any::<u64>(),
        ) {
            let n = [1, 2, random_n, random_n % 100].get(size).copied().unwrap_or(1);
            let p = [0.0, 50.0, 90.0, 99.0, 100.0, random_p.clamp(0.0, 100.0), random_p]
                .get(pick)
                .copied()
                .unwrap_or(50.0);
            let values = percentile_sample(n, nan, seed);
            let median = stats::median(&values);
            match (stats::percentile(&values, p), percentile(&values, p)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got.to_bits(), want.to_bits(), "p {}", p),
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
            match (median, percentile(&values, 50.0)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got.to_bits(), want.to_bits()),
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }

        /// Eigenpairs equal the index-by-index sweep on random symmetric
        /// matrices and on spectra with repeated eigenvalues.
        #[test]
        fn eigen_matches_reference(
            n in 1usize..31,
            distinct in 1usize..4,
            repeated in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let a = if repeated {
                repeated_spectrum(n, distinct, seed)
            } else {
                random_matrix(n, n, seed)
            };
            let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
            let (values, vectors) = jacobi(sym).unwrap();
            let eig = SymmetricEigen::new_symmetrized(&a).unwrap();
            prop_assert_eq!(bits(eig.eigenvalues()), bits(&values));
            prop_assert_eq!(bits(eig.eigenvectors().as_slice()), bits(vectors.as_slice()));
        }
    }

    /// `n` values from `seed`: ties from a small pool, ±0.0, ±∞,
    /// subnormals and ordinary magnitudes; one NaN when `nan == 0`.
    fn percentile_sample(n: usize, nan: usize, seed: u64) -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<f64> = (0..4).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let mut values: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..12) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => rng.gen_range(-1e-310..1e-310),
                5 | 6 => pool[rng.gen_range(0..pool.len())],
                _ => rng.gen_range(-1e3..1e3),
            })
            .collect();
        if nan == 0 && n > 0 {
            let at = rng.gen_range(0..n);
            values[at] = f64::NAN;
        }
        values
    }

    #[test]
    fn percentile_matches_reference_on_edge_samples() {
        let cases: [&[f64]; 8] = [
            &[],
            &[f64::INFINITY],
            &[-0.0],
            &[0.0, -0.0],
            &[f64::INFINITY, f64::INFINITY],
            &[f64::NEG_INFINITY, 1.0, f64::INFINITY],
            &[5e-324, -5e-324, 0.0, -0.0],
            &[2.0, 1.0, 2.0, 1.0, 2.0],
        ];
        for values in cases {
            for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0, -0.0, 100.5, f64::NAN] {
                match (stats::percentile(values, p), percentile(values, p)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.to_bits(), want.to_bits(), "{values:?} at {p}");
                    }
                    (got, want) => assert_eq!(got.err(), want.err(), "{values:?} at {p}"),
                }
            }
        }
    }

    #[test]
    fn normal_equations_match_reference_at_paper_shape() {
        // The dense second-order problem: 3,000 samples of 61
        // regressors and 27 outputs, over 23 panels at 1 to 4 workers.
        let a = random_matrix(3_000, 61, 17);
        let b = random_matrix(3_000, 27, 18);
        let want = gram(&a);
        for threads in 1..=4 {
            assert_eq!(
                bits(a.gram_with_threads(threads).as_slice()),
                bits(want.as_slice())
            );
        }
        let got = a.transpose_matmul(&b).unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(transpose_matmul(&a, &b).as_slice())
        );
    }

    #[test]
    fn normal_equations_of_tiny_and_empty_shapes_match_reference() {
        for (rows, cols) in [(1, 1), (1, 5), (9, 1), (0, 3), (3, 0)] {
            let a = random_matrix(rows, cols, 5);
            let b = random_matrix(rows, 2, 6);
            assert_eq!(bits(a.gram().as_slice()), bits(gram(&a).as_slice()));
            let got = a.transpose_matmul(&b).unwrap();
            assert_eq!(
                bits(got.as_slice()),
                bits(transpose_matmul(&a, &b).as_slice())
            );
            assert_eq!(a.transpose().shape(), (cols, rows));
        }
        // Every product −0.0: the chain's `+0.0` start wins, as in the
        // zero-skipping reference.
        let a = Matrix::from_rows(&[&[-0.0, 1.0][..], &[1.0, -0.0][..]]).unwrap();
        assert_eq!(bits(a.gram().as_slice()), bits(gram(&a).as_slice()));
        let b = Matrix::from_rows(&[&[-0.0][..], &[-0.0][..]]).unwrap();
        let got = a.transpose_matmul(&b).unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(transpose_matmul(&a, &b).as_slice())
        );
        assert_eq!(got[(0, 0)].to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn small_and_degenerate_shapes_match_reference() {
        // n = 1 and n = 2 factors and solves.
        for n in [1, 2] {
            let a = random_spd(n, 11);
            let chol = CholeskyDecomposition::new(&a).unwrap();
            let l = cholesky(&a).unwrap();
            assert_eq!(bits(chol.l().as_slice()), bits(l.as_slice()));
            let b = [0.5, -2.0][..n].to_vec();
            let x = chol.solve(&Vector::from_slice(&b)).unwrap();
            assert_eq!(bits(x.as_slice()), bits(&cholesky_solve(&l, &b)));
        }
        // No variables: both covariances are 0 × 0.
        let none = stats::row_covariance_matrix(&Matrix::zeros(0, 5)).unwrap();
        assert_eq!(none, covariance_matrix(&Matrix::zeros(5, 0)).unwrap());
        // A matrix without columns: every matvec row is an empty sum.
        let empty = Matrix::zeros(3, 0);
        let got = empty.matvec(&Vector::zeros(0)).unwrap();
        assert_eq!(bits(got.as_slice()), bits(&matvec(&empty, &[])));
        // All products −0.0: the start value decides the sign.
        let m = Matrix::from_rows(&[&[-0.0, 1.0][..]]).unwrap();
        let got = m.matvec(&Vector::from_slice(&[1.0, -0.0])).unwrap();
        assert_eq!(bits(got.as_slice()), bits(&matvec(&m, &[1.0, -0.0])));
        let t = m.matmul_transpose_b(&Matrix::from_rows(&[&[1.0, -0.0][..]]).unwrap());
        assert_eq!(
            t.unwrap()[(0, 0)].to_bits(),
            dot(&[-0.0, 1.0], &[1.0, -0.0]).to_bits()
        );
        // A Laplacian of two components: a repeated zero eigenvalue.
        let lap = Matrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0, 0.0][..],
            &[-1.0, 2.0, -1.0, 0.0, 0.0][..],
            &[0.0, -1.0, 1.0, 0.0, 0.0][..],
            &[0.0, 0.0, 0.0, 1.0, -1.0][..],
            &[0.0, 0.0, 0.0, -1.0, 1.0][..],
        ])
        .unwrap();
        let (values, vectors) = jacobi(lap.clone()).unwrap();
        let eig = SymmetricEigen::new(&lap).unwrap();
        assert_eq!(bits(eig.eigenvalues()), bits(&values));
        assert_eq!(
            bits(eig.eigenvectors().as_slice()),
            bits(vectors.as_slice())
        );
    }
}
