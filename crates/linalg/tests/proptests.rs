//! Property-based tests for the linear-algebra kernels.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use thermal_linalg::lstsq::RidgeNormalEquations;
use thermal_linalg::{
    lstsq, stats, CholeskyDecomposition, LinalgError, Matrix, QrDecomposition, SymmetricEigen,
    Vector,
};

/// Strategy: a finite `rows × cols` matrix with entries in [-10, 10].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0_f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized buffer"))
}

/// Strategy: a random SPD matrix built as `MᵀM + εI`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n + 2, n).prop_map(move |m| {
        let mut g = m.gram();
        for i in 0..n {
            g[(i, i)] += 0.5;
        }
        g
    })
}

/// Strategy: a random symmetric matrix `(M + Mᵀ)/2`.
fn symmetric_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n)
        .prop_map(move |m| Matrix::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)])))
}

proptest! {
    #[test]
    fn least_squares_residual_orthogonal_to_column_space(
        a in matrix_strategy(8, 3),
        b in prop::collection::vec(-10.0_f64..10.0, 8),
    ) {
        let b = Vector::from_slice(&b);
        // Skip (rare) rank-deficient draws.
        let Ok(x) = lstsq::solve(&a, &b) else { return Ok(()); };
        let r = &b - &a.matvec(&x).unwrap();
        for c in 0..a.cols() {
            prop_assert!(a.column(c).dot(&r).unwrap().abs() < 1e-7);
        }
    }

    #[test]
    fn cholesky_roundtrip(a in spd_strategy(4)) {
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let recon = chol.l().matmul(&chol.l().transpose()).unwrap();
        prop_assert!(recon.approx_eq(&a, 1e-8 * a.norm_max().max(1.0)));
    }

    #[test]
    fn cholesky_solve_satisfies_system(
        a in spd_strategy(3),
        b in prop::collection::vec(-5.0_f64..5.0, 3),
    ) {
        let b = Vector::from_slice(&b);
        let x = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        prop_assert!((&back - &b).norm2() < 1e-7 * b.norm2().max(1.0));
    }

    #[test]
    fn eigen_residuals_small(a in symmetric_strategy(5)) {
        let eig = SymmetricEigen::new_symmetrized(&a).unwrap();
        for j in 0..5 {
            let v = eig.eigenvector(j);
            let av = a.matvec(&v).unwrap();
            let lv = v.scaled(eig.eigenvalues()[j]);
            prop_assert!((&av - &lv).norm2() < 1e-8 * a.norm_max().max(1.0));
        }
    }

    #[test]
    fn eigenvalues_sorted_and_trace_preserved(a in symmetric_strategy(4)) {
        let eig = SymmetricEigen::new_symmetrized(&a).unwrap();
        let vals = eig.eigenvalues();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        let trace: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let sum: f64 = vals.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn pearson_in_unit_interval(
        a in prop::collection::vec(-100.0_f64..100.0, 2..40),
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.7 + 1.0).collect();
        let r = stats::pearson(&a, &b).unwrap();
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn correlation_matrix_entries_bounded(m in matrix_strategy(10, 4)) {
        let corr = stats::correlation_matrix(&m).unwrap();
        for i in 0..4 {
            prop_assert!((corr[(i, i)] - 1.0).abs() < 1e-12 || corr[(i, i)] == 1.0);
            for j in 0..4 {
                prop_assert!((-1.0..=1.0).contains(&corr[(i, j)]));
                prop_assert!((corr[(i, j)] - corr[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn percentile_monotone_in_p(
        v in prop::collection::vec(-50.0_f64..50.0, 1..30),
        p1 in 0.0_f64..100.0,
        p2 in 0.0_f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&v, lo).unwrap();
        let b = stats::percentile(&v, hi).unwrap();
        prop_assert!(a <= b + 1e-12);
    }

    #[test]
    fn percentile_within_range(
        v in prop::collection::vec(-50.0_f64..50.0, 1..30),
        p in 0.0_f64..100.0,
    ) {
        let q = stats::percentile(&v, p).unwrap();
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q >= min - 1e-12 && q <= max + 1e-12);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(
        v in prop::collection::vec(-50.0_f64..50.0, 1..30),
        x1 in -60.0_f64..60.0,
        x2 in -60.0_f64..60.0,
    ) {
        let cdf = stats::EmpiricalCdf::new(&v).unwrap();
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let a = cdf.eval(lo);
        let b = cdf.eval(hi);
        prop_assert!(a <= b);
        prop_assert!((0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b));
    }

    #[test]
    fn matmul_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(2, 3),
    ) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn transpose_involution(a in matrix_strategy(5, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_matches_explicit(a in matrix_strategy(6, 3)) {
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        prop_assert!(g.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn matmul_bitwise_identical_across_thread_counts(
        a in matrix_strategy(9, 7),
        b in matrix_strategy(7, 5),
        threads in 2_usize..8,
    ) {
        let seq = a.matmul_with_threads(&b, 1).unwrap();
        let par = a.matmul_with_threads(&b, threads).unwrap();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn gram_bitwise_identical_across_thread_counts(
        a in matrix_strategy(12, 6),
        threads in 2_usize..8,
    ) {
        let seq = a.gram_with_threads(1);
        let par = a.gram_with_threads(threads);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn matmul_transpose_b_bitwise_identical_across_thread_counts(
        a in matrix_strategy(8, 6),
        b in matrix_strategy(5, 6),
        threads in 2_usize..8,
    ) {
        let seq = a.matmul_transpose_b_with_threads(&b, 1).unwrap();
        let par = a.matmul_transpose_b_with_threads(&b, threads).unwrap();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn solve_matrix_bitwise_identical_across_thread_counts(
        a in matrix_strategy(9, 4),
        b in matrix_strategy(9, 3),
        threads in 2_usize..8,
    ) {
        let Ok(qr) = QrDecomposition::new(&a) else { return Ok(()); };
        let Ok(seq) = qr.solve_matrix_with_threads(&b, 1) else { return Ok(()); };
        let par = qr.solve_matrix_with_threads(&b, threads).unwrap();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose(
        a in matrix_strategy(6, 4),
        b in matrix_strategy(5, 4),
    ) {
        let fused = a.matmul_transpose_b(&b).unwrap();
        let explicit = a.matmul(&b.transpose()).unwrap();
        prop_assert!(fused.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose(
        a in matrix_strategy(7, 4),
        b in matrix_strategy(7, 3),
    ) {
        let fused = a.transpose_matmul(&b).unwrap();
        let explicit = a.transpose().matmul(&b).unwrap();
        prop_assert!(fused.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn transpose_matvec_matches_explicit_transpose(
        a in matrix_strategy(8, 5),
        v in prop::collection::vec(-10.0_f64..10.0, 8),
    ) {
        let v = Vector::from_slice(&v);
        let fused = a.transpose_matvec(&v).unwrap();
        let explicit = a.transpose().matvec(&v).unwrap();
        prop_assert!((&fused - &explicit).norm2() < 1e-9);
    }

    #[test]
    fn ridge_solution_norm_decreases_with_lambda(
        a in matrix_strategy(8, 3),
        b in prop::collection::vec(-5.0_f64..5.0, 8),
    ) {
        let b = Vector::from_slice(&b);
        let Ok(x_small) = lstsq::solve_ridge(&a, &b, 1e-3) else { return Ok(()); };
        let Ok(x_large) = lstsq::solve_ridge(&a, &b, 1e3) else { return Ok(()); };
        prop_assert!(x_large.norm2() <= x_small.norm2() + 1e-9);
    }
}

// Rank-1 maintenance of the Cholesky factor: the O(n²) update path
// must agree with an O(n³) refactorisation of the explicitly-modified
// matrix, over random well-conditioned SPD draws.
proptest! {
    #[test]
    fn rank_one_update_matches_refactorization(
        a in spd_strategy(4),
        x in prop::collection::vec(-5.0_f64..5.0, 4),
    ) {
        let x = Vector::from_slice(&x);
        let mut chol = CholeskyDecomposition::new(&a).unwrap();
        chol.rank_one_update(&x).unwrap();
        // A + xxᵀ, refactorised from scratch.
        let bumped = Matrix::from_fn(4, 4, |i, j| a[(i, j)] + x[i] * x[j]);
        let recon = chol.l().matmul(&chol.l().transpose()).unwrap();
        prop_assert!(
            recon.approx_eq(&bumped, 1e-8 * bumped.norm_max().max(1.0)),
            "update drifted from refactorisation"
        );
    }

    #[test]
    fn rank_one_downdate_inverts_update(
        a in spd_strategy(4),
        x in prop::collection::vec(-5.0_f64..5.0, 4),
    ) {
        let x = Vector::from_slice(&x);
        let mut chol = CholeskyDecomposition::new(&a).unwrap();
        chol.rank_one_update(&x).unwrap();
        chol.rank_one_downdate(&x).unwrap();
        let recon = chol.l().matmul(&chol.l().transpose()).unwrap();
        prop_assert!(
            recon.approx_eq(&a, 1e-7 * a.norm_max().max(1.0)),
            "downdate did not invert the update"
        );
    }

    #[test]
    fn scale_matches_scaled_refactorization(
        a in spd_strategy(4),
        lambda in 0.5_f64..1.0,
    ) {
        let mut chol = CholeskyDecomposition::new(&a).unwrap();
        chol.scale(lambda).unwrap();
        let scaled = Matrix::from_fn(4, 4, |i, j| lambda * a[(i, j)]);
        let recon = chol.l().matmul(&chol.l().transpose()).unwrap();
        prop_assert!(
            recon.approx_eq(&scaled, 1e-9 * scaled.norm_max().max(1.0)),
            "scale drifted from refactorisation"
        );
    }
}

/// Unit roundoff of `f64`.
const EPS: f64 = f64::EPSILON;

/// A random `rows × cols` matrix from `seed`, entries uniform in `[-1, 1)`.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// A random `rows × cols` matrix for the QR oracle: entries uniform in
/// `[-1, 1)` times `scale`, where the first `collinear` columns after
/// column 0 repeat it up to a relative perturbation of `1e-9`.
fn qr_case(rows: usize, cols: usize, collinear: usize, scale: f64, seed: u64) -> Matrix {
    let base = random_matrix(rows, cols, seed);
    let noise = random_matrix(rows, cols, seed ^ 0x5eed);
    Matrix::from_fn(rows, cols, |r, c| {
        let v = if c >= 1 && c <= collinear {
            base[(r, 0)] + 1e-9 * noise[(r, c)]
        } else {
            base[(r, c)]
        };
        scale * v
    })
}

/// A random SPD matrix `MᵀM/(n + 4) + δI` of order `n`; a small `δ`
/// makes it ill-conditioned.
fn random_spd(n: usize, delta: f64, seed: u64) -> Matrix {
    let mut a = random_matrix(n + 4, n, seed)
        .gram()
        .scaled(1.0 / (n + 4) as f64);
    for i in 0..n {
        a[(i, i)] += delta;
    }
    a
}

/// `Q diag(λ) Qᵀ` for a random orthogonal `Q`, where `λ` cycles through
/// `distinct` values (so each repeats when `distinct < n`), symmetrised.
fn repeated_spectrum(n: usize, distinct: usize, seed: u64) -> Matrix {
    let q = QrDecomposition::new(&random_matrix(n, n, seed))
        .unwrap()
        .q();
    let qd = Matrix::from_fn(n, n, |i, j| q[(i, j)] * ((j % distinct) as f64 - 1.0));
    let a = qd.matmul_transpose_b(&q).unwrap();
    Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cholesky is backward stable: ‖LLᵀ − A‖ ≤ c·n·ε·‖A‖, and its
    /// solve leaves a residual ‖Ax − b‖ ≤ c·n·ε·‖A‖·‖x‖, on SPD
    /// matrices up to 64 × 64, well or ill conditioned (Frobenius
    /// norms). Over 600 draws the ratios peaked at c = 0.73 and 1.3;
    /// the gates are c = 2 and 4.
    #[test]
    fn cholesky_backward_error_is_order_n_eps(
        n in 1usize..65,
        ill in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, if ill { 1e-8 } else { 0.1 }, seed);
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let l = chol.l();
        let llt = l.matmul_transpose_b(l).unwrap();
        let bound = n as f64 * EPS * a.norm_frobenius();
        let err = (&llt - &a).norm_frobenius();
        prop_assert!(err <= 2.0 * bound, "‖LLᵀ − A‖ = {err:e} vs n·ε·‖A‖ = {bound:e}");
        let b = Vector::from_slice(random_matrix(1, n, seed ^ 1).as_slice());
        let x = chol.solve(&b).unwrap();
        let r = (&a.matvec(&x).unwrap() - &b).norm2();
        let rb = n as f64 * EPS * a.norm_frobenius() * x.norm2();
        prop_assert!(r <= 4.0 * rb, "‖Ax − b‖ = {r:e} vs n·ε·‖A‖·‖x‖ = {rb:e}");
    }

    /// Householder QR is backward stable: ‖A − QR‖ ≤ c·m·ε·‖A‖
    /// (Frobenius norms) on `m × n` matrices up to 400 × 61, with up to
    /// three columns nearly collinear with the first and entries scaled
    /// from 1e-3 to 1e3. Over 600 draws the ratio peaked at c = 0.14;
    /// the gate is c = 0.5.
    #[test]
    fn qr_reconstructs_input(
        cols in 1usize..62,
        extra in 0usize..340,
        collinear in 0usize..4,
        scale_exp in -3i32..4,
        seed in any::<u64>(),
    ) {
        let rows = (cols + extra).min(400);
        let a = qr_case(rows, cols, collinear, 10f64.powi(scale_exp), seed);
        let qr = QrDecomposition::new(&a).unwrap();
        let err = (&qr.q().matmul(&qr.r()).unwrap() - &a).norm_frobenius();
        let bound = rows as f64 * EPS * a.norm_frobenius();
        prop_assert!(err <= 0.5 * bound, "{rows}×{cols}: ‖A − QR‖ = {err:e} vs m·ε·‖A‖ = {bound:e}");
    }

    /// The thin `Q` of Householder QR is orthonormal: ‖QᵀQ − I‖ ≤ c·m·ε
    /// on the shapes of `qr_reconstructs_input`. Over 600 draws the
    /// ratio peaked at c = 0.57; the gate is c = 2.
    #[test]
    fn qr_q_is_orthonormal(
        cols in 1usize..62,
        extra in 0usize..340,
        collinear in 0usize..4,
        seed in any::<u64>(),
    ) {
        let rows = (cols + extra).min(400);
        let q = QrDecomposition::new(&qr_case(rows, cols, collinear, 1.0, seed)).unwrap().q();
        prop_assert_eq!(q.shape(), (rows, cols));
        let orth = (&q.transpose().matmul(&q).unwrap() - &Matrix::identity(cols)).norm_frobenius();
        prop_assert!(orth <= 2.0 * rows as f64 * EPS, "{rows}×{cols}: ‖QᵀQ − I‖ = {orth:e}");
    }

    /// Jacobi eigenpairs are accurate and orthonormal:
    /// ‖Av − λv‖ ≤ c·n·ε·‖A‖ for every pair and ‖VᵀV − I‖ ≤ c·n·ε, on
    /// symmetric matrices up to 30 × 30, with and without repeated
    /// eigenvalues. Over 600 draws the ratios peaked at c = 5.8 and
    /// 6.8; the gate is c = 32.
    #[test]
    fn eigen_residual_and_orthogonality_are_order_n_eps(
        n in 1usize..31,
        distinct in 1usize..5,
        repeated in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let a = if repeated {
            repeated_spectrum(n, distinct, seed)
        } else {
            let m = random_matrix(n, n, seed);
            Matrix::from_fn(n, n, |i, j| 0.5 * (m[(i, j)] + m[(j, i)]))
        };
        let eig = SymmetricEigen::new(&a).unwrap();
        let norm = a.norm_frobenius().max(f64::MIN_POSITIVE);
        for (j, &lambda) in eig.eigenvalues().iter().enumerate() {
            let v = eig.eigenvector(j);
            let r = (&a.matvec(&v).unwrap() - &v.scaled(lambda)).norm2();
            prop_assert!(r <= 32.0 * n as f64 * EPS * norm, "pair {j}: ‖Av − λv‖ = {r:e}");
        }
        let v = eig.eigenvectors();
        let vtv = v.transpose().matmul(v).unwrap();
        let orth = (&vtv - &Matrix::identity(n)).norm_frobenius();
        prop_assert!(orth <= 32.0 * n as f64 * EPS, "‖VᵀV − I‖ = {orth:e}");
    }
}

/// Bit patterns of a matrix's entries.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Splits the rows of `x` and `y` into consecutive pieces of `sizes`
/// rows each (zero for an empty piece).
fn pieces<'a>(
    x: &'a Matrix,
    y: &'a Matrix,
    sizes: &'a [usize],
) -> impl Iterator<Item = (&'a [f64], &'a [f64])> + 'a {
    let (mut xs, mut ys) = (x.as_slice(), y.as_slice());
    sizes.iter().map(move |&n| {
        let (xp, xr) = xs.split_at(n * x.cols());
        let (yp, yr) = ys.split_at(n * y.cols());
        (xs, ys) = (xr, yr);
        (xp, yp)
    })
}

/// Ridge weights of the identification path's sweep.
const RIDGES: [f64; 3] = [1e-9, 1e-6, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding the rows in any split (empty pieces, pieces of 1–300
    /// rows, panel boundaries anywhere) equals `gram`,
    /// `transpose_matmul` and `solve_ridge_matrix` on the stacked rows,
    /// and both solves equal a Cholesky solve of `gram + λI` against
    /// `transpose_matmul`, bit for bit, signed zeros included.
    #[test]
    fn ridge_folds_equal_the_whole_matrix(
        sizes in prop::collection::vec(0usize..301, 0..6),
        cols in 1usize..10,
        rhs in 1usize..4,
        ridge in 0usize..3,
        zeros in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let rows: usize = sizes.iter().sum();
        let mut x = random_matrix(rows, cols, seed);
        let y = random_matrix(rows, rhs, seed ^ 1);
        if zeros {
            for r in 0..rows {
                x[(r, cols / 2)] = if r % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        let lambda = RIDGES[ridge];
        let mut normal = RidgeNormalEquations::new(cols, rhs, lambda).unwrap();
        for (xp, yp) in pieces(&x, &y, &sizes) {
            normal.fold(xp, yp).unwrap();
        }
        prop_assert_eq!(normal.rows(), rows);
        prop_assert_eq!(bits(&normal.gram()), bits(&x.gram()));
        prop_assert_eq!(bits(&normal.cross()), bits(&x.transpose_matmul(&y).unwrap()));
        // `solve_ridge_matrix` as it was before the accumulator:
        // `AᵀA + λI` factored, applied to `AᵀB`.
        let mut regularised = x.gram();
        for i in 0..cols {
            regularised[(i, i)] += lambda;
        }
        let want = CholeskyDecomposition::new(&regularised)
            .and_then(|c| c.solve_matrix(&x.transpose_matmul(&y).unwrap()));
        for got in [normal.solve(), lstsq::solve_ridge_matrix(&x, &y, lambda)] {
            match (got, &want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(bits(&got), bits(want)),
                (got, want) => prop_assert_eq!(got.err(), want.clone().err()),
            }
        }
    }

    /// A NaN or ±∞ anywhere in a piece, regressor or target, fails that
    /// piece's fold with `NonFinite` (the pieces before it fold), and
    /// `solve_ridge_matrix` on the stacked rows fails alike.
    #[test]
    fn ridge_fold_rejects_a_non_finite_piece(
        sizes in prop::collection::vec(1usize..301, 1..5),
        cols in 1usize..6,
        rhs in 1usize..3,
        at in any::<u64>(),
        kind in 0usize..3,
        in_target in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let rows: usize = sizes.iter().sum();
        let mut x = random_matrix(rows, cols, seed);
        let mut y = random_matrix(rows, rhs, seed ^ 1);
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        let row = usize::try_from(at % rows as u64).unwrap();
        if in_target {
            y[(row, rhs - 1)] = bad;
        } else {
            x[(row, cols / 2)] = bad;
        }
        let mut normal = RidgeNormalEquations::new(cols, rhs, 1e-6).unwrap();
        let mut start = 0;
        for ((xp, yp), &n) in pieces(&x, &y, &sizes).zip(&sizes) {
            let folded = normal.fold(xp, yp);
            if (start..start + n).contains(&row) {
                prop_assert_eq!(folded, Err(LinalgError::NonFinite { op: "ridge" }));
                break;
            }
            prop_assert!(folded.is_ok());
            start += n;
        }
        prop_assert_eq!(normal.rows(), start);
        prop_assert_eq!(
            lstsq::solve_ridge_matrix(&x, &y, 1e-6),
            Err(LinalgError::NonFinite { op: "ridge" })
        );
    }
}
