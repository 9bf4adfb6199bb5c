//! Statistics kernels: means, variances, covariance and correlation
//! matrices, percentiles, RMS and empirical CDFs.
//!
//! These are the measurement tools of the paper's evaluation: every
//! table and figure is a percentile, an RMS, a CDF or a correlation
//! map over temperature series, all computed here.

use crate::{kernels, LinalgError, Matrix, Result};

/// Arithmetic mean of a slice.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for empty input.
pub fn mean(values: &[f64]) -> Result<f64> {
    if values.is_empty() {
        return Err(LinalgError::Empty { op: "mean" });
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Unbiased sample variance (denominator `n − 1`).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] when fewer than two values are
/// provided.
pub fn variance(values: &[f64]) -> Result<f64> {
    if values.len() < 2 {
        return Err(LinalgError::Empty { op: "variance" });
    }
    let m = mean(values)?;
    Ok(values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64)
}

/// Sample standard deviation.
///
/// # Errors
///
/// Same as [`variance`].
pub fn std_dev(values: &[f64]) -> Result<f64> {
    variance(values).map(f64::sqrt)
}

/// Root-mean-square of a slice — the error summary used by Table I and
/// Figures 3–5 of the paper.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for empty input.
pub fn rms(values: &[f64]) -> Result<f64> {
    if values.is_empty() {
        return Err(LinalgError::Empty { op: "rms" });
    }
    Ok((values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt())
}

/// Percentile with linear interpolation between order statistics
/// (the "linear" / type-7 method), `p` in `[0, 100]`.
///
/// The paper reports its headline numbers at the 90th (model error)
/// and 99th (selection error) percentiles.
///
/// The two order statistics are found by selection on a scratch copy,
/// in linear time; they are the values a `total_cmp` sort would put at
/// those ranks, so the result equals sorting and indexing bit for bit.
///
/// # Errors
///
/// * [`LinalgError::Empty`] for empty input,
/// * [`LinalgError::InvalidData`] for `p` outside `[0, 100]` or NaN
///   values in the data.
///
/// # Example
///
/// ```
/// use thermal_linalg::stats::percentile;
///
/// # fn main() -> Result<(), thermal_linalg::LinalgError> {
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&data, 50.0)?, 2.5);
/// assert_eq!(percentile(&data, 100.0)?, 4.0);
/// # Ok(())
/// # }
/// ```
pub fn percentile(values: &[f64], p: f64) -> Result<f64> {
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
    let n = values.len();
    if let [only] = values {
        return Ok(*only);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = crate::cast::floor_to_index(rank, n - 1);
    let hi = crate::cast::ceil_to_index(rank, n - 1);
    let frac = rank - lo as f64;
    // Order statistic `lo` by selection, and `hi = lo + 1` as the least
    // value above it: the entries a full `total_cmp` sort would put at
    // `lo` and `hi`, in O(n).
    let mut scratch = values.to_vec();
    let (_, &mut at_lo, above) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    let at_hi = if hi > lo {
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .unwrap_or(at_lo)
    } else {
        at_lo
    };
    Ok(at_lo + frac * (at_hi - at_lo))
}

/// Median (50th percentile).
///
/// # Errors
///
/// Same as [`percentile`].
pub fn median(values: &[f64]) -> Result<f64> {
    percentile(values, 50.0)
}

/// An empirical cumulative distribution function over a finite sample.
///
/// Stores the sorted sample; evaluation is `P(X ≤ x)` with
/// right-continuous steps. Used to render the CDF plots of
/// Figures 3, 7 and 8.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the ECDF from a sample.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] for an empty sample,
    /// * [`LinalgError::NonFinite`] when the sample contains NaN.
    pub fn new(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(LinalgError::Empty { op: "ecdf" });
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(LinalgError::NonFinite { op: "ecdf" });
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(EmpiricalCdf { sorted })
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the sample is empty (unreachable via `new`).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates `P(X ≤ x)`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns count of elements <= x when we test `v <= x`.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile) at probability `q ∈ [0, 1]` with linear
    /// interpolation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] for `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(LinalgError::InvalidData {
                reason: "quantile probability must be in [0, 1]",
            });
        }
        percentile(&self.sorted, q * 100.0)
    }

    /// The sorted sample underlying the ECDF.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Renders the ECDF as `(x, P(X ≤ x))` pairs at each distinct
    /// sample point — the exact polyline of the paper's CDF figures.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out = Vec::with_capacity(self.sorted.len());
        for (i, &x) in self.sorted.iter().enumerate() {
            if i + 1 < self.sorted.len() && self.sorted[i + 1] == x {
                continue; // keep only the last (highest-probability) step per x
            }
            out.push((x, (i + 1) as f64 / n));
        }
        out
    }
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns `0.0` when either series is constant (zero variance), a
/// convention that keeps degenerate (dead) sensors maximally
/// dissimilar from live ones in the clustering stage.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] when lengths differ,
/// * [`LinalgError::Empty`] when fewer than two samples are given.
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64> {
    // A series too short to correlate has no use for its mean:
    // `pearson_with_means` refuses it before reading one.
    let centre = |series: &[f64]| mean(series).unwrap_or(0.0);
    pearson_with_means(a, centre(a), b, centre(b))
}

/// [`pearson`] given each series' [`mean`], for a caller that
/// correlates one series with several others: it takes each mean once
/// instead of once per pair. With the means `mean` returns, the result
/// is bit for bit [`pearson`]'s.
///
/// # Errors
///
/// Same as [`pearson`].
pub fn pearson_with_means(a: &[f64], mean_a: f64, b: &[f64], mean_b: f64) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "pearson",
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    if a.len() < 2 {
        return Err(LinalgError::Empty { op: "pearson" });
    }
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x - mean_a;
        let dy = y - mean_b;
        num += dx * dy;
        da += dx * dx;
        db += dy * dy;
    }
    if da == 0.0 || db == 0.0 {
        return Ok(0.0);
    }
    // Clamp against round-off drifting a hair outside [-1, 1].
    Ok((num / (da.sqrt() * db.sqrt())).clamp(-1.0, 1.0))
}

/// Sample covariance matrix of the columns of `data`
/// (`rows` = observations, `cols` = variables; denominator `n − 1`):
/// [`row_covariance_matrix`] of the transpose.
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] when fewer than two rows are given.
pub fn covariance_matrix(data: &Matrix) -> Result<Matrix> {
    row_covariance_matrix(&data.transpose())
}

/// Sample covariance matrix of the rows of `data` (`rows` = variables,
/// `cols` = observations; denominator `n − 1`): [`covariance_from_gram`]
/// of the [`centred_gram`].
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] when fewer than two columns are
/// given.
pub fn row_covariance_matrix(data: &Matrix) -> Result<Matrix> {
    covariance_from_gram(&centred_gram(data), data.cols())
}

/// The centred Gram of the rows of `data` (`rows` = variables, `cols`
/// = observations): `G_ij = Σ_t z_i[t] · z_j[t]`, where `z` is
/// [`centre_rows`]`(data)`.
///
/// Entry `(i, j ≥ i)` is one [`kernels::dot`] chain from `+0.0` over
/// centred rows `i` and `j`, four columns `j` per pass over row `i`
/// ([`kernels::dot_rows_from`]); the lower triangle is its mirror. The
/// diagonal chain is [`kernels::dot_self_rows`]'s on the centred rows.
/// Covariances ([`covariance_from_gram`]) and Pearson correlations
/// both read off it, so a caller needing both computes it once. Runs
/// on the calling thread.
pub fn centred_gram(data: &Matrix) -> Matrix {
    centred_gram_with_threads(data, 1)
}

/// [`centred_gram`] fanned out over `threads` workers, each owning a
/// block of rows (`threads <= 1` is the sequential path). The result is
/// bitwise identical at any worker count.
pub fn centred_gram_with_threads(data: &Matrix, threads: usize) -> Matrix {
    let (p, n) = data.shape();
    let centred = centre_rows(data);
    let z = centred.as_slice();
    let mut gram = Matrix::zeros(p, p);
    if p == 0 {
        return gram;
    }
    let block_rows = p.div_ceil(threads.max(1)).max(1);
    thermal_par::parallel_chunks_mut_with(
        threads,
        gram.as_mut_slice(),
        block_rows * p,
        |blk, block| {
            for (grow, i) in block.chunks_exact_mut(p).zip(blk * block_rows..) {
                let rows = &z[i * n..];
                kernels::dot_rows_from(0.0, &rows[..n], rows, n, &mut grow[i..]);
            }
        },
    );
    for i in 1..p {
        for j in 0..i {
            gram[(i, j)] = gram[(j, i)];
        }
    }
    gram
}

/// The sample covariance (denominator `observations − 1`) of variables
/// whose [`centred_gram`] over `observations` samples is `gram`: each
/// upper-triangle entry divided once, then mirrored.
///
/// # Errors
///
/// * [`LinalgError::Empty`] when `observations < 2`,
/// * [`LinalgError::NotSquare`] for a non-square `gram`.
pub fn covariance_from_gram(gram: &Matrix, observations: usize) -> Result<Matrix> {
    if observations < 2 {
        return Err(LinalgError::Empty { op: "covariance" });
    }
    if !gram.is_square() {
        return Err(LinalgError::NotSquare {
            shape: gram.shape(),
        });
    }
    let p = gram.rows();
    let denom = (observations - 1) as f64;
    let mut cov = Matrix::zeros(p, p);
    for i in 0..p {
        for j in i..p {
            let v = gram[(i, j)] / denom;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
    Ok(cov)
}

/// `data` with each row shifted by its mean, `x − (Σ row) / cols`.
///
/// Each mean's `Σ` is the row's `Iterator::sum` chain (from `-0.0`),
/// four rows per pass (`kernels::sum_rows_from`). A matrix without
/// columns comes back unchanged.
pub fn centre_rows(data: &Matrix) -> Matrix {
    let (p, n) = data.shape();
    let mut centred = data.clone();
    let mut sums = vec![0.0; p];
    kernels::sum_rows_from(-0.0, data.as_slice(), n, &mut sums);
    for (row, sum) in centred.as_mut_slice().chunks_exact_mut(n.max(1)).zip(sums) {
        let mean = sum / n as f64;
        for x in row.iter_mut() {
            *x -= mean;
        }
    }
    centred
}

/// Pearson correlation matrix of the columns of `data`.
///
/// Constant columns receive zero correlation with everything (and
/// `1.0` with themselves), matching [`pearson`]'s convention.
///
/// # Errors
///
/// Same as [`covariance_matrix`].
pub fn correlation_matrix(data: &Matrix) -> Result<Matrix> {
    let cov = covariance_matrix(data)?;
    let p = cov.rows();
    let mut corr = Matrix::zeros(p, p);
    for i in 0..p {
        corr[(i, i)] = 1.0;
        for j in (i + 1)..p {
            let d = (cov[(i, i)] * cov[(j, j)]).sqrt();
            let c = if d == 0.0 {
                0.0
            } else {
                (cov[(i, j)] / d).clamp(-1.0, 1.0)
            };
            corr[(i, j)] = c;
            corr[(j, i)] = c;
        }
    }
    Ok(corr)
}

/// Euclidean distance between two equal-length slices.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when lengths differ.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "euclidean distance",
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v).unwrap(), 5.0);
        assert!((variance(&v).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&v).unwrap() - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn rms_known_values() {
        assert!((rms(&[3.0, 4.0]).unwrap() - (12.5_f64).sqrt()).abs() < 1e-12);
        assert_eq!(rms(&[0.0, 0.0]).unwrap(), 0.0);
        assert!(rms(&[]).is_err());
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&v, 100.0).unwrap(), 4.0);
        assert_eq!(percentile(&v, 50.0).unwrap(), 2.5);
        assert!((percentile(&v, 90.0).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 35.0).unwrap(), 7.0);
        assert_eq!(median(&v).unwrap(), 2.5);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0];
        let b = [1.0, 3.0, 5.0];
        assert_eq!(percentile(&a, 73.0).unwrap(), percentile(&b, 73.0).unwrap());
    }

    #[test]
    fn percentile_rejects_bad_inputs() {
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0], -0.1).is_err());
        assert!(percentile(&[1.0], 100.1).is_err());
        assert!(percentile(&[f64::NAN], 50.0).is_err());
    }

    #[test]
    fn ecdf_eval_and_steps() {
        let cdf = EmpiricalCdf::new(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(10.0), 1.0);
        let steps = cdf.steps();
        assert_eq!(steps, vec![(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]);
        assert!((cdf.quantile(0.5).unwrap() - 2.0).abs() < 1e-12);
        assert!(cdf.quantile(1.5).is_err());
        assert!(EmpiricalCdf::new(&[]).is_err());
        assert!(EmpiricalCdf::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn pearson_perfect_and_anti_correlation() {
        let a = [1.0, 2.0, 3.0];
        assert!((pearson(&a, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[5.0, 5.0, 5.0]).unwrap(), 0.0);
        assert!(pearson(&a, &[1.0]).is_err());
        assert!(pearson(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn pearson_with_means_is_pearson_given_the_means() {
        let a: Vec<f64> = (0..97)
            .map(|i| (f64::from(i) * 0.37).sin() + 20.0)
            .collect();
        let b: Vec<f64> = (0..97).map(|i| (f64::from(i) * 0.11).cos() * 3.0).collect();
        let flat = vec![4.0; 97];
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a), (&a, &flat)] {
            let given = pearson_with_means(x, mean(x).unwrap(), y, mean(y).unwrap()).unwrap();
            assert_eq!(given.to_bits(), pearson(x, y).unwrap().to_bits());
        }
        assert!(pearson_with_means(&a, 0.0, &b[1..], 0.0).is_err());
        assert!(pearson_with_means(&[1.0], 1.0, &[1.0], 1.0).is_err());
    }

    #[test]
    fn covariance_matrix_known() {
        // Two perfectly correlated columns: cov = [[1, 2], [2, 4]].
        let data = Matrix::from_rows(&[&[0.0, 0.0][..], &[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        let cov = covariance_matrix(&data).unwrap();
        assert!((cov[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((cov[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 4.0).abs() < 1e-12);
        assert!(cov.is_symmetric(0.0));
        assert!(covariance_matrix(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn correlation_matrix_diagonal_is_one() {
        let data = Matrix::from_rows(&[
            &[1.0, 9.0, 5.0][..],
            &[2.0, 7.0, 5.0][..],
            &[3.0, 8.0, 5.0][..],
            &[4.0, 5.0, 5.0][..],
        ])
        .unwrap();
        let corr = correlation_matrix(&data).unwrap();
        for i in 0..3 {
            assert_eq!(corr[(i, i)], 1.0);
            for j in 0..3 {
                assert!(corr[(i, j)] >= -1.0 && corr[(i, j)] <= 1.0);
            }
        }
        // Column 2 is constant: zero correlation with others.
        assert_eq!(corr[(0, 2)], 0.0);
        assert_eq!(corr[(2, 1)], 0.0);
    }

    #[test]
    fn euclidean_distance_known() {
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert!(euclidean_distance(&[1.0], &[1.0, 2.0]).is_err());
    }
}
