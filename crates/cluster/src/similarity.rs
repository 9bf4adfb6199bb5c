//! Similarity measures between sensor trajectories and the weighted
//! similarity graph they induce.
//!
//! The paper builds two graphs over the sensor set: one weighting
//! edges by (a Gaussian kernel of) the Euclidean distance between
//! temperature trajectories, one by their Pearson correlation, and
//! shows the two lead to different — and differently useful —
//! clusterings (Figs. 6–8).

use serde::{Deserialize, Serialize};

use thermal_linalg::kernels;
use thermal_linalg::{stats, Matrix};
use thermal_timeseries::{Dataset, Mask};

use crate::{ClusterError, Result};

/// How to measure similarity between two sensors' trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Similarity {
    /// Gaussian kernel of the Euclidean distance between
    /// trajectories: `w = exp(−d² / (2σ²))`. `scale = None` picks σ
    /// as the median pairwise distance (the usual self-tuning
    /// heuristic).
    Euclidean {
        /// Kernel width σ; `None` = median pairwise distance.
        scale: Option<f64>,
    },
    /// Pearson correlation, clamped at zero (anti-correlated sensors
    /// share no edge).
    Correlation,
}

impl Similarity {
    /// Euclidean similarity with the self-tuning kernel width.
    pub fn euclidean() -> Self {
        Similarity::Euclidean { scale: None }
    }

    /// Correlation similarity.
    pub fn correlation() -> Self {
        Similarity::Correlation
    }
}

impl std::fmt::Display for Similarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Similarity::Euclidean { .. } => write!(f, "euclidean"),
            Similarity::Correlation => write!(f, "correlation"),
        }
    }
}

/// Extracts the `sensors × samples` trajectory matrix for the named
/// channels over the slots of `mask` where *every* channel is
/// present.
///
/// The jointly present runs come straight off the channels' presence
/// words and the mask ([`Dataset::joint_presence`]), and each row is
/// copied run by run; the matrix is the only allocation that grows
/// with the samples.
///
/// # Errors
///
/// * [`ClusterError::TimeSeries`] for unknown channels,
/// * [`ClusterError::InsufficientData`] when fewer than two joint
///   samples survive.
pub fn trajectory_matrix(dataset: &Dataset, channels: &[&str], mask: &Mask) -> Result<Matrix> {
    let idx = dataset.resolve(channels)?;
    let joint = dataset.joint_presence(&idx, mask)?;
    let samples: usize = joint.segments(1).map(|run| run.len()).sum();
    if samples < 2 {
        return Err(ClusterError::InsufficientData {
            reason: format!(
                "only {samples} joint samples available for {} sensors",
                channels.len()
            ),
        });
    }
    let mut m = Matrix::zeros(channels.len(), samples);
    for (r, &ci) in idx.iter().enumerate() {
        // Bulk row copy: each jointly present run is one slice of the
        // channel's samples, copied straight into the output row.
        // Joint presence guarantees every slot is present; the copy
        // still checks each run's presence words.
        let channel = dataset.channel_at(ci)?;
        let row = m.row_mut(r);
        let mut at = 0;
        for run in joint.segments(1) {
            let dst = row.get_mut(at..at + run.len());
            match (dst, channel.present_samples(run.start..run.end)) {
                (Some(dst), Some(slots)) => dst.copy_from_slice(slots),
                _ => {
                    return Err(ClusterError::Internal {
                        context: "joint-presence mask admitted a missing sample",
                    })
                }
            }
            at += run.len();
        }
    }
    Ok(m)
}

/// Builds the symmetric non-negative weight matrix of the similarity
/// graph from a `sensors × samples` trajectory matrix.
///
/// The diagonal is zero (no self-loops), as the graph-Laplacian
/// construction expects.
///
/// Both similarity kernels are fused: per-trajectory statistics are
/// computed once instead of once per pair, and each upper-triangle
/// entry reduces to a single row dot product (four columns per pass
/// over the row, see [`thermal_linalg::kernels`]). Euclidean takes the
/// squared norms four trajectories per pass
/// ([`kernels::dot_self_rows`]); correlation reads norms and pairs off
/// the centred Gram ([`stats::centred_gram`], then
/// [`correlation_weights`]). The triangle rows fan out in parallel over
/// the configured [`thermal_par::thread_count`]. Each row of the
/// triangle is owned by exactly one task, so the output is bitwise
/// identical for every thread count.
///
/// # Errors
///
/// * [`ClusterError::InsufficientData`] for fewer than two sensors or
///   samples,
/// * [`ClusterError::Linalg`] on numerical failures.
pub fn weight_matrix(trajectories: &Matrix, similarity: Similarity) -> Result<Matrix> {
    weight_matrix_with_threads(trajectories, similarity, thermal_par::thread_count())
}

/// [`weight_matrix`] with an explicit worker count; `threads <= 1`
/// runs sequentially on the calling thread. The result is bitwise
/// identical for every `threads` value.
///
/// # Errors
///
/// Same conditions as [`weight_matrix`].
pub fn weight_matrix_with_threads(
    trajectories: &Matrix,
    similarity: Similarity,
    threads: usize,
) -> Result<Matrix> {
    let (n, samples) = trajectories.shape();
    if n < 2 || samples < 2 {
        return Err(ClusterError::InsufficientData {
            reason: format!("need at least 2 sensors and 2 samples, got {n} x {samples}"),
        });
    }
    match similarity {
        Similarity::Euclidean { scale } => euclidean_weights(trajectories, scale, threads),
        Similarity::Correlation => {
            correlation_weights(&stats::centred_gram_with_threads(trajectories, threads))
        }
    }
}

/// The Gaussian-kernel weights of [`Similarity::Euclidean`]:
/// d²(i, j) = ‖tᵢ‖² + ‖tⱼ‖² − 2⟨tᵢ, tⱼ⟩ with the squared norms hoisted
/// out of the pair loop, clamped at zero against cancellation
/// round-off.
fn euclidean_weights(trajectories: &Matrix, scale: Option<f64>, threads: usize) -> Result<Matrix> {
    let n = trajectories.rows();
    let rows: Vec<usize> = (0..n).collect();
    let sq = squared_norms(trajectories);
    let tri: Vec<Vec<f64>> = thermal_par::parallel_map_with(threads, &rows, |&i| {
        upper_dots(trajectories, i)
            .into_iter()
            .zip(&sq[i + 1..])
            .map(|(g, sq_j)| (sq[i] + sq_j - 2.0 * g).max(0.0).sqrt())
            .collect()
    });
    // Pairwise distances in (i, j)-ascending order for the median
    // heuristic.
    let mut all = Vec::with_capacity(n * (n - 1) / 2);
    for row in &tri {
        all.extend_from_slice(row);
    }
    let sigma = match scale {
        Some(s) if s > 0.0 => s,
        _ => stats::median(&all)?.max(f64::MIN_POSITIVE),
    };
    let mut w = Matrix::zeros(n, n);
    for (i, row) in tri.iter().enumerate() {
        for (off, &d) in row.iter().enumerate() {
            let j = i + 1 + off;
            let v = (-d * d / (2.0 * sigma * sigma)).exp();
            w[(i, j)] = v;
            w[(j, i)] = v;
        }
    }
    Ok(w)
}

/// The correlation-similarity weights of trajectories whose centred
/// Gram ([`stats::centred_gram`]) is `gram`: `w_ij = r_ij` clamped to
/// `[0, 1]`, with `r_ij = G_ij / (√G_ii · √G_jj)` the Pearson
/// correlation. The norms come off the diagonal and the pairs off the
/// upper triangle, so the per-pair mean and norm recomputation of
/// [`stats::pearson`] drops out. Zero-variance (dead) sensors keep the
/// `r = 0` convention, and the diagonal is zero.
///
/// [`weight_matrix`] calls this for [`Similarity::Correlation`]; a
/// caller that holds the Gram for another use (GP selection's
/// covariance) passes it here instead of recomputing it.
///
/// # Errors
///
/// [`ClusterError::InsufficientData`] for a Gram of fewer than two
/// sensors or one that is not square.
pub fn correlation_weights(gram: &Matrix) -> Result<Matrix> {
    let n = gram.rows();
    if n < 2 || !gram.is_square() {
        return Err(ClusterError::InsufficientData {
            reason: format!(
                "need a square Gram of at least 2 sensors, got {} x {}",
                n,
                gram.cols()
            ),
        });
    }
    let mut w = Matrix::zeros(n, n);
    for i in 0..n {
        let sq_i = gram[(i, i)];
        for j in (i + 1)..n {
            let sq_j = gram[(j, j)];
            let v = if sq_i == 0.0 || sq_j == 0.0 {
                0.0
            } else {
                let r = gram[(i, j)] / (sq_i.sqrt() * sq_j.sqrt());
                r.clamp(-1.0, 1.0).max(0.0)
            };
            w[(i, j)] = v;
            w[(j, i)] = v;
        }
    }
    Ok(w)
}

/// `⟨m_i, m_i⟩` of every row, each one [`kernels::dot`] chain, four
/// rows per pass ([`kernels::dot_self_rows`]).
fn squared_norms(m: &Matrix) -> Vec<f64> {
    let mut sq = vec![0.0; m.rows()];
    kernels::dot_self_rows(m.as_slice(), m.cols(), &mut sq);
    sq
}

/// `⟨m_i, m_j⟩` for every `j > i`, in `j` order: four columns per
/// pass over row `i` ([`kernels::dot_rows_from`]), each one
/// [`kernels::dot`] chain. The fixed accumulation order of those chains
/// is what makes the weights bitwise deterministic.
fn upper_dots(m: &Matrix, i: usize) -> Vec<f64> {
    let width = m.cols();
    let mut out = vec![0.0; m.rows() - i - 1];
    kernels::dot_rows_from(
        0.0,
        m.row(i),
        &m.as_slice()[(i + 1) * width..],
        width,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    /// The per-pair weight loop as it was before the four-column
    /// kernel: one plain left-to-right dot per upper-triangle entry,
    /// kept as the oracle of `weights_match_per_pair_reference`.
    fn reference_weights(t: &Matrix, similarity: Similarity) -> Matrix {
        fn dot(a: &[f64], b: &[f64]) -> f64 {
            let mut acc = 0.0;
            for (x, y) in a.iter().zip(b) {
                acc += x * y;
            }
            acc
        }
        let (n, samples) = t.shape();
        let mut w = Matrix::zeros(n, n);
        match similarity {
            Similarity::Euclidean { scale } => {
                let sq: Vec<f64> = (0..n).map(|i| dot(t.row(i), t.row(i))).collect();
                let mut tri = Vec::new();
                for i in 0..n {
                    for j in (i + 1)..n {
                        let g = dot(t.row(i), t.row(j));
                        tri.push((i, j, (sq[i] + sq[j] - 2.0 * g).max(0.0).sqrt()));
                    }
                }
                let all: Vec<f64> = tri.iter().map(|&(_, _, d)| d).collect();
                let sigma = match scale {
                    Some(s) if s > 0.0 => s,
                    _ => stats::median(&all).unwrap().max(f64::MIN_POSITIVE),
                };
                for (i, j, d) in tri {
                    let v = (-d * d / (2.0 * sigma * sigma)).exp();
                    w[(i, j)] = v;
                    w[(j, i)] = v;
                }
            }
            Similarity::Correlation => {
                let mut centred = t.clone();
                for i in 0..n {
                    let row = centred.row_mut(i);
                    let mean = row.iter().sum::<f64>() / samples as f64;
                    for v in row.iter_mut() {
                        *v -= mean;
                    }
                }
                let sq: Vec<f64> = (0..n)
                    .map(|i| dot(centred.row(i), centred.row(i)))
                    .collect();
                for i in 0..n {
                    for j in (i + 1)..n {
                        let v = if sq[i] == 0.0 || sq[j] == 0.0 {
                            0.0
                        } else {
                            let r =
                                dot(centred.row(i), centred.row(j)) / (sq[i].sqrt() * sq[j].sqrt());
                            r.clamp(-1.0, 1.0).max(0.0)
                        };
                        w[(i, j)] = v;
                        w[(j, i)] = v;
                    }
                }
            }
        }
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both similarities equal the per-pair reference bit for bit,
        /// for sensor and sample counts that are not multiples of four
        /// and for the paper's 27 sensors, with a dead (zero-variance)
        /// sensor, at any thread count.
        #[test]
        fn weights_match_per_pair_reference(
            n in (2usize..14).prop_map(|n| if n < 12 { n } else { 27 }),
            samples in 2usize..40,
            dead in 0usize..12,
            threads in 1usize..4,
            data in prop::collection::vec(-5.0_f64..5.0, 27 * 40),
        ) {
            let mut t = Matrix::from_fn(n, samples, |i, k| 20.0 + data[i * 40 + k]);
            if dead < n {
                t.row_mut(dead).fill(21.0);
            }
            for sim in [Similarity::euclidean(), Similarity::correlation()] {
                let got = weight_matrix_with_threads(&t, sim, threads).unwrap();
                let want = reference_weights(&t, sim);
                let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }

    fn traj() -> Matrix {
        // Two nearly identical sensors, one very different.
        Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0][..],
            &[1.1, 2.1, 3.1, 4.1][..],
            &[9.0, 1.0, 8.0, 0.0][..],
        ])
        .unwrap()
    }

    #[test]
    fn euclidean_weights_favour_close_trajectories() {
        let w = weight_matrix(&traj(), Similarity::euclidean()).unwrap();
        assert!(w.is_symmetric(0.0));
        assert_eq!(w[(0, 0)], 0.0);
        assert!(w[(0, 1)] > w[(0, 2)]);
        assert!(
            w[(0, 1)] > 0.9,
            "near-identical trajectories: {}",
            w[(0, 1)]
        );
        for i in 0..3 {
            for j in 0..3 {
                assert!((0.0..=1.0).contains(&w[(i, j)]));
            }
        }
    }

    #[test]
    fn fixed_scale_is_respected() {
        let tight = weight_matrix(&traj(), Similarity::Euclidean { scale: Some(0.01) }).unwrap();
        // With a tiny kernel width even close trajectories get ~zero.
        assert!(tight[(0, 1)] < 1e-6);
        let loose = weight_matrix(&traj(), Similarity::Euclidean { scale: Some(100.0) }).unwrap();
        assert!(loose[(0, 2)] > 0.9);
    }

    #[test]
    fn correlation_weights_clamp_negative() {
        let m = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0][..],
            &[2.0, 4.0, 6.0][..],
            &[3.0, 2.0, 1.0][..],
        ])
        .unwrap();
        let w = weight_matrix(&m, Similarity::correlation()).unwrap();
        assert!((w[(0, 1)] - 1.0).abs() < 1e-12);
        assert_eq!(w[(0, 2)], 0.0, "anti-correlation clamps to zero");
        assert_eq!(w[(1, 1)], 0.0);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let m = Matrix::from_fn(9, 30, |i, j| ((i * 31 + j) as f64 * 0.37).sin() * 10.0);
        for sim in [
            Similarity::euclidean(),
            Similarity::Euclidean { scale: Some(2.5) },
            Similarity::correlation(),
        ] {
            let seq = weight_matrix_with_threads(&m, sim, 1).unwrap();
            for threads in [2, 4, 8] {
                assert_eq!(seq, weight_matrix_with_threads(&m, sim, threads).unwrap());
            }
        }
    }

    #[test]
    fn fused_pearson_matches_pairwise_stats() {
        let m = Matrix::from_fn(6, 25, |i, j| {
            ((i + 2) as f64 * (j as f64 * 0.11).cos()) + i as f64
        });
        let w = weight_matrix(&m, Similarity::correlation()).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                let r = stats::pearson(m.row(i), m.row(j)).unwrap().max(0.0);
                assert!(
                    (w[(i, j)] - r).abs() < 1e-12,
                    "fused kernel drifted from stats::pearson at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn fused_euclidean_matches_pairwise_stats() {
        let m = Matrix::from_fn(5, 20, |i, j| ((i * 17 + j) as f64 * 0.23).cos() * 4.0);
        let w = weight_matrix(&m, Similarity::Euclidean { scale: Some(3.0) }).unwrap();
        for i in 0..5 {
            for j in (i + 1)..5 {
                let d = stats::euclidean_distance(m.row(i), m.row(j)).unwrap();
                let expect = (-d * d / (2.0 * 3.0 * 3.0)).exp();
                assert!(
                    (w[(i, j)] - expect).abs() < 1e-12,
                    "fused kernel drifted from stats::euclidean_distance at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn zero_variance_sensor_gets_zero_correlation() {
        let m = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0][..],
            &[5.0, 5.0, 5.0, 5.0][..],
            &[4.0, 3.0, 2.0, 1.0][..],
        ])
        .unwrap();
        let w = weight_matrix(&m, Similarity::correlation()).unwrap();
        assert_eq!(w[(0, 1)], 0.0);
        assert_eq!(w[(1, 2)], 0.0);
    }

    #[test]
    fn rejects_tiny_inputs() {
        let one = Matrix::from_rows(&[&[1.0, 2.0][..]]).unwrap();
        assert!(weight_matrix(&one, Similarity::correlation()).is_err());
        let thin = Matrix::from_rows(&[&[1.0][..], &[2.0][..]]).unwrap();
        assert!(weight_matrix(&thin, Similarity::euclidean()).is_err());
    }

    #[test]
    fn trajectory_matrix_respects_joint_presence() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 5).unwrap();
        let ds = Dataset::new(
            grid,
            vec![
                Channel::new("a", vec![Some(1.0), Some(2.0), None, Some(4.0), Some(5.0)]).unwrap(),
                Channel::new("b", vec![Some(9.0), Some(8.0), Some(7.0), None, Some(5.0)]).unwrap(),
            ],
        )
        .unwrap();
        let m = trajectory_matrix(&ds, &["a", "b"], &Mask::all(ds.grid())).unwrap();
        // Joint slots: 0, 1, 4.
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(m.row(1), &[9.0, 8.0, 5.0]);
        assert!(trajectory_matrix(&ds, &["zz"], &Mask::all(ds.grid())).is_err());
        let narrow = Mask::from_bits(vec![true, false, false, false, false]);
        assert!(trajectory_matrix(&ds, &["a", "b"], &narrow).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The run-by-run copy equals a gather of every slot the joint
        /// presence mask selects, bit for bit, on gappy channels of
        /// 2–299 slots under random masks.
        #[test]
        fn trajectory_matrix_matches_slot_gather(
            len in 2usize..300,
            sensors in 1usize..5,
            gap_rate in 0usize..4,
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut draw = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let names: Vec<String> = (0..sensors).map(|s| format!("s{s}")).collect();
            let channels = names
                .iter()
                .map(|name| {
                    let values = (0..len)
                        .map(|k| (draw() % 8 >= gap_rate as u64).then_some(k as f64 * 0.5 - 20.0))
                        .collect();
                    Channel::new(name.as_str(), values).unwrap()
                })
                .collect();
            let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, len).unwrap();
            let ds = Dataset::new(grid, channels).unwrap();
            let mask = Mask::from_bits((0..len).map(|_| draw() % 5 != 0).collect());
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let idx: Vec<usize> = (0..sensors).collect();
            let slots: Vec<usize> =
                ds.presence_mask(&idx).unwrap().and(&mask).unwrap().iter_selected().collect();
            match trajectory_matrix(&ds, &refs, &mask) {
                Ok(m) => {
                    prop_assert_eq!(m.shape(), (sensors, slots.len()));
                    for (r, channel) in ds.channels().iter().enumerate() {
                        let want: Vec<u64> =
                            slots.iter().map(|&i| channel.value(i).unwrap().to_bits()).collect();
                        let got: Vec<u64> = m.row(r).iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                Err(e) => prop_assert!(
                    slots.len() < 2 && matches!(e, ClusterError::InsufficientData { .. }),
                    "{e:?} with {} joint slots",
                    slots.len()
                ),
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Similarity::euclidean().to_string(), "euclidean");
        assert_eq!(Similarity::correlation().to_string(), "correlation");
    }
}
