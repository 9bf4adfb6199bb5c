//! Spectral clustering of sensors (von Luxburg's unnormalised
//! variant, as used by the paper): similarity graph → Laplacian →
//! first-`k` eigenvectors → k-means on the spectral embedding, with
//! the number of clusters chosen by the largest log-eigengap.

use serde::{Deserialize, Serialize};

use thermal_linalg::{Matrix, SymmetricEigen};
use thermal_timeseries::{Dataset, Mask};

use crate::kmeans::kmeans;
use crate::laplacian::{eigengap_cluster_count, laplacian, log_eigengaps};
use crate::similarity::{trajectory_matrix, weight_matrix, Similarity};
use crate::{ClusterError, Result};

/// How many clusters to form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClusterCount {
    /// Exactly this many clusters.
    Fixed(usize),
    /// Choose by the largest log-eigengap, searching `1..=max`.
    Eigengap {
        /// Largest cluster count considered.
        max: usize,
    },
}

/// Spectral-clustering configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectralConfig {
    /// Similarity measure for the graph weights.
    pub similarity: Similarity,
    /// Cluster-count policy.
    pub count: ClusterCount,
    /// Seed for the k-means stage.
    pub seed: u64,
    /// Independent k-means restarts.
    pub restarts: usize,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            similarity: Similarity::correlation(),
            count: ClusterCount::Eigengap { max: 8 },
            seed: 7,
            restarts: 8,
        }
    }
}

/// The result of clustering a sensor set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    assignments: Vec<usize>,
    k: usize,
    eigenvalues: Vec<f64>,
}

impl Clustering {
    /// Builds a clustering from raw assignments (used by tests and by
    /// the selection crate's fixtures). Cluster indices must be dense
    /// `0..k`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::BadClusterCount`] when an assignment
    /// is `≥ k` or a cluster is empty.
    pub fn from_assignments(assignments: Vec<usize>, k: usize) -> Result<Self> {
        if k == 0 || assignments.is_empty() {
            return Err(ClusterError::BadClusterCount {
                requested: k,
                sensors: assignments.len(),
            });
        }
        let mut seen = vec![false; k];
        for &a in &assignments {
            if a >= k {
                return Err(ClusterError::BadClusterCount {
                    requested: k,
                    sensors: assignments.len(),
                });
            }
            seen[a] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err(ClusterError::InsufficientData {
                reason: "every cluster must contain at least one sensor".to_owned(),
            });
        }
        Ok(Clustering {
            assignments,
            k,
            eigenvalues: Vec::new(),
        })
    }

    /// Attaches the affinity eigenvalues that produced this
    /// clustering (used when restoring a clustering from a
    /// checkpoint so the round-trip is exact).
    #[must_use]
    pub fn with_eigenvalues(mut self, eigenvalues: Vec<f64>) -> Self {
        self.eigenvalues = eigenvalues;
        self
    }

    /// Cluster index of each sensor (dataset order).
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of clustered sensors.
    pub fn sensor_count(&self) -> usize {
        self.assignments.len()
    }

    /// Ascending Laplacian eigenvalues (empty for clusterings built
    /// from raw assignments).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Log-eigengaps of the spectrum.
    pub fn log_eigengaps(&self) -> Vec<f64> {
        log_eigengaps(&self.eigenvalues)
    }

    /// Members of each cluster, as indices into the clustered sensor
    /// list.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.k];
        for (i, &c) in self.assignments.iter().enumerate() {
            out[c].push(i);
        }
        out
    }

    /// Cluster index of sensor `i`, or `None` out of range.
    pub fn cluster_of(&self, i: usize) -> Option<usize> {
        self.assignments.get(i).copied()
    }
}

/// Clusters the rows of a `sensors × samples` trajectory matrix: the
/// [`weight_matrix`] of `config.similarity`, then [`cluster_graph`].
///
/// # Errors
///
/// * [`ClusterError::InsufficientData`] for matrices with fewer than
///   two sensors/samples,
/// * [`ClusterError::BadClusterCount`] for an impossible cluster
///   count,
/// * numerical failures from the eigensolver or k-means.
pub fn cluster_trajectories(trajectories: &Matrix, config: &SpectralConfig) -> Result<Clustering> {
    let w = weight_matrix(trajectories, config.similarity)?;
    cluster_graph(&w, config.count, config.restarts, config.seed)
}

/// The spectral step on a similarity graph's weight matrix: the
/// Laplacian, its eigen decomposition, the cluster count (`count`),
/// k-means with `restarts` restarts from `seed` on the spectral
/// embedding, and labels made dense in order of first appearance.
///
/// # Errors
///
/// * [`ClusterError::BadClusterCount`] for an impossible cluster
///   count,
/// * numerical failures from the Laplacian, eigensolver or k-means.
pub fn cluster_graph(
    weights: &Matrix,
    count: ClusterCount,
    restarts: usize,
    seed: u64,
) -> Result<Clustering> {
    let n = weights.rows();
    let l = laplacian(weights)?;
    let eig = SymmetricEigen::new_symmetrized(&l)?;
    let eigenvalues = eig.eigenvalues().to_vec();

    let k = match count {
        ClusterCount::Fixed(k) => {
            if k == 0 || k > n {
                return Err(ClusterError::BadClusterCount {
                    requested: k,
                    sensors: n,
                });
            }
            k
        }
        ClusterCount::Eigengap { max } => {
            eigengap_cluster_count(&eigenvalues, max.min(n.saturating_sub(1)))?
        }
    };

    let assignments = if k == 1 {
        vec![0; n]
    } else {
        let embedding = eig.embedding(k)?;
        kmeans(&embedding, k, restarts, seed)?.assignments
    };

    // Re-label clusters densely in order of first appearance so the
    // output is deterministic regardless of k-means label order.
    let mut relabel: Vec<Option<usize>> = vec![None; k];
    let mut next = 0usize;
    let mut dense = Vec::with_capacity(n);
    for &a in &assignments {
        let label = match relabel[a] {
            Some(l) => l,
            None => {
                let l = next;
                relabel[a] = Some(l);
                next += 1;
                l
            }
        };
        dense.push(label);
    }

    Ok(Clustering {
        assignments: dense,
        k: next,
        eigenvalues,
    })
}

/// Clusters the named dataset channels over the masked slots —
/// the paper's Section V workflow in one call.
///
/// # Errors
///
/// Same conditions as [`cluster_trajectories`] plus channel
/// resolution failures.
pub fn cluster_sensors(
    dataset: &Dataset,
    channels: &[&str],
    mask: &Mask,
    config: &SpectralConfig,
) -> Result<Clustering> {
    let traj = trajectory_matrix(dataset, channels, mask)?;
    cluster_trajectories(&traj, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two groups of sensors with distinct trajectory families.
    fn grouped_trajectories() -> Matrix {
        let n_samples = 60;
        let mut rows = Vec::new();
        // Group A: sinusoid + per-sensor offset.
        for s in 0..4 {
            let row: Vec<f64> = (0..n_samples)
                .map(|k| 20.0 + 0.02 * s as f64 + (k as f64 * 0.3).sin())
                .collect();
            rows.push(row);
        }
        // Group B: anti-phase with a trend.
        for s in 0..3 {
            let row: Vec<f64> = (0..n_samples)
                .map(|k| 21.5 + 0.02 * s as f64 - (k as f64 * 0.3).sin() + 0.01 * k as f64)
                .collect();
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn correlation_clustering_separates_groups() {
        let config = SpectralConfig {
            similarity: Similarity::correlation(),
            count: ClusterCount::Fixed(2),
            seed: 1,
            restarts: 4,
        };
        let c = cluster_trajectories(&grouped_trajectories(), &config).unwrap();
        assert_eq!(c.k(), 2);
        assert_eq!(c.sensor_count(), 7);
        // All of group A together, all of group B together.
        for i in 1..4 {
            assert_eq!(c.assignments()[i], c.assignments()[0]);
        }
        for i in 5..7 {
            assert_eq!(c.assignments()[i], c.assignments()[4]);
        }
        assert_ne!(c.assignments()[0], c.assignments()[4]);
    }

    #[test]
    fn eigengap_detects_group_count() {
        let config = SpectralConfig {
            similarity: Similarity::correlation(),
            count: ClusterCount::Eigengap { max: 5 },
            seed: 1,
            restarts: 4,
        };
        let c = cluster_trajectories(&grouped_trajectories(), &config).unwrap();
        assert_eq!(c.k(), 2, "eigengap should find the two families");
        assert_eq!(c.eigenvalues().len(), 7);
        assert!(!c.log_eigengaps().is_empty());
    }

    #[test]
    fn euclidean_clustering_separates_offset_groups() {
        let config = SpectralConfig {
            similarity: Similarity::euclidean(),
            count: ClusterCount::Fixed(2),
            seed: 3,
            restarts: 4,
        };
        let c = cluster_trajectories(&grouped_trajectories(), &config).unwrap();
        // Offset of 1.5 °C separates the families in Euclidean space too.
        assert_ne!(c.assignments()[0], c.assignments()[4]);
    }

    #[test]
    fn labels_are_dense_and_deterministic() {
        let config = SpectralConfig::default();
        let a = cluster_trajectories(&grouped_trajectories(), &config).unwrap();
        let b = cluster_trajectories(&grouped_trajectories(), &config).unwrap();
        assert_eq!(a, b);
        // First sensor always gets label 0 under first-appearance
        // relabelling.
        assert_eq!(a.assignments()[0], 0);
        let mut labels = a.assignments().to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels, (0..a.k()).collect::<Vec<_>>());
    }

    #[test]
    fn single_cluster_requested() {
        let config = SpectralConfig {
            similarity: Similarity::correlation(),
            count: ClusterCount::Fixed(1),
            seed: 0,
            restarts: 1,
        };
        let c = cluster_trajectories(&grouped_trajectories(), &config).unwrap();
        assert_eq!(c.k(), 1);
        assert!(c.assignments().iter().all(|&a| a == 0));
        assert_eq!(c.clusters().len(), 1);
        assert_eq!(c.clusters()[0].len(), 7);
    }

    #[test]
    fn rejects_impossible_counts() {
        let config = SpectralConfig {
            similarity: Similarity::correlation(),
            count: ClusterCount::Fixed(100),
            seed: 0,
            restarts: 1,
        };
        assert!(matches!(
            cluster_trajectories(&grouped_trajectories(), &config),
            Err(ClusterError::BadClusterCount { .. })
        ));
    }

    #[test]
    fn from_assignments_validation() {
        let c = Clustering::from_assignments(vec![0, 1, 0], 2).unwrap();
        assert_eq!(c.k(), 2);
        assert_eq!(c.cluster_of(1), Some(1));
        assert_eq!(c.cluster_of(9), None);
        assert_eq!(c.clusters(), vec![vec![0, 2], vec![1]]);
        assert!(Clustering::from_assignments(vec![0, 2], 2).is_err());
        assert!(Clustering::from_assignments(vec![0, 0], 2).is_err());
        assert!(Clustering::from_assignments(vec![], 1).is_err());
        assert!(Clustering::from_assignments(vec![0], 0).is_err());
    }
}
