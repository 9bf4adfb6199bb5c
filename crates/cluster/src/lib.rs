//! Spectral clustering of temperature sensors — the "sensor
//! clustering" half of the ICDCS'14 paper's method (Section V).
//!
//! The workflow mirrors the paper exactly:
//!
//! 1. build a similarity graph over the sensors from their
//!    temperature trajectories ([`Similarity::Euclidean`] with a
//!    Gaussian kernel, or [`Similarity::Correlation`]),
//! 2. form the graph Laplacian ([`laplacian`], and
//!    [`normalized_laplacian`] for the normalised variant),
//! 3. choose the number of clusters by the largest *log-eigengap*
//!    of the spectrum ([`eigengap_cluster_count`]),
//! 4. embed sensors into the first `k` eigenvectors and partition
//!    with k-means ([`cluster_sensors`] / [`cluster_trajectories`], or
//!    [`cluster_graph`] on a weight matrix),
//! 5. assess quality with max-pairwise-temperature-difference CDFs
//!    and cluster-ordered correlation maps ([`quality`], Figs. 7–8).
//!
//! # Example
//!
//! ```
//! use thermal_cluster::{cluster_trajectories, ClusterCount, Similarity, SpectralConfig};
//! use thermal_linalg::Matrix;
//!
//! # fn main() -> Result<(), thermal_cluster::ClusterError> {
//! // Four sensors: two warm-trending, two cool-trending.
//! let trajectories = Matrix::from_rows(&[
//!     &[20.0, 20.5, 21.0, 21.5][..],
//!     &[20.1, 20.6, 21.1, 21.6][..],
//!     &[21.0, 20.6, 20.2, 19.8][..],
//!     &[21.1, 20.7, 20.3, 19.9][..],
//! ]).expect("consistent rows");
//! let config = SpectralConfig {
//!     similarity: Similarity::correlation(),
//!     count: ClusterCount::Fixed(2),
//!     seed: 1,
//!     restarts: 4,
//! };
//! let clustering = cluster_trajectories(&trajectories, &config)?;
//! assert_eq!(clustering.assignments()[0], clustering.assignments()[1]);
//! assert_ne!(clustering.assignments()[0], clustering.assignments()[2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod kmeans;
mod laplacian;
mod similarity;
mod spectral;

pub mod quality;

pub use error::ClusterError;
pub use kmeans::{kmeans, kmeans_with_threads, KmeansResult};
pub use laplacian::{
    eigengap_cluster_count, laplacian, log_eigengaps, normalized_laplacian, spectrum,
};
pub use similarity::{
    correlation_weights, trajectory_matrix, weight_matrix, weight_matrix_with_threads, Similarity,
};
pub use spectral::{
    cluster_graph, cluster_sensors, cluster_trajectories, ClusterCount, Clustering, SpectralConfig,
};

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, ClusterError>;
