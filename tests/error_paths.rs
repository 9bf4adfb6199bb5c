//! Error-path coverage: the failure modes the panic-free library
//! surfaces must report as *typed* errors rather than panics. Each
//! test drives a kernel or pipeline stage with degenerate input and
//! asserts the specific error variant, so a refactor that swaps a
//! typed error for a panic (or for a different variant) fails here
//! before it reaches `cargo xtask lint`.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use thermal_cluster::{cluster_trajectories, ClusterCount, ClusterError, SpectralConfig};
use thermal_core::timeseries::{Channel, Dataset, TimeGrid, Timestamp};
use thermal_linalg::{lstsq, CholeskyDecomposition, LinalgError, Matrix, Vector};

/// A column-rank-deficient least-squares problem (two identical
/// columns) is reported as `Singular`, not solved garbage and not a
/// panic. The index is the diagonal of `R` where QR's back
/// substitution broke down: the duplicate second column.
#[test]
fn rank_deficient_lstsq_is_singular() {
    let a = Matrix::from_rows(&[&[1.0, 1.0][..], &[2.0, 2.0][..], &[3.0, 3.0][..]]).unwrap();
    let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
    match lstsq::solve(&a, &b) {
        Err(LinalgError::Singular { index }) => assert_eq!(index, 1),
        other => panic!("expected Singular, got {other:?}"),
    }
}

/// Fewer observations than unknowns is `Underdetermined`, with the
/// offending shape carried in the variant.
#[test]
fn underdetermined_lstsq_carries_shape() {
    let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0][..]]).unwrap();
    let b = Vector::from_slice(&[1.0]);
    match lstsq::solve(&a, &b) {
        Err(LinalgError::Underdetermined { rows, cols }) => {
            assert_eq!((rows, cols), (1, 3));
        }
        other => panic!("expected Underdetermined, got {other:?}"),
    }
}

/// Cholesky on an indefinite matrix reports the offending pivot and
/// its (non-positive) value.
#[test]
fn non_psd_cholesky_reports_pivot() {
    let a = Matrix::from_rows(&[
        &[1.0, 2.0][..],
        &[2.0, 1.0][..], // eigenvalues 3 and -1: indefinite
    ])
    .unwrap();
    match CholeskyDecomposition::new(&a) {
        Err(LinalgError::NotPositiveDefinite { index, pivot }) => {
            assert_eq!(index, 1);
            assert!(pivot <= 0.0, "pivot {pivot} should be non-positive");
        }
        other => panic!("expected NotPositiveDefinite, got {other:?}"),
    }
}

/// An empty time grid is rejected at construction, so no dataset can
/// ever exist with zero samples.
#[test]
fn empty_grid_is_rejected() {
    assert!(matches!(
        TimeGrid::new(Timestamp::from_minutes(0), 5, 0),
        Err(thermal_core::timeseries::TimeSeriesError::InvalidGrid { .. })
    ));
}

/// A channel whose length disagrees with the grid is a typed
/// `LengthMismatch` naming the channel.
#[test]
fn short_channel_is_length_mismatch() {
    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 10).unwrap();
    let short = Channel::from_values("t1", vec![20.0; 7]).unwrap();
    match Dataset::new(grid, vec![short]) {
        Err(thermal_core::timeseries::TimeSeriesError::LengthMismatch {
            expected, actual, ..
        }) => {
            assert_eq!((expected, actual), (10, 7));
        }
        other => panic!("expected LengthMismatch, got {other:?}"),
    }
}

/// Asking spectral clustering for more clusters than sensors is a
/// `BadClusterCount` carrying both numbers.
#[test]
fn too_many_clusters_is_bad_cluster_count() {
    // Three sensors with distinct trajectories.
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|s| {
            (0..40)
                .map(|k| 20.0 + s as f64 + (k as f64 * (0.1 + 0.05 * s as f64)).sin())
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let traj = Matrix::from_rows(&refs).unwrap();
    let config = SpectralConfig {
        count: ClusterCount::Fixed(5),
        ..SpectralConfig::default()
    };
    match cluster_trajectories(&traj, &config) {
        Err(ClusterError::BadClusterCount { requested, sensors }) => {
            assert_eq!((requested, sensors), (5, 3));
        }
        other => panic!("expected BadClusterCount, got {other:?}"),
    }
}

/// Zero clusters is equally impossible and equally typed.
#[test]
fn zero_clusters_is_bad_cluster_count() {
    let rows: Vec<Vec<f64>> = (0..3)
        .map(|s| {
            (0..40)
                .map(|k| 20.0 + s as f64 + (k as f64 * 0.2).cos())
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let traj = Matrix::from_rows(&refs).unwrap();
    let config = SpectralConfig {
        count: ClusterCount::Fixed(0),
        ..SpectralConfig::default()
    };
    assert!(matches!(
        cluster_trajectories(&traj, &config),
        Err(ClusterError::BadClusterCount {
            requested: 0,
            sensors: 3
        })
    ));
}
