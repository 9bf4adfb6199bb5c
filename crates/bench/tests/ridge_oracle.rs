//! Independent oracle for the default identification solve at the
//! paper's shape: the ridge path (Gram matrix + Cholesky, `λ = 1e-6`)
//! against Householder QR on plain least squares, for the 27-sensor
//! second-order model of a 30-day paper-layout campaign (campaign
//! seed 3: 1,850 × 61 training rows, 27 outputs).
//!
//! Bit-identity tests prove a kernel still computes what it computed
//! before; this one checks that what it computes is right.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use thermal_bench::protocol::Protocol;
use thermal_linalg::{lstsq, Matrix, QrDecomposition};
use thermal_sim::Scenario;
use thermal_sysid::regressors::assemble;
use thermal_sysid::{FitConfig, ModelOrder, ModelSpec};

/// Training RMS of `Y − XΘ` over every entry.
fn training_rms(x: &Matrix, y: &Matrix, theta_t: &Matrix) -> f64 {
    let residual = &x.matmul(theta_t).unwrap() - y;
    residual.norm_frobenius() / ((y.rows() * y.cols()) as f64).sqrt()
}

#[test]
fn ridge_solve_matches_householder_qr_at_paper_shape() {
    let scenario = Scenario::paper().with_days(30).with_seed(3);
    let protocol = Protocol::new(&scenario).unwrap();
    let spec = ModelSpec::new(
        protocol.temperature_channels(),
        protocol.input_channels(),
        ModelOrder::Second,
    )
    .unwrap();
    let data = assemble(&protocol.output.dataset, &spec, &protocol.train_occupied).unwrap();
    let (rows, width) = data.x.shape();
    assert_eq!(
        (width, data.y.cols()),
        (61, 27),
        "27-sensor second-order spec"
    );
    assert!((1_500..2_500).contains(&rows), "{rows} training rows");

    let ridge = lstsq::solve_ridge_matrix(&data.x, &data.y, FitConfig::default().ridge).unwrap();
    let qr = QrDecomposition::new(&data.x)
        .unwrap()
        .solve_matrix(&data.y)
        .unwrap();

    // Measured at 3.7e-5 on this campaign, and from 8.6e-6 to 7.4e-5
    // over campaign seeds 1–12 (1,850–2,060 rows): mostly the bias of
    // `λ = 1e-6`, which grows as fewer rows condition the Gram matrix.
    let rel = (&ridge - &qr).norm_frobenius() / qr.norm_frobenius();
    assert!(
        rel < 2e-4,
        "ridge vs QR coefficients differ by {rel:e} relative"
    );

    let (rms_ridge, rms_qr) = (
        training_rms(&data.x, &data.y, &ridge),
        training_rms(&data.x, &data.y, &qr),
    );
    // Measured at 1.4e-13 (at most 5.4e-13 over seeds 1–12).
    assert!(
        (rms_ridge - rms_qr).abs() < 1e-6,
        "training RMS ridge {rms_ridge} vs QR {rms_qr}"
    );
}
