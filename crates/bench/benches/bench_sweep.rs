//! Benchmark of the Fig. 5 parameter sweeps: the training-horizon
//! sweep (one model fit per window size over nested windows) and the
//! prediction-length sweep (one fit, many evaluation horizons).
//!
//! This is the workload the memoized Gram/regressor cache and the
//! incremental sweep engine (`thermal_sysid::cache`) accelerate: on
//! this exact fixture the training-horizon sweep went from 62.4 ms
//! (full refit per cell) to 9.5 ms (incremental engine) at commit
//! 7890f4a. Compare two builds with `cargo xtask bench --compare`.

// Benchmarks are fixture-driven: a panic on a broken fixture is the
// right failure mode, so the panic-free-library lints are relaxed here.
#![allow(missing_docs, clippy::expect_used, clippy::unwrap_used)]
use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use thermal_sysid::sweep::{sweep_prediction_length, sweep_training_horizon};
use thermal_sysid::{EvalConfig, FitConfig, ModelOrder, ModelSpec};
use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};

/// Days of synthetic telemetry (5-minute cadence).
const DAYS: usize = 20;
/// Slots per day at the 5-minute cadence.
const SLOTS_PER_DAY: usize = 288;
/// Sensor (output) channels — wide enough that the per-cell fit, not
/// the per-cell evaluation, dominates the sweep.
const SENSORS: usize = 12;

/// Shared fixture: the synthetic trace and the sweep's model spec.
struct Fixture {
    dataset: Dataset,
    spec: ModelSpec,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let n = DAYS * SLOTS_PER_DAY;
        let u1: Vec<f64> = (0..n)
            .map(|k| 0.5 + 0.4 * (k as f64 * 0.13).sin())
            .collect();
        let u2: Vec<f64> = (0..n)
            .map(|k| 0.3 + 0.3 * (k as f64 * 0.05).cos())
            .collect();
        let mut channels = vec![
            Channel::from_values("u1", u1.clone()).expect("input channel"),
            Channel::from_values("u2", u2.clone()).expect("input channel"),
        ];
        for s in 0..SENSORS {
            let gain1 = 0.1 + 0.02 * s as f64;
            let gain2 = 0.05 * if s % 2 == 0 { 1.0 } else { -1.0 };
            let base = 20.0 + 0.1 * s as f64;
            let mut t = vec![base];
            for k in 0..n - 1 {
                // Deterministic wiggle keeps the regression full-rank
                // without pulling in an RNG.
                let wiggle = 0.01 * (((k * 7919 + s * 104_729) % 1013) as f64 / 1013.0 - 0.5);
                t.push(0.93 * t[k] + 0.07 * base + gain1 * u1[k] + gain2 * u2[k] + wiggle);
            }
            channels.push(Channel::from_values(format!("s{s}"), t).expect("sensor channel"));
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).expect("grid");
        let dataset = Dataset::new(grid, channels).expect("dataset");
        let spec = ModelSpec::new(
            (0..SENSORS).map(|s| format!("s{s}")).collect(),
            vec!["u1".to_owned(), "u2".to_owned()],
            ModelOrder::Second,
        )
        .expect("spec");
        Fixture { dataset, spec }
    })
}

fn bench_sweep(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("fig5_training_horizon", |b| {
        let usable: Vec<i64> = (0..DAYS as i64 - 1).collect();
        let counts: Vec<usize> = (1..DAYS - 1).collect();
        let validation = [DAYS as i64 - 1];
        let mode_mask = Mask::all(f.dataset.grid());
        b.iter(|| {
            let points = sweep_training_horizon(
                &f.dataset,
                &f.spec,
                &mode_mask,
                &usable,
                &counts,
                &validation,
                &FitConfig::default(),
                &EvalConfig::default(),
            )
            .expect("sweep");
            assert_eq!(points.len(), counts.len());
            points.iter().map(|p| p.report.overall_rms()).sum::<f64>()
        })
    });
    group.bench_function("fig5_prediction_length", |b| {
        let train_days: Vec<i64> = (0..DAYS as i64 - 1).collect();
        let train_mask = Mask::days(f.dataset.grid(), &train_days);
        let validation_mask = Mask::days(f.dataset.grid(), &[DAYS as i64 - 1]);
        let horizons = [1_usize, 3, 6, 12, 24];
        b.iter(|| {
            let points = sweep_prediction_length(
                &f.dataset,
                &f.spec,
                &train_mask,
                &validation_mask,
                &horizons,
                &FitConfig::default(),
            )
            .expect("sweep");
            assert_eq!(points.len(), horizons.len());
            points.iter().map(|p| p.report.overall_rms()).sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
