//! The synthetic campaign shared by the harness's `stream` and
//! `recovery` scenarios, so the two stress one physics: six sensors in
//! two thermal families of three, driven by one shared input, and the
//! first-order reduced model both of them serve. Pure arithmetic —
//! bit-identical on every run.

use thermal_core::{ClusterCount, ModelOrder, ReducedModel, SelectorKind, ThermalPipeline};
use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};

/// Event-loop slots per simulated day (5-minute telemetry).
pub const SLOTS_PER_DAY: usize = 288;

/// The campaign over `days` × [`SLOTS_PER_DAY`] five-minute slots: the
/// input `u` and the sensors `s0`..`s5`.
///
/// # Errors
///
/// Returns a description when `days` is zero.
pub fn synth_dataset(days: usize) -> Result<Dataset, String> {
    let n = days * SLOTS_PER_DAY;
    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).map_err(|e| e.to_string())?;
    let u: Vec<f64> = (0..n)
        .map(|k| 0.5 + 0.5 * (k as f64 * 0.11).sin())
        .collect();
    let mut channels = vec![Channel::from_values("u", u.clone()).map_err(|e| e.to_string())?];
    let params = [
        (1.0_f64, 20.0_f64),
        (1.05, 20.1),
        (1.1, 20.2),
        (-1.0, 22.0),
        (-0.95, 22.1),
        (-0.9, 22.2),
    ];
    for (i, (gain, base)) in params.into_iter().enumerate() {
        let mut t = vec![base];
        for k in 0..n - 1 {
            let wiggle = 0.01 * (((k * 31 + i * 7) % 17) as f64 / 17.0);
            t.push(0.9 * t[k] + 0.1 * base + gain * 0.2 * u[k] + wiggle);
        }
        channels.push(Channel::from_values(format!("s{i}"), t).map_err(|e| e.to_string())?);
    }
    Dataset::new(grid, channels).map_err(|e| e.to_string())
}

/// Fits the two-cluster, near-mean, first-order reduced model of the
/// campaign's six sensors on input `u`.
///
/// # Errors
///
/// Returns the pipeline's error as text.
pub fn fit_model(dataset: &Dataset, seed: u64) -> Result<ReducedModel, String> {
    ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(2))
        .selector(SelectorKind::NearMean)
        .model_order(ModelOrder::First)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?
        .fit(
            dataset,
            &["s0", "s1", "s2", "s3", "s4", "s5"],
            &["u"],
            &Mask::all(dataset.grid()),
        )
        .map_err(|e| e.to_string())
}
