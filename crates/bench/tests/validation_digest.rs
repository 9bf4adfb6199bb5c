//! Science tripwire for the validation path: an FNV-1a digest over
//! the cluster-mean errors and percentiles of a few reduced models and
//! the per-sensor RMS of a first- and a second-order Fig. 5 sweep, on
//! a small campaign, pinned to a literal.
//!
//! A rewrite of validation (percentiles, cluster-mean truth, rollouts,
//! sweep blocks) that is meant to keep the science must keep every
//! bit folded here. When the digest moves on purpose, say why in the
//! change and re-pin it from the `left` value the failure prints.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use thermal_bench::protocol::{occupied_horizon, Protocol};
use thermal_core::{ClusterCount, ModelOrder, SelectorKind, ThermalPipeline};
use thermal_sim::Scenario;
use thermal_sysid::sweep::sweep_training_horizon_with_cache;
use thermal_sysid::{EvalConfig, FitConfig, GramCache, ModelSpec};

/// Digest of the campaign below, captured before the selection-based
/// percentile, column-wise truth, packed rollouts and half-Gram sweep
/// blocks landed.
const PINNED: u64 = 0x22c4_1834_7ba2_5b83;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

#[test]
fn validation_digest_is_pinned() {
    let protocol = Protocol::new(&Scenario::quick().with_seed(5)).unwrap();
    let dataset = &protocol.output.dataset;
    let temps = protocol.temperature_channels();
    let inputs = protocol.input_channels();
    let temp_refs: Vec<&str> = temps.iter().map(String::as_str).collect();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let horizon = occupied_horizon(&protocol.output);
    let mut digest = Fnv::new();

    for selector in [
        SelectorKind::NearMean,
        SelectorKind::Random,
        SelectorKind::GpMutualInformation,
    ] {
        for k in [2, 3] {
            let reduced = ThermalPipeline::builder()
                .cluster_count(ClusterCount::Fixed(k))
                .selector(selector.clone())
                .model_order(ModelOrder::Second)
                .seed(17)
                .build()
                .unwrap()
                .fit(dataset, &temp_refs, &input_refs, &protocol.train_occupied)
                .unwrap();
            let report = reduced
                .evaluate_cluster_means(dataset, &protocol.val_occupied, horizon)
                .unwrap();
            digest.word(report.errors().len() as u64);
            for &e in report.errors() {
                digest.float(e);
            }
            for p in [50.0, 90.0, 99.0] {
                digest.float(report.percentile(p).unwrap());
            }
        }
    }

    let train_days = protocol.split.train.len();
    let counts = [2, train_days / 2, train_days];
    let mut cache = GramCache::new();
    for order in [ModelOrder::First, ModelOrder::Second] {
        let spec = ModelSpec::new(temps.clone(), inputs.clone(), order).unwrap();
        let points = sweep_training_horizon_with_cache(
            dataset,
            &spec,
            &protocol.occupied,
            &protocol.split.train,
            &counts,
            &protocol.split.validation,
            &FitConfig::default(),
            &EvalConfig::with_horizon(horizon),
            &mut cache,
        )
        .unwrap();
        assert_eq!(points.len(), counts.len());
        for point in &points {
            digest.float(point.parameter);
            for &rms in point.report.per_sensor_rms() {
                digest.float(rms);
            }
            digest.float(point.report.rms_percentile(90.0).unwrap());
        }
    }

    assert_eq!(
        digest.0, PINNED,
        "validation digest moved: {:#018x}",
        digest.0
    );
}
