//! Measurement imperfections of the wireless monitoring system.
//!
//! The paper's sensors are modified Emerson wireless thermostats with
//! ±0.5 °C accuracy that transmit over Bluetooth whenever the reading
//! moves by more than 0.1 °C; the backend suffered outages that cost
//! whole days (98 calendar days → 64 usable). This module turns the
//! simulator's clean zone temperatures into exactly that kind of
//! telemetry:
//!
//! * additive Gaussian noise (σ defaults to 0.17 °C ≈ ±0.5 °C at 3σ),
//! * per-sensor calibration bias,
//! * 0.1 °C report quantisation,
//! * per-sensor Bluetooth dropout bursts,
//! * whole-day server outages shared by all channels.
//!
//! # Determinism contract
//!
//! [`SensorLayer`] derives every random stream from
//! `seed ^ SENSOR_STREAM_SALT ^ h(sensor index)` (`StdRng`, a
//! portable ChaCha-based generator), mirroring the contract of
//! `thermal_faults::FaultPlan` (same mixing shape, different salt, so
//! the two layers never share a stream even under the same seed):
//!
//! * the same seed and config reproduce the identical telemetry on
//!   every platform and every run,
//! * sensors are independent: channel `c`'s noise, bias and dropout
//!   pattern do not depend on how many other channels are measured,
//! * outage days come from a dedicated sub-stream
//!   (`seed ^ SENSOR_STREAM_SALT ^ 0xdead_beef`), so redrawing them
//!   never moves any sensor's noise,
//! * the per-sample stream advances by exactly one draw on outage and
//!   dropout-continuation slots, so gap patterns do not shift the
//!   noise applied to later samples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Salt for the sensor-noise RNG stream.
const SENSOR_STREAM_SALT: u64 = 0x5345_4e53_4f52_5f5f; // "SENSOR__"

/// Configuration of the measurement layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Gaussian measurement noise, °C (1σ).
    pub noise_sigma: f64,
    /// Per-sensor calibration bias drawn once, °C (1σ).
    pub bias_sigma: f64,
    /// Report quantisation step, °C (the sensors report on 0.1 °C
    /// changes).
    pub quantisation: f64,
    /// Probability a dropout burst starts at a given sample.
    pub dropout_start_prob: f64,
    /// Expected dropout burst length, samples.
    pub dropout_mean_len: f64,
    /// Probability an entire day is lost to a server outage.
    pub outage_day_prob: f64,
    /// Thermal time constant of the sensor capsule, seconds: the
    /// enclosure low-passes the air temperature, so measured dynamics
    /// lag the air (`0` = ideal instantaneous sensor). This lag is one
    /// of the physical reasons the paper's second-order model beats
    /// the first-order one.
    pub time_constant_s: f64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        SensorConfig {
            noise_sigma: 0.12,
            bias_sigma: 0.15,
            quantisation: 0.1,
            dropout_start_prob: 0.002,
            dropout_mean_len: 4.0,
            outage_day_prob: 0.33,
            time_constant_s: 3600.0,
        }
    }
}

impl SensorConfig {
    /// A perfect-measurement configuration (no noise, no gaps) for
    /// controlled experiments.
    pub fn ideal() -> Self {
        SensorConfig {
            noise_sigma: 0.0,
            bias_sigma: 0.0,
            quantisation: 0.0,
            dropout_start_prob: 0.0,
            dropout_mean_len: 0.0,
            outage_day_prob: 0.0,
            time_constant_s: 0.0,
        }
    }
}

/// The measurement layer, deterministic in its seed.
#[derive(Debug, Clone)]
pub struct SensorLayer {
    config: SensorConfig,
    seed: u64,
}

impl SensorLayer {
    /// Creates a measurement layer.
    pub fn new(config: SensorConfig, seed: u64) -> Self {
        SensorLayer { config, seed }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// Applies noise, bias, quantisation and dropouts to one clean
    /// series, producing telemetry with gaps: one reading per clean
    /// sample, `None` for a gap, drawn as the iterator advances in slot
    /// order (`Channel::from_slots` writes them straight into a
    /// channel). `sensor_index` individualises the randomness per channel;
    /// `day_of_sample` maps sample indices to day indices for outage
    /// alignment.
    pub fn measure<'a>(
        &'a self,
        clean: &'a [f64],
        sensor_index: usize,
        outage_days: &'a [i64],
        day_of_sample: impl Fn(usize) -> i64 + 'a,
    ) -> impl ExactSizeIterator<Item = Option<f64>> + 'a {
        let c = &self.config;
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ SENSOR_STREAM_SALT
                ^ (sensor_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let bias = c.bias_sigma * gaussian(&mut rng);

        let mut dropout_left = 0usize;
        clean.iter().enumerate().map(move |(i, &v)| {
            // Server outage days are lost wholesale.
            if outage_days.contains(&day_of_sample(i)) {
                // keep the rng advancing identically regardless of outages
                let _ = rng.gen::<f64>();
                return None;
            }
            if dropout_left > 0 {
                dropout_left -= 1;
                let _ = rng.gen::<f64>();
                return None;
            }
            if c.dropout_start_prob > 0.0 && rng.gen::<f64>() < c.dropout_start_prob {
                // Geometric burst length with the configured mean.
                let p = 1.0 / c.dropout_mean_len.max(1.0);
                let mut len = 1usize;
                while rng.gen::<f64>() > p && len < 500 {
                    len += 1;
                }
                dropout_left = len.saturating_sub(1);
                return None;
            }
            let mut m = v + bias + c.noise_sigma * gaussian(&mut rng);
            if c.quantisation > 0.0 {
                m = (m / c.quantisation).round() * c.quantisation;
            }
            Some(m)
        })
    }

    /// Draws the set of whole days lost to server outages within
    /// `horizon_days`, leaving at least `min_usable` days intact.
    pub fn draw_outage_days(&self, horizon_days: usize, min_usable: usize) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ SENSOR_STREAM_SALT ^ 0xdead_beef);
        let mut out = Vec::new();
        let max_outages = horizon_days.saturating_sub(min_usable);
        for day in 0..horizon_days as i64 {
            if out.len() >= max_outages {
                break;
            }
            if rng.gen::<f64>() < self.config.outage_day_prob {
                out.push(day);
            }
        }
        out
    }
}

/// Standard normal draw via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_signal(n: usize) -> Vec<f64> {
        vec![21.0; n]
    }

    #[test]
    fn ideal_layer_is_transparent() {
        let layer = SensorLayer::new(SensorConfig::ideal(), 1);
        let clean = vec![20.0, 20.5, 21.0];
        let m: Vec<_> = layer.measure(&clean, 0, &[], |_| 0).collect();
        assert_eq!(m, vec![Some(20.0), Some(20.5), Some(21.0)]);
    }

    #[test]
    fn deterministic_per_seed_and_sensor() {
        let layer = SensorLayer::new(SensorConfig::default(), 7);
        let clean = flat_signal(500);
        let a = layer.measure(&clean, 3, &[], |_| 0).collect::<Vec<_>>();
        let b = layer.measure(&clean, 3, &[], |_| 0).collect::<Vec<_>>();
        assert_eq!(a, b);
        let c = layer.measure(&clean, 4, &[], |_| 0).collect::<Vec<_>>();
        assert_ne!(a, c, "different sensors get different noise streams");
        let other = SensorLayer::new(SensorConfig::default(), 8);
        assert_ne!(a, other.measure(&clean, 3, &[], |_| 0).collect::<Vec<_>>());
    }

    #[test]
    fn noise_is_bounded_and_quantised() {
        let layer = SensorLayer::new(SensorConfig::default(), 2);
        let clean = flat_signal(2000);
        let m = layer.measure(&clean, 0, &[], |_| 0).collect::<Vec<_>>();
        let mut present = 0;
        for v in m.into_iter().flatten() {
            present += 1;
            assert!((v - 21.0).abs() < 1.0, "reading {v} too far from truth");
            let q = (v / 0.1).round() * 0.1;
            assert!((v - q).abs() < 1e-9, "reading {v} not on the 0.1 grid");
        }
        assert!(present > 1800, "dropouts should be rare");
    }

    #[test]
    fn dropouts_form_bursts() {
        let config = SensorConfig {
            dropout_start_prob: 0.02,
            dropout_mean_len: 6.0,
            ..SensorConfig::default()
        };
        let layer = SensorLayer::new(config, 3);
        let clean = flat_signal(5000);
        let m = layer.measure(&clean, 1, &[], |_| 0).collect::<Vec<_>>();
        // Count gap runs and their mean length.
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for v in &m {
            if v.is_none() {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        assert!(!runs.is_empty(), "expected some dropout bursts");
        let mean_len: f64 = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(
            mean_len > 2.0,
            "bursts should average several samples, got {mean_len}"
        );
    }

    #[test]
    fn outage_days_blank_everything() {
        let layer = SensorLayer::new(SensorConfig::default(), 4);
        // 3 days of 10 samples each.
        let clean = flat_signal(30);
        let m = layer
            .measure(&clean, 0, &[1], |i| (i / 10) as i64)
            .collect::<Vec<_>>();
        for (i, v) in m.iter().enumerate() {
            if (10..20).contains(&i) {
                assert!(v.is_none(), "sample {i} inside outage day must be lost");
            }
        }
        // Other days mostly present.
        let present = m.iter().filter(|v| v.is_some()).count();
        assert!(present >= 15);
    }

    #[test]
    fn outage_draw_respects_min_usable() {
        let config = SensorConfig {
            outage_day_prob: 1.0, // would kill every day if allowed
            ..SensorConfig::default()
        };
        let layer = SensorLayer::new(config, 5);
        let outages = layer.draw_outage_days(98, 64);
        assert_eq!(outages.len(), 98 - 64);
        let layer2 = SensorLayer::new(SensorConfig::default(), 6);
        let outages2 = layer2.draw_outage_days(98, 64);
        assert!(outages2.len() <= 34);
        // Deterministic.
        assert_eq!(outages2, layer2.draw_outage_days(98, 64));
    }

    #[test]
    fn bias_shifts_a_whole_channel() {
        let mut config = SensorConfig::ideal();
        config.bias_sigma = 0.3;
        let layer = SensorLayer::new(config, 9);
        let clean = flat_signal(100);
        let m = layer.measure(&clean, 0, &[], |_| 0).collect::<Vec<_>>();
        let vals: Vec<f64> = m.into_iter().flatten().collect();
        let first = vals[0];
        assert!(vals.iter().all(|&v| (v - first).abs() < 1e-12));
        assert!(
            (first - 21.0).abs() > 1e-6,
            "bias should displace the channel"
        );
    }
}
