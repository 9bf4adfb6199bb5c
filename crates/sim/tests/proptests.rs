//! Property-based tests for the auditorium simulator.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use thermal_sim::{
    Drive, Layout, OccupancyConfig, OccupancySchedule, Rk4Buffers, SensorConfig, SensorLayer,
    ThermalParams, Weather, WeatherConfig, ZoneNetwork,
};
use thermal_timeseries::Timestamp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At thermal equilibrium (all temperatures equal to the effective
    /// outdoor value, no loads, no flow) the derivative vanishes.
    #[test]
    fn quiescent_equilibrium_is_stationary(temp in 10.0_f64..30.0) {
        let net = ZoneNetwork::new(Layout::auditorium(), ThermalParams::default());
        // effective outdoor = blend*ambient + (1-blend)*neighbor; pick
        // the ambient that makes it equal `temp`.
        let p = net.params().clone();
        let ambient = (temp - (1.0 - p.ambient_blend) * p.neighbor_temp) / p.ambient_blend;
        let state = net.initial_state(temp);
        let mut drive = Drive::quiescent(net.node_count(), temp);
        drive.ambient = ambient;
        let mut out = vec![0.0; net.state_len()];
        net.derivative(&state, &drive, &mut out);
        for d in out {
            prop_assert!(d.abs() < 1e-10, "derivative {d} at equilibrium");
        }
    }

    /// Monotone comparative statics: more occupant heat never cools
    /// any zone over a short run.
    #[test]
    fn more_people_never_cool_the_room(count in 0u32..90, extra in 1u32..30) {
        let net = ZoneNetwork::new(Layout::auditorium(), ThermalParams::default());
        let simulate = |people: u32| -> Vec<f64> {
            let mut state = net.initial_state(20.0);
            let mut drive = Drive::quiescent(net.node_count(), 20.0);
            drive.ambient = (20.0 - 0.8 * net.params().neighbor_temp) / 0.2;
            net.occupant_load(people, 0.3, &mut drive.occupant_watts);
            let mut buf = Rk4Buffers::new(net.state_len());
            for _ in 0..30 {
                net.rk4_step(&mut state, &drive, 60.0, &mut buf);
            }
            net.zone_temps(&state).to_vec()
        };
        let base = simulate(count);
        let more = simulate(count + extra);
        for (b, m) in base.iter().zip(&more) {
            prop_assert!(m >= b, "extra occupants cooled a zone: {b} -> {m}");
        }
    }

    /// Energy-ish sanity: with no internal gains and ambient below the
    /// room, the mean temperature never rises.
    #[test]
    fn cold_surroundings_never_warm_the_room(steps in 10usize..80) {
        let params = ThermalParams {
            ambient_blend: 1.0, // face the true ambient only
            ..ThermalParams::default()
        };
        let net = ZoneNetwork::new(Layout::auditorium(), params);
        let mut state = net.initial_state(22.0);
        let mut drive = Drive::quiescent(net.node_count(), 22.0);
        drive.ambient = 5.0;
        drive.supply_temp = 5.0;
        let mean = |s: &[f64]| -> f64 {
            let z = net.zone_temps(s);
            z.iter().sum::<f64>() / z.len() as f64
        };
        let mut last = mean(&state);
        let mut buf = Rk4Buffers::new(net.state_len());
        for _ in 0..steps {
            net.rk4_step(&mut state, &drive, 60.0, &mut buf);
            let now = mean(&state);
            prop_assert!(now <= last + 1e-9, "room warmed with cold surroundings");
            last = now;
        }
    }

    /// The occupancy schedule never exceeds capacity and is always
    /// zero in the small hours.
    #[test]
    fn occupancy_bounds(seed in 0u64..500, days in 1usize..30) {
        let cfg = OccupancyConfig::default();
        let cap = cfg.capacity;
        let s = OccupancySchedule::generate(cfg, days, seed);
        for day in 0..days as i64 {
            for minute in (0..1440).step_by(45) {
                let c = s.count_at(Timestamp::from_day_minute(day, minute));
                prop_assert!(c <= cap);
                if !(8 * 60..21 * 60).contains(&minute) {
                    prop_assert_eq!(c, 0, "people at day {} minute {}", day, minute);
                }
                let f = s.front_fraction_at(Timestamp::from_day_minute(day, minute));
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    /// The weather model stays within physical bounds for the
    /// campaign's season.
    #[test]
    fn weather_is_bounded(seed in 0u64..200) {
        let w = Weather::new(WeatherConfig::default(), 98, seed);
        for day in (0..98).step_by(7) {
            for minute in (0..1440).step_by(180) {
                let t = w.ambient(Timestamp::from_day_minute(day, minute));
                prop_assert!((-25.0..45.0).contains(&t), "ambient {t}");
            }
        }
    }

    /// The measurement layer preserves sample count and never invents
    /// non-finite readings.
    #[test]
    fn measurement_layer_is_shape_preserving(
        seed in 0u64..200,
        n in 10usize..200,
        level in 15.0_f64..25.0,
    ) {
        let layer = SensorLayer::new(SensorConfig::default(), seed);
        let clean: Vec<f64> = (0..n).map(|k| level + (k as f64 * 0.1).sin()).collect();
        let measured = layer.measure(&clean, 3, &[], |_| 0).collect::<Vec<_>>();
        prop_assert_eq!(measured.len(), n);
        for v in measured.into_iter().flatten() {
            prop_assert!(v.is_finite());
            prop_assert!((v - level).abs() < 3.0, "reading {v} far from truth {level}");
        }
    }

    /// Outage draws never exceed the budget implied by min-usable.
    #[test]
    fn outage_budget_is_respected(
        seed in 0u64..200,
        days in 4usize..120,
        keep_frac in 0.2_f64..0.9,
    ) {
        let keep = thermal_linalg::cast::floor_to_index((days as f64) * keep_frac, usize::MAX - 1);
        let layer = SensorLayer::new(SensorConfig::default(), seed);
        let outages = layer.draw_outage_days(days, keep);
        prop_assert!(outages.len() <= days - keep);
        for d in &outages {
            prop_assert!((0..days as i64).contains(d));
        }
    }
}
