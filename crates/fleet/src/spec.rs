//! Seed-deterministic building specifications.
//!
//! A fleet is minted from one master seed: building `i`'s entire
//! identity — room geometry, sensor grid, VAV authority split, HVAC
//! schedule, occupancy capacity — is a pure function of
//! `(fleet_seed, i)` via [`BuildingSpec::generate`]. Two invariants
//! carry the rest of the crate:
//!
//! * **determinism** — the same `(fleet_seed, id)` always yields the
//!   same spec, so a building can be re-derived anywhere (soak
//!   driver, bench, proptest) without shipping state around;
//! * **distinctness** — [`BuildingSpec::fingerprint`] folds every
//!   field, and the generator draws each building from an
//!   independent seed stream, so fleets of thousands have no two
//!   identical buildings (property-tested over 1k seeds).
//!
//! The spec deliberately stays within the simulator's validated
//! envelope (grid ≤ 6×6, positive dimensions, schedules inside one
//! day) so `spec.scenario(days)` can only fail on a bug, not on an
//! unlucky seed.

use thermal_ckpt::Fnv64;
use thermal_sim::{HvacConfig, Layout, OccupancyConfig, Scenario, SensorConfig, VAV_COUNT};

use crate::error::{FleetError, Result};

/// splitmix64: the generator's only source of randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the generator stream.
fn next_unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform integer draw in `lo..=hi` from the generator stream.
fn next_range(state: &mut u64, lo: u64, hi: u64) -> u64 {
    debug_assert!(hi >= lo);
    lo + splitmix64(state) % (hi - lo + 1)
}

/// Everything that makes one building of the fleet distinct.
///
/// All fields are public and plain so specs can be asserted on,
/// perturbed in tests, and rendered into reports without accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildingSpec {
    /// Fleet-assigned building id (index in the fleet).
    pub id: u32,
    /// Per-building master seed; every random stream of this
    /// building's campaign derives from it.
    pub seed: u64,
    /// Sensor-grid rows of the parametric layout.
    pub rows: usize,
    /// Sensor-grid columns of the parametric layout.
    pub cols: usize,
    /// Room width, metres.
    pub width: f64,
    /// Room depth, metres.
    pub depth: f64,
    /// Room height, metres.
    pub height: f64,
    /// Auditorium seating capacity.
    pub capacity: u32,
    /// Relative VAV box authorities (the plant's topology knob).
    pub box_weights: [f64; VAV_COUNT],
    /// Minute-of-day the HVAC enters on mode.
    pub on_minute: i64,
    /// Minute-of-day the HVAC returns to off mode.
    pub off_minute: i64,
    /// Cooling setpoint, °C.
    pub setpoint: f64,
    /// Clusters the reduced model groups this building's sensors
    /// into.
    pub cluster_count: usize,
}

impl BuildingSpec {
    /// Mints building `id` of the fleet seeded by `fleet_seed`.
    ///
    /// Pure and total: any `(fleet_seed, id)` yields a spec that
    /// passes [`BuildingSpec::scenario`] validation.
    #[must_use]
    pub fn generate(fleet_seed: u64, id: u32) -> Self {
        let seed = thermal_par::derive_seed(fleet_seed, u64::from(id));
        // The draw stream is salted off the building seed so the
        // spec draws never alias the campaign's own streams.
        let mut draw = seed ^ 0x464c_4545_5453_5045; // "FLEETSPE"
        let rows = usize::try_from(next_range(&mut draw, 2, 4)).unwrap_or(2);
        let cols = usize::try_from(next_range(&mut draw, 3, 5)).unwrap_or(3);
        let width = 12.0 + 12.0 * next_unit(&mut draw);
        let depth = 15.0 + 15.0 * next_unit(&mut draw);
        let height = 5.0 + 4.0 * next_unit(&mut draw);
        let capacity = 60 + u32::try_from(next_range(&mut draw, 0, 120)).unwrap_or(0);
        let mut box_weights = [0.0_f64; VAV_COUNT];
        for w in &mut box_weights {
            *w = 0.8 + 0.4 * next_unit(&mut draw);
        }
        // Schedules quantised to 5-minute marks, well inside one day.
        let on_minute = 5 * (next_range(&mut draw, 60, 84) as i64);
        let off_minute = 5 * (next_range(&mut draw, 240, 264) as i64);
        let setpoint = 19.5 + next_unit(&mut draw);
        let cluster_count = usize::try_from(next_range(&mut draw, 2, 3)).unwrap_or(2);
        BuildingSpec {
            id,
            seed,
            rows,
            cols,
            width,
            depth,
            height,
            capacity,
            box_weights,
            on_minute,
            off_minute,
            setpoint,
            cluster_count,
        }
    }

    /// Wireless sensors the layout carries (`rows × cols`); the two
    /// wall thermostats come on top.
    #[must_use]
    pub fn sensor_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Content fingerprint over every field — collision-free in
    /// practice (property-tested over 1k seeds) and stable across
    /// runs, so it doubles as the building's sysid-cache namespace.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(&self.id.to_le_bytes());
        h.update(&self.seed.to_le_bytes());
        h.update(&(self.rows as u64).to_le_bytes());
        h.update(&(self.cols as u64).to_le_bytes());
        h.update(&self.width.to_bits().to_le_bytes());
        h.update(&self.depth.to_bits().to_le_bytes());
        h.update(&self.height.to_bits().to_le_bytes());
        h.update(&self.capacity.to_le_bytes());
        for w in &self.box_weights {
            h.update(&w.to_bits().to_le_bytes());
        }
        h.update(&self.on_minute.to_le_bytes());
        h.update(&self.off_minute.to_le_bytes());
        h.update(&self.setpoint.to_bits().to_le_bytes());
        h.update(&(self.cluster_count as u64).to_le_bytes());
        let mut state = h.finish();
        splitmix64(&mut state)
    }

    /// Instantiates the spec as a runnable `days`-long campaign.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidSpec`] if the spec leaves the
    /// simulator's validated envelope — which for generated specs
    /// indicates a generator bug, not a data condition.
    pub fn scenario(&self, days: usize) -> Result<Scenario> {
        let layout = Layout::parametric(
            self.width,
            self.depth,
            self.height,
            self.rows,
            self.cols,
            thermal_par::derive_seed(self.seed, 0x4c41_594f), // "LAYO"
        )
        .map_err(|reason| FleetError::InvalidSpec {
            building: self.id,
            reason,
        })?;
        let hvac = HvacConfig {
            on_minute: self.on_minute,
            off_minute: self.off_minute,
            setpoint: self.setpoint,
            box_weights: self.box_weights,
            ..HvacConfig::default()
        };
        let occupancy = OccupancyConfig {
            capacity: self.capacity,
            ..OccupancyConfig::default()
        };
        // Fleet telemetry keeps full sensor noise/bias/quantisation
        // but no spontaneous dropouts or day-long outages: the fault
        // surface belongs exclusively to the plans the soak injects
        // into targeted buildings, so an untargeted building has
        // nothing that could trip its bulkhead.
        let sensors = SensorConfig {
            dropout_start_prob: 0.0,
            outage_day_prob: 0.0,
            ..SensorConfig::default()
        };
        let mut scenario = Scenario::quick()
            .with_days(days)
            .with_seed(self.seed)
            .with_occupancy(occupancy)
            .with_sensors(sensors);
        scenario.layout = layout;
        scenario.hvac = hvac;
        scenario.validate().map_err(|e| FleetError::InvalidSpec {
            building: self.id,
            reason: e.to_string(),
        })?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = BuildingSpec::generate(7, 42);
        let b = BuildingSpec::generate(7, 42);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_value_is_pinned() {
        // The building's sysid-cache namespace: a change to the hash
        // must show up here, not as silently moved cache slots.
        assert_eq!(
            BuildingSpec::generate(7, 42).fingerprint(),
            0xf9e5_ecea_61ad_8297
        );
    }

    #[test]
    fn distinct_ids_yield_distinct_buildings() {
        let a = BuildingSpec::generate(7, 0);
        let b = BuildingSpec::generate(7, 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn generated_specs_instantiate_valid_scenarios() {
        for id in 0..16 {
            let spec = BuildingSpec::generate(99, id);
            let scenario = spec.scenario(2).unwrap();
            assert_eq!(scenario.days, 2);
            assert_eq!(scenario.seed, spec.seed);
            assert_eq!(
                scenario.layout.sites().len(),
                spec.sensor_count() + 2,
                "grid sensors plus two thermostats"
            );
        }
    }

    #[test]
    fn spec_fields_stay_in_the_validated_envelope() {
        for id in 0..64 {
            let s = BuildingSpec::generate(3, id);
            assert!((2..=4).contains(&s.rows));
            assert!((3..=5).contains(&s.cols));
            assert!(s.width > 0.0 && s.depth > 0.0 && s.height > 0.0);
            assert!((60..=180).contains(&s.capacity));
            assert!(s.on_minute < s.off_minute);
            assert!((2..=3).contains(&s.cluster_count));
        }
    }
}
