//! Composable, seed-deterministic fault injection into datasets.
//!
//! A [`FaultPlan`] is a list of [`FaultDirective`]s, each naming one
//! [`FaultKind`], a target set of channels and an `intensity` knob in
//! `[0, 1]`. Applying the plan to a [`Dataset`] produces the faulted
//! copy plus the ground-truth [`FaultLog`] of what
//! was injected where.
//!
//! # Determinism contract
//!
//! Injection derives every random stream from
//! `seed ^ FAULT_STREAM_SALT ^ f(directive index) ^ g(channel index)`
//! (`StdRng`, a portable ChaCha-based generator), so:
//!
//! * the same plan applied to the same dataset yields an identical
//!   faulted trace and log on every platform and every run,
//! * directives are independent: editing one directive's parameters
//!   never changes what *another* directive injects,
//! * channels are independent: the stream for channel `c` does not
//!   depend on how many other channels the directive targets.
//!
//! Only slot positions and comparison draws come from the RNG —
//! float arithmetic on the draws is elementary (no transcendental
//! functions), keeping traces bit-identical across platforms. A
//! pinned-trace regression test in the crate asserts this contract.
//!
//! At `intensity == 0.0` every directive is an exact no-op: the
//! returned dataset equals the input and the log stays clean — the
//! property that lets fault-matrix sweeps anchor their zero point to
//! the clean baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use thermal_linalg::cast;
use thermal_timeseries::{Channel, Dataset};

use crate::log::{FaultEvent, FaultLog};
use crate::{FaultError, Result};

/// Salt for the fault-injection RNG stream (distinct from the
/// simulator's sensor and disturbance salts).
const FAULT_STREAM_SALT: u64 = 0x4641_554c_5453_2121; // "FAULTS!!"

/// Longest stuck burst the injector will generate, slots.
const MAX_STUCK_LEN: usize = 2000;

/// One class of telemetry fault, with its physical parameters.
///
/// Each variant documents how the directive's `intensity` in `[0, 1]`
/// scales it; at `0.0` every variant injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// The reading freezes at its current value for a burst
    /// (ice-bound or saturated sensor). A burst starts at a present
    /// slot with probability `start_prob · intensity`; its length is
    /// geometric with mean `mean_len` slots.
    StuckAt {
        /// Per-slot burst start probability at intensity 1.
        start_prob: f64,
        /// Mean burst length, slots.
        mean_len: f64,
    },
    /// Slow additive calibration drift (aging electronics). Each
    /// target channel drifts with probability `intensity`, starting
    /// at a uniform slot, at a uniform rate up to
    /// `max_rate_per_day` °C/day with random sign.
    Drift {
        /// Largest drift rate at intensity 1, °C per day.
        max_rate_per_day: f64,
    },
    /// Isolated outlier readings (RF glitches). Each present slot is
    /// displaced with probability `prob · intensity` by
    /// `± magnitude · U(0.5, 1.5)`.
    Spike {
        /// Per-slot spike probability at intensity 1.
        prob: f64,
        /// Typical displacement magnitude, °C.
        magnitude: f64,
    },
    /// Readings replaced by physically implausible garbage (firmware
    /// faults; the in-dataset counterpart of NaN literals, which the
    /// dataset's finite-value invariant keeps out — see the csv
    /// hardening in `thermal-timeseries`). Each present slot is
    /// replaced with probability `prob · intensity` by a uniform
    /// value in `[low, high]`.
    Garbage {
        /// Per-slot garbage probability at intensity 1.
        prob: f64,
        /// Lower bound of the garbage band (finite).
        low: f64,
        /// Upper bound of the garbage band (finite).
        high: f64,
    },
    /// The channel's clock skews: its samples shift by
    /// `round(max_slots · intensity)` slots, direction drawn per
    /// channel (late or early). Vacated slots become gaps.
    ClockSkew {
        /// Largest shift at intensity 1, slots.
        max_slots: usize,
    },
    /// The channel dies mid-trace and never recovers (battery
    /// exhaustion). Each target channel dies with probability
    /// `intensity`; the onset is uniform over the trace.
    ChannelDeath,
    /// Whole days lost for *every* channel (backend/server outage —
    /// the paper's 98 → 64 day loss). Each day is lost with
    /// probability `day_prob · intensity`.
    DayOutage {
        /// Per-day loss probability at intensity 1.
        day_prob: f64,
    },
    /// The channel's *physics* change mid-trace and stay changed — a
    /// VAV damper fails wide open, the occupancy schedule shifts, the
    /// envelope loses insulation. Unlike sensor faults, the readings
    /// remain real measurements; they just obey a different process.
    /// From the deterministic onset slot `round(onset · len)` every
    /// present reading `v` becomes
    /// `m + (v − m)·(1 + gain_delta·intensity) + offset·intensity`,
    /// where `m` is the channel's pre-onset mean — an amplified
    /// swing around a shifted operating point. Needs no RNG draws:
    /// the same directive always shifts the same slots the same way.
    RegimeShift {
        /// Onset as a fraction of the trace length, in `[0, 1]`.
        onset: f64,
        /// Relative gain change at intensity 1 (`0.5` ⇒ swings 50 %
        /// wider). Must stay above `-1` so the gain remains positive.
        gain_delta: f64,
        /// Additive operating-point shift at intensity 1, °C.
        offset: f64,
    },
}

impl FaultKind {
    /// Short machine-friendly class name, matching
    /// [`FaultEvent::kind_name`](crate::FaultEvent::kind_name).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::StuckAt { .. } => "stuck",
            FaultKind::Drift { .. } => "drift",
            FaultKind::Spike { .. } => "spike",
            FaultKind::Garbage { .. } => "garbage",
            FaultKind::ClockSkew { .. } => "skew",
            FaultKind::ChannelDeath => "death",
            FaultKind::DayOutage { .. } => "outage",
            FaultKind::RegimeShift { .. } => "regime_shift",
        }
    }

    /// The paper-calibrated default parameters for each class, chosen
    /// so that intensity 1 is a severe but survivable campaign.
    pub fn default_params(name: &str) -> Option<FaultKind> {
        match name {
            "stuck" => Some(FaultKind::StuckAt {
                start_prob: 0.004,
                mean_len: 24.0,
            }),
            "drift" => Some(FaultKind::Drift {
                max_rate_per_day: 0.5,
            }),
            "spike" => Some(FaultKind::Spike {
                prob: 0.01,
                magnitude: 6.0,
            }),
            "garbage" => Some(FaultKind::Garbage {
                prob: 0.005,
                low: 90.0,
                high: 140.0,
            }),
            "skew" => Some(FaultKind::ClockSkew { max_slots: 6 }),
            "death" => Some(FaultKind::ChannelDeath),
            "outage" => Some(FaultKind::DayOutage { day_prob: 0.25 }),
            "regime_shift" => Some(FaultKind::RegimeShift {
                onset: 0.5,
                gain_delta: 0.6,
                offset: 1.5,
            }),
            _ => None,
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |reason: String| Err(FaultError::InvalidSpec { reason });
        match *self {
            FaultKind::StuckAt {
                start_prob,
                mean_len,
            } => {
                if !(0.0..=1.0).contains(&start_prob) {
                    return bad(format!("stuck start_prob {start_prob} outside [0, 1]"));
                }
                if !mean_len.is_finite() || mean_len < 1.0 {
                    return bad(format!("stuck mean_len {mean_len} must be >= 1"));
                }
            }
            FaultKind::Drift { max_rate_per_day } => {
                if !max_rate_per_day.is_finite() || max_rate_per_day <= 0.0 {
                    return bad(format!("drift rate {max_rate_per_day} must be positive"));
                }
            }
            FaultKind::Spike { prob, magnitude } => {
                if !(0.0..=1.0).contains(&prob) {
                    return bad(format!("spike prob {prob} outside [0, 1]"));
                }
                if !magnitude.is_finite() || magnitude <= 0.0 {
                    return bad(format!("spike magnitude {magnitude} must be positive"));
                }
            }
            FaultKind::Garbage { prob, low, high } => {
                if !(0.0..=1.0).contains(&prob) {
                    return bad(format!("garbage prob {prob} outside [0, 1]"));
                }
                if !low.is_finite() || !high.is_finite() || low > high {
                    return bad(format!(
                        "garbage band [{low}, {high}] must be finite and ordered"
                    ));
                }
            }
            FaultKind::ClockSkew { .. } | FaultKind::ChannelDeath => {}
            FaultKind::DayOutage { day_prob } => {
                if !(0.0..=1.0).contains(&day_prob) {
                    return bad(format!("outage day_prob {day_prob} outside [0, 1]"));
                }
            }
            FaultKind::RegimeShift {
                onset,
                gain_delta,
                offset,
            } => {
                if !(0.0..=1.0).contains(&onset) {
                    return bad(format!("regime_shift onset {onset} outside [0, 1]"));
                }
                if !gain_delta.is_finite() || gain_delta <= -1.0 {
                    return bad(format!(
                        "regime_shift gain_delta {gain_delta} must be finite and > -1"
                    ));
                }
                if !offset.is_finite() {
                    return bad(format!("regime_shift offset {offset} must be finite"));
                }
            }
        }
        Ok(())
    }
}

/// Which channels a directive targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultTargets {
    /// Every channel in the dataset.
    All,
    /// The named channels only (each must exist).
    Channels(Vec<String>),
}

/// One injection directive: a fault class, its targets and an
/// intensity knob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultDirective {
    /// The fault class and its parameters.
    pub kind: FaultKind,
    /// Which channels to corrupt.
    pub targets: FaultTargets,
    /// Severity in `[0, 1]`; `0` injects nothing, `1` applies the
    /// class parameters at full strength.
    pub intensity: f64,
}

impl FaultDirective {
    /// A directive over all channels.
    pub fn all(kind: FaultKind, intensity: f64) -> Self {
        FaultDirective {
            kind,
            targets: FaultTargets::All,
            intensity,
        }
    }

    /// A directive over the named channels.
    pub fn channels(kind: FaultKind, names: Vec<String>, intensity: f64) -> Self {
        FaultDirective {
            kind,
            targets: FaultTargets::Channels(names),
            intensity,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.intensity) {
            return Err(FaultError::InvalidSpec {
                reason: format!("intensity {} outside [0, 1]", self.intensity),
            });
        }
        self.kind.validate()
    }

    fn resolve_targets(&self, dataset: &Dataset) -> Result<Vec<usize>> {
        match &self.targets {
            FaultTargets::All => Ok((0..dataset.channel_count()).collect()),
            FaultTargets::Channels(names) => names
                .iter()
                .map(|n| {
                    dataset
                        .channel_index(n)
                        .ok_or_else(|| FaultError::UnknownChannel { name: n.clone() })
                })
                .collect(),
        }
    }
}

/// A seed-deterministic list of fault directives.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    directives: Vec<FaultDirective>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            directives: Vec::new(),
        }
    }

    /// Appends a directive (builder style).
    #[must_use]
    pub fn with(mut self, directive: FaultDirective) -> Self {
        self.directives.push(directive);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The directives, in application order.
    pub fn directives(&self) -> &[FaultDirective] {
        &self.directives
    }

    /// Validates every directive without applying anything.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidSpec`] for the first inconsistent
    /// directive.
    pub fn validate(&self) -> Result<()> {
        for d in &self.directives {
            d.validate()?;
        }
        Ok(())
    }

    /// The RNG stream for directive `d` on channel `c` — the
    /// determinism contract's `f`/`g` mixing.
    fn stream(&self, d: usize, c: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                ^ FAULT_STREAM_SALT
                ^ (d as u64)
                    .wrapping_add(1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (c as u64)
                    .wrapping_add(1)
                    .wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
        )
    }

    /// Applies every directive to `dataset`, returning the faulted
    /// copy and the ground-truth log.
    ///
    /// # Errors
    ///
    /// * [`FaultError::InvalidSpec`] for inconsistent directives,
    /// * [`FaultError::UnknownChannel`] for a named target missing
    ///   from the dataset,
    /// * [`FaultError::TimeSeries`] if reassembly fails (a bug, since
    ///   injection only produces finite values and gaps).
    pub fn apply(&self, dataset: &Dataset) -> Result<(Dataset, FaultLog)> {
        self.validate()?;
        let grid = *dataset.grid();
        let days: Vec<i64> = grid.iter().map(|(_, t)| t.day()).collect();
        let step_minutes = f64::from(grid.step_minutes());

        let mut columns: Vec<(String, Vec<Option<f64>>)> = dataset
            .channels()
            .iter()
            .map(|ch| (ch.name().to_owned(), ch.iter_slots().collect()))
            .collect();
        let mut log = FaultLog::new();

        for (d, directive) in self.directives.iter().enumerate() {
            if directive.intensity <= 0.0 {
                continue;
            }
            let targets = directive.resolve_targets(dataset)?;
            if let FaultKind::DayOutage { day_prob } = directive.kind {
                // One whole-trace stream (channel index usize::MAX is
                // out of band for per-channel streams).
                let mut rng = self.stream(d, usize::MAX);
                let p = day_prob * directive.intensity;
                let mut unique_days: Vec<i64> = days.clone();
                unique_days.dedup();
                for day in unique_days {
                    if rng.gen::<f64>() < p {
                        for (_, values) in columns.iter_mut() {
                            for (i, v) in values.iter_mut().enumerate() {
                                if days[i] == day {
                                    *v = None;
                                }
                            }
                        }
                        log.push(FaultEvent::DayOutage { day });
                    }
                }
                continue;
            }
            for &c in &targets {
                let mut rng = self.stream(d, c);
                let (name, values) = &mut columns[c];
                apply_channel(
                    &directive.kind,
                    directive.intensity,
                    &mut rng,
                    name,
                    values,
                    step_minutes,
                    &mut log,
                );
            }
        }

        let channels = columns
            .into_iter()
            .map(|(name, values)| Channel::new(name, values))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let faulted = Dataset::new(grid, channels)?;
        Ok((faulted, log))
    }
}

/// Applies one single-channel fault class to a value column.
fn apply_channel(
    kind: &FaultKind,
    intensity: f64,
    rng: &mut StdRng,
    name: &str,
    values: &mut [Option<f64>],
    step_minutes: f64,
    log: &mut FaultLog,
) {
    let n = values.len();
    match *kind {
        FaultKind::StuckAt {
            start_prob,
            mean_len,
        } => {
            let p_start = start_prob * intensity;
            let p_end = 1.0 / mean_len.max(1.0);
            let mut i = 0usize;
            while i < n {
                let present = values[i].is_some();
                if present && rng.gen::<f64>() < p_start {
                    let held = values[i].unwrap_or_default();
                    let mut len = 1usize;
                    while rng.gen::<f64>() > p_end && len < MAX_STUCK_LEN {
                        len += 1;
                    }
                    let end = (i + len).min(n);
                    for v in values.iter_mut().take(end).skip(i) {
                        if v.is_some() {
                            *v = Some(held);
                        }
                    }
                    log.push(FaultEvent::StuckAt {
                        channel: name.to_owned(),
                        start: i,
                        end,
                        held,
                    });
                    i = end;
                } else {
                    // Advance the stream identically whether or not
                    // the slot is present, so gap patterns do not
                    // change where later bursts land.
                    if !present {
                        let _ = rng.gen::<f64>();
                    }
                    i += 1;
                }
            }
        }
        FaultKind::Drift { max_rate_per_day } => {
            if rng.gen::<f64>() >= intensity || n == 0 {
                return;
            }
            let start = rng.gen_range(0..n);
            let rate_per_day = max_rate_per_day * (0.25 + 0.75 * rng.gen::<f64>());
            let sign = if rng.gen::<f64>() < 0.5 { -1.0 } else { 1.0 };
            let rate_per_slot = sign * rate_per_day * step_minutes / 1440.0;
            for (k, v) in values.iter_mut().skip(start).enumerate() {
                if let Some(x) = v {
                    *x += rate_per_slot * (k + 1) as f64;
                }
            }
            log.push(FaultEvent::Drift {
                channel: name.to_owned(),
                start,
                rate_per_slot,
            });
        }
        FaultKind::Spike { prob, magnitude } => {
            let p = prob * intensity;
            for (i, v) in values.iter_mut().enumerate() {
                // Draw position and shape unconditionally so spike
                // placement is independent of gap patterns.
                let hit = rng.gen::<f64>() < p;
                let scale = 0.5 + rng.gen::<f64>();
                let sign = if rng.gen::<f64>() < 0.5 { -1.0 } else { 1.0 };
                if hit {
                    if let Some(x) = v {
                        let delta = sign * magnitude * scale;
                        *x += delta;
                        log.push(FaultEvent::Spike {
                            channel: name.to_owned(),
                            index: i,
                            delta,
                        });
                    }
                }
            }
        }
        FaultKind::Garbage { prob, low, high } => {
            let p = prob * intensity;
            for (i, v) in values.iter_mut().enumerate() {
                let hit = rng.gen::<f64>() < p;
                let frac = rng.gen::<f64>();
                if hit {
                    if let Some(x) = v {
                        let value = low + (high - low) * frac;
                        *x = value;
                        log.push(FaultEvent::Garbage {
                            channel: name.to_owned(),
                            index: i,
                            value,
                        });
                    }
                }
            }
        }
        FaultKind::ClockSkew { max_slots } => {
            let shift = cast::round_to_index(max_slots as f64 * intensity, n);
            if shift == 0 || n == 0 {
                return;
            }
            let late = rng.gen::<f64>() < 0.5;
            let old: Vec<Option<f64>> = values.to_vec();
            let signed: i64;
            if late {
                signed = i64::try_from(shift).unwrap_or(i64::MAX);
                for (i, v) in values.iter_mut().enumerate() {
                    *v = if i >= shift { old[i - shift] } else { None };
                }
            } else {
                signed = -i64::try_from(shift).unwrap_or(i64::MAX);
                for (i, v) in values.iter_mut().enumerate() {
                    *v = old.get(i + shift).copied().flatten();
                }
            }
            log.push(FaultEvent::ClockSkew {
                channel: name.to_owned(),
                shift: signed,
            });
        }
        FaultKind::ChannelDeath => {
            if rng.gen::<f64>() >= intensity || n == 0 {
                return;
            }
            let start = rng.gen_range(0..n);
            for v in values.iter_mut().skip(start) {
                *v = None;
            }
            log.push(FaultEvent::ChannelDeath {
                channel: name.to_owned(),
                start,
            });
        }
        FaultKind::DayOutage { .. } => {
            // Handled at the plan level (affects every channel).
        }
        FaultKind::RegimeShift {
            onset,
            gain_delta,
            offset,
        } => {
            let start = cast::round_to_index(onset * n as f64, n);
            if start >= n {
                return;
            }
            // Pre-onset operating point; a channel with no pre-onset
            // data re-expresses around its post-onset mean instead
            // (pure level shift semantics still hold).
            let pre: Vec<f64> = values.iter().take(start).filter_map(|v| *v).collect();
            let post: Vec<f64> = values.iter().skip(start).filter_map(|v| *v).collect();
            let basis = if pre.is_empty() { &post } else { &pre };
            if basis.is_empty() {
                return; // nothing present anywhere: exact no-op
            }
            let mean = basis.iter().sum::<f64>() / basis.len() as f64;
            let gain = 1.0 + gain_delta * intensity;
            let shift = offset * intensity;
            for x in values.iter_mut().skip(start).flatten() {
                *x = mean + (*x - mean) * gain + shift;
            }
            log.push(FaultEvent::RegimeShift {
                channel: name.to_owned(),
                start,
                gain,
                offset: shift,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermal_timeseries::{TimeGrid, Timestamp};

    fn flat_dataset(n: usize, channels: usize) -> Dataset {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        let chans = (0..channels)
            .map(|c| Channel::from_values(format!("t{c:02}"), vec![20.0 + c as f64; n]).unwrap())
            .collect();
        Dataset::new(grid, chans).unwrap()
    }

    #[test]
    fn zero_intensity_is_identity() {
        let ds = flat_dataset(500, 3);
        let mut plan = FaultPlan::new(9);
        for name in [
            "stuck",
            "drift",
            "spike",
            "garbage",
            "skew",
            "death",
            "outage",
            "regime_shift",
        ] {
            let kind = FaultKind::default_params(name).unwrap();
            plan = plan.with(FaultDirective::all(kind, 0.0));
        }
        let (faulted, log) = plan.apply(&ds).unwrap();
        assert!(log.is_clean());
        assert_eq!(faulted, ds);
    }

    #[test]
    fn apply_is_deterministic_in_seed() {
        let ds = flat_dataset(800, 4);
        let plan = |seed| {
            FaultPlan::new(seed)
                .with(FaultDirective::all(
                    FaultKind::default_params("spike").unwrap(),
                    0.8,
                ))
                .with(FaultDirective::all(
                    FaultKind::default_params("stuck").unwrap(),
                    0.8,
                ))
        };
        let (a, log_a) = plan(1).apply(&ds).unwrap();
        let (b, log_b) = plan(1).apply(&ds).unwrap();
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        let (c, _) = plan(2).apply(&ds).unwrap();
        assert_ne!(a, c, "different seeds must inject differently");
    }

    #[test]
    fn directives_are_stream_independent() {
        let ds = flat_dataset(600, 2);
        let spike = FaultDirective::all(FaultKind::default_params("spike").unwrap(), 0.5);
        let solo = FaultPlan::new(3).with(spike.clone());
        let (_, solo_log) = solo.apply(&ds).unwrap();
        // Prepending an unrelated zero-effect directive must not move
        // the spike positions (directive index keys the stream, and
        // the spike directive keeps its index when we append first).
        let paired = FaultPlan::new(3)
            .with(spike)
            .with(FaultDirective::all(FaultKind::ChannelDeath, 0.0));
        let (_, paired_log) = paired.apply(&ds).unwrap();
        let spikes =
            |log: &FaultLog| log.corrupted_slots("t00", 600).len() + log.count_kind("spike");
        assert_eq!(spikes(&solo_log), spikes(&paired_log));
    }

    #[test]
    fn stuck_freezes_runs() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 400).unwrap();
        let ramp: Vec<f64> = (0..400).map(|i| i as f64 * 0.01).collect();
        let ds = Dataset::new(grid, vec![Channel::from_values("a", ramp).unwrap()]).unwrap();
        let plan = FaultPlan::new(11).with(FaultDirective::all(
            FaultKind::StuckAt {
                start_prob: 0.02,
                mean_len: 10.0,
            },
            1.0,
        ));
        let (faulted, log) = plan.apply(&ds).unwrap();
        assert!(log.count_kind("stuck") >= 1);
        for event in log.events() {
            if let FaultEvent::StuckAt {
                start, end, held, ..
            } = event
            {
                for i in *start..*end {
                    assert_eq!(faulted.channel("a").unwrap().value(i), Some(*held));
                }
            }
        }
    }

    #[test]
    fn death_erases_the_tail_and_outage_erases_days() {
        let ds = flat_dataset(288 * 3, 2); // 3 days at 5-minute sampling
        let plan = FaultPlan::new(5)
            .with(FaultDirective::channels(
                FaultKind::ChannelDeath,
                vec!["t00".into()],
                1.0,
            ))
            .with(FaultDirective::all(
                FaultKind::DayOutage { day_prob: 1.0 },
                1.0,
            ));
        let (faulted, log) = plan.apply(&ds).unwrap();
        assert_eq!(log.count_kind("death"), 1);
        assert_eq!(log.outage_days(), vec![0, 1, 2]);
        // Everything is gone on outage days; t00 is also dark after
        // its death onset.
        for ch in faulted.channels() {
            assert_eq!(ch.present_count(), 0);
        }
        // The log's lost mask reproduces exactly the missing slots.
        let mask = log.lost_mask("t00", 288 * 3, |i| (i / 288) as i64);
        assert_eq!(mask.count(), 288 * 3);
    }

    #[test]
    fn skew_shifts_the_timeline() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 100).unwrap();
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ds = Dataset::new(grid, vec![Channel::from_values("a", ramp).unwrap()]).unwrap();
        let plan = FaultPlan::new(2).with(FaultDirective::all(
            FaultKind::ClockSkew { max_slots: 4 },
            1.0,
        ));
        let (faulted, log) = plan.apply(&ds).unwrap();
        let FaultEvent::ClockSkew { shift, .. } = log.events()[0] else {
            panic!("expected a skew event");
        };
        assert_eq!(shift.unsigned_abs(), 4);
        let ch = faulted.channel("a").unwrap();
        if shift > 0 {
            assert_eq!(ch.value(0), None);
            assert_eq!(ch.value(4), Some(0.0));
        } else {
            assert_eq!(ch.value(0), Some(4.0));
            assert_eq!(ch.value(99), None);
        }
    }

    #[test]
    fn garbage_is_implausible_but_finite() {
        let ds = flat_dataset(2000, 1);
        let plan = FaultPlan::new(8).with(FaultDirective::all(
            FaultKind::Garbage {
                prob: 0.02,
                low: 90.0,
                high: 140.0,
            },
            1.0,
        ));
        let (faulted, log) = plan.apply(&ds).unwrap();
        assert!(log.count_kind("garbage") > 5);
        for event in log.events() {
            if let FaultEvent::Garbage { index, value, .. } = event {
                assert!((90.0..=140.0).contains(value));
                assert_eq!(faulted.channel("t00").unwrap().value(*index), Some(*value));
            }
        }
    }

    #[test]
    fn invalid_directives_are_rejected() {
        let ds = flat_dataset(10, 1);
        let bad_intensity =
            FaultPlan::new(0).with(FaultDirective::all(FaultKind::ChannelDeath, 2.0));
        assert!(matches!(
            bad_intensity.apply(&ds),
            Err(FaultError::InvalidSpec { .. })
        ));
        let bad_band = FaultPlan::new(0).with(FaultDirective::all(
            FaultKind::Garbage {
                prob: 0.1,
                low: 10.0,
                high: -10.0,
            },
            0.5,
        ));
        assert!(matches!(
            bad_band.apply(&ds),
            Err(FaultError::InvalidSpec { .. })
        ));
        let unknown = FaultPlan::new(0).with(FaultDirective::channels(
            FaultKind::ChannelDeath,
            vec!["nope".into()],
            0.5,
        ));
        assert!(matches!(
            unknown.apply(&ds),
            Err(FaultError::UnknownChannel { .. })
        ));
    }

    #[test]
    fn regime_shift_rescales_the_tail_deterministically() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 200).unwrap();
        // Oscillation around 20 so gain and offset are separable.
        let wave: Vec<f64> = (0..200).map(|k| 20.0 + (k as f64 * 0.3).sin()).collect();
        let ds =
            Dataset::new(grid, vec![Channel::from_values("a", wave.clone()).unwrap()]).unwrap();
        let kind = FaultKind::RegimeShift {
            onset: 0.5,
            gain_delta: 0.6,
            offset: 1.5,
        };
        let plan = FaultPlan::new(4).with(FaultDirective::all(kind.clone(), 1.0));
        let (faulted, log) = plan.apply(&ds).unwrap();
        assert_eq!(log.count_kind("regime_shift"), 1);
        let FaultEvent::RegimeShift {
            start,
            gain,
            offset,
            ..
        } = &log.events()[0]
        else {
            panic!("expected a regime_shift event");
        };
        assert_eq!(*start, 100);
        let ch = faulted.channel("a").unwrap();
        // Pre-onset untouched.
        for i in 0..100 {
            assert_eq!(ch.value(i), Some(wave[i]));
        }
        // Post-onset follows the documented transform exactly.
        let mean = wave.iter().take(100).sum::<f64>() / 100.0;
        for (i, &truth) in wave.iter().enumerate().skip(100) {
            let expect = mean + (truth - mean) * gain + offset;
            assert_eq!(ch.value(i), Some(expect));
        }
        // The log marks exactly the shifted tail as corrupted.
        assert_eq!(log.corrupted_slots("a", 200).len(), 100);
        // Determinism: no RNG involved, so the faulted trace is
        // identical under any seed.
        let (again, _) = FaultPlan::new(99)
            .with(FaultDirective::all(kind, 1.0))
            .apply(&ds)
            .unwrap();
        assert_eq!(faulted, again);
    }

    #[test]
    fn regime_shift_validation() {
        for kind in [
            FaultKind::RegimeShift {
                onset: 1.5,
                gain_delta: 0.5,
                offset: 0.0,
            },
            FaultKind::RegimeShift {
                onset: 0.5,
                gain_delta: -1.0,
                offset: 0.0,
            },
            FaultKind::RegimeShift {
                onset: 0.5,
                gain_delta: 0.5,
                offset: f64::NAN,
            },
        ] {
            assert!(FaultPlan::new(0)
                .with(FaultDirective::all(kind, 0.5))
                .validate()
                .is_err());
        }
    }

    #[test]
    fn default_params_cover_every_class() {
        for name in [
            "stuck",
            "drift",
            "spike",
            "garbage",
            "skew",
            "death",
            "outage",
            "regime_shift",
        ] {
            let kind = FaultKind::default_params(name).unwrap();
            assert_eq!(kind.name(), name);
            assert!(kind.validate().is_ok());
        }
        assert!(FaultKind::default_params("zzz").is_none());
    }
}
