//! Validation and quarantine: turning raw faulty telemetry into the
//! gap-masked form the piece-wise identification (Eq. 4) expects.
//!
//! The testbed's backend stored whatever the sensors sent — including
//! implausible readings from dying hardware. Downstream stages assume
//! every present sample is trustworthy, so this module sits between
//! ingest and identification:
//!
//! 1. **range check** — readings outside a plausible physical band
//!    are quarantined (blanked to `None`),
//! 2. **spike rejection** — isolated samples that jump away from and
//!    back to their neighbourhood are quarantined,
//! 3. **stuck-run quarantine** — implausibly long runs of a
//!    bit-identical reading (a frozen sensor) are quarantined,
//! 4. **gap healing** — short gaps are optionally healed by holding
//!    the last value or linear interpolation; long gaps stay `None`
//!    so [`crate::segments_from_mask`] routes identification around
//!    them.
//!
//! Everything that was changed is accounted per channel in a
//! [`ValidationReport`], so fault-injection tests can assert the
//! layer caught exactly the corrupted samples.

use serde::{Deserialize, Serialize};

use crate::{Channel, Dataset, Result, TimeSeriesError};

/// What to do with gaps after quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GapPolicy {
    /// Leave every gap as `None` (the identification segments route
    /// around them) — the conservative default.
    Quarantine,
    /// Fill gaps of at most `max_len` slots by holding the last
    /// present value (needs a left neighbour).
    Hold {
        /// Longest gap to heal, slots.
        max_len: usize,
    },
    /// Fill gaps of at most `max_len` slots by linear interpolation
    /// (needs both neighbours).
    Interpolate {
        /// Longest gap to heal, slots.
        max_len: usize,
    },
}

/// Configuration of the validation layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationConfig {
    /// Smallest plausible reading (°C for temperature telemetry).
    pub min_value: f64,
    /// Largest plausible reading.
    pub max_value: f64,
    /// Largest plausible jump between a sample and its present
    /// neighbours before the sample counts as a spike; `0` disables
    /// spike rejection.
    pub max_step: f64,
    /// Longest plausible run of bit-identical consecutive readings;
    /// longer runs are quarantined as a frozen sensor. `0` disables
    /// stuck detection.
    pub max_stuck_run: usize,
    /// Gap-healing policy applied after quarantine.
    pub gap_policy: GapPolicy,
}

impl Default for ValidationConfig {
    /// Defaults tuned for the auditorium testbed: a 10–45 °C
    /// plausible band (the room never leaves it, garbage readings
    /// always do), a 4 °C per-slot spike threshold (room air cannot
    /// move that fast between 5-minute samples), a 6-hour stuck run
    /// at 5-minute sampling (72 slots — measurement noise makes
    /// honest runs that long astronomically unlikely), and no
    /// healing.
    fn default() -> Self {
        ValidationConfig {
            min_value: 10.0,
            max_value: 45.0,
            max_step: 4.0,
            max_stuck_run: 72,
            gap_policy: GapPolicy::Quarantine,
        }
    }
}

impl ValidationConfig {
    /// Validates the configuration itself.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidPolicy`] for a non-finite or
    /// inverted plausible band or a negative spike threshold.
    pub fn validate(&self) -> Result<()> {
        if !self.min_value.is_finite() || !self.max_value.is_finite() {
            return Err(TimeSeriesError::InvalidPolicy {
                reason: "plausible band must be finite",
            });
        }
        if self.min_value >= self.max_value {
            return Err(TimeSeriesError::InvalidPolicy {
                reason: "plausible band must have min < max",
            });
        }
        if !self.max_step.is_finite() || self.max_step < 0.0 {
            return Err(TimeSeriesError::InvalidPolicy {
                reason: "spike threshold must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Per-channel accounting of what validation changed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelQuality {
    /// Channel name.
    pub name: String,
    /// Samples quarantined by the range check.
    pub out_of_range: usize,
    /// Samples quarantined as spikes.
    pub spikes: usize,
    /// Samples quarantined as frozen-sensor runs.
    pub stuck: usize,
    /// Gap samples healed by the gap policy.
    pub healed: usize,
    /// Fraction of slots present before validation.
    pub coverage_before: f64,
    /// Fraction of slots present after quarantine and healing.
    pub coverage_after: f64,
}

impl ChannelQuality {
    /// Total samples quarantined in this channel.
    pub fn quarantined(&self) -> usize {
        self.out_of_range + self.spikes + self.stuck
    }
}

/// What validation did to a whole dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    channels: Vec<ChannelQuality>,
}

impl ValidationReport {
    /// Per-channel quality records, in dataset order.
    pub fn channels(&self) -> &[ChannelQuality] {
        &self.channels
    }

    /// Record for the named channel.
    pub fn channel(&self, name: &str) -> Option<&ChannelQuality> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// Total quarantined samples across channels.
    pub fn total_quarantined(&self) -> usize {
        self.channels.iter().map(ChannelQuality::quarantined).sum()
    }

    /// Total healed samples across channels.
    pub fn total_healed(&self) -> usize {
        self.channels.iter().map(|c| c.healed).sum()
    }

    /// `true` when validation changed nothing.
    pub fn is_clean(&self) -> bool {
        self.total_quarantined() == 0 && self.total_healed() == 0
    }
}

/// Validates every channel of `dataset`, returning the cleaned copy
/// and the report.
///
/// # Errors
///
/// * [`TimeSeriesError::InvalidPolicy`] for an inconsistent
///   configuration,
/// * construction errors only on internal invariant violations
///   (healing only writes finite values).
pub fn validate(
    dataset: &Dataset,
    config: &ValidationConfig,
) -> Result<(Dataset, ValidationReport)> {
    config.validate()?;
    let mut channels = Vec::with_capacity(dataset.channel_count());
    let mut quality = Vec::with_capacity(dataset.channel_count());
    for ch in dataset.channels() {
        let (cleaned, q) = validate_channel(ch, config)?;
        channels.push(cleaned);
        quality.push(q);
    }
    let cleaned = Dataset::new(*dataset.grid(), channels)?;
    Ok((cleaned, ValidationReport { channels: quality }))
}

/// Validates one channel (see [`validate`]).
///
/// # Errors
///
/// Same conditions as [`validate`].
pub fn validate_channel(
    channel: &Channel,
    config: &ValidationConfig,
) -> Result<(Channel, ChannelQuality)> {
    config.validate()?;
    let mut values: Vec<Option<f64>> = channel.iter_slots().collect();
    let n = values.len();
    let coverage_before = channel.coverage();

    // 1. Range check.
    let mut out_of_range = 0usize;
    for v in values.iter_mut() {
        if let Some(x) = *v {
            if x < config.min_value || x > config.max_value {
                *v = None;
                out_of_range += 1;
            }
        }
    }

    // 2. Spike rejection: a present sample whose nearest present
    // neighbours on both sides agree with each other but not with it.
    let mut spikes = 0usize;
    if config.max_step > 0.0 {
        let mut to_blank = Vec::new();
        for i in 0..n {
            let Some(x) = values[i] else { continue };
            let prev = values[..i].iter().rev().flatten().next().copied();
            let next = values[i + 1..].iter().flatten().next().copied();
            if let (Some(p), Some(q)) = (prev, next) {
                if (x - p).abs() > config.max_step
                    && (x - q).abs() > config.max_step
                    && (p - q).abs() <= config.max_step
                {
                    to_blank.push(i);
                }
            }
        }
        spikes = to_blank.len();
        for i in to_blank {
            values[i] = None;
        }
    }

    // 3. Stuck-run quarantine: runs of a bit-identical reading longer
    // than the plausible maximum (gaps break a run).
    let mut stuck = 0usize;
    if config.max_stuck_run > 0 {
        let mut run_start = 0usize;
        let mut i = 0usize;
        while i <= n {
            let same_run = i < n
                && i > run_start
                && matches!((values[i], values[i - 1]), (Some(a), Some(b)) if a == b);
            let run_alive = i < n && (i == run_start && values[i].is_some() || same_run);
            if !run_alive {
                let len = i.saturating_sub(run_start);
                if len > config.max_stuck_run && values.get(run_start).copied().flatten().is_some()
                {
                    for v in values.iter_mut().take(i).skip(run_start) {
                        *v = None;
                        stuck += 1;
                    }
                }
                run_start = if i < n && values[i].is_some() {
                    i
                } else {
                    i + 1
                };
            }
            i += 1;
        }
    }

    // 4. Gap healing.
    let mut healed = 0usize;
    match config.gap_policy {
        GapPolicy::Quarantine => {}
        GapPolicy::Hold { max_len } => {
            // Whole gaps only: partially holding the head of a long
            // gap would leave a shorter gap that a second validation
            // pass heals further — healing must be idempotent.
            let mut i = 0usize;
            while i < n {
                if values[i].is_some() {
                    i += 1;
                    continue;
                }
                let gap_start = i;
                let mut j = i;
                while j < n && values[j].is_none() {
                    j += 1;
                }
                let gap_len = j - gap_start;
                let left = gap_start
                    .checked_sub(1)
                    .and_then(|k| values.get(k).copied().flatten());
                if gap_len <= max_len {
                    if let Some(x) = left {
                        for v in values.iter_mut().take(j).skip(gap_start) {
                            *v = Some(x);
                            healed += 1;
                        }
                    }
                }
                i = j;
            }
        }
        GapPolicy::Interpolate { max_len } => {
            let mut i = 0usize;
            while i < n {
                if values[i].is_some() {
                    i += 1;
                    continue;
                }
                let gap_start = i;
                let mut j = i;
                while j < n && values[j].is_none() {
                    j += 1;
                }
                let gap_len = j - gap_start;
                let left = gap_start
                    .checked_sub(1)
                    .and_then(|k| values.get(k).copied().flatten());
                let right = values.get(j).copied().flatten();
                if gap_len <= max_len {
                    if let (Some(a), Some(b)) = (left, right) {
                        for (k, v) in values.iter_mut().take(j).skip(gap_start).enumerate() {
                            let t = (k + 1) as f64 / (gap_len + 1) as f64;
                            *v = Some(a + (b - a) * t);
                            healed += 1;
                        }
                    }
                }
                i = j;
            }
        }
    }

    let cleaned = Channel::new(channel.name(), values)?;
    let coverage_after = cleaned.coverage();
    let quality = ChannelQuality {
        name: channel.name().to_owned(),
        out_of_range,
        spikes,
        stuck,
        healed,
        coverage_before,
        coverage_after,
    };
    Ok((cleaned, quality))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimeGrid, Timestamp};

    fn config() -> ValidationConfig {
        ValidationConfig::default()
    }

    #[test]
    fn clean_channel_passes_untouched() {
        let ch = Channel::from_values("a", (0..100).map(|i| 20.0 + (i % 7) as f64 * 0.1).collect())
            .unwrap();
        let (cleaned, q) = validate_channel(&ch, &config()).unwrap();
        assert_eq!(cleaned, ch);
        assert_eq!(q.quarantined(), 0);
        assert_eq!(q.healed, 0);
        assert_eq!(q.coverage_before, q.coverage_after);
    }

    #[test]
    fn out_of_range_is_quarantined() {
        let ch = Channel::new(
            "a",
            vec![Some(20.0), Some(140.0), Some(20.2), Some(-40.0), Some(20.4)],
        )
        .unwrap();
        let (cleaned, q) = validate_channel(&ch, &config()).unwrap();
        assert_eq!(q.out_of_range, 2);
        assert_eq!(cleaned.value(1), None);
        assert_eq!(cleaned.value(3), None);
        assert_eq!(cleaned.value(0), Some(20.0));
    }

    #[test]
    fn isolated_spike_is_quarantined_but_steps_survive() {
        // A spike at slot 2; a genuine level shift at slot 6 stays.
        let ch = Channel::from_values(
            "a",
            vec![20.0, 20.1, 31.0, 20.2, 20.3, 20.2, 26.0, 26.1, 26.0],
        )
        .unwrap();
        let (cleaned, q) = validate_channel(&ch, &config()).unwrap();
        assert_eq!(q.spikes, 1);
        assert_eq!(cleaned.value(2), None);
        assert_eq!(cleaned.value(6), Some(26.0), "level shifts are not spikes");
    }

    #[test]
    fn stuck_runs_longer_than_threshold_are_quarantined() {
        let mut values = vec![20.0; 100];
        for (i, v) in values.iter_mut().enumerate().take(20) {
            *v = 19.0 + i as f64 * 0.05;
        }
        let ch = Channel::from_values("a", values).unwrap();
        let (cleaned, q) = validate_channel(&ch, &config()).unwrap();
        assert_eq!(q.stuck, 80, "the 80-slot frozen tail goes");
        assert!(cleaned.value(50).is_none());
        assert!(cleaned.value(5).is_some());
        // Short identical runs survive (quantised flat nights).
        let short = Channel::from_values("b", vec![20.0; 30]).unwrap();
        let (_, q2) = validate_channel(&short, &config()).unwrap();
        assert_eq!(q2.stuck, 0);
    }

    #[test]
    fn hold_heals_short_gaps_only() {
        let ch = Channel::new(
            "a",
            vec![
                Some(20.0),
                None,
                None,
                Some(21.0),
                None,
                None,
                None,
                Some(22.0),
            ],
        )
        .unwrap();
        let cfg = ValidationConfig {
            gap_policy: GapPolicy::Hold { max_len: 2 },
            ..config()
        };
        let (cleaned, q) = validate_channel(&ch, &cfg).unwrap();
        // The 2-gap is healed in full; the 3-gap exceeds max_len and
        // stays fully open (no partial heal — see the idempotence
        // property test in tests/proptests.rs).
        assert_eq!(q.healed, 2);
        assert_eq!(cleaned.value(1), Some(20.0));
        assert_eq!(cleaned.value(2), Some(20.0));
        assert_eq!(cleaned.value(4), None, "gap beyond max_len stays open");
        assert_eq!(cleaned.value(5), None, "gap beyond max_len stays open");
        assert_eq!(cleaned.value(6), None, "gap beyond max_len stays open");
    }

    #[test]
    fn hold_is_idempotent_even_around_long_gaps() {
        let ch = Channel::new(
            "a",
            vec![
                Some(20.0),
                None,
                None,
                None,
                Some(21.0),
                None,
                Some(22.0),
                None,
                None,
            ],
        )
        .unwrap();
        let cfg = ValidationConfig {
            gap_policy: GapPolicy::Hold { max_len: 2 },
            ..config()
        };
        let (once, q1) = validate_channel(&ch, &cfg).unwrap();
        let (twice, q2) = validate_channel(&once, &cfg).unwrap();
        assert_eq!(once.values(), twice.values());
        assert_eq!(q2.healed, 0, "a second pass must find nothing to heal");
        assert_eq!(q1.healed, 3); // the 1-gap and the trailing 2-gap
    }

    #[test]
    fn interpolate_needs_both_neighbours() {
        let ch = Channel::new("a", vec![None, Some(20.0), None, None, Some(23.0), None]).unwrap();
        let cfg = ValidationConfig {
            gap_policy: GapPolicy::Interpolate { max_len: 2 },
            ..config()
        };
        let (cleaned, q) = validate_channel(&ch, &cfg).unwrap();
        assert_eq!(q.healed, 2);
        assert!((cleaned.value(2).unwrap() - 21.0).abs() < 1e-12);
        assert!((cleaned.value(3).unwrap() - 22.0).abs() < 1e-12);
        assert_eq!(cleaned.value(0), None, "leading gap has no left neighbour");
        assert_eq!(
            cleaned.value(5),
            None,
            "trailing gap has no right neighbour"
        );
    }

    #[test]
    fn hold_heals_nothing_beyond_trace_start() {
        let ch = Channel::new("a", vec![None, None, Some(20.0)]).unwrap();
        let cfg = ValidationConfig {
            gap_policy: GapPolicy::Hold { max_len: 5 },
            ..config()
        };
        let (cleaned, q) = validate_channel(&ch, &cfg).unwrap();
        assert_eq!(q.healed, 0);
        assert_eq!(cleaned.value(0), None);
    }

    #[test]
    fn dataset_validation_reports_per_channel() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 4).unwrap();
        let ds = Dataset::new(
            grid,
            vec![
                Channel::from_values("good", vec![20.0, 20.1, 20.2, 20.3]).unwrap(),
                Channel::from_values("bad", vec![20.0, 99.0, 20.2, 20.3]).unwrap(),
            ],
        )
        .unwrap();
        let (cleaned, report) = validate(&ds, &config()).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.total_quarantined(), 1);
        assert_eq!(report.channel("good").unwrap().quarantined(), 0);
        assert_eq!(report.channel("bad").unwrap().out_of_range, 1);
        assert!(report.channel("zzz").is_none());
        assert_eq!(cleaned.channel("bad").unwrap().value(1), None);
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let ch = Channel::from_values("a", vec![20.0]).unwrap();
        for cfg in [
            ValidationConfig {
                min_value: 50.0,
                max_value: 10.0,
                ..config()
            },
            ValidationConfig {
                min_value: f64::NEG_INFINITY,
                ..config()
            },
            ValidationConfig {
                max_step: -1.0,
                ..config()
            },
        ] {
            assert!(matches!(
                validate_channel(&ch, &cfg),
                Err(TimeSeriesError::InvalidPolicy { .. })
            ));
        }
    }

    #[test]
    fn disabled_detectors_do_nothing() {
        let ch = Channel::from_values("a", vec![20.0; 200]).unwrap();
        let cfg = ValidationConfig {
            max_stuck_run: 0,
            max_step: 0.0,
            ..config()
        };
        let (cleaned, q) = validate_channel(&ch, &cfg).unwrap();
        assert_eq!(cleaned, ch);
        assert_eq!(q.quarantined(), 0);
    }
}
