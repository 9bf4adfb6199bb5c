//! Turning batch traces into live event streams: deterministic
//! interleaving, row-tolerant CSV ingest, and flaky-source
//! supervision.
//!
//! Three ingest layers, composable in any order:
//!
//! * [`parse_csv_events`] — parses CSV text *row by row and field by
//!   field*, rejecting individual corrupt cells (NaN/inf literals,
//!   junk, truncated rows) with counters instead of failing the whole
//!   document the way the strict batch parser
//!   ([`thermal_timeseries::csv::read_csv`]) must,
//! * [`TraceReplayer`] — converts per-slot readings into a delivery
//!   schedule with seed-deterministic out-of-order delays and
//!   duplicated packets, the adversary the reorder stage exists for,
//! * [`FlakySource`] — wraps the schedule in a source that fails
//!   deterministically, supervised by capped-exponential
//!   [`crate::Backoff`] and the [`thermal_ckpt::CircuitBreaker`];
//!   failed polls delay delivery (data arrives late, never vanishes
//!   silently).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thermal_ckpt::codec::Record;
use thermal_ckpt::{BreakerPolicy, CircuitBreaker, CkptError, Fields, Snapshot};
use thermal_timeseries::{TimeGrid, Timestamp};

use crate::backoff::{Backoff, BackoffPolicy};
use crate::event::Reading;
use crate::{Result, StreamError};

/// Salt of the replay-jumble RNG stream (decorrelates it from every
/// other seeded subsystem).
const REPLAY_STREAM_SALT: u64 = 0x5354_5245_414d_4a4c; // "STREAMJL"

/// Field-level accounting of a row-tolerant CSV parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Fields parsed into readings.
    pub parsed: u64,
    /// Fields rejected as non-finite literals (`NaN`, `inf`).
    pub non_finite: u64,
    /// Fields rejected as non-numeric junk.
    pub malformed: u64,
    /// Fields missing because the row was truncated.
    pub missing_fields: u64,
    /// Whole rows skipped (unparseable timestamp or blank line).
    pub skipped_rows: u64,
}

thermal_ckpt::fields!(IngestStats: parsed, non_finite, malformed, missing_fields, skipped_rows);

impl IngestStats {
    /// Total fields rejected at the ingest boundary.
    pub fn rejected(&self) -> u64 {
        self.non_finite + self.malformed + self.missing_fields
    }
}

/// Parses `minutes,<ch>,...` CSV text into per-slot reading batches,
/// tolerating corrupt cells.
///
/// `channels` maps each CSV column (after the timestamp) to a
/// registry index; a column with no mapping (`None`) is ignored.
/// Returns one batch per input row in row order, each holding that
/// row's parseable readings in column order, plus the rejection
/// accounting. Empty cells are gaps, not errors, matching the batch
/// CSV dialect.
///
/// # Errors
///
/// Returns [`StreamError::InvalidConfig`] when the header is missing
/// or `channels` does not match the header's column count — a
/// *structural* mismatch, unlike per-cell corruption, which is
/// counted and skipped.
pub fn parse_csv_events(
    text: &str,
    channels: &[Option<usize>],
) -> Result<(Vec<Vec<Reading>>, IngestStats)> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| StreamError::InvalidConfig {
        reason: "csv document has no header".to_owned(),
    })?;
    let columns = header.split(',').count();
    if columns < 2 {
        return Err(StreamError::InvalidConfig {
            reason: "csv header needs a timestamp column and at least one channel".to_owned(),
        });
    }
    if channels.len() != columns - 1 {
        return Err(StreamError::InvalidConfig {
            reason: format!(
                "channel mapping covers {} columns but the header has {}",
                channels.len(),
                columns - 1
            ),
        });
    }
    let mut stats = IngestStats::default();
    let mut batches = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            stats.skipped_rows += 1;
            continue;
        }
        let mut fields = line.split(',');
        let Some(minutes) = fields.next().and_then(|f| f.trim().parse::<i64>().ok()) else {
            stats.skipped_rows += 1;
            continue;
        };
        let at = Timestamp::from_minutes(minutes);
        let mut batch = Vec::new();
        for (col, target) in channels.iter().enumerate() {
            let Some(raw) = fields.next() else {
                // Truncated row: this and every later column is gone.
                stats.missing_fields += (channels.len() - col) as u64;
                break;
            };
            let Some(&channel) = target.as_ref() else {
                continue;
            };
            let cell = raw.trim();
            if cell.is_empty() {
                continue; // explicit gap
            }
            match cell.parse::<f64>() {
                Ok(v) if v.is_finite() => {
                    stats.parsed += 1;
                    batch.push(Reading {
                        channel,
                        at,
                        value: v,
                    });
                }
                Ok(_) => stats.non_finite += 1,
                Err(_) => stats.malformed += 1,
            }
        }
        batches.push(batch);
    }
    Ok((batches, stats))
}

/// Delay/duplication knobs of the replay jumble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Probability a reading is delivered late.
    pub delay_prob: f64,
    /// Largest delivery delay, slots (late readings draw uniformly
    /// from `1..=max_delay_slots`).
    pub max_delay_slots: u64,
    /// Probability a reading is delivered twice (the duplicate gets
    /// its own independent delay).
    pub duplicate_prob: f64,
    /// Seed of the jumble stream.
    pub seed: u64,
}

impl Default for ReplayConfig {
    /// A mild adversary: 15 % of packets late by up to 4 slots, 5 %
    /// duplicated.
    fn default() -> Self {
        ReplayConfig {
            delay_prob: 0.15,
            max_delay_slots: 4,
            duplicate_prob: 0.05,
            seed: 0,
        }
    }
}

impl ReplayConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for probabilities
    /// outside `[0, 1]` or a zero maximum delay with a non-zero delay
    /// probability.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("delay_prob", self.delay_prob),
            ("duplicate_prob", self.duplicate_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(StreamError::InvalidConfig {
                    reason: format!("{name} must be a probability in [0, 1]"),
                });
            }
        }
        if self.delay_prob > 0.0 && self.max_delay_slots == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "max_delay_slots must be at least 1 when delays are enabled".to_owned(),
            });
        }
        Ok(())
    }
}

/// A replayable delivery schedule: for each event-loop slot, the
/// readings that *arrive* in that slot (possibly measured earlier,
/// possibly duplicated).
///
/// The schedule is built once, at its exact size, and never changes
/// afterwards, so clones share it: cloning a replayer (or a
/// [`FlakySource`] around one) bumps two reference counts instead of
/// copying the deliveries.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    /// Every delivery, grouped by slot; within a slot, in draw order.
    readings: Arc<[Reading]>,
    /// `slots() + 1` ascending offsets into `readings`: slot `s`
    /// delivers `readings[starts[s]..starts[s + 1]]`. Both slices'
    /// pointers and lengths live in the replayer, so a poll loads an
    /// offset pair and then its readings, with no shared header to
    /// load first.
    starts: Arc<[usize]>,
    grid: TimeGrid,
}

impl TraceReplayer {
    /// Builds the delivery schedule from per-slot measurement batches
    /// (`batches[i]` measured at grid slot `i`, e.g. from
    /// [`parse_csv_events`]).
    ///
    /// Every reading is delivered no earlier than its measurement
    /// slot; the jumble only delays and duplicates, never invents or
    /// destroys — loss is the queue/reorder layer's decision, where
    /// it is counted. The delay draw for a reading depends only on
    /// `(seed, slot, index-within-slot)`, so the schedule is
    /// bit-identical on every run.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when `config` is
    /// invalid, the batch count exceeds the grid, or the grid plus
    /// `max_delay_slots` of tail slack overflows `usize`.
    pub fn new(grid: TimeGrid, batches: &[Vec<Reading>], config: &ReplayConfig) -> Result<Self> {
        config.validate()?;
        if batches.len() > grid.len() {
            return Err(StreamError::InvalidConfig {
                reason: format!(
                    "{} measurement batches exceed the {}-slot grid",
                    batches.len(),
                    grid.len()
                ),
            });
        }
        let horizon = horizon(grid, config)?;
        // Draw each reading's delivery slot, and its duplicate's, once
        // and count the deliveries of every slot into `starts[slot + 1]`.
        // Only the draws of readings the jumble delays or duplicates are
        // kept, by reading index; the rest arrive once and on time. A
        // record of every draw would be nearly as large as the schedule,
        // and the allocator keeps its pages resident after it is freed.
        let mut starts = vec![0_usize; horizon + 1];
        let mut jumbled = Vec::new();
        for (index, (slot, j, _)) in measured(batches).enumerate() {
            let (deliver, duplicate) = draw_targets(config, slot, j, horizon);
            starts[deliver + 1] += 1;
            if let Some(at) = duplicate {
                starts[at + 1] += 1;
            }
            if (deliver, duplicate) != (slot, None) {
                jumbled.push((index, deliver, duplicate));
            }
        }
        for s in 1..=horizon {
            starts[s] += starts[s - 1];
        }
        // Fill each slot's range in draw order: a reading lands before
        // its duplicate, and both after every earlier reading that
        // targets the same slot.
        let placeholder = Reading {
            channel: 0,
            at: grid.start(),
            value: 0.0,
        };
        // Collected from an exact-size iterator, the shared slice is
        // allocated once; it is not shared yet, so `make_mut` hands it
        // out for writing without a copy.
        let mut readings: Arc<[Reading]> =
            std::iter::repeat_n(placeholder, starts[horizon]).collect();
        let schedule = Arc::make_mut(&mut readings);
        let mut next = starts[..horizon].to_vec();
        let mut jumbled = jumbled.into_iter().peekable();
        for (index, (slot, _, &reading)) in measured(batches).enumerate() {
            let (deliver, duplicate) = jumbled
                .next_if(|&(k, ..)| k == index)
                .map_or((slot, None), |(_, deliver, duplicate)| (deliver, duplicate));
            for at in std::iter::once(deliver).chain(duplicate) {
                schedule[next[at]] = reading;
                next[at] += 1;
            }
        }
        Ok(TraceReplayer {
            readings,
            starts: starts.into(),
            grid,
        })
    }

    /// Number of delivery slots (grid length plus delay slack).
    pub fn slots(&self) -> usize {
        self.starts.len() - 1
    }

    /// The measurement grid the schedule was built on.
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// Wall-clock timestamp of a delivery slot (slots past the grid
    /// extrapolate at the grid step).
    pub fn slot_time(&self, slot: usize) -> Timestamp {
        self.grid.start() + (slot as i64) * i64::from(self.grid.step_minutes())
    }

    /// Readings delivered at `slot` (empty past the schedule).
    pub fn batch(&self, slot: usize) -> &[Reading] {
        match self.starts.get(slot..) {
            Some(&[start, end, ..]) => &self.readings[start..end],
            _ => &[],
        }
    }

    /// Total scheduled deliveries (original + duplicated packets).
    pub fn total_deliveries(&self) -> u64 {
        self.readings.len() as u64
    }

    /// Whether `self` and `other` share one schedule's allocations.
    #[cfg(test)]
    fn shares_schedule_with(&self, other: &TraceReplayer) -> bool {
        Arc::ptr_eq(&self.readings, &other.readings) && Arc::ptr_eq(&self.starts, &other.starts)
    }
}

/// Every measured reading with its slot and its index within the slot,
/// in measurement order.
fn measured(batches: &[Vec<Reading>]) -> impl Iterator<Item = (usize, usize, &Reading)> {
    batches.iter().enumerate().flat_map(|(slot, batch)| {
        batch
            .iter()
            .enumerate()
            .map(move |(j, reading)| (slot, j, reading))
    })
}

/// Delivery slots of a schedule over `grid`: the grid plus
/// `max_delay_slots` of tail slack, so deliveries delayed past the last
/// measurement slot still happen, plus one.
///
/// # Errors
///
/// [`StreamError::InvalidConfig`] when that count does not fit `usize`.
fn horizon(grid: TimeGrid, config: &ReplayConfig) -> Result<usize> {
    usize::try_from(config.max_delay_slots)
        .ok()
        .and_then(|slack| grid.len().checked_add(slack))
        .and_then(|slots| slots.checked_add(1))
        .ok_or_else(|| StreamError::InvalidConfig {
            reason: format!(
                "max_delay_slots {} overflows the delivery horizon of a {}-slot grid",
                config.max_delay_slots,
                grid.len()
            ),
        })
}

/// The jumble's draw for reading `j` of measurement slot `slot`: the
/// slot it is delivered in and, when it is duplicated, the slot its
/// duplicate is delivered in, both clamped to the last of `horizon`
/// slots.
fn draw_targets(
    config: &ReplayConfig,
    slot: usize,
    j: usize,
    horizon: usize,
) -> (usize, Option<usize>) {
    let mut rng = StdRng::seed_from_u64(
        config.seed
            ^ REPLAY_STREAM_SALT
            ^ (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9),
    );
    let delay = if rng.gen::<f64>() < config.delay_prob {
        rng.gen_range(1..=config.max_delay_slots)
    } else {
        0
    };
    let deliver = slot + usize::try_from(delay).unwrap_or(0);
    let duplicate = (rng.gen::<f64>() < config.duplicate_prob).then(|| {
        let dup_delay = rng.gen_range(0..=config.max_delay_slots);
        slot + usize::try_from(dup_delay).unwrap_or(0)
    });
    (
        deliver.min(horizon - 1),
        duplicate.map(|at| at.min(horizon - 1)),
    )
}

/// The per-slot build that [`TraceReplayer::new`]'s flat schedule
/// replaced, kept as its test oracle: one `Vec` per delivery slot,
/// each grown by pushing the readings that land in it.
#[cfg(test)]
fn per_slot_reference(
    grid: TimeGrid,
    batches: &[Vec<Reading>],
    config: &ReplayConfig,
) -> Result<Vec<Vec<Reading>>> {
    config.validate()?;
    if batches.len() > grid.len() {
        return Err(StreamError::InvalidConfig {
            reason: format!(
                "{} measurement batches exceed the {}-slot grid",
                batches.len(),
                grid.len()
            ),
        });
    }
    let horizon = horizon(grid, config)?;
    let mut schedule: Vec<Vec<Reading>> = vec![Vec::new(); horizon];
    for (slot, batch) in batches.iter().enumerate() {
        for (j, reading) in batch.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                config.seed
                    ^ REPLAY_STREAM_SALT
                    ^ (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9),
            );
            let delay = if rng.gen::<f64>() < config.delay_prob {
                rng.gen_range(1..=config.max_delay_slots)
            } else {
                0
            };
            let deliver = slot + usize::try_from(delay).unwrap_or(0);
            schedule[deliver.min(horizon - 1)].push(*reading);
            if rng.gen::<f64>() < config.duplicate_prob {
                let dup_delay = rng.gen_range(0..=config.max_delay_slots);
                let dup_at = slot + usize::try_from(dup_delay).unwrap_or(0);
                schedule[dup_at.min(horizon - 1)].push(*reading);
            }
        }
    }
    Ok(schedule)
}

/// Failure/supervision accounting of a [`FlakySource`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Successful polls.
    pub successes: u64,
    /// Transient poll failures (the source "errored").
    pub failures: u64,
    /// Polls refused by the open circuit breaker.
    pub breaker_refusals: u64,
    /// Polls skipped while backing off.
    pub backoff_skips: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
}

thermal_ckpt::fields!(SourceStats: successes, failures, breaker_refusals, backoff_skips,
    breaker_trips);

/// A deterministic flaky wrapper around a [`TraceReplayer`]:
/// each poll fails with a seed-derived probability; failures delay
/// delivery (batches accumulate until the next successful poll) and
/// are supervised by [`Backoff`] and the circuit breaker.
///
/// A clone shares the replayer's schedule and copies only the
/// position, the staged readings and the supervision state.
#[derive(Debug, Clone)]
pub struct FlakySource {
    replayer: TraceReplayer,
    fail_prob: f64,
    seed: u64,
    /// Next schedule slot to hand out.
    cursor: usize,
    /// Batches fetched but not yet returned (accumulate across failed
    /// polls). Bounded by the schedule itself.
    staged: Vec<Reading>,
    backoff: Backoff,
    breaker: CircuitBreaker,
    /// First slot at which polling may resume after a backoff delay.
    resume_at: u64,
    polls: u64,
    stats: SourceStats,
}

impl FlakySource {
    /// Wraps `replayer` in a source failing each poll with
    /// probability `fail_prob` (stream seeded by `seed`).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a probability
    /// outside `[0, 1]` or invalid supervision policies.
    pub fn new(
        replayer: TraceReplayer,
        fail_prob: f64,
        seed: u64,
        backoff: BackoffPolicy,
        breaker: BreakerPolicy,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&fail_prob) || !fail_prob.is_finite() {
            return Err(StreamError::InvalidConfig {
                reason: "fail_prob must be a probability in [0, 1]".to_owned(),
            });
        }
        let breaker = CircuitBreaker::new(breaker).map_err(|e| StreamError::InvalidConfig {
            reason: e.to_string(),
        })?;
        Ok(FlakySource {
            replayer,
            fail_prob,
            seed,
            cursor: 0,
            staged: Vec::new(),
            backoff: Backoff::new(backoff)?,
            breaker,
            resume_at: 0,
            polls: 0,
            stats: SourceStats::default(),
        })
    }

    /// Number of delivery slots in the wrapped schedule.
    pub fn slots(&self) -> usize {
        self.replayer.slots()
    }

    /// The wrapped replayer (grid access for the event loop).
    pub fn replayer(&self) -> &TraceReplayer {
        &self.replayer
    }

    /// Supervision counters so far.
    pub fn stats(&self) -> SourceStats {
        self.stats
    }

    /// Polls the source at event-loop slot `slot`, returning every
    /// reading now available (this slot's batch plus anything staged
    /// by earlier failures). A failed or refused poll returns no
    /// readings — they stay staged and arrive later, which is exactly
    /// the lateness the reorder/watermark stage absorbs. Allocating
    /// wrapper over [`FlakySource::poll_into`].
    pub fn poll(&mut self, slot: usize) -> Vec<Reading> {
        let mut out = Vec::new();
        self.poll_into(slot, &mut out);
        out
    }

    /// [`FlakySource::poll`] into a caller-owned buffer: replaces the
    /// contents of `out` with the readings now available. Once `out`
    /// and the staging buffer have grown to the largest delivery, a
    /// poll performs no heap allocation.
    pub fn poll_into(&mut self, slot: usize, out: &mut Vec<Reading>) {
        out.clear();
        // Stage this slot's scheduled batch regardless of source
        // health: measurement happened, delivery is what fails.
        while self.cursor <= slot && self.cursor < self.replayer.slots() {
            let batch = self.replayer.batch(self.cursor);
            self.staged.extend_from_slice(batch);
            self.cursor += 1;
        }
        self.breaker.tick();
        let slot_u64 = slot as u64;
        if slot_u64 < self.resume_at {
            self.stats.backoff_skips += 1;
            return;
        }
        if !self.breaker.allow() {
            self.stats.breaker_refusals += 1;
            return;
        }
        let roll = StdRng::seed_from_u64(thermal_par::derive_seed(
            self.seed ^ REPLAY_STREAM_SALT,
            self.polls,
        ))
        .gen::<f64>();
        self.polls += 1;
        if roll < self.fail_prob {
            let trips_before = self.breaker.trips();
            self.breaker.record_failure();
            self.stats.failures += 1;
            self.stats.breaker_trips = self.breaker.trips();
            if self.breaker.trips() == trips_before {
                // Not tripped: schedule our own capped-exponential
                // retry delay (the breaker governs the tripped case).
                self.resume_at = slot_u64 + self.backoff.next_delay();
            }
            return;
        }
        self.breaker.record_success();
        self.backoff.reset();
        self.stats.successes += 1;
        out.append(&mut self.staged);
    }
}

/// Captures the delivery cursor, staged readings, supervision state
/// (nested backoff + breaker), and counters. The wrapped
/// [`TraceReplayer`] is fully precomputed from the trace and seed, so
/// it is construction context — the restoring process rebuilds it
/// deterministically and only the *position* within it is saved.
/// Poll outcomes are counter-seeded from `polls`, so no RNG state
/// needs serialising.
impl Snapshot for FlakySource {
    const TAG: &'static str = "stream-source";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        let channels: Vec<usize> = self.staged.iter().map(|r| r.channel).collect();
        let ats: Vec<i64> = self.staged.iter().map(|r| r.at.as_minutes()).collect();
        let values: Vec<f64> = self.staged.iter().map(|r| r.value).collect();
        rec.put_usize("cursor", self.cursor)
            .put_usize_slice("staged_channels", &channels)
            .put_i64_slice("staged_ats", &ats)
            .put_f64_slice("staged_values", &values);
        thermal_ckpt::snapshot::put_nested(rec, "backoff", &self.backoff);
        thermal_ckpt::snapshot::put_nested(rec, "breaker", &self.breaker);
        rec.put_u64("resume_at", self.resume_at)
            .put_u64("polls", self.polls);
        self.stats.put_fields(rec, "");
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let cursor = rec.get_usize("cursor")?;
        if cursor > self.replayer.slots() {
            return Err(CkptError::decode(
                "source snapshot",
                format!(
                    "cursor {cursor} beyond schedule of {} slots",
                    self.replayer.slots()
                ),
            ));
        }
        let channels = rec.get_usize_slice("staged_channels")?;
        let ats = rec.get_i64_slice("staged_ats")?;
        let values = rec.get_f64_slice("staged_values")?;
        if channels.len() != ats.len() || channels.len() != values.len() {
            return Err(CkptError::decode(
                "source snapshot",
                "staged channel/at/value lists disagree in length",
            ));
        }
        let mut backoff = self.backoff.clone();
        thermal_ckpt::snapshot::get_nested(rec, "backoff", &mut backoff)?;
        let mut breaker = self.breaker.clone();
        thermal_ckpt::snapshot::get_nested(rec, "breaker", &mut breaker)?;
        let resume_at = rec.get_u64("resume_at")?;
        let polls = rec.get_u64("polls")?;
        let stats = SourceStats::get_fields(rec, "")?;
        self.cursor = cursor;
        self.staged = channels
            .into_iter()
            .zip(ats)
            .zip(values)
            .map(|((channel, at), value)| Reading {
                channel,
                at: Timestamp::from_minutes(at),
                value,
            })
            .collect();
        self.backoff = backoff;
        self.breaker = breaker;
        self.resume_at = resume_at;
        self.polls = polls;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CSV: &str = "minutes,a,b\n0,20.0,21.0\n5,NaN,21.1\n10,20.2,junk\n15,20.3\n20,,21.4\n";

    #[test]
    fn csv_parse_rejects_cells_not_documents() {
        let (batches, stats) = parse_csv_events(CSV, &[Some(0), Some(1)]).unwrap();
        assert_eq!(batches.len(), 5);
        assert_eq!(stats.parsed, 6);
        assert_eq!(stats.non_finite, 1, "NaN cell rejected alone");
        assert_eq!(stats.malformed, 1, "junk cell rejected alone");
        assert_eq!(stats.missing_fields, 1, "truncated row loses column b");
        assert_eq!(stats.rejected(), 3);
        // Row 2 kept channel b even though channel a was NaN.
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[1][0].channel, 1);
        // Row 5's empty cell is a gap, not a rejection.
        assert_eq!(batches[4].len(), 1);
    }

    #[test]
    fn csv_parse_skips_unmapped_columns_and_bad_rows() {
        let text = "minutes,a,b\nnot-a-number,1,2\n0,20.0,21.0\n";
        let (batches, stats) = parse_csv_events(text, &[None, Some(7)]).unwrap();
        assert_eq!(stats.skipped_rows, 1);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[0][0].channel, 7);
    }

    #[test]
    fn csv_parse_validates_structure() {
        assert!(parse_csv_events("", &[]).is_err());
        assert!(parse_csv_events("minutes,a,b\n", &[Some(0)]).is_err());
        assert!(parse_csv_events("minutes\n", &[]).is_err());
    }

    fn grid(len: usize) -> TimeGrid {
        TimeGrid::new(Timestamp::from_minutes(0), 5, len).unwrap()
    }

    fn batches(grid: &TimeGrid, channels: usize) -> Vec<Vec<Reading>> {
        (0..grid.len())
            .map(|i| {
                (0..channels)
                    .map(|c| Reading {
                        channel: c,
                        at: grid.timestamp(i).unwrap(),
                        value: 20.0 + c as f64,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn replay_without_jumble_is_the_identity_schedule() {
        let g = grid(4);
        let b = batches(&g, 2);
        let r = TraceReplayer::new(
            g,
            &b,
            &ReplayConfig {
                delay_prob: 0.0,
                max_delay_slots: 1,
                duplicate_prob: 0.0,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(r.total_deliveries(), 8);
        for slot in 0..4 {
            assert_eq!(r.batch(slot).len(), 2);
            for reading in r.batch(slot) {
                assert_eq!(reading.at, g.timestamp(slot).unwrap());
            }
        }
    }

    /// A `max_delay_slots` whose horizon overflows is a config error,
    /// with or without delays, in the build and in its reference.
    #[test]
    fn overflowing_horizon_is_invalid_config() {
        let g = grid(4);
        let b = batches(&g, 2);
        for delay_prob in [0.0, 0.15] {
            let config = ReplayConfig {
                delay_prob,
                max_delay_slots: u64::MAX,
                duplicate_prob: 0.05,
                seed: 1,
            };
            for result in [
                TraceReplayer::new(g, &b, &config).map(|_| ()),
                per_slot_reference(g, &b, &config).map(|_| ()),
            ] {
                match result {
                    Err(StreamError::InvalidConfig { reason }) => {
                        assert!(reason.contains("max_delay_slots"), "{reason}");
                    }
                    other => panic!("delay_prob {delay_prob}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn replay_jumble_is_deterministic_and_loss_free() {
        let g = grid(50);
        let b = batches(&g, 3);
        let config = ReplayConfig {
            delay_prob: 0.5,
            max_delay_slots: 4,
            duplicate_prob: 0.2,
            seed: 9,
        };
        let r1 = TraceReplayer::new(g, &b, &config).unwrap();
        let r2 = TraceReplayer::new(g, &b, &config).unwrap();
        for slot in 0..r1.slots() {
            assert_eq!(r1.batch(slot), r2.batch(slot));
        }
        // Never fewer deliveries than measurements (jumble never
        // destroys), never later than measurement + max delay.
        assert!(r1.total_deliveries() >= 150);
        for (slot, batch) in (0..r1.slots()).map(|s| (s, r1.batch(s))) {
            for reading in batch {
                let measured = g.index_of(reading.at).unwrap();
                assert!(slot >= measured, "delivered before measurement");
                assert!(slot - measured <= 4 + 1, "delivered too late");
            }
        }
        // A different seed produces a different schedule.
        let r3 = TraceReplayer::new(g, &b, &ReplayConfig { seed: 10, ..config }).unwrap();
        let differs = (0..r1.slots()).any(|s| r1.batch(s) != r3.batch(s));
        assert!(differs);
    }

    #[test]
    fn flaky_source_delays_but_never_loses_readings() {
        let g = grid(40);
        let b = batches(&g, 2);
        let config = ReplayConfig {
            delay_prob: 0.0,
            max_delay_slots: 1,
            duplicate_prob: 0.0,
            seed: 0,
        };
        let replayer = TraceReplayer::new(g, &b, &config).unwrap();
        let total = replayer.total_deliveries();
        let mut source = FlakySource::new(
            replayer,
            0.4,
            21,
            BackoffPolicy::default(),
            BreakerPolicy::default(),
        )
        .unwrap();
        let mut received = 0_u64;
        // Poll well past the schedule end so backoff gaps drain.
        for slot in 0..source.slots() + 200 {
            received += source.poll(slot).len() as u64;
        }
        assert_eq!(received, total, "flakiness must delay, not destroy");
        let stats = source.stats();
        assert!(stats.failures > 0, "fixture never failed");
        assert!(stats.successes > 0);
    }

    #[test]
    fn flaky_source_trips_the_breaker_under_sustained_failure() {
        let g = grid(10);
        let b = batches(&g, 1);
        let replayer = TraceReplayer::new(
            g,
            &b,
            &ReplayConfig {
                delay_prob: 0.0,
                max_delay_slots: 1,
                duplicate_prob: 0.0,
                seed: 0,
            },
        )
        .unwrap();
        let mut source = FlakySource::new(
            replayer,
            1.0,
            5,
            BackoffPolicy {
                base_slots: 4,
                cap_slots: 8,
                seed: 5,
            },
            BreakerPolicy {
                threshold: 2,
                cooldown_ticks: 3,
            },
        )
        .unwrap();
        for slot in 0..100 {
            assert!(source.poll(slot).is_empty());
        }
        let stats = source.stats();
        assert!(stats.breaker_trips >= 1, "breaker never tripped");
        assert!(stats.breaker_refusals > 0, "open breaker never refused");
        assert!(stats.backoff_skips > 0, "backoff never spaced polls");
    }

    #[test]
    fn flaky_source_determinism() {
        let make = || {
            let g = grid(30);
            let b = batches(&g, 2);
            let replayer = TraceReplayer::new(g, &b, &ReplayConfig::default()).unwrap();
            FlakySource::new(
                replayer,
                0.3,
                13,
                BackoffPolicy::default(),
                BreakerPolicy::default(),
            )
            .unwrap()
        };
        let run = |mut s: FlakySource| {
            let mut log = Vec::new();
            for slot in 0..s.slots() + 50 {
                log.push(s.poll(slot));
            }
            (log, s.stats())
        };
        assert_eq!(run(make()), run(make()));
    }

    /// A jittered, flaky source over `slots` slots of three channels.
    fn flaky(slots: usize) -> FlakySource {
        let g = grid(slots);
        let b = batches(&g, 3);
        let config = ReplayConfig {
            seed: 17,
            ..ReplayConfig::default()
        };
        let replayer = TraceReplayer::new(g, &b, &config).unwrap();
        FlakySource::new(
            replayer,
            0.3,
            17,
            BackoffPolicy::default(),
            BreakerPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn clones_share_one_schedule() {
        let source = flaky(30);
        let replayer = source.replayer().clone();
        assert!(replayer.shares_schedule_with(source.replayer()));
        let twin = source.clone();
        assert!(twin.replayer().shares_schedule_with(source.replayer()));
        // A rebuild from the same inputs is equal but its own.
        let rebuilt = flaky(30);
        assert!(!rebuilt.replayer().shares_schedule_with(source.replayer()));
        for slot in 0..replayer.slots() + 2 {
            assert_eq!(rebuilt.replayer().batch(slot), replayer.batch(slot));
        }
    }

    #[test]
    fn source_clones_polled_in_turn_each_replay_a_fresh_source() {
        let slots = 60;
        let mut fresh = flaky(slots);
        let expected: Vec<(Vec<Reading>, SourceStats)> = (0..slots + 40)
            .map(|slot| (fresh.poll(slot), fresh.stats()))
            .collect();
        // Clone before the first poll and mid-run, with readings staged
        // by failed polls.
        for split in [0, 23] {
            let mut original = flaky(slots);
            for slot in 0..split {
                original.poll(slot);
            }
            assert_eq!(split > 0, !original.staged.is_empty());
            let mut first = original.clone();
            let mut second = original.clone();
            for (slot, want) in expected.iter().enumerate().skip(split) {
                let got = (first.poll(slot), first.stats());
                assert_eq!(&got, want, "first clone (split {split}) at slot {slot}");
                let got = (second.poll(slot), second.stats());
                assert_eq!(&got, want, "second clone (split {split}) at slot {slot}");
            }
        }
    }

    /// Readings with distinct channels and values, so a reordering
    /// within a slot shows.
    fn sized_batches(grid: &TimeGrid, sizes: &[usize]) -> Vec<Vec<Reading>> {
        sizes
            .iter()
            .enumerate()
            .map(|(slot, &n)| {
                (0..n)
                    .map(|j| Reading {
                        channel: j,
                        at: grid.timestamp(slot).unwrap(),
                        value: (slot * 1000 + j) as f64,
                    })
                    .collect()
            })
            .collect()
    }

    /// 0, a drawn probability, or 1.
    fn probability(kind: u8, drawn: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => drawn,
            _ => 1.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat schedule equals the per-slot build: the same slot
        /// count and delivery total, and in every slot (and past the
        /// end) the same readings in the same order. Batches are empty,
        /// short or long, and fewer than the grid's slots or as many.
        #[test]
        fn flat_schedule_matches_per_slot_reference(
            (grid_len, batch_count, shapes) in (1usize..40).prop_flat_map(|len| (
                Just(len),
                0..=len,
                prop::collection::vec((0u8..4, 0usize..48), len),
            )),
            (delay_kind, delay_drawn, dup_kind, dup_drawn) in
                (0u8..3, 0.0f64..1.0, 0u8..3, 0.0f64..1.0),
            max_delay_slots in 0u64..=6,
            seed in any::<u64>(),
        ) {
            let g = grid(grid_len);
            // Class 0 is an empty batch, 1 and 2 short ones, 3 a long one.
            let sizes: Vec<usize> = shapes[..batch_count]
                .iter()
                .map(|&(class, n)| match class {
                    0 => 0,
                    3 => n,
                    _ => n % 4,
                })
                .collect();
            let b = sized_batches(&g, &sizes);
            let config = ReplayConfig {
                delay_prob: probability(delay_kind, delay_drawn),
                max_delay_slots,
                duplicate_prob: probability(dup_kind, dup_drawn),
                seed,
            };
            let flat = TraceReplayer::new(g, &b, &config);
            let reference = per_slot_reference(g, &b, &config);
            let (flat, reference) = match (flat, reference) {
                (Ok(flat), Ok(reference)) => (flat, reference),
                (flat, reference) => {
                    // A zero maximum delay with delays enabled is refused
                    // by both builds.
                    prop_assert!(flat.is_err() && reference.is_err());
                    return Ok(());
                }
            };
            prop_assert_eq!(flat.slots(), reference.len());
            let total: usize = reference.iter().map(Vec::len).sum();
            prop_assert_eq!(flat.total_deliveries(), total as u64);
            for slot in 0..=flat.slots() + 2 {
                let want = reference.get(slot).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(flat.batch(slot), want);
            }
        }
    }
}
