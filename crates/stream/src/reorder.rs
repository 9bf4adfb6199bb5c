//! Per-channel watermarks and bounded reorder buffers.
//!
//! Wireless telemetry arrives shuffled: retries deliver old samples
//! after new ones, duplicated packets replay the same sample twice,
//! and some samples arrive so late the pipeline has already moved on.
//! Each channel therefore owns a small buffer that re-sorts readings
//! by measurement time and releases them only once the channel's
//! *watermark* — simulated now minus an allowed-lateness budget — has
//! passed them, guaranteeing the consumer sees each channel's samples
//! in strictly increasing timestamp order.
//!
//! The buffer is bounded: a reading that would overflow it is dropped
//! and counted, never silently absorbed into unbounded memory.

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Fields, Snapshot};
use thermal_timeseries::Timestamp;

use crate::event::Reading;
use crate::{Result, StreamError};

/// Reorder/watermark configuration shared by every channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderConfig {
    /// How long (minutes) a reading may lag simulated now before the
    /// watermark abandons it. Larger values reorder more but delay
    /// delivery.
    pub allowed_lateness: i64,
    /// Maximum buffered readings per channel.
    pub capacity: usize,
}

impl Default for ReorderConfig {
    /// A 15-minute lateness budget (three 5-minute slots) and a
    /// 32-reading buffer: deep enough for Bluetooth retry bursts,
    /// small enough that a runaway source cannot balloon memory.
    fn default() -> Self {
        ReorderConfig {
            allowed_lateness: 15,
            capacity: 32,
        }
    }
}

impl ReorderConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a negative lateness
    /// budget or zero capacity.
    pub fn validate(&self) -> Result<()> {
        if self.allowed_lateness < 0 {
            return Err(StreamError::InvalidConfig {
                reason: "allowed_lateness must be non-negative minutes".to_owned(),
            });
        }
        if self.capacity == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "reorder buffer capacity must be at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// Loss accounting for one channel's reorder buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Readings released to the consumer, in timestamp order.
    pub released: u64,
    /// Readings that repeated a timestamp already buffered or already
    /// released (the newer value wins while still buffered).
    pub duplicates: u64,
    /// Readings older than the released frontier when they arrived —
    /// the watermark had moved on.
    pub too_late: u64,
    /// Readings dropped because the buffer was full.
    pub overflowed: u64,
    /// Largest buffered depth ever observed.
    pub high_water: usize,
}

thermal_ckpt::fields!(ReorderStats: released, duplicates, too_late, overflowed, high_water);

/// One channel's reorder buffer.
///
/// Pending readings live in a `Vec` kept sorted by timestamp. `new`
/// reserves the configured capacity; a clone reserves what it holds
/// and grows to its deepest backlog in warm-up. After that, inserts
/// shift within the reserved storage and drains compact in place.
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    config: ReorderConfig,
    /// Pending readings as `(minutes, value)`, sorted ascending by
    /// timestamp. Length never exceeds `config.capacity`, so a store
    /// of that capacity is never outgrown.
    pending: Vec<(i64, f64)>,
    /// Highest timestamp ever released; later arrivals at or below it
    /// are too late.
    released_up_to: Option<i64>,
    stats: ReorderStats,
}

impl ReorderBuffer {
    /// Creates an empty buffer with its full capacity preallocated.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when `config` is
    /// invalid.
    pub fn new(config: ReorderConfig) -> Result<Self> {
        config.validate()?;
        Ok(ReorderBuffer {
            config,
            pending: Vec::with_capacity(config.capacity),
            released_up_to: None,
            stats: ReorderStats::default(),
        })
    }

    /// Offers a reading to the buffer. Returns `true` when it was
    /// retained (false: counted as duplicate-of-released, too-late, or
    /// overflow).
    pub fn offer(&mut self, reading: &Reading) -> bool {
        let ts = reading.at.as_minutes();
        if let Some(frontier) = self.released_up_to {
            if ts == frontier {
                self.stats.duplicates += 1;
                return false;
            }
            if ts < frontier {
                self.stats.too_late += 1;
                return false;
            }
        }
        let idx = match self.pending.last() {
            Some(&(last, _)) if ts <= last => {
                match self.pending.binary_search_by_key(&ts, |&(t, _)| t) {
                    Ok(idx) => {
                        // Same timestamp still buffered: last write
                        // wins, counted.
                        if let Some(slot) = self.pending.get_mut(idx) {
                            slot.1 = reading.value;
                        }
                        self.stats.duplicates += 1;
                        return true;
                    }
                    Err(idx) => idx,
                }
            }
            // Past every pending timestamp, the common in-order case:
            // the insertion point is the end, no search needed.
            _ => self.pending.len(),
        };
        if self.pending.len() >= self.config.capacity {
            self.stats.overflowed += 1;
            return false;
        }
        self.pending.insert(idx, (ts, reading.value));
        self.stats.high_water = self.stats.high_water.max(self.pending.len());
        true
    }

    /// Releases every buffered reading at or below the watermark
    /// (`now - allowed_lateness`), in increasing timestamp order,
    /// appending to `out` without clearing it.
    ///
    /// The caller owns `out`; once its capacity reaches the buffer
    /// capacity this path performs no heap allocation.
    pub fn drain_ready_into(&mut self, now: Timestamp, out: &mut Vec<(Timestamp, f64)>) {
        let watermark = now.as_minutes() - self.config.allowed_lateness;
        // Sorted ascending: the releasable prefix ends at the first
        // timestamp past the watermark.
        let split = self.pending.partition_point(|&(t, _)| t <= watermark);
        if split == 0 {
            return;
        }
        for &(ts, value) in self.pending.iter().take(split) {
            self.released_up_to = Some(ts);
            self.stats.released += 1;
            out.push((Timestamp::from_minutes(ts), value));
        }
        // Compact the survivors to the front in place.
        self.pending.copy_within(split.., 0);
        self.pending.truncate(self.pending.len() - split);
    }

    /// Releases every buffered reading at or below the watermark into
    /// a fresh `Vec`. Allocating convenience wrapper over
    /// [`ReorderBuffer::drain_ready_into`].
    pub fn drain_ready(&mut self, now: Timestamp) -> Vec<(Timestamp, f64)> {
        let mut out = Vec::new();
        self.drain_ready_into(now, &mut out);
        out
    }

    /// Current buffered depth.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Loss counters so far.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }
}

/// The binary-search-only [`ReorderBuffer::offer`] that the in-order
/// append replaced, kept as its test oracle.
#[cfg(test)]
impl ReorderBuffer {
    pub(crate) fn offer_by_search(&mut self, reading: &Reading) -> bool {
        let ts = reading.at.as_minutes();
        if let Some(frontier) = self.released_up_to {
            if ts == frontier {
                self.stats.duplicates += 1;
                return false;
            }
            if ts < frontier {
                self.stats.too_late += 1;
                return false;
            }
        }
        match self.pending.binary_search_by_key(&ts, |&(t, _)| t) {
            Ok(idx) => {
                if let Some(slot) = self.pending.get_mut(idx) {
                    slot.1 = reading.value;
                }
                self.stats.duplicates += 1;
                true
            }
            Err(idx) => {
                if self.pending.len() >= self.config.capacity {
                    self.stats.overflowed += 1;
                    return false;
                }
                self.pending.insert(idx, (ts, reading.value));
                self.stats.high_water = self.stats.high_water.max(self.pending.len());
                true
            }
        }
    }
}

/// Captures the pending readings, the released watermark, and the
/// loss counters. `Option` fields use the empty-vs-one-element list
/// encoding. The config (lateness, capacity) is construction context.
impl Snapshot for ReorderBuffer {
    const TAG: &'static str = "stream-reorder";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        let ats: Vec<i64> = self.pending.iter().map(|&(at, _)| at).collect();
        let values: Vec<f64> = self.pending.iter().map(|&(_, v)| v).collect();
        let released: Vec<i64> = self.released_up_to.into_iter().collect();
        rec.put_i64_slice("pending_ats", &ats)
            .put_f64_slice("pending_values", &values)
            .put_i64_slice("released_up_to", &released);
        self.stats.put_fields(rec, "");
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let ats = rec.get_i64_slice("pending_ats")?;
        let values = rec.get_f64_slice("pending_values")?;
        if ats.len() != values.len() {
            return Err(CkptError::decode(
                "reorder snapshot",
                "pending at/value lists disagree in length",
            ));
        }
        if ats.len() > self.config.capacity {
            return Err(CkptError::decode(
                "reorder snapshot",
                format!(
                    "{} pending readings exceed capacity {}",
                    ats.len(),
                    self.config.capacity
                ),
            ));
        }
        if ats.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CkptError::decode(
                "reorder snapshot",
                "pending timestamps must be strictly ascending",
            ));
        }
        let released = rec.get_i64_slice("released_up_to")?;
        let released_up_to = match released.as_slice() {
            [] => None,
            [at] => Some(*at),
            _ => {
                return Err(CkptError::decode(
                    "reorder snapshot",
                    "released_up_to must hold zero or one element",
                ))
            }
        };
        let stats = ReorderStats::get_fields(rec, "")?;
        // Refill in place: the capacity reservation made at
        // construction survives restore.
        self.pending.clear();
        self.pending.extend(ats.into_iter().zip(values));
        self.released_up_to = released_up_to;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(minute: i64, value: f64) -> Reading {
        Reading {
            channel: 0,
            at: Timestamp::from_minutes(minute),
            value,
        }
    }

    fn buffer(lateness: i64, capacity: usize) -> ReorderBuffer {
        ReorderBuffer::new(ReorderConfig {
            allowed_lateness: lateness,
            capacity,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ReorderBuffer::new(ReorderConfig {
            allowed_lateness: -1,
            capacity: 4
        })
        .is_err());
        assert!(ReorderBuffer::new(ReorderConfig {
            allowed_lateness: 0,
            capacity: 0
        })
        .is_err());
    }

    #[test]
    fn out_of_order_arrivals_release_in_timestamp_order() {
        let mut b = buffer(10, 8);
        for minute in [15, 5, 10, 0] {
            assert!(b.offer(&r(minute, minute as f64)));
        }
        let got = b.drain_ready(Timestamp::from_minutes(20));
        let minutes: Vec<i64> = got.iter().map(|(t, _)| t.as_minutes()).collect();
        assert_eq!(minutes, vec![0, 5, 10]);
        // Minute 15 is still inside the lateness window.
        assert_eq!(b.len(), 1);
        let rest = b.drain_ready(Timestamp::from_minutes(30));
        assert_eq!(rest.len(), 1);
        assert_eq!(b.stats().released, 4);
    }

    #[test]
    fn late_readings_behind_the_frontier_are_counted_and_dropped() {
        let mut b = buffer(0, 8);
        b.offer(&r(10, 1.0));
        assert_eq!(b.drain_ready(Timestamp::from_minutes(10)).len(), 1);
        assert!(!b.offer(&r(5, 2.0)), "older than released frontier");
        assert!(!b.offer(&r(10, 3.0)), "duplicate of released");
        assert_eq!(b.stats().too_late, 1);
        assert_eq!(b.stats().duplicates, 1);
    }

    #[test]
    fn buffered_duplicates_are_last_write_wins() {
        let mut b = buffer(0, 8);
        assert!(b.offer(&r(10, 1.0)));
        assert!(b.offer(&r(10, 2.0)));
        assert_eq!(b.stats().duplicates, 1);
        let got = b.drain_ready(Timestamp::from_minutes(10));
        assert_eq!(got, vec![(Timestamp::from_minutes(10), 2.0)]);
    }

    #[test]
    fn drain_into_appends_and_buffer_capacity_is_stable() {
        let mut b = buffer(5, 4);
        let reserved = b.pending.capacity();
        let mut out = Vec::with_capacity(4);
        for round in 0..50_i64 {
            let base = round * 20;
            // Shuffled delivery within each round.
            for offset in [15, 0, 10, 5] {
                b.offer(&r(base + offset, 0.0));
            }
            out.clear();
            b.drain_ready_into(Timestamp::from_minutes(base + 20), &mut out);
            assert!(out.len() <= 4);
            assert!(
                out.windows(2).all(|w| w[0].0 < w[1].0),
                "drained readings must stay timestamp-ordered"
            );
        }
        assert_eq!(
            b.pending.capacity(),
            reserved,
            "sustained churn must not grow the preallocated store"
        );
    }

    proptest! {
        /// The in-order append is exactly the binary-search insert: on
        /// any offer/drain history — in-order runs, shuffles,
        /// duplicates, too-late readings, overflow — both return the
        /// same verdicts, hold the same pending readings and counters,
        /// and release the same readings.
        #[test]
        fn offer_matches_search_only_offer(
            (capacity, ops) in (
                1usize..6,
                prop::collection::vec((0u8..4, 0i64..40, -5.0f64..45.0), 0..64),
            ),
        ) {
            let mut fast = buffer(10, capacity);
            let mut reference = fast.clone();
            let mut now = 0;
            for (op, minute, value) in ops {
                if op == 0 {
                    now += 5;
                    let now = Timestamp::from_minutes(now);
                    prop_assert_eq!(fast.drain_ready(now), reference.drain_ready(now));
                } else {
                    // Mostly near the watermark, sometimes far behind it.
                    let at = now - 20 + minute % 30 - if op == 1 { minute } else { 0 };
                    let reading = r(at, value);
                    prop_assert_eq!(fast.offer(&reading), reference.offer_by_search(&reading));
                }
                prop_assert_eq!(&fast.pending, &reference.pending);
                prop_assert_eq!(fast.stats(), reference.stats());
            }
        }
    }

    #[test]
    fn overflow_is_bounded_and_counted() {
        let mut b = buffer(1000, 3);
        for minute in 0..10 {
            b.offer(&r(minute * 5, 0.0));
            assert!(b.len() <= 3);
        }
        assert_eq!(b.stats().overflowed, 7);
        assert_eq!(b.stats().high_water, 3);
    }
}
