//! Bounded ingest queue — the backpressure boundary of the runtime.
//!
//! Every reading enters the service through one fixed-capacity queue.
//! When producers outrun the event loop the queue does not grow: the
//! configured [`OverflowPolicy`] either rejects the incoming reading
//! or evicts the oldest queued one, and either way the loss is
//! *counted*, so a soak run can assert both bounded memory and an
//! exact account of what was shed.
//!
//! The service drains the queue in the same step that fills it, so the
//! queue holds no reading between steps and admission is accounting on
//! one slot's batch: [`BoundedQueue::admit`] returns the part of the
//! batch that survives, with the counters that offering the batch one
//! reading at a time and popping the queue empty would leave.

use std::ops::Range;

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Fields, Snapshot};

use crate::{Result, StreamError};

/// What to do with a reading that arrives while the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum OverflowPolicy {
    /// Refuse the incoming reading (producers lose the newest data).
    RejectNewest,
    /// Evict the oldest queued reading to admit the newest (consumers
    /// lose the oldest data).
    DropOldest,
}

/// Loss and pressure accounting for a [`BoundedQueue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Readings accepted into the queue.
    pub accepted: u64,
    /// Incoming readings refused while full.
    pub rejected: u64,
    /// Queued readings evicted to admit newer ones.
    pub evicted: u64,
    /// Largest queue depth ever reached: the largest admitted batch.
    pub high_water: usize,
}

impl QueueStats {
    /// Total readings lost at this boundary (rejected + evicted).
    pub fn dropped(&self) -> u64 {
        self.rejected + self.evicted
    }
}

thermal_ckpt::fields!(QueueStats: accepted, rejected, evicted, high_water);

/// A fixed-capacity ingest queue with counted overflow, drained in the
/// call that fills it.
#[derive(Debug, Clone)]
pub struct BoundedQueue {
    capacity: usize,
    policy: OverflowPolicy,
    stats: QueueStats,
}

impl BoundedQueue {
    /// Creates a queue holding at most `capacity` readings.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a zero capacity.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Result<Self> {
        if capacity == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "ingest queue capacity must be at least 1".to_owned(),
            });
        }
        Ok(BoundedQueue {
            capacity,
            policy,
            stats: QueueStats::default(),
        })
    }

    /// Admits a batch of `n` readings into the empty queue and drains
    /// it, returning the positions of the batch that survive, in
    /// arrival order. At most `capacity` survive:
    /// [`OverflowPolicy::RejectNewest`] keeps the first ones and counts
    /// the rest rejected; [`OverflowPolicy::DropOldest`] accepts all
    /// and counts every reading before the last `capacity` evicted.
    pub fn admit(&mut self, n: usize) -> Range<usize> {
        let kept = n.min(self.capacity);
        let lost = (n - kept) as u64;
        self.stats.high_water = self.stats.high_water.max(kept);
        match self.policy {
            OverflowPolicy::RejectNewest => {
                self.stats.accepted += kept as u64;
                self.stats.rejected += lost;
                0..kept
            }
            OverflowPolicy::DropOldest => {
                self.stats.accepted += n as u64;
                self.stats.evicted += lost;
                n - kept..n
            }
        }
    }

    /// Configured capacity (the hard memory bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Loss and pressure counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Captures the loss counters. The queue is empty at every snapshot
/// boundary, so its reading lists (channel/minute/value) are written
/// empty and a record that holds readings is refused; capacity and
/// overflow policy are construction context.
impl Snapshot for BoundedQueue {
    const TAG: &'static str = "stream-queue";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put_usize_slice("channels", &[])
            .put_i64_slice("ats", &[])
            .put_f64_slice("values", &[]);
        self.stats.put_fields(rec, "");
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let queued = rec.get_usize_slice("channels")?.len()
            + rec.get_i64_slice("ats")?.len()
            + rec.get_f64_slice("values")?.len();
        if queued != 0 {
            return Err(CkptError::decode(
                "queue snapshot",
                "queued readings: the queue is drained in the step that fills it",
            ));
        }
        self.stats = QueueStats::get_fields(rec, "")?;
        Ok(())
    }
}

/// The push-all/pop-all round trip that [`BoundedQueue::admit`]
/// replaced, kept as its test oracle.
#[cfg(test)]
impl BoundedQueue {
    /// Offers `batch` one reading at a time to a FIFO of this queue's
    /// capacity under its policy, counting into this queue's stats, then
    /// pops the FIFO empty; returns the popped readings.
    pub(crate) fn round_trip(&mut self, batch: &[crate::Reading]) -> Vec<crate::Reading> {
        let mut items = std::collections::VecDeque::with_capacity(self.capacity);
        for &reading in batch {
            if items.len() < self.capacity {
                items.push_back(reading);
                self.stats.accepted += 1;
                self.stats.high_water = self.stats.high_water.max(items.len());
                continue;
            }
            match self.policy {
                OverflowPolicy::RejectNewest => self.stats.rejected += 1,
                OverflowPolicy::DropOldest => {
                    items.pop_front();
                    items.push_back(reading);
                    self.stats.accepted += 1;
                    self.stats.evicted += 1;
                    self.stats.high_water = self.stats.high_water.max(items.len());
                }
            }
        }
        items.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reading;
    use proptest::prelude::*;
    use thermal_timeseries::Timestamp;

    fn batch(n: usize) -> Vec<Reading> {
        (0..n)
            .map(|i| Reading {
                channel: i % 3,
                at: Timestamp::from_minutes(i as i64 * 5),
                value: i as f64,
            })
            .collect()
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(BoundedQueue::new(0, OverflowPolicy::RejectNewest).is_err());
    }

    #[test]
    fn reject_newest_refuses_overflow_and_counts_it() {
        let mut q = BoundedQueue::new(2, OverflowPolicy::RejectNewest).unwrap();
        // The queue keeps the *oldest* readings.
        assert_eq!(q.admit(3), 0..2);
        assert_eq!(q.stats().accepted, 2);
        assert_eq!(q.stats().rejected, 1);
        assert_eq!(q.stats().dropped(), 1);
        assert_eq!(q.stats().high_water, 2);
    }

    #[test]
    fn drop_oldest_evicts_and_counts() {
        let mut q = BoundedQueue::new(2, OverflowPolicy::DropOldest).unwrap();
        // The queue keeps the *newest* readings.
        assert_eq!(q.admit(3), 1..3);
        assert_eq!(q.stats().evicted, 1);
        assert_eq!(q.stats().accepted, 3);
        assert_eq!(q.stats().high_water, 2);
    }

    #[test]
    fn depth_never_exceeds_capacity() {
        for policy in [OverflowPolicy::RejectNewest, OverflowPolicy::DropOldest] {
            let mut q = BoundedQueue::new(3, policy).unwrap();
            for n in 0..100 {
                let kept = q.admit(n);
                assert!(kept.len() <= q.capacity());
                assert!(kept.end <= n);
            }
            let stats = q.stats();
            assert_eq!(stats.high_water, 3);
            assert_eq!(stats.accepted + stats.rejected, (0..100).sum::<u64>());
        }
    }

    #[test]
    fn restore_refuses_queued_readings() {
        let mut q = BoundedQueue::new(4, OverflowPolicy::DropOldest).unwrap();
        let mut rec = Record::new(BoundedQueue::TAG);
        rec.put_usize_slice("channels", &[1])
            .put_i64_slice("ats", &[0])
            .put_f64_slice("values", &[20.0]);
        QueueStats::default().put_fields(&mut rec, "");
        assert!(q.restore(&rec).is_err());
    }

    proptest! {
        /// Admission on the batch equals the push-all/pop-all round trip
        /// for both policies: the same counters after every batch, and
        /// the survivors are the admitted range of the batch.
        #[test]
        fn admit_matches_round_trip(
            (drop_oldest, capacity, sizes) in (
                any::<bool>(),
                1usize..8,
                prop::collection::vec(0usize..25, 1..12),
            ),
        ) {
            let policy = if drop_oldest {
                OverflowPolicy::DropOldest
            } else {
                OverflowPolicy::RejectNewest
            };
            let mut admitted = BoundedQueue::new(capacity, policy).unwrap();
            let mut reference = admitted.clone();
            for n in sizes {
                let n = n.min(3 * capacity);
                let readings = batch(n);
                let range = admitted.admit(n);
                let survivors = reference.round_trip(&readings);
                prop_assert_eq!(&readings[range], survivors.as_slice());
                prop_assert_eq!(admitted.stats(), reference.stats());
            }
        }
    }
}
