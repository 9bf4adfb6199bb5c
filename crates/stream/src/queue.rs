//! Bounded ingest queue — the backpressure boundary of the runtime.
//!
//! Every reading enters the service through one fixed-capacity queue.
//! When producers outrun the event loop the queue does not grow: the
//! configured [`OverflowPolicy`] either rejects the incoming reading
//! or evicts the oldest queued one, and either way the loss is
//! *counted*, so a soak run can assert both bounded memory and an
//! exact account of what was shed.

use std::collections::VecDeque;

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Fields, Snapshot};
use thermal_timeseries::Timestamp;

use crate::event::Reading;
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

/// Outcome of one [`BoundedQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The reading was queued without loss.
    Accepted,
    /// The reading was queued and the oldest queued reading was
    /// evicted ([`OverflowPolicy::DropOldest`]).
    AcceptedEvictingOldest,
    /// The reading was refused ([`OverflowPolicy::RejectNewest`]).
    Rejected,
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
    /// Largest queue depth ever observed.
    pub high_water: usize,
}

impl QueueStats {
    /// Total readings lost at this boundary (rejected + evicted).
    pub fn dropped(&self) -> u64 {
        self.rejected + self.evicted
    }
}

thermal_ckpt::fields!(QueueStats: accepted, rejected, evicted, high_water);

/// A fixed-capacity FIFO of readings with counted overflow.
#[derive(Debug, Clone)]
pub struct BoundedQueue {
    items: VecDeque<Reading>,
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
            items: VecDeque::with_capacity(capacity),
            capacity,
            policy,
            stats: QueueStats::default(),
        })
    }

    /// Offers a reading, applying the overflow policy when full.
    pub fn push(&mut self, reading: Reading) -> PushOutcome {
        if self.items.len() < self.capacity {
            self.items.push_back(reading);
            self.stats.accepted += 1;
            self.stats.high_water = self.stats.high_water.max(self.items.len());
            return PushOutcome::Accepted;
        }
        match self.policy {
            OverflowPolicy::RejectNewest => {
                self.stats.rejected += 1;
                PushOutcome::Rejected
            }
            OverflowPolicy::DropOldest => {
                self.items.pop_front();
                self.items.push_back(reading);
                self.stats.accepted += 1;
                self.stats.evicted += 1;
                self.stats.high_water = self.stats.high_water.max(self.items.len());
                PushOutcome::AcceptedEvictingOldest
            }
        }
    }

    /// Removes and returns the oldest queued reading.
    pub fn pop(&mut self) -> Option<Reading> {
        self.items.pop_front()
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
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

/// Captures queued readings (as parallel channel/minute/value lists)
/// and the loss counters; capacity and overflow policy are
/// construction context, verified only through the depth bound.
impl Snapshot for BoundedQueue {
    const TAG: &'static str = "stream-queue";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        let channels: Vec<usize> = self.items.iter().map(|r| r.channel).collect();
        let ats: Vec<i64> = self.items.iter().map(|r| r.at.as_minutes()).collect();
        let values: Vec<f64> = self.items.iter().map(|r| r.value).collect();
        rec.put_usize_slice("channels", &channels)
            .put_i64_slice("ats", &ats)
            .put_f64_slice("values", &values);
        self.stats.put_fields(rec, "");
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let channels = rec.get_usize_slice("channels")?;
        let ats = rec.get_i64_slice("ats")?;
        let values = rec.get_f64_slice("values")?;
        if channels.len() != ats.len() || channels.len() != values.len() {
            return Err(CkptError::decode(
                "queue snapshot",
                "channel/at/value lists disagree in length",
            ));
        }
        if channels.len() > self.capacity {
            return Err(CkptError::decode(
                "queue snapshot",
                format!(
                    "{} queued readings exceed capacity {}",
                    channels.len(),
                    self.capacity
                ),
            ));
        }
        let stats = QueueStats::get_fields(rec, "")?;
        self.items = channels
            .into_iter()
            .zip(ats)
            .zip(values)
            .map(|((channel, at), value)| Reading {
                channel,
                at: Timestamp::from_minutes(at),
                value,
            })
            .collect::<VecDeque<_>>();
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermal_timeseries::Timestamp;

    fn r(ch: usize, minute: i64) -> Reading {
        Reading {
            channel: ch,
            at: Timestamp::from_minutes(minute),
            value: 20.0,
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(BoundedQueue::new(0, OverflowPolicy::RejectNewest).is_err());
    }

    #[test]
    fn reject_newest_refuses_overflow_and_counts_it() {
        let mut q = BoundedQueue::new(2, OverflowPolicy::RejectNewest).unwrap();
        assert_eq!(q.push(r(0, 0)), PushOutcome::Accepted);
        assert_eq!(q.push(r(0, 5)), PushOutcome::Accepted);
        assert_eq!(q.push(r(0, 10)), PushOutcome::Rejected);
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().rejected, 1);
        assert_eq!(q.stats().dropped(), 1);
        assert_eq!(q.stats().high_water, 2);
        // The queue kept the *oldest* readings.
        assert_eq!(q.pop().unwrap().at.as_minutes(), 0);
        assert_eq!(q.pop().unwrap().at.as_minutes(), 5);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drop_oldest_evicts_and_counts() {
        let mut q = BoundedQueue::new(2, OverflowPolicy::DropOldest).unwrap();
        q.push(r(0, 0));
        q.push(r(0, 5));
        assert_eq!(q.push(r(0, 10)), PushOutcome::AcceptedEvictingOldest);
        assert_eq!(q.len(), 2);
        assert_eq!(q.stats().evicted, 1);
        assert_eq!(q.stats().accepted, 3);
        // The queue kept the *newest* readings.
        assert_eq!(q.pop().unwrap().at.as_minutes(), 5);
        assert_eq!(q.pop().unwrap().at.as_minutes(), 10);
    }

    #[test]
    fn depth_never_exceeds_capacity() {
        for policy in [OverflowPolicy::RejectNewest, OverflowPolicy::DropOldest] {
            let mut q = BoundedQueue::new(3, policy).unwrap();
            for i in 0..100 {
                q.push(r(0, i));
                assert!(q.len() <= q.capacity());
            }
            assert_eq!(q.stats().high_water, 3);
            assert_eq!(q.stats().accepted + q.stats().rejected, 100);
        }
    }
}
