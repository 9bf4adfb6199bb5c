//! Events of the simulated stream: timestamped sensor readings and
//! the simulated clock that orders them.
//!
//! Nothing in the runtime reads wall-clock time. The clock is a plain
//! monotonic minute counter advanced by the event loop, so a replay
//! of the same trace produces bit-identical state on every run and
//! every machine.

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Snapshot};
use thermal_timeseries::Timestamp;

use crate::{Result, StreamError};

/// One timestamped sensor reading as delivered by an ingest source.
///
/// `channel` is an index into the serving registry (see
/// [`crate::StreamService::channel_index`]); readings carry indices
/// rather than names so a replay of millions of events allocates
/// nothing per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Registry index of the originating channel.
    pub channel: usize,
    /// Instant the sample was *measured* (which, under reordering and
    /// retries, may be well before it is delivered).
    pub at: Timestamp,
    /// Measured value. Finite by construction everywhere this crate
    /// produces readings; ingest parsing rejects non-finite fields.
    pub value: f64,
}

/// The simulated event-loop clock: monotonic minutes since the trace
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    now: Timestamp,
}

impl SimClock {
    /// Creates a clock positioned at `start`.
    pub fn new(start: Timestamp) -> Self {
        SimClock { now: start }
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advances the clock to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ClockRegression`] when `to` precedes the
    /// current time — the runtime's event order is broken and every
    /// downstream watermark would silently corrupt.
    pub fn advance_to(&mut self, to: Timestamp) -> Result<()> {
        if to < self.now {
            return Err(StreamError::ClockRegression {
                now: self.now.as_minutes(),
                requested: to.as_minutes(),
            });
        }
        self.now = to;
        Ok(())
    }
}

/// The clock *is* the runtime's only notion of time, so snapshotting
/// it is what keeps restored state free of wall-clock reads: any
/// "when" a resumed run needs comes from here.
impl Snapshot for SimClock {
    const TAG: &'static str = "stream-clock";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put_i64("now", self.now.as_minutes());
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        self.now = Timestamp::from_minutes(rec.get_i64("now")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut clock = SimClock::new(Timestamp::from_minutes(10));
        assert_eq!(clock.now().as_minutes(), 10);
        clock.advance_to(Timestamp::from_minutes(15)).unwrap();
        clock.advance_to(Timestamp::from_minutes(15)).unwrap();
        assert_eq!(clock.now().as_minutes(), 15);
        assert!(matches!(
            clock.advance_to(Timestamp::from_minutes(14)),
            Err(StreamError::ClockRegression {
                now: 15,
                requested: 14
            })
        ));
    }
}
