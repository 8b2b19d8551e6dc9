//! Conservative lookahead windows for multi-queue (sharded) execution.
//!
//! A sharded simulation runs one event queue per shard and lets each
//! shard run ahead of the others between synchronization barriers. The
//! classic conservative-PDES argument makes that safe: if every
//! cross-shard link has latency at least `L` (the *lookahead*), then an
//! event executing at time `t` can only schedule remote events at
//! `t + L` or later. All events strictly before `earliest + L` — where
//! `earliest` is the globally earliest pending timestamp at the last
//! barrier — are therefore unaffected by messages other shards send in
//! the meantime, and may execute before the next barrier.
//!
//! [`LookaheadWindow`] is that bound as a value: barriers re-open it
//! from the earliest pending event, [`LookaheadWindow::covers`] asks
//! whether a timestamp is safe to execute before the next barrier, and
//! the monotone `end` doubles as the proof obligation every cross-shard
//! message must satisfy (`arrival >= end`).

use crate::time::{Duration, SimTime};

/// The safe-execution bound of a conservatively synchronized shard set.
///
/// The window's `end` is maintained monotonically: re-opening from an
/// earlier timestamp than a previous barrier can never shrink it, so a
/// message sent under an old window stays provably undeliverable
/// inside every later one.
///
/// ```
/// use octopus_sim::{Duration, LookaheadWindow, SimTime};
///
/// // links take at least 10 ms, so events earlier than
/// // earliest + 10 ms cannot be affected by in-flight messages
/// let mut w = LookaheadWindow::new(Duration::from_millis(10));
/// w.open(SimTime::from_millis(100));
/// assert!(w.covers(SimTime::from_millis(105)));
/// assert!(!w.covers(SimTime::from_millis(110))); // needs a barrier first
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LookaheadWindow {
    lookahead: Duration,
    end: SimTime,
}

impl LookaheadWindow {
    /// A window with the given lookahead (the minimum cross-shard link
    /// latency), initially closed at time zero.
    #[must_use]
    pub fn new(lookahead: Duration) -> Self {
        LookaheadWindow {
            lookahead,
            end: SimTime::ZERO,
        }
    }

    /// The lookahead this window was built with.
    #[must_use]
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// The current safe-execution bound: events strictly before `end`
    /// may run without a barrier.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Re-open the window at a barrier, given the earliest pending
    /// event time across all shards. Returns the new bound. The bound
    /// never moves backwards.
    pub fn open(&mut self, earliest: SimTime) -> SimTime {
        self.end = self.end.max(earliest + self.lookahead);
        self.end
    }

    /// Is an event at `t` safe to execute before the next barrier?
    ///
    /// With zero lookahead this is `false` for every `t`, which
    /// degenerates the engine to a barrier before every pop — always
    /// correct, never fast; give the model a real minimum latency to
    /// get batching.
    #[must_use]
    pub fn covers(&self, t: SimTime) -> bool {
        t < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_from_earliest_plus_lookahead() {
        let mut w = LookaheadWindow::new(Duration::from_millis(5));
        assert_eq!(w.lookahead(), Duration::from_millis(5));
        let end = w.open(SimTime::from_millis(20));
        assert_eq!(end, SimTime::from_millis(25));
        assert!(w.covers(SimTime::from_millis(24)));
        assert!(!w.covers(SimTime::from_millis(25)), "end is exclusive");
    }

    #[test]
    fn end_is_monotone() {
        let mut w = LookaheadWindow::new(Duration::from_millis(10));
        w.open(SimTime::from_millis(100));
        // a later barrier from an earlier timestamp must not shrink
        w.open(SimTime::from_millis(95));
        assert_eq!(w.end(), SimTime::from_millis(110));
    }

    #[test]
    fn zero_lookahead_covers_nothing() {
        let mut w = LookaheadWindow::new(Duration::ZERO);
        w.open(SimTime::from_millis(7));
        assert!(!w.covers(SimTime::from_millis(7)));
        assert!(
            w.covers(SimTime::from_millis(6)),
            "earlier events still safe"
        );
    }
}
