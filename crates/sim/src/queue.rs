//! The time-ordered event queue at the heart of the simulator.
//!
//! [`EventQueue`] owns the simulation clock and the monotone insertion
//! sequence; storage and ordering are delegated to a [`Scheduler`]
//! backend: the timing wheel everywhere, the binary heap
//! ([`EventQueue::with_scheduler`]) as the reference it is checked and
//! timed against.

use std::fmt;

use crate::sched::{BinaryHeapScheduler, Scheduler, SchedulerKind, TimingWheel};
use crate::time::SimTime;

/// A deterministic priority queue of `(SimTime, E)` events.
///
/// Ties at the same instant pop in insertion order — part of the
/// [`Scheduler`] contract — which keeps simulations reproducible
/// regardless of backend internals.
pub struct EventQueue<E> {
    backend: Backend<E>,
    seq: u128,
    now: SimTime,
}

/// Static dispatch over the two backends: every queue method matches
/// on the variant. (Handing out a `&mut dyn Scheduler` instead compiles,
/// for a two-variant enum, to a conditional move between the two
/// functions' addresses and an indirect call through it; in
/// `push_with_seq` that measured ×1.37 on octobench's
/// `engine-gossip-10k` `job_ms`.)
enum Backend<E> {
    Heap(BinaryHeapScheduler<E>),
    Wheel(TimingWheel<E>),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("backend", &self.backend_name())
            .field("len", &self.len())
            .field("now", &self.now)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero on the default backend
    /// ([`SchedulerKind::TimingWheel`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_scheduler(SchedulerKind::default())
    }

    /// An empty queue at time zero on the chosen backend.
    #[must_use]
    pub fn with_scheduler(kind: SchedulerKind) -> Self {
        let backend = match kind {
            SchedulerKind::BinaryHeap => Backend::Heap(BinaryHeapScheduler::new()),
            SchedulerKind::TimingWheel => Backend::Wheel(TimingWheel::new()),
        };
        EventQueue {
            backend,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The backend's stable name (for logs and benches).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Heap(_) => SchedulerKind::BinaryHeap.name(),
            Backend::Wheel(_) => SchedulerKind::TimingWheel.name(),
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when `at` is in the past — scheduling backwards in time is
    /// always a protocol-logic bug.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        match &mut self.backend {
            Backend::Heap(s) => s.schedule(at, seq, event),
            Backend::Wheel(s) => s.schedule(at, seq, event),
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = match &mut self.backend {
            Backend::Heap(s) => s.pop_next(),
            Backend::Wheel(s) => s.pop_next(),
        }?;
        self.now = t;
        Some((t, e))
    }

    /// Pop the earliest event only when it is due strictly before
    /// `bound`, advancing the clock to its timestamp; `None` leaves the
    /// queue untouched. One backend call instead of the peek/pop pair a
    /// windowed engine would otherwise issue per in-window event.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        let (t, e) = match &mut self.backend {
            Backend::Heap(s) => s.pop_next_before(bound),
            Backend::Wheel(s) => s.pop_next_before(bound),
        }?;
        self.now = t;
        Some((t, e))
    }

    /// Schedule `event` at `at` under a caller-supplied tie-break key.
    ///
    /// This is the composition hook for multi-queue engines: a sharded
    /// world packs `(lane, origin, counter)` keys into the 128 bits so
    /// that `(time, seq)` keys stay totally ordered across every
    /// shard's queue — without any cross-shard coordination at
    /// assignment time — then pushes each event here. The queue's own
    /// counter is bumped past `seq` so later [`EventQueue::push`] calls
    /// never collide. Unlike `push`, `seq` need not arrive in
    /// increasing order (a cross-shard send may arrive with an older
    /// key than a local push already queued); it must only be unique
    /// per queue.
    ///
    /// # Panics
    /// Panics when `at` is in the past, exactly as [`EventQueue::push`].
    // Inlined by force: it is the engine's per-event scheduling call,
    // and left to the heuristic it stays out of line and costs ≈ 5 %
    // of an engine event.
    #[inline(always)]
    pub fn push_with_seq(&mut self, at: SimTime, seq: u128, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at:?} < {:?})",
            self.now
        );
        self.seq = self.seq.max(seq.saturating_add(1));
        match &mut self.backend {
            Backend::Heap(s) => s.schedule(at, seq, event),
            Backend::Wheel(s) => s.schedule(at, seq, event),
        }
    }

    /// Peek at the next event time without popping.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Heap(s) => s.peek_time(),
            Backend::Wheel(s) => s.peek_time(),
        }
    }

    /// Peek at the next event's full `(time, seq)` ordering key without
    /// popping — what a sharded engine compares across queues to find
    /// the globally earliest event.
    #[must_use]
    pub fn peek_key(&self) -> Option<(SimTime, u128)> {
        match &self.backend {
            Backend::Heap(s) => s.peek_key(),
            Backend::Wheel(s) => s.peek_key(),
        }
    }

    /// Current simulation time (timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(s) => s.len(),
            Backend::Wheel(s) => s.len(),
        }
    }

    /// True when no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard all pending events (used at simulation shutdown).
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(s) => s.clear(),
            Backend::Wheel(s) => s.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn all_kinds() -> [SchedulerKind; 2] {
        [SchedulerKind::BinaryHeap, SchedulerKind::TimingWheel]
    }

    #[test]
    fn pops_in_time_order() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            q.push(SimTime::from_secs(3), "c");
            q.push(SimTime::from_secs(1), "a");
            q.push(SimTime::from_secs(2), "b");
            assert_eq!(q.pop().unwrap().1, "a");
            assert_eq!(q.pop().unwrap().1, "b");
            assert_eq!(q.pop().unwrap().1, "c");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    #[test]
    fn clock_advances() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            q.push(SimTime::from_secs(5), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(5));
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.pop();
        q.push(SimTime::from_secs(4), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            q.push(SimTime::from_secs(5), 1);
            q.pop();
            q.push(q.now(), 2); // zero-delay self-message
            assert_eq!(q.pop().unwrap().1, 2);
        }
    }

    #[test]
    fn interleaved_push_pop() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            q.push(SimTime::from_secs(1), 1);
            q.push(SimTime::from_secs(10), 10);
            let (t, v) = q.pop().unwrap();
            assert_eq!(v, 1);
            q.push(t + Duration::from_secs(2), 3);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 10);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn len_and_clear() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            for i in 0..5 {
                q.push(SimTime::from_secs(i), i);
            }
            assert_eq!(q.len(), 5);
            q.clear();
            assert!(q.is_empty());
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_millis(7), 1);
            q.push(SimTime::from_millis(3), 2);
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_millis(3));
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        }
    }

    #[test]
    fn peek_key_exposes_time_and_seq() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            assert_eq!(q.peek_key(), None);
            q.push(SimTime::from_millis(5), "a"); // seq 0
            q.push(SimTime::from_millis(5), "b"); // seq 1
            assert_eq!(q.peek_key(), Some((SimTime::from_millis(5), 0)));
            q.pop();
            assert_eq!(q.peek_key(), Some((SimTime::from_millis(5), 1)));
        }
    }

    #[test]
    fn push_with_seq_orders_across_queues() {
        // a sharded world interleaves one global counter over two
        // queues; each queue must honour the supplied seq, including a
        // cross-shard event whose seq is older than a later local push
        for kind in all_kinds() {
            let t = SimTime::from_millis(3);
            let mut q = EventQueue::with_scheduler(kind);
            q.push_with_seq(t, 7, "late");
            q.push_with_seq(t, 2, "early"); // flushed in after the fact
            assert_eq!(q.peek_key(), Some((t, 2)));
            assert_eq!(q.pop().unwrap().1, "early");
            assert_eq!(q.pop().unwrap().1, "late");
            // the internal counter moved past the largest supplied seq
            q.push(t, "next");
            assert_eq!(q.peek_key(), Some((t, 8)));
        }
    }

    #[test]
    fn pop_before_honours_the_bound() {
        for kind in all_kinds() {
            let mut q = EventQueue::with_scheduler(kind);
            q.push(SimTime::from_millis(3), "a");
            q.push(SimTime::from_millis(9), "b");
            // strict bound: an event exactly at the bound stays queued
            assert_eq!(q.pop_before(SimTime::from_millis(3)), None);
            assert_eq!(
                q.pop_before(SimTime::from_millis(4)),
                Some((SimTime::from_millis(3), "a"))
            );
            assert_eq!(q.now(), SimTime::from_millis(3));
            assert_eq!(q.pop_before(SimTime::from_millis(9)), None);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_before(SimTime(u64::MAX)).unwrap().1, "b");
            assert_eq!(q.pop_before(SimTime(u64::MAX)), None);
        }
    }

    #[test]
    fn default_backend_is_the_wheel() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend_name(), "timing-wheel");
    }
}
