//! Event-queue backends.
//!
//! [`EventQueue`](crate::EventQueue) delegates storage and ordering to a
//! [`Scheduler`] implementation. Two backends ship with the engine:
//!
//! * [`BinaryHeapScheduler`] — a classic `O(log n)` priority heap; the
//!   reference implementation the wheel is tested and timed against.
//!   No run configuration selects it.
//! * [`TimingWheel`] — a hierarchical timing wheel with `O(1)` insertion,
//!   the backend every simulation runs on.
//!   Simulation workloads are dominated by short periodic timers
//!   (stabilize / finger / surveillance / walk) and latency-bounded
//!   message deliveries, which land in the lowest wheel levels and make
//!   this backend substantially faster than the heap at scale. A due
//!   slot is sorted ascending by merging the runs it arrived in and
//!   served from the front.
//!
//! # Determinism contract
//!
//! Every backend MUST pop events in ascending `(time, seq)` order, where
//! `seq` is a caller-supplied tie-break key — for a plain
//! [`EventQueue`](crate::EventQueue) the monotonically increasing
//! insertion sequence number, for a sharded world a packed
//! `(lane, origin, counter)` key that is unique without being dense.
//! Ties at the same timestamp therefore pop in key order (insertion
//! FIFO for the plain queue). This contract is what makes simulations
//! byte-for-byte reproducible on either backend; the
//! cross-backend regression tests in `tests/scheduler_equivalence.rs`
//! enforce it.
//!
//! A stored event always pops: no backend can withdraw one. The UDP
//! host, the one caller that withdraws timers, queues them in a map of
//! its own.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A time-ordered event store: the backend of an
/// [`EventQueue`](crate::EventQueue).
///
/// Implementations must honour the determinism contract documented at the
/// [module level](self): events pop in ascending `(time, seq)` order.
pub trait Scheduler<E> {
    /// Store `event` at `time` with tie-break key `seq`.
    ///
    /// The caller guarantees `seq` is globally unique and `time` is
    /// never earlier than the last popped time. Keys normally arrive
    /// strictly increasing, but neither density nor monotonicity is
    /// required: a sharded engine packs `(lane, origin, counter)` keys
    /// into the 128 bits and a cross-shard send may deliver an *older*
    /// (smaller-key) event after younger local ones; backends
    /// must order all of those correctly too.
    fn schedule(&mut self, time: SimTime, seq: u128, event: E);

    /// Remove and return the earliest `(time, event)` pair, breaking
    /// timestamp ties by insertion order.
    fn pop_next(&mut self) -> Option<(SimTime, E)>;

    /// The timestamp of the next event without removing it.
    fn peek_time(&self) -> Option<SimTime>;

    /// The full `(time, seq)` ordering key of the next event without
    /// removing it — the hook a multi-queue (sharded) engine uses to
    /// pick the globally earliest event across several backends.
    fn peek_key(&self) -> Option<(SimTime, u128)>;

    /// Pop the earliest event only when it is due strictly before
    /// `bound`; otherwise leave the store untouched and return `None`.
    ///
    /// This is the batch-execution hook: a windowed engine drains a
    /// shard's in-window events with one backend call per event instead
    /// of a peek/pop pair. The default implementation is exactly that
    /// pair; backends may override it when they can answer cheaper.
    fn pop_next_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time().is_some_and(|t| t < bound) {
            self.pop_next()
        } else {
            None
        }
    }

    /// Number of stored events.
    fn len(&self) -> usize;

    /// True when no events are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard all stored events.
    fn clear(&mut self);
}

/// Which [`Scheduler`] backend an [`EventQueue`](crate::EventQueue) uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// [`BinaryHeapScheduler`]: `O(log n)` reference backend.
    BinaryHeap,
    /// [`TimingWheel`]: `O(1)`-insert hierarchical wheel (the default).
    #[default]
    TimingWheel,
}

impl SchedulerKind {
    /// Short stable name (used in logs and bench labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::BinaryHeap => "binary-heap",
            SchedulerKind::TimingWheel => "timing-wheel",
        }
    }
}

/// An event plus its total-order key.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u128,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u128) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time pops
        // first and the lower sequence number wins ties.
        other.key().cmp(&self.key())
    }
}

/// The `O(log n)` reference backend: a binary max-heap over inverted
/// `(time, seq)` keys.
#[derive(Debug)]
pub struct BinaryHeapScheduler<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for BinaryHeapScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapScheduler<E> {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> Scheduler<E> for BinaryHeapScheduler<E> {
    fn schedule(&mut self, time: SimTime, seq: u128, event: E) {
        self.heap.push(Entry { time, seq, event });
    }

    fn pop_next(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn peek_key(&self) -> Option<(SimTime, u128)> {
        self.heap.peek().map(Entry::key)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

// --- hierarchical timing wheel -----------------------------------------

/// Bits per wheel level: 64 slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Bitmap mask over one level's slot indices.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Number of wheel levels.
const LEVELS: usize = 6;
/// One tick is 2^TICK_BITS microseconds (≈ 8 ms). Coarse enough that a
/// busy simulation puts a batch of events in each level-0 slot (one
/// slot sort amortizes over the batch, and typical WAN latencies land
/// directly in level 0), fine enough that slot sorts stay tiny.
const TICK_BITS: u32 = 13;
/// Ticks covered by the whole wheel; events further out overflow to a
/// fallback heap and migrate in as the cursor approaches.
const HORIZON_TICKS: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// One wheel level: 64 slots of unsorted entries plus an occupancy
/// bitmap for constant-time next-slot scans.
#[derive(Debug)]
struct Level<E> {
    slots: Vec<Vec<Entry<E>>>,
    occupied: u64,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }
}

/// The `O(1)`-insert hierarchical timing wheel backend.
///
/// Time is bucketed into ≈ 8 ms ticks. Level `l` has 64 slots spanning
/// `64^l` ticks each, so the six levels cover ≈ 17 simulated years;
/// rarer events beyond the horizon wait in a small fallback heap. An
/// event is filed at the shallowest level whose slot span exceeds its
/// delay; as the cursor reaches a coarse slot its contents cascade into
/// finer levels, and a level-0 slot is drained into the sorted `ready`
/// run from which `pop_next` serves. Sorting each drained slot by
/// `(time, seq)` restores the exact total order the determinism contract
/// requires — sub-tick timestamps included.
///
/// The sort is the standard library's stable, run-merging one, because a
/// slot is rarely in random order: events execute in time order, so
/// everything pushed with one delay (a periodic timer, a constant-latency
/// delivery) arrives already ascending, and a busy slot is a few such
/// runs laid end to end. Merging them costs one pass; the keys are
/// unique, so stability changes nothing about the result.
///
/// Buffers: kept only where events wait, and recycled where they are
/// reused soon. A drained level-0 slot's sorted buffer becomes `ready`,
/// the emptied `ready` buffer goes onto the `spare` list, and a level-0
/// slot takes a spare before its first push. So the wheel holds one
/// buffer per *occupied* level-0 slot, plus `ready`, plus what waits on
/// `spare` — never more than one per slot and `ready` — and once each
/// has held a busy tick that path never allocates. A gossip overlay
/// whose 300 ms timers and 40 ms deliveries keep ≈ 37 of the 64 slots
/// busy would otherwise pin ≈ 27 idle buffers of ≈ 1 024 entries; a
/// drained slot that freed its buffer instead would regrow one every
/// tick. A coarse slot (level ≥ 1) frees its buffer when it
/// cascades: the slot is next due a whole rotation later (≈ 33.5 s at
/// level 1), and a kept buffer would pin the busiest load it ever saw.
/// In the §5.1 simulator, whose entries were then 112 bytes, kept
/// buffers left level 1 with room for 221 184 entries at the end of an
/// 80 s job that stored 21 875 there; given back, the room is 32 376.
/// The price is regrowth: a coarse slot refills by doubling from four
/// entries, which cost that job 145 allocations and 1 061 reallocations
/// more, beside 1.9 million allocations.
///
/// Entry size is the event's business, and every entry of one wheel
/// pays for the largest event it can hold. So a world keeps its timers
/// and its deliveries in two lanes, one wheel each, and merges their
/// heads by key: a timer entry never pays for a message. The
/// simulator's timer entries are 64 bytes, the 24-byte `(time, seq)`
/// and a 32-byte timer rounded up to the key's 16-byte alignment; its
/// delivery entries are 96 bytes, the key and a 72-byte delivery whose
/// `Msg` is at most 56 bytes. In one wheel holding both, every entry
/// took 96 bytes. `Msg` stays that small because it boxes its rare
/// large payloads (a walk's phase-2 delegation, once per walk) and
/// keeps its frequent ones inline (an onion, several per lookup, where
/// a box would cost an allocation per hop).
#[derive(Debug)]
pub struct TimingWheel<E> {
    levels: Vec<Level<E>>,
    /// Current wheel position in ticks. Invariant: every slot whose
    /// start lies strictly before the cursor is empty.
    cursor: u64,
    /// Events due next, sorted ascending by `(time, seq)` and served
    /// from the front. A drained slot is sorted in place and adopted
    /// without copying (`Vec` ↔ `VecDeque` conversions of a whole buffer
    /// are `O(1)`). Non-empty whenever `len > 0` and `staged` is empty
    /// (maintained eagerly so `peek_time` is `O(1)`).
    ready: VecDeque<Entry<E>>,
    /// Emptied level-0 buffers, waiting for the next empty level-0 slot
    /// to be filled.
    spare: Vec<Vec<Entry<E>>>,
    /// Entries scheduled at or behind the cursor tick (timers re-armed
    /// behind the eagerly-advanced cursor, and cross-shard sends). A
    /// second min-heap beside `ready`: a window's cross-shard sends can
    /// put tens of thousands of same-tick entries here in one burst, and a
    /// heap absorbs any burst shape in `O(log n)` per entry where a
    /// sorted run degrades to a quadratic memmove. `pop_next` serves
    /// from whichever of `ready`'s front and this heap's top holds the
    /// smaller key — no merge, ever.
    staged: BinaryHeap<Entry<E>>,
    /// Events beyond the wheel horizon (min-heap via inverted `Ord`).
    overflow: BinaryHeap<Entry<E>>,
    /// Stored events.
    len: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel positioned at time zero.
    #[must_use]
    pub fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            cursor: 0,
            ready: VecDeque::new(),
            spare: Vec::new(),
            staged: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    fn tick_of(time: SimTime) -> u64 {
        time.0 >> TICK_BITS
    }

    /// File `entry` into the structure appropriate for its delay:
    /// `ready` when already due, a wheel slot inside the horizon, or the
    /// overflow heap beyond it.
    fn place(&mut self, entry: Entry<E>) {
        let tick = Self::tick_of(entry.time);
        if tick <= self.cursor {
            // Already inside the drained region — a timer re-armed just
            // behind the eagerly-advanced cursor, or a cross-shard
            // send. Inserting into `ready` directly would memmove
            // `O(ready)` per entry (quadratic per burst of them);
            // the staged heap takes any burst at `O(log n)` per entry.
            self.staged.push(entry);
            return;
        }
        let delta = tick - self.cursor;
        if delta >= HORIZON_TICKS {
            self.overflow.push(entry);
            return;
        }
        let level = (63 - delta.leading_zeros()) as usize / LEVEL_BITS as usize;
        let idx = ((tick >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
        let slot = &mut self.levels[level].slots[idx];
        if level == 0 && slot.capacity() == 0 {
            // an empty level-0 slot borrows a spare buffer (see "Buffers")
            if let Some(buffer) = self.spare.pop() {
                *slot = buffer;
            }
        }
        slot.push(entry);
        self.levels[level].occupied |= 1 << idx;
    }

    /// Earliest slot-start tick (≥ cursor) of any occupied slot at
    /// `level`, accounting for wrap-around into the next rotation.
    fn next_occupied_tick(&self, level: usize) -> Option<u64> {
        let occ = self.levels[level].occupied;
        if occ == 0 {
            return None;
        }
        let shift = LEVEL_BITS * level as u32;
        let span = 1u64 << shift; // ticks per slot
        let rotation = span << LEVEL_BITS; // ticks per full rotation
        let cur_idx = (self.cursor >> shift) & SLOT_MASK;
        let block = self.cursor & !(rotation - 1);
        let at_slot_start = self.cursor == block + cur_idx * span;
        // Bits at or above the cursor index belong to the current
        // rotation — except the cursor's own slot, which can only hold
        // next-rotation events once the cursor has moved past its start.
        let mut current = occ & (!0u64 << cur_idx);
        let mut wrapped = occ & !(!0u64 << cur_idx);
        if !at_slot_start {
            wrapped |= occ & (1 << cur_idx);
            current &= !(1 << cur_idx);
        }
        if current != 0 {
            Some(block + u64::from(current.trailing_zeros()) * span)
        } else {
            Some(block + rotation + u64::from(wrapped.trailing_zeros()) * span)
        }
    }

    /// Advance the cursor to the earliest pending tick and drain
    /// everything due there into `ready` (no-op when already non-empty,
    /// drained, or holding a staged batch that pops first anyway).
    fn ensure_ready(&mut self) {
        while self.ready.is_empty() && self.staged.is_empty() && self.len > 0 {
            let mut best_tick = u64::MAX;
            for level in 0..LEVELS {
                if let Some(t) = self.next_occupied_tick(level) {
                    best_tick = best_tick.min(t);
                }
            }
            if let Some(top) = self.overflow.peek() {
                best_tick = best_tick.min(Self::tick_of(top.time));
            }
            debug_assert!(best_tick != u64::MAX, "len > 0 but no events stored");
            debug_assert!(best_tick >= self.cursor, "wheel cursor moved backwards");
            self.cursor = best_tick;
            self.drain_due_at_cursor();
        }
    }

    /// Drain every source that is due exactly at the cursor tick —
    /// overflow entries, coarse slots starting here (cascaded fine-ward)
    /// and the level-0 slot — into one sorted `ready` run. Handling all
    /// sources of the tick together is what keeps same-timestamp events
    /// from different levels in global `(time, seq)` order.
    fn drain_due_at_cursor(&mut self) {
        debug_assert!(self.ready.is_empty());
        // The emptied ready buffer collects the tick (an empty deque
        // converts without copying and keeps its capacity).
        let mut due = Vec::from(std::mem::take(&mut self.ready));
        while let Some(top) = self.overflow.peek() {
            if Self::tick_of(top.time) == self.cursor {
                let e = self.overflow.pop().expect("peeked entry exists");
                due.push(e);
            } else {
                break;
            }
        }
        // Coarse before fine: a cascading level may refill the slot a
        // finer level is about to visit at this same tick.
        for level in (1..LEVELS).rev() {
            let shift = LEVEL_BITS * level as u32;
            let span = 1u64 << shift;
            if self.cursor & (span - 1) != 0 {
                // the cursor is inside, not at the start of, this
                // level's slot — nothing is due here
                continue;
            }
            let idx = ((self.cursor >> shift) & SLOT_MASK) as usize;
            if self.levels[level].occupied & (1 << idx) == 0 {
                continue;
            }
            // consumed with its buffer: the slot is next due a rotation
            // away and refills from empty (see "Buffers" above)
            let batch = std::mem::take(&mut self.levels[level].slots[idx]);
            self.levels[level].occupied &= !(1 << idx);
            for e in batch {
                if Self::tick_of(e.time) == self.cursor {
                    due.push(e);
                } else {
                    self.place(e);
                }
            }
        }
        let idx0 = (self.cursor & SLOT_MASK) as usize;
        if self.levels[0].occupied & (1 << idx0) != 0 {
            self.levels[0].occupied &= !(1 << idx0);
            let mut slot = std::mem::take(&mut self.levels[0].slots[idx0]);
            debug_assert!(slot.iter().all(|e| Self::tick_of(e.time) == self.cursor));
            // The slot keeps no buffer: whichever of the two ends up
            // empty waits on the spare list (see "Buffers" above).
            let emptied = if due.is_empty() {
                // Common case: the whole tick lives in one level-0 slot,
                // whose buffer is adopted whole. Zero copies.
                std::mem::replace(&mut due, slot)
            } else {
                due.append(&mut slot);
                slot
            };
            if emptied.capacity() > 0 {
                self.spare.push(emptied);
            }
        }
        due.sort_by_key(Entry::key);
        self.ready = VecDeque::from(due);
    }
}

impl<E> Scheduler<E> for TimingWheel<E> {
    fn schedule(&mut self, time: SimTime, seq: u128, event: E) {
        self.place(Entry { time, seq, event });
        self.len += 1;
        self.ensure_ready();
    }

    fn pop_next(&mut self) -> Option<(SimTime, E)> {
        // Serve from whichever of ready's front (its minimum) and the
        // staged heap's top holds the smaller key.
        let from_staged = match (self.ready.front(), self.staged.peek()) {
            (Some(r), Some(s)) => s.key() < r.key(),
            (None, Some(_)) => true,
            _ => false,
        };
        let e = if from_staged {
            self.staged.pop()
        } else {
            self.ready.pop_front()
        }?;
        self.len -= 1;
        self.ensure_ready();
        Some((e.time, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(t, _)| t)
    }

    fn peek_key(&self) -> Option<(SimTime, u128)> {
        match (self.ready.front(), self.staged.peek()) {
            (Some(r), Some(s)) => Some(r.key().min(s.key())),
            (r, s) => r.or(s).map(Entry::key),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        for level in &mut self.levels {
            if level.occupied != 0 {
                for slot in &mut level.slots {
                    slot.clear();
                }
                level.occupied = 0;
            }
        }
        self.ready.clear();
        self.staged.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn backends() -> Vec<(SchedulerKind, Box<dyn Scheduler<u64>>)> {
        vec![
            (
                SchedulerKind::BinaryHeap,
                Box::new(BinaryHeapScheduler::new()),
            ),
            (SchedulerKind::TimingWheel, Box::new(TimingWheel::new())),
        ]
    }

    #[test]
    fn both_backends_pop_in_time_then_seq_order() {
        for (kind, mut s) in backends() {
            s.schedule(SimTime::from_secs(3), 0, 30);
            s.schedule(SimTime::from_secs(1), 1, 10);
            s.schedule(SimTime::from_secs(1), 2, 11);
            s.schedule(SimTime::from_secs(2), 3, 20);
            let order: Vec<u64> = std::iter::from_fn(|| s.pop_next().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![10, 11, 20, 30], "backend {kind:?}");
        }
    }

    #[test]
    fn wheel_handles_sub_tick_ordering() {
        // events inside the same 8.192 ms tick must still sort by exact time
        let mut w = TimingWheel::new();
        w.schedule(SimTime(500), 0, 2);
        w.schedule(SimTime(100), 1, 1);
        w.schedule(SimTime(900), 2, 3);
        assert_eq!(w.pop_next(), Some((SimTime(100), 1)));
        assert_eq!(w.pop_next(), Some((SimTime(500), 2)));
        assert_eq!(w.pop_next(), Some((SimTime(900), 3)));
    }

    #[test]
    fn wheel_cascades_across_levels() {
        let mut w = TimingWheel::new();
        // spread events across every level's range
        let delays_s = [0u64, 1, 10, 60, 600, 3600, 86_400];
        for (i, &d) in delays_s.iter().enumerate() {
            w.schedule(SimTime::from_secs(d), i as u128, d);
        }
        let mut prev = None;
        while let Some((t, d)) = w.pop_next() {
            assert_eq!(t, SimTime::from_secs(d));
            if let Some(p) = prev {
                assert!(t >= p);
            }
            prev = Some(t);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_overflow_beyond_horizon() {
        let mut w = TimingWheel::new();
        let far = SimTime((HORIZON_TICKS + 5) << TICK_BITS);
        w.schedule(far, 0, 99);
        w.schedule(SimTime::from_secs(1), 1, 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop_next().map(|(_, e)| e), Some(1));
        assert_eq!(w.pop_next(), Some((far, 99)));
        assert!(w.pop_next().is_none());
    }

    #[test]
    fn wheel_push_behind_cursor_lands_in_ready_run() {
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_secs(10), 0, 100);
        // the eager cursor has advanced to t=10s; an earlier event must
        // still pop first
        w.schedule(SimTime::from_secs(2), 1, 2);
        w.schedule(SimTime::from_secs(2), 2, 3);
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(w.pop_next().map(|(_, e)| e), Some(2));
        assert_eq!(w.pop_next().map(|(_, e)| e), Some(3));
        assert_eq!(w.pop_next().map(|(_, e)| e), Some(100));
    }

    #[test]
    fn wheel_staged_batch_keeps_exact_order() {
        // a burst of cross-shard sends: many entries land behind the cursor
        // at once, interleaved with entries already in the ready run —
        // the staged path must preserve exact (time, seq) order and
        // O(1) peeks must see the staged minimum immediately
        let mut w = TimingWheel::new();
        w.schedule(SimTime::from_secs(30), 1000, 9999);
        // cursor has advanced to t=30s; deliver a shuffled batch behind it
        for (i, &t_ms) in [700u64, 100, 500, 300, 900, 200].iter().enumerate() {
            w.schedule(SimTime::from_millis(t_ms), i as u128, t_ms);
            assert_eq!(
                w.peek_time(),
                Some(SimTime::from_millis([700, 100, 100, 100, 100, 100][i])),
            );
        }
        let order: Vec<u64> = std::iter::from_fn(|| w.pop_next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![100, 200, 300, 500, 700, 900, 9999]);
        assert!(w.is_empty());
    }

    /// `per_tick` events in each of the first `ahead` ticks, each
    /// re-armed `ahead` ticks later whenever it pops: a periodic load
    /// that keeps about `ahead` level-0 slots occupied.
    struct Periodic {
        wheel: TimingWheel<u64>,
        seq: u128,
        per_tick: u64,
        ahead: u64,
    }

    impl Periodic {
        const TICK: u64 = 1 << TICK_BITS;

        fn new(per_tick: u64, ahead: u64) -> Self {
            let mut p = Periodic {
                wheel: TimingWheel::new(),
                seq: 0,
                per_tick,
                ahead,
            };
            for i in 0..ahead * per_tick {
                let t = SimTime((i / per_tick) * Self::TICK + i % per_tick);
                p.wheel.schedule(t, p.seq, i);
                p.seq += 1;
            }
            p
        }

        /// Pop and re-arm `rotations` whole rotations' worth of events,
        /// calling `check` after each re-arm.
        fn rotate(&mut self, rotations: u64, mut check: impl FnMut(&TimingWheel<u64>)) {
            for _ in 0..rotations * SLOTS as u64 * self.per_tick {
                let (t, e) = self.wheel.pop_next().expect("the load never drains");
                let next = SimTime(t.0 + self.ahead * Self::TICK);
                self.wheel.schedule(next, self.seq, e);
                self.seq += 1;
                check(&self.wheel);
            }
        }
    }

    /// Capacities of the level-0 buffers a wheel holds — its slots',
    /// `ready`'s and the spare list's — in ascending order. An empty
    /// `Vec` holds no buffer and is left out.
    fn level0_buffers(w: &TimingWheel<u64>) -> Vec<usize> {
        let slots = w.levels[0].slots.iter().map(Vec::capacity);
        let spare = w.spare.iter().map(Vec::capacity);
        let mut caps: Vec<usize> = slots
            .chain(spare)
            .chain([w.ready.capacity()])
            .filter(|&c| c > 0)
            .collect();
        caps.sort_unstable(); // buffers move between slots, `ready` and `spare`
        caps
    }

    #[test]
    fn drained_slots_keep_their_capacity() {
        // steady state: 40 events in every tick, each re-armed 36 ticks
        // ahead as it pops. A drained slot's buffer is adopted whole as
        // `ready`, and the emptied `ready` buffer waits on the spare list
        // for the next slot to fill, so once every buffer in circulation
        // has held a tick, nothing allocates; and no more circulate than
        // the occupied slots, `ready` and one spare.
        const PER_TICK: u64 = 40;
        let mut p = Periodic::new(PER_TICK, 36);
        let bounded = |w: &TimingWheel<u64>| {
            let occupied = w.levels[0].occupied.count_ones() as usize;
            let held = level0_buffers(w);
            assert!(
                held.len() <= occupied + 2,
                "{} buffers for {occupied} occupied slots: {held:?}",
                held.len()
            );
        };
        p.rotate(3, bounded);
        let warm = level0_buffers(&p.wheel);
        assert!(
            warm.iter().all(|&c| c >= PER_TICK as usize),
            "a buffer in circulation never held a tick: {warm:?}"
        );
        p.rotate(3, bounded);
        assert_eq!(level0_buffers(&p.wheel), warm, "a buffer was reallocated");
        assert_eq!(p.wheel.len(), (p.ahead * PER_TICK) as usize);
    }

    #[test]
    fn idle_slots_hold_no_buffer() {
        // three events per tick, each re-armed 4 ticks ahead: at most
        // four slots are occupied at once, so the buffers in circulation
        // are those, `ready` and a spare. Slots that each kept the buffer
        // of their last tick would hold 64 plus `ready`'s.
        let mut p = Periodic::new(3, 4);
        p.rotate(3, |_| {});
        let held = level0_buffers(&p.wheel);
        assert!(held.len() <= 6, "{} buffers held: {held:?}", held.len());
        assert_eq!(p.wheel.len(), 12);
    }

    #[test]
    fn cascaded_slots_hold_only_what_they_store() {
        // 2 000 timers re-armed 10 s ahead (level 1) and 500 re-armed
        // 40 s ahead (level 2); after the first level-1 rotation nine in
        // ten stop re-arming. Each time the cursor enters a level-1 slot
        // — where every coarse cascade happens — the coarse levels may
        // hold no more buffer than growing one push at a time leaves:
        // twice the entries, plus Vec's first four per occupied slot.
        // Slots that kept the buffers of their busiest rotation would
        // hold tens of times what they store once the load has dropped.
        const SHORT: u64 = 2_000;
        const LONG: u64 = 500;
        let rotation = 1u64 << (TICK_BITS + 2 * LEVEL_BITS); // ≈ 33.5 s
        let end = SimTime(4 * rotation);
        let mut heap: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut seq = 0u128;
        let mut push =
            |h: &mut BinaryHeapScheduler<u64>, w: &mut TimingWheel<u64>, t: SimTime, id: u64| {
                h.schedule(t, seq, id);
                w.schedule(t, seq, id);
                seq += 1;
            };
        for id in 0..SHORT + LONG {
            push(&mut heap, &mut wheel, SimTime(id * 4_999), id);
        }
        let coarse = |w: &TimingWheel<u64>| {
            let slots = w.levels[1..].iter().flat_map(|l| &l.slots);
            slots.fold((0, 0, 0), |(cap, len, occupied), s| {
                (
                    cap + s.capacity(),
                    len + s.len(),
                    occupied + usize::from(!s.is_empty()),
                )
            })
        };
        let mut level1_slot = u64::MAX;
        let mut checks = 0;
        while let Some((t, id)) = heap.pop_next() {
            assert_eq!(wheel.pop_next(), Some((t, id)), "pop order left the heap's");
            if wheel.cursor >> LEVEL_BITS != level1_slot {
                level1_slot = wheel.cursor >> LEVEL_BITS;
                checks += 1;
                let (cap, len, occupied) = coarse(&wheel);
                assert!(
                    cap <= 2 * len + 4 * occupied,
                    "at {t:?}: coarse capacity {cap} for {len} entries in {occupied} slots"
                );
            }
            if t >= end || (t.0 >= rotation && id % 10 != 0) {
                continue;
            }
            let ahead = if id < SHORT { 10 } else { 40 };
            push(&mut heap, &mut wheel, t + Duration::from_secs(ahead), id);
        }
        assert!(wheel.is_empty());
        assert!(checks >= 3 * SLOTS, "only {checks} level-1 slots visited");
    }

    #[test]
    fn wheel_next_rotation_same_slot_index() {
        // an event whose delta wraps to the cursor's own slot index in
        // the next rotation must not be popped early
        let mut w = TimingWheel::new();
        let base = SimTime(65 << TICK_BITS); // cursor tick 65
        w.schedule(base, 0, 0);
        assert_eq!(w.pop_next().map(|(_, e)| e), Some(0));
        let wrapped = SimTime((65 + 4095) << TICK_BITS); // level-1 slot idx 1, next rotation
        let near = SimTime((65 + 100) << TICK_BITS);
        w.schedule(wrapped, 1, 1);
        w.schedule(near, 2, 2);
        assert_eq!(w.pop_next(), Some((near, 2)));
        assert_eq!(w.pop_next(), Some((wrapped, 1)));
    }

    #[test]
    fn clear_resets_backends() {
        for (kind, mut s) in backends() {
            for i in 0..100 {
                s.schedule(SimTime::from_millis(i * 7), u128::from(i), i);
            }
            assert_eq!(s.len(), 100, "backend {kind:?}");
            s.clear();
            assert!(s.is_empty());
            assert_eq!(s.peek_time(), None);
            // reusable after clear
            s.schedule(SimTime::from_secs(1000), 0, 1);
            assert_eq!(s.pop_next().map(|(_, e)| e), Some(1));
        }
    }

    #[test]
    fn dense_periodic_workload_matches_heap() {
        // a miniature of the paper workload: periodic timers re-armed on
        // pop, plus message deliveries with pseudo-random latencies
        let mut heap: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut seq = 0u128;
        let push = |h: &mut BinaryHeapScheduler<u64>,
                    w: &mut TimingWheel<u64>,
                    t: SimTime,
                    s: &mut u128,
                    e: u64| {
            h.schedule(t, *s, e);
            w.schedule(t, *s, e);
            *s += 1;
        };
        for node in 0..50u64 {
            push(&mut heap, &mut wheel, SimTime(node * 137), &mut seq, node);
        }
        let end = SimTime::from_secs(20);
        loop {
            let a = heap.pop_next();
            let b = wheel.pop_next();
            assert_eq!(
                a.as_ref().map(|(t, e)| (*t, *e)),
                b.as_ref().map(|(t, e)| (*t, *e))
            );
            let Some((t, e)) = a else { break };
            // deliveries (payload >= 1000) terminate; timers re-arm and
            // emit one delivery with a deterministic pseudo-latency
            if t >= end || e >= 1000 {
                continue;
            }
            let lat = crate::rng::split_seed(e, t.0) % 400_000; // < 400 ms
            push(
                &mut heap,
                &mut wheel,
                t + Duration::from_secs(2),
                &mut seq,
                e,
            );
            push(&mut heap, &mut wheel, t + Duration(lat), &mut seq, e + 1000);
        }
        assert!(heap.is_empty() && wheel.is_empty());
    }
}
