//! Ring partitioning for sharded worlds: ID-range ownership, each
//! shard's two event lanes, and the dispatch that runs one event.
//!
//! A sharded [`World`](crate::World) splits the Chord ring into
//! contiguous ID ranges, one per shard. [`ShardMap`] is the ownership
//! function (`Addr → shard`, `O(1)`, allocation-free). A shard holds
//! only what its range needs: a [`NodeSlab`] (the world keeps one per
//! shard) and a timer lane and a delivery lane (`Lanes`). Everything
//! else an event touches exists once per world, in `Io`: the world's
//! window driver runs shard batches one after another on one thread, so
//! a cross-shard send goes straight into its destination's delivery
//! lane — it is due at or after the window's end (see
//! [`octopus_sim::LookaheadWindow`]), and that lane pops only below it.
//! All of this is private to the crate: the window driver is its only
//! caller.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use octopus_sim::{stream_rng, Duration, EventQueue, SchedulerKind, SimTime};
use rand::rngs::StdRng;
use rand::RngCore;

use crate::latency::LatencyModel;
use crate::runtime::{Ctx, NodeBehavior, Runtime};
use crate::slab::{NodeSlab, NO_HINT};
use crate::wire::datagram_bytes;
use crate::world::Addr;

/// Contiguous-range ownership of the 64-bit ID space by `count` shards.
///
/// Shard `s` owns ids in `[range(s).0, range(s).1]`; ranges tile the
/// whole space, so every address — including out-of-population driver
/// addresses like a CA at `u64::MAX` — has exactly one owner. The map
/// is pure arithmetic (`shard_of(id) = ⌊id · count / 2⁶⁴⌋`), identical
/// for every shard count on every run.
///
/// ```
/// use octopus_net::ShardMap;
///
/// let map = ShardMap::new(4);
/// assert_eq!(map.count(), 4);
/// assert_eq!(map.shard_of(octopus_id::NodeId(0)), 0);
/// assert_eq!(map.shard_of(octopus_id::NodeId(u64::MAX)), 3);
/// // ranges are contiguous and cover the space
/// let (lo, hi) = map.range(1);
/// assert_eq!(map.shard_of(octopus_id::NodeId(lo)), 1);
/// assert_eq!(map.shard_of(octopus_id::NodeId(hi)), 1);
/// assert_eq!(map.shard_of(octopus_id::NodeId(hi + 1)), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    count: usize,
}

impl ShardMap {
    /// A map over `count` shards (clamped to at least 1).
    #[must_use]
    pub fn new(count: usize) -> Self {
        ShardMap {
            count: count.max(1),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The shard owning `addr`.
    #[must_use]
    pub fn shard_of(&self, addr: Addr) -> usize {
        ((u128::from(addr.0) * self.count as u128) >> 64) as usize
    }

    /// The inclusive `[lo, hi]` ID range shard `s` owns.
    ///
    /// # Panics
    /// Panics when `s >= count()`.
    #[must_use]
    pub fn range(&self, s: usize) -> (u64, u64) {
        assert!(s < self.count, "shard index {s} out of {}", self.count);
        let lo = Self::range_start(self.count, s);
        let hi = if s + 1 == self.count {
            u64::MAX
        } else {
            Self::range_start(self.count, s + 1) - 1
        };
        (lo, hi)
    }

    /// First id owned by shard `s`: the smallest `id` with
    /// `id · count ≥ s · 2⁶⁴`.
    fn range_start(count: usize, s: usize) -> u64 {
        let num = (s as u128) << 64;
        let count = count as u128;
        (num.div_ceil(count)) as u64
    }
}

/// A message waiting on its destination shard's delivery lane.
pub(crate) struct Delivery<M> {
    pub(crate) from: Addr,
    pub(crate) to: Addr,
    pub(crate) msg: M,
}

/// A timer waiting on its node's shard's timer lane. `hint` is the slab
/// slot `node` lay in when it armed the timer ([`NO_HINT`] when armed
/// from `on_start`, before insertion): the slot is tried before the
/// slab's index, so while the node stays put its timers pay no hash
/// probe.
pub(crate) struct TimerEv<T> {
    node: Addr,
    hint: u32,
    timer: T,
}

/// A protocol event between its lane's pop and [`Io::exec_event`]
/// (driver controls live on their own world-level queue). It lives on
/// the stack only: each lane stores its own entry type, so a waiting
/// timer never pays for the largest message.
enum Event<M, T> {
    Deliver(Delivery<M>),
    Timer(TimerEv<T>),
}

/// A popped event and its time.
type Popped<B> = (
    SimTime,
    Event<<B as NodeBehavior>::Msg, <B as NodeBehavior>::Timer>,
);

/// Lane bit of an event key: protocol-origin keys sort after driver
/// keys at a timestamp tie.
const PROTO_LANE: u128 = 1 << 127;

/// Pack a protocol event's tie-break key: the creating node's address
/// in the high bits, its per-node event counter in the low bits. Unique
/// (each counter value is consumed once per origin), totally ordered,
/// and — because a node's counter advances with its own deterministic
/// execution — identical for every shard count.
fn proto_key(origin: Addr, counter: u64) -> u128 {
    debug_assert!(counter < (1 << 63), "per-origin event counter overflow");
    PROTO_LANE | (u128::from(origin.0) << 63) | u128::from(counter)
}

/// One message's jitter stream, seeded on the first draw: stream
/// `counter` of its sender's pre-mixed family
/// ([`jitter_base`](crate::world::jitter_base)).
/// A latency model that ignores its RNG never pays for the seeding; one
/// that draws gets exactly the bits of
/// `derive_rng(split_seed(master, from), b"transport", counter)`.
pub(crate) struct JitterRng {
    pub(crate) base: u64,
    pub(crate) counter: u64,
    pub(crate) rng: Option<StdRng>,
}

impl RngCore for JitterRng {
    fn next_u64(&mut self) -> u64 {
        self.rng
            .get_or_insert_with(|| stream_rng(self.base, self.counter))
            .next_u64()
    }
}

/// A hosted node plus its deterministic RNG stream, event counter and
/// byte counters, colocated in one slab slot so event dispatch touches
/// a single entry.
pub(crate) struct Hosted<B> {
    pub(crate) node: B,
    pub(crate) rng: StdRng,
    /// This node's monotone event counter: the tie-break source for
    /// every message, timer and control it creates, and the index of
    /// each sent message's stateless transport-jitter stream.
    pub(crate) counter: u64,
    /// This node's [`jitter_base`](crate::world::jitter_base), mixed
    /// once at insert.
    pub(crate) jitter_base: u64,
    /// Bytes this node has sent and been delivered in its current
    /// life (datagram payload plus UDP header each).
    pub(crate) sent_bytes: u64,
    pub(crate) received_bytes: u64,
}

impl<B> Hosted<B> {
    fn next_counter(&mut self) -> u64 {
        let c = self.counter;
        self.counter += 1;
        c
    }
}

/// Reusable per-event scratch buffers (the backing store of [`Ctx`]).
pub(crate) struct BufferPool<M, T, C> {
    outbox: Vec<(Addr, M, Duration)>,
    timers: Vec<(Duration, T)>,
    controls: Vec<C>,
}

impl<M, T, C> Default for BufferPool<M, T, C> {
    fn default() -> Self {
        BufferPool {
            outbox: Vec::new(),
            timers: Vec::new(),
            controls: Vec::new(),
        }
    }
}

/// The read-only execution environment a shard batch runs against:
/// everything an event needs besides the world's mutable state.
pub(crate) struct ShardCtx<'a, L> {
    pub(crate) map: ShardMap,
    pub(crate) latency: &'a L,
    /// The monotone lookahead bound every cross-shard send must respect.
    pub(crate) window_end: SimTime,
    /// Exclusive execution bound of the current window batch.
    pub(crate) exec_end: SimTime,
}

/// One shard's event lanes: timers in one and deliveries in the other,
/// on one scheduler backend, popping through [`Lanes::pop_before`] in
/// the `(time, key)` order of the two heads. Keys are unique across the
/// lanes (both draw from their origin's counter, driver injections from
/// the driver's), so that is exactly the order one queue holding both
/// would pop in.
pub(crate) struct Lanes<B: NodeBehavior> {
    timers: EventQueue<TimerEv<B::Timer>>,
    pub(crate) deliveries: EventQueue<Delivery<B::Msg>>,
}

impl<B: NodeBehavior> Lanes<B> {
    /// Two empty lanes on the `scheduler` backend.
    pub(crate) fn new(scheduler: SchedulerKind) -> Self {
        Lanes {
            timers: EventQueue::with_scheduler(scheduler),
            deliveries: EventQueue::with_scheduler(scheduler),
        }
    }

    /// The smaller `(time, key)` of the two lane heads, and whether it
    /// is the timer lane's.
    #[inline]
    fn head(&self) -> Option<((SimTime, u128), bool)> {
        match (self.timers.peek_key(), self.deliveries.peek_key()) {
            (Some(t), Some(d)) => Some(if t < d { (t, true) } else { (d, false) }),
            (Some(t), None) => Some((t, true)),
            (None, d) => d.map(|d| (d, false)),
        }
    }

    /// The `(time, key)` of the next event on either lane.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, u128)> {
        self.head().map(|(key, _)| key)
    }

    /// Pop the next event on either lane.
    fn pop(&mut self) -> Option<Popped<B>> {
        let (_, timer) = self.head()?;
        self.pop_lane(timer)
    }

    /// Pop the next event on either lane when it is due strictly before
    /// `bound`; `None` leaves both lanes untouched.
    #[inline]
    fn pop_before(&mut self, bound: SimTime) -> Option<Popped<B>> {
        let ((at, _), timer) = self.head()?;
        if at >= bound {
            return None;
        }
        self.pop_lane(timer)
    }

    /// Pop the head of the timer lane (`timer`) or the delivery lane.
    #[inline]
    fn pop_lane(&mut self, timer: bool) -> Option<Popped<B>> {
        if timer {
            let (at, t) = self.timers.pop()?;
            Some((at, Event::Timer(t)))
        } else {
            let (at, d) = self.deliveries.pop()?;
            Some((at, Event::Deliver(d)))
        }
    }
}

/// Where events come from and where a handler's sends, timers and
/// controls go: every shard's [`Lanes`], indexed like the world's
/// slabs, and what exists once per world because shard batches run one
/// after another on one thread — the pooled [`Ctx`] buffers, the
/// emitted controls, the drop counter and the last-executed time.
pub(crate) struct Io<B: NodeBehavior> {
    pub(crate) lanes: Vec<Lanes<B>>,
    pool: BufferPool<B::Msg, B::Timer, B::Control>,
    /// Controls emitted since the last barrier, tagged with emission
    /// time and key; sorted into one stream there.
    pub(crate) emitted: Vec<(SimTime, u128, B::Control)>,
    /// Messages dropped because their destination had left the overlay.
    pub(crate) dropped_to_dead: u64,
    /// Timestamp of the latest event executed.
    pub(crate) last_exec: SimTime,
}

impl<B: NodeBehavior> Io<B> {
    /// Empty lanes for `shards` shards on the `scheduler` backend.
    pub(crate) fn new(shards: usize, scheduler: SchedulerKind) -> Self {
        Io {
            lanes: (0..shards).map(|_| Lanes::new(scheduler)).collect(),
            pool: BufferPool::default(),
            emitted: Vec::new(),
            dropped_to_dead: 0,
            last_exec: SimTime::ZERO,
        }
    }

    /// Run `f` against `hosted` — the node at `addr`, lying in slab
    /// slot `slot` ([`NO_HINT`] while not yet inserted) — with a pooled
    /// context, then flush what it produced: messages are routed to
    /// their destination shard's delivery lane, timers land on the
    /// node's shard's timer lane carrying `slot` as their hint, controls
    /// accumulate in [`Io::emitted`] with fresh keys from the node's
    /// counter.
    pub(crate) fn dispatch<L: LatencyModel, F>(
        &mut self,
        ctx: &ShardCtx<'_, L>,
        now: SimTime,
        addr: Addr,
        slot: u32,
        hosted: &mut Hosted<B>,
        f: F,
    ) where
        F: FnOnce(&mut B, &mut dyn Runtime<B::Msg, B::Timer, B::Control>),
    {
        let mut outbox = std::mem::take(&mut self.pool.outbox);
        let mut timers = std::mem::take(&mut self.pool.timers);
        let mut controls = std::mem::take(&mut self.pool.controls);
        debug_assert!(outbox.is_empty() && timers.is_empty() && controls.is_empty());
        let mut cx = Ctx::from_parts(
            now,
            addr,
            &mut hosted.rng,
            &mut outbox,
            &mut timers,
            &mut controls,
        );
        f(&mut hosted.node, &mut cx);
        let shard = ctx.map.shard_of(addr);
        for send in outbox.drain(..) {
            let counter = hosted.next_counter();
            hosted.sent_bytes +=
                self.route(ctx, shard, now, (addr, counter), hosted.jitter_base, send);
        }
        let lane = &mut self.lanes[shard].timers;
        for (delay, timer) in timers.drain(..) {
            let key = proto_key(addr, hosted.next_counter());
            let timer = TimerEv {
                node: addr,
                hint: slot,
                timer,
            };
            lane.push_with_seq(now + delay, key, timer);
        }
        for c in controls.drain(..) {
            let key = proto_key(addr, hosted.next_counter());
            self.emitted.push((now, key, c));
        }
        self.pool.outbox = outbox;
        self.pool.timers = timers;
        self.pool.controls = controls;
    }

    /// Route one message from a node in shard `shard`: draw the latency
    /// from the message's own stateless jitter stream and push it onto
    /// its destination shard's delivery lane. `origin` is the sender's
    /// `(address, counter)` key source, `jitter_base` its
    /// [`jitter_base`](crate::world::jitter_base), `send` the outbox
    /// entry `(to, msg, extra delay)`. Returns the datagram's bytes for
    /// the caller to count against the sender.
    fn route<L: LatencyModel>(
        &mut self,
        ctx: &ShardCtx<'_, L>,
        shard: usize,
        now: SimTime,
        origin: (Addr, u64),
        jitter_base: u64,
        send: (Addr, B::Msg, Duration),
    ) -> u64 {
        let (from, counter) = origin;
        let (to, msg, extra) = send;
        let bytes = datagram_bytes(&msg);
        // Stateless, order-independent draw: the stream is keyed by
        // (sender, per-sender counter), so the same message gets the
        // same latency no matter which shard routes it or what else
        // happened first.
        let mut rng = JitterRng {
            base: jitter_base,
            counter,
            rng: None,
        };
        let lat = ctx.latency.sample(from, to, &mut rng);
        let at = now + extra + lat;
        let dest = ctx.map.shard_of(to);
        if dest != shard {
            // Conservative-sync soundness: the window's end never
            // exceeds now + lookahead, and lat >= lookahead, so a
            // cross-shard message is always due at or beyond the
            // window's end, which no lane pops before the next barrier,
            // whether or not the destination's batch has run yet. A
            // violation means the latency model's min_latency() lied
            // about its floor — fail loudly rather than let release
            // builds silently produce shard-count-dependent results.
            assert!(
                at >= ctx.window_end,
                "cross-shard message due inside the lookahead window: \
                 the latency model's min_latency() exceeds an actual sample"
            );
        }
        self.lanes[dest].deliveries.push_with_seq(
            at,
            proto_key(from, counter),
            Delivery { from, to, msg },
        );
        bytes
    }

    /// Run one window's events against `slabs`: with `head` set, only
    /// that shard's head event (the caller has established it is due),
    /// else every shard's batch, in shard order. A handler panic stops
    /// the run and its payload is returned, not raised, so the caller
    /// can close the window's barrier before re-raising it. Shards after
    /// the panicking one are left unexecuted: their events are still
    /// queued, exactly as if the window had opened later.
    ///
    /// This is the only way into event execution from outside this
    /// module, so no path into a handler misses the `catch_unwind`.
    pub(crate) fn run_caught<L: LatencyModel>(
        &mut self,
        slabs: &mut [NodeSlab<Hosted<B>>],
        ctx: &ShardCtx<'_, L>,
        head: Option<usize>,
    ) -> Option<Box<dyn Any + Send>> {
        if let Some(shard) = head {
            let nodes = &mut slabs[shard];
            return catch_unwind(AssertUnwindSafe(|| self.run_one(nodes, ctx, shard))).err();
        }
        for (shard, nodes) in slabs.iter_mut().enumerate() {
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| self.run_batch(nodes, ctx, shard)))
            {
                return Some(payload);
            }
        }
        None
    }

    /// Pop and execute shard `shard`'s head event.
    fn run_one<L: LatencyModel>(
        &mut self,
        nodes: &mut NodeSlab<Hosted<B>>,
        ctx: &ShardCtx<'_, L>,
        shard: usize,
    ) {
        let Some((at, ev)) = self.lanes[shard].pop() else {
            return;
        };
        self.exec_event(nodes, ctx, at, ev);
    }

    /// Execute every event of shard `shard` (hosting `nodes`) strictly
    /// before `ctx.exec_end`, in key order — the per-shard body of one
    /// window. Timers landing inside the window are picked up; messages
    /// cannot land inside it (their latency floor carries them to
    /// `exec_end` or beyond).
    fn run_batch<L: LatencyModel>(
        &mut self,
        nodes: &mut NodeSlab<Hosted<B>>,
        ctx: &ShardCtx<'_, L>,
        shard: usize,
    ) {
        while let Some((at, ev)) = self.lanes[shard].pop_before(ctx.exec_end) {
            self.exec_event(nodes, ctx, at, ev);
        }
    }

    /// Execute one popped event against its hosted node, borrowed
    /// where it lies in the slab.
    fn exec_event<L: LatencyModel>(
        &mut self,
        nodes: &mut NodeSlab<Hosted<B>>,
        ctx: &ShardCtx<'_, L>,
        at: SimTime,
        ev: Event<B::Msg, B::Timer>,
    ) {
        self.last_exec = self.last_exec.max(at);
        match ev {
            Event::Deliver(Delivery { from, to, msg }) => {
                let Some((slot, hosted)) = nodes.get_mut_hinted(to, NO_HINT) else {
                    self.dropped_to_dead += 1;
                    return;
                };
                hosted.received_bytes += datagram_bytes(&msg);
                self.dispatch(ctx, at, to, slot, hosted, |node, cx| {
                    node.on_message(cx, from, msg);
                });
            }
            Event::Timer(TimerEv {
                node: addr,
                hint,
                timer,
            }) => {
                let Some((slot, hosted)) = nodes.get_mut_hinted(addr, hint) else {
                    return; // timer of a dead node
                };
                self.dispatch(ctx, at, addr, slot, hosted, |node, cx| {
                    node.on_timer(cx, timer);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_id::NodeId;

    #[test]
    fn ranges_tile_the_space() {
        for count in [1usize, 2, 3, 4, 7, 8, 64] {
            let map = ShardMap::new(count);
            let mut next = 0u64;
            for s in 0..count {
                let (lo, hi) = map.range(s);
                assert_eq!(lo, next, "shard {s}/{count} range is contiguous");
                assert!(hi >= lo);
                assert_eq!(map.shard_of(NodeId(lo)), s);
                assert_eq!(map.shard_of(NodeId(hi)), s);
                if s + 1 < count {
                    assert_eq!(map.shard_of(NodeId(hi + 1)), s + 1);
                    next = hi + 1;
                }
            }
            assert_eq!(map.range(count - 1).1, u64::MAX);
        }
    }

    #[test]
    fn zero_count_clamps_to_one() {
        let map = ShardMap::new(0);
        assert_eq!(map.count(), 1);
        assert_eq!(map.range(0), (0, u64::MAX));
    }

    #[test]
    fn ca_address_lands_in_last_shard() {
        // the security sim parks its CA at u64::MAX, outside the ring
        // population; it must still have exactly one owner
        for count in [1usize, 2, 4, 8] {
            let map = ShardMap::new(count);
            assert_eq!(map.shard_of(NodeId(u64::MAX)), count - 1);
        }
    }

    #[test]
    fn balanced_partition() {
        // contiguous ranges should be near-equal in width
        let map = ShardMap::new(8);
        let widths: Vec<u128> = (0..8)
            .map(|s| {
                let (lo, hi) = map.range(s);
                u128::from(hi) - u128::from(lo) + 1
            })
            .collect();
        let min = widths.iter().min().unwrap();
        let max = widths.iter().max().unwrap();
        assert!(max - min <= 1, "ranges differ by more than one id");
    }
}
