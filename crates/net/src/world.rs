//! A deterministic message-passing world over sharded event queues.
//!
//! Protocol nodes implement [`NodeBehavior`]; the [`World`] owns them,
//! routes typed messages through the latency model, delivers timers, and
//! accounts bandwidth. Control events let a driver (e.g. the security
//! simulator in `octopus-core::simnet`) interleave churn and measurement
//! with protocol execution without borrowing conflicts: the world hands
//! control events back to the caller instead of invoking callbacks.
//!
//! Storage and dispatch are built for scale. The ring is partitioned
//! into contiguous ID ranges ([`ShardMap`]), and each range's shard
//! keeps only its own [`NodeSlab`] (nodes colocated with their RNG
//! streams and event counters, dispatched where they lie) and its two
//! event lanes. Everything else an event touches — the pooled [`Ctx`]
//! scratch buffers, emitted controls, byte counters of nodes no slot
//! holds, the drop counter and the clock — exists once per world:
//! [`World::run_window`] runs the shards' batches one after another on
//! the calling thread. Only at very large N do several shards beat one
//! on time (smaller slabs and lanes stay warmer), and they pay for it
//! in memory.
//!
//! Sharding never changes results. Every event carries a
//! `(time, key)` ordering key whose tie-break packs
//! `(lane, origin, counter)`: the address of the node that created the
//! event plus that node's own monotone counter (driver events ride a
//! lane that sorts first). Keys are therefore assignable with no
//! cross-shard coordination, yet identical for every shard count —
//! a node's counter advances with its own execution, which the
//! conservative synchronization below keeps shard-count-independent.
//! Per-message latency jitter is equally coordination-free: each send
//! draws from a stateless RNG stream keyed by `(sender, counter)`
//! instead of a shared sequential transport RNG, so the draw depends
//! only on *which* message is sent, never on global execution order.
//!
//! A message costs no hash of its own. Bandwidth is counted in the slab
//! slot dispatch already holds — the sender's when its outbox is
//! routed, the receiver's when the delivery reaches it — and the jitter
//! stream's base is mixed once per node at insert and seeded only if
//! the latency model draws. What remains per delivery is the slab's one
//! `Addr → slot` probe; a timer names the slot that armed it and pays
//! the probe only if its node has moved since.
//!
//! An event moves nothing it does not use. The handler runs on the node
//! in its slot, borrowed beside the world's lanes and buffers: nothing
//! is copied out and back, so the cache lines an event touches are the
//! ones its handler reads and writes.
//!
//! A cross-shard message goes straight onto its destination shard's
//! delivery lane. Its latency is at least the latency model's
//! guaranteed floor ([`LatencyModel::min_latency`], the lookahead of
//! [`octopus_sim::LookaheadWindow`]), so it is due at or after the
//! window's end, and a lane pops only below that end: whether the
//! destination's batch has already run in this window or not, the
//! message runs in a later one, in its key's place.
//!
//! One driver runs all of that machinery: [`World::run_window`] opens
//! a lookahead window, runs *every* shard's in-window batch in shard
//! order, then sorts the emitted control events by key at the barrier.
//! A one-shard run is the reference every other shard count is
//! compared to. Its timers and deliveries wait in two lanes, so a
//! timer's entry never pays for the largest message, and the pop takes
//! whichever lane head has the smaller `(time, key)`: keys are unique
//! across lanes, so the two lanes merged by key pop in the one total
//! order a single queue holding both would.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use octopus_sim::{
    component_label, derive_rng, split_seed, Duration, EventQueue, LookaheadWindow, SchedulerKind,
    SimTime,
};

use crate::latency::LatencyModel;
use crate::shard::{Delivery, Hosted, Io, ShardCtx, ShardMap};
use crate::slab::{NodeSlab, NO_HINT};
use crate::wire::{datagram_bytes, BandwidthLedger};

pub use crate::runtime::{Addr, Ctx, NodeBehavior, Runtime, Transport};

/// Label of the per-message latency-jitter stream family.
const TRANSPORT: u64 = component_label(b"transport");

/// The base of `addr`'s jitter-stream family: everything of
/// `derive_rng(split_seed(master, addr), b"transport", counter)` that
/// does not depend on `counter`.
pub(crate) fn jitter_base(master_seed: u64, addr: Addr) -> u64 {
    split_seed(split_seed(master_seed, addr.0), TRANSPORT)
}

/// The simulated network world, partitioned into one or more shards.
pub struct World<B: NodeBehavior, L: LatencyModel> {
    /// Each shard's nodes. Shard `s` is `slabs[s]` and `io.lanes[s]`.
    slabs: Vec<NodeSlab<Hosted<B>>>,
    /// Every shard's lanes, and what their events share.
    io: Io<B>,
    map: ShardMap,
    window: LookaheadWindow,
    /// Driver-scheduled and driver-queued control events, on their own
    /// lane so windows know the next driver interruption in `O(1)`.
    controls: EventQueue<B::Control>,
    /// The driver's own event counter (lane-0 keys sort before every
    /// protocol key at a timestamp tie).
    driver_seq: u64,
    /// Event counters of previously removed nodes: a rejoining address
    /// resumes where it left off, so keys from its new life can never
    /// collide with keys its old life left in flight.
    counter_floor: BTreeMap<Addr, u64>,
    /// `(sent, received)` bytes of addresses no slot holds: what a
    /// removed node had counted, and driver injections from senders
    /// outside the overlay. Driver-side only — no event touches it.
    off_slab: BTreeMap<Addr, (u64, u64)>,
    /// Timestamp of the last event executed anywhere (monotone).
    now: SimTime,
    latency: L,
    master_seed: u64,
}

impl<B: NodeBehavior, L: LatencyModel> World<B, L> {
    /// New single-shard world with the given latency model and master
    /// seed, on the default event-queue backend.
    #[must_use]
    pub fn new(latency: L, master_seed: u64) -> Self {
        Self::with_shards(latency, master_seed, SchedulerKind::default(), 1)
    }

    /// New world partitioned into `shards` contiguous ID-range shards
    /// (clamped to at least 1), each with its own node slab and two
    /// event lanes on the chosen backend. All backends are observationally
    /// identical (the [`octopus_sim::Scheduler`] determinism contract);
    /// the timing wheel is the one every configuration runs on, the
    /// heap the reference it is checked against.
    ///
    /// Sharding is observationally identical too: a fixed-seed run
    /// produces byte-identical results at every shard count, because
    /// event keys are derived from their *origin node* — not from any
    /// shard-dependent counter — and conservative synchronization keeps
    /// every node's execution order partition-independent.
    #[must_use]
    pub fn with_shards(
        latency: L,
        master_seed: u64,
        scheduler: SchedulerKind,
        shards: usize,
    ) -> Self {
        let map = ShardMap::new(shards);
        let lookahead = latency.min_latency();
        World {
            slabs: (0..map.count()).map(|_| NodeSlab::new()).collect(),
            io: Io::new(map.count(), scheduler),
            map,
            window: LookaheadWindow::new(lookahead),
            controls: EventQueue::with_scheduler(scheduler),
            driver_seq: 0,
            counter_floor: BTreeMap::new(),
            off_slab: BTreeMap::new(),
            now: SimTime::ZERO,
            latency,
            master_seed,
        }
    }

    /// Accepted and ignored: windows always run their shards one after
    /// another on the calling thread. Kept so callers written against
    /// the parallel windows of earlier versions still compile; results
    /// were byte-identical either way.
    pub fn set_parallel(&mut self, _parallel: bool) {}

    /// Accepted and ignored, like [`World::set_parallel`]: there is no
    /// worker pool to size.
    pub fn set_worker_threads(&mut self, _threads: usize) {}

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards the ID space is partitioned into.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.map.count()
    }

    /// The ID-range partition in use.
    #[cfg(test)]
    pub(crate) fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// A snapshot of the bandwidth accounting: every address's bytes
    /// sent and bytes delivered, summed over its lives in the overlay
    /// (a removed node keeps what it had counted). Built from the slabs
    /// on demand (an `O(nodes log nodes)` copy — call it for reporting,
    /// not per event).
    #[must_use]
    pub fn ledger(&self) -> BandwidthLedger {
        let mut ledger = BandwidthLedger::default();
        for (addr, hosted) in self.slabs.iter().flat_map(NodeSlab::iter) {
            ledger.credit(addr, hosted.sent_bytes, hosted.received_bytes);
        }
        for (&addr, &(sent, received)) in &self.off_slab {
            ledger.credit(addr, sent, received);
        }
        ledger
    }

    /// Messages dropped because their destination had left the overlay.
    #[must_use]
    pub fn dropped_to_dead(&self) -> u64 {
        self.io.dropped_to_dead
    }

    /// Number of live nodes across all shards.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.slabs.iter().map(NodeSlab::len).sum()
    }

    /// Is `addr` currently alive in the world?
    #[must_use]
    pub fn is_alive(&self, addr: Addr) -> bool {
        self.slab(addr).contains(addr)
    }

    /// Iterate over live node addresses (deterministic shard-major,
    /// slot-minor order).
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.slabs.iter().flat_map(NodeSlab::addrs)
    }

    /// Immutable access to a node's state (driver-side measurement).
    #[must_use]
    pub fn node(&self, addr: Addr) -> Option<&B> {
        self.slab(addr).get(addr).map(|h| &h.node)
    }

    /// Mutable access to a node's state (driver-side mutation between
    /// windows; protocol code should use messages instead).
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut B> {
        self.slab_mut(addr).get_mut(addr).map(|h| &mut h.node)
    }

    /// Insert a node into its ID range's shard and run its `on_start`
    /// hook. A previously removed address resumes its event counter, so
    /// rejoin (churn) can never mint keys that collide with events the
    /// old incarnation left pending.
    pub fn insert_node(&mut self, addr: Addr, node: B) {
        let rng = derive_rng(self.master_seed, b"node", addr.0);
        let counter = self.counter_floor.get(&addr).copied().unwrap_or(0);
        let mut hosted = Hosted {
            node,
            rng,
            counter,
            jitter_base: jitter_base(self.master_seed, addr),
            sent_bytes: 0,
            received_bytes: 0,
        };
        self.driver_dispatch(addr, Some(&mut hosted), |node, ctx| node.on_start(ctx));
        if let Some(replaced) = self.slab_mut(addr).insert(addr, hosted) {
            self.bank(addr, replaced.sent_bytes, replaced.received_bytes);
        }
    }

    /// Remove a node (churn). Its pending timers and in-flight messages
    /// to it are silently dropped, as for a crashed peer.
    pub fn remove_node(&mut self, addr: Addr) -> Option<B> {
        let hosted = self.slab_mut(addr).remove(addr)?;
        self.bank(addr, hosted.sent_bytes, hosted.received_bytes);
        self.counter_floor.insert(addr, hosted.counter);
        Some(hosted.node)
    }

    /// Driver-side: schedule a control event at absolute time `at`,
    /// clamped to the present — a control scheduled into the past pops
    /// *now* rather than marching the clock backwards.
    pub fn schedule_control(&mut self, at: SimTime, control: B::Control) {
        let at = at.max(self.now);
        let key = u128::from(self.driver_seq);
        self.driver_seq += 1;
        self.controls.push_with_seq(at, key, control);
    }

    /// Driver-side: inject a message from outside the overlay (used by
    /// test harnesses; latency still applies, drawn from a
    /// driver-indexed stateless stream).
    pub fn inject_message(&mut self, from: Addr, to: Addr, msg: B::Msg) {
        let bytes = datagram_bytes(&msg);
        match self.slab_mut(from).get_mut(from) {
            Some(hosted) => hosted.sent_bytes += bytes,
            None => self.bank(from, bytes, 0),
        }
        let mut rng = derive_rng(
            split_seed(self.master_seed, from.0),
            b"inject",
            self.driver_seq,
        );
        let lat = self.latency.sample(from, to, &mut rng);
        let at = self.now + lat;
        let key = u128::from(self.driver_seq);
        self.driver_seq += 1;
        let dest = self.map.shard_of(to);
        self.io.lanes[dest]
            .deliveries
            .push_with_seq(at, key, Delivery { from, to, msg });
    }

    /// Driver-side: invoke a closure against one node with a full
    /// handler context — the entry point for "the application asks the
    /// node to start a lookup".
    pub fn with_node<F>(&mut self, addr: Addr, f: F) -> bool
    where
        F: FnOnce(&mut B, &mut dyn Runtime<B::Msg, B::Timer, B::Control>),
    {
        self.driver_dispatch(addr, None, f)
    }

    /// The slab of `addr`'s shard.
    fn slab(&self, addr: Addr) -> &NodeSlab<Hosted<B>> {
        &self.slabs[self.map.shard_of(addr)]
    }

    fn slab_mut(&mut self, addr: Addr) -> &mut NodeSlab<Hosted<B>> {
        &mut self.slabs[self.map.shard_of(addr)]
    }

    /// Add to the off-slab counters of `addr`.
    fn bank(&mut self, addr: Addr, sent: u64, received: u64) {
        let entry = self.off_slab.entry(addr).or_default();
        entry.0 += sent;
        entry.1 += received;
    }

    /// Dispatch on behalf of the driver: run the handler against
    /// `joining`, a node about to be inserted, or else against the node
    /// hosted at `addr`, borrowed in its slot (`false` when there is
    /// none), then move its emitted controls to the driver queue (they
    /// pop in key order like everything else). Its messages and timers
    /// are on their lanes already.
    fn driver_dispatch<F>(&mut self, addr: Addr, joining: Option<&mut Hosted<B>>, f: F) -> bool
    where
        F: FnOnce(&mut B, &mut dyn Runtime<B::Msg, B::Timer, B::Control>),
    {
        let now = self.now;
        let ctx = ShardCtx {
            map: self.map,
            latency: &self.latency,
            window_end: self.window.end(),
            exec_end: now,
        };
        let (slot, hosted) = match joining {
            Some(hosted) => (NO_HINT, hosted),
            None => match self.slabs[self.map.shard_of(addr)].get_mut_hinted(addr, NO_HINT) {
                Some(found) => found,
                None => return false,
            },
        };
        self.io.dispatch(&ctx, now, addr, slot, hosted, f);
        for (t, key, c) in self.io.emitted.drain(..) {
            self.controls.push_with_seq(t, key, c);
        }
        true
    }

    /// The head of the shard lanes: the smallest `(time, key)` and its
    /// shard index.
    fn shard_head(&self) -> Option<((SimTime, u128), usize)> {
        self.io
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lanes)| lanes.peek_key().map(|k| (k, i)))
            .min()
    }

    /// Execute one conservative window and return the control events it
    /// produced, tagged with their emission times and sorted in global
    /// `(time, key)` order. Returns `None` when nothing remains at or
    /// before `deadline`.
    ///
    /// One call does one of three things:
    ///
    /// 1. If the globally earliest pending event is a driver control,
    ///    pop just it — the driver reacts (possibly mutating the world)
    ///    before any later event runs.
    /// 2. Otherwise open the lookahead window from the earliest pending
    ///    time, cap it at the next scheduled control and the deadline,
    ///    and run **every shard's in-window batch**, in shard order. A
    ///    batch's cross-shard sends land on their destination lanes,
    ///    due no earlier than the window's end; the barrier then sorts
    ///    the emitted controls by key and advances the clock.
    /// 3. With zero lookahead (or a control due at the window start)
    ///    the window degenerates to one sequential event — always
    ///    correct, never fast.
    ///
    /// # Panics
    ///
    /// A panic inside a node handler is re-raised with its original
    /// payload, but only *after* the window's barrier, so a driver that
    /// catches it holds a consistent world: every completed event's
    /// messages and timers are queued and the clock has advanced past
    /// it, and the panicking node is still hosted, in whatever state its
    /// handler left it (what the interrupted handler had sent, armed or
    /// emitted is lost, and so is every control the window emitted).
    /// Subsequent windows, and dropping the world, behave normally.
    pub fn run_window(&mut self, deadline: SimTime) -> Option<Vec<(SimTime, B::Control)>> {
        let shard_head = self.shard_head();
        let ctrl_head = self.controls.peek_key();
        let ctrl_first = match (ctrl_head, shard_head) {
            (Some(ck), Some((sk, _))) => ck < sk,
            (Some(_), None) => true,
            _ => false,
        };
        if ctrl_first {
            let (t, _) = ctrl_head.expect("control head exists");
            if t > deadline {
                return None;
            }
            let (t, c) = self.controls.pop().expect("peeked control exists");
            self.now = t;
            return Some(vec![(t, c)]);
        }
        let ((t0, _), head_idx) = shard_head?;
        if t0 > deadline {
            return None;
        }
        let window_end = self.window.open(t0);
        let mut exec_end = window_end;
        if let Some(ct) = self.controls.peek_time() {
            exec_end = exec_end.min(ct);
        }
        exec_end = exec_end.min(SimTime(deadline.0.saturating_add(1)));
        let ctx = ShardCtx {
            map: self.map,
            latency: &self.latency,
            window_end,
            exec_end,
        };
        // A handler panic must not skip the barrier below: the events
        // that *did* complete advanced the clock, which later windows
        // (or a caught-and-resumed driver) depend on. Batch-phase
        // panics are therefore caught here and re-raised only after
        // the barrier, so a caught panic leaves the world consistent:
        // every completed event's messages and timers are queued, and
        // only the interrupted handler's own effects and the window's
        // controls are lost.
        let batch_panic: Option<Box<dyn std::any::Any + Send>> = if exec_end <= t0 {
            // Zero lookahead (or a control due right at t0): degenerate
            // to one event per barrier. Slower, never wrong.
            let (nodes, io) = (&mut self.slabs[head_idx], &mut self.io);
            catch_unwind(AssertUnwindSafe(|| io.run_one(nodes, &ctx, head_idx))).err()
        } else {
            Self::run_batches(&mut self.slabs, &mut self.io, &ctx)
        };
        // Barrier: advance time, order controls by key.
        self.now = self.now.max(self.io.last_exec);
        if let Some(payload) = batch_panic {
            self.io.emitted.clear();
            resume_unwind(payload);
        }
        let emitted = &mut self.io.emitted;
        emitted.sort_unstable_by_key(|&(t, k, _)| (t, k));
        Some(emitted.drain(..).map(|(t, _, c)| (t, c)).collect())
    }

    /// Run every shard's window batch in shard order, stopping at (and
    /// returning) the first handler panic. Remaining shards are left
    /// unexecuted — their events are still queued, exactly as if the
    /// window had opened later.
    fn run_batches(
        slabs: &mut [NodeSlab<Hosted<B>>],
        io: &mut Io<B>,
        ctx: &ShardCtx<'_, L>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        for (shard, nodes) in slabs.iter_mut().enumerate() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| io.run_batch(nodes, ctx, shard)))
            {
                return Some(payload);
            }
        }
        None
    }
}

impl<B: NodeBehavior, L: LatencyModel> Transport<B> for World<B, L> {
    fn inject(&mut self, from: Addr, to: Addr, msg: B::Msg) {
        self.inject_message(from, to, msg);
    }

    /// Advance *virtual* time by exactly `budget`: every window due by
    /// `now + budget` runs — the simulator's clock moves as fast as its
    /// event queues drain, wall-clock free — and the clock then stands
    /// at the deadline, so consecutive calls tile time without gaps.
    fn drive(&mut self, budget: Duration) -> Vec<B::Control> {
        let deadline = self.now + budget;
        let mut controls = Vec::new();
        while let Some(window) = self.run_window(deadline) {
            controls.extend(window.into_iter().map(|(_, c)| c));
        }
        self.now = deadline;
        controls
    }
}

#[cfg(test)]
mod tests;
