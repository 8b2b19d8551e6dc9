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
//! into contiguous ID ranges ([`ShardMap`]), each owned
//! by a shard with its own [`NodeSlab`] (nodes colocated
//! with their RNG streams and event counters, dispatched where they
//! lie), its own event lanes, its own pooled [`Ctx`] scratch
//! buffers, and the byte counters of its own nodes — a shard shares
//! *nothing* mutable with its siblings. Shards partition memory, not
//! work: [`World::run_window`] runs their batches one after another on
//! the calling thread.
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
//! in its slot, borrowed beside the shard's lanes and buffers (two
//! fields of the shard): nothing is copied out and back, so the cache
//! lines an event touches are the ones its handler reads and writes.
//!
//! Cross-shard messages park in a [`CrossShardBus`]
//! and are flushed at conservative barriers bounded by the latency
//! model's guaranteed floor ([`LatencyModel::min_latency`], the
//! lookahead of [`octopus_sim::LookaheadWindow`]): a message sent at
//! `t` cannot arrive before `t + lookahead`, so parking it until the
//! window closes can never deliver it late.
//!
//! One driver runs all of that machinery: [`World::run_window`] opens
//! a lookahead window, runs *every* shard's in-window batch in shard
//! order, then merges envelopes and emitted control events by key at
//! the barrier. A one-shard run is the reference every other shard
//! count is compared to. Its timers and deliveries wait in two lanes,
//! so a timer's entry never pays for the largest message, and the
//! pop takes whichever lane head has the smaller `(time, key)`: keys
//! are unique across lanes, so the two lanes merged by key pop in the
//! one total order a single queue holding both would.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use octopus_sim::{
    component_label, derive_rng, split_seed, Duration, EventQueue, LookaheadWindow, SchedulerKind,
    SimTime,
};

use crate::latency::LatencyModel;
use crate::shard::{CrossShardBus, Delivery, Hosted, Shard, ShardCtx, ShardIo, ShardMap};
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
    shards: Vec<Shard<B>>,
    map: ShardMap,
    bus: CrossShardBus<B::Msg>,
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
    /// (clamped to at least 1), each with its own node slab and event
    /// queue on the chosen backend. All backends are observationally
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
            shards: (0..map.count())
                .map(|index| Shard {
                    nodes: NodeSlab::new(),
                    io: ShardIo::new(index, map.count(), scheduler),
                    off_slab: BTreeMap::new(),
                    dropped_to_dead: 0,
                    last_exec: SimTime::ZERO,
                })
                .collect(),
            bus: CrossShardBus::new(map.count()),
            map,
            window: LookaheadWindow::new(lookahead),
            controls: EventQueue::with_scheduler(scheduler),
            driver_seq: 0,
            counter_floor: BTreeMap::new(),
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
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.map.count()
    }

    /// The ID-range partition in use.
    #[must_use]
    pub fn shard_map(&self) -> ShardMap {
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
        for shard in &self.shards {
            for (addr, hosted) in shard.nodes.iter() {
                ledger.credit(addr, hosted.sent_bytes, hosted.received_bytes);
            }
            for (&addr, &(sent, received)) in &shard.off_slab {
                ledger.credit(addr, sent, received);
            }
        }
        ledger
    }

    /// Messages dropped because their destination had left the overlay
    /// (summed across shards).
    #[must_use]
    pub fn dropped_to_dead(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_to_dead).sum()
    }

    /// Number of live nodes across all shards.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.nodes.len()).sum()
    }

    /// Is `addr` currently alive in the world?
    #[must_use]
    pub fn is_alive(&self, addr: Addr) -> bool {
        self.shard(addr).nodes.contains(addr)
    }

    /// Iterate over live node addresses (deterministic shard-major,
    /// slot-minor order).
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.shards.iter().flat_map(|s| s.nodes.addrs())
    }

    /// Immutable access to a node's state (driver-side measurement).
    #[must_use]
    pub fn node(&self, addr: Addr) -> Option<&B> {
        self.shard(addr).nodes.get(addr).map(|h| &h.node)
    }

    /// Mutable access to a node's state (driver-side mutation between
    /// windows; protocol code should use messages instead).
    pub fn node_mut(&mut self, addr: Addr) -> Option<&mut B> {
        self.shard_mut(addr)
            .nodes
            .get_mut(addr)
            .map(|h| &mut h.node)
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
        let shard = self.shard_mut(addr);
        if let Some(replaced) = shard.nodes.insert(addr, hosted) {
            shard.bank(addr, replaced.sent_bytes, replaced.received_bytes);
        }
    }

    /// Remove a node (churn). Its pending timers and in-flight messages
    /// to it are silently dropped, as for a crashed peer.
    pub fn remove_node(&mut self, addr: Addr) -> Option<B> {
        let shard = self.shard_mut(addr);
        let hosted = shard.nodes.remove(addr)?;
        shard.bank(addr, hosted.sent_bytes, hosted.received_bytes);
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
        let from_shard = self.shard_mut(from);
        match from_shard.nodes.get_mut(from) {
            Some(hosted) => hosted.sent_bytes += bytes,
            None => from_shard.bank(from, bytes, 0),
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
        self.shards[dest]
            .io
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

    fn shard(&self, addr: Addr) -> &Shard<B> {
        &self.shards[self.map.shard_of(addr)]
    }

    fn shard_mut(&mut self, addr: Addr) -> &mut Shard<B> {
        &mut self.shards[self.map.shard_of(addr)]
    }

    /// Dispatch on behalf of the driver: run the handler on the node's
    /// shard — against `joining`, a node about to be inserted, or else
    /// against the node hosted at `addr`, borrowed in its slot (`false`
    /// when there is none) — then immediately publish what it produced:
    /// envelopes to the bus, emitted controls to the driver queue (they
    /// pop in key order like everything else).
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
        let Shard { nodes, io, .. } = &mut self.shards[self.map.shard_of(addr)];
        let (slot, hosted) = match joining {
            Some(hosted) => (NO_HINT, hosted),
            None => match nodes.get_mut_hinted(addr, NO_HINT) {
                Some(found) => found,
                None => return false,
            },
        };
        io.dispatch(&ctx, now, addr, slot, hosted, f);
        for (t, key, c) in io.emitted.drain(..) {
            self.controls.push_with_seq(t, key, c);
        }
        Self::park_outgoing(&mut self.bus, io);
        true
    }

    /// Publish a shard's outgoing envelope lanes onto the bus — the one
    /// place both drive paths (driver dispatch, window barriers) park a
    /// batch's cross-shard sends.
    fn park_outgoing(bus: &mut CrossShardBus<B::Msg>, io: &mut ShardIo<B>) {
        for (dest, lane) in io.outgoing.iter_mut().enumerate() {
            for e in lane.drain(..) {
                bus.park(dest, e);
            }
        }
    }

    /// Barrier: move every parked cross-shard message into its
    /// destination shard's queue, keyed by its send-time `(time, key)`.
    fn flush_bus(&mut self) {
        let shards = &mut self.shards;
        self.bus.flush(|dest, e| {
            shards[dest].io.deliveries.push_with_seq(
                e.at,
                e.seq,
                Delivery {
                    from: e.header.from,
                    to: e.header.to,
                    msg: e.msg,
                },
            );
        });
    }

    /// The head of the shard queues: the smallest `(time, key)` and its
    /// shard index.
    fn shard_head(&self) -> Option<((SimTime, u128), usize)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.io.peek_key().map(|k| (k, i)))
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
    ///    and run **every shard's in-window batch**, in shard order.
    ///    Shards share nothing during the batch; the barrier then parks
    ///    their outgoing envelopes, merges their emitted controls by
    ///    key, and advances the clock.
    /// 3. With zero lookahead (or a control due at the window start)
    ///    the window degenerates to one sequential event — always
    ///    correct, never fast.
    ///
    /// # Panics
    ///
    /// A panic inside a node handler is re-raised with its original
    /// payload, but only *after* the window's barrier merge, so a
    /// driver that catches it holds a consistent world: every completed
    /// event's effects (messages, timers, clock) are visible, and the
    /// panicking node is still hosted, in whatever state its handler
    /// left it (what the interrupted handler had sent, armed or emitted
    /// is lost). Subsequent windows, and dropping the world, behave
    /// normally.
    pub fn run_window(&mut self, deadline: SimTime) -> Option<Vec<(SimTime, B::Control)>> {
        // Barrier: every in-flight cross-shard message becomes visible
        // before the window's extent is decided.
        self.flush_bus();
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
        // A handler panic must not skip the barrier merge below: the
        // batches that *did* complete have outgoing envelopes and an
        // advanced clock that later windows (or a caught-and-resumed
        // driver) depend on. Batch-phase panics are therefore caught
        // here and re-raised only after the merge, so a caught panic
        // leaves the world consistent: every completed event's effects
        // are visible, and only the interrupted handler's own sends,
        // timers and controls are lost.
        let batch_panic: Option<Box<dyn std::any::Any + Send>> = if exec_end <= t0 {
            // Zero lookahead (or a control due right at t0): degenerate
            // to one event per barrier. Slower, never wrong.
            let shard = &mut self.shards[head_idx];
            catch_unwind(AssertUnwindSafe(|| shard.run_one(&ctx))).err()
        } else {
            Self::run_batches(&mut self.shards, &ctx)
        };
        // Barrier merge: park envelopes, order controls, advance time.
        // Everything here is key-driven or commutative.
        let mut emitted: Vec<(SimTime, u128, B::Control)> = Vec::new();
        let mut now = self.now;
        for shard in &mut self.shards {
            emitted.append(&mut shard.io.emitted);
            now = now.max(shard.last_exec);
            Self::park_outgoing(&mut self.bus, &mut shard.io);
        }
        self.now = now;
        if let Some(payload) = batch_panic {
            resume_unwind(payload);
        }
        emitted.sort_unstable_by_key(|&(t, k, _)| (t, k));
        Some(emitted.into_iter().map(|(t, _, c)| (t, c)).collect())
    }

    /// Run every shard's window batch in shard order, stopping at (and
    /// returning) the first handler panic. Remaining shards are left
    /// unexecuted — their events are still queued, exactly as if the
    /// window had opened later.
    fn run_batches(
        shards: &mut [Shard<B>],
        ctx: &ShardCtx<'_, L>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        for shard in shards {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| shard.run_batch(ctx))) {
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
