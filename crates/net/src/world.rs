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
mod tests {
    use super::*;
    use crate::latency::ConstantLatency;
    use crate::shard::{JitterRng, TimerEv};
    use crate::wire::{sizes, WireMsg};
    use octopus_id::NodeId;
    use rand::rngs::StdRng;
    use rand::RngCore;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Run every window due by `deadline`; the controls they produced.
    fn run_windows<B: NodeBehavior, L: LatencyModel>(
        w: &mut World<B, L>,
        deadline: SimTime,
    ) -> Vec<(SimTime, B::Control)> {
        let mut out = Vec::new();
        while let Some(controls) = w.run_window(deadline) {
            out.extend(controls);
        }
        out
    }

    /// A ping-pong node: replies to Ping with Pong, counts pongs.
    struct PingPong {
        pongs: u32,
        peer: Option<Addr>,
    }

    #[derive(Debug, PartialEq)]
    enum Pm {
        Ping,
        Pong,
    }

    impl WireMsg for Pm {
        fn wire_bytes(&self) -> u32 {
            8
        }
    }

    impl NodeBehavior for PingPong {
        type Msg = Pm;
        type Timer = ();
        type Control = u32;

        fn on_start(&mut self, ctx: &mut dyn Runtime<Pm, (), u32>) {
            if let Some(p) = self.peer {
                ctx.send(p, Pm::Ping);
            }
        }

        fn on_message(&mut self, ctx: &mut dyn Runtime<Pm, (), u32>, from: Addr, msg: Pm) {
            match msg {
                Pm::Ping => ctx.send(from, Pm::Pong),
                Pm::Pong => {
                    self.pongs += 1;
                    ctx.emit(self.pongs);
                }
            }
        }

        fn on_timer(&mut self, _ctx: &mut dyn Runtime<Pm, (), u32>, _t: ()) {}
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(10)), 1);
        w.insert_node(
            NodeId(2),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: Some(NodeId(2)),
            },
        );
        let ctrl = run_windows(&mut w, SimTime::from_secs(1));
        assert_eq!(ctrl.len(), 1);
        assert_eq!(ctrl[0].1, 1);
        // RTT with 10ms one-way latency
        assert_eq!(ctrl[0].0, SimTime::from_millis(20));
        assert_eq!(w.node(NodeId(1)).unwrap().pongs, 1);
    }

    #[test]
    fn message_to_dead_node_dropped() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(10)), 1);
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: Some(NodeId(2)),
            },
        );
        let ctrl = run_windows(&mut w, SimTime::from_secs(1));
        assert!(ctrl.is_empty());
        assert_eq!(w.dropped_to_dead(), 1);
    }

    #[test]
    fn bandwidth_accounted() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(10)), 1);
        w.insert_node(
            NodeId(2),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: Some(NodeId(2)),
            },
        );
        run_windows(&mut w, SimTime::from_secs(1));
        // two 8-byte messages + 28B UDP headers each
        assert_eq!(w.ledger().total_bytes(), 2 * (8 + 28));
    }

    #[test]
    fn removed_node_keeps_its_bytes_through_a_rejoin() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(10)), 1);
        let pinger = |peer| PingPong {
            pongs: 0,
            peer: Some(peer),
        };
        w.insert_node(NodeId(2), pinger(NodeId(1)));
        w.insert_node(NodeId(1), pinger(NodeId(2)));
        run_windows(&mut w, SimTime::from_secs(1));
        // each node pinged once and ponged once, all four delivered
        let datagram = 8 + u64::from(sizes::UDP_HEADER);
        for id in [NodeId(1), NodeId(2)] {
            assert_eq!(w.ledger().sent_by(id), 2 * datagram);
            assert_eq!(w.ledger().received_by(id), 2 * datagram);
        }
        w.remove_node(NodeId(1));
        assert_eq!(w.ledger().sent_by(NodeId(1)), 2 * datagram, "churned out");
        assert_eq!(w.ledger().received_by(NodeId(1)), 2 * datagram);
        assert_eq!(w.ledger().total_bytes(), 4 * datagram);
        // the same address rejoins and pings again: both lives count
        w.insert_node(NodeId(1), pinger(NodeId(2)));
        run_windows(&mut w, SimTime::from_secs(2));
        assert_eq!(w.ledger().sent_by(NodeId(1)), 3 * datagram);
        assert_eq!(w.ledger().received_by(NodeId(1)), 3 * datagram);
        assert_eq!(w.ledger().total_bytes(), 6 * datagram);
    }

    #[test]
    fn inject_from_an_unhosted_sender_is_counted() {
        for shards in [1usize, 2] {
            let mut w: World<PingPong, _> = World::with_shards(
                ConstantLatency(Duration::from_millis(10)),
                1,
                SchedulerKind::default(),
                shards,
            );
            let (outsider, node) = (NodeId(u64::MAX - 1), NodeId(1));
            w.insert_node(
                node,
                PingPong {
                    pongs: 0,
                    peer: None,
                },
            );
            w.inject_message(outsider, node, Pm::Ping);
            run_windows(&mut w, SimTime::from_secs(1));
            let datagram = 8 + u64::from(sizes::UDP_HEADER);
            let ledger = w.ledger();
            assert_eq!(ledger.sent_by(outsider), datagram);
            assert_eq!(ledger.received_by(node), datagram);
            // the pong back to the outsider is sent, and dropped
            assert_eq!(ledger.sent_by(node), datagram);
            assert_eq!(ledger.received_by(outsider), 0);
            assert_eq!(ledger.total_bytes(), 2 * datagram);
            assert_eq!(w.dropped_to_dead(), 1);
        }
    }

    /// A message as large as it says.
    #[derive(Debug, Clone, PartialEq)]
    struct Note(u32);

    impl WireMsg for Note {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    /// What the accounting test's nodes and driver did, in order.
    #[derive(Debug, Clone, PartialEq)]
    enum Log {
        Sent { from: Addr, to: Addr, bytes: u32 },
        Got { to: Addr, bytes: u32 },
        Kill(Addr),
        Join(Addr),
        Inject,
    }

    /// Sends a message of a different size to the next of its peers on
    /// every tick, acks what it receives, and logs both.
    struct Chatter {
        peers: Vec<Addr>,
        ticks: u32,
    }

    const ACK: u32 = 4;

    impl NodeBehavior for Chatter {
        type Msg = Note;
        type Timer = ();
        type Control = Log;

        fn on_start(&mut self, ctx: &mut dyn Runtime<Note, (), Log>) {
            self.say(ctx, self.peers[0], 20);
            ctx.set_timer(Duration::from_millis(1 + ctx.addr().0 % 10), ());
        }

        fn on_message(&mut self, ctx: &mut dyn Runtime<Note, (), Log>, from: Addr, msg: Note) {
            ctx.emit(Log::Got {
                to: ctx.addr(),
                bytes: msg.0,
            });
            if msg.0 != ACK {
                self.say(ctx, from, ACK);
            }
        }

        fn on_timer(&mut self, ctx: &mut dyn Runtime<Note, (), Log>, (): ()) {
            if self.ticks == 0 {
                return;
            }
            self.ticks -= 1;
            let to = self.peers[self.ticks as usize % self.peers.len()];
            self.say(ctx, to, 8 + 4 * self.ticks);
            ctx.set_timer(Duration::from_millis(10), ());
        }
    }

    impl Chatter {
        fn say(&self, ctx: &mut dyn Runtime<Note, (), Log>, to: Addr, bytes: u32) {
            ctx.send(to, Note(bytes));
            ctx.emit(Log::Sent {
                from: ctx.addr(),
                to,
                bytes,
            });
        }
    }

    /// Two shards of chatters with a never-hosted destination, a node
    /// that leaves for good and one that leaves and rejoins, run to
    /// idle: the ledger, the log and the drop count.
    fn churned_chatter_run() -> (BandwidthLedger, Vec<Log>, u64) {
        let ids = gossip_ids();
        let ghost = NodeId(u64::MAX - 5);
        let outsider = NodeId(3);
        let (leaver, rejoiner) = (ids[12], ids[3]);
        let chatter = |i: usize| Chatter {
            peers: vec![
                ids[(i + 5) % 16],
                ghost,
                leaver,
                rejoiner,
                ids[(i + 8) % 16],
            ],
            ticks: 12,
        };
        let mut w: World<Chatter, _> = World::with_shards(
            ConstantLatency(Duration::from_millis(7)),
            11,
            SchedulerKind::default(),
            2,
        );
        assert_ne!(
            w.shard_map().shard_of(leaver),
            w.shard_map().shard_of(rejoiner)
        );
        for (i, &id) in ids.iter().enumerate() {
            w.insert_node(id, chatter(i));
        }
        w.schedule_control(SimTime::from_millis(25), Log::Kill(rejoiner));
        w.schedule_control(SimTime::from_millis(38), Log::Kill(leaver));
        w.schedule_control(SimTime::from_millis(41), Log::Inject);
        w.schedule_control(SimTime::from_millis(66), Log::Join(rejoiner));
        let mut log = Vec::new();
        while let Some(controls) = w.run_window(SimTime(u64::MAX)) {
            for (_, c) in controls {
                match c {
                    Log::Kill(addr) => assert!(w.remove_node(addr).is_some()),
                    Log::Join(addr) => w.insert_node(addr, chatter(3)),
                    Log::Inject => {
                        // one from outside the overlay, one from inside it
                        for (from, to, bytes) in [(outsider, ids[2], 40), (ids[4], ghost, 12)] {
                            w.inject_message(from, to, Note(bytes));
                            log.push(Log::Sent { from, to, bytes });
                        }
                    }
                    Log::Sent { .. } | Log::Got { .. } => {}
                }
                log.push(c);
            }
        }
        (w.ledger(), log, w.dropped_to_dead())
    }

    #[test]
    fn slot_counters_equal_the_per_message_hashmap_ledger() {
        let (ledger, log, dropped) = churned_chatter_run();
        // the accounting `BandwidthLedger::record` did per message:
        // both ends credited at the send, in two hash maps
        let datagram = |bytes: u32| u64::from(bytes) + u64::from(sizes::UDP_HEADER);
        let mut sent: HashMap<Addr, u64> = HashMap::new();
        let mut addressed: HashMap<Addr, u64> = HashMap::new();
        let mut delivered: HashMap<Addr, u64> = HashMap::new();
        let (mut total, mut sends, mut gots) = (0u64, 0u64, 0u64);
        for entry in &log {
            match *entry {
                Log::Sent { from, to, bytes } => {
                    *sent.entry(from).or_default() += datagram(bytes);
                    *addressed.entry(to).or_default() += datagram(bytes);
                    total += datagram(bytes);
                    sends += 1;
                }
                Log::Got { to, bytes } => {
                    *delivered.entry(to).or_default() += datagram(bytes);
                    gots += 1;
                }
                _ => {}
            }
        }
        let rejoined = log.iter().position(|e| matches!(e, Log::Join(_))).unwrap();
        let rejoiner = gossip_ids()[3];
        let sends_of = |entries: &[Log]| {
            entries
                .iter()
                .filter(|e| matches!(e, Log::Sent { from, .. } if *from == rejoiner))
                .count()
        };
        assert!(sends_of(&log[..rejoined]) > 0 && sends_of(&log[rejoined..]) > 0);
        assert!(dropped > 20, "dead destinations must see traffic");
        assert_eq!(dropped, sends - gots);
        assert_eq!(ledger.total_bytes(), total);
        let mut addrs = gossip_ids();
        addrs.extend([NodeId(u64::MAX - 5), NodeId(3)]);
        for a in addrs {
            let of = |m: &HashMap<Addr, u64>| m.get(&a).copied().unwrap_or(0);
            assert_eq!(ledger.sent_by(a), of(&sent), "sent_by({a:?})");
            let dropped_bytes = of(&addressed) - of(&delivered);
            assert_eq!(
                ledger.received_by(a) + dropped_bytes,
                of(&addressed),
                "received_by({a:?})"
            );
        }
    }

    #[test]
    fn lazy_jitter_stream_is_the_derived_transport_stream() {
        let mut pick = StdRng::seed_from_u64(0x0c70);
        for _ in 0..10_000 {
            let (master, from, counter): (u64, u64, u64) = (pick.gen(), pick.gen(), pick.gen());
            let mut lazy = JitterRng {
                base: jitter_base(master, NodeId(from)),
                counter,
                rng: None,
            };
            let mut eager = derive_rng(split_seed(master, from), b"transport", counter);
            for _ in 0..4 {
                assert_eq!(lazy.next_u64(), eager.next_u64());
            }
        }
        // a model that never draws never seeds
        let mut unused = JitterRng {
            base: 1,
            counter: 2,
            rng: None,
        };
        ConstantLatency(Duration::from_millis(5)).sample(NodeId(1), NodeId(2), &mut unused);
        assert!(unused.rng.is_none());
    }

    #[test]
    fn control_events_scheduled_by_driver() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(10)), 1);
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.schedule_control(SimTime::from_secs(5), 42);
        let ctrl = run_windows(&mut w, SimTime::from_secs(10));
        assert_eq!(ctrl, vec![(SimTime::from_secs(5), 42)]);
    }

    #[test]
    fn with_node_drives_protocol() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(5)), 1);
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.insert_node(
            NodeId(2),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        assert!(w.with_node(NodeId(1), |_n, ctx| ctx.send(NodeId(2), Pm::Ping)));
        assert!(!w.with_node(NodeId(9), |_n, _ctx| {}));
        let ctrl = run_windows(&mut w, SimTime::from_secs(1));
        assert_eq!(ctrl.len(), 1);
    }

    #[test]
    fn remove_node_kills_timers_silently() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(5)), 1);
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.with_node(NodeId(1), |_n, ctx| {
            ctx.set_timer(Duration::from_secs(1), ())
        });
        w.remove_node(NodeId(1));
        let ctrl = run_windows(&mut w, SimTime::from_secs(5));
        assert!(ctrl.is_empty());
    }

    /// Emits `(its address, its life, fires so far)` whenever a timer
    /// fires and re-arms until it has fired twice; arms one on start
    /// when told to.
    struct Alarm {
        life: u32,
        arm_on_start: bool,
        fired: u32,
    }

    impl Alarm {
        fn new(life: u32, arm_on_start: bool) -> Self {
            Alarm {
                life,
                arm_on_start,
                fired: 0,
            }
        }
    }

    impl NodeBehavior for Alarm {
        type Msg = Pm;
        type Timer = ();
        type Control = (Addr, u32, u32);

        fn on_start(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>) {
            if self.arm_on_start {
                ctx.set_timer(Duration::from_millis(10), ());
            }
        }

        fn on_message(&mut self, _: &mut dyn Runtime<Pm, (), Self::Control>, _: Addr, _: Pm) {}

        fn on_timer(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>, (): ()) {
            self.fired += 1;
            ctx.emit((ctx.addr(), self.life, self.fired));
            if self.fired < 2 {
                ctx.set_timer(Duration::from_millis(10), ());
            }
        }
    }

    fn alarm_world() -> World<Alarm, ConstantLatency> {
        World::new(ConstantLatency(Duration::from_millis(5)), 1)
    }

    #[test]
    fn timers_armed_in_on_start_fire_and_rearm() {
        // the first timer is armed before the node has a slot (no
        // hint), the second from the slot itself
        let mut w = alarm_world();
        let x = NodeId(1);
        w.insert_node(x, Alarm::new(1, true));
        let ctrl = run_windows(&mut w, SimTime::from_secs(1));
        assert_eq!(
            ctrl,
            vec![
                (SimTime::from_millis(10), (x, 1, 1)),
                (SimTime::from_millis(20), (x, 1, 2)),
            ]
        );
    }

    #[test]
    fn a_timer_outlives_its_node_only_through_the_address() {
        // A pending timer belongs to an address: it dies with a node
        // that stays away and fires on whoever holds the address when it
        // comes due — never on another address that took over the slot
        // it was armed from.
        let (x, y) = (NodeId(1), NodeId(2));
        let arm = |w: &mut World<Alarm, ConstantLatency>| {
            w.insert_node(x, Alarm::new(1, false));
            assert!(w.with_node(x, |_n, ctx| {
                ctx.set_timer(Duration::from_secs(1), ());
            }));
            assert!(w.remove_node(x).is_some());
        };
        let fires = |life: u32| {
            vec![
                (SimTime::from_secs(1), (x, life, 1)),
                (SimTime::from_millis(1010), (x, life, 2)),
            ]
        };

        // gone for good, its slot reused by another address
        let mut w = alarm_world();
        arm(&mut w);
        w.insert_node(y, Alarm::new(1, false));
        w.inject_message(y, x, Pm::Ping);
        assert!(run_windows(&mut w, SimTime::from_secs(5)).is_empty());
        assert_eq!(w.node(y).unwrap().fired, 0);
        assert_eq!(w.dropped_to_dead(), 1, "the message to the leaver");

        // rejoined into the slot it left
        let mut w = alarm_world();
        arm(&mut w);
        w.insert_node(x, Alarm::new(2, false));
        assert_eq!(run_windows(&mut w, SimTime::from_secs(5)), fires(2));

        // rejoined into another slot, the old one held by another address
        let mut w = alarm_world();
        arm(&mut w);
        w.insert_node(y, Alarm::new(1, false));
        w.insert_node(x, Alarm::new(2, false));
        assert_eq!(run_windows(&mut w, SimTime::from_secs(5)), fires(2));
        assert_eq!(w.node(y).unwrap().fired, 0);
        assert_eq!(w.node(x).unwrap().fired, 2);
    }

    /// Panics on its first timer.
    struct Fragile {
        timers_seen: u32,
    }

    impl NodeBehavior for Fragile {
        type Msg = Pm;
        type Timer = ();
        type Control = u32;

        fn on_start(&mut self, ctx: &mut dyn Runtime<Pm, (), u32>) {
            ctx.set_timer(Duration::from_millis(10), ());
            ctx.set_timer(Duration::from_millis(20), ());
        }

        fn on_message(&mut self, _ctx: &mut dyn Runtime<Pm, (), u32>, _from: Addr, _msg: Pm) {}

        fn on_timer(&mut self, ctx: &mut dyn Runtime<Pm, (), u32>, (): ()) {
            self.timers_seen += 1;
            assert!(self.timers_seen > 1, "fragile node broke");
            ctx.emit(self.timers_seen);
        }
    }

    #[test]
    fn a_handler_panic_leaves_the_node_in_its_slot() {
        let mut w: World<Fragile, _> = World::new(ConstantLatency(Duration::from_millis(5)), 1);
        w.insert_node(NodeId(1), Fragile { timers_seen: 0 });
        let deadline = SimTime::from_secs(1);
        let caught = catch_unwind(AssertUnwindSafe(|| w.run_window(deadline)));
        assert!(caught.is_err(), "the first timer panics");
        // dispatched where it lies, the node is still hosted, in the
        // state its handler left, and its next timer reaches it
        assert_eq!(w.node(NodeId(1)).map(|n| n.timers_seen), Some(1));
        assert_eq!(
            run_windows(&mut w, deadline),
            vec![(SimTime::from_millis(20), 2)]
        );
    }

    #[test]
    fn identical_on_both_scheduler_backends() {
        // opposite ends of the ID space: with 2 shards every message
        // crosses the bus and is flushed into its queue out of key order
        let (a, b) = (NodeId(1), NodeId(u64::MAX - 1));
        let run = |kind: SchedulerKind, shards: usize| {
            let mut w: World<PingPong, _> =
                World::with_shards(ConstantLatency(Duration::from_millis(7)), 3, kind, shards);
            for (id, peer) in [(b, a), (a, b)] {
                w.insert_node(
                    id,
                    PingPong {
                        pongs: 0,
                        peer: Some(peer),
                    },
                );
            }
            w.schedule_control(SimTime::from_millis(9), 7);
            run_windows(&mut w, SimTime::from_secs(1))
        };
        let wheel = run(SchedulerKind::TimingWheel, 1);
        assert_eq!(wheel.len(), 3, "two pongs and the control");
        for shards in [1usize, 2] {
            assert_eq!(run(SchedulerKind::BinaryHeap, shards), wheel);
            assert_eq!(run(SchedulerKind::TimingWheel, shards), wheel);
        }
    }

    /// Fixed latency that *reports* no guaranteed floor (inherits the
    /// default `min_latency` of zero), forcing the degenerate
    /// one-event windows of a zero-lookahead shard set.
    struct NoFloor(Duration);

    impl LatencyModel for NoFloor {
        fn sample<R: rand::Rng + ?Sized>(&self, _: Addr, _: Addr, _: &mut R) -> Duration {
            self.0
        }
        fn base(&self, _: Addr, _: Addr) -> Duration {
            self.0
        }
    }

    /// ids spread across the whole u64 space so every shard count
    /// actually splits them
    fn gossip_ids() -> Vec<Addr> {
        (0..16)
            .map(|i| NodeId((i as u64) << 60 | (i as u64 * 0x9E37_79B9)))
            .collect()
    }

    fn gossip_world<L: LatencyModel>(shards: usize, latency: L) -> World<PingPong, L> {
        let ids = gossip_ids();
        let mut w: World<PingPong, _> =
            World::with_shards(latency, 11, SchedulerKind::default(), shards);
        assert_eq!(w.shard_count(), shards.max(1));
        for (i, &id) in ids.iter().enumerate() {
            w.insert_node(
                id,
                PingPong {
                    pongs: 0,
                    peer: Some(ids[(i + 5) % ids.len()]),
                },
            );
        }
        w
    }

    /// A gossip workload whose control trace captures the full event
    /// order: every pong emits the receiver's running count, and the
    /// driver answers each with a ping to a rotating peer, so the
    /// network stays busy and the load crosses shards.
    fn gossip_trace_windowed<L: LatencyModel>(shards: usize, latency: L) -> Vec<(SimTime, u32)> {
        let ids = gossip_ids();
        let mut w = gossip_world(shards, latency);
        let mut out = Vec::new();
        while let Some(controls) = w.run_window(SimTime::from_millis(400)) {
            for (t, c) in controls {
                out.push((t, c));
                let k = out.len() % ids.len();
                w.with_node(ids[k], |_n, ctx| {
                    ctx.send(ids[(k + 7) % 16], Pm::Ping);
                });
            }
        }
        assert_eq!(w.node_count(), 16);
        out
    }

    #[test]
    fn windowed_execution_identical_across_shards_and_modes() {
        let base = gossip_trace_windowed(1, ConstantLatency(Duration::from_millis(7)));
        assert!(base.len() > 40, "workload must generate traffic");
        for shards in [2usize, 4, 8] {
            assert_eq!(
                gossip_trace_windowed(shards, ConstantLatency(Duration::from_millis(7))),
                base,
                "{shards}-shard windowed run diverged"
            );
        }
    }

    #[test]
    fn zero_lookahead_still_deterministic() {
        // a model with no guaranteed floor gives a zero lookahead: the
        // window covers nothing and collapses to a single event, with
        // the bus flushed before every pop — slower, never wrong
        let windowed = gossip_trace_windowed(1, NoFloor(Duration::from_millis(7)));
        assert!(!windowed.is_empty());
        for shards in [2usize, 4] {
            assert_eq!(
                gossip_trace_windowed(shards, NoFloor(Duration::from_millis(7))),
                windowed
            );
        }
    }

    /// What ran on a [`Tie`] node.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ran {
        Timer,
        Message,
    }

    /// Pings `peer` and arms a timer `arm` after it starts, each when
    /// set; emits `(now, what ran)` for every handler run.
    struct Tie {
        peer: Option<Addr>,
        arm: Option<Duration>,
    }

    impl NodeBehavior for Tie {
        type Msg = Pm;
        type Timer = ();
        type Control = (SimTime, Ran);

        fn on_start(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Pm::Ping);
            }
            if let Some(arm) = self.arm {
                ctx.set_timer(arm, ());
            }
        }

        fn on_message(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>, _: Addr, _: Pm) {
            ctx.emit((ctx.now(), Ran::Message));
        }

        fn on_timer(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>, (): ()) {
            ctx.emit((ctx.now(), Ran::Timer));
        }
    }

    /// `receiver` arms a timer and `sender` pings it, both due 10 ms
    /// after they start; what ran on `receiver`, in order.
    fn tie_run<L: LatencyModel>(
        latency: L,
        kind: SchedulerKind,
        shards: usize,
        receiver: Addr,
        sender: Addr,
    ) -> Vec<(SimTime, Ran)> {
        let mut w: World<Tie, _> = World::with_shards(latency, 5, kind, shards);
        let d = Duration::from_millis(10);
        w.insert_node(
            receiver,
            Tie {
                peer: None,
                arm: Some(d),
            },
        );
        w.insert_node(
            sender,
            Tie {
                peer: Some(receiver),
                arm: None,
            },
        );
        run_windows(&mut w, SimTime::from_secs(1))
            .into_iter()
            .map(|(_, ran)| ran)
            .collect()
    }

    #[test]
    fn a_timer_and_a_delivery_due_at_one_instant_run_in_key_order() {
        // The timer's key is the receiver's first, the message's the
        // sender's first: both differ only in the origin address, so the
        // lower address runs first. Timer and message wait in different
        // lanes, and the pick between the lane heads must look past the
        // equal times to the keys.
        let (low, high) = (NodeId(1), NodeId(u64::MAX - 1));
        let at = SimTime::from_millis(10);
        let d = Duration::from_millis(10);
        for (receiver, sender, order) in [
            (low, high, [Ran::Timer, Ran::Message]),
            (high, low, [Ran::Message, Ran::Timer]),
        ] {
            let expected = vec![(at, order[0]), (at, order[1])];
            for kind in [SchedulerKind::BinaryHeap, SchedulerKind::TimingWheel] {
                for shards in [1usize, 2, 4] {
                    assert_eq!(
                        tie_run(ConstantLatency(d), kind, shards, receiver, sender),
                        expected,
                        "{kind:?}, {shards} shards, one window"
                    );
                    // zero lookahead: each event is a window of its own,
                    // popped by `run_one`
                    assert_eq!(
                        tie_run(NoFloor(d), kind, shards, receiver, sender),
                        expected,
                        "{kind:?}, {shards} shards, zero lookahead"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_entries_cost_their_payload_plus_sixteen_bytes() {
        // Stand-ins shaped like the simulator's types: a 16-byte timer
        // and a 56-byte message, both 8-byte aligned. A timer entry
        // carries its node and slab hint beside the timer, a delivery
        // its two addresses beside the message, and nothing else: no
        // tag, and no room for the other lane's payload.
        use std::mem::size_of;
        assert_eq!(size_of::<TimerEv<[u64; 2]>>(), 16 + 16);
        assert_eq!(size_of::<Delivery<[u64; 7]>>(), 56 + 16);
    }

    /// Emits `(now, its address)` for every message it gets and passes
    /// the first `hops` of them on to `next`.
    struct Relay {
        next: Addr,
        hops: u32,
    }

    impl NodeBehavior for Relay {
        type Msg = Pm;
        type Timer = ();
        type Control = (SimTime, Addr);

        fn on_start(&mut self, _: &mut dyn Runtime<Pm, (), Self::Control>) {}

        fn on_message(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>, _: Addr, msg: Pm) {
            ctx.emit((ctx.now(), ctx.addr()));
            if self.hops > 0 {
                self.hops -= 1;
                ctx.send(self.next, msg);
            }
        }

        fn on_timer(&mut self, _: &mut dyn Runtime<Pm, (), Self::Control>, (): ()) {}
    }

    /// Inject eight messages, then `drive` for `budget` — both through
    /// the [`Transport`] trait, as a host-agnostic driver would.
    fn drive_relays<H: Transport<Relay>>(host: &mut H, budget: Duration) -> Vec<(SimTime, Addr)> {
        let ids = gossip_ids();
        for k in 0..8 {
            host.inject(NodeId(3), ids[2 * k], Pm::Ping);
        }
        host.drive(budget)
    }

    #[test]
    fn a_world_driven_through_the_transport_trait() {
        let relay_world = |shards: usize| {
            let ids = gossip_ids();
            let mut w: World<Relay, _> = World::with_shards(
                ConstantLatency(Duration::from_millis(7)),
                11,
                SchedulerKind::default(),
                shards,
            );
            for (i, &id) in ids.iter().enumerate() {
                let next = ids[(i + 5) % ids.len()];
                w.insert_node(id, Relay { next, hops: 6 });
            }
            w
        };
        let budget = Duration::from_millis(20);
        for shards in [1usize, 2] {
            // deliveries land every 7 ms: two rounds fit the budget and
            // more remain beyond it, so the clock stops at the budget
            let mut w = relay_world(shards);
            let first = drive_relays(&mut w, budget);
            assert_eq!(first.len(), 16);
            assert_eq!(w.now(), SimTime::ZERO + budget);
            let mut halves = first;
            halves.extend(w.drive(budget));
            assert_eq!(w.now(), SimTime::ZERO + budget + budget);
            assert_eq!(halves.len(), 8 * 5, "rounds at 7, 14, 21, 28 and 35 ms");
            assert!(
                halves.windows(2).all(|pair| pair[0] < pair[1]),
                "{shards} shards: controls out of (time, key) order"
            );
            // two budgets spent one after the other are one of twice the size
            let mut whole = relay_world(shards);
            assert_eq!(drive_relays(&mut whole, budget + budget), halves);
            assert_eq!(whole.ledger(), w.ledger());
            assert_eq!(whole.now(), w.now());
        }
    }

    #[test]
    fn cross_shard_messages_deliver_through_the_bus() {
        // two nodes at opposite ends of the ID space: with 2 shards the
        // ping and pong must both cross the bus
        let mut w: World<PingPong, _> = World::with_shards(
            ConstantLatency(Duration::from_millis(10)),
            1,
            SchedulerKind::default(),
            2,
        );
        let (a, b) = (NodeId(1), NodeId(u64::MAX - 1));
        assert_ne!(w.shard_map().shard_of(a), w.shard_map().shard_of(b));
        w.insert_node(
            b,
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.insert_node(
            a,
            PingPong {
                pongs: 0,
                peer: Some(b),
            },
        );
        let ctrl = run_windows(&mut w, SimTime::from_secs(1));
        assert_eq!(ctrl, vec![(SimTime::from_millis(20), 1)]);
        assert_eq!(w.node(a).unwrap().pongs, 1);
    }

    #[test]
    fn churn_works_across_shards() {
        let mut w: World<PingPong, _> = World::with_shards(
            ConstantLatency(Duration::from_millis(10)),
            1,
            SchedulerKind::default(),
            4,
        );
        let far = NodeId(u64::MAX / 2);
        w.insert_node(
            far,
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        assert!(w.is_alive(far));
        assert_eq!(w.node_count(), 1);
        // a message racing a removal is dropped, not misdelivered
        w.insert_node(
            NodeId(3),
            PingPong {
                pongs: 0,
                peer: Some(far),
            },
        );
        w.remove_node(far);
        let ctrl = run_windows(&mut w, SimTime::from_secs(1));
        assert!(ctrl.is_empty());
        assert_eq!(w.dropped_to_dead(), 1);
        assert_eq!(w.node_count(), 1);
    }

    /// A node that re-arms a quiet timer forever and never emits a
    /// control: the workload on which a driver that only stopped at
    /// controls would run away past any deadline.
    struct QuietTicker;

    impl NodeBehavior for QuietTicker {
        type Msg = Pm;
        type Timer = ();
        type Control = u32;

        fn on_start(&mut self, ctx: &mut dyn Runtime<Pm, (), u32>) {
            ctx.set_timer(Duration::from_millis(10), ());
        }

        fn on_message(&mut self, _ctx: &mut dyn Runtime<Pm, (), u32>, _from: Addr, _msg: Pm) {}

        fn on_timer(&mut self, ctx: &mut dyn Runtime<Pm, (), u32>, (): ()) {
            ctx.set_timer(Duration::from_millis(10), ());
        }
    }

    #[test]
    fn a_window_stops_exactly_at_the_deadline() {
        let mut w: World<QuietTicker, _> = World::new(ConstantLatency(Duration::from_millis(5)), 1);
        w.insert_node(NodeId(1), QuietTicker);
        let tick = SimTime::from_millis(100);
        let just_short = SimTime(tick.0 - 1);
        assert!(run_windows(&mut w, just_short).is_empty());
        // events at 10..=90 ms ran; the 100 ms tick, due one instant
        // past the deadline, stays queued and the clock has not overshot
        assert_eq!(w.now(), SimTime::from_millis(90), "clock overshot");
        // a second call makes no progress (nothing is due by then)
        assert!(w.run_window(just_short).is_none());
        assert_eq!(w.now(), SimTime::from_millis(90));
        // an event due exactly at the deadline runs: the tick was still
        // queued, and nothing after it is touched
        assert_eq!(w.run_window(tick), Some(Vec::new()));
        assert_eq!(w.now(), tick);
        assert!(w.run_window(tick).is_none());
    }

    #[test]
    fn past_due_control_clamps_to_now() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(10)), 1);
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.schedule_control(SimTime::from_secs(5), 1);
        let ctrl = run_windows(&mut w, SimTime::from_secs(10));
        assert_eq!(ctrl, vec![(SimTime::from_secs(5), 1)]);
        assert_eq!(w.now(), SimTime::from_secs(5));
        // a control scheduled into the past pops immediately, at `now`
        w.schedule_control(SimTime::from_secs(1), 2);
        let ctrl = run_windows(&mut w, SimTime::from_secs(10));
        assert_eq!(ctrl, vec![(SimTime::from_secs(5), 2)], "clamped to now");
        assert_eq!(w.now(), SimTime::from_secs(5), "time moved backwards");
    }

    /// A latency model that lies about its floor: `min_latency` claims
    /// 10 ms but samples are 1 ms.
    struct LyingFloor;

    impl LatencyModel for LyingFloor {
        fn sample<R: rand::Rng + ?Sized>(&self, _: Addr, _: Addr, _: &mut R) -> Duration {
            Duration::from_millis(1)
        }
        fn base(&self, _: Addr, _: Addr) -> Duration {
            Duration::from_millis(1)
        }
        fn min_latency(&self) -> Duration {
            Duration::from_millis(10)
        }
    }

    #[test]
    #[should_panic(expected = "cross-shard message due inside the lookahead window")]
    fn lying_min_latency_trips_the_soundness_assert() {
        let mut w: World<PingPong, _> =
            World::with_shards(LyingFloor, 1, SchedulerKind::default(), 2);
        let (a, b) = (NodeId(1), NodeId(u64::MAX - 1));
        assert_ne!(w.shard_map().shard_of(a), w.shard_map().shard_of(b));
        w.insert_node(
            b,
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.insert_node(
            a,
            PingPong {
                pongs: 0,
                peer: Some(b),
            },
        );
        // b's reply is sampled at 1 ms inside a 10 ms-lookahead window:
        // the cross-shard park must fail loudly, not corrupt the run
        run_windows(&mut w, SimTime::from_secs(1));
    }

    #[test]
    fn rejoining_node_resumes_its_event_counter() {
        let mut w: World<PingPong, _> = World::new(ConstantLatency(Duration::from_millis(5)), 1);
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        w.with_node(NodeId(1), |_n, ctx| {
            ctx.set_timer(Duration::from_secs(1), ())
        });
        let counter_after_timer = w.shard(NodeId(1)).nodes.get(NodeId(1)).unwrap().counter;
        assert!(counter_after_timer > 0);
        w.remove_node(NodeId(1));
        w.insert_node(
            NodeId(1),
            PingPong {
                pongs: 0,
                peer: None,
            },
        );
        let counter_after_rejoin = w.shard(NodeId(1)).nodes.get(NodeId(1)).unwrap().counter;
        assert!(
            counter_after_rejoin >= counter_after_timer,
            "rejoin must never reuse keys of its previous life"
        );
    }
}
