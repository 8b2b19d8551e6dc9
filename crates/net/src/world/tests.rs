use super::*;
use crate::latency::ConstantLatency;
use crate::shard::{JitterRng, TimerEv};
use crate::wire::{sizes, WireMsg};
use octopus_id::NodeId;
use rand::rngs::StdRng;
use rand::RngCore;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// `shards` shards of chatters with a never-hosted destination, a node
/// that leaves for good and one that leaves and rejoins, run to
/// idle: the ledger, the log and the drop count.
fn churned_chatter_run(shards: usize) -> (BandwidthLedger, Vec<Log>, u64) {
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
        shards,
    );
    if shards > 1 {
        assert_ne!(
            w.shard_map().shard_of(leaver),
            w.shard_map().shard_of(rejoiner)
        );
    }
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
    let (ledger, log, dropped) = churned_chatter_run(1);
    for shards in [2, 4] {
        let (sharded_ledger, sharded_log, sharded_dropped) = churned_chatter_run(shards);
        assert_eq!(sharded_ledger, ledger, "ledger at {shards} shards");
        assert_eq!(sharded_log, log, "log at {shards} shards");
        assert_eq!(
            sharded_dropped, dropped,
            "dropped_to_dead at {shards} shards"
        );
    }
    // the accounting `BandwidthLedger::record` did per message:
    // both ends credited at the send, in two maps
    let datagram = |bytes: u32| u64::from(bytes) + u64::from(sizes::UDP_HEADER);
    let mut sent: BTreeMap<Addr, u64> = BTreeMap::new();
    let mut addressed: BTreeMap<Addr, u64> = BTreeMap::new();
    let mut delivered: BTreeMap<Addr, u64> = BTreeMap::new();
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
        let of = |m: &BTreeMap<Addr, u64>| m.get(&a).copied().unwrap_or(0);
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
    // a windowed batch (`run_batch`), and the one-event step a
    // zero-lookahead window takes instead (`run_one`)
    fn check<L: LatencyModel>(latency: L) {
        let mut w: World<Fragile, _> = World::new(latency, 1);
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
    check(ConstantLatency(Duration::from_millis(5)));
    check(NoFloor(Duration::from_millis(5)));
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
    // window covers nothing and collapses to a single event per
    // barrier — slower, never wrong
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
    // ping and pong must both cross between shards
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

/// Ticks once, `tick` after it starts, and then sends a [`Pm::Ping`]
/// to `peer` if it has one; logs the tick and every delivery.
struct Probe {
    peer: Option<Addr>,
    tick: Duration,
}

impl NodeBehavior for Probe {
    type Msg = Pm;
    type Timer = ();
    type Control = (Addr, &'static str);

    fn on_start(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>) {
        ctx.set_timer(self.tick, ());
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>, _: Addr, _: Pm) {
        ctx.emit((ctx.addr(), "got"));
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Pm, (), Self::Control>, (): ()) {
        ctx.emit((ctx.addr(), "tick"));
        if let Some(peer) = self.peer {
            ctx.send(peer, Pm::Ping);
        }
    }
}

#[test]
fn a_cross_shard_send_at_the_lookahead_runs_in_the_next_window() {
    let lookahead = Duration::from_millis(10);
    let (low, high) = (NodeId(1), NodeId(u64::MAX - 1));
    // the window opens at t0 = 5 ms on the low node's tick, whose send
    // is due at exactly t0 + L, the window's end; the high node ticks
    // inside the same window, in a batch that runs after the send
    let windows = |shards: usize| {
        let mut w: World<Probe, _> = World::with_shards(
            ConstantLatency(lookahead),
            1,
            SchedulerKind::default(),
            shards,
        );
        w.insert_node(
            low,
            Probe {
                peer: Some(high),
                tick: Duration::from_millis(5),
            },
        );
        w.insert_node(
            high,
            Probe {
                peer: None,
                tick: Duration::from_millis(6),
            },
        );
        let t0 = SimTime::from_millis(5);
        let mut out = vec![w.run_window(SimTime(u64::MAX)).unwrap()];
        // on the destination's lane already, but not run
        let dest = w.shard_map().shard_of(high);
        assert_eq!(
            w.io.lanes[dest].peek_key().map(|(t, _)| t),
            Some(t0 + lookahead)
        );
        out.extend(std::iter::from_fn(|| w.run_window(SimTime(u64::MAX))));
        (w.shard_map(), out)
    };
    let (map, two) = windows(2);
    assert!(map.shard_of(low) < map.shard_of(high));
    let (_, one) = windows(1);
    assert_eq!(
        two,
        vec![
            vec![
                (SimTime::from_millis(5), (low, "tick")),
                (SimTime::from_millis(6), (high, "tick")),
            ],
            vec![(SimTime::from_millis(15), (high, "got"))],
        ]
    );
    assert_eq!(two, one, "the same windows on one shard");
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
    let mut w: World<PingPong, _> = World::with_shards(LyingFloor, 1, SchedulerKind::default(), 2);
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
    // the cross-shard send must fail loudly, not corrupt the run
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
    let counter_after_timer = w.slab(NodeId(1)).get(NodeId(1)).unwrap().counter;
    assert!(counter_after_timer > 0);
    w.remove_node(NodeId(1));
    w.insert_node(
        NodeId(1),
        PingPong {
            pongs: 0,
            peer: None,
        },
    );
    let counter_after_rejoin = w.slab(NodeId(1)).get(NodeId(1)).unwrap().counter;
    assert!(
        counter_after_rejoin >= counter_after_timer,
        "rejoin must never reuse keys of its previous life"
    );
}
