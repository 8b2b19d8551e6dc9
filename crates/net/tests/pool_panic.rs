//! Panic replay across shards: a node handler that panics inside a
//! window batch of a 4-shard world must surface on the driving thread
//! with its payload intact, after the window's barrier merge, and it
//! must leave the [`World`] usable: later windows still run, no other
//! node is lost, and the world drops cleanly. The pool-width settings
//! (`set_parallel`, `set_worker_threads`) are accepted and ignored, so
//! every width replays the same payload.

use std::panic::{self, AssertUnwindSafe};

use octopus_id::NodeId;
use octopus_net::{Addr, ConstantLatency, NodeBehavior, Runtime, SchedulerKind, WireMsg, World};
use octopus_sim::{Duration, SimTime};

const SHARDS: usize = 4;
const NODES: u64 = 16;
/// Sim time after which the armed node detonates on its next timer.
fn fuse() -> Duration {
    Duration::from_millis(400)
}

/// Detonation is timer-driven, so it must land well inside this.
fn deadline() -> Duration {
    Duration::from_secs(2)
}

struct Ping;

impl WireMsg for Ping {
    fn wire_bytes(&self) -> u32 {
        16
    }
}

struct Tick;

/// Ping traffic generator; exactly one instance is armed and panics
/// with a deterministic payload once the fuse elapses.
struct Bomb {
    peers: Vec<Addr>,
    armed: bool,
    ticks: u64,
    pings_seen: u64,
}

impl NodeBehavior for Bomb {
    type Msg = Ping;
    type Timer = Tick;
    type Control = ();

    fn on_start(&mut self, ctx: &mut dyn Runtime<Ping, Tick, ()>) {
        // Stagger first ticks by address so shard batches interleave.
        let stagger = 1 + (ctx.addr().0 >> 60) % 5;
        ctx.set_timer(Duration::from_millis(stagger), Tick);
    }

    fn on_message(&mut self, _ctx: &mut dyn Runtime<Ping, Tick, ()>, _from: Addr, _msg: Ping) {
        self.pings_seen += 1;
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping, Tick, ()>, _t: Tick) {
        if self.armed && ctx.now() >= SimTime::ZERO + fuse() {
            // The payload bakes in the detonation's position in the
            // schedule, so payload equality across runs is also a
            // determinism check on *when* the panic fired.
            panic!(
                "shard-batch bomb: node {:#018x} detonated at {:?} after {} ticks",
                ctx.addr().0,
                ctx.now(),
                self.ticks
            );
        }
        let to = self.peers[(self.ticks as usize) % self.peers.len()];
        ctx.send(to, Ping);
        self.ticks += 1;
        ctx.set_timer(Duration::from_millis(3), Tick);
    }
}

fn node_addr(i: u64) -> Addr {
    // Top-bit spread: 4 nodes per shard at SHARDS = 4.
    NodeId(i << 60)
}

fn build_world() -> World<Bomb, ConstantLatency> {
    let mut world = World::with_shards(
        ConstantLatency(Duration::from_millis(5)),
        0xB0B,
        SchedulerKind::TimingWheel,
        SHARDS,
    );
    let peers: Vec<Addr> = (0..NODES).map(node_addr).collect();
    for i in 0..NODES {
        let addr = node_addr(i);
        world.insert_node(
            addr,
            Bomb {
                peers: peers.iter().copied().filter(|&p| p != addr).collect(),
                armed: i == 5,
                ticks: 0,
                pings_seen: 0,
            },
        );
    }
    world
}

/// Render a caught payload; the bomb always panics with a formatted
/// `String`, so anything else is itself a replay bug worth seeing.
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => match other.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "<non-string panic payload>".to_owned(),
        },
    }
}

/// Run `f` with panic-hook output suppressed (the detonations below
/// are expected; their backtraces would drown the test log).
fn quiet<R>(f: impl FnOnce() -> R) -> R {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(prev);
    out
}

/// Drive windows until the bomb goes off; return its payload. Then
/// prove the world survived: more windows run cleanly and the world
/// drops without a second panic.
fn detonate_and_recover(mut world: World<Bomb, ConstantLatency>) -> String {
    let deadline = SimTime::ZERO + self::deadline();
    let payload = quiet(|| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            while world.run_window(deadline).is_some() {}
        }))
        .expect_err("the armed node must detonate before the deadline")
    });
    // The barrier merge ran before the panic was re-raised, so stepping
    // continues. The panicking node stays hosted where its handler left
    // it; what is checked below is that the panic cost no other node.
    let resumed = panic::catch_unwind(AssertUnwindSafe(|| {
        let extended = deadline + Duration::from_millis(100);
        let mut windows = 0usize;
        while world.run_window(extended).is_some() {
            windows += 1;
        }
        (windows, world.now())
    }));
    let (windows, now) = resumed.unwrap_or_else(|p| {
        panic!(
            "world must keep stepping after a caught batch panic; got: {}",
            payload_string(p)
        )
    });
    assert!(windows > 0, "no window ran after the panic was caught");
    assert!(now >= SimTime::ZERO + fuse(), "clock went backwards");
    let survivors = world.addrs().count();
    assert!(
        survivors >= (NODES as usize) - 1,
        "panic destroyed more than the panicking node: {survivors} nodes left"
    );
    drop(world);
    payload_string(payload)
}

#[test]
fn panic_payload_replays_identically_at_every_pool_width() {
    let baseline = detonate_and_recover(build_world());
    assert!(
        baseline.contains("shard-batch bomb") && baseline.contains("detonated"),
        "unexpected payload: {baseline}"
    );

    // The old pool widths 1, 2 and 0 (auto): the settings are accepted
    // and ignored, so each replays the exact payload.
    for width in [1usize, 2, 0] {
        let mut world = build_world();
        world.set_parallel(true);
        world.set_worker_threads(width);
        assert_eq!(
            detonate_and_recover(world),
            baseline,
            "panic payload diverged at pool width {width}"
        );
    }
}
