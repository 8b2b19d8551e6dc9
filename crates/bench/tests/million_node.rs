//! Million-node scale determinism: a gossip workload at N=1,000,000
//! on 8 shards must reproduce a pinned byte ledger.
//!
//! The workload builds an N-node overlay and drives one simulated
//! second of staggered per-node gossip timers, with half the traffic
//! deliberately crossing the ID-space midpoint so multi-shard runs
//! exercise cross-shard sends and their lookahead windows. At this
//! size eight shards run faster than one and peak higher in memory
//! (`BENCH_shard_state.json`).
//!
//! Ignored by default — the run processes ~6.6M events over a
//! million-node world and takes minutes in a debug build. Run it with
//!
//! ```text
//! cargo test -p octopus-bench --release -- --ignored million_node_ring
//! ```

use octopus_id::NodeId;
use octopus_net::{Addr, ConstantLatency, NodeBehavior, Runtime, SchedulerKind, WireMsg, World};
use octopus_sim::{Duration, SimTime};

/// Simulated horizon driven per run, in milliseconds.
const SIM_MILLIS: u64 = 1000;

/// The engine's real ~72-byte message shape.
#[derive(Clone, Copy)]
struct Gossip(#[allow(dead_code)] [u64; 9]);

impl WireMsg for Gossip {
    fn wire_bytes(&self) -> u32 {
        72
    }
}

/// A node that gossips to a ring neighbor and to a node across the
/// ID-space midpoint on alternating ~300 ms ticks.
struct GossipNode {
    near: Addr,
    far: Addr,
    tick: u64,
}

impl NodeBehavior for GossipNode {
    type Msg = Gossip;
    type Timer = ();
    type Control = ();

    fn on_start(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>) {
        // stagger the first tick so load spreads over the horizon
        let phase = ctx.addr().0 % 300_000;
        ctx.set_timer(Duration(phase), ());
    }

    fn on_message(&mut self, _ctx: &mut dyn Runtime<Gossip, (), ()>, _from: Addr, _msg: Gossip) {}

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>, (): ()) {
        let dest = if self.tick.is_multiple_of(2) {
            self.near
        } else {
            self.far
        };
        self.tick += 1;
        ctx.send(dest, Gossip([self.tick; 9]));
        // re-arm until the horizon, then let the queue drain
        if ctx.now() + Duration::from_millis(300) <= SimTime::from_millis(SIM_MILLIS) {
            ctx.set_timer(Duration::from_millis(300), ());
        }
    }
}

/// Build an overlay of `n` addresses spread evenly around the ID space
/// and run [`SIM_MILLIS`] of gossip to idle; returns total bytes
/// shipped.
fn drive(n: usize, shards: usize) -> u64 {
    let stride = u64::MAX / n as u64;
    let ids: Vec<Addr> = (0..n as u64).map(|i| NodeId(i * stride + i)).collect();
    let mut w: World<GossipNode, _> = World::with_shards(
        ConstantLatency(Duration::from_millis(40)),
        7,
        SchedulerKind::default(),
        shards,
    );
    for (i, &id) in ids.iter().enumerate() {
        w.insert_node(
            id,
            GossipNode {
                near: ids[(i + 1) % n],
                far: ids[(i + n / 2) % n],
                tick: id.0 % 2,
            },
        );
    }
    while w.run_window(SimTime(u64::MAX)).is_some() {}
    w.ledger().total_bytes()
}

/// Total bytes shipped by `drive(1_000_000, 8)`, pinned from a
/// release run. Any engine change that shifts this number changed
/// *results*, not just speed.
const MILLION_NODE_BYTES: u64 = 333_336_500;

#[test]
#[ignore = "minutes-long at N=1,000,000; run with --release -- --ignored"]
fn million_node_ring() {
    assert_eq!(
        drive(1_000_000, 8),
        MILLION_NODE_BYTES,
        "million-node ledger diverged from the pinned digest"
    );
}
