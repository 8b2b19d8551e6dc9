//! `engine-gossip-10k`: the simulation engine alone — scheduler,
//! dispatch, cross-shard bus, worker pool — with no protocol and no
//! crypto on top.
//!
//! The overlay is the benchmark's own copy of the gossip workload that
//! `crates/bench` uses (that crate is outside the benchmark's paths):
//! every node fires a ~300 ms timer and sends one 72-byte message per
//! tick, alternately to its ring neighbour and to the node across the
//! id-space midpoint, so two-shard runs push half the traffic over the
//! bus. Latency is a constant 40 ms: windows are wide, which is the
//! case parallel windows were built for. Only `with_shards`,
//! `set_parallel`, `set_worker_threads` and `run_window` drive it.

use octopus_id::{IdSpace, NodeId};
use octopus_net::{
    sizes, Addr, ConstantLatency, NodeBehavior, Runtime, SchedulerKind, WireMsg, World,
};
use octopus_sim::{derive_rng, Duration, SimTime};

use super::{Layers, Outcome};
use crate::gate::Gate;
use crate::host::cpu_seconds;
use crate::stats::{median, quiet_sum};
use crate::trace::Tracer;

/// Nodes in the workload.
pub const NODES: usize = 10_000;
/// Simulated milliseconds one drive covers in the workload.
const HORIZON_MS: u64 = 15_000;
/// Payload bytes of every gossip message.
const MSG_BYTES: u64 = 72;
/// Bytes one message weighs on the ledger: payload plus the UDP/IP
/// header the byte model charges per datagram.
const LEDGER_BYTES: u64 = MSG_BYTES + sizes::UDP_HEADER as u64;
/// Drives per second of `--seconds`: one drive, with building and
/// dropping its world, takes about 0.7 s on the reference host.
const DRIVES_PER_SECOND: f64 = 5.0;
/// Set-ups timed before the drives; `setup_s` is their median.
const SETUPS: usize = 201;

/// The engine's real ~72-byte message shape.
#[derive(Clone, Copy)]
pub struct Gossip(#[allow(dead_code)] [u64; 9]);

impl WireMsg for Gossip {
    fn wire_bytes(&self) -> u32 {
        MSG_BYTES as u32
    }
}

/// A node that ticks every ~300 ms until the horizon and, unless it is
/// a timer-only node, gossips on every tick. It counts what it
/// executes, so event counts come from the harness, not the engine.
pub struct GossipNode {
    near: Addr,
    far: Addr,
    tick: u64,
    sends: bool,
    horizon: SimTime,
    timers: u32,
    sent: u32,
    delivered: u32,
}

impl NodeBehavior for GossipNode {
    type Msg = Gossip;
    type Timer = ();
    type Control = ();

    fn on_start(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>) {
        // stagger the first tick so load spreads over the horizon
        ctx.set_timer(Duration(ctx.addr().0 % 300_000), ());
    }

    fn on_message(&mut self, _ctx: &mut dyn Runtime<Gossip, (), ()>, _from: Addr, _msg: Gossip) {
        self.delivered += 1;
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>, (): ()) {
        self.timers += 1;
        if self.sends {
            let dest = if self.tick.is_multiple_of(2) {
                self.near
            } else {
                self.far
            };
            self.tick += 1;
            self.sent += 1;
            ctx.send(dest, Gossip([self.tick; 9]));
        }
        // re-arm until the horizon, then let the queue drain
        if ctx.now() + Duration::from_millis(300) <= self.horizon {
            ctx.set_timer(Duration::from_millis(300), ());
        }
    }
}

/// One way of executing the world.
#[derive(Clone, Copy)]
pub struct Cell {
    /// Span and label of the cell.
    pub name: &'static str,
    shards: usize,
    parallel: bool,
}

/// One shard, sequential windows: the classic engine.
pub const WIN1: Cell = Cell {
    name: "win1",
    shards: 1,
    parallel: false,
};
/// Two shards, windows run one shard after the other.
pub const WIN2: Cell = Cell {
    name: "win2",
    shards: 2,
    parallel: false,
};
/// Two shards, each window's batches on two pool threads.
pub const PAR2: Cell = Cell {
    name: "par2",
    shards: 2,
    parallel: true,
};

/// What one drive of the overlay to idle did and cost.
pub struct Drive {
    /// Wall seconds to build the world (`insert_node` × n).
    pub setup_s: f64,
    /// Wall seconds of each `run_window` call that executed something.
    pub steps: Vec<f64>,
    /// Processor seconds of the same calls, all threads.
    pub cpu_steps: Vec<f64>,
    /// Timers the nodes executed.
    pub timers: u64,
    /// Messages the nodes sent.
    pub sent: u64,
    /// Messages the nodes received.
    pub delivered: u64,
    /// `ledger().total_bytes()` at idle.
    pub ledger_bytes: u64,
    /// `dropped_to_dead()` at idle.
    pub dropped: u64,
}

impl Drive {
    /// Timers and deliveries executed.
    pub fn events(&self) -> u64 {
        self.timers + self.delivered
    }

    /// `run_window` calls that executed something.
    pub fn windows(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// `n` seeded ring positions, in ring order.
pub fn ring_ids(n: usize, seed: u64) -> Vec<NodeId> {
    IdSpace::random(n, &mut derive_rng(seed, b"octobench-engine", 0))
        .ids()
        .to_vec()
}

/// Build the overlay over `ids` for `cell`: the workload's set-up.
/// Returns the world and the wall seconds building it took.
fn build(
    ids: &[NodeId],
    seed: u64,
    cell: Cell,
    sends: bool,
    horizon: SimTime,
    tr: &mut Tracer,
) -> (World<GossipNode, ConstantLatency>, f64) {
    let n = ids.len();
    tr.timed("net.world.insert_node", || {
        let mut w: World<GossipNode, _> = World::with_shards(
            ConstantLatency(Duration::from_millis(40)),
            seed,
            SchedulerKind::default(),
            cell.shards,
        );
        w.set_parallel(cell.parallel);
        w.set_worker_threads(cell.shards);
        for (i, &id) in ids.iter().enumerate() {
            w.insert_node(
                id,
                GossipNode {
                    near: ids[(i + 1) % n],
                    far: ids[(i + n / 2) % n],
                    tick: id.0 % 2,
                    sends,
                    horizon,
                    timers: 0,
                    sent: 0,
                    delivered: 0,
                },
            );
        }
        w
    })
}

/// Build the overlay over `ids` and run it to idle in `cell`.
pub fn drive(
    ids: &[NodeId],
    seed: u64,
    cell: Cell,
    sends: bool,
    horizon_ms: u64,
    tr: &mut Tracer,
) -> Drive {
    let horizon = SimTime::from_millis(horizon_ms);
    let (mut w, setup_s) = build(ids, seed, cell, sends, horizon, tr);
    // One step per window: the overlay is deterministic, so every
    // drive of a cell opens the same windows in the same order. A step
    // is at most ~10 ms of wall time, short enough that some repetition
    // runs it undisturbed.
    let mut steps = Vec::new();
    let mut cpu_steps = Vec::new();
    let run = tr.enter(cell.name);
    loop {
        let cpu0 = cpu_seconds();
        let (ran, secs) = tr.timed("net.world.run_window", || {
            w.run_window(SimTime(u64::MAX)).is_some()
        });
        if !ran {
            break;
        }
        steps.push(secs);
        cpu_steps.push(cpu_seconds() - cpu0);
    }
    tr.exit(run);
    let (mut timers, mut sent, mut delivered) = (0u64, 0u64, 0u64);
    for &id in ids {
        let node = w.node(id).expect("no node leaves the overlay");
        timers += u64::from(node.timers);
        sent += u64::from(node.sent);
        delivered += u64::from(node.delivered);
    }
    Drive {
        setup_s,
        steps,
        cpu_steps,
        timers,
        sent,
        delivered,
        ledger_bytes: w.ledger().total_bytes(),
        dropped: w.dropped_to_dead(),
    }
}

/// Quiet-host wall and processor seconds of one drive (see [`quiet_sum`]).
pub fn quiet(drives: &[Drive]) -> (f64, f64) {
    (
        quiet_sum(drives.iter().map(|d| d.steps.as_slice())),
        quiet_sum(drives.iter().map(|d| d.cpu_steps.as_slice())),
    )
}

/// Check one drive against what the overlay must do, and against the
/// first drive of the run.
pub fn check(gate: &mut Gate, d: &Drive, cell: Cell, reference: &Drive) {
    let name = cell.name;
    gate.check(d.ledger_bytes == LEDGER_BYTES * d.sent, || {
        format!(
            "engine {name}: ledger has {} bytes, {} messages of {LEDGER_BYTES} bytes were sent",
            d.ledger_bytes, d.sent
        )
    });
    gate.check(d.delivered == d.sent, || {
        format!("engine {name}: {} sent, {} delivered", d.sent, d.delivered)
    });
    gate.check(d.dropped == 0, || {
        format!(
            "engine {name}: {} messages dropped to dead nodes",
            d.dropped
        )
    });
    gate.check(
        (d.ledger_bytes, d.timers, d.delivered)
            == (
                reference.ledger_bytes,
                reference.timers,
                reference.delivered,
            ),
        || format!("engine {name}: bytes or event counts differ from the first drive"),
    );
}

/// The workload: `win1` drives, one after the other. The two-shard
/// cells are measured by the probe suite, not here: every drive this
/// run spends on the one cell its end-to-end numbers come from brings
/// them closer to the host's undisturbed speed.
pub fn run(seed: u64, seconds: u64, tr: &mut Tracer, gate: &mut Gate) -> Outcome {
    let ids = ring_ids(NODES, seed);
    // Set-ups back to back, each world dropped before the next is built,
    // so every one finds the allocator as the last left it; between
    // drives a set-up's time wanders twofold with what the drive freed.
    let horizon = SimTime::from_millis(HORIZON_MS);
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| build(&ids, seed, WIN1, true, horizon, tr).1)
        .collect();
    let count = ((seconds as f64 * DRIVES_PER_SECOND) as u64).max(2);
    let drives: Vec<Drive> = (0..count)
        .map(|_| drive(&ids, seed, WIN1, true, HORIZON_MS, tr))
        .collect();
    for d in &drives {
        check(gate, d, WIN1, &drives[0]);
    }
    let events = drives[0].events();
    let (wall_s, cpu_s) = quiet(&drives);
    Outcome {
        setup_s: median(&setups),
        ops_per_s: events as f64 / wall_s,
        job_ms: wall_s * 1e3,
        cpu_us_per_op: cpu_s / events as f64 * 1e6,
        attempted: events,
        failed: 0,
        notes: vec![
            ("wall_s", wall_s, "s"),
            ("events_per_s", events as f64 / wall_s, "1/s"),
            ("events", events as f64, "count"),
            ("drives", count as f64, "count"),
            ("windows", drives[0].windows() as f64, "count"),
            ("ledger_bytes", drives[0].ledger_bytes as f64, "bytes"),
        ],
        digest: None,
        // `net.world.*` comes from the probe suite, which also runs the
        // timer-only and two-shard cells this workload leaves out
        layers: Layers::new(),
    }
}
