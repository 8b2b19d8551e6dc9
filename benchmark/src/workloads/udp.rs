//! `udp-ring-16`: sixteen Octopus nodes and the CA as `UdpHost`s on
//! loopback sockets inside this process — the only workload in which
//! frames are encoded, sent through the kernel and decoded again. The
//! deployment is derived as the `octopus-node` binary derives it (seeded
//! CA, keys, certificates, idealized ring state, finger provenance).
//!
//! All seventeen hosts are served by one thread, which gives each in
//! turn `drive`s of one microsecond on a socket made non-blocking (one
//! datagram each) until its socket is empty, and sleeps one lookup
//! period when a whole round moved no frame. One thread per host
//! blocked in `recv_from`, as `octopus-node` deploys them, was measured
//! first and dropped: on a two-core shared host every frame then waits
//! for a sleeping thread to be woken, and that wait, not the program,
//! was the result — the median lookup took 3 ms in one quarter of an
//! hour and 14 ms in the next, processor time per lookup went from 0.32
//! to 1.1 ms with it, and in one run of ten a stalled thread's socket
//! buffer overflowed, a neighbour declared it dead after the request
//! timeout, and 1634 lookups named the wrong owner. With one thread a
//! frame is received by the thread that sent it: nothing waits to be
//! woken, and no sender outruns a receiver.
//!
//! The load is a closed loop of bursts. Every node starts a lookup when
//! its own 20 ms lookup timer fires; the timer re-arms when it is
//! handled, and the thread sleeps 20 ms once nothing moves, so at every
//! wake-up all sixteen timers are due: sixteen lookups start together,
//! are served round robin until the last frame has moved (≈ 4 ms), and
//! the next sixteen start 20 ms after that — about 40 bursts, 640
//! lookups, a second. Loopback has no delay and none is injected
//! (`relay_max_delay` = 0): latency here is processor and kernel time
//! only, and it is mostly a lookup's share of its burst.
//!
//! A lookup keeps one relay pair for all its queries, and the node gives
//! the lookup up when the next node to query is one of that pair
//! (`lookup_path` returns `None`). The pair is two of the fifteen other
//! nodes, so about 2/15 of the lookups that need a query are given up
//! before a frame is sent, and a few more at a later hop. Such a lookup
//! is *declined*: attempted, not failed (the library refuses it by
//! design; no result is wrong), but the gate holds the declined share
//! under [`DECLINED_CEILING`], so that lookups lost to anything else
//! cannot hide among them. A lookup *fails* when it returns a node
//! other than the key's true owner or runs into the request timeout.

use std::collections::BTreeMap;
use std::net::UdpSocket;
use std::time::Instant;

use octopus_chord::signed::successor_list_table;
use octopus_chord::SignedRoutingTable;
use octopus_core::simnet::CA_ADDR;
use octopus_core::{Actor, CaNode, Control, OctopusConfig, OctopusNode};
use octopus_crypto::{Certificate, CertificateAuthority, KeyPair};
use octopus_id::{IdSpace, NodeId, ShardedIdSpace};
use octopus_net::Transport;
use octopus_sim::{derive_rng, Duration};
use octopus_transport::{HostStats, PeerTable, UdpHost};

use super::{Layers, Outcome};
use crate::gate::Gate;
use crate::host::cpu_seconds;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Ring members (the CA is a seventeenth host).
const NODES: usize = 16;
/// Untimed seconds before measuring: relay pools fill, timers spread.
const WARMUP_SECONDS: f64 = 3.0;
/// Set-ups timed per run (about 0.5 ms each); the last one is the ring
/// that runs.
const SETUPS: usize = 101;
/// Largest share of finished lookups the nodes may decline: the 2/15
/// the shared relay pair explains on a ring of sixteen, plus 0.05 for
/// the few relay pairs a node draws from (forty runs gave 0.08–0.14,
/// standard deviation 0.014; lookups lost to anything else come on top).
const DECLINED_CEILING: f64 = 2.0 / (NODES - 1) as f64 + 0.05;
/// Wall-clock budget of one `drive` call: on a non-blocking socket,
/// time to fire what is due and to try the socket once.
const TURN: Duration = Duration(1);
/// Protocol periods for a wall-clock run: `octopus-node`'s accelerated
/// set, with a lookup every 20 ms per node and no relay delay.
fn ring_config(n: usize) -> OctopusConfig {
    let mut cfg = OctopusConfig::for_network(n);
    cfg.stabilize_every = Duration::from_millis(250);
    cfg.finger_update_every = Duration::from_secs(5);
    cfg.surveillance_every = Duration::from_secs(60);
    cfg.walk_every = Duration::from_secs(2);
    cfg.lookup_every = Duration::from_millis(20);
    cfg.request_timeout = Duration::from_secs(2);
    cfg.relay_max_delay = Duration::ZERO;
    cfg
}

/// A bound ring ready to run.
struct Ring {
    hosts: Vec<UdpHost<Actor>>,
    space: ShardedIdSpace,
    cfg: OctopusConfig,
}

/// Derive the deployment from `seed`, bind every socket and build every
/// host: what `octopus-node` does at boot, for all seventeen at once.
fn set_up(seed: u64, nodes: usize) -> Ring {
    let cfg = ring_config(nodes);
    let chord = cfg.chord;
    let mut rng = derive_rng(seed, b"octobench-udp", 0);
    let ids: Vec<NodeId> = IdSpace::random(nodes, &mut rng).ids().to_vec();
    assert!(!ids.contains(&CA_ADDR), "the CA's address is reserved");
    let authority = CertificateAuthority::new(&mut rng);
    let mut ca = CaNode::new(CA_ADDR, authority, cfg);
    let mut keys: BTreeMap<NodeId, (KeyPair, Certificate)> = BTreeMap::new();
    for &id in &ids {
        let kp = KeyPair::generate(&mut rng);
        let cert = ca.issue_cert(id, kp.public());
        ca.register(id, kp.public());
        ca.note_join(id, 0);
        keys.insert(id, (kp, cert));
    }
    ca.broadcast_to = ids.clone();
    let ca_key = ca.public_key();
    let space = ShardedIdSpace::new(&ids);

    let mut actors: Vec<(NodeId, Actor)> = Vec::new();
    for &id in &ids {
        let (kp, cert) = keys[&id].clone();
        let mut node = OctopusNode::new(id, cfg, kp, cert, CA_ADDR, ca_key, None);
        let fingers = (0..chord.fingers)
            .map(|i| space.owner_of(chord.finger_target(id, i)).owner)
            .collect();
        let mut relay_rng = derive_rng(seed, b"octobench-relays", id.0);
        let mut pairs = Vec::new();
        while pairs.len() < 4 {
            let a = space.random_member(&mut relay_rng);
            let b = space.random_member(&mut relay_rng);
            if a != b && a != id && b != id {
                pairs.push((a, b));
            }
        }
        node.seed_state(
            space.successor_list(id, chord.successors),
            space.predecessor_list(id, chord.predecessors),
            fingers,
            pairs,
        );
        for i in 0..chord.fingers {
            let owner = space.owner_of(chord.finger_target(id, i)).owner;
            let signer = (1..=3)
                .map(|d| space.predecessor(owner, d))
                .find(|&s| s != id && s != owner);
            if let Some((signer, (kp, cert))) = signer.and_then(|s| Some((s, keys.get(&s)?))) {
                let list = space.successor_list(signer, chord.successors);
                let signed =
                    SignedRoutingTable::sign(successor_list_table(signer, list), 0, kp, *cert);
                node.set_finger_provenance(i, signed);
            }
        }
        actors.push((id, Actor::Peer(Box::new(node))));
    }
    actors.push((CA_ADDR, Actor::Ca(Box::new(ca))));

    let sockets: Vec<UdpSocket> = actors
        .iter()
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind a loopback socket"))
        .collect();
    let mut peers = PeerTable::new();
    for ((id, _), socket) in actors.iter().zip(&sockets) {
        peers.insert(
            *id,
            socket.local_addr().expect("bound socket has an address"),
        );
    }
    let hosts = actors
        .into_iter()
        .zip(sockets)
        .map(|((id, actor), socket)| {
            // `UdpHost` blocks in `recv_from`; a second handle on the
            // same open socket switches that off for both
            let handle = socket.try_clone().expect("duplicate a socket");
            let host =
                UdpHost::new(actor, id, socket, peers.clone(), seed).expect("set the read timeout");
            handle
                .set_nonblocking(true)
                .expect("make a socket non-blocking");
            host
        })
        .collect();
    Ring { hosts, space, cfg }
}

/// One finished lookup, as the node reported it.
struct Done {
    correct: Option<bool>,
    hops: usize,
    elapsed_ms: f64,
}

/// What the timed section of one ring run measured.
struct RingRun {
    /// Wall seconds of each set-up.
    setups: Vec<f64>,
    /// Wall seconds measured.
    wall_s: f64,
    /// Processor seconds of the whole process over them.
    cpu_s: f64,
    /// Lookups that returned the key's true owner.
    converged: u64,
    /// …of which the node itself owned the key's successor (no query).
    local: u64,
    /// Lookups that returned another node.
    wrong: u64,
    /// Lookups that ran into the request timeout.
    timed_out: u64,
    /// Lookups the node gave up before asking anyone (see module docs).
    declined: u64,
    /// Lookups the node gave up after at least one query, before the
    /// request timeout.
    abandoned: u64,
    /// Milliseconds each converged lookup with at least one query took.
    latencies_ms: Vec<f64>,
    /// Milliseconds each burst took, from the first frame to the last.
    bursts_ms: Vec<f64>,
    /// Datagram counters summed over hosts, timed section only.
    stats: HostStats,
}

impl RingRun {
    /// Lookups that finished, one way or another, in the timed section.
    fn finished(&self) -> u64 {
        self.converged + self.wrong + self.timed_out + self.declined + self.abandoned
    }

    /// Share of finished lookups the nodes gave up by themselves.
    fn declined_share(&self) -> f64 {
        (self.declined + self.abandoned) as f64 / self.finished() as f64
    }
}

/// Add what one host counted between `start` and `end` to `total`.
fn add_delta(total: &mut HostStats, end: HostStats, start: HostStats) {
    total.frames_in += end.frames_in - start.frames_in;
    total.frames_out += end.frames_out - start.frames_out;
    total.frames_rejected += end.frames_rejected - start.frames_rejected;
    total.dropped_unknown_peer += end.dropped_unknown_peer - start.dropped_unknown_peer;
    total.send_failures += end.send_failures - start.send_failures;
}

/// Datagram counters summed over `hosts`.
fn total_stats(hosts: &[UdpHost<Actor>]) -> HostStats {
    let mut total = HostStats::default();
    for h in hosts {
        add_delta(&mut total, h.stats, HostStats::default());
    }
    total
}

/// Set the ring up [`SETUPS`] times, run the last one for `warmup_s` +
/// `timed_s` seconds and collect what the timed part did.
fn run_ring(seed: u64, nodes: usize, warmup_s: f64, timed_s: f64, tr: &mut Tracer) -> RingRun {
    let mut setups = Vec::new();
    let mut ring = None;
    for _ in 0..SETUPS {
        drop(ring.take()); // close the previous ring's sockets first
        let (r, secs) = tr.timed("transport.host.set_up", || set_up(seed, nodes));
        setups.push(secs);
        ring = Some(r);
    }
    let Ring {
        mut hosts,
        space,
        cfg,
    } = ring.expect("SETUPS is at least one");
    let timeout_ms = cfg.request_timeout.as_millis_f64();
    // The thread sleeps one lookup period after a round that moved no
    // frame. Every node's lookup timer was re-armed in the first rounds
    // of the burst before, so all sixteen are due at wake-up: a burst
    // is always sixteen lookups started together. With shorter naps the
    // timers fall into step anyway (one that comes due during a burst
    // starts late and re-arms late), but only partly and differently
    // from run to run, and the median latency — mostly a lookup's share
    // of its burst — came out anywhere from 2.3 to 4.8 ms.
    let nap = std::time::Duration::from_micros(cfg.lookup_every.0);

    let phase = tr.enter("transport.ring");
    let t_start = Instant::now() + std::time::Duration::from_secs_f64(warmup_s);
    let t_end = t_start + std::time::Duration::from_secs_f64(timed_s);
    // stats, processor seconds and time at the start of the timed part
    let mut start: Option<(HostStats, f64, Instant)> = None;
    let mut done = Vec::new();
    // a burst: the rounds from the first that moved a frame to the
    // first that moved none
    let mut burst = None;
    let mut bursts_ms = Vec::new();
    loop {
        let now = Instant::now();
        if now >= t_end {
            break;
        }
        if start.is_none() && now >= t_start {
            start = Some((total_stats(&hosts), cpu_seconds(), now));
        }
        let mut moved = false;
        for host in &mut hosts {
            // a turn: fire what is due, then empty the socket
            let before = host.stats;
            let mut controls = Vec::new();
            loop {
                let received = host.stats.frames_in;
                controls.append(&mut host.drive(TURN));
                if host.stats.frames_in == received {
                    break;
                }
            }
            moved |= host.stats != before;
            if start.is_none() {
                continue;
            }
            for c in controls {
                if let Control::LookupDone {
                    key,
                    result,
                    hops,
                    elapsed,
                    ..
                } = c
                {
                    done.push(Done {
                        correct: result.map(|owner| owner == space.owner_of(key).owner),
                        hops,
                        elapsed_ms: elapsed.as_millis_f64(),
                    });
                }
            }
        }
        if moved {
            burst.get_or_insert_with(|| tr.enter("transport.host.burst"));
        } else {
            if let Some(span) = burst.take() {
                let secs = tr.exit(span);
                if start.is_some() {
                    bursts_ms.push(secs * 1e3);
                }
            }
            std::thread::sleep(nap);
        }
    }
    if let Some(span) = burst {
        tr.exit(span);
    }
    let (stats0, cpu0, wall0) = start.expect("the timed part is longer than a round");
    let (cpu_s, wall_s) = (cpu_seconds() - cpu0, wall0.elapsed().as_secs_f64());
    tr.exit(phase);

    let mut out = RingRun {
        setups,
        wall_s,
        cpu_s,
        converged: 0,
        local: 0,
        wrong: 0,
        timed_out: 0,
        declined: 0,
        abandoned: 0,
        latencies_ms: Vec::new(),
        bursts_ms,
        stats: HostStats::default(),
    };
    add_delta(&mut out.stats, total_stats(&hosts), stats0);
    for l in &done {
        match l.correct {
            Some(true) => {
                out.converged += 1;
                if l.hops == 0 {
                    out.local += 1;
                } else {
                    out.latencies_ms.push(l.elapsed_ms);
                }
            }
            Some(false) => out.wrong += 1,
            None if l.elapsed_ms >= timeout_ms => out.timed_out += 1,
            None if l.hops == 0 && l.elapsed_ms == 0.0 => out.declined += 1,
            None => out.abandoned += 1,
        }
    }
    out
}

/// Frames must all arrive whole, every answered lookup must name the
/// true owner, and the nodes may decline only what the relay-pair rule
/// explains.
fn check(gate: &mut Gate, r: &RingRun) {
    let s = r.stats;
    gate.check(
        s.frames_rejected == 0 && s.send_failures == 0 && s.dropped_unknown_peer == 0,
        || {
            format!(
                "udp: {} frames rejected, {} sends failed, {} sends to unknown peers",
                s.frames_rejected, s.send_failures, s.dropped_unknown_peer
            )
        },
    );
    gate.check(r.wrong == 0 && r.timed_out == 0, || {
        format!(
            "udp: {} lookups returned the wrong owner, {} timed out",
            r.wrong, r.timed_out
        )
    });
    gate.check(!r.latencies_ms.is_empty(), || {
        "udp: no lookup with a remote query converged".to_owned()
    });
    gate.check(
        r.finished() > 0 && r.declined_share() <= DECLINED_CEILING,
        || {
            format!(
                "udp: the nodes gave up {} of {} lookups ({} before the first query, {} later); \
                 the shared relay pair explains at most {DECLINED_CEILING:.3}",
                r.declined + r.abandoned,
                r.finished(),
                r.declined,
                r.abandoned
            )
        },
    );
}

/// The workload.
pub fn run(seed: u64, seconds: u64, tr: &mut Tracer, gate: &mut Gate) -> Outcome {
    let r = run_ring(seed, NODES, WARMUP_SECONDS, seconds as f64, tr);
    check(gate, &r);
    // a run in which nothing finished has failed the gate above; its
    // numbers are zeros, not a panic that would hide the gate's message
    let finished = r.finished().max(1) as f64;
    let latency = |p: f64| {
        if r.latencies_ms.is_empty() {
            0.0
        } else {
            percentile(&r.latencies_ms, p)
        }
    };
    let p50 = if r.latencies_ms.is_empty() {
        0.0
    } else {
        median(&r.latencies_ms)
    };
    let s = r.stats;
    let layers = Layers::from([
        (
            "transport.host.frames_per_lookup",
            s.frames_out as f64 / finished,
        ),
        ("transport.host.frames_in", s.frames_in as f64),
        ("transport.host.frames_out", s.frames_out as f64),
        ("transport.host.frames_rejected", s.frames_rejected as f64),
        ("transport.host.send_failures", s.send_failures as f64),
        (
            "transport.host.dropped_unknown_peer",
            s.dropped_unknown_peer as f64,
        ),
        ("transport.host.cpu_share", r.cpu_s / r.wall_s),
        ("transport.host.lookup_p90_ms", latency(90.0)),
        ("transport.host.lookup_p99_ms", latency(99.0)),
        (
            "transport.host.local_lookup_share",
            r.local as f64 / r.converged.max(1) as f64,
        ),
        (
            "transport.host.declined_share",
            r.declined as f64 / finished,
        ),
        (
            "transport.host.abandoned_share",
            r.abandoned as f64 / finished,
        ),
    ]);
    Outcome {
        setup_s: median(&r.setups),
        ops_per_s: r.converged as f64 / r.wall_s,
        job_ms: p50,
        cpu_us_per_op: r.cpu_s / finished * 1e6,
        attempted: r.finished(),
        failed: r.wrong + r.timed_out,
        notes: vec![
            ("lookups_per_s", r.converged as f64 / r.wall_s, "1/s"),
            ("lookup_p50_ms", p50, "ms"),
            ("lookup_p99_ms", latency(99.0), "ms"),
            ("lookup_samples", r.latencies_ms.len() as f64, "count"),
            (
                "burst_p50_ms",
                if r.bursts_ms.is_empty() {
                    0.0
                } else {
                    median(&r.bursts_ms)
                },
                "ms",
            ),
            ("bursts", r.bursts_ms.len() as f64, "count"),
            ("cpu_ms_per_lookup", r.cpu_s / finished * 1e3, "ms"),
            ("cpu_share", r.cpu_s / r.wall_s, "cores"),
            ("declined_share", r.declined_share(), "ratio"),
            ("declined_before_first_query", r.declined as f64, "count"),
            ("declined_at_a_later_hop", r.abandoned as f64, "count"),
            ("frames_per_lookup", s.frames_out as f64 / finished, "count"),
        ],
        digest: None,
        layers,
    }
}
