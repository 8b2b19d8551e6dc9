//! The probe suite: the per-layer metrics no workload can report by
//! itself, measured by calling one layer's `pub` items directly at a
//! fixed scale. (`core.simnet.*` and `transport.host.*` are not here:
//! they decompose a workload and come from that workload's own run.)
//! Each probe's batches are spans of the traced run. Timings are the
//! fastest of several batches (see [`crate::stats`] for why).
//!
//! Every probe belongs to the workload whose layers it times
//! ([`PROBES`]): `octobench trace` runs each probe once, in its owner's
//! traced run; a single traced run, which must report every per-layer
//! metric, runs them all.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::Instant;

use octopus_chord::{
    iterative_lookup, ChordConfig, GroundTruthView, RoutingTable, RoutingView, SignedRoutingTable,
};
use octopus_core::messages::{ExitAction, Hop, Msg, OnionPacket, Report};
use octopus_core::{trial_configs, SecuritySim, TrialRunner};
use octopus_crypto::{onion, sha256, Certificate, CertificateAuthority, KeyPair};
use octopus_id::{IdSpace, Key, NodeId, ShardedIdSpace};
use octopus_net::{
    decode_frame, encode_frame, Addr, DecodeError, FrameHeader, NodeBehavior, PayloadReader,
    Runtime, Transport, WireCodec, WireMsg,
};
use octopus_sim::{derive_rng, split_seed, Duration, EventQueue, SchedulerKind, SimTime};
use octopus_transport::{PeerTable, UdpHost};
use rand::rngs::StdRng;
use rand::Rng;

use crate::gate::Gate;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{engine, sim, Layers};

/// Batches per micro probe; the fastest one is reported.
const BATCHES: usize = 8;
/// Wall time one batch is scaled up to.
const BATCH_SECONDS: f64 = 0.005;

/// Nanoseconds per call of `op`: the iteration count is doubled until a
/// batch takes [`BATCH_SECONDS`], then [`BATCHES`] batches are timed
/// (40 ms per probe) and the fastest counts.
fn ns_per_op(tr: &mut Tracer, span: &'static str, mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        if t0.elapsed().as_secs_f64() >= BATCH_SECONDS || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    (0..BATCHES)
        .map(|_| {
            let ((), secs) = tr.timed(span, || {
                for _ in 0..iters {
                    op();
                }
            });
            secs * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------
// sim: the event queue alone
// ---------------------------------------------------------------------

/// The §5.1 periodic timer kinds and their periods in seconds.
const TIMERS: [(u8, u64); 5] = [(0, 2), (1, 15), (2, 30), (3, 60), (4, 60)];

/// The engine's real event shape: a 72-byte payload.
#[derive(Clone, Copy)]
enum QueueEvent {
    Timer { node: u64, kind: u8 },
    Deliver { hop: u8, msg: [u64; 9] },
}

/// Push and pop the timer mix of 1000 nodes over 30 simulated seconds —
/// each timer sends a request that is answered and forwarded once — on
/// one queue backend; returns events popped.
fn drive_queue(kind: SchedulerKind, seed: u64) -> u64 {
    let mut q: EventQueue<QueueEvent> = EventQueue::with_scheduler(kind);
    let end = SimTime::from_secs(30);
    let mut state = seed;
    let mut latency = move || {
        state = split_seed(state, 0xA5A5);
        Duration(20_000 + state % 400_000)
    };
    for node in 0..1000u64 {
        for (kind, period) in TIMERS {
            let phase = split_seed(seed ^ node, u64::from(kind)) % (period * 1_000_000);
            q.push(SimTime(phase), QueueEvent::Timer { node, kind });
        }
    }
    let mut events = 0u64;
    while let Some((t, ev)) = q.pop() {
        events += 1;
        if t >= end {
            continue; // drain without refilling past the horizon
        }
        match ev {
            QueueEvent::Timer { node, kind } => {
                let period = TIMERS[kind as usize].1;
                q.push(
                    t + Duration::from_secs(period),
                    QueueEvent::Timer { node, kind },
                );
                let msg = [node ^ u64::from(kind); 9];
                q.push(t + latency(), QueueEvent::Deliver { hop: 1, msg });
            }
            QueueEvent::Deliver { hop, msg } => {
                if hop < 3 {
                    q.push(t + latency(), QueueEvent::Deliver { hop: hop + 1, msg });
                }
            }
        }
    }
    events
}

fn queue(seed: u64, tr: &mut Tracer, gate: &mut Gate, out: &mut Layers) {
    let mut events = [0u64; 2];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..BATCHES {
        for (i, (kind, span)) in [
            (SchedulerKind::TimingWheel, "sim.queue.wheel"),
            (SchedulerKind::BinaryHeap, "sim.queue.heap"),
        ]
        .into_iter()
        .enumerate()
        {
            let (n, secs) = tr.timed(span, || drive_queue(kind, seed));
            events[i] = n;
            best[i] = best[i].min(secs * 1e9 / n as f64);
        }
    }
    gate.check(events[0] == events[1], || {
        format!(
            "queue: wheel popped {} events, heap {}",
            events[0], events[1]
        )
    });
    out.insert("sim.queue.wheel_ns_per_event", best[0]);
    out.insert("sim.queue.heap_ns_per_event", best[1]);
    out.insert("sim.queue.events", events[0] as f64);
}

// ---------------------------------------------------------------------
// net: the bare world
// ---------------------------------------------------------------------

fn world(seed: u64, tr: &mut Tracer, gate: &mut Gate, out: &mut Layers) {
    // Ten times the workload's overlay: 90 MiB of cold nodes, the size
    // parallel windows were built for. Memory-bound, so these numbers
    // follow the host's memory latency (±15 %), which is why the
    // bounded end-to-end numbers come from the 10 000-node workload.
    const NODES: usize = 100_000;
    const HORIZON_MS: u64 = 500;
    const ROUNDS: usize = 3;
    let ids = engine::ring_ids(NODES, seed);
    // timer-only nodes, then the gossip overlay in each cell,
    // interleaved so a slow phase of the host hits all alike
    let cells = [
        (engine::WIN1, false),
        (engine::WIN1, true),
        (engine::WIN2, true),
        (engine::PAR2, true),
    ];
    let mut drives: [Vec<engine::Drive>; 4] = Default::default();
    for _ in 0..ROUNDS {
        for (i, &(cell, sends)) in cells.iter().enumerate() {
            drives[i].push(engine::drive(&ids, seed, cell, sends, HORIZON_MS, tr));
        }
    }
    for (i, &(cell, _)) in cells.iter().enumerate().skip(1) {
        for d in &drives[i] {
            engine::check(gate, d, cell, &drives[1][0]);
        }
    }
    let wall = |i: usize| engine::quiet(&drives[i]).0;
    let [timer_only, win1, win2, par2] = [wall(0), wall(1), wall(2), wall(3)];
    let gossip = &drives[1][0];
    let insert = drives
        .iter()
        .flatten()
        .map(|d| d.setup_s)
        .fold(f64::INFINITY, f64::min);
    let events = gossip.events() as f64;
    out.insert(
        "net.world.insert_ns_per_node",
        insert * 1e9 / ids.len() as f64,
    );
    out.insert(
        "net.world.timer_ns_per_event",
        timer_only * 1e9 / drives[0][0].events() as f64,
    );
    out.insert(
        "net.world.send_ns_per_msg",
        (win1 - timer_only) * 1e9 / gossip.sent as f64,
    );
    out.insert("net.world.win1_ns_per_event", win1 * 1e9 / events);
    out.insert("net.world.win2_ns_per_event", win2 * 1e9 / events);
    out.insert("net.world.par2_ns_per_event", par2 * 1e9 / events);
    out.insert("net.world.par2_speedup", win1 / par2);
    out.insert("net.world.windows", gossip.windows() as f64);
    out.insert(
        "net.world.events_per_window",
        events / gossip.windows() as f64,
    );
    out.insert("net.world.dropped_to_dead", gossip.dropped as f64);
    out.insert("net.ledger.bytes", gossip.ledger_bytes as f64);
}

/// The narrow-window case: the security simulator's lookahead is
/// 0.1 ms, so windows are nearly empty and a parallel window mostly
/// pays for its barrier. Wall time with the pool over wall time without.
fn narrow_windows(seed: u64, tr: &mut Tracer, gate: &mut Gate, out: &mut Layers) {
    let mut run = |parallel: bool, span: &'static str| {
        let mut cfg = sim::config(seed, false, 20);
        cfg.n = 300;
        cfg.shards = 2;
        cfg.parallel = parallel;
        cfg.pool_threads = 2;
        let mut s = SecuritySim::new(cfg);
        let (report, secs) = tr.timed(span, || s.run());
        (crate::gate::report_digest(&report), secs)
    };
    let (seq_digest, seq) = run(false, "net.pool.sequential_windows");
    let (par_digest, par) = run(true, "net.pool.parallel_windows");
    gate.same_digest(seq_digest, par_digest, "sequential vs parallel windows");
    out.insert("net.pool.narrow_window_slowdown", par / seq);
}

// ---------------------------------------------------------------------
// net: the frame codec
// ---------------------------------------------------------------------

/// A signed routing table of the size a 1000-node ring's nodes hold.
fn signed_table(rng: &mut StdRng, kp: &KeyPair, cert: Certificate) -> SignedRoutingTable {
    let chord = ChordConfig::default();
    let ids = |n: usize, rng: &mut StdRng| (0..n).map(|_| NodeId(rng.gen())).collect::<Vec<_>>();
    let table = RoutingTable {
        owner: cert.node_id,
        fingers: ids(chord.fingers as usize, rng),
        successors: ids(chord.successors, rng),
        predecessors: ids(chord.predecessors, rng),
    };
    SignedRoutingTable::sign(table, 0, kp, cert)
}

fn wire(seed: u64, tr: &mut Tracer, gate: &mut Gate, out: &mut Layers) {
    let rng = &mut derive_rng(seed, b"octobench-wire", 0);
    let mut ca = CertificateAuthority::new(rng);
    let kp = KeyPair::generate(rng);
    let owner = NodeId(rng.gen());
    let cert = ca.issue(owner, 7, kp.public(), u64::MAX);
    let table = signed_table(rng, &kp, cert);
    let hop = |rng: &mut StdRng, delay| Hop {
        node: NodeId(rng.gen()),
        delay,
    };
    let messages: [(&str, Msg); 6] = [
        ("get_table", Msg::GetTable { req: rng.gen() }),
        (
            "table",
            Msg::Table {
                req: rng.gen(),
                table: Box::new(table.clone()),
            },
        ),
        (
            "onion4",
            Msg::Onion(OnionPacket {
                flow: rng.gen(),
                route: vec![
                    hop(rng, false),
                    hop(rng, true),
                    hop(rng, false),
                    hop(rng, false),
                ],
                action: ExitAction::QueryTable {
                    target: NodeId(rng.gen()),
                },
            }),
        ),
        (
            "onion_reply",
            Msg::OnionReply {
                flow: rng.gen(),
                payload: Box::new(Msg::Table {
                    req: rng.gen(),
                    table: Box::new(table.clone()),
                }),
            },
        ),
        (
            "report",
            Msg::Report(Box::new(Report::ListOmission {
                reporter: owner,
                reporter_cert: cert,
                omitted: NodeId(rng.gen()),
                accused_list: Box::new(table),
            })),
        ),
        (
            "revocation",
            Msg::Revocation {
                revoked: (0..16).map(|_| NodeId(rng.gen())).collect(),
            },
        ),
    ];
    // metric names are `&'static str`s of the spec table; find each by
    // its kind suffix
    let name = |prefix: &str, kind: &str| {
        let full = format!("{prefix}.{kind}");
        crate::spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| *n == full)
            .unwrap_or_else(|| panic!("{full} is not a per-layer metric"))
    };
    let header = FrameHeader {
        from: owner,
        to: NodeId(rng.gen()),
    };
    for (kind, msg) in &messages {
        let frame = encode_frame(header, msg);
        let back = decode_frame::<Msg>(&frame);
        gate.check(
            back.as_ref().is_ok_and(|(h, m)| *h == header && m == msg),
            || format!("wire: {kind} does not survive encode_frame/decode_frame"),
        );
        out.insert(
            name("net.wire.encode_ns", kind),
            ns_per_op(tr, "net.wire.encode_frame", || {
                black_box(encode_frame(header, black_box(msg)));
            }),
        );
        out.insert(
            name("net.wire.decode_ns", kind),
            ns_per_op(tr, "net.wire.decode_frame", || {
                black_box(decode_frame::<Msg>(black_box(&frame)).is_ok());
            }),
        );
        out.insert(name("net.wire.frame_bytes", kind), frame.len() as f64);
    }
    // a frame whose last payload byte was flipped in flight
    let mut bad = encode_frame(header, &messages[1].1);
    *bad.last_mut().expect("a frame is never empty") ^= 0x01;
    gate.check(decode_frame::<Msg>(&bad).is_err(), || {
        "wire: a frame with a flipped byte was accepted".to_owned()
    });
    out.insert(
        "net.wire.reject_ns",
        ns_per_op(tr, "net.wire.decode_frame", || {
            black_box(decode_frame::<Msg>(black_box(&bad)).is_err());
        }),
    );
}

// ---------------------------------------------------------------------
// crypto, chord, id: the work inside one protocol event
// ---------------------------------------------------------------------

fn crypto(seed: u64, tr: &mut Tracer, gate: &mut Gate, out: &mut Layers) {
    let rng = &mut derive_rng(seed, b"octobench-crypto", 0);
    let data: Vec<u8> = (0..1024).map(|_| rng.gen()).collect();
    out.insert(
        "crypto.sha256.ns_per_kib",
        ns_per_op(tr, "crypto.sha256", || {
            black_box(sha256(black_box(&data)));
        }),
    );
    let mut keygen_rng = derive_rng(seed, b"octobench-keygen", 0);
    out.insert(
        "crypto.rsa.keygen_us",
        ns_per_op(tr, "crypto.rsa.generate", || {
            black_box(KeyPair::generate(&mut keygen_rng));
        }) / 1e3,
    );
    let kp = KeyPair::generate(rng);
    let message = &data[..64];
    let sig = kp.sign(message);
    gate.check(kp.public().verify(message, sig).is_ok(), || {
        "crypto: a fresh signature does not verify".to_owned()
    });
    out.insert(
        "crypto.rsa.sign_ns",
        ns_per_op(tr, "crypto.rsa.sign", || {
            black_box(kp.sign(black_box(message)));
        }),
    );
    out.insert(
        "crypto.rsa.verify_ns",
        ns_per_op(tr, "crypto.rsa.verify", || {
            black_box(kp.public().verify(black_box(message), sig).is_ok());
        }),
    );
    let mut ca = CertificateAuthority::new(rng);
    let ca_key = ca.public_key();
    let id = NodeId(rng.gen());
    let cert = ca.issue(id, 7, kp.public(), u64::MAX);
    gate.check(cert.verify(ca_key, 0).is_ok(), || {
        "crypto: a fresh certificate does not verify".to_owned()
    });
    out.insert(
        "crypto.cert.issue_ns",
        ns_per_op(tr, "crypto.cert.issue", || {
            black_box(ca.issue(black_box(id), 7, kp.public(), u64::MAX));
        }),
    );
    out.insert(
        "crypto.cert.verify_ns",
        ns_per_op(tr, "crypto.cert.verify", || {
            black_box(black_box(&cert).verify(ca_key, 0).is_ok());
        }),
    );

    let keys: Vec<[u8; 32]> = (0..4).map(|_| rng.gen()).collect();
    let hops = [2u64, 3, 4, 0];
    let payload = &data[..64];
    for (layers, name) in [
        (1, "crypto.onion.wrap_ns.l1"),
        (2, "crypto.onion.wrap_ns.l2"),
        (3, "crypto.onion.wrap_ns.l3"),
        (4, "crypto.onion.wrap_ns.l4"),
    ] {
        out.insert(
            name,
            ns_per_op(tr, "crypto.onion.wrap", || {
                black_box(onion::wrap(
                    black_box(payload),
                    &keys[..layers],
                    &hops[4 - layers..],
                    7,
                ));
            }),
        );
    }
    let wrapped = onion::wrap(payload, &keys, &hops, 7);
    gate.check(onion::unwrap(&wrapped, &keys[0]).is_ok(), || {
        "crypto: the outer onion layer does not unwrap".to_owned()
    });
    out.insert(
        "crypto.onion.unwrap_ns",
        ns_per_op(tr, "crypto.onion.unwrap", || {
            black_box(onion::unwrap(black_box(&wrapped), &keys[0]).is_ok());
        }),
    );

    let table = signed_table(rng, &kp, cert);
    gate.check(table.verify(ca_key, 0).is_ok(), || {
        "chord: a freshly signed table does not verify".to_owned()
    });
    out.insert(
        "chord.signed.sign_ns",
        ns_per_op(tr, "chord.signed.sign", || {
            black_box(SignedRoutingTable::sign(
                black_box(table.table.clone()),
                0,
                &kp,
                cert,
            ));
        }),
    );
    out.insert(
        "chord.signed.verify_ns",
        ns_per_op(tr, "chord.signed.verify", || {
            black_box(black_box(&table).verify(ca_key, 0).is_ok());
        }),
    );
}

fn chord(seed: u64, tr: &mut Tracer, _gate: &mut Gate, out: &mut Layers) {
    let rng = &mut derive_rng(seed, b"octobench-ring", 0);
    let space = IdSpace::random(10_000, rng);
    let view = GroundTruthView::new(&space, ChordConfig::for_network(10_000));
    let start = space.ids()[0];
    out.insert(
        "chord.lookup.iterative_ns",
        ns_per_op(tr, "chord.lookup.iterative_lookup", || {
            black_box(iterative_lookup(&view, start, black_box(Key(rng.gen()))));
        }),
    );
    let table = view.table_of(start);
    out.insert(
        "chord.table.next_hop_ns",
        ns_per_op(tr, "chord.table.next_hop", || {
            black_box(table.next_hop(black_box(Key(rng.gen()))));
        }),
    );
}

fn id_space(seed: u64, tr: &mut Tracer, _gate: &mut Gate, out: &mut Layers) {
    let rng = &mut derive_rng(seed, b"octobench-id", 0);
    let members = IdSpace::random(1000, rng);
    let mut sharded = ShardedIdSpace::new(members.ids());
    out.insert(
        "id.sharded.owner_of_ns",
        ns_per_op(tr, "id.sharded.owner_of", || {
            black_box(sharded.owner_of(black_box(Key(rng.gen()))));
        }),
    );
    out.insert(
        "id.sharded.random_member_ns",
        ns_per_op(tr, "id.sharded.random_member", || {
            black_box(sharded.random_member(rng));
        }),
    );
    let mut next = 0usize;
    out.insert(
        "id.sharded.churn_ns",
        ns_per_op(tr, "id.sharded.remove_insert", || {
            let id = members.ids()[next % 1000];
            next += 1;
            black_box(sharded.remove(id));
            black_box(sharded.insert(id));
        }),
    );
}

// ---------------------------------------------------------------------
// core: trial fan-out
// ---------------------------------------------------------------------

/// Four trials on one thread over four trials on two: 1.0 would be a
/// perfect halving.
fn fanout(seed: u64, tr: &mut Tracer, gate: &mut Gate, out: &mut Layers) {
    let mut base = sim::config(seed, false, 40);
    base.n = 300;
    let configs = trial_configs(&base, 4);
    let (one, t1) = tr.timed("core.trial.run_1_thread", || {
        TrialRunner::new(1).run(&configs)
    });
    let (two, t2) = tr.timed("core.trial.run_2_threads", || {
        TrialRunner::new(2).run(&configs)
    });
    gate.check(one == two, || {
        "trial: reports differ between 1 and 2 threads".to_owned()
    });
    out.insert("core.trial.fanout_efficiency", t1 / (2.0 * t2));
}

// ---------------------------------------------------------------------
// transport: the UDP host
// ---------------------------------------------------------------------

/// Eight bytes there and back.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Ping(u64);

impl WireMsg for Ping {
    fn wire_bytes(&self) -> u32 {
        8
    }
}

impl WireCodec for Ping {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_be_bytes());
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        Ok(Ping(r.u64()?))
    }
}

/// The pinger sends a ping when it starts and another whenever the
/// previous one comes back, emitting each round trip in nanoseconds;
/// the other node returns whatever it receives. (A timer would not do:
/// the host's 2 ms socket timeout rounds up to the kernel's tick.)
struct Echo {
    peer: Option<Addr>,
    sent_at: Instant,
}

impl Echo {
    fn ping(&mut self, ctx: &mut dyn Runtime<Ping, (), u64>, peer: Addr) {
        self.sent_at = Instant::now();
        ctx.send(peer, Ping(0));
    }
}

impl NodeBehavior for Echo {
    type Msg = Ping;
    type Timer = ();
    type Control = u64;

    fn on_start(&mut self, ctx: &mut dyn Runtime<Ping, (), u64>) {
        if let Some(peer) = self.peer {
            self.ping(ctx, peer);
        }
    }

    fn on_timer(&mut self, _ctx: &mut dyn Runtime<Ping, (), u64>, (): ()) {}

    fn on_message(&mut self, ctx: &mut dyn Runtime<Ping, (), u64>, from: Addr, msg: Ping) {
        match self.peer {
            None => ctx.send(from, msg),
            Some(peer) => {
                ctx.emit(self.sent_at.elapsed().as_nanos() as u64);
                self.ping(ctx, peer);
            }
        }
    }
}

/// Two hosts on two threads; one pings, the other echoes.
fn rtt(seed: u64, tr: &mut Tracer, gate: &mut Gate, out: &mut Layers) {
    let (a, b) = (NodeId(1), NodeId(2));
    let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind a loopback socket");
    let (sock_a, sock_b) = (bind(), bind());
    let mut peers = PeerTable::new();
    peers.insert(a, sock_a.local_addr().expect("bound"));
    peers.insert(b, sock_b.local_addr().expect("bound"));
    let host = |peer, id, sock| {
        let node = Echo {
            peer,
            sent_at: Instant::now(),
        };
        UdpHost::new(node, id, sock, peers.clone(), seed).expect("set the read timeout")
    };
    let (mut pinger, mut echoer) = (host(Some(b), a, sock_a), host(None, b, sock_b));
    let budget = Duration::from_millis(300);
    let (rtts, _) = tr.timed("transport.host.echo", || {
        std::thread::scope(|s| {
            // the echoer outlives the pinger so that no ping goes unanswered
            let echo = s.spawn(move || echoer.drive(Duration(budget.0 + 50_000)));
            let rtts = pinger.drive(budget);
            echo.join().expect("the echo thread panicked");
            rtts
        })
    });
    gate.check(rtts.len() >= 100, || {
        format!(
            "rtt: the ping-pong chain broke after {} round trips",
            rtts.len()
        )
    });
    let ns: Vec<f64> = rtts.iter().map(|&n| n as f64).collect();
    out.insert(
        "transport.host.rtt_us_p50",
        if ns.is_empty() {
            0.0
        } else {
            median(&ns) / 1e3
        },
    );
}

// ---------------------------------------------------------------------

/// What keeping the traced workload's spans cost: spans kept, the
/// measured cost of keeping one, and their product as a share of the
/// workload's wall time.
fn tracing(workload_spans: usize, workload_s: f64, out: &mut Layers) {
    let mut scratch = Tracer::new(true);
    let mut off = Tracer::new(false);
    const N: usize = 100_000;
    let time = |t: &mut Tracer| {
        let t0 = Instant::now();
        for _ in 0..N {
            black_box(t.timed("probe", || ()));
        }
        t0.elapsed().as_secs_f64()
    };
    let cost_ns = ((time(&mut scratch) - time(&mut off)) * 1e9 / N as f64).max(0.0);
    out.insert("trace.spans", workload_spans as f64);
    out.insert("trace.span_cost_ns", cost_ns);
    out.insert(
        "trace.overhead_share",
        workload_spans as f64 * cost_ns * 1e-9 / workload_s,
    );
}

/// A probe: measures its metrics into the map.
type Probe = fn(u64, &mut Tracer, &mut Gate, &mut Layers);

/// Every probe with the workload whose layers it times.
const PROBES: &[(&str, Probe)] = &[
    ("engine-gossip-10k", queue),
    ("engine-gossip-10k", world),
    ("sim-bias-1k", narrow_windows),
    ("sim-bias-1k", crypto),
    ("sim-bias-1k", chord),
    ("sim-bias-1k", fanout),
    ("sim-churn-1k", id_space),
    ("udp-ring-16", wire),
    ("udp-ring-16", rtt),
];

/// Run the probes of workload `only`, or all of them, and measure what
/// tracing cost; `workload_s` is the wall time of the traced workload
/// whose spans `tr` already holds.
pub fn run(
    only: Option<&str>,
    seed: u64,
    tr: &mut Tracer,
    gate: &mut Gate,
    workload_s: f64,
) -> Layers {
    let mut out = Layers::new();
    tracing(tr.span_count(), workload_s, &mut out);
    let suite = tr.enter("octobench.probes");
    for (_, probe) in PROBES
        .iter()
        .filter(|(owner, _)| only.is_none_or(|w| w == *owner))
    {
        probe(seed, tr, gate, &mut out);
    }
    tr.exit(suite);
    out
}
