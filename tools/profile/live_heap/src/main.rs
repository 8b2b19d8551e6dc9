//! Live-heap curve of one `SecuritySim` job at the §5.1 point, of the
//! bare engine under octobench's gossip overlay, or of `UdpHost`s
//! served by one thread.
//!
//! ```text
//! live-heap [N] [SECONDS] [SEED] [EVERY]      defaults: 1000 80 31 10
//! live-heap engine [N] [SECONDS] [SEED]       defaults: 10000 15 31
//! live-heap udp [N] [SECONDS] [SEED]          defaults: 16 5 31
//! ```
//!
//! A counting global allocator keeps the bytes the program holds, their
//! peak, and how many blocks were allocated and reallocated. The job is
//! built, then advanced `EVERY` simulated seconds at a time (one second
//! in `engine` mode); after the set-up and after each step one line is
//! printed: `t_s live_mib peak_mib allocations reallocations`. What the
//! allocator holds back (free lists, fragmentation) is not counted, so
//! the peak here is below the process's peak RSS.
//!
//! `engine` runs `engine-gossip-10k`'s overlay on one `World` shard: N
//! nodes at seeded ring positions, each firing a ≈ 300 ms timer until
//! `SECONDS` and sending one 72-byte message per tick, alternately to
//! its ring neighbour and to the node across the ring, over a constant
//! 40 ms latency (`crates/bench/tests/million_node.rs` has the same
//! node). No protocol and no crypto run, so what it holds is the
//! scheduler's, the slab's and the messages' own.
//!
//! `udp` binds N loopback sockets and serves N `UdpHost`s from this
//! thread, as octobench's `udp-ring-16` serves its ring: each host in
//! turn gets a one-microsecond `drive` on a socket made non-blocking,
//! and the thread sleeps a millisecond when a whole round moved no
//! frame. Each host runs a ping node that sends its ring successor a
//! ping every 10 ms and answers the pings it gets, for `SECONDS` of
//! wall time (one line per wall second). The census shows one
//! 65 600-byte block whatever N is: the receive buffer the thread's
//! hosts share.
//!
//! After the last line comes a census of what is live at that moment:
//! the ten block sizes holding the most bytes, as `size blocks mib`. A
//! size that holds much memory names its type more often than not (a
//! `BTreeMap` leaf, a `Vec` of wheel entries at some capacity).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use octopus_core::{SecuritySim, SimConfig};
use octopus_id::IdSpace;
use octopus_net::{
    Addr, ConstantLatency, DecodeError, NodeBehavior, PayloadReader, Runtime, SchedulerKind,
    Transport, WireCodec, WireMsg, World,
};
use octopus_sim::{derive_rng, Duration, SimTime};
use octopus_transport::{HostStats, PeerTable, UdpHost};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static REALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// Live blocks per block size, in an open-addressed table the allocator
/// fills without allocating: a slot holds a size (0 while free; no block
/// has size 0) and its live block count. A size that finds every slot
/// taken goes uncounted, which `census_report` says.
const CENSUS_BITS: u32 = 14;
const CENSUS_SLOTS: usize = 1 << CENSUS_BITS;
static CENSUS_SIZE: [AtomicUsize; CENSUS_SLOTS] = [const { AtomicUsize::new(0) }; CENSUS_SLOTS];
static CENSUS_LIVE: [AtomicIsize; CENSUS_SLOTS] = [const { AtomicIsize::new(0) }; CENSUS_SLOTS];
static CENSUS_MISSED: AtomicUsize = AtomicUsize::new(0);

fn census(size: usize, blocks: isize) {
    let mut i = ((size as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CENSUS_BITS)) as usize;
    for _ in 0..CENSUS_SLOTS {
        match CENSUS_SIZE[i].compare_exchange(0, size, Relaxed, Relaxed) {
            Ok(_) => {}
            Err(held) if held == size => {}
            Err(_) => {
                i = (i + 1) % CENSUS_SLOTS;
                continue;
            }
        }
        CENSUS_LIVE[i].fetch_add(blocks, Relaxed);
        return;
    }
    CENSUS_MISSED.fetch_add(1, Relaxed);
}

fn census_report(top: usize) {
    let mut sizes: Vec<(usize, isize)> = (0..CENSUS_SLOTS)
        .map(|i| (CENSUS_SIZE[i].load(Relaxed), CENSUS_LIVE[i].load(Relaxed)))
        .filter(|&(size, blocks)| size > 0 && blocks > 0)
        .collect();
    sizes.sort_by_key(|&(size, blocks)| std::cmp::Reverse(size as u128 * blocks as u128));
    println!("# census: the {top} block sizes holding the most live bytes");
    println!("# size blocks mib");
    for (size, blocks) in sizes.into_iter().take(top) {
        let mib = (size as u128 * blocks as u128) as f64 / (1 << 20) as f64;
        println!("{size} {blocks} {mib:.2}");
    }
    let missed = CENSUS_MISSED.load(Relaxed);
    if missed > 0 {
        println!("# census: {missed} size changes found the table full and were not counted");
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are only read, never used to decide anything about memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        census(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        census(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        census(layout.size(), -1);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCATIONS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        census(layout.size(), -1);
        grew(new_size);
        census(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn line(t_s: u64) {
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    println!(
        "{t_s} {:.1} {:.1} {} {}",
        mib(LIVE.load(Relaxed)),
        mib(PEAK.load(Relaxed)),
        ALLOCATIONS.load(Relaxed),
        REALLOCATIONS.load(Relaxed)
    );
}

/// The gossip overlay's ~72-byte message.
struct Gossip(#[expect(dead_code, reason = "only its size matters")] [u64; 9]);

impl WireMsg for Gossip {
    fn wire_bytes(&self) -> u32 {
        72
    }
}

/// A node that ticks every ~300 ms until `horizon` and gossips on
/// every tick, alternately to `near` and to `far`.
struct GossipNode {
    near: Addr,
    far: Addr,
    tick: u64,
    horizon: SimTime,
}

impl NodeBehavior for GossipNode {
    type Msg = Gossip;
    type Timer = ();
    type Control = ();

    fn on_start(&mut self, ctx: &mut dyn Runtime<Gossip, (), ()>) {
        // stagger the first tick so load spreads over the horizon
        ctx.set_timer(Duration(ctx.addr().0 % 300_000), ());
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
        if ctx.now() + Duration::from_millis(300) <= self.horizon {
            ctx.set_timer(Duration::from_millis(300), ());
        }
    }
}

/// `live-heap engine`: build the gossip overlay, run it a simulated
/// second at a time to `seconds`, take the census, then run it to idle.
fn engine(n: u64, seconds: u64, seed: u64) {
    let ids = IdSpace::random(n as usize, &mut derive_rng(seed, b"octobench-engine", 0))
        .ids()
        .to_vec();
    let horizon = SimTime::from_secs(seconds);
    let mut w: World<GossipNode, _> = World::with_shards(
        ConstantLatency(Duration::from_millis(40)),
        seed,
        SchedulerKind::default(),
        1,
    );
    for (i, &id) in ids.iter().enumerate() {
        let node = GossipNode {
            near: ids[(i + 1) % ids.len()],
            far: ids[(i + ids.len() / 2) % ids.len()],
            tick: id.0 % 2,
            horizon,
        };
        w.insert_node(id, node);
    }
    println!("# engine n={n} seconds={seconds} seed={seed}");
    println!("# t_s live_mib peak_mib allocations reallocations");
    line(0);
    for t in 1..=seconds {
        while w.run_window(SimTime::from_secs(t)).is_some() {}
        line(t);
    }
    census_report(10);
    while w.run_window(SimTime(u64::MAX)).is_some() {}
    println!("# ledger_bytes={}", w.ledger().total_bytes());
}

/// A ping (even) or its answer (the ping plus one).
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

/// Pings `next` every 10 ms and answers every ping it is sent.
struct PingNode {
    next: Addr,
    sent: u64,
}

impl NodeBehavior for PingNode {
    type Msg = Ping;
    type Timer = ();
    type Control = ();

    fn on_start(&mut self, ctx: &mut dyn Runtime<Ping, (), ()>) {
        ctx.set_timer(Duration::from_millis(10), ());
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Ping, (), ()>, from: Addr, msg: Ping) {
        if msg.0.is_multiple_of(2) {
            ctx.send(from, Ping(msg.0 + 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping, (), ()>, (): ()) {
        self.sent += 1;
        ctx.send(self.next, Ping(2 * self.sent));
        ctx.set_timer(Duration::from_millis(10), ());
    }
}

/// `live-heap udp`: N ping hosts over loopback, served by this thread
/// for `seconds` of wall time, then the census.
fn udp(n: u64, seconds: u64, seed: u64) {
    let ids = IdSpace::random(n as usize, &mut derive_rng(seed, b"live-heap-udp", 0))
        .ids()
        .to_vec();
    let sockets: Vec<std::net::UdpSocket> = ids
        .iter()
        .map(|_| std::net::UdpSocket::bind("127.0.0.1:0").expect("bind a loopback socket"))
        .collect();
    let mut peers = PeerTable::new();
    for (&id, socket) in ids.iter().zip(&sockets) {
        peers.insert(
            id,
            socket.local_addr().expect("bound socket has an address"),
        );
    }
    let mut hosts: Vec<UdpHost<PingNode>> = ids
        .iter()
        .zip(sockets)
        .enumerate()
        .map(|(i, (&id, socket))| {
            // `UdpHost` blocks in `recv_from`; a second handle on the
            // same open socket switches that off for both
            let handle = socket.try_clone().expect("duplicate a socket");
            let node = PingNode {
                next: ids[(i + 1) % ids.len()],
                sent: 0,
            };
            let host =
                UdpHost::new(node, id, socket, peers.clone(), seed).expect("set the read timeout");
            handle
                .set_nonblocking(true)
                .expect("make a socket non-blocking");
            host
        })
        .collect();
    let frames_in =
        |hosts: &[UdpHost<PingNode>]| hosts.iter().map(|h| h.stats.frames_in).sum::<u64>();
    println!("# udp n={n} seconds={seconds} seed={seed}");
    println!("# t_s live_mib peak_mib allocations reallocations");
    line(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time is what this mode runs on"
    )]
    let start = std::time::Instant::now();
    for t in 1..=seconds {
        while start.elapsed() < std::time::Duration::from_secs(t) {
            let before = frames_in(&hosts);
            for host in &mut hosts {
                host.drive(Duration(1));
            }
            if frames_in(&hosts) == before {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        line(t);
    }
    census_report(10);
    let sum = |count: fn(&HostStats) -> u64| hosts.iter().map(|h| count(&h.stats)).sum::<u64>();
    println!(
        "# frames_in={} frames_out={} frames_rejected={}",
        sum(|s| s.frames_in),
        sum(|s| s.frames_out),
        sum(|s| s.frames_rejected)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args
        .first()
        .map(String::as_str)
        .filter(|a| ["engine", "udp"].contains(a));
    let numbers = &args[usize::from(mode.is_some())..];
    let arg = |i: usize, default: u64| {
        numbers
            .get(i)
            .map_or(default, |a| a.parse().expect("arguments are whole numbers"))
    };
    match mode {
        Some("engine") => return engine(arg(0, 10_000), arg(1, 15), arg(2, 31)),
        Some("udp") => return udp(arg(0, 16), arg(1, 5), arg(2, 31)),
        _ => {}
    }
    let (n, seconds, seed, every) = (arg(0, 1000), arg(1, 80), arg(2, 31), arg(3, 10).max(1));
    let mut sim = SecuritySim::new(SimConfig {
        n: n as usize,
        seed,
        duration: Duration::from_secs(seconds),
        ..SimConfig::default()
    });
    println!("# n={n} seconds={seconds} seed={seed}");
    println!("# t_s live_mib peak_mib allocations reallocations");
    line(0);
    let mut acc = sim.begin();
    let mut t = 0;
    while t < seconds {
        t = (t + every).min(seconds);
        sim.advance_until(&mut acc, SimTime::from_secs(t));
        line(t);
    }
    census_report(10);
    let report = sim.finish(acc);
    println!("# completed_lookups={}", report.completed_lookups);
}
