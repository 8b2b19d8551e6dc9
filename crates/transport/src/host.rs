//! The UDP poll-loop host: one node behind a real socket.
//!
//! No async runtime: a `std::net::UdpSocket` in non-blocking mode, and
//! an ordered map of pending timers and delayed sends keyed by
//! wall-clock microseconds since host start. Each step of
//! [`Transport::drive`] fires the due timers and delayed sends, reads
//! and delivers every datagram already waiting, and flushes once. Only
//! an idle host waits: it switches the socket to blocking for one read
//! of up to a short timeout, and only when the drive's budget has that
//! much left. Handler effects are collected through the shared
//! buffer-backed [`Ctx`] — protocol code cannot tell this host from the
//! simulator.
//!
//! A datagram carries one or more frames, all from one sender to one
//! destination. Inbound datagrams pass through
//! [`octopus_net::decode_datagram`]; every malformation of any frame
//! (short frame, bad magic, version skew, checksum mismatch, payload
//! garbage, frames naming different peers) drops the whole datagram
//! and counts it once in [`HostStats`]. A hostile datagram can never
//! panic the host.
//!
//! # Datagram path
//!
//! A frame in or out touches only its own bytes. *In:* `recv_from`
//! writes a datagram into the thread's receive buffer (`MAX_PAYLOAD +
//! 64` bytes, allocated and zeroed once per thread, at that thread's
//! first poll — a poll that finds the socket empty touches none of it,
//! and every host the thread serves reads into the same bytes),
//! `decode_datagram` reads exactly the bytes that arrived and builds
//! each frame's message in storage of its own, in a pooled `Vec` of the
//! host's, and the buffer is free again before the first handler runs.
//! A datagram is delivered only if it came from where the peer table
//! places its sender: the socket source must equal the table's address
//! for `header.from`, so a sender that forges another node's id, or
//! names one the table does not list, is counted as rejected and
//! dropped. Its frames then reach the node in datagram order.
//!
//! *Out:* [`octopus_net::append_frame`] writes header and payload once
//! into the host's pending buffer, behind the frames sent before it.
//! The host flushes once per step of `drive`, after the step's due
//! timers and its backlog (the datagrams already waiting, up to
//! `BACKLOG`) have run, and before `start` and `inject` return: it
//! copies each destination's frames, in send order, into the send
//! buffer, up to [`MAX_DATAGRAM`] bytes, and hands that to `send_to`:
//! one datagram per peer and step. Two waiting datagrams that each make
//! a frame for one peer so cost that peer one datagram, not two. A
//! frame waits at most for the rest of its step: the handlers of the
//! datagrams that were already waiting when the step read them, never
//! more than `BACKLOG`, and never across an idle wait. Both buffers
//! keep their capacity; in the steady state neither direction allocates
//! for a frame, and the handler's outbox is a pooled `Vec` taken out of
//! the host for the call and put back.
//!
//! # Pending effects and answered timers
//!
//! Timers and queued sends wait in one `BTreeMap` keyed `(due, queued)`,
//! where `queued` counts every entry the host ever queued: entries due
//! at the same microsecond run in the order they were queued, and the
//! earliest is the map's first.
//!
//! Almost every request timeout and receipt deadline a node arms comes
//! due after its answer has arrived, and then does nothing. The node
//! says so through [`Runtime::cancel_timer`]; the host remembers the key
//! each armed timer was queued under and removes the cancelled ones from
//! the map at once, so the map holds the node's unanswered requests
//! rather than every request of the last timeout's span. Cancelling is
//! this host's business alone: the simulator never withdraws a timer,
//! and its event queue has no way to.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::time::Instant;

use octopus_net::wire::{MAX_DATAGRAM, MAX_PAYLOAD};
use octopus_net::{
    append_frame, decode_datagram, Addr, Ctx, FrameHeader, NodeBehavior, Runtime, Transport,
    WireCodec,
};
use octopus_sim::{derive_rng, split_seed, Duration, SimTime};
use rand::rngs::StdRng;

use crate::peer::PeerTable;

/// How long an idle host's socket wait may block before the loop
/// re-checks timers; `drive` waits only with this much budget left.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(2);

/// Most datagrams one step of `drive` reads before it flushes: the
/// longest a frame can wait, counted in other datagrams' handlers.
const BACKLOG: usize = 64;

/// Size of the receive buffer: longer than the largest frame, and than
/// any datagram UDP carries (65 507 bytes over IPv4), so the buffer
/// never cuts a datagram short. There is one per thread, not one per
/// host: a thread serving N hosts holds these bytes once, not N times.
const RECV_BUF: usize = MAX_PAYLOAD + 64;

thread_local! {
    /// Where `recv_from` puts a datagram, for every host this thread
    /// polls; [`RECV_BUF`] bytes from the thread's first poll on, empty
    /// before it (a thread that never polls, never pays for it).
    static RECV: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

// This host *is* the sanctioned wall-clock boundary: real sockets run
// on real time (clippy.toml's `std::time::Instant::now` entry names
// crates/transport as a sanctioned timing site).
#[expect(clippy::disallowed_methods, reason = "real sockets run on real time")]
fn wall_now() -> Instant {
    Instant::now()
}

/// Datagram counters (diagnostics and smoke-test assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Well-formed frames addressed to this node and delivered.
    pub frames_in: u64,
    /// Frames encoded and handed to the socket.
    pub frames_out: u64,
    /// Datagrams handed to the socket, each carrying one or more of the
    /// frames in `frames_out`.
    pub datagrams_out: u64,
    /// Datagrams rejected, each counted once however many frames it
    /// carried: by the frame codec (any bad frame, or frames naming
    /// different peers), because they are addressed to another node,
    /// or because their socket source is not the peer table's address
    /// for the sender they name (a forged or unknown origin).
    pub frames_rejected: u64,
    /// Outbound messages dropped because the peer table has no address
    /// for the destination.
    pub dropped_unknown_peer: u64,
    /// Outbound messages whose payload exceeded [`MAX_PAYLOAD`] or whose
    /// socket send failed.
    pub send_failures: u64,
}

/// Where a [`Pending`] effect waits: when it is due, then the host's
/// count of effects queued before it (unique, and the tie-break).
type QueueKey = (SimTime, u64);

/// A queued future effect: a timer firing, or a delayed/local send.
enum Pending<M, T> {
    /// Fire `B::Timer`.
    Timer(T),
    /// Transmit `msg` to `to` (delayed sends and loopback delivery).
    Send(Addr, M),
}

/// One Octopus node served over a real UDP socket.
pub struct UdpHost<B: NodeBehavior> {
    node: B,
    addr: Addr,
    socket: UdpSocket,
    peers: PeerTable,
    /// Timers and delayed sends still to come, earliest first.
    queue: BTreeMap<QueueKey, Pending<B::Msg, B::Timer>>,
    /// Effects queued so far: the next entry's tie-break.
    queued: u64,
    rng: StdRng,
    epoch: Instant,
    started: bool,
    /// Frames sent since the last flush, back to back.
    pending: Vec<u8>,
    /// Each pending frame's destination, its socket address and where
    /// the frame lies in `pending`, in send order.
    pending_frames: Vec<(Addr, SocketAddr, Range<usize>)>,
    /// Where a flush packs one datagram; grows to the largest sent.
    send_buf: Vec<u8>,
    /// The messages of the datagram being delivered (pooled).
    inbox: Vec<B::Msg>,
    // pooled handler buffers (same discipline as the simulator's shards:
    // taken out for the handler call, put back once flushed)
    outbox: Vec<(Addr, B::Msg, Duration)>,
    timers: Vec<(Duration, B::Timer)>,
    cancels: Vec<B::Timer>,
    controls: Vec<B::Control>,
    collected: Vec<B::Control>,
    /// The queue key of each armed timer, until it fires or is
    /// cancelled. A timer armed again while an earlier copy waits maps
    /// to the newer key; the older copy then fires as armed.
    armed: BTreeMap<B::Timer, QueueKey>,
    /// Datagram counters.
    pub stats: HostStats,
}

impl<B: NodeBehavior> UdpHost<B>
where
    B::Msg: WireCodec,
    B::Timer: Clone + Ord,
{
    /// Host `node` at overlay address `addr` on `socket`. The node's
    /// RNG stream derives from `master_seed` and its overlay id — two
    /// boots with the same seed draw identical protocol randomness, on
    /// any machine (clippy.toml bans ambient entropy; only *time* is
    /// wall-clock here).
    ///
    /// # Errors
    /// Propagates failure to set the socket read timeout or to put the
    /// socket in non-blocking mode.
    pub fn new(
        node: B,
        addr: Addr,
        socket: UdpSocket,
        peers: PeerTable,
        master_seed: u64,
    ) -> std::io::Result<Self> {
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        socket.set_nonblocking(true)?;
        Ok(UdpHost {
            node,
            addr,
            socket,
            peers,
            queue: BTreeMap::new(),
            queued: 0,
            rng: derive_rng(split_seed(master_seed, addr.0), b"udp-node", 0),
            epoch: wall_now(),
            started: false,
            pending: Vec::new(),
            pending_frames: Vec::new(),
            send_buf: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            controls: Vec::new(),
            collected: Vec::new(),
            armed: BTreeMap::new(),
            stats: HostStats::default(),
        })
    }

    /// Microseconds since host start, as the node-visible clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock_at(wall_now())
    }

    /// The node-visible clock's reading at wall-clock instant `t`.
    fn clock_at(&self, t: Instant) -> SimTime {
        let since_start = t.saturating_duration_since(self.epoch);
        SimTime(u64::try_from(since_start.as_micros()).unwrap_or(u64::MAX))
    }

    /// The hosted node's overlay address.
    #[must_use]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The hosted node (smoke-test observation).
    #[must_use]
    pub fn node(&self) -> &B {
        &self.node
    }

    /// Timers and queued sends still to come.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Queue `pending` to run at `at`, after everything queued before it
    /// for the same instant; returns its key.
    fn enqueue(&mut self, at: SimTime, pending: Pending<B::Msg, B::Timer>) -> QueueKey {
        let key = (at, self.queued);
        self.queued += 1;
        self.queue.insert(key, pending);
        key
    }

    /// Run a handler against the pooled buffers, then flush its effects.
    fn dispatch(&mut self, f: impl FnOnce(&mut B, &mut dyn Runtime<B::Msg, B::Timer, B::Control>)) {
        let now = self.now();
        // out of `self` for the call, so the flush below may transmit
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Ctx::from_parts(
            now,
            self.addr,
            &mut self.rng,
            &mut outbox,
            &mut self.timers,
            &mut self.controls,
        )
        .with_cancels(&mut self.cancels);
        f(&mut self.node, &mut ctx);
        // flush: immediate sends hit the socket now; delayed sends and
        // timers go through the queue keyed by wall-clock microseconds
        for (to, msg, extra) in outbox.drain(..) {
            if extra == Duration::ZERO && to != self.addr {
                self.transmit(to, &msg);
            } else {
                // loopback delivery also queues: a self-send must not
                // re-enter the handler that produced it
                self.enqueue(now + extra, Pending::Send(to, msg));
            }
        }
        self.outbox = outbox;
        // cancels before arms: a handler that cancels a timer and arms
        // the same one again keeps the new one
        for timer in self.cancels.drain(..) {
            if let Some(key) = self.armed.remove(&timer) {
                self.queue.remove(&key);
            }
        }
        let mut timers = std::mem::take(&mut self.timers);
        for (delay, timer) in timers.drain(..) {
            let key = self.enqueue(now + delay, Pending::Timer(timer.clone()));
            self.armed.insert(timer, key);
        }
        self.timers = timers;
        self.collected.append(&mut self.controls);
    }

    /// Encode one frame into the pending buffer; the next flush sends it.
    fn transmit(&mut self, to: Addr, msg: &B::Msg) {
        let Some(dest) = self.peers.get(to) else {
            self.stats.dropped_unknown_peer += 1;
            return;
        };
        let header = FrameHeader {
            from: self.addr,
            to,
        };
        // a live host drops a message past MAX_PAYLOAD instead of
        // panicking as `encode_frame` does (and counts it — silent loss
        // of a protocol message is a diagnosis nightmare)
        let start = self.pending.len();
        if append_frame(header, msg, &mut self.pending).is_err() {
            self.stats.send_failures += 1;
            return;
        }
        self.pending_frames
            .push((to, dest, start..self.pending.len()));
    }

    /// Send every pending frame: one datagram per destination, holding
    /// its frames in send order, split before it would pass
    /// [`MAX_DATAGRAM`] bytes.
    fn flush(&mut self) {
        let mut frames = std::mem::take(&mut self.pending_frames);
        // the start offset keeps each destination's frames in send order
        frames.sort_unstable_by_key(|(to, _, at)| (*to, at.start));
        for run in frames.chunk_by(|a, b| a.0 == b.0) {
            let dest = run[0].1;
            let mut packed = 0;
            for (_, _, at) in run {
                if packed > 0 && self.send_buf.len() + at.len() > MAX_DATAGRAM {
                    self.send_datagram(dest, packed);
                    packed = 0;
                }
                self.send_buf.extend_from_slice(&self.pending[at.clone()]);
                packed += 1;
            }
            self.send_datagram(dest, packed);
        }
        frames.clear();
        self.pending_frames = frames;
        self.pending.clear();
    }

    /// Hand the send buffer, which holds `frames` frames, to the socket
    /// as one datagram, and empty it.
    fn send_datagram(&mut self, dest: SocketAddr, frames: u64) {
        match self.socket.send_to(&self.send_buf, dest) {
            Ok(_) => {
                self.stats.frames_out += frames;
                self.stats.datagrams_out += 1;
            }
            Err(_) => self.stats.send_failures += frames,
        }
        self.send_buf.clear();
    }

    /// Deliver the node's `on_start` (arms its periodic timers).
    pub fn start(&mut self) {
        if !self.started {
            self.started = true;
            self.dispatch(|n, ctx| n.on_start(ctx));
            self.flush();
        }
    }

    /// Fire every timer and queued send that is due at `now`, and what
    /// comes due while those run.
    fn drain_due(&mut self, mut now: SimTime) {
        while let Some(first) = self.queue.first_entry() {
            if first.key().0 > now {
                return;
            }
            let (key, pending) = first.remove_entry();
            match pending {
                Pending::Timer(t) => {
                    if self.armed.get(&t) == Some(&key) {
                        self.armed.remove(&t);
                    }
                    self.dispatch(|n, ctx| n.on_timer(ctx, t));
                }
                Pending::Send(to, msg) => {
                    if to == self.addr {
                        let from = self.addr;
                        self.dispatch(|n, ctx| n.on_message(ctx, from, msg));
                    } else {
                        self.transmit(to, &msg);
                    }
                }
            }
            now = self.now();
        }
    }

    /// Read and deliver the datagrams already waiting, in arrival order,
    /// up to [`BACKLOG`] of them; returns how many were read.
    fn read_backlog(&mut self) -> usize {
        let mut read = 0;
        while read < BACKLOG && self.recv_one() {
            read += 1;
        }
        read
    }

    /// Wait up to [`READ_TIMEOUT`] for one datagram and deliver it: the
    /// socket blocks for this one read, then polls again.
    fn wait_for_one(&mut self) {
        if self.socket.set_nonblocking(false).is_ok() {
            self.recv_one();
            // should this fail, short drives block for up to the read
            // timeout again; nothing is lost
            self.socket.set_nonblocking(true).ok();
        }
    }

    /// Take one datagram off the socket, if one is there, and deliver
    /// its frames; returns whether one was read (delivered or rejected).
    fn recv_one(&mut self) -> bool {
        let mut inbox = std::mem::take(&mut self.inbox);
        let received = RECV.with_borrow_mut(|buf| {
            if buf.is_empty() {
                *buf = vec![0; RECV_BUF];
            }
            let (len, src) = self.socket.recv_from(buf)?;
            // only the `len` bytes this datagram wrote are read: what an
            // earlier, longer one left behind, for this host or another
            // on the thread, never shows. Each decoded `Msg` owns its
            // storage, so the borrow ends here, before any handler runs.
            Ok::<_, std::io::Error>((src, decode_datagram(&buf[..len], &mut inbox)))
        });
        let read = match received {
            Ok((src, Ok(header))) if header.to == self.addr && self.sent_by(header.from, src) => {
                self.stats.frames_in += inbox.len() as u64;
                for msg in inbox.drain(..) {
                    self.dispatch(|n, ctx| n.on_message(ctx, header.from, msg));
                }
                true
            }
            // malformed, well-formed but misaddressed (stale peer table
            // on the sender), or sent from where its sender does not
            // live (forged or unknown origin) — reject, don't deliver
            Ok(_) => {
                inbox.clear();
                self.stats.frames_rejected += 1;
                true
            }
            // nothing waiting, or a transient socket error (e.g.
            // ECONNREFUSED surfaced on a connected peer's ICMP), which
            // must not kill the loop
            Err(_) => false,
        };
        self.inbox = inbox;
        read
    }

    /// Whether a datagram from socket address `src` may speak for
    /// `from`: the peer table must place `from` there. A sender the
    /// table does not list fails too; the host could not answer it.
    fn sent_by(&self, from: Addr, src: SocketAddr) -> bool {
        self.peers
            .get(from)
            .is_some_and(|known| same_endpoint(known, src))
    }
}

/// Whether two socket addresses name one endpoint, an IPv4 address seen
/// through a dual-stack socket (`::ffff:a.b.c.d`) matching its plain
/// form.
fn same_endpoint(a: SocketAddr, b: SocketAddr) -> bool {
    a.ip().to_canonical() == b.ip().to_canonical() && a.port() == b.port()
}

impl<B: NodeBehavior> Transport<B> for UdpHost<B>
where
    B::Msg: WireCodec,
    B::Timer: Clone + Ord,
{
    fn inject(&mut self, from: Addr, to: Addr, msg: B::Msg) {
        if to == self.addr {
            self.dispatch(|n, ctx| n.on_message(ctx, from, msg));
        } else {
            self.transmit(to, &msg);
        }
        self.flush();
    }

    /// Poll the socket and timers for `budget` of *wall-clock* time (the
    /// simulator's implementation of the same trait advances virtual
    /// time instead). Each step fires the timers that are due, reads and
    /// delivers the datagrams already waiting (up to `BACKLOG`) and
    /// flushes once, so the last step may run past the budget by one
    /// backlog's handling. A step that read nothing waits on the socket
    /// for up to `READ_TIMEOUT` when at least that much budget is left;
    /// with less, the idle host returns early, so a short drive never
    /// blocks.
    fn drive(&mut self, budget: Duration) -> Vec<B::Control> {
        self.start();
        let deadline = wall_now() + std::time::Duration::from_micros(budget.0);
        loop {
            self.drain_due(self.now());
            let read = self.read_backlog();
            self.flush();
            let left = deadline.saturating_duration_since(wall_now());
            if read == 0 && left >= READ_TIMEOUT {
                self.wait_for_one();
            } else if read == 0 || left.is_zero() {
                break;
            }
        }
        std::mem::take(&mut self.collected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_id::NodeId;
    use octopus_net::WireMsg;
    use rand::Rng;

    /// Counts messages; replies `v+1` to even values.
    struct Echo {
        seen: Vec<(Addr, u32)>,
        timers_fired: u32,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Num(u32);

    impl WireMsg for Num {
        fn wire_bytes(&self) -> u32 {
            4
        }
    }

    impl WireCodec for Num {
        fn encode_payload(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0.to_be_bytes());
        }
        fn decode_payload(
            r: &mut octopus_net::PayloadReader<'_>,
        ) -> Result<Self, octopus_net::DecodeError> {
            Ok(Num(r.u32()?))
        }
    }

    impl NodeBehavior for Echo {
        type Msg = Num;
        type Timer = u8;
        type Control = u32;

        fn on_message(&mut self, ctx: &mut dyn Runtime<Num, u8, u32>, from: Addr, msg: Num) {
            self.seen.push((from, msg.0));
            ctx.emit(msg.0);
            if msg.0.is_multiple_of(2) {
                ctx.send(from, Num(msg.0 + 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut dyn Runtime<Num, u8, u32>, _timer: u8) {
            self.timers_fired += 1;
            let _: u64 = ctx.rng().gen();
        }

        fn on_start(&mut self, ctx: &mut dyn Runtime<Num, u8, u32>) {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
    }

    fn echo_host(id: u64) -> UdpHost<Echo> {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        UdpHost::new(
            Echo {
                seen: Vec::new(),
                timers_fired: 0,
            },
            NodeId(id),
            socket,
            PeerTable::new(),
            7,
        )
        .expect("host")
    }

    /// Host 1 and host 2 running `Echo`, each knowing where the other
    /// listens.
    fn echo_pair() -> (UdpHost<Echo>, UdpHost<Echo>) {
        let (mut a, mut b) = (echo_host(1), echo_host(2));
        a.peers
            .insert(NodeId(2), b.socket.local_addr().expect("addr"));
        b.peers
            .insert(NodeId(1), a.socket.local_addr().expect("addr"));
        (a, b)
    }

    #[test]
    fn two_hosts_exchange_frames() {
        let (mut a, mut b) = echo_pair();
        // a sends 10 to b; b replies 11
        a.inject(NodeId(1), NodeId(2), Num(10));
        let controls_b = b.drive(Duration::from_millis(30));
        assert_eq!(controls_b, vec![10]);
        let controls_a = a.drive(Duration::from_millis(30));
        assert_eq!(controls_a, vec![11]);
        assert_eq!(b.node().seen, vec![(NodeId(1), 10)]);
        assert_eq!(a.node().seen, vec![(NodeId(2), 11)]);
        assert_eq!(a.stats.frames_out, 1);
        assert_eq!(a.stats.frames_in, 1);
    }

    #[test]
    fn a_peers_frames_pack_across_a_backlog() {
        let (mut a, mut b) = echo_pair();
        // two datagrams waiting at b, each asking b to answer a
        a.inject(NodeId(1), NodeId(2), Num(10));
        a.inject(NodeId(1), NodeId(2), Num(12));
        assert_eq!(a.stats.datagrams_out, 2);
        b.drive(Duration(1));
        let out = b.stats;
        assert_eq!(out.frames_in, 2);
        assert_eq!((out.frames_out, out.datagrams_out), (2, 1));
        assert_eq!(a.drive(Duration::from_millis(10)), vec![11, 13]);

        // one more than a step reads: the next step takes the last
        let (mut a, mut b) = sink_pair();
        let sent: Vec<Bytes> = (0..=BACKLOG).map(|i| Bytes(vec![i as u8])).collect();
        for msg in &sent {
            a.inject(NodeId(1), NodeId(2), msg.clone());
        }
        b.drive(Duration(1));
        assert_eq!(b.node().0, sent[..BACKLOG]);
        b.drive(Duration(1));
        assert_eq!(b.node().0, sent);
    }

    #[test]
    fn a_short_drive_never_blocks_and_a_long_one_waits() {
        let (mut a, mut b) = sink_pair();
        let mut took: Vec<std::time::Duration> = (0..20)
            .map(|_| {
                let t = wall_now();
                b.drive(Duration(1));
                wall_now() - t
            })
            .collect();
        took.sort_unstable();
        assert!(
            took[took.len() / 2] < READ_TIMEOUT / 4,
            "an idle one-microsecond drive took {:?}",
            took[took.len() / 2]
        );
        // a datagram sent while a 30 ms drive waits is delivered by it
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                a.inject(NodeId(1), NodeId(2), Bytes(vec![7]));
            });
            b.drive(Duration::from_millis(30));
        });
        assert_eq!(b.node().0, [Bytes(vec![7])]);
    }

    #[test]
    fn garbage_datagrams_rejected_not_fatal() {
        let mut h = echo_host(1);
        let dest = h.socket.local_addr().expect("addr");
        let spray = UdpSocket::bind("127.0.0.1:0").expect("bind");
        spray.send_to(b"not a frame at all", dest).expect("send");
        spray.send_to(&[0u8; 64], dest).expect("send");
        // valid magic, hostile everything-else
        let mut junk = b"OCT0".to_vec();
        junk.extend_from_slice(&[0xff; 40]);
        spray.send_to(&junk, dest).expect("send");
        let controls = h.drive(Duration::from_millis(30));
        assert!(controls.is_empty());
        assert_eq!(h.stats.frames_rejected, 3);
        assert_eq!(h.stats.frames_in, 0);
    }

    /// A payload of raw bytes, as long as the frame says.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Bytes(Vec<u8>);

    impl WireMsg for Bytes {
        fn wire_bytes(&self) -> u32 {
            self.0.len() as u32
        }
    }

    impl WireCodec for Bytes {
        fn encode_payload(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode_payload(
            r: &mut octopus_net::PayloadReader<'_>,
        ) -> Result<Self, octopus_net::DecodeError> {
            Ok(Bytes(r.take(r.remaining())?.to_vec()))
        }
    }

    /// Keeps what it is sent.
    struct Sink(Vec<Bytes>);

    impl NodeBehavior for Sink {
        type Msg = Bytes;
        type Timer = ();
        type Control = ();

        fn on_message(&mut self, _ctx: &mut dyn Runtime<Bytes, (), ()>, _from: Addr, msg: Bytes) {
            self.0.push(msg);
        }
        fn on_timer(&mut self, _ctx: &mut dyn Runtime<Bytes, (), ()>, _timer: ()) {}
        fn on_start(&mut self, _ctx: &mut dyn Runtime<Bytes, (), ()>) {}
    }

    /// A `Sink` host with overlay id `id` on `socket`.
    fn sink_host(id: u64, socket: UdpSocket, peers: PeerTable) -> UdpHost<Sink> {
        UdpHost::new(Sink(Vec::new()), NodeId(id), socket, peers, 7).expect("host")
    }

    fn loopback_socket() -> UdpSocket {
        UdpSocket::bind("127.0.0.1:0").expect("bind")
    }

    /// Two `Sink` hosts, ids 1 and 2, each knowing where the other
    /// listens (the receiver must, to accept the sender's frames).
    fn sink_pair() -> (UdpHost<Sink>, UdpHost<Sink>) {
        let (sock_a, sock_b) = (loopback_socket(), loopback_socket());
        let mut peers = PeerTable::new();
        peers.insert(NodeId(1), sock_a.local_addr().expect("addr"));
        peers.insert(NodeId(2), sock_b.local_addr().expect("addr"));
        (
            sink_host(1, sock_a, peers.clone()),
            sink_host(2, sock_b, peers),
        )
    }

    #[test]
    fn short_frame_after_a_long_one_shows_no_stale_tail() {
        // the longest frame one loopback UDP datagram carries
        const LONGEST: usize = MAX_DATAGRAM - octopus_net::wire::FRAME_OVERHEAD;
        let long = Bytes((0..LONGEST).map(|i| (i % 251) as u8).collect());
        // the long frame's header alone: its length and checksum fit the
        // bytes that frame leaves in the receive buffer, so a host that
        // read past the datagram's end would take it for a frame
        let header_only = |to| {
            let header = FrameHeader {
                from: NodeId(1),
                to: NodeId(to),
            };
            let frame = octopus_net::encode_frame(header, &long);
            frame[..octopus_net::wire::FRAME_OVERHEAD].to_vec()
        };

        // one receiving host: the long frame, then the header alone and
        // the short frame, all to host 2
        let (mut a, mut b) = sink_pair();
        a.inject(NodeId(1), NodeId(2), long.clone());
        // sent from host 1's own socket, so its origin holds and only
        // the length can give it away
        let dest = b.socket.local_addr().expect("addr");
        a.socket.send_to(&header_only(2), dest).expect("send");
        a.inject(NodeId(1), NodeId(2), Bytes(vec![0x5a]));
        assert_eq!(a.stats.frames_out, 2);
        assert_eq!(a.stats.send_failures, 0);
        b.drive(Duration::from_millis(30));
        assert_eq!(b.node().0, vec![long.clone(), Bytes(vec![0x5a])]);
        assert_eq!(b.stats.frames_in, 2);
        assert_eq!(b.stats.frames_rejected, 1);

        // two receiving hosts on this thread, which share its receive
        // buffer: the long frame to host 2, then the header alone and
        // the short frame to host 3
        let (sock_a, sock_b, sock_c) = (loopback_socket(), loopback_socket(), loopback_socket());
        let mut peers = PeerTable::new();
        peers.insert(NodeId(1), sock_a.local_addr().expect("addr"));
        peers.insert(NodeId(2), sock_b.local_addr().expect("addr"));
        peers.insert(NodeId(3), sock_c.local_addr().expect("addr"));
        let dest = sock_c.local_addr().expect("addr");
        let mut a = sink_host(1, sock_a, peers.clone());
        let mut b = sink_host(2, sock_b, peers.clone());
        let mut c = sink_host(3, sock_c, peers);
        a.inject(NodeId(1), NodeId(2), long.clone());
        b.drive(Duration::from_millis(30));
        assert_eq!(b.node().0, vec![long.clone()]);
        a.socket.send_to(&header_only(3), dest).expect("send");
        a.inject(NodeId(1), NodeId(3), Bytes(vec![0x5a]));
        c.drive(Duration::from_millis(30));
        assert_eq!(c.node().0, vec![Bytes(vec![0x5a])]);
        assert_eq!(c.stats.frames_in, 1);
        assert_eq!(c.stats.frames_rejected, 1);
    }

    #[test]
    fn frames_from_a_forged_or_unknown_origin_are_rejected() {
        let (mut a, mut b) = sink_pair();
        let dest = b.socket.local_addr().expect("addr");
        let forger = loopback_socket();
        // well-formed frames from a third socket: one claims host 1's
        // id, which the table places elsewhere, one an id it does not list
        for from in [NodeId(1), NodeId(77)] {
            let header = FrameHeader {
                from,
                to: NodeId(2),
            };
            let frame = octopus_net::encode_frame(header, &Bytes(vec![0xee; 8]));
            forger.send_to(&frame, dest).expect("send");
        }
        a.inject(NodeId(1), NodeId(2), Bytes(vec![1, 2, 3]));
        b.drive(Duration::from_millis(30));
        assert_eq!(b.node().0, vec![Bytes(vec![1, 2, 3])]);
        assert_eq!(b.stats.frames_in, 1);
        assert_eq!(b.stats.frames_rejected, 2);
    }

    #[test]
    fn an_ipv4_origin_matches_its_dual_stack_form() {
        let v4: SocketAddr = "127.0.0.1:7001".parse().unwrap();
        let mapped: SocketAddr = "[::ffff:127.0.0.1]:7001".parse().unwrap();
        assert!(same_endpoint(v4, mapped));
        assert!(same_endpoint(mapped, v4));
        assert!(!same_endpoint(v4, "127.0.0.1:7002".parse().unwrap()));
        assert!(!same_endpoint(v4, "127.0.0.2:7001".parse().unwrap()));
        assert!(!same_endpoint(v4, "[::1]:7001".parse().unwrap()));
    }

    #[test]
    fn hosts_on_two_threads_receive_long_frames_at_once() {
        const ROUNDS: usize = 20;
        const LONG: usize = 60_000;
        // thread `k`'s round `r` payload: long, and unlike any other
        let payload = |k: usize, r: usize| {
            Bytes(
                (0..LONG - 97 * r - k)
                    .map(|i| ((i * 7 + r + 13 * k) % 251) as u8)
                    .collect(),
            )
        };
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for k in 0..2 {
                let start = &start;
                scope.spawn(move || {
                    let (mut a, mut b) = sink_pair();
                    start.wait();
                    for r in 0..ROUNDS {
                        a.inject(NodeId(1), NodeId(2), payload(k, r));
                        b.drive(Duration::from_millis(3));
                    }
                    let expected: Vec<Bytes> = (0..ROUNDS).map(|r| payload(k, r)).collect();
                    assert!(b.node().0 == expected, "thread {k}: a payload changed");
                    assert_eq!(b.stats.frames_rejected, 0);
                });
            }
        });
    }

    #[test]
    fn oversized_message_counted_and_not_sent() {
        let (mut a, b) = sink_pair();
        a.inject(NodeId(1), NodeId(2), Bytes(vec![0; MAX_PAYLOAD + 1]));
        assert_eq!(a.stats.send_failures, 1);
        assert_eq!(a.stats.frames_out, 0);
        // the host still sends afterwards, and that frame is the first
        // datagram the peer's socket holds
        a.inject(NodeId(1), NodeId(2), Bytes(vec![1, 2, 3]));
        assert_eq!(a.stats.frames_out, 1);
        let mut buf = [0u8; 64];
        let (len, _) = b.socket.recv_from(&mut buf).expect("one datagram");
        assert_eq!(len, octopus_net::wire::FRAME_OVERHEAD + 3);
        assert!(b.socket.recv_from(&mut buf).is_err(), "and no other");
    }

    #[test]
    fn timers_fire_and_unknown_peers_counted() {
        let mut h = echo_host(1);
        h.drive(Duration::from_millis(20));
        assert!(h.node().timers_fired >= 1, "on_start timer fired");
        h.inject(NodeId(1), NodeId(99), Num(4)); // nobody knows 99
        assert_eq!(h.stats.dropped_unknown_peer, 1);
    }

    #[test]
    fn loopback_send_delivers_via_queue() {
        let mut h = echo_host(5);
        h.inject(NodeId(9), NodeId(5), Num(3)); // odd: no reply
        assert_eq!(h.node().seen, vec![(NodeId(9), 3)]);
        let controls = h.drive(Duration::from_millis(10));
        assert_eq!(controls, vec![3]);
    }

    /// Asks its peer `left` questions one after another, each under a
    /// 2 s timeout that the answer makes moot, and answers what it is
    /// asked. Questions are even, the answer to `q` is `q + 1`, and the
    /// timer is the question.
    struct Rounds {
        peer: Addr,
        left: u32,
        answered: u32,
        timed_out: u32,
    }

    impl Rounds {
        fn ask(&mut self, ctx: &mut dyn Runtime<Num, u32, ()>) {
            if self.left > 0 {
                self.left -= 1;
                let question = 2 * self.left;
                ctx.send(self.peer, Num(question));
                ctx.set_timer(Duration::from_secs(2), question);
            }
        }
    }

    impl NodeBehavior for Rounds {
        type Msg = Num;
        type Timer = u32;
        type Control = ();

        fn on_start(&mut self, ctx: &mut dyn Runtime<Num, u32, ()>) {
            self.ask(ctx);
        }

        fn on_message(&mut self, ctx: &mut dyn Runtime<Num, u32, ()>, from: Addr, msg: Num) {
            if msg.0.is_multiple_of(2) {
                ctx.send(from, Num(msg.0 + 1));
            } else {
                ctx.cancel_timer(msg.0 - 1);
                self.answered += 1;
                self.ask(ctx);
            }
        }

        fn on_timer(&mut self, _ctx: &mut dyn Runtime<Num, u32, ()>, _question: u32) {
            self.timed_out += 1;
        }
    }

    /// Host 1 asks host 2 `rounds` questions over loopback; returns the
    /// most events host 1 ever held queued.
    fn most_pending_over(rounds: u32) -> usize {
        let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind");
        let (sock_a, sock_b) = (bind(), bind());
        let mut peers = PeerTable::new();
        peers.insert(NodeId(1), sock_a.local_addr().expect("addr"));
        peers.insert(NodeId(2), sock_b.local_addr().expect("addr"));
        let host = |id, peer, left, socket| {
            let node = Rounds {
                peer,
                left,
                answered: 0,
                timed_out: 0,
            };
            UdpHost::new(node, id, socket, peers.clone(), 7).expect("host")
        };
        let mut asker = host(NodeId(1), NodeId(2), rounds, sock_a);
        let mut answerer = host(NodeId(2), NodeId(1), 0, sock_b);
        let mut most = 0;
        // a microsecond's budget: each drive is one step, and each
        // host has at most one frame waiting
        for _ in 0..100 * rounds {
            if asker.node().answered == rounds {
                break;
            }
            asker.drive(Duration(1));
            answerer.drive(Duration(1));
            most = most.max(asker.pending());
        }
        assert_eq!(asker.node().answered, rounds, "rounds went unanswered");
        assert_eq!(asker.node().timed_out, 0);
        most
    }

    #[test]
    fn answered_timeouts_leave_the_queue() {
        // every round's answer comes well inside its 2 s timeout; a host
        // that kept the moot timers would hold one per round
        for rounds in [50, 500] {
            let most = most_pending_over(rounds);
            assert!(most <= 1, "{most} events queued over {rounds} rounds");
        }
    }

    /// Arms timer 1 for 20 ms and timer 2 for 60 ms at start, and
    /// cancels timer 1 on any message.
    struct TwoAlarms {
        started: SimTime,
        fired: Vec<(u32, SimTime)>,
    }

    impl NodeBehavior for TwoAlarms {
        type Msg = Num;
        type Timer = u32;
        type Control = ();

        fn on_start(&mut self, ctx: &mut dyn Runtime<Num, u32, ()>) {
            self.started = ctx.now();
            ctx.set_timer(Duration::from_millis(20), 1);
            ctx.set_timer(Duration::from_millis(60), 2);
        }

        fn on_message(&mut self, ctx: &mut dyn Runtime<Num, u32, ()>, _from: Addr, _msg: Num) {
            ctx.cancel_timer(1);
        }

        fn on_timer(&mut self, ctx: &mut dyn Runtime<Num, u32, ()>, timer: u32) {
            self.fired.push((timer, ctx.now()));
        }
    }

    fn alarm_host() -> UdpHost<TwoAlarms> {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let node = TwoAlarms {
            started: SimTime::ZERO,
            fired: Vec::new(),
        };
        UdpHost::new(node, NodeId(1), socket, PeerTable::new(), 7).expect("host")
    }

    #[test]
    fn a_cancelled_earliest_timer_does_not_pull_the_next_one_forward() {
        let mut h = alarm_host();
        h.start();
        assert_eq!(h.pending(), 2);
        h.inject(NodeId(9), NodeId(1), Num(0)); // cancels timer 1
        assert_eq!(h.pending(), 1);
        h.drive(Duration::from_millis(100));
        let started = h.node().started;
        let [(2, at)] = h.node().fired[..] else {
            panic!("fired {:?}", h.node().fired);
        };
        assert!(
            at.0 - started.0 >= 60_000,
            "timer 2 fired {} µs after it was armed for 60 ms",
            at.0 - started.0
        );
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn cancelling_a_timer_that_fired_changes_nothing() {
        let mut h = alarm_host();
        h.drive(Duration::from_millis(40)); // timer 1 fires
        assert_eq!(
            h.node().fired.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![1]
        );
        h.inject(NodeId(9), NodeId(1), Num(0)); // its cancel comes too late
        assert_eq!(h.pending(), 1);
        h.drive(Duration::from_millis(40));
        assert_eq!(
            h.node().fired.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    /// What a [`Scripted`] node saw, in order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Seen {
        Timer(u32),
        Msg(u32),
    }

    /// Logs every timer and message, and runs `script` on each message:
    /// a test injects `Num(step)` and the script arms and cancels.
    struct Scripted {
        script: fn(&mut dyn Runtime<Num, u32, ()>, u32),
        seen: Vec<Seen>,
    }

    impl NodeBehavior for Scripted {
        type Msg = Num;
        type Timer = u32;
        type Control = ();

        fn on_message(&mut self, ctx: &mut dyn Runtime<Num, u32, ()>, _from: Addr, msg: Num) {
            self.seen.push(Seen::Msg(msg.0));
            (self.script)(ctx, msg.0);
        }

        fn on_timer(&mut self, _ctx: &mut dyn Runtime<Num, u32, ()>, timer: u32) {
            self.seen.push(Seen::Timer(timer));
        }
    }

    /// Delay of every timer and delayed send the scripts below queue.
    const SOON: Duration = Duration(5_000);

    /// Host 1 running `script`, after each of `steps` was injected, and
    /// then driven until everything it queued is due. Returns what the
    /// node saw after the steps, and how much was pending before the drive.
    fn run_script(
        script: fn(&mut dyn Runtime<Num, u32, ()>, u32),
        steps: &[u32],
    ) -> (Vec<Seen>, usize) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let node = Scripted {
            script,
            seen: Vec::new(),
        };
        let mut h = UdpHost::new(node, NodeId(1), socket, PeerTable::new(), 7).expect("host");
        h.start();
        for &step in steps {
            h.inject(NodeId(9), NodeId(1), Num(step));
        }
        let pending = h.pending();
        h.drive(Duration::from_millis(40));
        assert_eq!(h.pending(), 0, "something queued never ran");
        let seen = h.node().seen[steps.len()..].to_vec();
        (seen, pending)
    }

    #[test]
    fn effects_due_at_one_instant_run_in_the_order_they_were_queued() {
        // two timers with one delay, armed in one handler: armed order
        let (seen, _) = run_script(
            |ctx, _| {
                ctx.set_timer(SOON, 1);
                ctx.set_timer(SOON, 2);
            },
            &[0],
        );
        assert_eq!(seen, [Seen::Timer(1), Seen::Timer(2)]);
        let (seen, _) = run_script(
            |ctx, _| {
                ctx.set_timer(SOON, 2);
                ctx.set_timer(SOON, 1);
            },
            &[0],
        );
        assert_eq!(seen, [Seen::Timer(2), Seen::Timer(1)]);
        // a loopback send and a timer due at one instant: a handler's
        // sends are queued before its timers, whichever it made first
        let send_first: fn(&mut dyn Runtime<Num, u32, ()>, u32) = |ctx, step| {
            if step == 0 {
                ctx.send_delayed(ctx.addr(), Num(7), SOON);
                ctx.set_timer(SOON, 1);
            }
        };
        let timer_first: fn(&mut dyn Runtime<Num, u32, ()>, u32) = |ctx, step| {
            if step == 0 {
                ctx.set_timer(SOON, 1);
                ctx.send_delayed(ctx.addr(), Num(7), SOON);
            }
        };
        for script in [send_first, timer_first] {
            let (seen, _) = run_script(script, &[0]);
            assert_eq!(seen, [Seen::Msg(7), Seen::Timer(1)]);
        }
    }

    /// Step 0 arms timer 1 soon, step 1 arms it again far out, step 2
    /// cancels it, and step 3 cancels it and arms it soon again.
    fn rearm(ctx: &mut dyn Runtime<Num, u32, ()>, step: u32) {
        match step {
            0 => ctx.set_timer(SOON, 1),
            1 => ctx.set_timer(Duration::from_secs(10), 1),
            2 => ctx.cancel_timer(1),
            3 => {
                ctx.cancel_timer(1);
                ctx.set_timer(SOON, 1);
            }
            _ => {}
        }
    }

    #[test]
    fn a_timer_armed_again_while_it_waits_fires_twice() {
        let (seen, pending) = run_script(rearm, &[0, 0]);
        assert_eq!(pending, 2);
        assert_eq!(seen, [Seen::Timer(1), Seen::Timer(1)]);
    }

    #[test]
    fn a_cancel_after_a_rearm_withdraws_only_the_newer_copy() {
        // the soon copy stays and fires; the far one is gone, or the
        // drive would end with it pending
        let (seen, pending) = run_script(rearm, &[0, 1, 2]);
        assert_eq!(pending, 1);
        assert_eq!(seen, [Seen::Timer(1)]);
    }

    #[test]
    fn cancel_then_arm_in_one_handler_keeps_the_new_timer() {
        // the far copy is withdrawn and the soon one fires
        let (seen, pending) = run_script(rearm, &[1, 3]);
        assert_eq!(pending, 1);
        assert_eq!(seen, [Seen::Timer(1)]);
    }

    /// `Scripted` hosts with ids 1 to `n`, each knowing where every
    /// other listens, all running `script`.
    fn scripted_hosts(
        n: u64,
        script: fn(&mut dyn Runtime<Num, u32, ()>, u32),
    ) -> Vec<UdpHost<Scripted>> {
        let sockets: Vec<UdpSocket> = (0..n).map(|_| loopback_socket()).collect();
        let mut peers = PeerTable::new();
        for (id, socket) in (1..).zip(&sockets) {
            peers.insert(NodeId(id), socket.local_addr().expect("addr"));
        }
        (1..)
            .zip(sockets)
            .map(|(id, socket)| {
                let node = Scripted {
                    script,
                    seen: Vec::new(),
                };
                UdpHost::new(node, NodeId(id), socket, peers.clone(), 7).expect("host")
            })
            .collect()
    }

    /// What a driven host's node was sent.
    fn received(h: &mut UdpHost<Scripted>) -> Vec<Seen> {
        h.drive(Duration::from_millis(10));
        h.node().seen.clone()
    }

    #[test]
    fn two_sends_to_one_peer_leave_as_one_datagram_in_order() {
        let mut hosts = scripted_hosts(2, |ctx, step| {
            if step == 0 {
                ctx.send(NodeId(2), Num(10));
                ctx.send(NodeId(2), Num(12));
            }
        });
        hosts[0].inject(NodeId(9), NodeId(1), Num(0));
        let out = hosts[0].stats;
        assert_eq!((out.frames_out, out.datagrams_out), (2, 1));
        assert_eq!(received(&mut hosts[1]), [Seen::Msg(10), Seen::Msg(12)]);
        assert_eq!(hosts[1].stats.frames_in, 2);
    }

    #[test]
    fn sends_to_two_peers_leave_as_two_datagrams() {
        let mut hosts = scripted_hosts(3, |ctx, step| {
            if step == 0 {
                ctx.send(NodeId(2), Num(10));
                ctx.send(NodeId(3), Num(20));
                ctx.send(NodeId(2), Num(12));
            }
        });
        hosts[0].inject(NodeId(9), NodeId(1), Num(0));
        let out = hosts[0].stats;
        assert_eq!((out.frames_out, out.datagrams_out), (3, 2));
        assert_eq!(received(&mut hosts[1]), [Seen::Msg(10), Seen::Msg(12)]);
        assert_eq!(received(&mut hosts[2]), [Seen::Msg(20)]);
    }

    #[test]
    fn a_frame_naming_another_peer_rejects_its_whole_datagram() {
        let (a, mut b) = sink_pair();
        let dest = b.socket.local_addr().expect("addr");
        let good = FrameHeader {
            from: NodeId(1),
            to: NodeId(2),
        };
        let other_sender = FrameHeader {
            from: NodeId(3),
            ..good
        };
        let other_receiver = FrameHeader {
            to: NodeId(3),
            ..good
        };
        for other in [other_sender, other_receiver] {
            let mut datagram = Vec::new();
            for (header, byte) in [(good, 1), (other, 2), (good, 3)] {
                append_frame(header, &Bytes(vec![byte]), &mut datagram).expect("fits");
            }
            // from host 1's own socket, so only the middle frame is wrong
            a.socket.send_to(&datagram, dest).expect("send");
        }
        b.drive(Duration::from_millis(10));
        assert!(b.node().0.is_empty(), "delivered {:?}", b.node().0);
        assert_eq!(b.stats.frames_in, 0);
        assert_eq!(b.stats.frames_rejected, 2, "one count per datagram");
    }

    #[test]
    fn packing_splits_before_the_datagram_limit() {
        use octopus_net::wire::FRAME_OVERHEAD;
        let (mut a, mut b) = sink_pair();
        let first = Bytes(vec![1; 32_000]);
        // with `first`, one frame fills a datagram to the byte and the
        // other is a byte too long for it
        let rest = MAX_DATAGRAM - 2 * FRAME_OVERHEAD - 32_000;
        let fits = Bytes(vec![2; rest]);
        let spills = Bytes(vec![3; rest + 1]);
        for (second, datagrams) in [(&fits, 1), (&spills, 2)] {
            let before = a.stats;
            a.transmit(NodeId(2), &first);
            a.transmit(NodeId(2), second);
            a.flush();
            assert_eq!(a.stats.frames_out - before.frames_out, 2);
            assert_eq!(a.stats.datagrams_out - before.datagrams_out, datagrams);
            b.drive(Duration::from_millis(10));
            assert_eq!(b.node().0, [first.clone(), second.clone()]);
            b.node.0.clear();
        }
        // a frame too long for any datagram goes alone, and fails alone
        let before = a.stats;
        a.transmit(NodeId(2), &Bytes(vec![4]));
        a.transmit(NodeId(2), &Bytes(vec![5; MAX_DATAGRAM]));
        a.flush();
        assert_eq!(a.stats.datagrams_out - before.datagrams_out, 1);
        assert_eq!(a.stats.send_failures - before.send_failures, 1);
        b.drive(Duration::from_millis(10));
        assert_eq!(b.node().0, [Bytes(vec![4])]);
        assert_eq!(b.stats.frames_rejected, 0);
    }

    #[test]
    fn a_reply_is_on_the_wire_before_the_next_read() {
        // host 2 blocks in `recv_from` between frames for two seconds
        // of driving; the asker, a bare socket, waits at most one, so a
        // reply held until the drive ends never arrives in time
        let asker = loopback_socket();
        let wait = std::time::Duration::from_secs(1);
        asker.set_read_timeout(Some(wait)).expect("timeout");
        let socket = loopback_socket();
        let dest = socket.local_addr().expect("addr");
        let mut peers = PeerTable::new();
        peers.insert(NodeId(1), asker.local_addr().expect("addr"));
        let echo = Echo {
            seen: Vec::new(),
            timers_fired: 0,
        };
        let mut host = UdpHost::new(echo, NodeId(2), socket, peers, 7).expect("host");
        let driving = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                host.drive(Duration::from_secs(2));
                driving.store(false, std::sync::atomic::Ordering::SeqCst);
            });
            let ask = FrameHeader {
                from: NodeId(1),
                to: NodeId(2),
            };
            let frame = octopus_net::encode_frame(ask, &Num(10));
            asker.send_to(&frame, dest).expect("send");
            let mut buf = [0u8; 64];
            let (len, _) = asker.recv_from(&mut buf).expect("a reply inside a second");
            assert!(
                driving.load(std::sync::atomic::Ordering::SeqCst),
                "the reply waited for the drive to end"
            );
            let reply = FrameHeader {
                from: NodeId(2),
                to: NodeId(1),
            };
            assert_eq!(octopus_net::decode_frame(&buf[..len]), Ok((reply, Num(11))));
        });
    }

    #[test]
    fn rng_stream_is_seed_deterministic() {
        let mut a = derive_rng(split_seed(42, 7), b"udp-node", 0);
        let mut b = derive_rng(split_seed(42, 7), b"udp-node", 0);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }
}
