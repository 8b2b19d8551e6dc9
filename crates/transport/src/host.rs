//! The UDP poll-loop host: one node behind a real socket.
//!
//! No async runtime: a blocking `std::net::UdpSocket` with a short read
//! timeout, and the same timer-wheel [`EventQueue`] the simulator uses,
//! here keyed by wall-clock microseconds since host start. Each loop
//! iteration drains due timers and delayed sends, then waits on the
//! socket for up to the read timeout. Handler effects are collected
//! through the shared buffer-backed [`Ctx`] — protocol code cannot tell
//! this host from the simulator.
//!
//! Inbound datagrams pass through [`octopus_net::decode_frame`]; every
//! malformation (short frame, bad magic, version skew, checksum
//! mismatch, payload garbage) is counted in [`HostStats`] and dropped.
//! A hostile datagram can never panic the host.
//!
//! # Datagram path
//!
//! A frame in or out touches only its own bytes. The host owns two
//! byte buffers for its whole life. *In:* `recv_from` writes a datagram
//! into the receive buffer (`MAX_PAYLOAD + 64` bytes, allocated and
//! zeroed once, at the first poll — a poll that finds the socket empty
//! touches none of it), `decode_frame` reads exactly the bytes that
//! arrived and builds the message in storage of its own, and the buffer
//! is free again before the handler runs. *Out:*
//! [`octopus_net::encode_frame_into`] writes header and payload once
//! into the send buffer, which keeps its capacity from frame to frame,
//! and `send_to` hands that slice to the kernel. In the steady state
//! neither direction allocates for the frame, and the handler's outbox
//! is a pooled `Vec` taken out of the host for the call and put back.
//!
//! # Answered timers
//!
//! Almost every request timeout and receipt deadline a node arms comes
//! due after its answer has arrived, and then does nothing. The node
//! says so through [`Runtime::cancel_timer`]; the host remembers the
//! queue key each armed timer was pushed under and withdraws the
//! cancelled ones ([`EventQueue::cancel`]), so the wheel holds the
//! node's unanswered requests rather than every request of the last
//! timeout's span.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::Instant;

use octopus_net::{
    decode_frame, encode_frame_into, wire::MAX_PAYLOAD, Addr, Ctx, FrameHeader, NodeBehavior,
    Runtime, Transport, WireCodec,
};
use octopus_sim::{derive_rng, split_seed, Duration, EventQueue, SchedulerKind, SimTime};
use rand::rngs::StdRng;

use crate::peer::PeerTable;

/// How long one socket wait may block before the loop re-checks timers.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(2);

/// Size of the receive buffer: longer than the largest frame, and than
/// any datagram UDP carries (65 507 bytes over IPv4), so the buffer
/// never cuts a datagram short.
const RECV_BUF: usize = MAX_PAYLOAD + 64;

// This host *is* the sanctioned wall-clock boundary: real sockets run
// on real time (the octolint OCT-LINT-002 transport exemption; clippy's
// disallowed-methods layer needs the same sanction spelled out).
#[allow(clippy::disallowed_methods)]
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
    /// Datagrams rejected by the frame codec (or misaddressed).
    pub frames_rejected: u64,
    /// Outbound messages dropped because the peer table has no address
    /// for the destination.
    pub dropped_unknown_peer: u64,
    /// Outbound messages whose payload exceeded [`MAX_PAYLOAD`] or whose
    /// socket send failed.
    pub send_failures: u64,
}

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
    queue: EventQueue<Pending<B::Msg, B::Timer>>,
    rng: StdRng,
    epoch: Instant,
    started: bool,
    /// Where `recv_from` puts a datagram; [`RECV_BUF`] bytes from the
    /// first poll on, empty before it (a host that never polls, never
    /// pays for it).
    recv_buf: Vec<u8>,
    /// Where `transmit` builds a frame; grows to the largest frame sent.
    send_buf: Vec<u8>,
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
    armed: HashMap<B::Timer, u128>,
    /// Datagram counters.
    pub stats: HostStats,
}

impl<B: NodeBehavior> UdpHost<B>
where
    B::Msg: WireCodec,
    B::Timer: Clone + Eq + Hash,
{
    /// Host `node` at overlay address `addr` on `socket`. The node's
    /// RNG stream derives from `master_seed` and its overlay id — two
    /// boots with the same seed draw identical protocol randomness, on
    /// any machine (OCT-LINT-003's seeded-randomness contract; only
    /// *time* is wall-clock here).
    ///
    /// # Errors
    /// Propagates failure to set the socket read timeout.
    pub fn new(
        node: B,
        addr: Addr,
        socket: UdpSocket,
        peers: PeerTable,
        master_seed: u64,
    ) -> std::io::Result<Self> {
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(UdpHost {
            node,
            addr,
            socket,
            peers,
            queue: EventQueue::with_scheduler(SchedulerKind::TimingWheel),
            rng: derive_rng(split_seed(master_seed, addr.0), b"udp-node", 0),
            epoch: wall_now(),
            started: false,
            recv_buf: Vec::new(),
            send_buf: Vec::new(),
            outbox: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            controls: Vec::new(),
            collected: Vec::new(),
            armed: HashMap::new(),
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

    /// Timers and queued sends still to come (cancelled timers not
    /// counted).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
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
        // timers go through the wheel keyed by wall-clock microseconds
        for (to, msg, extra) in outbox.drain(..) {
            if extra == Duration::ZERO && to != self.addr {
                self.transmit(to, &msg);
            } else {
                // loopback delivery also queues: a self-send must not
                // re-enter the handler that produced it
                self.queue.push(now + extra, Pending::Send(to, msg));
            }
        }
        self.outbox = outbox;
        // cancels before arms: a handler that cancels a timer and arms
        // the same one again keeps the new one
        for timer in self.cancels.drain(..) {
            if let Some(key) = self.armed.remove(&timer) {
                self.queue.cancel(key);
            }
        }
        for (delay, timer) in self.timers.drain(..) {
            let key = self.queue.push(now + delay, Pending::Timer(timer.clone()));
            self.armed.insert(timer, key);
        }
        self.collected.append(&mut self.controls);
    }

    /// Encode one frame into the send buffer and send it.
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
        if encode_frame_into(header, msg, &mut self.send_buf).is_err() {
            self.stats.send_failures += 1;
            return;
        }
        match self.socket.send_to(&self.send_buf, dest) {
            Ok(_) => self.stats.frames_out += 1,
            Err(_) => self.stats.send_failures += 1,
        }
    }

    /// Deliver the node's `on_start` (arms its periodic timers).
    pub fn start(&mut self) {
        if !self.started {
            self.started = true;
            self.dispatch(|n, ctx| n.on_start(ctx));
        }
    }

    /// Fire every timer and queued send that is due at `now`, and what
    /// comes due while those run.
    fn drain_due(&mut self, mut now: SimTime) {
        loop {
            let bound = SimTime(now.0.saturating_add(1));
            let Some((_, key)) = self.queue.peek_key() else {
                return;
            };
            let Some((_, pending)) = self.queue.pop_before(bound) else {
                return;
            };
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

    /// Block on the socket for up to the read timeout; decode and
    /// deliver at most one frame. Returns whether a datagram arrived.
    fn recv_one(&mut self) -> bool {
        if self.recv_buf.is_empty() {
            self.recv_buf = vec![0; RECV_BUF];
        }
        match self.socket.recv_from(&mut self.recv_buf) {
            Ok((len, _src)) => {
                // only the `len` bytes this datagram wrote are read:
                // what an earlier, longer one left behind never shows
                match decode_frame::<B::Msg>(&self.recv_buf[..len]) {
                    Ok((header, msg)) if header.to == self.addr => {
                        self.stats.frames_in += 1;
                        let from = header.from;
                        self.dispatch(|n, ctx| n.on_message(ctx, from, msg));
                    }
                    // well-formed but misaddressed (stale peer table on
                    // the sender) — reject, don't deliver
                    Ok(_) | Err(_) => self.stats.frames_rejected += 1,
                }
                true
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => false,
            // transient socket errors (e.g. ECONNREFUSED surfaced on a
            // connected peer's ICMP) must not kill the loop
            Err(_) => false,
        }
    }
}

impl<B: NodeBehavior> Transport<B> for UdpHost<B>
where
    B::Msg: WireCodec,
    B::Timer: Clone + Eq + Hash,
{
    fn inject(&mut self, from: Addr, to: Addr, msg: B::Msg) {
        if to == self.addr {
            self.dispatch(|n, ctx| n.on_message(ctx, from, msg));
        } else {
            self.transmit(to, &msg);
        }
    }

    /// Poll sockets and timers for `budget` of *wall-clock* time (the
    /// simulator's implementation of the same trait advances virtual
    /// time instead).
    fn drive(&mut self, budget: Duration) -> Vec<B::Control> {
        self.start();
        let mut t = wall_now();
        let deadline = t + std::time::Duration::from_micros(budget.0);
        loop {
            self.drain_due(self.clock_at(t));
            if t >= deadline {
                break;
            }
            self.recv_one();
            t = wall_now();
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

    #[test]
    fn two_hosts_exchange_frames() {
        let mut a = echo_host(1);
        let mut b = echo_host(2);
        let addr_a = a.socket.local_addr().expect("addr");
        let addr_b = b.socket.local_addr().expect("addr");
        a.peers.insert(NodeId(2), addr_b);
        b.peers.insert(NodeId(1), addr_a);

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

    /// Two `Sink` hosts, the first knowing where the second listens.
    fn sink_pair() -> (UdpHost<Sink>, UdpHost<Sink>) {
        let host = |id, peers| {
            let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
            UdpHost::new(Sink(Vec::new()), NodeId(id), socket, peers, 7).expect("host")
        };
        let b = host(2, PeerTable::new());
        let mut peers = PeerTable::new();
        peers.insert(NodeId(2), b.socket.local_addr().expect("addr"));
        (host(1, peers), b)
    }

    #[test]
    fn short_frame_after_a_long_one_shows_no_stale_tail() {
        // the longest frame one loopback UDP datagram carries
        const LONGEST: usize = 65_507 - octopus_net::wire::FRAME_OVERHEAD;
        let (mut a, mut b) = sink_pair();
        let long = Bytes((0..LONGEST).map(|i| (i % 251) as u8).collect());
        a.inject(NodeId(1), NodeId(2), long.clone());
        // the long frame's header alone: its length and checksum fit the
        // bytes that frame leaves in the receive buffer, so a host that
        // read past the datagram's end would take it for a frame
        let header = FrameHeader {
            from: NodeId(1),
            to: NodeId(2),
        };
        let frame = octopus_net::encode_frame(header, &long);
        let spray = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let dest = b.socket.local_addr().expect("addr");
        spray
            .send_to(&frame[..octopus_net::wire::FRAME_OVERHEAD], dest)
            .expect("send");
        a.inject(NodeId(1), NodeId(2), Bytes(vec![0x5a]));
        assert_eq!(a.stats.frames_out, 2);
        assert_eq!(a.stats.send_failures, 0);

        b.drive(Duration::from_millis(30));
        assert_eq!(b.node().0, vec![long, Bytes(vec![0x5a])]);
        assert_eq!(b.stats.frames_in, 2);
        assert_eq!(b.stats.frames_rejected, 1);
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
        // a microsecond's budget: each drive delivers at most one frame
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

    #[test]
    fn rng_stream_is_seed_deterministic() {
        let mut a = derive_rng(split_seed(42, 7), b"udp-node", 0);
        let mut b = derive_rng(split_seed(42, 7), b"udp-node", 0);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }
}
