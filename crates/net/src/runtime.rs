//! The transport-agnostic node boundary.
//!
//! Protocol code in `octopus-core` never talks to a network directly:
//! a node implements [`NodeBehavior`] and receives every capability it
//! may use — send a message to an overlay address, arm a timer, emit a
//! control event, draw seeded randomness, read the clock — through the
//! [`Runtime`] trait object handed to its hooks. That surface is the
//! *entire* contract between the protocol and whatever hosts it, so
//! the identical secure-lookup / onion / CA code runs over:
//!
//! * the deterministic sharded simulator ([`crate::world::World`]),
//!   whose pooled [`Ctx`] buffers implement [`Runtime`] against
//!   virtual [`SimTime`]; and
//! * a real socket transport (`octopus-transport`), whose poll loop
//!   implements [`Runtime`] against the wall clock and serializes
//!   sends through the versioned frame codec in [`crate::wire`].
//!
//! [`Transport`] is the matching host-level surface: something that
//! owns nodes, accepts injected messages and drives execution. The
//! simulator advances virtual time when driven; a socket transport
//! blocks on real time. Neither side of the boundary can tell which
//! implementation it is talking to — that is what keeps the simulator
//! byte-identical while the same protocol binary ships over UDP.

use octopus_id::NodeId;
use octopus_sim::{Duration, SimTime};
use rand::rngs::StdRng;

use crate::wire::WireMsg;

/// Overlay address. Octopus identifies peers by ring id; transports map
/// ids to locations (the simulator directly, UDP via a peer table).
pub type Addr = NodeId;

/// The node-facing runtime surface: every capability a hosted protocol
/// node may use from inside a handler.
///
/// Implementations must uphold the determinism posture documented on
/// their host: the simulator's runtime draws time from the event queue
/// and randomness from per-node seeded streams; a real transport is
/// allowed wall-clock time but must still derive its RNG from the
/// configured master seed.
pub trait Runtime<M, T, C> {
    /// Current time (virtual in the simulator, wall-clock-derived in a
    /// real transport).
    fn now(&self) -> SimTime;

    /// The hosted node's own overlay address.
    fn addr(&self) -> Addr;

    /// Send `msg` to `to` (transmission latency is the transport's
    /// concern: sampled in the simulator, physical on a socket).
    fn send(&mut self, to: Addr, msg: M);

    /// Send with an *additional* artificial delay before transmission —
    /// used by the middle relay B, which delays forwarded messages by a
    /// random amount to defeat timing analysis (paper §4.7).
    fn send_delayed(&mut self, to: Addr, msg: M, extra: Duration);

    /// Arm a timer to fire after `delay`.
    fn set_timer(&mut self, delay: Duration, timer: T);

    /// Say that an armed `timer` has become moot: the answer it waited
    /// for arrived, and its handler would now do nothing. A host may
    /// then drop it instead of firing it; the default lets it fire, and
    /// so does the simulator (see `ARCHITECTURE.md`, "Event path"). A
    /// node must therefore behave the same whether the timer fires or
    /// not.
    fn cancel_timer(&mut self, timer: T) {
        let _ = timer;
    }

    /// Emit a control event to the hosting driver.
    fn emit(&mut self, control: C);

    /// This node's deterministic RNG stream.
    fn rng(&mut self) -> &mut StdRng;
}

/// A protocol node hosted behind the transport boundary.
pub trait NodeBehavior {
    /// Message type exchanged between nodes.
    type Msg: WireMsg;
    /// Per-node timer kinds.
    type Timer;
    /// Control events surfaced to the hosting driver.
    type Control;

    /// Handle a delivered message.
    fn on_message(
        &mut self,
        ctx: &mut dyn Runtime<Self::Msg, Self::Timer, Self::Control>,
        from: Addr,
        msg: Self::Msg,
    );

    /// Handle an expired timer.
    fn on_timer(
        &mut self,
        ctx: &mut dyn Runtime<Self::Msg, Self::Timer, Self::Control>,
        timer: Self::Timer,
    );

    /// Called once when the node is inserted into its host (schedule
    /// initial timers here).
    fn on_start(&mut self, ctx: &mut dyn Runtime<Self::Msg, Self::Timer, Self::Control>) {
        let _ = ctx;
    }
}

/// The host-level surface: something that owns [`NodeBehavior`] nodes,
/// accepts messages addressed to them, and drives their execution.
///
/// The sharded simulator implements this by advancing virtual time; the
/// UDP transport implements it by polling its socket until the
/// wall-clock budget is spent. Drivers written against `Transport` run
/// unchanged over either.
pub trait Transport<B: NodeBehavior> {
    /// Queue `msg` for delivery to a hosted node, as if sent by `from`.
    fn inject(&mut self, from: Addr, to: Addr, msg: B::Msg);

    /// Advance the transport by `budget` (virtual or wall-clock time,
    /// per the implementation), returning the control events hosted
    /// nodes emitted during the interval.
    fn drive(&mut self, budget: Duration) -> Vec<B::Control>;
}

/// Handler context: the buffer-backed [`Runtime`] implementation shared
/// by every host. The simulator's shards pool these buffers and reuse
/// them across events; the UDP host keeps one set per poll loop.
/// Handlers only ever see the buffers empty.
pub struct Ctx<'a, M, T, C> {
    now: SimTime,
    self_addr: Addr,
    rng: &'a mut StdRng,
    outbox: &'a mut Vec<(Addr, M, Duration)>,
    timers: &'a mut Vec<(Duration, T)>,
    controls: &'a mut Vec<C>,
    /// Where [`Runtime::cancel_timer`] records moot timers; `None` (the
    /// simulator's case) ignores them.
    cancels: Option<&'a mut Vec<T>>,
}

impl<'a, M, T, C> Ctx<'a, M, T, C> {
    /// Assemble a context over a host's scratch buffers. The buffers
    /// must be empty: whatever the handler pushes is the host's to
    /// flush afterwards.
    #[must_use]
    pub fn from_parts(
        now: SimTime,
        self_addr: Addr,
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<(Addr, M, Duration)>,
        timers: &'a mut Vec<(Duration, T)>,
        controls: &'a mut Vec<C>,
    ) -> Self {
        debug_assert!(outbox.is_empty() && timers.is_empty() && controls.is_empty());
        Ctx {
            now,
            self_addr,
            rng,
            outbox,
            timers,
            controls,
            cancels: None,
        }
    }

    /// Record the timers the handler cancels in `cancels` (empty), for
    /// the host to withdraw afterwards. Without this, a cancelled timer
    /// still fires.
    #[must_use]
    pub fn with_cancels(mut self, cancels: &'a mut Vec<T>) -> Self {
        debug_assert!(cancels.is_empty());
        self.cancels = Some(cancels);
        self
    }
}

// `#[inline]` puts a copy of each method in every codegen unit that
// calls it, so once a handler is inlined into dispatch and its `dyn
// Runtime` calls devirtualize, the pushes inline too, wherever the
// compiler happened to place the handler.
impl<M, T, C> Runtime<M, T, C> for Ctx<'_, M, T, C> {
    #[inline]
    fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    fn addr(&self) -> Addr {
        self.self_addr
    }

    #[inline]
    fn send(&mut self, to: Addr, msg: M) {
        self.outbox.push((to, msg, Duration::ZERO));
    }

    #[inline]
    fn send_delayed(&mut self, to: Addr, msg: M, extra: Duration) {
        self.outbox.push((to, msg, extra));
    }

    #[inline]
    fn set_timer(&mut self, delay: Duration, timer: T) {
        self.timers.push((delay, timer));
    }

    #[inline]
    fn cancel_timer(&mut self, timer: T) {
        if let Some(cancels) = self.cancels.as_deref_mut() {
            cancels.push(timer);
        }
    }

    #[inline]
    fn emit(&mut self, control: C) {
        self.controls.push(control);
    }

    #[inline]
    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    impl WireMsg for u32 {
        fn wire_bytes(&self) -> u32 {
            4
        }
    }

    #[test]
    fn ctx_buffers_collect_effects() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut outbox: Vec<(Addr, &str, Duration)> = Vec::new();
        let mut timers: Vec<(Duration, u32)> = Vec::new();
        let mut controls: Vec<&str> = Vec::new();
        let mut cx = Ctx::from_parts(
            SimTime::from_millis(5),
            NodeId(9),
            &mut rng,
            &mut outbox,
            &mut timers,
            &mut controls,
        );
        assert_eq!(cx.now(), SimTime::from_millis(5));
        assert_eq!(cx.addr(), NodeId(9));
        cx.send(NodeId(1), "hi");
        cx.send_delayed(NodeId(2), "later", Duration::from_millis(3));
        cx.set_timer(Duration::from_secs(1), 42);
        cx.cancel_timer(41); // no cancel buffer: ignored
        cx.emit("done");
        let _: u64 = cx.rng().gen();
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox[0].2, Duration::ZERO);
        assert_eq!(outbox[1].2, Duration::from_millis(3));
        assert_eq!(timers, vec![(Duration::from_secs(1), 42)]);
        assert_eq!(controls, vec!["done"]);
    }

    #[test]
    fn ctx_with_cancels_records_cancelled_timers() {
        let mut rng = StdRng::seed_from_u64(7);
        let (mut outbox, mut timers, mut controls) = (Vec::new(), Vec::new(), Vec::new());
        let mut cancels: Vec<u32> = Vec::new();
        let mut cx: Ctx<'_, &str, u32, &str> = Ctx::from_parts(
            SimTime::ZERO,
            NodeId(9),
            &mut rng,
            &mut outbox,
            &mut timers,
            &mut controls,
        )
        .with_cancels(&mut cancels);
        cx.set_timer(Duration::from_secs(1), 42);
        cx.cancel_timer(41);
        assert_eq!(timers, vec![(Duration::from_secs(1), 42)]);
        assert_eq!(cancels, vec![41]);
    }

    /// The same behavior runs against any `Runtime` implementation —
    /// the boundary the UDP transport relies on.
    #[test]
    fn behavior_is_runtime_agnostic() {
        struct Echo;
        impl NodeBehavior for Echo {
            type Msg = u32;
            type Timer = ();
            type Control = u32;
            fn on_message(&mut self, ctx: &mut dyn Runtime<u32, (), u32>, from: Addr, msg: u32) {
                ctx.send(from, msg + 1);
                ctx.emit(msg);
            }
            fn on_timer(&mut self, _ctx: &mut dyn Runtime<u32, (), u32>, _timer: ()) {}
        }

        let mut rng = StdRng::seed_from_u64(1);
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut controls = Vec::new();
        let mut cx = Ctx::from_parts(
            SimTime(0),
            NodeId(3),
            &mut rng,
            &mut outbox,
            &mut timers,
            &mut controls,
        );
        Echo.on_message(&mut cx, NodeId(8), 10);
        assert_eq!(outbox, vec![(NodeId(8), 11, Duration::ZERO)]);
        assert_eq!(controls, vec![10]);
    }
}
