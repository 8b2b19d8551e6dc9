//! Simulated wide-area network for the Octopus evaluation.
//!
//! The paper measures latency on PlanetLab and models the WAN in its
//! security simulator with the King dataset (measured DNS-to-DNS RTTs,
//! mean ≈ 182 ms, highly heterogeneous; §5.1 footnote 2). We have no
//! King file, so [`latency::KingLikeLatency`] synthesizes an equivalent:
//! nodes are embedded in a 2-D geography, pairwise one-way latency is the
//! embedded distance scaled by a per-node-pair lognormal factor, and the
//! whole distribution is calibrated so the mean RTT is ≈ 182 ms. Packet
//! jitter follows the rule the paper takes from \[2\]: min(10 ms, 10 % of
//! the transmission latency).
//!
//! On top of the latency model, [`world::World`] provides a deterministic
//! message-passing substrate over `octopus-sim` event queues: nodes
//! implement [`world::NodeBehavior`] and exchange typed messages;
//! delivery samples the latency model; every message is byte-accounted
//! using the paper's wire-size model (footnote 4), in its sender's and
//! receiver's slab slots, and reported as a [`wire::BandwidthLedger`].
//!
//! For large rings the world is *sharded* ([`shard`]): contiguous ID
//! ranges ([`shard::ShardMap`]) each keep a node slab ([`slab`]), a
//! timer lane and a delivery lane, and nothing else; pooled buffers and
//! counters exist once per world. [`world::World::run_window`] runs the
//! shards' batches one after another on the calling thread, in
//! conservative windows bounded by [`LatencyModel::min_latency`], so a
//! cross-shard send goes straight onto its destination's delivery lane,
//! due no earlier than the window's end. Every event's `(time, key)`
//! ordering key derives from its origin node — no shard-dependent
//! counters — so every shard count, and 1 shard in particular (the
//! reference the others are compared to), produces byte-identical
//! results. Only at very large N (a million nodes) do several shards
//! beat one on time (smaller slabs and lanes stay warmer), at a price
//! in memory.

#![forbid(unsafe_code)]
// engine output goes through reports and traces, never the terminal
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod latency;
pub mod runtime;
pub mod shard;
pub mod slab;
pub mod wire;
pub mod world;

pub use latency::{ConstantLatency, KingLikeLatency, LatencyModel};
pub use octopus_sim::SchedulerKind;
pub use runtime::{Addr, Ctx, NodeBehavior, Runtime, Transport};
pub use shard::ShardMap;
pub use slab::NodeSlab;
pub use wire::{
    append_frame, decode_datagram, decode_frame, encode_frame, sizes, BandwidthLedger, DecodeError,
    FrameError, FrameHeader, PayloadReader, WireCodec, WireMsg,
};
pub use world::World;
