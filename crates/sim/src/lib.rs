//! Deterministic discrete-event simulation engine.
//!
//! The paper evaluates Octopus' attacker-identification mechanisms with
//! an event-based simulator (§5.1, written in C++ there). This crate is
//! our equivalent: a time-ordered event queue ([`EventQueue`]),
//! simulation clock ([`SimTime`]), deterministic per-component RNG
//! streams ([`rng`]), and the exponential churn process of §5.1
//! ([`churn`]).
//!
//! The engine is protocol-agnostic: `octopus-net` layers a message-passing
//! world on top, and `octopus-core::simnet` layers the full Octopus
//! security simulation on that.
//!
//! The queue's storage has two implementations ([`sched`]): the
//! hierarchical timing wheel every simulation runs on, and a
//! binary-heap reference that is ≥ 2× slower on the timer-dominated
//! paper workload. Both obey the same ordering contract — which
//! `tests/scheduler_equivalence.rs` checks by popping the same pushes
//! from each ([`SchedulerKind`] names them for that purpose).
//!
//! The engine also composes to *several* queues: a sharded world keeps
//! one [`EventQueue`] per shard, assigns totally ordered `(time, seq)`
//! keys without cross-shard coordination by packing a
//! `(lane, origin, counter)` tie-break into the 128-bit `seq`
//! ([`EventQueue::push_with_seq`]), merges heads with
//! [`EventQueue::peek_key`], and bounds how far execution may run
//! between cross-shard synchronization barriers with a conservative
//! [`LookaheadWindow`] ([`window`]).
//!
//! Determinism contract: given the same master seed and the same sequence
//! of `push` calls, `pop` returns events in an identical order (ties break
//! by insertion sequence number) on every backend, so every experiment in
//! the paper harness is exactly reproducible.

#![forbid(unsafe_code)]
// engine output goes through reports and traces, never the terminal
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod churn;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod time;
pub mod window;

pub use churn::ChurnProcess;
pub use queue::EventQueue;
pub use rng::{component_label, derive_rng, split_seed, stream_rng};
pub use sched::{BinaryHeapScheduler, Scheduler, SchedulerKind, TimingWheel};
pub use time::{Duration, SimTime};
pub use window::LookaheadWindow;
