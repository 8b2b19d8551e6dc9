//! Identifier arithmetic for the Octopus DHT.
//!
//! Octopus is built on a customized Chord ring (paper §4). This crate
//! provides the identifier space shared by every other crate:
//!
//! * [`NodeId`] — a position on the 64-bit Chord ring,
//! * [`Key`] — a lookup key hashed into the same space,
//! * clockwise [`distance`](NodeId::distance_to) and interval tests that
//!   implement Chord's half-open interval semantics,
//! * ideal finger targets (`n + 2^i`) used by fingertable maintenance and
//!   by the secret-finger-surveillance checks of §4.4,
//! * [`IdSpace`] — a sorted universe of ids with ownership, successor and
//!   predecessor queries: the simulators' ground truth of the ring.
//!
//! All arithmetic is modulo 2^64 and uses wrapping operations, so the ring
//! wrap-around case is handled uniformly rather than special-cased.

#![forbid(unsafe_code)]
// engine output goes through reports and traces, never the terminal
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod ring;
pub mod space;

pub use ring::{Key, NodeId, RingInterval, RING_BITS};
pub use space::{IdSpace, KeyOwnership};

/// The name octobench still builds its id spaces with. It stays only
/// until octobench moves to [`IdSpace`] (ROADMAP item 3(a)).
pub type ShardedIdSpace = IdSpace;
