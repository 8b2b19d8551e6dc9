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
//!   by the secret-finger-surveillance checks of §4.4.
//!
//! All arithmetic is modulo 2^64 and uses wrapping operations, so the ring
//! wrap-around case is handled uniformly rather than special-cased.

#![forbid(unsafe_code)]
// engine output goes through reports and traces, never the terminal
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod ring;
pub mod sharded;
pub mod space;

pub use ring::{Key, NodeId, RingInterval, RING_BITS};
pub use sharded::ShardedIdSpace;
pub use space::{IdSpace, KeyOwnership};
