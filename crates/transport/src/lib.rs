//! Real-network transport for Octopus nodes.
//!
//! The protocol in `octopus-core` is written against the
//! [`octopus_net::Runtime`] boundary, so the identical node code that
//! runs in the deterministic simulator also runs here, over real UDP
//! sockets:
//!
//! * [`peer::PeerTable`] maps overlay ids to socket addresses
//!   (`id@host:port` entries);
//! * [`host::UdpHost`] is the poll-loop host: a non-blocking
//!   `std::net::UdpSocket` that blocks only for an idle wait, an
//!   ordered map of its pending timers and delayed sends, and the
//!   shared buffer-backed [`octopus_net::Ctx`] — no async runtime;
//! * frames on the wire are the versioned, checksummed format of
//!   `octopus_net::wire`, packed one or more to a datagram
//!   (`append_frame`/`decode_datagram`); a datagram with any malformed
//!   frame is counted and dropped whole, never panicked on.
//!
//! This crate is the sanctioned home for wall-clock time and socket
//! I/O (clippy.toml's `std::time::Instant::now` entry names it):
//! determinism here means *seeded protocol randomness* — every node's
//! RNG stream still derives from the configured master seed — while
//! message arrival order is whatever the real network delivers.
//!
//! No `unsafe`, by the compiler's word: the receive buffer, one per
//! thread and shared by every host that thread polls, is zeroed once
//! per thread, when it first polls, not skipped with `MaybeUninit`.

#![forbid(unsafe_code)]

pub mod config;
pub mod host;
pub mod peer;

pub use config::NodeConfig;
pub use host::{HostStats, UdpHost};
pub use peer::PeerTable;
