//! Real-network transport for Octopus nodes.
//!
//! The protocol in `octopus-core` is written against the
//! [`octopus_net::Runtime`] boundary, so the identical node code that
//! runs in the deterministic simulator also runs here, over real UDP
//! sockets:
//!
//! * [`peer::PeerTable`] maps overlay ids to socket addresses
//!   (`id@host:port` entries);
//! * [`host::UdpHost`] is the poll-loop host: a `std::net::UdpSocket`
//!   with a read timeout, a timer wheel reused from `octopus-sim`, and
//!   the shared buffer-backed [`octopus_net::Ctx`] — no async runtime;
//! * frames on the wire are the versioned, checksummed format of
//!   `octopus_net::wire` (`encode_frame`/`decode_frame`); malformed
//!   datagrams are counted and dropped, never panicked on;
//! * [`config::NodeConfig`] boots one node from a minimal TOML file
//!   plus `OCTOPUS_*` env / `--flag` overrides (the shared
//!   `octopus_bench::RunArgs` parser).
//!
//! This crate is the sanctioned home for wall-clock time and socket
//! I/O (see OCT-LINT-002/003 scoping in `crates/lint`): determinism
//! here means *seeded protocol randomness* — every node's RNG stream
//! still derives from the configured master seed — while message
//! arrival order is whatever the real network delivers.
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
