//! # Octopus — a secure and anonymous DHT lookup
//!
//! A from-scratch Rust reproduction of *"Octopus: A Secure and Anonymous
//! DHT Lookup"* (Qiyan Wang, ICDCS 2012): a Chord-based lookup that
//! hides both the initiator and the target of every lookup while
//! actively *identifying and evicting* attacking nodes.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`id`] | 64-bit Chord ring arithmetic |
//! | [`crypto`] | SHA-256, HMAC, onion encryption, RSA-64 signatures, certificates |
//! | [`sim`] | deterministic discrete-event engine + exponential churn |
//! | [`net`] | King-like WAN latency, sharded message world, bandwidth accounting |
//! | [`chord`] | fingertables, successor/predecessor stabilization, greedy lookup, bound checking |
//! | [`core`] | the Octopus protocol: anonymous paths, random walks, dummies, surveillance, the CA, the security simulator |
//! | [`baselines`] | Chord and Halo lookup replays for the cost comparison |
//! | [`anonymity`] | H(I)/H(T) entropy calculators, range-estimation and timing attacks |
//! | [`metrics`] | summaries, mergeable trial results, entropy, text tables |
//! | [`spec`] | dependency-free executable reference model (`step`, `check_invariants`) for differential checking |
//! | [`transport`] | the same protocol over real UDP sockets: peer table, frame codec, poll-loop host, `octopus-node` binary |
//!
//! ## Quick start
//!
//! ```
//! use octopus::core::{AttackKind, SecuritySim, SimConfig, OctopusConfig};
//! use octopus::sim::Duration;
//!
//! // a 100-node Octopus network under lookup-bias attack for 60 s
//! let cfg = SimConfig {
//!     n: 100,
//!     duration: Duration::from_secs(60),
//!     octopus: OctopusConfig::for_network(100),
//!     attack: AttackKind::LookupBias,
//!     ..SimConfig::default()
//! };
//! let report = SecuritySim::new(cfg).run();
//! assert_eq!(report.false_positives, 0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/`
//! for the binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use octopus_anonymity as anonymity;
pub use octopus_baselines as baselines;
pub use octopus_chord as chord;
pub use octopus_core as core;
pub use octopus_crypto as crypto;
pub use octopus_id as id;
pub use octopus_metrics as metrics;
pub use octopus_net as net;
pub use octopus_sim as sim;
pub use octopus_spec as spec;
pub use octopus_transport as transport;
