//! The Octopus protocol — anonymous *and* secure DHT lookup.
//!
//! This crate implements the paper's primary contribution on top of the
//! substrates (`octopus-id`, `octopus-crypto`, `octopus-sim`,
//! `octopus-net`, `octopus-chord`):
//!
//! * **Anonymous paths** (§4.1, Fig. 1): lookup queries are relayed
//!   through pairs of anonymization relays selected by a verified
//!   two-phase random walk (Appendix I, [`walk`]), with onion layering.
//! * **Split queries and dummies** (§4.2): each query of a lookup takes
//!   its own anonymous path, and dummy queries blur the adversary's
//!   range-estimation observations ([`lookup`]).
//! * **Attacker identification** (§4.3–4.5): secret neighbor
//!   surveillance, successor-list proof queues, secret finger
//!   surveillance, and checked finger updates ([`node`], [`ca`]).
//! * **The CA** (§4.6): report investigation by proof-chain walking and
//!   certificate revocation ([`ca`]).
//! * **Selective-DoS defense** (Appendix II): receipts, witness probes
//!   and dropper identification ([`node`], [`ca`]).
//! * **The event-based security simulator** (§5): [`simnet::SecuritySim`]
//!   reproduces the paper's evaluation — malicious-fraction-over-time
//!   curves (Figs. 3, 4, 9), identification accuracy (Table 2) and CA
//!   workload (Fig. 7b) — on a sharded `octopus-net` world
//!   ([`SimConfig::shards`](simnet::SimConfig::shards)), with
//!   [`trial::TrialRunner`] fanning seeded trials across threads.
//!   Thread count and shard count never change results: fixed-seed
//!   reports are byte-identical at any setting.
//! * **The idealized join** ([`genesis`]): certificates, ground-truth
//!   ring state and finger provenance for a ring, which the simulator
//!   and the UDP deployment (`octopus-node`) both seed from.
//!
//! The adversary ([`adversary`]) is a first-class implementation:
//! colluding malicious nodes mount lookup bias, fingertable manipulation,
//! fingertable pollution and selective-DoS attacks at a configurable
//! attack rate.

#![forbid(unsafe_code)]
// engine output goes through reports and traces, never the terminal
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod adversary;
pub mod ca;
pub mod codec;
pub mod config;
pub mod genesis;
pub mod lookup;
pub mod messages;
pub mod mutation;
pub mod node;
pub mod simnet;
pub mod surveillance;
pub mod trial;
mod vec_map;
pub mod walk;

pub use adversary::{AdversaryHandle, AdversaryState, AttackKind, ShardedAdversary};
pub use ca::CaNode;
pub use config::OctopusConfig;
pub use messages::{Msg, OnionPacket, Timer};
pub use node::OctopusNode;
pub use simnet::{Actor, Control, RunAccum, SecuritySim, SimConfig, SimReport};
pub use trial::{trial_configs, TrialRunner};
