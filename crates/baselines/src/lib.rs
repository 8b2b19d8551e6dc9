//! Baseline DHT lookups the paper compares against (§2, §6, §7).
//!
//! * [`chord`] — vanilla iterative Chord \[34\]: the efficiency baseline of
//!   Table 3 and the anonymity floor of Figs. 5(b)/6.
//! * [`halo`] — Halo \[17\]: redundant knuckle searches (8×4 degree-2 in
//!   §7), the state-of-the-art *secure-only* lookup of Table 3.
//!
//! NISAN and Torsk enter the paper only through their anonymity (Figs.
//! 5(b)/6), which `octopus-anonymity`'s entropy model computes; no
//! figure replays their lookups.
//!
//! Latency is estimated with the *same methodology* the paper uses for
//! its PlanetLab comparison: each scheme's message pattern is replayed
//! against the shared WAN latency model, so the comparison isolates
//! protocol structure (hop counts, redundancy, waiting-for-all) from
//! implementation details.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
pub mod halo;

pub use chord::{chord_lookup, ChordLookup};
pub use halo::{halo_lookup, HaloLookup, HALO_DEGREE, HALO_REDUNDANCY};
