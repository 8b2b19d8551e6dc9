//! Deterministic RNG streams.
//!
//! Every stochastic component of a simulation (latency sampling, churn,
//! adversary choices, per-node protocol randomness) draws from its own
//! stream derived from one master seed. Components then stay reproducible
//! *independently*: adding draws in one component cannot shift another
//! component's sequence — essential when comparing attack configurations.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derive a child seed from a master seed and a component label.
///
/// Uses the SplitMix64 finalizer, which is well distributed even for
/// adjacent labels.
#[must_use]
pub fn split_seed(master: u64, label: u64) -> u64 {
    let mut z = master ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 64-bit FNV-1a label of a component name — the value
/// [`derive_rng`] mixes into the master seed. `const`, so a caller with
/// a fixed component name pays nothing for it at run time.
#[must_use]
pub const fn component_label(component: &[u8]) -> u64 {
    let mut label = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    let mut i = 0;
    while i < component.len() {
        label ^= component[i] as u64;
        label = label.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    label
}

/// Stream `index` of the family whose base is `split_seed(master,
/// component_label(name))` — the tail of [`derive_rng`]. A caller that
/// draws many streams of one family mixes the base once and calls this
/// per stream.
#[must_use]
pub fn stream_rng(base: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(split_seed(base, index))
}

/// A named RNG stream: `derive_rng(master, b"latency", 0)`.
#[must_use]
pub fn derive_rng(master: u64, component: &[u8], index: u64) -> StdRng {
    stream_rng(split_seed(master, component_label(component)), index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic() {
        let mut a = derive_rng(42, b"latency", 0);
        let mut b = derive_rng(42, b"latency", 0);
        let xs: Vec<u64> = (0..10).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn const_label_is_the_fnv1a_loop() {
        const TRANSPORT: u64 = component_label(b"transport");
        let fnv = |name: &[u8]| {
            name.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        assert_eq!(TRANSPORT, fnv(b"transport"));
        for name in [&b""[..], b"node", b"inject", b"latency", b"\xff\x00\x80"] {
            assert_eq!(component_label(name), fnv(name));
        }
        // and derive_rng is exactly label -> base -> stream
        let mut a = derive_rng(42, b"transport", 7);
        let mut b = stream_rng(split_seed(42, TRANSPORT), 7);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn component_streams_independent() {
        let mut a = derive_rng(42, b"latency", 0);
        let mut b = derive_rng(42, b"churn", 0);
        let xs: Vec<u64> = (0..10).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn index_separates_streams() {
        let mut a = derive_rng(42, b"node", 1);
        let mut b = derive_rng(42, b"node", 2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn master_seed_changes_everything() {
        let mut a = derive_rng(1, b"x", 0);
        let mut b = derive_rng(2, b"x", 0);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn split_seed_avalanche() {
        // adjacent labels should differ in roughly half the bits
        let a = split_seed(42, 1);
        let b = split_seed(42, 2);
        let differing = (a ^ b).count_ones();
        assert!(differing >= 16, "weak diffusion: {differing} bits");
    }
}
