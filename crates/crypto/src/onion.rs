//! Layered (onion) encryption for anonymous paths (paper §4.1, Fig. 1).
//!
//! The initiator shares a symmetric key with each relay on an anonymous
//! path. A query is wrapped once per relay, innermost layer first; each
//! relay strips one layer, learning only the next hop, so no single relay
//! sees both the initiator and the queried node. Replies are wrapped in
//! the reverse direction and unwrapped by the initiator.
//!
//! This module implements the byte-level construction used by the live
//! examples and unit tests. The discrete-event simulators carry
//! structured `OnionPacket` values instead (same information, no byte
//! churn) — see ARCHITECTURE.md, "Crypto cost model".

use std::fmt;

use crate::hmac::hmac_sha256;
use crate::stream::StreamCipher;

/// Errors from onion processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnionError {
    /// The layer is too short to contain a header.
    Truncated,
    /// The integrity tag did not match (wrong key or tampering).
    BadTag,
}

impl fmt::Display for OnionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnionError::Truncated => write!(f, "onion layer truncated"),
            OnionError::BadTag => write!(f, "onion layer failed integrity check"),
        }
    }
}

impl std::error::Error for OnionError {}

/// One decrypted onion layer: where to forward, and the remaining onion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnionLayer {
    /// Next hop address (u64 id; 0 means "payload is for you").
    pub next_hop: u64,
    /// The inner ciphertext (or plaintext payload at the last layer).
    pub inner: Vec<u8>,
}

const TAG_LEN: usize = 16;
const HOP_LEN: usize = 8;
const NONCE_LEN: usize = 8;

/// Wrap `payload` in encryption layers for `hops`, **outermost key
/// first** (the order the packet traverses relays). `next_hops[i]` is the
/// address relay `i` forwards to; the final element is 0 by convention.
///
/// Layout of one layer (before encryption):
/// `next_hop (8) ‖ inner`. On the wire a layer is
/// `nonce (8) ‖ tag (16) ‖ ciphertext`.
#[must_use]
pub fn wrap(payload: &[u8], keys: &[[u8; 32]], next_hops: &[u64], nonce_seed: u64) -> Vec<u8> {
    assert_eq!(keys.len(), next_hops.len(), "one next-hop per key");
    let mut inner = payload.to_vec();
    // innermost layer corresponds to the last relay → iterate reversed
    for (i, (key, hop)) in keys.iter().zip(next_hops.iter()).enumerate().rev() {
        let nonce = nonce_seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut plain = Vec::with_capacity(HOP_LEN + inner.len());
        plain.extend_from_slice(&hop.to_be_bytes());
        plain.extend_from_slice(&inner);
        StreamCipher::new(key, nonce).apply(&mut plain);
        let tag = hmac_sha256(key, &plain);
        let mut layer = Vec::with_capacity(NONCE_LEN + TAG_LEN + plain.len());
        layer.extend_from_slice(&nonce.to_be_bytes());
        layer.extend_from_slice(&tag.0[..TAG_LEN]);
        layer.extend_from_slice(&plain);
        inner = layer;
    }
    inner
}

/// Strip one layer with `key`, authenticating it first.
///
/// # Errors
/// [`OnionError::Truncated`] on malformed input, [`OnionError::BadTag`]
/// when the MAC fails (wrong key or tampering).
pub fn unwrap(layer: &[u8], key: &[u8; 32]) -> Result<OnionLayer, OnionError> {
    if layer.len() < NONCE_LEN + TAG_LEN + HOP_LEN {
        return Err(OnionError::Truncated);
    }
    let nonce = u64::from_be_bytes(layer[..NONCE_LEN].try_into().unwrap());
    let tag = &layer[NONCE_LEN..NONCE_LEN + TAG_LEN];
    let ct = &layer[NONCE_LEN + TAG_LEN..];
    let expect = hmac_sha256(key, ct);
    if tag != &expect.0[..TAG_LEN] {
        return Err(OnionError::BadTag);
    }
    let mut plain = ct.to_vec();
    StreamCipher::new(key, nonce).apply(&mut plain);
    let next_hop = u64::from_be_bytes(plain[..HOP_LEN].try_into().unwrap());
    Ok(OnionLayer {
        next_hop,
        inner: plain[HOP_LEN..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<[u8; 32]> {
        (0..n)
            .map(|i| {
                let mut k = [0u8; 32];
                k[0] = i as u8 + 1;
                k
            })
            .collect()
    }

    #[test]
    fn two_relay_path_roundtrip() {
        // initiator → A → B → queried node (paper Fig. 1(a))
        let ks = keys(2);
        let onion = wrap(b"get routing table", &ks, &[200, 0], 99);
        let l1 = unwrap(&onion, &ks[0]).unwrap();
        assert_eq!(l1.next_hop, 200);
        let l2 = unwrap(&l1.inner, &ks[1]).unwrap();
        assert_eq!(l2.next_hop, 0);
        assert_eq!(l2.inner, b"get routing table");
    }

    #[test]
    fn four_relay_path_roundtrip() {
        let ks = keys(4);
        let onion = wrap(b"q", &ks, &[2, 3, 4, 0], 1);
        let mut cur = onion;
        for (i, k) in ks.iter().enumerate() {
            let l = unwrap(&cur, k).unwrap();
            if i < 3 {
                assert_eq!(l.next_hop, i as u64 + 2);
            } else {
                assert_eq!(l.next_hop, 0);
                assert_eq!(l.inner, b"q");
            }
            cur = l.inner;
        }
    }

    #[test]
    fn wrong_key_detected() {
        let ks = keys(2);
        let onion = wrap(b"q", &ks, &[2, 0], 1);
        assert_eq!(unwrap(&onion, &ks[1]), Err(OnionError::BadTag));
    }

    #[test]
    fn tampering_detected() {
        let ks = keys(1);
        let mut onion = wrap(b"q", &ks, &[0], 1);
        let last = onion.len() - 1;
        onion[last] ^= 1;
        assert_eq!(unwrap(&onion, &ks[0]), Err(OnionError::BadTag));
    }

    #[test]
    fn truncated_rejected() {
        let ks = keys(1);
        assert_eq!(unwrap(&[0u8; 10], &ks[0]), Err(OnionError::Truncated));
    }

    #[test]
    fn middle_relay_cannot_read_payload() {
        let ks = keys(2);
        let onion = wrap(b"SECRETKEY", &ks, &[2, 0], 7);
        let l1 = unwrap(&onion, &ks[0]).unwrap();
        // relay 1 sees only ciphertext for relay 2
        assert!(!l1.inner.windows(9).any(|w| w == b"SECRETKEY"));
    }

    #[test]
    fn distinct_nonce_seeds_give_distinct_wires() {
        let ks = keys(2);
        let a = wrap(b"q", &ks, &[2, 0], 1);
        let b = wrap(b"q", &ks, &[2, 0], 2);
        assert_ne!(a, b);
    }
}
