//! Cryptographic substrate for Octopus, built from scratch.
//!
//! The paper (§4, footnote 4) assumes three primitives:
//!
//! 1. **Signatures with certificates** — every routing table
//!    (fingertable plus successor list) is signed and timestamped by its
//!    owner so that
//!    manipulated tables become non-repudiation proofs the CA can verify
//!    (§4.3–4.5). The paper uses ECDSA + X.509; we implement RSA with a
//!    64-bit modulus ([`rsa`]): *real* sign/verify semantics (hash,
//!    modular exponentiation, key pairs) that are functionally faithful
//!    but deliberately toy-sized. ARCHITECTURE.md ("Crypto cost model")
//!    records this substitution; the bandwidth model uses the paper's
//!    byte counts, not ours.
//! 2. **Onion encryption** — queries are relayed over anonymous paths
//!    with layered encryption (§4.1). The paper uses AES-128; we build a
//!    CTR-mode stream cipher over our SHA-256 ([`stream`]) and layered
//!    wrapping ([`onion`]).
//! 3. **A hash** under the signatures, HMAC and the onion cipher's
//!    keystream ([`sha256`](mod@sha256)).
//!
//! The crate is dependency-free (beyond `rand` for keygen) and
//! test-vectored where vectors exist (SHA-256, HMAC). It is
//! `#![deny(unsafe_code)]` rather than `forbid`, which every other crate
//! is, for one call: `sha256::sha_ni::compress` runs the SHA-NI kernel
//! after detecting the CPU features it needs. That function is the only
//! `#[allow(unsafe_code)]` in the workspace.
//!
//! **Do not use this crate for real-world security** — the RSA modulus is
//! 64 bits and the cipher is home-grown. It exists so the reproduced
//! protocols exercise true sign/verify/encrypt code paths.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod hmac;
pub mod memo;
pub mod onion;
pub mod rsa;
pub mod sha256;
pub mod stream;

pub use cert::{Certificate, CertificateAuthority, CertificateError, Verifier};
pub use hmac::hmac_sha256;
pub use memo::VerifiedMemo;
pub use onion::{OnionError, OnionLayer};
pub use rsa::{KeyPair, PublicKey, Signature, SignatureError};
pub use sha256::{sha256, Digest, Sha256};
pub use stream::StreamCipher;
