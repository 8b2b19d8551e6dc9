//! Certificates and the certificate authority (paper §3.2, §4.6).
//!
//! Octopus limits Sybil attacks with a CA that issues identity
//! certificates; the same CA processes attack reports and *revokes* the
//! certificates of identified malicious nodes, which is how attackers are
//! ejected from the network. Unlike Myrmic/Torsk, certificates bind only
//! identity (id, address, public key, expiry) — never routing state — so
//! they need no re-issue on churn.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use octopus_id::NodeId;

use crate::memo::VerifiedMemo;
use crate::rsa::{KeyPair, PublicKey, Signature, SignatureError};

/// An identity certificate (the paper's X.509-lite, footnote 4: node IP,
/// public key, expiry, CA signature — 50 bytes on the wire).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The ring position bound to this identity.
    pub node_id: NodeId,
    /// Network address (abstracted as a u32, standing in for IPv4).
    pub address: u32,
    /// The node's public verification key.
    pub public_key: PublicKey,
    /// Expiry time in seconds since the epoch of the deployment.
    pub expires_at: u64,
    /// The CA's signature over all of the above.
    pub ca_signature: Signature,
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("node_id", &self.node_id)
            .field("address", &self.address)
            .field("expires_at", &self.expires_at)
            .finish_non_exhaustive()
    }
}

impl Certificate {
    /// Canonical byte encoding signed by the CA.
    #[must_use]
    pub fn signed_bytes(
        node_id: NodeId,
        address: u32,
        key: PublicKey,
        expires_at: u64,
    ) -> [u8; 36] {
        let mut out = [0u8; 36];
        out[..8].copy_from_slice(&node_id.0.to_be_bytes());
        out[8..12].copy_from_slice(&address.to_be_bytes());
        out[12..20].copy_from_slice(&key.n.to_be_bytes());
        out[20..28].copy_from_slice(&key.e.to_be_bytes());
        out[28..].copy_from_slice(&expires_at.to_be_bytes());
        out
    }

    /// Verify this certificate against the CA's public key and the clock.
    ///
    /// # Errors
    /// [`CertificateError::BadCaSignature`] when the CA signature fails,
    /// [`CertificateError::Expired`] when past expiry.
    pub fn verify(&self, ca_key: PublicKey, now: u64) -> Result<(), CertificateError> {
        let bytes =
            Certificate::signed_bytes(self.node_id, self.address, self.public_key, self.expires_at);
        ca_key
            .verify(&bytes, self.ca_signature)
            .map_err(CertificateError::BadCaSignature)?;
        if now > self.expires_at {
            return Err(CertificateError::Expired);
        }
        Ok(())
    }
}

/// Checks certificates against one CA key, running the CA-signature
/// check once per distinct certificate.
///
/// [`Verifier::verify_certificate`] returns what [`Certificate::verify`]
/// returns for the same key and clock, always: a certificate is
/// remembered only after the stateless check accepted it, a remembered
/// one is trusted only when the presented certificate equals it in every
/// field, and expiry — the one input that changes between calls — is
/// compared on every call. Revocation is not a property of the
/// certificate bytes; callers keep checking it where they did.
///
/// The memo keeps the `Arc` it was shown, not a copy: a certificate
/// already shared by the tables that carry it costs the memo a pointer.
/// `Arc`'s equality compares the certificates themselves; two pointers
/// to one allocation are equal without the comparison, a fast path only.
#[derive(Clone, Debug)]
pub struct Verifier {
    ca_key: PublicKey,
    verified: VerifiedMemo<NodeId, Arc<Certificate>>,
    full_verifications: u64,
}

impl Verifier {
    /// A verifier for certificates issued under `ca_key`, remembering at
    /// most `capacity` of them (0: every call verifies in full).
    #[must_use]
    pub fn new(ca_key: PublicKey, capacity: usize) -> Self {
        Verifier {
            ca_key,
            verified: VerifiedMemo::new(capacity),
            full_verifications: 0,
        }
    }

    /// The CA key certificates are checked against.
    #[must_use]
    pub fn ca_key(&self) -> PublicKey {
        self.ca_key
    }

    /// [`Certificate::verify`] against this verifier's CA key, skipping
    /// the signature check for a certificate already seen to pass it:
    /// the one remembered in `cert`'s own allocation, or one equal to it
    /// in every field. A certificate that passes is remembered as a
    /// clone of `cert`.
    ///
    /// # Errors
    /// Exactly those of [`Certificate::verify`].
    pub fn verify_certificate(
        &mut self,
        cert: &Arc<Certificate>,
        now: u64,
    ) -> Result<(), CertificateError> {
        if self.verified.contains(&cert.node_id, cert) {
            // the signature is known good and outranks expiry in
            // `Certificate::verify`, so expiry is the only verdict left
            return if now > cert.expires_at {
                Err(CertificateError::Expired)
            } else {
                Ok(())
            };
        }
        self.full_verifications += 1;
        cert.verify(self.ca_key, now)?;
        self.verified.remember(cert.node_id, Arc::clone(cert));
        Ok(())
    }

    /// How many calls ran the full [`Certificate::verify`] (memo
    /// misses) — the work counter the verify-once tripwire reads.
    #[must_use]
    pub fn full_verifications(&self) -> u64 {
        self.full_verifications
    }
}

/// Errors from certificate validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertificateError {
    /// The CA signature on the certificate did not verify.
    BadCaSignature(SignatureError),
    /// The certificate is past its expiry time.
    Expired,
    /// The certificate appears on the revocation list.
    Revoked,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::BadCaSignature(e) => write!(f, "bad CA signature: {e}"),
            CertificateError::Expired => write!(f, "certificate expired"),
            CertificateError::Revoked => write!(f, "certificate revoked"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// The certificate authority.
///
/// Issues certificates and maintains the revocation list. The Octopus CA
/// is "online only for a short period with very limited workload" (§4.6);
/// the report-investigation logic lives in `octopus-core::ca` — this type
/// is the PKI substrate it drives.
pub struct CertificateAuthority {
    keypair: KeyPair,
    revoked: HashSet<NodeId>,
    issued: u64,
}

impl CertificateAuthority {
    /// Create a CA with a fresh key pair.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        CertificateAuthority {
            keypair: KeyPair::generate(rng),
            revoked: HashSet::new(),
            issued: 0,
        }
    }

    /// The CA's public verification key, known to all nodes.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public()
    }

    /// Issue a certificate binding `node_id`/`address` to `key`.
    pub fn issue(
        &mut self,
        node_id: NodeId,
        address: u32,
        key: PublicKey,
        expires_at: u64,
    ) -> Certificate {
        self.issued += 1;
        let bytes = Certificate::signed_bytes(node_id, address, key, expires_at);
        Certificate {
            node_id,
            address,
            public_key: key,
            expires_at,
            ca_signature: self.keypair.sign(&bytes),
        }
    }

    /// Revoke the certificate of `node_id` (ejecting it from the overlay).
    /// Returns false when already revoked.
    pub fn revoke(&mut self, node_id: NodeId) -> bool {
        self.revoked.insert(node_id)
    }

    /// Is `node_id` revoked?
    #[must_use]
    pub fn is_revoked(&self, node_id: NodeId) -> bool {
        self.revoked.contains(&node_id)
    }

    /// Full certificate check: CA signature, expiry, revocation.
    ///
    /// # Errors
    /// See [`CertificateError`].
    pub fn check(&self, cert: &Certificate, now: u64) -> Result<(), CertificateError> {
        if self.is_revoked(cert.node_id) {
            return Err(CertificateError::Revoked);
        }
        cert.verify(self.public_key(), now)
    }

    /// Number of certificates issued so far.
    #[must_use]
    pub fn issued_count(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CertificateAuthority, KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let ca = CertificateAuthority::new(&mut rng);
        let kp = KeyPair::generate(&mut rng);
        (ca, kp, rng)
    }

    #[test]
    fn issue_and_verify() {
        let (mut ca, kp, _) = setup();
        let cert = ca.issue(NodeId(42), 0x0a000001, kp.public(), 10_000);
        assert!(ca.check(&cert, 500).is_ok());
        assert_eq!(ca.issued_count(), 1);
    }

    #[test]
    fn expiry_enforced() {
        let (mut ca, kp, _) = setup();
        let cert = ca.issue(NodeId(42), 1, kp.public(), 100);
        assert_eq!(ca.check(&cert, 101), Err(CertificateError::Expired));
        assert!(ca.check(&cert, 100).is_ok());
    }

    #[test]
    fn tampered_cert_rejected() {
        let (mut ca, kp, _) = setup();
        let mut cert = ca.issue(NodeId(42), 1, kp.public(), 10_000);
        cert.node_id = NodeId(43);
        assert!(matches!(
            ca.check(&cert, 0),
            Err(CertificateError::BadCaSignature(_))
        ));
    }

    #[test]
    fn revocation_ejects() {
        let (mut ca, kp, _) = setup();
        let cert = ca.issue(NodeId(42), 1, kp.public(), 10_000);
        assert!(ca.revoke(NodeId(42)));
        assert!(!ca.revoke(NodeId(42)), "double revoke reports false");
        assert_eq!(ca.check(&cert, 0), Err(CertificateError::Revoked));
    }

    /// Every ordering of `0..n`, by Heap's algorithm.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(items.clone());
                return;
            }
            for i in 0..k {
                heap(k - 1, items, out);
                items.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        heap(n, &mut (0..n).collect(), &mut out);
        out
    }

    /// Certificates an adversary might present around one honest one,
    /// each with the clock it is presented at.
    fn adversarial_certs() -> (PublicKey, Vec<(&'static str, Certificate, u64)>) {
        let (mut ca, kp, mut rng) = setup();
        let foreign = {
            let mut other = CertificateAuthority::new(&mut rng);
            other.issue(NodeId(42), 7, kp.public(), 10_000)
        };
        let valid = ca.issue(NodeId(42), 7, kp.public(), 10_000);
        let reissued = ca.issue(NodeId(42), 7, kp.public(), 500);
        let other_node = ca.issue(NodeId(43), 7, kp.public(), 10_000);
        let mut flipped = valid;
        flipped.ca_signature = Signature(valid.ca_signature.0 ^ 1);
        // the honest signature over fields it does not cover
        let mut stretched = reissued;
        stretched.expires_at = 10_000;
        let mut moved = valid;
        moved.address ^= 1;
        let cases = vec![
            ("valid", valid, 100),
            ("valid at its last second", valid, 10_000),
            ("expired", valid, 10_001),
            ("re-issued with an earlier expiry, in time", reissued, 100),
            ("re-issued with an earlier expiry, too late", reissued, 501),
            (
                "expiry stretched under the re-issue's signature",
                stretched,
                100,
            ),
            ("bit-flipped signature", flipped, 100),
            ("address changed", moved, 100),
            ("foreign CA, same subject", foreign, 100),
            ("another subject, same key", other_node, 100),
        ];
        (ca.public_key(), cases)
    }

    #[test]
    fn verifier_agrees_with_stateless_verify_in_every_order() {
        let (ca_key, cases) = adversarial_certs();
        let stateless: Vec<_> = cases
            .iter()
            .map(|(_, cert, now)| cert.verify(ca_key, *now))
            .collect();
        assert!(stateless.iter().any(Result::is_ok));
        assert!(stateless.contains(&Err(CertificateError::Expired)));
        // 10! orders is too many to be useful: take every order of each
        // window of six neighbouring cases, which pairs every case with
        // every other both ways round
        let shared: Vec<Arc<Certificate>> =
            cases.iter().map(|(_, cert, _)| Arc::new(*cert)).collect();
        for start in 0..=cases.len() - 6 {
            for order in permutations(6) {
                for capacity in [0, 2, 64, 1024] {
                    let mut verifier = Verifier::new(ca_key, capacity);
                    // twice through: the second pass meets a warm memo,
                    // and everything rejected must be rejected again;
                    // the first pass shows each case in one allocation
                    // every time, the second a fresh copy
                    for (pass, &i) in order.iter().chain(&order).enumerate() {
                        let (what, cert, now) = &cases[start + i];
                        let presented = if pass < order.len() {
                            Arc::clone(&shared[start + i])
                        } else {
                            Arc::new(*cert)
                        };
                        assert_eq!(
                            verifier.verify_certificate(&presented, *now),
                            stateless[start + i],
                            "{what} (capacity {capacity}, order {order:?} from {start})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn verifier_checks_each_distinct_certificate_once() {
        let (ca_key, cases) = adversarial_certs();
        let valid = Arc::new(cases[0].1);
        let mut verifier = Verifier::new(ca_key, 8);
        for now in [0, 100, 10_000] {
            assert!(verifier.verify_certificate(&valid, now).is_ok());
        }
        assert_eq!(verifier.full_verifications(), 1);
        // expiry is still judged on a hit, and costs no verification
        assert_eq!(
            verifier.verify_certificate(&valid, 10_001),
            Err(CertificateError::Expired)
        );
        assert_eq!(verifier.full_verifications(), 1);
        // a rejected certificate is never remembered
        let flipped = Arc::new(cases[6].1);
        for _ in 0..3 {
            assert!(verifier.verify_certificate(&flipped, 100).is_err());
        }
        assert_eq!(verifier.full_verifications(), 4);
        // and a pass-through verifier remembers nothing at all
        let mut pass_through = Verifier::new(ca_key, 0);
        for _ in 0..3 {
            assert!(pass_through.verify_certificate(&valid, 100).is_ok());
        }
        assert_eq!(pass_through.full_verifications(), 3);
    }

    #[test]
    fn a_memo_hit_takes_the_shared_certificate_or_an_equal_copy_and_nothing_else() {
        let (mut ca, kp, mut rng) = setup();
        let valid = Arc::new(ca.issue(NodeId(42), 7, kp.public(), 10_000));
        let mut verifier = Verifier::new(ca.public_key(), 8);
        assert!(verifier.verify_certificate(&valid, 100).is_ok());
        assert_eq!(verifier.full_verifications(), 1);
        // the allocation the memo holds, and an equal copy in another
        for (what, presented) in [
            ("the same allocation", Arc::clone(&valid)),
            ("an equal copy", Arc::new(*valid)),
        ] {
            assert!(
                verifier.verify_certificate(&presented, 100).is_ok(),
                "{what}"
            );
            assert_eq!(verifier.full_verifications(), 1, "{what} is a hit");
        }
        // the subject's id with another key, or another CA signature:
        // the id finds the remembered certificate, which must not vouch
        let mut rekeyed = *valid;
        rekeyed.public_key = KeyPair::generate(&mut rng).public();
        let mut resigned = *valid;
        resigned.ca_signature = Signature(valid.ca_signature.0 ^ 1);
        for (what, forged) in [("another key", rekeyed), ("another CA signature", resigned)] {
            let before = verifier.full_verifications();
            assert!(
                matches!(
                    verifier.verify_certificate(&Arc::new(forged), 100),
                    Err(CertificateError::BadCaSignature(_))
                ),
                "{what} is rejected"
            );
            assert_eq!(
                verifier.full_verifications(),
                before + 1,
                "{what} is a miss"
            );
        }
        assert!(verifier.verify_certificate(&valid, 100).is_ok());
        assert_eq!(verifier.full_verifications(), 3);
    }
}
