//! Signed, timestamped routing state — the non-repudiation proofs at the
//! heart of attacker identification.
//!
//! §4.3: *"To provide a non-repudiation proof on a manipulated successor
//! list that is verifiable to the CA, each routing table is required to
//! be signed and attached a time stamp by its owner."* Nodes additionally
//! keep a queue of the latest signed successor lists they received during
//! stabilization, to prove their own list was computed honestly.

use std::sync::Arc;

use octopus_crypto::{
    Certificate, CertificateError, KeyPair, PublicKey, Signature, SignatureError, Verifier,
};
use octopus_id::NodeId;

use crate::table::RoutingTable;

/// A routing table signed and timestamped by its owner, with the owner's
/// certificate attached (as in the random walk of Appendix I: "each
/// replied fingertable is signed by its owner with the owner's
/// certificate attached").
///
/// The certificate is shared, not copied: every table an owner signs,
/// and every clone of one, points at the owner's one certificate, so a
/// signed table takes 104 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedRoutingTable {
    /// The signed content.
    pub table: RoutingTable,
    /// Owner's timestamp (simulation seconds).
    pub timestamp: u64,
    /// Owner's signature over `encode(table) ‖ timestamp`.
    pub signature: Signature,
    /// Owner's identity certificate.
    pub certificate: Arc<Certificate>,
}

/// Errors from verifying signed routing state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignedTableError {
    /// Signature did not verify against the attached certificate's key.
    BadSignature,
    /// The certificate's node id does not match the table owner — a
    /// stolen-table replay.
    OwnerMismatch,
    /// The attached certificate fails CA verification.
    BadCertificate,
}

impl std::fmt::Display for SignedTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignedTableError::BadSignature => write!(f, "routing table signature invalid"),
            SignedTableError::OwnerMismatch => write!(f, "certificate does not match table owner"),
            SignedTableError::BadCertificate => write!(f, "attached certificate invalid"),
        }
    }
}

impl std::error::Error for SignedTableError {}

fn signing_bytes(table: &RoutingTable, timestamp: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(table.encoded_len() + 8);
    table.encode_into(&mut bytes);
    bytes.extend_from_slice(&timestamp.to_be_bytes());
    bytes
}

impl SignedRoutingTable {
    /// Sign `table` at `timestamp` with the owner's key pair. Given the
    /// owner's shared certificate, the table shares it; given one by
    /// value, the table puts it in an allocation of its own.
    #[must_use]
    pub fn sign(
        table: RoutingTable,
        timestamp: u64,
        keypair: &KeyPair,
        certificate: impl Into<Arc<Certificate>>,
    ) -> Self {
        let signature = keypair.sign(&signing_bytes(&table, timestamp));
        SignedRoutingTable {
            table,
            timestamp,
            signature,
            certificate: certificate.into(),
        }
    }

    /// Verify the owner signature and owner/certificate binding, and the
    /// certificate itself against the CA key.
    ///
    /// # Errors
    /// See [`SignedTableError`].
    pub fn verify(&self, ca_key: PublicKey, now: u64) -> Result<(), SignedTableError> {
        self.verify_given(|cert| cert.verify(ca_key, now))
    }

    /// [`verify`](Self::verify) against `verifier`'s CA key, with the
    /// certificate check going through the verifier's verify-once memo.
    /// The verdict is the one `verify` gives.
    ///
    /// # Errors
    /// See [`SignedTableError`].
    pub fn verify_with(&self, verifier: &mut Verifier, now: u64) -> Result<(), SignedTableError> {
        self.verify_given(|cert| verifier.verify_certificate(cert, now))
    }

    /// The checks in their fixed order, given the certificate check.
    fn verify_given(
        &self,
        check_certificate: impl FnOnce(&Arc<Certificate>) -> Result<(), CertificateError>,
    ) -> Result<(), SignedTableError> {
        if self.certificate.node_id != self.table.owner {
            return Err(SignedTableError::OwnerMismatch);
        }
        check_certificate(&self.certificate).map_err(|_| SignedTableError::BadCertificate)?;
        self.certificate
            .public_key
            .verify(&signing_bytes(&self.table, self.timestamp), self.signature)
            .map_err(|_: SignatureError| SignedTableError::BadSignature)
    }

    /// The table's owner.
    #[must_use]
    pub fn owner(&self) -> NodeId {
        self.table.owner
    }
}

/// A signed successor list — what stabilization replies carry and what
/// nodes queue as proofs (§4.3's "queue of latest received successor
/// lists"). Internally a signed routing table whose fingers are empty,
/// so one signature scheme covers both.
pub type SignedSuccessorList = SignedRoutingTable;

/// A signed predecessor list (returned by secret-finger-surveillance
/// pred-list requests, §4.4).
pub type SignedPredecessorList = SignedRoutingTable;

/// Build a successor-list-only table for signing.
#[must_use]
pub fn successor_list_table(owner: NodeId, successors: Vec<NodeId>) -> RoutingTable {
    RoutingTable {
        owner,
        fingers: Vec::new(),
        successors,
        predecessors: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_crypto::CertificateAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ca: CertificateAuthority,
        kp: KeyPair,
        cert: Certificate,
    }

    fn fixture(id: NodeId) -> Fixture {
        let mut rng = StdRng::seed_from_u64(id.0 ^ 77);
        let mut ca = CertificateAuthority::new(&mut rng);
        let kp = KeyPair::generate(&mut rng);
        let cert = ca.issue(id, 1, kp.public(), u64::MAX);
        Fixture { ca, kp, cert }
    }

    fn table(owner: NodeId) -> RoutingTable {
        RoutingTable {
            owner,
            fingers: vec![NodeId(5)],
            successors: vec![NodeId(2), NodeId(3)],
            predecessors: vec![NodeId(99)],
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let f = fixture(NodeId(1));
        let srt = SignedRoutingTable::sign(table(NodeId(1)), 100, &f.kp, f.cert);
        assert!(srt.verify(f.ca.public_key(), 100).is_ok());
        assert_eq!(srt.owner(), NodeId(1));
    }

    #[test]
    fn tampered_table_detected() {
        let f = fixture(NodeId(1));
        let mut srt = SignedRoutingTable::sign(table(NodeId(1)), 100, &f.kp, f.cert);
        srt.table.successors[0] = NodeId(666); // CA sees a manipulated list
        assert_eq!(
            srt.verify(f.ca.public_key(), 100),
            Err(SignedTableError::BadSignature)
        );
    }

    #[test]
    fn tampered_timestamp_detected() {
        let f = fixture(NodeId(1));
        let mut srt = SignedRoutingTable::sign(table(NodeId(1)), 100, &f.kp, f.cert);
        srt.timestamp = 200;
        assert_eq!(
            srt.verify(f.ca.public_key(), 100),
            Err(SignedTableError::BadSignature)
        );
    }

    #[test]
    fn stolen_table_replay_detected() {
        // node 2 tries to present node 1's signed table as its own
        let f1 = fixture(NodeId(1));
        let f2 = fixture(NodeId(2));
        let mut srt = SignedRoutingTable::sign(table(NodeId(1)), 100, &f1.kp, f1.cert);
        srt.certificate = Arc::new(f2.cert); // swap in own certificate
        assert_eq!(
            srt.verify(f1.ca.public_key(), 100),
            Err(SignedTableError::OwnerMismatch)
        );
    }

    #[test]
    fn forged_certificate_detected() {
        let f = fixture(NodeId(1));
        let mut rng = StdRng::seed_from_u64(123);
        let other_ca = CertificateAuthority::new(&mut rng);
        let srt = SignedRoutingTable::sign(table(NodeId(1)), 100, &f.kp, f.cert);
        // verifying against a different CA's key rejects the certificate
        assert_eq!(
            srt.verify(other_ca.public_key(), 100),
            Err(SignedTableError::BadCertificate)
        );
    }

    #[test]
    fn verify_with_gives_verify_s_verdict_cold_and_warm() {
        let f1 = fixture(NodeId(1));
        let f2 = fixture(NodeId(2));
        let mut rng = StdRng::seed_from_u64(123);
        let other_ca = CertificateAuthority::new(&mut rng);
        let honest = SignedRoutingTable::sign(table(NodeId(1)), 100, &f1.kp, f1.cert);
        let mut tampered = honest.clone();
        tampered.table.successors[0] = NodeId(666);
        let mut restamped = honest.clone();
        restamped.timestamp = 200;
        let mut stolen = honest.clone();
        stolen.certificate = Arc::new(f2.cert);
        let cases = [honest, tampered, restamped, stolen];
        for ca_key in [f1.ca.public_key(), other_ca.public_key()] {
            let mut verifier = Verifier::new(ca_key, 8);
            // the second round meets the certificate in the memo
            for round in 0..2 {
                for (i, srt) in cases.iter().enumerate() {
                    assert_eq!(
                        srt.verify_with(&mut verifier, 100),
                        srt.verify(ca_key, 100),
                        "case {i}, round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_signed_table_holds_its_certificate_by_pointer() {
        assert_eq!(std::mem::size_of::<SignedRoutingTable>(), 104);
        let f = fixture(NodeId(1));
        let shared = Arc::new(f.cert);
        let srt = SignedRoutingTable::sign(table(NodeId(1)), 100, &f.kp, Arc::clone(&shared));
        assert!(Arc::ptr_eq(&srt.certificate, &shared));
        assert!(Arc::ptr_eq(&srt.clone().certificate, &shared));
    }

    #[test]
    fn list_only_tables() {
        let t = successor_list_table(NodeId(1), vec![NodeId(2)]);
        assert!(t.fingers.is_empty());
        assert_eq!(t.successors, vec![NodeId(2)]);
        assert!(t.predecessors.is_empty());
    }
}
