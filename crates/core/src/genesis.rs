//! The idealized join (ARCHITECTURE.md, "Modelling substitutions"):
//! the paper's nodes enter the ring through a join protocol; here the
//! caller seats them from the ground-truth id space instead. The
//! security simulator seeds its genesis ring and every churn join
//! through this module, and `octopus-node` seeds a UDP deployment
//! through it, so both run the protocol from the same state. Functions
//! that draw take the caller's RNG; the relay pairs are each caller's
//! own draws, passed in.

use std::collections::BTreeMap;
use std::sync::Arc;

use octopus_chord::signed::successor_list_table;
use octopus_chord::{GroundTruthView, RoutingView, SignedSuccessorList};
use octopus_crypto::{Certificate, KeyPair};
use octopus_id::{IdSpace, NodeId};
use rand::Rng;

use crate::ca::CaNode;
use crate::node::OctopusNode;

/// Each ring member's key pair and CA-issued certificate. The
/// certificate's one allocation is shared by every list signed in the
/// member's name.
pub type RingKeys = BTreeMap<NodeId, (KeyPair, Arc<Certificate>)>;

/// Issue certificates for the ring `space`: one key pair per member,
/// drawn from `rng` in ring order. The CA registers each member as
/// joined at time 0 and broadcasts revocations to all of them.
pub fn issue_certs(ca: &mut CaNode, space: &IdSpace, rng: &mut impl Rng) -> RingKeys {
    let mut keys = BTreeMap::new();
    for &id in space.ids() {
        let kp = KeyPair::generate(rng);
        let cert = ca.issue_cert(id, kp.public());
        ca.register(id, kp.public());
        ca.note_join(id, 0);
        keys.insert(id, (kp, Arc::new(cert)));
    }
    ca.broadcast_to = space.ids().to_vec();
    keys
}

/// One draw of an initial relay pair for `id`: two random members,
/// kept only when they differ from each other and from `id`. How many
/// draws a node gets is its caller's choice.
pub fn relay_pair(space: &IdSpace, id: NodeId, rng: &mut impl Rng) -> Option<(NodeId, NodeId)> {
    let a = space.random_member(rng);
    let b = space.random_member(rng);
    (a != b && a != id && b != id).then_some((a, b))
}

/// Initialize a node's ring state from ground truth: its successor
/// and predecessor lists and its fingers are the ones `truth` gives
/// it. `relay_pairs` stand in for walks that have already run (the
/// pool is refreshed by real walks from the first walk period on).
pub fn seed_from_truth(
    node: &mut OctopusNode,
    truth: &GroundTruthView<'_>,
    relay_pairs: Vec<(NodeId, NodeId)>,
) {
    let table = truth.table_of(node.id);
    node.seed_state(
        table.successors,
        table.predecessors,
        table.fingers,
        relay_pairs,
    );
}

/// Seed per-finger adoption provenance from ground truth: the idealized
/// join protocol runs checked finger lookups, so each seeded finger
/// comes with the signed third-party list a real §4.5 check would have
/// produced — the successor list of the finger target's predecessor.
///
/// `signed` holds the lists already signed at `now` over this ring,
/// by signer; a signer's list is signed once and shared after that, by
/// every node that cites it. The signature is deterministic, so the
/// shared list is the bytes a second signing would give. The caller
/// starts a fresh map whenever the ring or `now` changes.
pub fn seed_provenance(
    node: &mut OctopusNode,
    truth: &GroundTruthView<'_>,
    keys: &RingKeys,
    now: u64,
    signed: &mut BTreeMap<NodeId, Arc<SignedSuccessorList>>,
) {
    let (space, chord) = (truth.space(), truth.config());
    for i in 0..chord.fingers {
        let ideal = chord.finger_target(node.id, i);
        let owner = space.owner_of(ideal).owner;
        // the justifying signer is a predecessor of the finger whose
        // successor list spans the [ideal, finger) gap; skip ourselves
        // (self-signed justifications convince nobody)
        let signer = (1..=3)
            .map(|d| space.predecessor(owner, d))
            .find(|&s| s != node.id && s != owner);
        let Some(signer) = signer else { continue };
        let Some((kp, cert)) = keys.get(&signer) else {
            continue;
        };
        let list = signed.entry(signer).or_insert_with(|| {
            let list = space.successor_list(signer, chord.successors);
            Arc::new(SignedSuccessorList::sign(
                successor_list_table(signer, list),
                now,
                kp,
                Arc::clone(cert),
            ))
        });
        node.set_finger_provenance(i, Arc::clone(list));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OctopusConfig;
    use crate::simnet::CA_ADDR;
    use octopus_crypto::CertificateAuthority;
    use octopus_sim::derive_rng;

    #[test]
    fn seeded_ring_matches_ground_truth_and_its_provenance_verifies() {
        let mut rng = derive_rng(5, b"genesis-contract", 0);
        let space = IdSpace::random(300, &mut rng);
        let cfg = OctopusConfig::for_network(space.len());
        let authority = CertificateAuthority::new(&mut rng);
        let ca_key = authority.public_key();
        let mut ca = CaNode::new(CA_ADDR, authority, cfg);
        let keys = issue_certs(&mut ca, &space, &mut rng);
        assert_eq!(ca.broadcast_to, space.ids());
        let truth = GroundTruthView::new(&space, cfg.chord);
        let mut signed = BTreeMap::new();
        for &id in space.ids() {
            let (kp, cert) = keys[&id].clone();
            let mut node = OctopusNode::new(id, cfg, kp, *cert, CA_ADDR, ca_key, None);
            let pairs: Vec<_> = (0..4)
                .filter_map(|_| relay_pair(&space, id, &mut rng))
                .collect();
            seed_from_truth(&mut node, &truth, pairs.clone());
            seed_provenance(&mut node, &truth, &keys, 0, &mut signed);

            let table = truth.table_of(id);
            assert_eq!(node.successors(), table.successors, "successors of {id:?}");
            assert_eq!(
                node.predecessors(),
                table.predecessors,
                "predecessors of {id:?}"
            );
            assert_eq!(node.fingers(), table.fingers, "fingers of {id:?}");
            assert_eq!(Vec::from(node.relay_pool.clone()), pairs);
            for (slot, &finger) in table.fingers.iter().enumerate() {
                let prov = node.finger_prov[slot]
                    .as_ref()
                    .unwrap_or_else(|| panic!("finger {slot} of {id:?} has provenance"));
                assert!(prov.verify(ca_key, 0).is_ok(), "finger {slot} of {id:?}");
                let signer = prov.owner();
                assert!(signer != id && signer != finger, "finger {slot} of {id:?}");
                assert_eq!(
                    prov.table.successors,
                    truth.table_of(signer).successors,
                    "the list finger {slot} of {id:?} cites"
                );
            }
        }
    }
}
