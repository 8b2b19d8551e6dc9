//! The Octopus wire protocol.
//!
//! One message enum covers Chord maintenance, anonymous onion relaying,
//! the random walk, surveillance queries (which are deliberately
//! *indistinguishable* from ordinary lookup queries — that is what makes
//! the surveillance secret), and the CA investigation traffic.
//!
//! Wire sizes follow the paper's byte model (footnote 4) via
//! `octopus_net::sizes`, so the bandwidth rows of Table 3 are computed on
//! the paper's terms.

use std::sync::Arc;

use octopus_chord::{SignedPredecessorList, SignedRoutingTable, SignedSuccessorList};
use octopus_crypto::{Certificate, Signature};
use octopus_id::NodeId;
use octopus_net::{sizes, WireMsg};

/// One hop of an anonymous route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The relay's address.
    pub node: NodeId,
    /// Whether this relay adds the anti-timing-analysis random delay
    /// (§4.7 — the middle relay B delays forwarded messages by up to
    /// 100 ms).
    pub delay: bool,
}

/// What the exit relay does when the onion is fully unwrapped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExitAction {
    /// Query `target` for its routing table on the initiator's behalf
    /// (the exit sees the target but not the initiator; the target sees
    /// only the exit — Fig. 1(a)).
    QueryTable {
        /// The queried node Eᵢ.
        target: NodeId,
    },
    /// The exit *is* Uₗ of a random walk: perform phase 2 (Appendix I).
    /// Boxed because it is rare (one per walk) and, inline, would make
    /// every [`Msg`] — and every pending delivery in the simulator's
    /// timing wheel — 16 bytes larger.
    Delegate(Box<Delegation>),
}

/// A random walk's phase 2, handed to Uₗ: walk guided by `seed` over
/// `fingers` (the fingertable Uₗ signed in phase 1) and return the
/// collected signed tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delegation {
    /// Seed de-randomizing Uₗ's choices.
    pub seed: u64,
    /// Hops to take.
    pub length: usize,
    /// The fingertable snapshot the seed indexes into.
    pub fingers: Vec<NodeId>,
}

/// A structured onion packet.
///
/// The byte-level layered encryption lives in `octopus_crypto::onion` and
/// is exercised by the live examples; the simulator carries the
/// structured equivalent under the observation discipline documented in
/// ARCHITECTURE.md, "Modelling substitutions" (adversarial code only
/// reads fields a real relay could decrypt: its predecessor hop, its
/// successor hop, and — at the exit — the action).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnionPacket {
    /// Flow id correlating the forward path with its reply path.
    pub flow: u64,
    /// Remaining relay hops (the current holder forwards to `route[0]`).
    pub route: Vec<Hop>,
    /// What the exit relay does.
    pub action: ExitAction,
}

impl OnionPacket {
    /// Wire size: the innermost request plus one AES-padded layer per
    /// remaining hop.
    #[must_use]
    pub fn wire_bytes(&self) -> u32 {
        let mut b = match &self.action {
            ExitAction::QueryTable { .. } => sizes::REQUEST,
            ExitAction::Delegate(d) => {
                sizes::REQUEST + 8 + d.fingers.len() as u32 * sizes::ROUTING_ITEM
            }
        };
        for _ in 0..=self.route.len() {
            b = sizes::onion_layer(b);
        }
        b
    }
}

/// A signed forwarding receipt (Appendix II): `signer` acknowledges
/// having received flow `flow`. Unforgeable — the signature covers the
/// flow id, so a dropper cannot fabricate its next hop's receipt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReceiptToken {
    /// The flow acknowledged.
    pub flow: u64,
    /// Who acknowledged.
    pub signer: NodeId,
    /// Signature over `receipt_bytes(flow)` by the signer.
    pub sig: Signature,
}

/// Canonical bytes a receipt signature covers.
#[must_use]
pub fn receipt_bytes(flow: u64) -> [u8; 15] {
    let mut b = [0u8; 15];
    b[..7].copy_from_slice(b"receipt");
    b[7..].copy_from_slice(&flow.to_be_bytes());
    b
}

/// An attack report filed with the CA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Report {
    /// A signed successor list omits a live, stable node it should
    /// contain. Filed by secret neighbor surveillance (§4.3, where the
    /// omitted node is the reporter itself) and by checked finger
    /// updates (§4.5, where the omitted node is the closer true finger).
    ListOmission {
        /// The monitoring node that ran the test.
        reporter: NodeId,
        /// Reporter's certificate.
        reporter_cert: Certificate,
        /// The node wrongly missing from the list.
        omitted: NodeId,
        /// The accused node's signed list — the non-repudiation proof.
        accused_list: Box<SignedSuccessorList>,
    },
    /// Secret finger surveillance (§4.4): Y's signed fingertable entry
    /// F′ provably skips a closer live node.
    FingerManipulation {
        /// The monitoring node.
        reporter: NodeId,
        /// Reporter's certificate.
        reporter_cert: Certificate,
        /// Y's signed routing table containing the suspect finger.
        table: Box<SignedRoutingTable>,
        /// Index of the suspect finger in `table.fingers`.
        finger_index: u32,
        /// The suspect finger F′'s signed predecessor list.
        finger_pred_list: Box<SignedPredecessorList>,
        /// P′₁'s signed successor list revealing a closer true finger.
        pred_succ_list: Box<SignedSuccessorList>,
    },
    /// Selective-DoS defense (Appendix II): an anonymous query never
    /// completed; the CA walks the path's forwarding receipts to find
    /// the dropper.
    Dropper {
        /// The initiator that timed out.
        reporter: NodeId,
        /// Reporter's certificate.
        reporter_cert: Certificate,
        /// The flow that died.
        flow: u64,
        /// The relays of the path, in forwarding order.
        relays: Vec<NodeId>,
        /// The queried node the exit should have contacted.
        target: NodeId,
        /// The reporter's receipt from the first relay (proves the flow
        /// entered the path).
        initiator_receipt: Option<ReceiptToken>,
    },
}

impl Report {
    /// The reporting node.
    #[must_use]
    pub fn reporter(&self) -> NodeId {
        match self {
            Report::ListOmission { reporter, .. }
            | Report::FingerManipulation { reporter, .. }
            | Report::Dropper { reporter, .. } => *reporter,
        }
    }
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    // ---- Chord maintenance (direct, non-anonymous) ----
    /// Request the receiver's signed successor list (stabilization).
    GetSuccList {
        /// Request correlation id.
        req: u64,
    },
    /// Stabilization reply.
    SuccList {
        /// Correlation id.
        req: u64,
        /// The responder's signed successor list.
        list: Box<SignedSuccessorList>,
    },
    /// Request the receiver's signed predecessor list (anticlockwise
    /// stabilization, and the F′ query of secret finger surveillance).
    GetPredList {
        /// Request correlation id.
        req: u64,
    },
    /// Predecessor-list reply.
    PredList {
        /// Correlation id.
        req: u64,
        /// The responder's signed predecessor list.
        list: Box<SignedPredecessorList>,
    },

    // ---- Routing-table queries ----
    /// Request the receiver's full signed routing table. Carries no key:
    /// lookup targets stay hidden (§4.1). Arrives either directly
    /// (random walk phase 1, finger updates) or from an exit relay
    /// (anonymous lookup/surveillance queries) — the receiver cannot
    /// tell which.
    GetTable {
        /// Request correlation id.
        req: u64,
    },
    /// Routing-table reply.
    Table {
        /// Correlation id.
        req: u64,
        /// The responder's signed routing table.
        table: Box<SignedRoutingTable>,
    },

    // ---- Anonymous relaying ----
    /// An onion-wrapped query travelling initiator → relays → exit.
    Onion(OnionPacket),
    /// A reply travelling back along the flow's reverse path.
    OnionReply {
        /// Flow id.
        flow: u64,
        /// The reply being carried (a `Table` or `WalkResult`).
        payload: Box<Msg>,
    },
    /// Signed forwarding receipt (Appendix II DoS defense).
    Receipt {
        /// The receipt token.
        token: ReceiptToken,
    },
    /// Uₗ's phase-2 result: every signed fingertable it collected, which
    /// the initiator re-verifies against the seed. Carried inside an
    /// `OnionReply`.
    WalkResult {
        /// Flow id of the phase-1 path.
        flow: u64,
        /// Signed tables of the phase-2 hops, in order.
        tables: Vec<SignedRoutingTable>,
    },

    // ---- CA traffic ----
    /// An attack report (counted toward the CA workload of Fig. 7b).
    Report(Box<Report>),
    /// CA asks a node for its successor-list proof queue (§4.3's
    /// investigation).
    CaProofRequest {
        /// Investigation case id.
        case: u64,
    },
    /// Proof-queue reply to the CA.
    CaProofReply {
        /// Case id.
        case: u64,
        /// The node's own current signed successor list.
        own_list: Box<SignedSuccessorList>,
        /// Queue of the latest signed successor lists received during
        /// stabilization, shared with the node's own queue.
        proofs: Vec<Arc<SignedSuccessorList>>,
    },
    /// CA asks a relay for its forwarding receipt on a flow.
    CaReceiptRequest {
        /// Case id.
        case: u64,
        /// The flow under investigation.
        flow: u64,
    },
    /// Receipt reply to the CA.
    CaReceiptReply {
        /// Case id.
        case: u64,
        /// The flow.
        flow: u64,
        /// The stored receipt, if any.
        receipt: Option<ReceiptToken>,
    },
    /// CA asks a node to justify one of its signed fingertable entries:
    /// produce the third-party signed list that backed the adoption
    /// (§4.5's check transcript, or the stabilization proof when the
    /// finger came from the node's own successor list).
    CaProvRequest {
        /// Case id.
        case: u64,
        /// The finger slot under investigation.
        slot: u32,
    },
    /// Provenance reply: the signed list justifying the finger.
    CaProvReply {
        /// Case id.
        case: u64,
        /// The justification, if the node has one.
        prov: Option<Box<SignedSuccessorList>>,
    },
    /// CA → everyone: certificate revocations (malicious nodes ejected).
    Revocation {
        /// Newly revoked node ids; one allocation shared by every
        /// recipient of a broadcast.
        revoked: Arc<[NodeId]>,
    },
}

fn signed_list_bytes(items: usize) -> u32 {
    sizes::signed_table(items as u32)
}

fn table_items(t: &SignedRoutingTable) -> usize {
    t.table.item_count() as usize + t.table.predecessors.len()
}

impl WireMsg for Msg {
    fn wire_bytes(&self) -> u32 {
        match self {
            Msg::GetSuccList { .. } | Msg::GetPredList { .. } | Msg::GetTable { .. } => {
                sizes::REQUEST
            }
            Msg::SuccList { list, .. } | Msg::PredList { list, .. } => {
                signed_list_bytes(table_items(list))
            }
            Msg::Table { table, .. } => signed_list_bytes(table_items(table)),
            Msg::Onion(p) => p.wire_bytes(),
            Msg::OnionReply { payload, .. } => sizes::onion_layer(payload.wire_bytes()),
            Msg::Receipt { .. } => sizes::SIGNATURE + 8,
            Msg::WalkResult { tables, .. } => {
                let inner: u32 = tables
                    .iter()
                    .map(|t| signed_list_bytes(table_items(t)))
                    .sum();
                sizes::onion_layer(inner)
            }
            Msg::Report(r) => match &**r {
                Report::ListOmission { accused_list, .. } => {
                    sizes::CERTIFICATE + signed_list_bytes(table_items(accused_list)) + 8
                }
                Report::FingerManipulation {
                    table,
                    finger_pred_list,
                    pred_succ_list,
                    ..
                } => {
                    sizes::CERTIFICATE
                        + signed_list_bytes(table_items(table))
                        + signed_list_bytes(table_items(finger_pred_list))
                        + signed_list_bytes(table_items(pred_succ_list))
                        + 4
                }
                Report::Dropper { relays, .. } => {
                    sizes::CERTIFICATE
                        + sizes::REQUEST
                        + relays.len() as u32 * sizes::ROUTING_ITEM
                        + sizes::SIGNATURE
                }
            },
            Msg::CaProofRequest { .. } => sizes::REQUEST,
            Msg::CaProofReply {
                own_list, proofs, ..
            } => {
                signed_list_bytes(table_items(own_list))
                    + proofs
                        .iter()
                        .map(|p| signed_list_bytes(table_items(p)))
                        .sum::<u32>()
            }
            Msg::CaReceiptRequest { .. } => sizes::REQUEST + 8,
            Msg::CaReceiptReply { .. } => sizes::REQUEST + sizes::SIGNATURE,
            Msg::CaProvRequest { .. } => sizes::REQUEST + 4,
            Msg::CaProvReply { prov, .. } => {
                sizes::REQUEST
                    + prov
                        .as_ref()
                        .map_or(0, |p| signed_list_bytes(table_items(p)))
            }
            Msg::Revocation { revoked } => 8 + revoked.len() as u32 * sizes::ROUTING_ITEM,
        }
    }
}

/// Per-node timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Timer {
    /// Run successor + predecessor stabilization (every 2 s).
    Stabilize,
    /// Refresh fingers via iterative lookups (every 30 s).
    FingerUpdate,
    /// Run one secret neighbor + one secret finger surveillance check
    /// (every 60 s).
    Surveillance,
    /// Start a relay-selection random walk (every 15 s).
    Walk,
    /// Start an application lookup (every 60 s).
    Lookup,
    /// A pending request timed out.
    RequestTimeout {
        /// The request id that expired.
        req: u64,
    },
    /// Second stage of a finger check ("after a short random period of
    /// time", §4.4).
    FingerCheckStage2 {
        /// The check this stage belongs to.
        check: u64,
    },
    /// Deadline for a forwarding receipt (DoS defense).
    ReceiptDeadline {
        /// The flow whose receipt is awaited.
        flow: u64,
    },
    /// CA-side: deadline for an investigation step.
    CaCaseTimeout {
        /// The case id.
        case: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sizes_small() {
        assert_eq!(Msg::GetTable { req: 1 }.wire_bytes(), sizes::REQUEST);
        assert_eq!(Msg::CaProofRequest { case: 1 }.wire_bytes(), sizes::REQUEST);
    }

    #[test]
    fn onion_grows_per_hop() {
        let mk = |n: usize| OnionPacket {
            flow: 1,
            route: (0..n)
                .map(|i| Hop {
                    node: NodeId(i as u64),
                    delay: i == 1,
                })
                .collect(),
            action: ExitAction::QueryTable { target: NodeId(9) },
        };
        assert!(mk(3).wire_bytes() > mk(1).wire_bytes());
        assert_eq!(mk(1).wire_bytes() % sizes::AES_BLOCK, 0);
    }

    #[test]
    fn delegate_payload_larger_than_query() {
        let q = OnionPacket {
            flow: 1,
            route: vec![],
            action: ExitAction::QueryTable { target: NodeId(9) },
        };
        let d = OnionPacket {
            flow: 1,
            route: vec![],
            action: ExitAction::Delegate(Box::new(Delegation {
                seed: 7,
                length: 3,
                fingers: vec![NodeId(1); 12],
            })),
        };
        assert!(d.wire_bytes() > q.wire_bytes());
    }

    #[test]
    fn revocation_scales_with_count() {
        let r1 = Msg::Revocation {
            revoked: Arc::from([NodeId(1)]),
        };
        let r3 = Msg::Revocation {
            revoked: Arc::from([NodeId(1), NodeId(2), NodeId(3)]),
        };
        assert_eq!(r3.wire_bytes() - r1.wire_bytes(), 2 * sizes::ROUTING_ITEM);
    }

    #[test]
    fn a_message_fits_the_wheel_entry() {
        // Every pending delivery is stored as one entry of the world's
        // delivery lane, 96 bytes: the 24-byte (time, key) and the
        // 72-byte `Delivery { from, to, msg }`. A variant that grows
        // `Msg` past 56 bytes grows every delivery entry of every run by
        // 16 bytes; box it instead. That is why `ExitAction::Delegate`
        // (one per walk) is boxed; `Onion` (several per lookup) stays
        // inline, where a box would cost an allocation per hop.
        assert!(std::mem::size_of::<OnionPacket>() <= 48);
        assert!(std::mem::size_of::<Msg>() <= 56);
    }

    #[test]
    fn a_timer_fits_the_timer_lane() {
        // Every pending timer is stored as one entry of the world's
        // timer lane, 64 bytes: the 24-byte (time, key) and the 32-byte
        // `TimerEv { node, hint, timer }`, rounded up to the key's
        // 16-byte alignment. A variant
        // that grows `Timer` past 16 bytes grows every timer entry of
        // every run by 16 bytes; most of them are request timeouts,
        // which `World` keeps until they fire.
        assert!(std::mem::size_of::<Timer>() <= 16);
    }

    #[test]
    fn receipt_bytes_bind_flow() {
        assert_ne!(receipt_bytes(1), receipt_bytes(2));
        assert_eq!(&receipt_bytes(5)[..7], b"receipt");
    }
}
