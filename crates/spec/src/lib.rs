//! Executable reference model of the Octopus protocol semantics.
//!
//! Every other correctness check in this workspace compares the engine
//! against another configuration of the same engine (the determinism
//! cube, the shard-count pins, the ledger counts). A bug shared by
//! every configuration is invisible to all of them. This crate is the
//! independent second implementation that closes that gap: a small,
//! obviously-correct transition system over the protocol decisions the
//! paper's security argument rests on — receipt-chained onion
//! forwarding, certificate-verified routing tables, and CA report
//! intake / revocation.
//!
//! # Shape
//!
//! The model is a pure fold. [`step`] consumes one [`ModelEvent`] — a
//! semantic record of a decision the engine made, carrying the *inputs*
//! the engine saw and the *claim* of what it decided — and returns the
//! next [`ModelState`] plus any [`ModelOutput`]s. The model recomputes
//! every decision from the event inputs and its own tracked state;
//! whenever the engine's claim disagrees, the model emits a
//! [`ModelOutput::Divergence`]. Claims that additionally breach a
//! protocol invariant (a forged receipt accepted, a revoked certificate
//! honoured) are recorded as violations on the state, where
//! [`check_invariants`] reports them.
//!
//! Deliberate non-goals, by design: no slabs, no pooling, no shards, no
//! dependencies. Plain `BTreeMap`s and `u64` identifiers only, so the
//! model stays reviewable end-to-end and cannot share code — or bugs —
//! with the engine crates.
//!
//! # What the model tracks
//!
//! * **Membership** — which nodes are live and which are revoked, from
//!   driver-level join / kill / revocation events.
//! * **Receipt chains** — for each `(node, flow)`, which relay the node
//!   expects a forwarding receipt from; fed by anonymous-send and onion
//!   hop events, drained by receipt acceptance and deadline expiry.
//! * **Lookup targets** — for each `(node, lookup)`, which table owner
//!   the node awaits; checked when the engine judges an incoming
//!   signed routing table.
//! * **CA intake** — the validity gates of the three report kinds and
//!   the CA's receipt verification, cross-checked against the model's
//!   own revocation set.

#![forbid(unsafe_code)]
// engine output goes through reports and traces, never the terminal
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use std::collections::{BTreeMap, BTreeSet};

/// Which misbehaviour report variant the certificate authority
/// received. Mirrors the engine's `Report` enum by name only — the
/// model never sees wire payloads, just the gate inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReportKind {
    /// A successor/predecessor list omits a node it should contain.
    ListOmission,
    /// A finger entry disagrees with the finger's own neighbourhood.
    FingerManipulation,
    /// An anonymous flow's relay chain dropped the query.
    Dropper,
}

/// One semantic protocol event observed from the engine.
///
/// Each variant records the *inputs* to a protocol decision exactly as
/// the engine saw them, plus the engine's *claim* about the outcome
/// (the `accepted` / `forwarded_to` / `tracked` fields). The model
/// recomputes the outcome independently and flags disagreement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelEvent {
    /// A node joined the ring (genesis population or churn re-join).
    NodeJoined {
        /// The joining node.
        node: u64,
    },
    /// A live node died (churn).
    NodeKilled {
        /// The dying node.
        node: u64,
    },
    /// The CA revoked a node's certificate and the driver removed the
    /// node from the ground truth.
    RevocationApplied {
        /// The revoked node.
        node: u64,
    },
    /// An honest node launched an anonymous action: it built an onion
    /// route and now awaits a receipt from the first relay.
    AnonSent {
        /// The initiator.
        node: u64,
        /// The flow identifier of the onion circuit.
        flow: u64,
        /// The first relay, from which a receipt is expected.
        first: u64,
    },
    /// An honest node processed one onion hop: acknowledged it with a
    /// receipt, then either forwarded the peeled packet or acted as the
    /// exit.
    OnionProcessed {
        /// The relay processing the hop.
        node: u64,
        /// The previous hop the packet arrived from.
        from: u64,
        /// The flow identifier.
        flow: u64,
        /// The next hop named by the packet's remaining route, if any.
        route_next: Option<u64>,
        /// Engine claim: a receipt was sent back to `from`.
        receipt_sent: bool,
        /// Engine claim: the packet was forwarded to this node.
        forwarded_to: Option<u64>,
        /// Engine claim: this node acted as the exit for the flow.
        exited: bool,
    },
    /// An honest node judged an incoming receipt token against its
    /// awaited-receipt table.
    ReceiptChecked {
        /// The node holding the receipt expectation.
        node: u64,
        /// The sender of the receipt message.
        from: u64,
        /// The flow the token covers.
        flow: u64,
        /// The relay the token claims to be signed by.
        signer: u64,
        /// Engine claim: the receipt was accepted and the wait cleared.
        accepted: bool,
    },
    /// An honest node's receipt deadline fired and cleared the wait.
    ReceiptExpired {
        /// The node abandoning the wait.
        node: u64,
        /// The flow whose receipt never arrived in time.
        flow: u64,
    },
    /// An honest node (re-)queried the next hop of a secure lookup; it
    /// now awaits a signed routing table owned by `target`.
    LookupQuery {
        /// The lookup initiator.
        node: u64,
        /// The initiator-local lookup identifier.
        lookup: u64,
        /// The node whose table is awaited.
        target: u64,
    },
    /// An honest node judged an incoming signed routing table for a
    /// pending lookup.
    TableChecked {
        /// The lookup initiator.
        node: u64,
        /// The initiator-local lookup identifier.
        lookup: u64,
        /// The owner named by the table.
        owner: u64,
        /// The owner the engine says it is awaiting.
        awaiting: u64,
        /// Independently recomputed: the table's certificate and
        /// signature verify (not expired, not forged).
        sig_ok: bool,
        /// Engine claim: the table was accepted and the lookup advanced.
        accepted: bool,
    },
    /// An honest node received a CA revocation notice.
    RevocationSeen {
        /// The node receiving the notice.
        node: u64,
        /// The nodes the notice revokes.
        revoked: Vec<u64>,
        /// Engine claim: all listed nodes are now in the node's local
        /// revoked set (purged from its routing state).
        tracked: bool,
    },
    /// The CA ran the validity gate on an incoming misbehaviour report.
    ReportIntake {
        /// Which report variant arrived.
        kind: ReportKind,
        /// The reporting node.
        reporter: u64,
        /// Independently recomputed: the reporter's certificate names
        /// the reporter and verifies against the CA key.
        cert_ok: bool,
        /// Independently recomputed: the CA's authority lists the
        /// reporter as revoked.
        reporter_revoked: bool,
        /// Independently recomputed: the report's signed evidence
        /// verifies (signed lists / non-empty relay chain).
        evidence_ok: bool,
        /// Engine claim: the report passed the gate and a case opened.
        accepted: bool,
    },
    /// The CA verified a receipt token presented as dropper evidence.
    CaReceiptCheck {
        /// The relay the token claims to be signed by.
        signer: u64,
        /// The relay the evidence says should have signed it.
        expected_signer: u64,
        /// Independently recomputed: the token covers the case's flow.
        flow_ok: bool,
        /// Independently recomputed: the signature verifies under the
        /// signer's registered public key.
        sig_ok: bool,
        /// Engine claim: the token was accepted as valid evidence.
        accepted: bool,
    },
}

/// Output of one model step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelOutput {
    /// The engine's claimed outcome disagrees with the model's
    /// independent recomputation of the same decision.
    Divergence(String),
    /// The engine's claimed behaviour breaches a protocol invariant
    /// (also recorded on [`ModelState::violations`]).
    Violation(String),
}

/// The model's tracked protocol state. Plain ordered maps, nothing
/// else — the point is to be obviously correct, not fast.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelState {
    /// Nodes currently live in the ground-truth membership.
    pub live: BTreeSet<u64>,
    /// Nodes whose certificates the CA has revoked.
    pub revoked: BTreeSet<u64>,
    /// `(node, flow)` → the relay that node awaits a receipt from.
    pub awaiting_receipt: BTreeMap<(u64, u64), u64>,
    /// `(node, lookup)` → the table owner that node awaits.
    pub lookup_target: BTreeMap<(u64, u64), u64>,
    /// Invariant breaches recorded so far (engine claims that accepted
    /// what the protocol forbids). Reported by [`check_invariants`].
    pub violations: Vec<String>,
}

/// Drop all per-node protocol obligations of a departed node.
fn clear_node(state: &mut ModelState, node: u64) {
    state.awaiting_receipt.retain(|&(n, _), _| n != node);
    state.lookup_target.retain(|&(n, _), _| n != node);
}

/// Record a divergence between engine claim and model expectation.
fn diverge(out: &mut Vec<ModelOutput>, detail: String) {
    out.push(ModelOutput::Divergence(detail));
}

/// Record an invariant violation (kept on the state for
/// [`check_invariants`], and surfaced as an output).
fn violate(state: &mut ModelState, out: &mut Vec<ModelOutput>, detail: String) {
    state.violations.push(detail.clone());
    out.push(ModelOutput::Violation(detail));
}

/// Advance the model by one event: recompute the decision the engine
/// claims to have made, update tracked state, and report any
/// divergences or invariant violations.
///
/// The fold is pure and total — same state and event always produce the
/// same result, and no event panics.
#[must_use]
#[expect(
    clippy::too_many_lines,
    reason = "one arm per protocol decision; splitting hides the case analysis"
)]
pub fn step(mut state: ModelState, event: ModelEvent) -> (ModelState, Vec<ModelOutput>) {
    let mut out = Vec::new();
    match event {
        ModelEvent::NodeJoined { node } => {
            state.live.insert(node);
        }
        ModelEvent::NodeKilled { node } => {
            state.live.remove(&node);
            clear_node(&mut state, node);
        }
        ModelEvent::RevocationApplied { node } => {
            state.revoked.insert(node);
            state.live.remove(&node);
            clear_node(&mut state, node);
        }
        ModelEvent::AnonSent { node, flow, first } => {
            state.awaiting_receipt.insert((node, flow), first);
        }
        ModelEvent::OnionProcessed {
            node,
            from,
            flow,
            route_next,
            receipt_sent,
            forwarded_to,
            exited,
        } => {
            if !receipt_sent {
                diverge(
                    &mut out,
                    format!(
                        "node {node} processed hop of flow {flow:#x} without acknowledging {from}"
                    ),
                );
                violate(
                    &mut state,
                    &mut out,
                    format!(
                        "node {node} forwarded flow {flow:#x} without extending its receipt chain"
                    ),
                );
            }
            match route_next {
                Some(next) => {
                    if exited {
                        diverge(
                            &mut out,
                            format!(
                                "node {node} claims exit on flow {flow:#x} with hops remaining"
                            ),
                        );
                    }
                    if forwarded_to != Some(next) {
                        diverge(
                            &mut out,
                            format!(
                                "node {node} forwarded flow {flow:#x} to {forwarded_to:?}; the route names {next}"
                            ),
                        );
                    }
                    // Track the engine's receipt expectation: the next
                    // hop named by the route, regardless of where a
                    // buggy engine actually sent the packet.
                    state.awaiting_receipt.insert((node, flow), next);
                }
                None => {
                    if !exited {
                        diverge(
                            &mut out,
                            format!("node {node} neither forwarded nor exited flow {flow:#x}"),
                        );
                    }
                    if let Some(to) = forwarded_to {
                        diverge(
                            &mut out,
                            format!("node {node} forwarded exhausted flow {flow:#x} to {to}"),
                        );
                    }
                }
            }
        }
        ModelEvent::ReceiptChecked {
            node,
            from,
            flow,
            signer,
            accepted,
        } => {
            let expected =
                state.awaiting_receipt.get(&(node, flow)) == Some(&signer) && signer == from;
            if accepted != expected {
                diverge(
                    &mut out,
                    format!(
                        "node {node} {} receipt for flow {flow:#x} signed by {signer} (from {from}); model says {}",
                        if accepted { "accepted" } else { "rejected" },
                        if expected { "accept" } else { "reject" },
                    ),
                );
                if accepted {
                    violate(
                        &mut state,
                        &mut out,
                        format!(
                            "node {node} accepted a receipt for flow {flow:#x} whose chain fails verification"
                        ),
                    );
                }
            }
            if expected {
                state.awaiting_receipt.remove(&(node, flow));
            }
        }
        ModelEvent::ReceiptExpired { node, flow } => {
            if state.awaiting_receipt.remove(&(node, flow)).is_none() {
                diverge(
                    &mut out,
                    format!("node {node} expired a receipt wait on flow {flow:#x} the model never saw opened"),
                );
            }
        }
        ModelEvent::LookupQuery {
            node,
            lookup,
            target,
        } => {
            state.lookup_target.insert((node, lookup), target);
        }
        ModelEvent::TableChecked {
            node,
            lookup,
            owner,
            awaiting,
            sig_ok,
            accepted,
        } => {
            match state.lookup_target.get(&(node, lookup)) {
                Some(&tracked) if tracked != awaiting => diverge(
                    &mut out,
                    format!(
                        "lookup {lookup} at node {node}: engine awaits {awaiting}, model tracked {tracked}"
                    ),
                ),
                None => diverge(
                    &mut out,
                    format!(
                        "lookup {lookup} at node {node}: table judged for a lookup the model never saw queried"
                    ),
                ),
                Some(_) => {}
            }
            let expected = owner == awaiting && sig_ok;
            if accepted != expected {
                diverge(
                    &mut out,
                    format!(
                        "node {node} {} table from {owner} for lookup {lookup}; model says {}",
                        if accepted { "accepted" } else { "rejected" },
                        if expected { "accept" } else { "reject" },
                    ),
                );
            }
            if accepted && !sig_ok {
                violate(
                    &mut state,
                    &mut out,
                    format!(
                        "node {node} accepted a routing table from {owner} under a certificate that fails verification"
                    ),
                );
            }
        }
        ModelEvent::RevocationSeen {
            node,
            revoked,
            tracked,
        } => {
            if !tracked {
                diverge(
                    &mut out,
                    format!(
                        "node {node} received revocation notice {revoked:?} but did not track it"
                    ),
                );
            }
        }
        ModelEvent::ReportIntake {
            kind,
            reporter,
            cert_ok,
            reporter_revoked,
            evidence_ok,
            accepted,
        } => {
            if state.revoked.contains(&reporter) != reporter_revoked {
                diverge(
                    &mut out,
                    format!(
                        "CA revocation view of reporter {reporter} drifted from the model ({kind:?})"
                    ),
                );
            }
            // The engine's intake gates are asymmetric on purpose: only
            // ListOmission refuses revoked reporters at the gate. The
            // model mirrors that, and separately flags the invariant
            // when a revoked certificate is honoured anywhere.
            let expected = match kind {
                ReportKind::ListOmission => cert_ok && !reporter_revoked && evidence_ok,
                ReportKind::FingerManipulation | ReportKind::Dropper => cert_ok && evidence_ok,
            };
            if accepted != expected {
                diverge(
                    &mut out,
                    format!(
                        "CA {} a {kind:?} report from {reporter}; model says {}",
                        if accepted { "accepted" } else { "rejected" },
                        if expected { "accept" } else { "reject" },
                    ),
                );
            }
            if accepted && !cert_ok {
                violate(
                    &mut state,
                    &mut out,
                    format!(
                        "CA accepted a {kind:?} report under a certificate that fails verification"
                    ),
                );
            }
            if kind == ReportKind::ListOmission && accepted && reporter_revoked {
                violate(
                    &mut state,
                    &mut out,
                    format!(
                        "revoked certificate of {reporter} accepted after the revocation event"
                    ),
                );
            }
        }
        ModelEvent::CaReceiptCheck {
            signer,
            expected_signer,
            flow_ok,
            sig_ok,
            accepted,
        } => {
            let expected = signer == expected_signer && flow_ok && sig_ok;
            if accepted != expected {
                diverge(
                    &mut out,
                    format!(
                        "CA {} a receipt signed by {signer} (expected signer {expected_signer}); model says {}",
                        if accepted { "accepted" } else { "rejected" },
                        if expected { "accept" } else { "reject" },
                    ),
                );
            }
            if accepted && !sig_ok {
                violate(
                    &mut state,
                    &mut out,
                    format!("CA accepted a forged receipt attributed to {signer}"),
                );
            }
        }
    }
    (state, out)
}

/// Report every invariant breach visible in `state`: violations
/// recorded by [`step`], plus structural impossibilities (a node both
/// live and revoked). Empty means the engine's claimed behaviour never
/// crossed a protocol line.
#[must_use]
pub fn check_invariants(state: &ModelState) -> Vec<String> {
    let mut breaches = state.violations.clone();
    for id in state.live.intersection(&state.revoked) {
        breaches.push(format!("node {id} is simultaneously live and revoked"));
    }
    breaches
}

/// The result of folding [`step`] over an event sequence.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Final model state (feed to [`check_invariants`]).
    pub state: ModelState,
    /// Every divergence, in event order.
    pub divergences: Vec<String>,
}

/// Fold [`step`] over an event sequence, collecting divergences.
/// Violations stay on the returned state where [`check_invariants`]
/// reports them.
pub fn replay(events: impl IntoIterator<Item = ModelEvent>) -> Replay {
    let mut state = ModelState::default();
    let mut divergences = Vec::new();
    for event in events {
        let (next, outputs) = step(state, event);
        state = next;
        for output in outputs {
            if let ModelOutput::Divergence(d) = output {
                divergences.push(d);
            }
        }
    }
    Replay { state, divergences }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faithful_receipt_round() -> Vec<ModelEvent> {
        vec![
            ModelEvent::NodeJoined { node: 1 },
            ModelEvent::NodeJoined { node: 2 },
            ModelEvent::NodeJoined { node: 3 },
            ModelEvent::AnonSent {
                node: 1,
                flow: 7,
                first: 2,
            },
            ModelEvent::OnionProcessed {
                node: 2,
                from: 1,
                flow: 7,
                route_next: Some(3),
                receipt_sent: true,
                forwarded_to: Some(3),
                exited: false,
            },
            ModelEvent::ReceiptChecked {
                node: 1,
                from: 2,
                flow: 7,
                signer: 2,
                accepted: true,
            },
            ModelEvent::OnionProcessed {
                node: 3,
                from: 2,
                flow: 7,
                route_next: None,
                receipt_sent: true,
                forwarded_to: None,
                exited: true,
            },
            ModelEvent::ReceiptChecked {
                node: 2,
                from: 3,
                flow: 7,
                signer: 3,
                accepted: true,
            },
        ]
    }

    #[test]
    fn faithful_trace_is_clean() {
        let replay = replay(faithful_receipt_round());
        assert!(replay.divergences.is_empty(), "{:?}", replay.divergences);
        assert!(check_invariants(&replay.state).is_empty());
        assert!(replay.state.awaiting_receipt.is_empty());
    }

    #[test]
    fn step_is_a_pure_fold() {
        let s0 = ModelState::default();
        let ev = ModelEvent::NodeJoined { node: 9 };
        let (a, _) = step(s0.clone(), ev.clone());
        let (b, _) = step(s0, ev);
        assert_eq!(a, b);
    }

    #[test]
    fn forged_receipt_acceptance_is_a_violation() {
        let mut events = faithful_receipt_round();
        // The initiator accepts a receipt signed by a relay it never
        // asked: wrong signer, claim says accepted.
        events.push(ModelEvent::AnonSent {
            node: 1,
            flow: 8,
            first: 2,
        });
        events.push(ModelEvent::ReceiptChecked {
            node: 1,
            from: 3,
            flow: 8,
            signer: 3,
            accepted: true,
        });
        let replay = replay(events);
        assert_eq!(replay.divergences.len(), 1);
        let breaches = check_invariants(&replay.state);
        assert_eq!(breaches.len(), 1);
        assert!(breaches[0].contains("fails verification"), "{breaches:?}");
    }

    #[test]
    fn rejecting_a_valid_receipt_diverges_without_violation() {
        let mut events = faithful_receipt_round();
        events.push(ModelEvent::AnonSent {
            node: 1,
            flow: 9,
            first: 3,
        });
        events.push(ModelEvent::ReceiptChecked {
            node: 1,
            from: 3,
            flow: 9,
            signer: 3,
            accepted: false,
        });
        let replay = replay(events);
        assert_eq!(replay.divergences.len(), 1);
        assert!(check_invariants(&replay.state).is_empty());
    }

    #[test]
    fn misrouted_onion_diverges() {
        let (_, out) = step(
            ModelState::default(),
            ModelEvent::OnionProcessed {
                node: 2,
                from: 1,
                flow: 7,
                route_next: Some(3),
                receipt_sent: true,
                forwarded_to: Some(1), // sent back where it came from
                exited: false,
            },
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], ModelOutput::Divergence(_)));
    }

    #[test]
    fn skipped_receipt_ack_is_a_violation() {
        let (state, out) = step(
            ModelState::default(),
            ModelEvent::OnionProcessed {
                node: 2,
                from: 1,
                flow: 7,
                route_next: None,
                receipt_sent: false,
                forwarded_to: None,
                exited: true,
            },
        );
        assert!(out.iter().any(|o| matches!(o, ModelOutput::Violation(_))));
        assert_eq!(check_invariants(&state).len(), 1);
    }

    #[test]
    fn stale_certificate_table_acceptance_is_a_violation() {
        let events = vec![
            ModelEvent::LookupQuery {
                node: 1,
                lookup: 4,
                target: 5,
            },
            ModelEvent::TableChecked {
                node: 1,
                lookup: 4,
                owner: 5,
                awaiting: 5,
                sig_ok: false, // expired / forged certificate
                accepted: true,
            },
        ];
        let replay = replay(events);
        assert_eq!(replay.divergences.len(), 1);
        assert_eq!(check_invariants(&replay.state).len(), 1);
    }

    #[test]
    fn revoked_reporter_acceptance_is_the_named_invariant() {
        let events = vec![
            ModelEvent::NodeJoined { node: 6 },
            ModelEvent::RevocationApplied { node: 6 },
            ModelEvent::ReportIntake {
                kind: ReportKind::ListOmission,
                reporter: 6,
                cert_ok: true,
                reporter_revoked: true,
                evidence_ok: true,
                accepted: true,
            },
        ];
        let replay = replay(events);
        let breaches = check_invariants(&replay.state);
        assert!(
            breaches
                .iter()
                .any(|b| b.contains("accepted after the revocation event")),
            "{breaches:?}"
        );
    }

    #[test]
    fn dropper_gate_ignores_revocation_by_design() {
        // The engine's Dropper/FingerManipulation gates deliberately do
        // not consult the revocation list; the model mirrors that.
        let (_, out) = step(
            ModelState {
                revoked: [6].into_iter().collect(),
                ..ModelState::default()
            },
            ModelEvent::ReportIntake {
                kind: ReportKind::Dropper,
                reporter: 6,
                cert_ok: true,
                reporter_revoked: true,
                evidence_ok: true,
                accepted: true,
            },
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ca_forged_receipt_acceptance_is_a_violation() {
        let (state, out) = step(
            ModelState::default(),
            ModelEvent::CaReceiptCheck {
                signer: 3,
                expected_signer: 3,
                flow_ok: true,
                sig_ok: false,
                accepted: true,
            },
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(check_invariants(&state).len(), 1);
    }

    #[test]
    fn departure_clears_per_node_obligations() {
        let events = vec![
            ModelEvent::NodeJoined { node: 1 },
            ModelEvent::AnonSent {
                node: 1,
                flow: 7,
                first: 2,
            },
            ModelEvent::LookupQuery {
                node: 1,
                lookup: 3,
                target: 4,
            },
            ModelEvent::NodeKilled { node: 1 },
        ];
        let replay = replay(events);
        assert!(replay.state.awaiting_receipt.is_empty());
        assert!(replay.state.lookup_target.is_empty());
        assert!(replay.divergences.is_empty());
    }

    #[test]
    fn live_and_revoked_overlap_is_caught() {
        let state = ModelState {
            live: [4].into_iter().collect(),
            revoked: [4].into_iter().collect(),
            ..ModelState::default()
        };
        assert_eq!(check_invariants(&state).len(), 1);
    }

    #[test]
    fn untracked_receipt_expiry_diverges() {
        let (_, out) = step(
            ModelState::default(),
            ModelEvent::ReceiptExpired { node: 1, flow: 7 },
        );
        assert_eq!(out.len(), 1);
    }
}
