//! The certificate authority's investigation logic (§4.3–4.6).
//!
//! The CA receives attack reports, verifies the attached non-repudiation
//! proofs, walks proof chains to find the node that cannot justify its
//! signed statements, and revokes that node's certificate. Its workload
//! — messages received over time — is the quantity Fig. 7(b) plots.
//!
//! Churn tolerance: the CA tracks joins and deaths (fed by the driver,
//! standing in for certificate-issue records and witness probes) and
//! *excuses* inconsistencies explainable by recent churn. That policy is
//! what gives Octopus its zero false-positive rate (Table 2): an honest
//! node is never revoked, because every honest inconsistency traces to a
//! death, a recent join, or a verifiable signed proof.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use octopus_chord::{stabilize, SignedSuccessorList};
use octopus_crypto::{CertificateAuthority, PublicKey, Signature, VerifiedMemo, Verifier};
use octopus_id::NodeId;
use octopus_net::{Addr, NodeBehavior, Runtime};
use octopus_spec::ReportKind;

use crate::config::OctopusConfig;
use crate::messages::{receipt_bytes, Msg, ReceiptToken, Report, Timer};
use crate::mutation::{self, Mutation};
use crate::simnet::{Control, ReportCat, Verdict};
use crate::trace::TraceEvent;

type CaCtx<'a> = dyn Runtime<Msg, Timer, Control> + 'a;

/// An open investigation.
#[derive(Debug)]
enum Case {
    /// Walking a successor-list proof chain (§4.3, Fig. 2(b)).
    ListOmission {
        omitted: NodeId,
        accused: NodeId,
        accused_list: SignedSuccessorList,
        depth: usize,
        category: ReportCat,
    },
    /// Challenging a finger's adoption provenance (§4.4/§4.5): the
    /// accused must produce the signed third-party list that justified
    /// the finger, or be revoked; a provenance whose signer provably
    /// lied costs the adversary that signer instead.
    FingerProv {
        y: NodeId,
        fprime: NodeId,
        ideal: octopus_id::Key,
        z: NodeId,
        /// Timestamp of the reported signed table.
        table_ts: u64,
        category: ReportCat,
    },
    /// Walking a path's forwarding receipts (Appendix II).
    Dropper {
        flow: u64,
        relays: Vec<NodeId>,
        target: NodeId,
        /// Index of the relay currently being asked for its receipt.
        idx: usize,
    },
}

/// The CA actor living inside the simulated network.
pub struct CaNode {
    /// The CA's overlay address (outside the ring id space).
    pub addr: NodeId,
    authority: CertificateAuthority,
    /// Verify-once memo for certificates (reporters' and list signers').
    verifier: Verifier,
    /// Signed lists already verified as evidence, found by
    /// `(owner, timestamp, signature)` and trusted only when the whole
    /// list compares equal: an accused node answers every proof request
    /// with its proof queue, which differs from its previous answer by
    /// a list or two.
    verified_lists: VerifiedMemo<(NodeId, u64, Signature), SignedSuccessorList>,
    /// Signed lists that went through the full stateless verification.
    list_verifications: u64,
    cfg: OctopusConfig,
    pubkeys: BTreeMap<NodeId, PublicKey>,
    live: BTreeSet<NodeId>,
    /// Latest join time (seconds) per node.
    join_times: BTreeMap<NodeId, u64>,
    /// Latest death time (seconds) per node.
    death_times: BTreeMap<NodeId, u64>,
    cases: BTreeMap<u64, Case>,
    /// Receipt-walk strikes per relay: a relay is only revoked as a
    /// dropper on its second strike, so a one-off state-loss race (a
    /// relay that churned and lost its receipts) is never fatal.
    dropper_strikes: BTreeMap<NodeId, u32>,
    next_case: u64,
    /// Total protocol messages received (Fig. 7(b)).
    pub messages_received: u64,
    /// All revocations issued so far.
    pub revoked: Vec<NodeId>,
    /// Addresses to broadcast revocations to (maintained by the driver).
    pub broadcast_to: Vec<NodeId>,
}

/// Certificates the CA remembers as verified: every reporter and every
/// signer of evidence, so the bound is a population, not a neighbourhood.
const CERT_MEMO_CAPACITY: usize = 1 << 16;

/// Verified signed lists the CA remembers (oldest evicted first).
/// Investigations only re-present recent lists, so a couple of thousand
/// cover most of the overlap between successive proof replies, at about
/// half a KiB each.
const LIST_MEMO_CAPACITY: usize = 2048;

/// How much stateless verification the CA has run — what the
/// verify-once tripwire reads (harness observation hook).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyWork {
    /// Signed lists that went through `SignedRoutingTable::verify`.
    pub list_verifications: u64,
    /// Verified signed lists currently remembered.
    pub lists_remembered: usize,
    /// Certificates that went through `Certificate::verify`.
    pub certificate_verifications: u64,
    /// Certificates the CA has issued.
    pub certificates_issued: u64,
}

/// How long after a join/death the CA excuses inconsistencies that the
/// churn explains (stabilization needs a few periods to propagate).
fn churn_excuse_window(cfg: &OctopusConfig) -> u64 {
    (cfg.stabilize_every.as_secs_f64() as u64) * 3 + (cfg.request_timeout.as_secs_f64() as u64) + 2
}

/// Excuse window for finger staleness: a finger may legitimately lag one
/// full update period behind the ring.
fn finger_excuse_window(cfg: &OctopusConfig) -> u64 {
    (cfg.finger_update_every.as_secs_f64() as u64) + 10
}

impl CaNode {
    /// Build the CA actor around an issuing authority.
    #[must_use]
    pub fn new(addr: NodeId, authority: CertificateAuthority, cfg: OctopusConfig) -> Self {
        CaNode {
            addr,
            verifier: Verifier::new(authority.public_key(), CERT_MEMO_CAPACITY),
            verified_lists: VerifiedMemo::new(LIST_MEMO_CAPACITY),
            list_verifications: 0,
            authority,
            cfg,
            pubkeys: BTreeMap::new(),
            live: BTreeSet::new(),
            join_times: BTreeMap::new(),
            death_times: BTreeMap::new(),
            cases: BTreeMap::new(),
            dropper_strikes: BTreeMap::new(),
            next_case: 1,
            messages_received: 0,
            revoked: Vec::new(),
            broadcast_to: Vec::new(),
        }
    }

    /// Issue a certificate for `id` (expiring far in the future —
    /// Octopus certificates are identity-only and churn-independent,
    /// §4.6).
    pub fn issue_cert(&mut self, id: NodeId, key: PublicKey) -> octopus_crypto::Certificate {
        self.authority.issue(id, (id.0 >> 32) as u32, key, u64::MAX)
    }

    /// Issue a certificate for `id` with an explicit expiry. Harness
    /// hook: lets the fuzz oracle craft genuinely stale certificates
    /// signed by the real authority.
    pub fn issue_cert_expiring(
        &mut self,
        id: NodeId,
        key: PublicKey,
        expires_at: u64,
    ) -> octopus_crypto::Certificate {
        self.authority
            .issue(id, (id.0 >> 32) as u32, key, expires_at)
    }

    /// The CA's verification key, known to all nodes.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.authority.public_key()
    }

    /// Driver: register a node's public key at certificate issue.
    pub fn register(&mut self, id: NodeId, key: PublicKey) {
        self.pubkeys.insert(id, key);
    }

    /// Driver: a node joined (or rejoined) at `now` seconds.
    pub fn note_join(&mut self, id: NodeId, now: u64) {
        self.live.insert(id);
        self.join_times.insert(id, now);
    }

    /// Driver: a node died at `now` seconds.
    pub fn note_death(&mut self, id: NodeId, now: u64) {
        self.live.remove(&id);
        self.death_times.insert(id, now);
    }

    /// Is `id` revoked?
    #[must_use]
    pub fn is_revoked(&self, id: NodeId) -> bool {
        self.authority.is_revoked(id)
    }

    /// Verification work done so far (harness observation hook).
    #[must_use]
    pub fn verify_work(&self) -> VerifyWork {
        VerifyWork {
            list_verifications: self.list_verifications,
            lists_remembered: self.verified_lists.len(),
            certificate_verifications: self.verifier.full_verifications(),
            certificates_issued: self.authority.issued_count(),
        }
    }

    /// Forget every memoised verification and remember none from here
    /// on: each check runs the stateless verification. Harness hook —
    /// the reference a memoised run must report identically to.
    pub fn disable_verify_memo(&mut self) {
        self.verifier = Verifier::new(self.verifier.ca_key(), 0);
        self.verified_lists = VerifiedMemo::new(0);
    }

    fn now_secs(ctx: &CaCtx<'_>) -> u64 {
        ctx.now().as_secs_f64() as u64
    }

    /// "Recently churned" — joined or died within the excuse window.
    fn recently_churned(&self, id: NodeId, now: u64, window: u64) -> bool {
        let joined = self
            .join_times
            .get(&id)
            .is_some_and(|&t| now.saturating_sub(t) <= window);
        let died = self
            .death_times
            .get(&id)
            .is_some_and(|&t| now.saturating_sub(t) <= window);
        joined || died
    }

    /// Verify a signed list as *evidence*. Revocation status of the
    /// signer is deliberately not checked: a proof signed by a
    /// since-revoked attacker is exactly the exculpatory evidence an
    /// honest victim needs (non-repudiation outlives revocation).
    ///
    /// A list found in the memo has a good signature under a certificate
    /// the CA signed; what can still change its verdict is the clock, so
    /// expiry is compared on every call.
    fn verify_signed_list(&mut self, list: &SignedSuccessorList, now: u64) -> bool {
        let key = (list.owner(), list.timestamp, list.signature);
        if self.verified_lists.contains(&key, list) {
            return now <= list.certificate.expires_at;
        }
        self.list_verifications += 1;
        let ok = list.verify_with(&mut self.verifier, now).is_ok();
        if ok {
            self.verified_lists.remember(key, list.clone());
        }
        ok
    }

    fn revoke(&mut self, ctx: &mut CaCtx<'_>, id: NodeId, category: ReportCat) {
        if !self.authority.revoke(id) {
            return; // already revoked
        }
        // a revoked node leaves the overlay: treat as a death so later
        // investigations excuse honest nodes for having purged it
        let now = Self::now_secs(ctx);
        self.live.remove(&id);
        self.death_times.insert(id, now);
        self.revoked.push(id);
        ctx.emit(Control::Verdict {
            verdict: Verdict::Revoked(id),
            category,
        });
        // broadcast the revocation so honest nodes purge the attacker;
        // every recipient shares the one list
        let revoked: Arc<[NodeId]> = Arc::from([id]);
        for &n in &self.broadcast_to {
            if n != id && self.live.contains(&n) {
                ctx.send(
                    n,
                    Msg::Revocation {
                        revoked: Arc::clone(&revoked),
                    },
                );
            }
        }
    }

    fn dismiss(&mut self, ctx: &mut CaCtx<'_>, category: ReportCat) {
        ctx.emit(Control::Verdict {
            verdict: Verdict::Dismissed,
            category,
        });
    }

    /// Emit a semantic trace event when the oracle is recording.
    /// Unlike the node-side helper there is no malicious-node filter:
    /// the CA is always honest.
    fn trace(&self, ctx: &mut CaCtx<'_>, ev: impl FnOnce() -> TraceEvent) {
        if self.cfg.trace {
            ctx.emit(Control::Trace(Box::new(ev())));
        }
    }

    /// Emit a [`TraceEvent::CaReceiptCheck`] for one receipt
    /// verification. The validity bits are recomputed directly from the
    /// token so a broken `verify_receipt` cannot hide behind its own
    /// answer.
    fn trace_receipt_check(
        &self,
        ctx: &mut CaCtx<'_>,
        token: &ReceiptToken,
        expected_signer: NodeId,
        flow: u64,
        accepted: bool,
    ) {
        self.trace(ctx, || TraceEvent::CaReceiptCheck {
            signer: token.signer,
            expected_signer,
            flow_ok: token.flow == flow,
            sig_ok: self
                .pubkeys
                .get(&token.signer)
                .is_some_and(|k| k.verify(&receipt_bytes(token.flow), token.sig).is_ok()),
            accepted,
        });
    }

    // ------------------------------------------------------------------
    // Report intake.
    // ------------------------------------------------------------------

    fn on_report(&mut self, ctx: &mut CaCtx<'_>, report: Report) {
        let now = Self::now_secs(ctx);
        match report {
            Report::ListOmission {
                reporter,
                reporter_cert,
                omitted,
                accused_list,
            } => {
                let category = if omitted == reporter {
                    ReportCat::NeighborSurveillance
                } else {
                    ReportCat::FingerUpdate
                };
                // validate the report itself; each gate input is
                // computed on its own so the trace oracle can compare
                // the bits against the accept decision
                let cert_ok = reporter_cert.node_id == reporter
                    && self
                        .verifier
                        .verify_certificate(&Arc::new(reporter_cert), now)
                        .is_ok();
                let reporter_revoked = self.authority.is_revoked(reporter);
                let evidence_ok = self.verify_signed_list(&accused_list, now);
                let accepted = if mutation::is(Mutation::SkipReportCertCheck) {
                    !reporter_revoked && evidence_ok // injected bug
                } else {
                    cert_ok && !reporter_revoked && evidence_ok
                };
                self.trace(ctx, || TraceEvent::ReportIntake {
                    kind: ReportKind::ListOmission,
                    reporter,
                    cert_ok,
                    reporter_revoked,
                    evidence_ok,
                    accepted,
                });
                if !accepted {
                    return; // malformed report: ignore silently
                }
                // the omitted node must be live and stable — otherwise
                // the omission is honest churn (false alarm)
                if !self.live.contains(&omitted)
                    || self.recently_churned(omitted, now, churn_excuse_window(&self.cfg))
                {
                    self.dismiss(ctx, category);
                    return;
                }
                // is the omission real? the list must span past the
                // omitted node yet not contain it
                let list = &accused_list.table.successors;
                let spans = list
                    .last()
                    .is_some_and(|&last| omitted.is_between(accused_list.owner(), last));
                if list.contains(&omitted) || !spans {
                    self.dismiss(ctx, category);
                    return;
                }
                // open a proof-chain case against the list's signer
                self.open_omission_case(ctx, omitted, *accused_list, category);
            }
            Report::FingerManipulation {
                reporter,
                reporter_cert,
                table,
                finger_index,
                finger_pred_list,
                pred_succ_list,
            } => {
                let category = ReportCat::FingerSurveillance;
                let cert_ok = reporter_cert.node_id == reporter
                    && self
                        .verifier
                        .verify_certificate(&Arc::new(reporter_cert), now)
                        .is_ok();
                let evidence_ok = self.verify_signed_list(&table, now)
                    && self.verify_signed_list(&finger_pred_list, now)
                    && self.verify_signed_list(&pred_succ_list, now);
                let accepted = if mutation::is(Mutation::SkipReportCertCheck) {
                    evidence_ok // injected bug
                } else {
                    cert_ok && evidence_ok
                };
                self.trace(ctx, || TraceEvent::ReportIntake {
                    kind: ReportKind::FingerManipulation,
                    reporter,
                    cert_ok,
                    // intake deliberately does not gate on this — the
                    // bit is recorded so the model can check the policy
                    reporter_revoked: self.authority.is_revoked(reporter),
                    evidence_ok,
                    accepted,
                });
                if !accepted {
                    return;
                }
                let y = table.owner();
                let Some(&fprime) = table.table.fingers.get(finger_index as usize) else {
                    return;
                };
                if finger_pred_list.owner() != fprime {
                    return;
                }
                let ideal = self.cfg.chord.finger_target(y, finger_index);
                // find the closer live stable node attested by P′₁
                let closer = pred_succ_list.table.successors.iter().copied().find(|&z| {
                    z != fprime
                        && ideal.distance_to_node(z) < ideal.distance_to_node(fprime)
                        && self.live.contains(&z)
                        && !self.recently_churned(z, now, finger_excuse_window(&self.cfg))
                });
                let Some(z) = closer else {
                    self.dismiss(ctx, category);
                    return;
                };
                // z is live and stable, yet Y's signed finger skips it.
                // Y may itself be an honest victim whose checked
                // adoption was covered by a colluding P′₁ — challenge Y
                // for the adoption provenance before judging (§4.4's
                // "sacrifice either P′₁ or F′ and Y").
                if self.authority.is_revoked(y) {
                    return;
                }
                if !self.live.contains(&y) {
                    self.dismiss(ctx, category);
                    return;
                }
                let case = self.next_case;
                self.next_case += 1;
                self.cases.insert(
                    case,
                    Case::FingerProv {
                        y,
                        fprime,
                        ideal,
                        z,
                        table_ts: table.timestamp,
                        category,
                    },
                );
                ctx.send(
                    y,
                    Msg::CaProvRequest {
                        case,
                        slot: finger_index,
                    },
                );
                ctx.set_timer(self.cfg.request_timeout, Timer::CaCaseTimeout { case });
                // if z should also appear among F′'s claimed
                // predecessors but does not, F′ covered for the
                // manipulation — sacrifice F′ as well
                // Note: §4.4 suggests F′ itself can sometimes be
                // convicted for hiding z among its claimed predecessors,
                // but predecessor lists heal slowly under churn and an
                // honest F′ cannot prove staleness — so we deliberately
                // leave F′ to the other mechanisms (its manipulated
                // successor-list answers are caught by neighbor
                // surveillance) and keep the false-positive rate at zero.
                let _ = finger_pred_list;
            }
            Report::Dropper {
                reporter,
                reporter_cert,
                flow,
                relays,
                target,
                initiator_receipt,
            } => {
                let category = ReportCat::SelectiveDos;
                let cert_ok = reporter_cert.node_id == reporter
                    && self
                        .verifier
                        .verify_certificate(&Arc::new(reporter_cert), now)
                        .is_ok();
                let evidence_ok = !relays.is_empty();
                let accepted = if mutation::is(Mutation::SkipReportCertCheck) {
                    evidence_ok // injected bug
                } else {
                    cert_ok && evidence_ok
                };
                self.trace(ctx, || TraceEvent::ReportIntake {
                    kind: ReportKind::Dropper,
                    reporter,
                    cert_ok,
                    reporter_revoked: self.authority.is_revoked(reporter),
                    evidence_ok,
                    accepted,
                });
                if !accepted {
                    return;
                }
                // the flow must provably have entered the path
                let Some(token) = initiator_receipt else {
                    self.dismiss(ctx, category);
                    return;
                };
                let receipt_ok = self.verify_receipt(&token, relays[0], flow);
                self.trace_receipt_check(ctx, &token, relays[0], flow, receipt_ok);
                if !receipt_ok {
                    self.dismiss(ctx, category);
                    return;
                }
                let case = self.next_case;
                self.next_case += 1;
                self.cases.insert(
                    case,
                    Case::Dropper {
                        flow,
                        relays: relays.clone(),
                        target,
                        idx: 0,
                    },
                );
                ctx.send(relays[0], Msg::CaReceiptRequest { case, flow });
                ctx.set_timer(self.cfg.request_timeout, Timer::CaCaseTimeout { case });
            }
        }
    }

    fn verify_receipt(&self, token: &ReceiptToken, expected_signer: NodeId, flow: u64) -> bool {
        if mutation::is(Mutation::AcceptAnyReceipt) {
            return true; // injected bug: receipts rubber-stamped
        }
        if token.signer != expected_signer || token.flow != flow {
            return false;
        }
        let Some(key) = self.pubkeys.get(&token.signer) else {
            return false;
        };
        key.verify(&receipt_bytes(flow), token.sig).is_ok()
    }

    fn open_omission_case(
        &mut self,
        ctx: &mut CaCtx<'_>,
        omitted: NodeId,
        accused_list: SignedSuccessorList,
        category: ReportCat,
    ) {
        let accused = accused_list.owner();
        if self.authority.is_revoked(accused) {
            return; // already dealt with
        }
        if !self.live.contains(&accused) {
            // churned before investigation; the paper's policy would
            // judge repeat offenders — we dismiss (counts as false alarm)
            self.dismiss(ctx, category);
            return;
        }
        let case = self.next_case;
        self.next_case += 1;
        self.cases.insert(
            case,
            Case::ListOmission {
                omitted,
                accused,
                accused_list,
                depth: 0,
                category,
            },
        );
        ctx.send(accused, Msg::CaProofRequest { case });
        ctx.set_timer(self.cfg.request_timeout, Timer::CaCaseTimeout { case });
    }

    // ------------------------------------------------------------------
    // Proof-chain walking (§4.3).
    // ------------------------------------------------------------------

    fn on_proof_reply(
        &mut self,
        ctx: &mut CaCtx<'_>,
        from: NodeId,
        case_id: u64,
        proofs: Vec<Arc<SignedSuccessorList>>,
    ) {
        let now = Self::now_secs(ctx);
        let Some(Case::ListOmission { accused, .. }) = self.cases.get(&case_id) else {
            return;
        };
        if *accused != from {
            return; // stray or spoofed reply
        }
        let Some(Case::ListOmission {
            omitted,
            accused,
            accused_list,
            depth,
            category,
        }) = self.cases.remove(&case_id)
        else {
            return;
        };
        // The adjudication question is narrow: did the accused have a
        // signed basis for omitting *the subject node* from its list?
        // (Full-list equality would be hopelessly brittle under churn —
        // lists legitimately shrink, heal, and absorb join
        // announcements.) A proof justifies the omission when its merge
        // into the accused's position does not contain the subject; a
        // proof that *does* contain the subject is evidence the accused
        // knew of it. Only contemporaneous proofs — timestamped within
        // the excuse window of the signed list — can adjudicate.
        let window = churn_excuse_window(&self.cfg);
        let k = self.cfg.chord.successors;
        // candidate source proofs: anything contemporaneous with the
        // signed list (timestamps are second-granular, so allow one
        // stabilization period of slack on the new side). Including a
        // too-new proof is harmless: a proof that omits the subject only
        // ever *moves* the accusation to its signer — it never silently
        // exonerates.
        let slack = self.cfg.stabilize_every.as_secs_f64() as u64 + 1;
        let relevant: Vec<&SignedSuccessorList> = proofs
            .iter()
            .map(|p| &**p)
            .filter(|p| {
                p.owner() != accused
                    && p.timestamp <= accused_list.timestamp + slack
                    && accused_list.timestamp.saturating_sub(p.timestamp) <= window * 2
                    && self.verify_signed_list(p, now)
            })
            .collect();
        if relevant.is_empty() {
            self.dismiss(ctx, category);
            return;
        }
        let justifying = relevant.iter().copied().find(|p| {
            let expect =
                stabilize::merge_successor_list(accused, p.owner(), &p.table.successors, k);
            !expect.contains(&omitted)
        });
        match justifying {
            Some(p) => {
                // the accused merged honestly; the misinformation came
                // from the proof's signer — walk the chain (Fig. 2(b))
                let next = p.owner();
                let next_list = p.clone();
                if depth + 1 >= self.cfg.max_proof_chain {
                    // give up: cascading pollution can thread a long
                    // chain of honest victims, so depth alone is not
                    // guilt — close as a false alarm and let fresher
                    // reports against the fabricator converge instead
                    self.dismiss(ctx, category);
                    return;
                }
                // the chain can only continue while the proof itself
                // still *spans past* the omitted node yet omits it; a
                // shorter honest list pins blame on nobody
                let proof_spans = next_list
                    .table
                    .successors
                    .last()
                    .is_some_and(|&last| omitted.is_between(next, last));
                if !proof_spans || next_list.table.successors.contains(&omitted) {
                    self.dismiss(ctx, category);
                    return;
                }
                if self.authority.is_revoked(next) {
                    return;
                }
                if !self.live.contains(&next) {
                    self.dismiss(ctx, category);
                    return;
                }
                let case = self.next_case;
                self.next_case += 1;
                self.cases.insert(
                    case,
                    Case::ListOmission {
                        omitted,
                        accused: next,
                        accused_list: next_list,
                        depth: depth + 1,
                        category,
                    },
                );
                ctx.send(next, Msg::CaProofRequest { case });
                ctx.set_timer(self.cfg.request_timeout, Timer::CaCaseTimeout { case });
            }
            None => {
                // Conviction requires a *fresh* case: if the statement is
                // old enough that the proof queue has rotated past its
                // construction (investigation lag > 10 s), the accused
                // can no longer produce its source proof even when
                // honest — dismiss. Fresh cases are the norm (report +
                // proof request take ~2 s), and there a missing
                // justification is manufactured evidence.
                if now.saturating_sub(accused_list.timestamp) > 10 {
                    self.dismiss(ctx, category);
                    return;
                }
                // no valid proof justifies the signed list: the accused
                // manufactured it
                self.revoke(ctx, accused, category);
            }
        }
    }

    // ------------------------------------------------------------------
    // Receipt walking (Appendix II).
    // ------------------------------------------------------------------

    fn on_receipt_reply(
        &mut self,
        ctx: &mut CaCtx<'_>,
        from: NodeId,
        case_id: u64,
        flow: u64,
        receipt: Option<ReceiptToken>,
    ) {
        let Some(Case::Dropper { relays, idx, .. }) = self.cases.get(&case_id) else {
            return;
        };
        if relays.get(*idx).copied() != Some(from) {
            return;
        }
        let Some(Case::Dropper {
            flow: case_flow,
            relays,
            target,
            idx,
        }) = self.cases.remove(&case_id)
        else {
            return;
        };
        if case_flow != flow {
            return;
        }
        let now = Self::now_secs(ctx);
        let category = ReportCat::SelectiveDos;
        // a flow can die because a relay/target was offline anywhere in
        // its lifetime; rejoin gaps average ~30 s, so the DoS excuse
        // window must be generous — convictions demand parties that were
        // continuously stable around the incident
        let window = churn_excuse_window(&self.cfg) + 60;
        let stable =
            |id: NodeId| self.live.contains(&id) && !self.recently_churned(id, now, window);
        let is_exit = idx + 1 >= relays.len();
        let valid = if is_exit {
            // the exit's "next hop" is the queried target; the target
            // answers queries if alive, so a stable target plus a
            // timed-out flow convicts the exit. (The exit holds no
            // receipt — the plain query protocol has none — so we use
            // target liveness.)
            stable(target)
        } else {
            match receipt {
                Some(t) => {
                    let ok = self.verify_receipt(&t, relays[idx + 1], flow);
                    self.trace_receipt_check(ctx, &t, relays[idx + 1], flow, ok);
                    ok
                }
                None => false,
            }
        };
        if is_exit {
            if valid && stable(relays[idx]) {
                // target alive, exit provably received the flow: exit
                // dropped the query
                self.dropper_strike(ctx, relays[idx], category);
            } else {
                self.dismiss(ctx, category); // a churned party: honest failure
            }
            return;
        }
        if valid {
            // this relay provably handed the flow on — move to the next
            let next = relays[idx + 1];
            if self.authority.is_revoked(next) {
                return;
            }
            if !self.live.contains(&next) {
                self.dismiss(ctx, category);
                return;
            }
            let case = self.next_case;
            self.next_case += 1;
            self.cases.insert(
                case,
                Case::Dropper {
                    flow,
                    relays,
                    target,
                    idx: idx + 1,
                },
            );
            ctx.send(next, Msg::CaReceiptRequest { case, flow });
            ctx.set_timer(self.cfg.request_timeout, Timer::CaCaseTimeout { case });
        } else {
            // no receipt from the next hop: this relay never forwarded
            let next = relays.get(idx + 1).copied().unwrap_or(relays[idx]);
            if stable(next) && stable(relays[idx]) {
                self.dropper_strike(ctx, relays[idx], category);
            } else {
                // the next hop — or this relay itself — churned while
                // the flow was in flight: excusable
                self.dismiss(ctx, category);
            }
        }
    }

    /// The accused answered a finger-provenance challenge.
    fn on_prov_reply(
        &mut self,
        ctx: &mut CaCtx<'_>,
        from: NodeId,
        case_id: u64,
        prov: Option<SignedSuccessorList>,
    ) {
        let now = Self::now_secs(ctx);
        let Some(Case::FingerProv { y, .. }) = self.cases.get(&case_id) else {
            return;
        };
        if *y != from {
            return;
        }
        let Some(Case::FingerProv {
            y,
            fprime,
            ideal,
            z,
            table_ts,
            category,
        }) = self.cases.remove(&case_id)
        else {
            return;
        };
        let Some(list) = prov else {
            // no justification for a finger that skips a stable node
            self.revoke(ctx, y, category);
            return;
        };
        if !self.verify_signed_list(&list, now) {
            self.revoke(ctx, y, category);
            return;
        }
        // does the list actually justify the adoption? no member may sit
        // in the gap [ideal, F′)
        let justifies =
            !list.table.successors.iter().any(|&m| {
                m != fprime && ideal.distance_to_node(m) < ideal.distance_to_node(fprime)
            });
        if !justifies {
            // provenance that admits a closer node means the finger has
            // since been refreshed (or the node's bookkeeping is stale) —
            // either way the report concerned superseded state, not a
            // live manipulation. A manipulating node would have
            // fabricated *justifying* provenance instead.
            let _ = table_ts;
            self.dismiss(ctx, category);
            return;
        }
        // the signer vouched "nothing closer than F′" — if z was already
        // stable when it signed and z falls inside its successor span,
        // the signer lied: sacrifice the signer (the covering P′₁)
        let signer = list.owner();
        let z_in_span = list
            .table
            .successors
            .last()
            .is_some_and(|&last| z.is_between(signer, last) || z == last);
        let window = churn_excuse_window(&self.cfg);
        let z_stable_then = self
            .join_times
            .get(&z)
            .is_some_and(|&t| list.timestamp.saturating_sub(t) > window)
            || !self.join_times.contains_key(&z);
        if z_in_span && z_stable_then && signer != y {
            // the signer vouched for a list omitting a stable node — but
            // it may itself be an honest victim of successor-list
            // pollution, so walk its proof chain instead of revoking
            // outright; the walk terminates at the fabricator (§4.3)
            self.open_omission_case(ctx, z, list, category);
        } else {
            self.dismiss(ctx, category);
        }
    }

    /// Record a dropper strike; revoke on the second.
    fn dropper_strike(&mut self, ctx: &mut CaCtx<'_>, id: NodeId, category: ReportCat) {
        let strikes = self.dropper_strikes.entry(id).or_insert(0);
        *strikes += 1;
        if *strikes >= 2 {
            self.revoke(ctx, id, category);
        } else {
            self.dismiss(ctx, category);
        }
    }

    fn on_case_timeout(&mut self, ctx: &mut CaCtx<'_>, case_id: u64) {
        let Some(case) = self.cases.remove(&case_id) else {
            return;
        };
        let (accused, category) = match &case {
            Case::ListOmission {
                accused, category, ..
            } => (*accused, *category),
            Case::FingerProv { y, category, .. } => (*y, *category),
            Case::Dropper { relays, idx, .. } => (relays[*idx], ReportCat::SelectiveDos),
        };
        let now = Self::now_secs(ctx);
        if self.live.contains(&accused)
            && !self.recently_churned(accused, now, churn_excuse_window(&self.cfg))
        {
            // alive, stable, yet stonewalling the CA: evasion is an
            // admission. (A recently churned node may simply have missed
            // the request.)
            self.revoke(ctx, accused, category);
        } else {
            self.dismiss(ctx, category);
        }
    }
}

/// Is `list` obtainable as `merge(owner, proof_owner, proof_list, k)`
/// modulo insertions/removals excusable by churn?
///
/// This *full-list* consistency check is stricter than the omission
/// adjudication the CA uses in production (see `on_proof_reply`) — under
/// churn, honest lists legitimately diverge from any single retained
/// proof. It is compiled for the tests only, as the reference semantics
/// of the merge rule.
#[cfg(test)]
fn list_consistent(
    owner: NodeId,
    list: &[NodeId],
    proof_owner: NodeId,
    proof_list: &[NodeId],
    k: usize,
    excused: &impl Fn(NodeId) -> bool,
) -> bool {
    let expect = stabilize::merge_successor_list(owner, proof_owner, proof_list, k);
    let mut i = 0usize; // cursor into `list`
    for e in expect {
        if i >= list.len() {
            if list.len() >= k {
                // the list is full: later expected entries were
                // legitimately truncated away by out-of-band insertions
                // (join announcements). Soundness is preserved because
                // the intake check requires the omitted node to lie
                // *within* the list's span — truncation can only drop
                // entries beyond it.
                return true;
            }
            if excused(e) {
                continue;
            }
            return false;
        }
        if list[i] == e {
            i += 1;
            continue;
        }
        // skip excusable extras in the list (recent joins learned out of
        // band) as long as they don't match the expected entry
        let mut j = i;
        while j < list.len() && excused(list[j]) && list[j] != e {
            j += 1;
        }
        if j < list.len() && list[j] == e {
            i = j + 1;
            continue;
        }
        // the expected entry itself may be excusable (dead / churned /
        // unknowable at signing time)
        if excused(e) {
            continue;
        }
        return false;
    }
    // remaining entries must all be excusable (recent joins)
    list[i..].iter().all(|&l| excused(l))
}

impl NodeBehavior for CaNode {
    type Msg = Msg;
    type Timer = Timer;
    type Control = Control;

    fn on_message(&mut self, ctx: &mut CaCtx<'_>, from: Addr, msg: Msg) {
        self.messages_received += 1;
        ctx.emit(Control::CaReceived);
        match msg {
            Msg::Report(r) => self.on_report(ctx, *r),
            Msg::CaProofReply { case, proofs, .. } => {
                self.on_proof_reply(ctx, from, case, proofs);
            }
            Msg::CaReceiptReply {
                case,
                flow,
                receipt,
            } => {
                self.on_receipt_reply(ctx, from, case, flow, receipt);
            }
            Msg::CaProvReply { case, prov } => {
                self.on_prov_reply(ctx, from, case, prov.map(|b| *b));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut CaCtx<'_>, timer: Timer) {
        if let Timer::CaCaseTimeout { case } = timer {
            self.on_case_timeout(ctx, case);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_chord::signed::successor_list_table;
    use octopus_chord::SignedRoutingTable;
    use octopus_crypto::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// The memo must be invisible: whatever signed lists the CA is shown,
    /// in whatever order and however often, `verify_signed_list` answers
    /// as the stateless `SignedRoutingTable::verify` does. All but one
    /// of the lists share the memo key `(owner, timestamp, signature)`
    /// of the honest one, so only whole-list equality tells them apart.
    #[test]
    fn list_memo_agrees_with_stateless_verify_in_every_order() {
        let mut rng = StdRng::seed_from_u64(0x4c49_5354);
        let mut authority = CertificateAuthority::new(&mut rng);
        let mut foreign_authority = CertificateAuthority::new(&mut rng);
        let ca_key = authority.public_key();
        let (a, b) = (NodeId(100), NodeId(200));
        let (kp_a, kp_b) = (KeyPair::generate(&mut rng), KeyPair::generate(&mut rng));
        let cert_a = authority.issue(a, 1, kp_a.public(), u64::MAX);
        let cert_a_short = authority.issue(a, 1, kp_a.public(), 500);
        let cert_b = authority.issue(b, 2, kp_b.public(), u64::MAX);
        let cert_a_foreign = foreign_authority.issue(a, 1, kp_a.public(), u64::MAX);

        let table = || successor_list_table(a, vec![NodeId(110), NodeId(120), NodeId(130)]);
        let valid = SignedRoutingTable::sign(table(), 90, &kp_a, cert_a);
        let mut flipped = valid.clone();
        flipped.signature = Signature(valid.signature.0 ^ 1);
        let mut tampered = valid.clone();
        tampered.table.successors[1] = NodeId(125);
        let mut stolen = valid.clone();
        stolen.certificate = Arc::new(cert_b);
        let mut foreign = valid.clone();
        foreign.certificate = Arc::new(cert_a_foreign);
        // the same statement under a re-issued certificate: valid while
        // that certificate lasts, and a different list to the memo
        let mut reissued = valid.clone();
        reissued.certificate = Arc::new(cert_a_short);
        let cases = [
            ("valid", &valid, 100),
            ("bit-flipped signature", &flipped, 100),
            ("same key, other successors", &tampered, 100),
            ("another node's certificate", &stolen, 100),
            ("foreign CA", &foreign, 100),
            ("re-issued certificate, in time", &reissued, 400),
            ("re-issued certificate, expired", &reissued, 501),
        ];
        let stateless: Vec<bool> = cases
            .iter()
            .map(|(_, list, now)| list.verify(ca_key, *now).is_ok())
            .collect();
        assert_eq!(
            stateless,
            [true, false, false, false, false, true, false],
            "the fixture covers both verdicts"
        );

        let mut ca = CaNode::new(NodeId(1), authority, OctopusConfig::default());
        for order in permutations(cases.len()) {
            // the memo stays warm across orders: every order after the
            // first starts against whatever the previous ones left
            for &i in order.iter().chain(&order) {
                let (what, list, now) = cases[i];
                assert_eq!(
                    ca.verify_signed_list(list, now),
                    stateless[i],
                    "{what} in order {order:?}"
                );
            }
        }
        // the two lists that ever passed share a key, so one is held
        assert_eq!(ca.verified_lists.len(), 1);
    }

    /// Work, not verdicts: a list shown again costs no verification, a
    /// rejected one costs one every time.
    #[test]
    fn list_memo_verifies_each_distinct_list_once() {
        let mut rng = StdRng::seed_from_u64(0x4f4e_4345);
        let mut authority = CertificateAuthority::new(&mut rng);
        let kp = KeyPair::generate(&mut rng);
        let owner = NodeId(7);
        let cert = authority.issue(owner, 1, kp.public(), u64::MAX);
        let mut ca = CaNode::new(NodeId(1), authority, OctopusConfig::default());
        let lists: Vec<SignedRoutingTable> = (0..5u64)
            .map(|t| {
                let table = successor_list_table(owner, vec![NodeId(8 + t), NodeId(20)]);
                SignedRoutingTable::sign(table, t, &kp, cert)
            })
            .collect();
        for _ in 0..4 {
            for list in &lists {
                assert!(ca.verify_signed_list(list, 10));
            }
        }
        assert_eq!(ca.verify_work().list_verifications, 5);
        assert_eq!(ca.verify_work().certificate_verifications, 1);
        let mut forged = lists[0].clone();
        forged.table.successors.push(NodeId(99));
        for _ in 0..3 {
            assert!(!ca.verify_signed_list(&forged, 10));
        }
        assert_eq!(ca.verify_work().list_verifications, 8);
        assert_eq!(ca.verify_work().certificate_verifications, 1);
    }

    #[test]
    fn list_consistent_exact_merge() {
        let owner = NodeId(10);
        let proof = vec![NodeId(30), NodeId(40), NodeId(50)];
        let list = stabilize::merge_successor_list(owner, NodeId(20), &proof, 4);
        assert!(list_consistent(
            owner,
            &list,
            NodeId(20),
            &proof,
            4,
            &|_| false
        ));
    }

    #[test]
    fn list_consistent_allows_excused_removal() {
        let owner = NodeId(10);
        let proof = vec![NodeId(30), NodeId(40), NodeId(50)];
        // owner dropped dead node 40
        let list = vec![NodeId(20), NodeId(30), NodeId(50)];
        assert!(list_consistent(
            owner,
            &list,
            NodeId(20),
            &proof,
            4,
            &|id| id == NodeId(40)
        ));
        // without the excuse the removal is damning
        assert!(!list_consistent(
            owner,
            &list,
            NodeId(20),
            &proof,
            4,
            &|_| false
        ));
    }

    #[test]
    fn list_consistent_rejects_fabricated_entries() {
        let owner = NodeId(10);
        let proof = vec![NodeId(30)];
        // owner's list claims a node the proof never mentioned
        let list = vec![NodeId(20), NodeId(25), NodeId(30)];
        assert!(!list_consistent(
            owner,
            &list,
            NodeId(20),
            &proof,
            4,
            &|_| false
        ));
        // unless that node just joined
        assert!(list_consistent(
            owner,
            &list,
            NodeId(20),
            &proof,
            4,
            &|id| id == NodeId(25)
        ));
    }

    #[test]
    fn list_consistent_rejects_omission() {
        let owner = NodeId(10);
        let proof = vec![NodeId(30), NodeId(40)];
        // owner silently removed live node 30
        let list = vec![NodeId(20), NodeId(40)];
        assert!(!list_consistent(
            owner,
            &list,
            NodeId(20),
            &proof,
            4,
            &|_| false
        ));
    }
}
