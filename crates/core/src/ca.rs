//! The certificate authority's investigation logic (§4.3–4.6).
//!
//! The CA receives attack reports, verifies the attached non-repudiation
//! proofs, walks proof chains to find the node that cannot justify its
//! signed statements, and revokes that node's certificate. Its workload
//! — messages received over time — is the quantity Fig. 7(b) plots.
//!
//! One gate and one lifecycle serve all three investigations (the §4.3
//! proof-chain walk, the §4.4–4.5 finger-provenance challenge and the
//! Appendix II receipt walk). Every report passes `admit`: the
//! reporter's certificate, then the evidence, then one `ReportIntake`
//! trace. Every case knows the party it waits on, the request it sends
//! and its category; `open_case` sends that request and arms the
//! deadline, `pursue` first drops a case against a revoked party and
//! dismisses one against a departed party, and `on_reply` closes a case
//! only when its awaited party answers what was asked, flow included.
//! Any other reply leaves the case to `on_case_timeout`, which revokes an
//! awaited party that is live and stable. The CA judges omissions and
//! skipped fingers by the rules surveillance files them by
//! (`surveillance::omits` and `surveillance::skips`).
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
use octopus_crypto::{
    Certificate, CertificateAuthority, PublicKey, Signature, VerifiedMemo, Verifier,
};
use octopus_id::{Key, NodeId};
use octopus_net::{Addr, NodeBehavior, Runtime};
use octopus_spec::{ModelEvent, ReportKind};

use crate::config::OctopusConfig;
use crate::messages::{receipt_bytes, Msg, ReceiptToken, Report, Timer};
use crate::mutation::{self, Mutation};
use crate::simnet::{Control, ReportCat, Verdict};
use crate::surveillance::{omits, skips};

type CaCtx<'a> = dyn Runtime<Msg, Timer, Control> + 'a;

/// An open investigation.
#[derive(Debug)]
enum Case {
    /// Walking a successor-list proof chain (§4.3, Fig. 2(b)): the
    /// list's signer must show the proofs it merged.
    ListOmission {
        omitted: NodeId,
        accused_list: SignedSuccessorList,
        depth: usize,
        category: ReportCat,
    },
    /// Challenging the adoption provenance of finger `slot` of `y`
    /// (§4.4/§4.5): `y` must produce the signed third-party list that
    /// justified the finger, or be revoked; a provenance whose signer
    /// provably lied costs the adversary that signer instead.
    FingerProv {
        y: NodeId,
        fprime: NodeId,
        ideal: Key,
        z: NodeId,
        slot: u32,
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

impl Case {
    /// The party the case waits on, and whom its deadline judges.
    fn awaited(&self) -> NodeId {
        match self {
            Case::ListOmission { accused_list, .. } => accused_list.owner(),
            Case::FingerProv { y, .. } => *y,
            Case::Dropper { relays, idx, .. } => relays[*idx],
        }
    }

    /// The mechanism whose report opened the case.
    fn category(&self) -> ReportCat {
        match self {
            Case::ListOmission { category, .. } => *category,
            Case::FingerProv { .. } => ReportCat::FingerSurveillance,
            Case::Dropper { .. } => ReportCat::SelectiveDos,
        }
    }

    /// The request that asks the awaited party about case `id`.
    fn request(&self, id: u64) -> Msg {
        match *self {
            Case::ListOmission { .. } => Msg::CaProofRequest { case: id },
            Case::FingerProv { slot, .. } => Msg::CaProvRequest { case: id, slot },
            Case::Dropper { flow, .. } => Msg::CaReceiptRequest { case: id, flow },
        }
    }

    /// Does `reply` answer the request? A receipt reply about another
    /// flow answers nothing, however valid its receipt.
    fn answered_by(&self, reply: &Msg) -> bool {
        match (self, reply) {
            (Case::ListOmission { .. }, Msg::CaProofReply { .. })
            | (Case::FingerProv { .. }, Msg::CaProvReply { .. }) => true,
            (Case::Dropper { flow, .. }, Msg::CaReceiptReply { flow: told, .. }) => flow == told,
            _ => false,
        }
    }
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

/// Maximum proof-chain length the CA walks before giving up.
const MAX_PROOF_CHAIN: usize = 8;

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

    /// Live, and neither joined nor died within `window` seconds of
    /// `now`: a node that churned recently may honestly have missed a
    /// message.
    fn stable(&self, id: NodeId, now: u64, window: u64) -> bool {
        let churned = |times: &BTreeMap<NodeId, u64>| {
            times
                .get(&id)
                .is_some_and(|&t| now.saturating_sub(t) <= window)
        };
        self.live.contains(&id) && !churned(&self.join_times) && !churned(&self.death_times)
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

    /// Does `token` prove that `expected_signer` received `flow`? Emits
    /// a [`ModelEvent::CaReceiptCheck`] whose validity bits are
    /// recomputed directly from the token, so a broken check cannot
    /// hide behind its own answer.
    fn verify_receipt(
        &self,
        ctx: &mut CaCtx<'_>,
        token: &ReceiptToken,
        expected_signer: NodeId,
        flow: u64,
    ) -> bool {
        let sig_ok = |t: &ReceiptToken| {
            self.pubkeys
                .get(&t.signer)
                .is_some_and(|k| k.verify(&receipt_bytes(t.flow), t.sig).is_ok())
        };
        // injected bug: receipts rubber-stamped
        let accepted = mutation::is(Mutation::AcceptAnyReceipt)
            || (token.signer == expected_signer && token.flow == flow && sig_ok(token));
        self.trace(ctx, || ModelEvent::CaReceiptCheck {
            signer: token.signer.0,
            expected_signer: expected_signer.0,
            flow_ok: token.flow == flow,
            sig_ok: sig_ok(token),
            accepted,
        });
        accepted
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

    /// Emit a [`ModelEvent`] when the oracle is recording, under the
    /// node-side helper's rules (`OctopusNode::trace`), except that
    /// there is no malicious-node filter: the CA is always honest.
    fn trace(&self, ctx: &mut CaCtx<'_>, ev: impl FnOnce() -> ModelEvent) {
        if self.cfg.trace {
            ctx.emit(Control::Trace(Box::new(ev())));
        }
    }

    // ------------------------------------------------------------------
    // Report intake.
    // ------------------------------------------------------------------

    /// The gate every report passes. Each input is computed whatever the
    /// others read, so the trace oracle can compare every bit against
    /// the decision: the reporter's certificate, whether the reporter is
    /// revoked, then `evidence`. Only a list omission bars a revoked
    /// reporter; the bit is traced for the others so the model can check
    /// that policy.
    fn admit(
        &mut self,
        ctx: &mut CaCtx<'_>,
        kind: ReportKind,
        reporter: NodeId,
        reporter_cert: Certificate,
        evidence: impl FnOnce(&mut Self, u64) -> bool,
    ) -> bool {
        let now = Self::now_secs(ctx);
        let cert_ok = reporter_cert.node_id == reporter
            && self
                .verifier
                .verify_certificate(&Arc::new(reporter_cert), now)
                .is_ok();
        let reporter_revoked = self.authority.is_revoked(reporter);
        let evidence_ok = evidence(self, now);
        let barred = kind == ReportKind::ListOmission && reporter_revoked;
        // injected bug: the certificate is checked, then ignored
        let accepted =
            (cert_ok || mutation::is(Mutation::SkipReportCertCheck)) && !barred && evidence_ok;
        self.trace(ctx, || ModelEvent::ReportIntake {
            kind,
            reporter: reporter.0,
            cert_ok,
            reporter_revoked,
            evidence_ok,
            accepted,
        });
        accepted
    }

    fn on_report(&mut self, ctx: &mut CaCtx<'_>, report: Report) {
        let now = Self::now_secs(ctx);
        match report {
            Report::ListOmission {
                reporter,
                reporter_cert,
                omitted,
                accused_list,
            } => {
                let evidence = |ca: &mut Self, now| ca.verify_signed_list(&accused_list, now);
                let kind = ReportKind::ListOmission;
                if !self.admit(ctx, kind, reporter, reporter_cert, evidence) {
                    return; // malformed report: ignore silently
                }
                let category = if omitted == reporter {
                    ReportCat::NeighborSurveillance
                } else {
                    ReportCat::FingerUpdate
                };
                // the omitted node must be live and stable — otherwise
                // the omission is honest churn (false alarm) — and the
                // list must really omit it
                if !self.stable(omitted, now, churn_excuse_window(&self.cfg))
                    || !omits(&accused_list, omitted)
                {
                    self.dismiss(ctx, category);
                    return;
                }
                // open a proof-chain case against the list's signer
                let case = Case::ListOmission {
                    omitted,
                    accused_list: *accused_list,
                    depth: 0,
                    category,
                };
                self.pursue(ctx, case);
            }
            Report::FingerManipulation {
                reporter,
                reporter_cert,
                table,
                finger_index,
                finger_pred_list,
                pred_succ_list,
            } => {
                let evidence = |ca: &mut Self, now| {
                    ca.verify_signed_list(&table, now)
                        && ca.verify_signed_list(&finger_pred_list, now)
                        && ca.verify_signed_list(&pred_succ_list, now)
                };
                let kind = ReportKind::FingerManipulation;
                if !self.admit(ctx, kind, reporter, reporter_cert, evidence) {
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
                let window = finger_excuse_window(&self.cfg);
                let closer = pred_succ_list
                    .table
                    .successors
                    .iter()
                    .copied()
                    .find(|&z| skips(ideal, fprime, z) && self.stable(z, now, window));
                let Some(z) = closer else {
                    self.dismiss(ctx, ReportCat::FingerSurveillance);
                    return;
                };
                // z is live and stable, yet Y's signed finger skips it.
                // Y may itself be an honest victim whose checked
                // adoption was covered by a colluding P′₁ — challenge Y
                // for the adoption provenance before judging (§4.4's
                // "sacrifice either P′₁ or F′ and Y").
                let case = Case::FingerProv {
                    y,
                    fprime,
                    ideal,
                    z,
                    slot: finger_index,
                };
                self.pursue(ctx, case);
                // Note: §4.4 suggests F′ itself can sometimes be
                // convicted for hiding z among its claimed predecessors,
                // but predecessor lists heal slowly under churn and an
                // honest F′ cannot prove staleness — so we deliberately
                // leave F′ to the other mechanisms (its manipulated
                // successor-list answers are caught by neighbor
                // surveillance) and keep the false-positive rate at zero.
            }
            Report::Dropper {
                reporter,
                reporter_cert,
                flow,
                relays,
                target,
                initiator_receipt,
            } => {
                let evidence = |_: &mut Self, _| !relays.is_empty();
                if !self.admit(ctx, ReportKind::Dropper, reporter, reporter_cert, evidence) {
                    return;
                }
                // the flow must provably have entered the path
                let entered = initiator_receipt
                    .is_some_and(|token| self.verify_receipt(ctx, &token, relays[0], flow));
                if entered {
                    let case = Case::Dropper {
                        flow,
                        relays,
                        target,
                        idx: 0,
                    };
                    self.open_case(ctx, case);
                } else {
                    self.dismiss(ctx, ReportCat::SelectiveDos);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The case lifecycle.
    // ------------------------------------------------------------------

    /// Ask the case's awaited party and arm its deadline.
    fn open_case(&mut self, ctx: &mut CaCtx<'_>, case: Case) {
        let id = self.next_case;
        self.next_case += 1;
        ctx.send(case.awaited(), case.request(id));
        ctx.set_timer(self.cfg.request_timeout, Timer::CaCaseTimeout { case: id });
        self.cases.insert(id, case);
    }

    /// Open `case` unless its party is already dealt with (revoked: drop
    /// it) or gone (it churned before the investigation: dismiss, a
    /// false alarm).
    fn pursue(&mut self, ctx: &mut CaCtx<'_>, case: Case) {
        let party = case.awaited();
        if self.authority.is_revoked(party) {
            return;
        }
        if !self.live.contains(&party) {
            self.dismiss(ctx, case.category());
            return;
        }
        self.open_case(ctx, case);
    }

    /// The one entry for replies. A case closes only when its awaited
    /// party answers what it was asked; a stray, spoofed or off-topic
    /// reply leaves the case to its deadline.
    fn on_reply(&mut self, ctx: &mut CaCtx<'_>, from: NodeId, id: u64, reply: Msg) {
        let answers = self
            .cases
            .get(&id)
            .is_some_and(|case| case.awaited() == from && case.answered_by(&reply));
        if !answers {
            return;
        }
        match (self.cases.remove(&id), reply) {
            (
                Some(Case::ListOmission {
                    omitted,
                    accused_list,
                    depth,
                    category,
                }),
                Msg::CaProofReply { proofs, .. },
            ) => self.judge_proofs(ctx, omitted, &accused_list, depth, category, &proofs),
            (
                Some(Case::FingerProv {
                    y,
                    fprime,
                    ideal,
                    z,
                    ..
                }),
                Msg::CaProvReply { prov, .. },
            ) => self.judge_prov(ctx, y, fprime, ideal, z, prov),
            (
                Some(Case::Dropper {
                    flow,
                    relays,
                    target,
                    idx,
                }),
                Msg::CaReceiptReply { receipt, .. },
            ) => self.judge_receipt(ctx, flow, relays, target, idx, receipt),
            _ => {} // `answered_by` admits no other pairing
        }
    }

    fn on_case_timeout(&mut self, ctx: &mut CaCtx<'_>, id: u64) {
        let Some(case) = self.cases.remove(&id) else {
            return;
        };
        let (accused, category) = (case.awaited(), case.category());
        let now = Self::now_secs(ctx);
        if self.stable(accused, now, churn_excuse_window(&self.cfg)) {
            // alive, stable, yet stonewalling the CA: evasion is an
            // admission. (A recently churned node may simply have missed
            // the request.)
            self.revoke(ctx, accused, category);
        } else {
            self.dismiss(ctx, category);
        }
    }

    // ------------------------------------------------------------------
    // Proof-chain walking (§4.3).
    // ------------------------------------------------------------------

    fn judge_proofs(
        &mut self,
        ctx: &mut CaCtx<'_>,
        omitted: NodeId,
        accused_list: &SignedSuccessorList,
        depth: usize,
        category: ReportCat,
        proofs: &[Arc<SignedSuccessorList>],
    ) {
        let now = Self::now_secs(ctx);
        let accused = accused_list.owner();
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
                // from the proof's signer — walk the chain (Fig. 2(b)).
                // Give up at the depth bound: cascading pollution can
                // thread a long chain of honest victims, so depth alone
                // is not guilt — close as a false alarm and let fresher
                // reports against the fabricator converge instead. The
                // chain can only continue while the proof itself still
                // omits the node it spans past; a shorter honest list
                // pins blame on nobody.
                if depth + 1 >= MAX_PROOF_CHAIN || !omits(p, omitted) {
                    self.dismiss(ctx, category);
                    return;
                }
                let case = Case::ListOmission {
                    omitted,
                    accused_list: p.clone(),
                    depth: depth + 1,
                    category,
                };
                self.pursue(ctx, case);
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
    // Finger provenance (§4.4/§4.5).
    // ------------------------------------------------------------------

    /// `y` answered a challenge of its finger `fprime`, which skips the
    /// live stable `z`.
    fn judge_prov(
        &mut self,
        ctx: &mut CaCtx<'_>,
        y: NodeId,
        fprime: NodeId,
        ideal: Key,
        z: NodeId,
        prov: Option<Box<SignedSuccessorList>>,
    ) {
        let now = Self::now_secs(ctx);
        let category = ReportCat::FingerSurveillance;
        let Some(list) = prov.filter(|list| self.verify_signed_list(list, now)) else {
            // no justification for a finger that skips a stable node
            self.revoke(ctx, y, category);
            return;
        };
        // does the list actually justify the adoption? no member may sit
        // in the gap [ideal, F′)
        if list
            .table
            .successors
            .iter()
            .any(|&m| skips(ideal, fprime, m))
        {
            // provenance that admits a closer node means the finger has
            // since been refreshed (or the node's bookkeeping is stale) —
            // either way the report concerned superseded state, not a
            // live manipulation. A manipulating node would have
            // fabricated *justifying* provenance instead.
            self.dismiss(ctx, category);
            return;
        }
        // the signer vouched "nothing closer than F′" — if z was already
        // stable when it signed and its list spans past z, the signer
        // lied: sacrifice the signer (the covering P′₁)
        let window = churn_excuse_window(&self.cfg);
        let z_stable_then = self
            .join_times
            .get(&z)
            .is_none_or(|&t| list.timestamp.saturating_sub(t) > window);
        if list.owner() != y && z_stable_then && omits(&list, z) {
            // the signer vouched for a list omitting a stable node — but
            // it may itself be an honest victim of successor-list
            // pollution, so walk its proof chain instead of revoking
            // outright; the walk terminates at the fabricator (§4.3)
            let case = Case::ListOmission {
                omitted: z,
                accused_list: *list,
                depth: 0,
                category,
            };
            self.pursue(ctx, case);
        } else {
            self.dismiss(ctx, category);
        }
    }

    // ------------------------------------------------------------------
    // Receipt walking (Appendix II).
    // ------------------------------------------------------------------

    /// `relays[idx]` answered for `flow`, showing the receipt its next
    /// hop signed, if it holds one.
    fn judge_receipt(
        &mut self,
        ctx: &mut CaCtx<'_>,
        flow: u64,
        relays: Vec<NodeId>,
        target: NodeId,
        idx: usize,
        receipt: Option<ReceiptToken>,
    ) {
        let now = Self::now_secs(ctx);
        let category = ReportCat::SelectiveDos;
        let relay = relays[idx];
        // the exit's "next hop" is the queried target, which answers
        // queries if alive; the exit holds no receipt (the plain query
        // protocol has none), so a stable target plus a timed-out flow
        // convicts the exit
        let next = relays.get(idx + 1).copied();
        if let (Some(next), Some(token)) = (next, receipt) {
            if self.verify_receipt(ctx, &token, next, flow) {
                // this relay provably handed the flow on — ask the next
                let case = Case::Dropper {
                    flow,
                    relays,
                    target,
                    idx: idx + 1,
                };
                self.pursue(ctx, case);
                return;
            }
        }
        // a flow can die because a relay/target was offline anywhere in
        // its lifetime; rejoin gaps average ~30 s, so the DoS excuse
        // window must be generous — convictions demand parties that were
        // continuously stable around the incident
        let window = churn_excuse_window(&self.cfg) + 60;
        if self.stable(next.unwrap_or(target), now, window) && self.stable(relay, now, window) {
            // the relay provably received the flow and its stable next
            // hop never did: it dropped the flow
            self.dropper_strike(ctx, relay, category);
        } else {
            // the next hop — or this relay itself — churned while the
            // flow was in flight: excusable
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
}

/// Is `list` obtainable as `merge(owner, proof_owner, proof_list, k)`
/// modulo insertions/removals excusable by churn?
///
/// This *full-list* consistency check is stricter than the omission
/// adjudication the CA uses in production (see `judge_proofs`) — under
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
        ctx.emit(Control::CaReceived);
        match msg {
            Msg::Report(r) => self.on_report(ctx, *r),
            Msg::CaProofReply { case, .. }
            | Msg::CaReceiptReply { case, .. }
            | Msg::CaProvReply { case, .. } => self.on_reply(ctx, from, case, msg),
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
    use octopus_net::Ctx;
    use octopus_sim::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CA: NodeId = NodeId(1);

    /// When the lifecycle tests call the CA: long after every peer
    /// joined, at 0 s, so each is stable.
    const NOW: u64 = 1_000;

    /// A CA that knows `peers` (their keys, and a join at 0 s), with
    /// their key pairs in the same order.
    fn ca_knowing(peers: &[NodeId]) -> (CaNode, Vec<KeyPair>) {
        let mut rng = StdRng::seed_from_u64(0x4341);
        let authority = CertificateAuthority::new(&mut rng);
        let mut ca = CaNode::new(CA, authority, OctopusConfig::default());
        let keys = peers
            .iter()
            .map(|&id| {
                let kp = KeyPair::generate(&mut rng);
                ca.register(id, kp.public());
                ca.note_join(id, 0);
                kp
            })
            .collect();
        (ca, keys)
    }

    /// Call one handler at `NOW`: what it sent, and the verdicts it
    /// emitted. Its timers are dropped; a test fires a deadline itself.
    fn call(
        ca: &mut CaNode,
        f: impl FnOnce(&mut CaNode, &mut CaCtx<'_>),
    ) -> (Vec<(Addr, Msg)>, Vec<Verdict>) {
        let mut rng = StdRng::seed_from_u64(0);
        let (mut sent, mut timers, mut controls) = (Vec::new(), Vec::new(), Vec::new());
        let now = SimTime::from_secs(NOW);
        f(
            ca,
            &mut Ctx::from_parts(now, CA, &mut rng, &mut sent, &mut timers, &mut controls),
        );
        let sent = sent.into_iter().map(|(to, msg, _)| (to, msg)).collect();
        let verdicts = controls
            .into_iter()
            .filter_map(|c| match c {
                Control::Verdict { verdict, .. } => Some(verdict),
                _ => None,
            })
            .collect();
        (sent, verdicts)
    }

    /// Deliver `msg` from `from`; the verdicts it drew.
    fn deliver(ca: &mut CaNode, from: NodeId, msg: Msg) -> (Vec<(Addr, Msg)>, Vec<Verdict>) {
        call(ca, |ca, ctx| ca.on_message(ctx, from, msg))
    }

    /// Fire case `case`'s deadline; the verdicts it drew.
    fn deadline(ca: &mut CaNode, case: u64) -> Vec<Verdict> {
        call(ca, |ca, ctx| {
            ca.on_timer(ctx, Timer::CaCaseTimeout { case })
        })
        .1
    }

    fn receipt(signer: NodeId, kp: &KeyPair, flow: u64) -> ReceiptToken {
        ReceiptToken {
            flow,
            signer,
            sig: kp.sign(&receipt_bytes(flow)),
        }
    }

    /// File a dropper report for `flow` over `relays` (the first relay's
    /// receipt attached) and return the case it opened.
    fn open_receipt_walk(
        ca: &mut CaNode,
        reporter: (NodeId, &KeyPair),
        relays: (NodeId, &KeyPair, NodeId),
        flow: u64,
    ) -> u64 {
        let report = Report::Dropper {
            reporter: reporter.0,
            reporter_cert: ca.issue_cert(reporter.0, reporter.1.public()),
            flow,
            relays: vec![relays.0, relays.2],
            target: NodeId(999),
            initiator_receipt: Some(receipt(relays.0, relays.1, flow)),
        };
        let (sent, verdicts) = deliver(ca, reporter.0, Msg::Report(Box::new(report)));
        assert!(verdicts.is_empty());
        match sent.as_slice() {
            [(to, Msg::CaReceiptRequest { case, flow: asked })] if *to == relays.0 => {
                assert_eq!(*asked, flow);
                *case
            }
            _ => panic!("expected one receipt request to the first relay, sent {sent:?}"),
        }
    }

    /// Appendix II's walk asks a relay about one flow. A reply about
    /// another flow does not answer — whatever receipt it carries — so
    /// the relay's deadline still judges it: it cannot end its own
    /// investigation by answering off topic.
    #[test]
    fn a_receipt_reply_for_another_flow_leaves_the_case_open() {
        let (reporter, relay, exit) = (NodeId(10), NodeId(20), NodeId(30));
        let (mut ca, keys) = ca_knowing(&[reporter, relay, exit]);
        let flow = 77;
        let case = open_receipt_walk(&mut ca, (reporter, &keys[0]), (relay, &keys[1], exit), flow);
        let off_topic = Msg::CaReceiptReply {
            case,
            flow: flow + 1,
            receipt: None,
        };
        assert_eq!(deliver(&mut ca, relay, off_topic), (vec![], vec![]));
        assert_eq!(deadline(&mut ca, case), [Verdict::Revoked(relay)]);
    }

    /// A case closes only on its awaited party's answer to what was
    /// asked. A reply from another node (here the next relay, carrying
    /// its own valid receipt) and a reply of the wrong kind (a
    /// provenance reply to a proof-chain case) both leave the case
    /// open, and its deadline judges the awaited party.
    #[test]
    fn replies_that_do_not_answer_leave_the_case_to_its_deadline() {
        let (reporter, relay, exit) = (NodeId(10), NodeId(20), NodeId(30));
        let (accused, omitted, far) = (NodeId(100), NodeId(110), NodeId(120));
        let (mut ca, keys) = ca_knowing(&[reporter, relay, exit, accused, omitted, far]);

        // a receipt walk, answered by a node it is not waiting on
        let flow = 5;
        let walk = open_receipt_walk(&mut ca, (reporter, &keys[0]), (relay, &keys[1], exit), flow);
        let stranger = Msg::CaReceiptReply {
            case: walk,
            flow,
            receipt: Some(receipt(exit, &keys[2], flow)),
        };
        assert_eq!(deliver(&mut ca, exit, stranger), (vec![], vec![]));

        // a proof chain (§4.3): `accused` signs a list that spans past
        // `omitted` yet omits it; `omitted` reports it
        let accused_cert = ca.issue_cert(accused, keys[3].public());
        let table = successor_list_table(accused, vec![far]);
        let list = SignedRoutingTable::sign(table, NOW, &keys[3], accused_cert);
        let report = Report::ListOmission {
            reporter: omitted,
            reporter_cert: ca.issue_cert(omitted, keys[4].public()),
            omitted,
            accused_list: Box::new(list),
        };
        let (sent, verdicts) = deliver(&mut ca, omitted, Msg::Report(Box::new(report)));
        assert!(verdicts.is_empty());
        let [(to, Msg::CaProofRequest { case: chain })] = sent.as_slice() else {
            panic!("expected one proof request, sent {sent:?}");
        };
        assert_eq!(*to, accused);
        let chain = *chain;
        let wrong_kind = Msg::CaProvReply {
            case: chain,
            prov: None,
        };
        assert_eq!(deliver(&mut ca, accused, wrong_kind), (vec![], vec![]));

        assert_eq!(deadline(&mut ca, walk), [Verdict::Revoked(relay)]);
        assert_eq!(deadline(&mut ca, chain), [Verdict::Revoked(accused)]);
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
