//! The Octopus peer: state, message dispatch, stabilization, and the
//! response paths where a malicious peer deviates.
//!
//! One type plays both roles. Honest behaviour is the default; a node
//! carrying an [`AdversaryHandle`] fabricates responses according
//! to the active [`AttackKind`]. Keeping
//! both in one implementation guarantees attackers and defenders see
//! exactly the same protocol surface — a malicious node cannot tell a
//! surveillance query from a real lookup query, which is precisely the
//! property §4.3 relies on.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use octopus_chord::signed::successor_list_table;
use octopus_chord::{
    stabilize, BoundChecker, ChordConfig, RoutingTable, SignedRoutingTable, SignedSuccessorList,
};
use octopus_crypto::{Certificate, KeyPair, PublicKey, Verifier};
use octopus_id::{Key, NodeId};
use octopus_net::{Addr, NodeBehavior, Runtime};
use octopus_sim::Duration;
use rand::Rng;

use crate::adversary::{AdversaryHandle, AttackKind};
use crate::config::OctopusConfig;
use crate::lookup::LookupState;
use crate::messages::{
    receipt_bytes, ExitAction, Hop, Msg, OnionPacket, ReceiptToken, Report, Timer,
};
use crate::mutation::{self, Mutation};
use crate::simnet::Control;
use crate::surveillance::FingerCheck;
use crate::trace::TraceEvent;
use crate::vec_map::VecMap;
use crate::walk::{DelegatedWalk, WalkState};

/// Handler context alias used throughout the node implementation.
pub(crate) type NodeCtx<'a> = dyn Runtime<Msg, Timer, Control> + 'a;

/// Why an anonymous (onion-routed) query was sent — recalled when the
/// reply comes back on the flow.
#[derive(Clone, Debug)]
pub(crate) enum AnonPurpose {
    /// A (real or dummy) query of an application lookup.
    LookupQuery {
        /// Lookup id.
        lookup: u64,
        /// Dummy queries are fired and forgotten.
        dummy: bool,
    },
    /// Secret neighbor surveillance test of a predecessor (§4.3).
    NeighborCheck {
        /// The predecessor under test.
        target: NodeId,
    },
    /// Stage 2 of a finger check (§4.4/§4.5): query P′₁'s table.
    FingerStage2 {
        /// The check id.
        check: u64,
    },
    /// A phase-1 random-walk hop queried through the partial path.
    WalkQuery {
        /// The walk id.
        walk: u64,
    },
    /// The phase-2 delegation message to Uₗ.
    WalkDelegate {
        /// The walk id.
        walk: u64,
    },
}

/// Why a *direct* request was sent.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DirectPurpose {
    /// Clockwise stabilization with our first successor.
    StabSucc {
        /// The queried successor.
        peer: NodeId,
    },
    /// Anticlockwise stabilization with our first predecessor.
    StabPred {
        /// The queried predecessor.
        peer: NodeId,
    },
    /// First hop of a random walk (queried directly).
    WalkFirstHop {
        /// The walk id.
        walk: u64,
    },
    /// One step of a (non-anonymous) finger-update lookup.
    FingerLookupStep {
        /// The finger-lookup id.
        fl: u64,
    },
    /// `GetPredList` to a suspect finger F′ (stage 1 of a finger check).
    FingerPredList {
        /// The check id.
        check: u64,
    },
    /// One step of a *delegated* walk phase 2 (we are Uₗ).
    Phase2Step {
        /// Flow of the phase-1 path the result must return on.
        flow: u64,
    },
}

/// State kept while relaying someone else's flow.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RelayFlow {
    /// Where the flow came from (reply direction).
    pub prev: NodeId,
}

/// A non-anonymous iterative finger-update lookup in progress (§4.5).
#[derive(Clone, Debug)]
pub(crate) struct FingerLookup {
    /// Which finger is being refreshed.
    pub index: u32,
    /// The ideal finger target.
    pub target: Key,
    /// Hops taken so far.
    pub hops: usize,
}

/// Certificates a peer remembers as verified. A peer keeps re-checking
/// the same two dozen — its successors, predecessors and fingers sign
/// every stabilization and surveillance reply — while the owners of
/// lookup and walk tables are met once. The bound covers the first set:
/// at the §5.1 point it keeps 90 % of what an unbounded memo saves, for
/// 448 bytes a peer (16 an entry: the id and a pointer to the
/// certificate the signed tables already share).
const CERT_MEMO_CAPACITY: usize = 28;

/// An Octopus peer.
pub struct OctopusNode {
    /// Ring position.
    pub id: NodeId,
    pub(crate) cfg: OctopusConfig,
    pub(crate) keypair: KeyPair,
    /// This peer's certificate, shared by every table it signs.
    pub(crate) cert: Arc<Certificate>,
    pub(crate) ca_addr: NodeId,
    pub(crate) verifier: Verifier,

    // ---- ring state ----
    pub(crate) successors: Vec<NodeId>,
    pub(crate) predecessors: Vec<NodeId>,
    pub(crate) fingers: Vec<NodeId>,

    // ---- proofs and buffers ----
    // Signed lists are shared, not copied: the proof queue, the finger
    // provenance and the proofs shown to the CA hold the same allocation.
    pub(crate) proof_queue: VecDeque<Arc<SignedSuccessorList>>,
    pub(crate) table_buffer: VecDeque<SignedRoutingTable>,
    pub(crate) relay_pool: VecDeque<(NodeId, NodeId)>,

    // ---- request tracking: a few entries each, empty most of the
    // time, so key-sorted `Vec`s rather than B-trees ----
    pub(crate) next_req: u64,
    pub(crate) direct_pending: VecMap<u64, DirectPurpose>,
    pub(crate) anon_pending: VecMap<u64, (AnonPurpose, Vec<NodeId>)>,
    pub(crate) lookups: VecMap<u64, LookupState>,
    pub(crate) walks: VecMap<u64, WalkState>,
    pub(crate) delegated: VecMap<u64, DelegatedWalk>,
    pub(crate) finger_lookups: VecMap<u64, FingerLookup>,
    pub(crate) checks: VecMap<u64, FingerCheck>,

    // ---- relaying (a relay forgets a flow once its reply passes back,
    // an exit once it sends the reply; nothing yet expires a
    // `relay_flows` or `receipts` entry whose reply never comes, so
    // those two grow with uptime and stay B-trees, where an insert is
    // not linear) ----
    pub(crate) relay_flows: BTreeMap<u64, RelayFlow>,
    pub(crate) exit_flows: VecMap<u64, u64>, // exit req -> flow
    pub(crate) receipts: BTreeMap<u64, ReceiptToken>, // flow -> receipt held
    pub(crate) awaiting_receipt: VecMap<u64, NodeId>, // flow -> next hop

    // ---- finger adoption provenance (per slot): the third-party
    // signed list that justified the finger, shown to the CA when the
    // finger is challenged; one entry per configured finger ----
    pub(crate) finger_prov: Vec<Option<Arc<SignedSuccessorList>>>,

    // ---- misc ----
    pub(crate) revoked: BTreeSet<NodeId>,
    pub(crate) adversary: Option<AdversaryHandle>,
    /// Lookups completed by this node (diagnostics).
    pub lookups_done: u64,
}

impl OctopusNode {
    /// Create a peer. `adversary` is `Some` for malicious nodes.
    #[must_use]
    pub fn new(
        id: NodeId,
        cfg: OctopusConfig,
        keypair: KeyPair,
        cert: Certificate,
        ca_addr: NodeId,
        ca_key: PublicKey,
        adversary: Option<AdversaryHandle>,
    ) -> Self {
        OctopusNode {
            id,
            cfg,
            keypair,
            cert: Arc::new(cert),
            ca_addr,
            verifier: Verifier::new(ca_key, CERT_MEMO_CAPACITY),
            successors: Vec::new(),
            predecessors: Vec::new(),
            fingers: Vec::new(),
            proof_queue: VecDeque::new(),
            table_buffer: VecDeque::new(),
            relay_pool: VecDeque::new(),
            next_req: 1,
            direct_pending: VecMap::new(),
            anon_pending: VecMap::new(),
            lookups: VecMap::new(),
            walks: VecMap::new(),
            delegated: VecMap::new(),
            finger_lookups: VecMap::new(),
            checks: VecMap::new(),
            relay_flows: BTreeMap::new(),
            exit_flows: VecMap::new(),
            receipts: BTreeMap::new(),
            awaiting_receipt: VecMap::new(),
            finger_prov: vec![None; cfg.chord.fingers as usize],
            revoked: BTreeSet::new(),
            adversary,
            lookups_done: 0,
        }
    }

    /// Seed the node's ring state (idealized join — see ARCHITECTURE.md,
    /// "Modelling substitutions": the driver plays the role of the join
    /// protocol; stabilization then maintains the state).
    pub fn seed_state(
        &mut self,
        successors: Vec<NodeId>,
        predecessors: Vec<NodeId>,
        fingers: Vec<NodeId>,
        relay_pairs: Vec<(NodeId, NodeId)>,
    ) {
        self.successors = successors;
        self.predecessors = predecessors;
        self.fingers = fingers;
        self.relay_pool = relay_pairs.into();
    }

    /// Forget every memoised certificate and remember none from here
    /// on (harness hook, see [`CaNode::disable_verify_memo`](crate::CaNode::disable_verify_memo)).
    pub fn disable_verify_memo(&mut self) {
        self.verifier = Verifier::new(self.verifier.ca_key(), 0);
    }

    /// Is this node malicious?
    #[must_use]
    pub fn is_malicious(&self) -> bool {
        self.adversary.is_some()
    }

    /// Emit a semantic trace event for the reference-model oracle.
    ///
    /// Only honest nodes trace — malicious deviation is the adversary's
    /// business, not a contract violation — and only when
    /// [`OctopusConfig::trace`] is on. The closure defers construction
    /// so the disabled path costs one branch. Emission consumes no RNG
    /// and sends no wire messages: tracing can never shift a seeded
    /// stream or a report.
    pub(crate) fn trace(&self, ctx: &mut NodeCtx<'_>, ev: impl FnOnce() -> TraceEvent) {
        if self.cfg.trace && !self.is_malicious() {
            ctx.emit(Control::Trace(Box::new(ev())));
        }
    }

    /// Flows this node currently awaits a forwarding receipt on, with
    /// the expected signer (fuzz-harness observation hook).
    #[must_use]
    pub fn awaiting_receipt_flows(&self) -> Vec<(u64, NodeId)> {
        self.awaiting_receipt
            .iter()
            .map(|(&flow, &next)| (flow, next))
            .collect()
    }

    /// Outstanding non-dummy lookup queries as `(flow, awaited table
    /// owner)` pairs (fuzz-harness observation hook).
    #[must_use]
    pub fn pending_lookup_queries(&self) -> Vec<(u64, NodeId)> {
        self.anon_pending
            .iter()
            .filter_map(|(&flow, (purpose, _))| match purpose {
                AnonPurpose::LookupQuery {
                    lookup,
                    dummy: false,
                } => self.lookups.get(lookup).map(|st| (flow, st.awaiting)),
                _ => None,
            })
            .collect()
    }

    /// Current successor list (tests/driver).
    #[must_use]
    pub fn successors(&self) -> &[NodeId] {
        &self.successors
    }

    /// Current predecessor list.
    #[must_use]
    pub fn predecessors(&self) -> &[NodeId] {
        &self.predecessors
    }

    /// Current fingertable.
    #[must_use]
    pub fn fingers(&self) -> &[NodeId] {
        &self.fingers
    }

    /// Driver-side: record the provenance justifying finger `slot`
    /// (the idealized join protocol runs checked lookups, so seeded
    /// fingers come with the same evidence real adoptions produce).
    /// A slot past the configured finger count is ignored: no challenge
    /// can name it.
    pub fn set_finger_provenance(&mut self, slot: u32, prov: impl Into<Arc<SignedSuccessorList>>) {
        if let Some(entry) = self.finger_prov.get_mut(slot as usize) {
            *entry = Some(prov.into());
        }
    }

    /// Driver-side repair: replace the successor list (used by the
    /// simulation's emergency re-join when mass revocation empties a
    /// node's neighborhood).
    pub fn set_successors(&mut self, successors: Vec<NodeId>) {
        self.successors = successors;
    }

    /// Driver-side repair: replace the predecessor list.
    pub fn set_predecessors(&mut self, predecessors: Vec<NodeId>) {
        self.predecessors = predecessors;
    }

    pub(crate) fn fresh_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        // node-unique ids: interleave the node id's low bits so flows
        // from different nodes never collide at relays
        (r << 20) | (self.id.0 & 0xFFFFF)
    }

    /// The node's honest routing table.
    #[must_use]
    pub fn routing_table(&self) -> RoutingTable {
        RoutingTable {
            owner: self.id,
            fingers: self.fingers.clone(),
            successors: self.successors.clone(),
            predecessors: self.predecessors.clone(),
        }
    }

    pub(crate) fn chord(&self) -> ChordConfig {
        self.cfg.chord
    }

    pub(crate) fn sign_table(&self, table: RoutingTable, now_secs: u64) -> SignedRoutingTable {
        SignedRoutingTable::sign(table, now_secs, &self.keypair, Arc::clone(&self.cert))
    }

    /// The bound used both to *check* received fingertables and by the
    /// adversary to stay under the detection radar.
    pub(crate) fn bound_checker(&self) -> BoundChecker {
        BoundChecker::from_successor_list(self.chord(), self.id, &self.successors)
    }

    /// All node ids this peer currently knows — dummy-query candidates.
    pub(crate) fn known_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .fingers
            .iter()
            .chain(self.successors.iter())
            .chain(self.predecessors.iter())
            .chain(self.table_buffer.iter().map(|t| &t.table.owner))
            .copied()
            .filter(|&n| n != self.id && !self.revoked.contains(&n))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Take a random relay pair from the pool (pairs are reusable; the
    /// pool is refreshed by periodic walks).
    pub(crate) fn sample_relay_pair(&mut self, rng: &mut impl Rng) -> Option<(NodeId, NodeId)> {
        if self.relay_pool.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..self.relay_pool.len());
        Some(self.relay_pool[i])
    }

    pub(crate) fn push_relay_pair(&mut self, pair: (NodeId, NodeId)) {
        if self.relay_pool.len() >= 16 {
            self.relay_pool.pop_front();
        }
        self.relay_pool.push_back(pair);
    }

    // ------------------------------------------------------------------
    // Response fabrication: where malicious nodes deviate.
    // ------------------------------------------------------------------

    /// The successor list this node *presents* right now (honest, or
    /// manipulated per the active attack).
    pub(crate) fn presented_successors(
        &self,
        rng: &mut impl Rng,
        stabilization: bool,
    ) -> Vec<NodeId> {
        if let Some(adv) = &self.adversary {
            let adv = adv.read();
            let manipulate = match adv.kind() {
                // lookup bias manipulates query responses AND pollutes
                // stabilization (Fig. 2(a)/(b))
                AttackKind::LookupBias => adv.attacks_now(rng),
                // under the finger attacks, malicious nodes cover for
                // colluding fingers by presenting consistent
                // colluders-only successor lists with probability 50 %
                // (Table 2 caption). Stabilization stays honest — the
                // succ-list attack is not the experiment's subject.
                AttackKind::FingerManipulation | AttackKind::FingerPollution => {
                    !stabilization && adv.colludes_consistently(rng)
                }
                AttackKind::Passive | AttackKind::SelectiveDos => false,
            };
            if manipulate {
                let fake = adv.fake_successor_list(self.id, self.cfg.chord.successors);
                if !fake.is_empty() {
                    return fake;
                }
            }
        }
        self.successors.clone()
    }

    /// The fingertable this node presents.
    pub(crate) fn presented_fingers(&self, rng: &mut impl Rng) -> Vec<NodeId> {
        if let Some(adv) = &self.adversary {
            let adv = adv.read();
            let manipulate = matches!(
                adv.kind(),
                AttackKind::FingerManipulation | AttackKind::FingerPollution
            ) && adv.attacks_now(rng);
            if manipulate {
                let bound = (self.bound_checker().mean_spacing() as f64
                    * BoundChecker::DEFAULT_BETA) as u64;
                return adv.fake_fingers(self.id, self.cfg.chord, &self.fingers, bound);
            }
        }
        self.fingers.clone()
    }

    /// The predecessor list this node presents. Under the finger
    /// attacks, malicious nodes always hide their honest predecessors
    /// behind colluders (§4.4: F′ "has to manipulate its predecessor
    /// list" or be caught immediately).
    pub(crate) fn presented_predecessors(&self) -> Vec<NodeId> {
        if let Some(adv) = &self.adversary {
            let adv = adv.read();
            if matches!(
                adv.kind(),
                AttackKind::FingerManipulation | AttackKind::FingerPollution
            ) {
                let fake = adv.fake_predecessor_list(self.id, self.cfg.chord.predecessors);
                if !fake.is_empty() {
                    return fake;
                }
            }
        }
        self.predecessors.clone()
    }

    /// Build and sign the routing table presented to a `GetTable` query.
    pub(crate) fn presented_table(&self, ctx: &mut NodeCtx<'_>) -> SignedRoutingTable {
        let now = ctx.now().as_secs_f64() as u64;
        let table = RoutingTable {
            owner: self.id,
            fingers: self.presented_fingers(ctx.rng()),
            successors: self.presented_successors(ctx.rng(), false),
            predecessors: self.presented_predecessors(),
        };
        self.sign_table(table, now)
    }

    /// Should a malicious relay drop this onion forward? (Appendix II:
    /// drop when the relay adjacent to the initiator is not a colluder,
    /// i.e. the circuit cannot be compromised anyway.)
    pub(crate) fn drops_flow(&self, prev: NodeId, rng: &mut impl Rng) -> bool {
        let Some(adv) = &self.adversary else {
            return false;
        };
        let adv = adv.read();
        adv.kind() == AttackKind::SelectiveDos && !adv.is_colluder(prev) && adv.attacks_now(rng)
    }

    // ------------------------------------------------------------------
    // Anonymous query plumbing.
    // ------------------------------------------------------------------

    /// Send an anonymous `GetTable` to `target` through `relays`,
    /// registering `purpose` for the reply. Returns the flow id.
    pub(crate) fn send_anonymous_query(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        relays: &[NodeId],
        target: NodeId,
        purpose: AnonPurpose,
    ) -> u64 {
        self.send_anon_action(ctx, relays, ExitAction::QueryTable { target }, purpose)
    }

    /// Send any onion-wrapped action through `relays`. Returns the flow.
    pub(crate) fn send_anon_action(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        relays: &[NodeId],
        action: ExitAction,
        purpose: AnonPurpose,
    ) -> u64 {
        let flow = self.fresh_req();
        let route: Vec<Hop> = relays
            .iter()
            .enumerate()
            .map(|(i, &node)| Hop {
                node,
                delay: i == 1, // the second relay (B) adds the anti-timing delay
            })
            .collect();
        debug_assert!(
            !route.is_empty(),
            "anonymous query needs at least one relay"
        );
        let first = route[0].node;
        let packet = OnionPacket {
            flow,
            route: route[1..].to_vec(),
            action,
        };
        self.anon_pending.insert(flow, (purpose, relays.to_vec()));
        self.awaiting_receipt.insert(flow, first);
        self.trace(ctx, || TraceEvent::AnonSent {
            node: self.id,
            flow,
            first,
        });
        ctx.send(first, Msg::Onion(packet));
        ctx.set_timer(
            self.cfg.request_timeout,
            Timer::RequestTimeout { req: flow },
        );
        ctx.set_timer(Duration::from_millis(800), Timer::ReceiptDeadline { flow });
        flow
    }

    /// Send a direct request with timeout tracking.
    pub(crate) fn send_direct(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        to: NodeId,
        msg_for: impl FnOnce(u64) -> Msg,
        purpose: DirectPurpose,
    ) -> u64 {
        let req = self.fresh_req();
        self.direct_pending.insert(req, purpose);
        ctx.send(to, msg_for(req));
        ctx.set_timer(self.cfg.request_timeout, Timer::RequestTimeout { req });
        req
    }

    // ------------------------------------------------------------------
    // Stabilization (§4.3: clockwise + anticlockwise, every 2 s).
    // ------------------------------------------------------------------

    pub(crate) fn stabilize(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(&s1) = self.successors.first() {
            self.send_direct(
                ctx,
                s1,
                |req| Msg::GetSuccList { req },
                DirectPurpose::StabSucc { peer: s1 },
            );
        }
        if let Some(&p1) = self.predecessors.first() {
            self.send_direct(
                ctx,
                p1,
                |req| Msg::GetPredList { req },
                DirectPurpose::StabPred { peer: p1 },
            );
        }
        ctx.set_timer(self.cfg.stabilize_every, Timer::Stabilize);
    }

    pub(crate) fn on_succ_list(&mut self, peer: NodeId, list: SignedSuccessorList) {
        if list.owner() != peer {
            return; // mis-signed response
        }
        let merged = stabilize::merge_successor_list(
            self.id,
            peer,
            &list.table.successors,
            self.cfg.chord.successors,
        );
        // keep the signed list as a proof (§4.3's proof queue)
        if self.proof_queue.len() >= self.cfg.proof_queue {
            self.proof_queue.pop_front();
        }
        self.proof_queue.push_back(Arc::new(list));
        let merged: Vec<NodeId> = merged
            .into_iter()
            .filter(|n| !self.revoked.contains(n))
            .collect();
        if !merged.is_empty() {
            self.successors = merged;
        }
    }

    pub(crate) fn on_pred_list(&mut self, peer: NodeId, list: &SignedRoutingTable) {
        if list.owner() != peer {
            return;
        }
        let merged = stabilize::merge_predecessor_list(
            self.id,
            peer,
            &list.table.predecessors,
            self.cfg.chord.predecessors,
        );
        let merged: Vec<NodeId> = merged
            .into_iter()
            .filter(|n| !self.revoked.contains(n))
            .collect();
        if !merged.is_empty() {
            self.predecessors = merged;
        }
    }

    /// A peer failed to answer: drop it from neighbor lists (Chord's
    /// failure handling; the lists re-heal from later stabilization).
    pub(crate) fn on_peer_dead(&mut self, peer: NodeId) {
        stabilize::drop_head(&mut self.successors, peer);
        stabilize::drop_head(&mut self.predecessors, peer);
        self.relay_pool.retain(|&(a, b)| a != peer && b != peer);
    }

    /// Learn about a node directly adjacent on the ring (driver-assisted
    /// join announcement; see ARCHITECTURE.md, "Modelling substitutions").
    pub fn learn_neighbor(&mut self, joiner: NodeId) {
        if joiner == self.id || self.revoked.contains(&joiner) {
            return;
        }
        // insert in clockwise order if it belongs in the successor span
        insert_ordered(
            self.id,
            &mut self.successors,
            joiner,
            self.cfg.chord.successors,
            true,
        );
        insert_ordered(
            self.id,
            &mut self.predecessors,
            joiner,
            self.cfg.chord.predecessors,
            false,
        );
    }

    /// Handle a revocation notice from the CA.
    pub(crate) fn on_revocation(&mut self, revoked: &[NodeId]) {
        if mutation::is(Mutation::SkipRevocationPurge) {
            return; // injected bug: the notice is silently ignored
        }
        for &r in revoked {
            self.revoked.insert(r);
            stabilize::drop_head(&mut self.successors, r);
            stabilize::drop_head(&mut self.predecessors, r);
            for f in &mut self.fingers {
                if *f == r {
                    // temporarily self-point; the next finger update heals it
                    *f = self.id;
                }
            }
            self.relay_pool.retain(|&(a, b)| a != r && b != r);
            self.table_buffer.retain(|t| t.owner() != r);
        }
    }

    pub(crate) fn buffer_table(&mut self, table: SignedRoutingTable) {
        if self.revoked.contains(&table.owner()) {
            return;
        }
        if self.table_buffer.len() >= self.cfg.table_buffer {
            self.table_buffer.pop_front();
        }
        self.table_buffer.push_back(table);
    }

    /// File a report with the CA.
    pub(crate) fn file_report(&mut self, ctx: &mut NodeCtx<'_>, report: Report) {
        ctx.send(self.ca_addr, Msg::Report(Box::new(report)));
    }

    /// Produce the justification for finger `slot` when the CA
    /// challenges it. A malicious node whose presented finger was a
    /// colluder fabricates fresh provenance signed by another colluder —
    /// buying time at the cost of sacrificing the signer (§4.4's
    /// economics).
    fn provenance_for(&mut self, ctx: &mut NodeCtx<'_>, slot: u32) -> Option<SignedSuccessorList> {
        if slot >= self.cfg.chord.fingers {
            return None;
        }
        let ideal = self.chord().finger_target(self.id, slot);
        if let Some(adv) = &self.adversary {
            let adv = adv.read();
            if matches!(
                adv.kind(),
                AttackKind::FingerManipulation | AttackKind::FingerPollution
            ) {
                if let Some(fprime) = adv.next_colluder_after(ideal.as_id()) {
                    let now = ctx.now().as_secs_f64() as u64;
                    if let Some(fabricated) =
                        adv.fabricate_provenance(ideal, fprime, self.cfg.chord.successors, now)
                    {
                        return Some(fabricated);
                    }
                }
            }
        }
        self.finger_prov[slot as usize].as_deref().cloned()
    }
}

/// Insert `joiner` into an ordered neighbor list if it falls within the
/// list's current span (or the list is undersized).
fn insert_ordered(
    own: NodeId,
    list: &mut Vec<NodeId>,
    joiner: NodeId,
    cap: usize,
    clockwise: bool,
) {
    if list.contains(&joiner) {
        return;
    }
    let dist = |n: NodeId| {
        if clockwise {
            own.distance_to(n)
        } else {
            n.distance_to(own)
        }
    };
    let d = dist(joiner);
    if d == 0 {
        return;
    }
    let pos = list.iter().position(|&n| dist(n) > d);
    match pos {
        Some(i) => {
            list.insert(i, joiner);
            list.truncate(cap);
        }
        // beyond the current span: only adopt when we know nothing yet —
        // otherwise stabilization (not the announcement) extends the list
        None if list.is_empty() => list.push(joiner),
        None => {}
    }
}

// ----------------------------------------------------------------------
// NodeBehavior: dispatch.
// ----------------------------------------------------------------------

impl NodeBehavior for OctopusNode {
    type Msg = Msg;
    type Timer = Timer;
    type Control = Control;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // desynchronize periodic timers across nodes
        let jitter = |ctx: &mut NodeCtx<'_>, base: Duration| {
            Duration((ctx.rng().gen::<u64>() % base.0.max(1)).max(1))
        };
        let t = jitter(ctx, self.cfg.stabilize_every);
        ctx.set_timer(t, Timer::Stabilize);
        let t = jitter(ctx, self.cfg.finger_update_every);
        ctx.set_timer(t, Timer::FingerUpdate);
        let t = jitter(ctx, self.cfg.surveillance_every);
        ctx.set_timer(t, Timer::Surveillance);
        let t = jitter(ctx, self.cfg.walk_every);
        ctx.set_timer(t, Timer::Walk);
        let t = jitter(ctx, self.cfg.lookup_every);
        ctx.set_timer(t, Timer::Lookup);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: Addr, msg: Msg) {
        match msg {
            // ---- serving requests ----
            Msg::GetSuccList { req } => {
                let now = ctx.now().as_secs_f64() as u64;
                let succ = self.presented_successors(ctx.rng(), true);
                let list = self.sign_table(successor_list_table(self.id, succ), now);
                ctx.send(
                    from,
                    Msg::SuccList {
                        req,
                        list: Box::new(list),
                    },
                );
            }
            Msg::GetPredList { req } => {
                let now = ctx.now().as_secs_f64() as u64;
                let table = RoutingTable {
                    owner: self.id,
                    fingers: Vec::new(),
                    successors: Vec::new(),
                    predecessors: self.presented_predecessors(),
                };
                let list = self.sign_table(table, now);
                ctx.send(
                    from,
                    Msg::PredList {
                        req,
                        list: Box::new(list),
                    },
                );
            }
            Msg::GetTable { req } => {
                let table = self.presented_table(ctx);
                ctx.send(
                    from,
                    Msg::Table {
                        req,
                        table: Box::new(table),
                    },
                );
            }

            // ---- replies to our direct requests ----
            Msg::SuccList { req, list } => {
                if let Some(DirectPurpose::StabSucc { peer }) = self.answer_direct(ctx, req) {
                    if list
                        .verify_with(&mut self.verifier, ctx.now().as_secs_f64() as u64)
                        .is_ok()
                    {
                        self.on_succ_list(peer, *list);
                    }
                }
            }
            Msg::PredList { req, list } => {
                let Some(purpose) = self.answer_direct(ctx, req) else {
                    return;
                };
                match purpose {
                    DirectPurpose::StabPred { peer }
                        if list
                            .verify_with(&mut self.verifier, ctx.now().as_secs_f64() as u64)
                            .is_ok() =>
                    {
                        self.on_pred_list(peer, &list);
                    }
                    DirectPurpose::FingerPredList { check } => {
                        self.on_finger_pred_list(ctx, check, *list);
                    }
                    _ => {}
                }
            }
            Msg::Table { req, table } => {
                if let Some(purpose) = self.answer_direct(ctx, req) {
                    self.on_direct_table(ctx, purpose, *table);
                } else if let Some(flow) = self.exit_flows.remove(&req) {
                    // we are an exit relay: carry the reply back, and
                    // forget the flow it answers
                    if let Some(rf) = self.relay_flows.remove(&flow) {
                        let payload = Msg::Table { req: flow, table };
                        ctx.send(
                            rf.prev,
                            Msg::OnionReply {
                                flow,
                                payload: Box::new(payload),
                            },
                        );
                    }
                }
            }

            // ---- onion relaying ----
            Msg::Onion(packet) => self.on_onion(ctx, from, packet),
            Msg::OnionReply { flow, payload } => self.on_onion_reply(ctx, from, flow, *payload),
            Msg::Receipt { token } => {
                let expected = self.awaiting_receipt.get(&token.flow).copied();
                let strict = expected == Some(token.signer) && token.signer == from;
                let accepted = if mutation::is(Mutation::AcceptAnyReceipt) {
                    expected.is_some()
                } else {
                    strict
                };
                self.trace(ctx, || TraceEvent::ReceiptChecked {
                    node: self.id,
                    from,
                    flow: token.flow,
                    signer: token.signer,
                    accepted,
                });
                if accepted {
                    if self.awaiting_receipt.remove(&token.flow).is_some() {
                        ctx.cancel_timer(Timer::ReceiptDeadline { flow: token.flow });
                    }
                    self.receipts.insert(token.flow, token);
                }
            }
            Msg::WalkResult { .. } => { /* only valid inside OnionReply */ }

            // ---- CA interactions ----
            Msg::CaProofRequest { case } => {
                let now = ctx.now().as_secs_f64() as u64;
                // present our *current honest* successor list plus the
                // proof queue; a malicious node gains nothing by lying
                // here (forged proofs fail signature checks)
                let own =
                    self.sign_table(successor_list_table(self.id, self.successors.clone()), now);
                ctx.send(
                    from,
                    Msg::CaProofReply {
                        case,
                        own_list: Box::new(own),
                        proofs: self.proof_queue.iter().cloned().collect(),
                    },
                );
            }
            Msg::CaReceiptRequest { case, flow } => {
                ctx.send(
                    from,
                    Msg::CaReceiptReply {
                        case,
                        flow,
                        receipt: self.receipts.get(&flow).copied(),
                    },
                );
            }
            Msg::CaProvRequest { case, slot } => {
                let prov = self.provenance_for(ctx, slot);
                ctx.send(
                    from,
                    Msg::CaProvReply {
                        case,
                        prov: prov.map(Box::new),
                    },
                );
            }
            Msg::Revocation { revoked } => {
                self.on_revocation(&revoked);
                self.trace(ctx, || TraceEvent::RevocationSeen {
                    node: self.id,
                    revoked: revoked.to_vec(),
                    tracked: revoked.iter().all(|r| self.revoked.contains(r)),
                });
            }

            // messages only the CA consumes
            Msg::Report(_)
            | Msg::CaProofReply { .. }
            | Msg::CaReceiptReply { .. }
            | Msg::CaProvReply { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: Timer) {
        match timer {
            Timer::Stabilize => self.stabilize(ctx),
            Timer::FingerUpdate => {
                self.start_finger_update(ctx);
                ctx.set_timer(self.cfg.finger_update_every, Timer::FingerUpdate);
            }
            Timer::Surveillance => {
                self.run_surveillance(ctx);
                ctx.set_timer(self.cfg.surveillance_every, Timer::Surveillance);
            }
            Timer::Walk => {
                self.start_walk(ctx);
                ctx.set_timer(self.cfg.walk_every, Timer::Walk);
            }
            Timer::Lookup => {
                let key = Key(ctx.rng().gen());
                self.start_lookup(ctx, key);
                ctx.set_timer(self.cfg.lookup_every, Timer::Lookup);
            }
            Timer::RequestTimeout { req } => self.on_request_timeout(ctx, req),
            Timer::FingerCheckStage2 { check } => self.finger_check_stage2(ctx, check),
            Timer::ReceiptDeadline { flow } => {
                // in the simulated network a missing receipt only means
                // the next hop died mid-flight; the end-to-end timeout
                // (and the CA's receipt walk) handles droppers, who ack
                // before dropping to avoid immediate local blame
                if self.awaiting_receipt.remove(&flow).is_some() {
                    self.trace(ctx, || TraceEvent::ReceiptExpired {
                        node: self.id,
                        flow,
                    });
                }
            }
            Timer::CaCaseTimeout { .. } => { /* CA-only timer */ }
        }
    }
}

impl OctopusNode {
    fn receipt_token(&self, flow: u64) -> ReceiptToken {
        ReceiptToken {
            flow,
            signer: self.id,
            sig: self.keypair.sign(&receipt_bytes(flow)),
        }
    }

    fn on_onion(&mut self, ctx: &mut NodeCtx<'_>, from: Addr, mut packet: OnionPacket) {
        let flow = packet.flow;
        let route_next = packet.route.first().map(|h| h.node);
        // acknowledge receipt to the previous hop (DoS defense). Droppers
        // also ack — refusing would pin the blame locally and instantly.
        let receipt_sent = !mutation::is(Mutation::ForwardWithoutReceipt);
        if receipt_sent {
            let token = self.receipt_token(flow);
            ctx.send(from, Msg::Receipt { token });
        }
        if self.drops_flow(from, ctx.rng()) {
            return; // selective DoS: silently drop after the receipt
        }
        self.relay_flows.insert(flow, RelayFlow { prev: from });
        let mut forwarded_to = None;
        let mut exited = false;
        if packet.route.is_empty() {
            exited = true;
            // we are the exit relay: act on the initiator's behalf
            match packet.action {
                ExitAction::QueryTable { target } => {
                    let req = self.fresh_req();
                    self.exit_flows.insert(req, flow);
                    ctx.send(target, Msg::GetTable { req });
                }
                ExitAction::Delegate(delegation) => {
                    self.on_walk_delegate(ctx, flow, *delegation);
                }
            }
        } else {
            let hop = packet.route.remove(0);
            self.awaiting_receipt.insert(flow, hop.node);
            ctx.set_timer(Duration::from_millis(800), Timer::ReceiptDeadline { flow });
            let delay = if hop.delay {
                Duration::from_millis(
                    ctx.rng()
                        .gen_range(0..=self.cfg.relay_max_delay.as_millis_f64() as u64),
                )
            } else {
                Duration::ZERO
            };
            let target = if mutation::is(Mutation::MisrouteOnion) {
                from // bounce it back where it came from
            } else {
                hop.node
            };
            forwarded_to = Some(target);
            ctx.send_delayed(target, Msg::Onion(packet), delay);
        }
        self.trace(ctx, || TraceEvent::OnionProcessed {
            node: self.id,
            from,
            flow,
            route_next,
            receipt_sent,
            forwarded_to,
            exited,
        });
    }

    fn on_onion_reply(&mut self, ctx: &mut NodeCtx<'_>, _from: Addr, flow: u64, payload: Msg) {
        if let Some((purpose, relays)) = self.anon_pending.remove(&flow) {
            // the reply reached the initiator
            ctx.cancel_timer(Timer::RequestTimeout { req: flow });
            self.receipts.remove(&flow);
            self.handle_anon_reply(ctx, flow, purpose, relays, payload);
            return;
        }
        if let Some(rf) = self.relay_flows.remove(&flow) {
            // the flow completed; its receipt is no longer evidence
            self.receipts.remove(&flow);
            ctx.send(
                rf.prev,
                Msg::OnionReply {
                    flow,
                    payload: Box::new(payload),
                },
            );
        }
    }

    /// Retire the direct request `req` that a reply answers, and cancel
    /// its timeout, which would now find nothing to do. `None` when the
    /// request is not pending (answered or timed out already).
    fn answer_direct(&mut self, ctx: &mut NodeCtx<'_>, req: u64) -> Option<DirectPurpose> {
        let purpose = self.direct_pending.remove(&req)?;
        ctx.cancel_timer(Timer::RequestTimeout { req });
        Some(purpose)
    }

    /// Dispatch a `Table` reply to a direct request.
    fn on_direct_table(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        purpose: DirectPurpose,
        table: octopus_chord::SignedRoutingTable,
    ) {
        match purpose {
            DirectPurpose::WalkFirstHop { walk } => self.on_walk_table(ctx, walk, table),
            DirectPurpose::FingerLookupStep { fl } => self.on_finger_lookup_table(ctx, fl, table),
            DirectPurpose::Phase2Step { flow } => self.on_phase2_table(ctx, flow, table),
            DirectPurpose::StabSucc { .. }
            | DirectPurpose::StabPred { .. }
            | DirectPurpose::FingerPredList { .. } => {}
        }
    }

    fn on_request_timeout(&mut self, ctx: &mut NodeCtx<'_>, req: u64) {
        if let Some(purpose) = self.direct_pending.remove(&req) {
            match purpose {
                DirectPurpose::StabSucc { peer } | DirectPurpose::StabPred { peer } => {
                    self.on_peer_dead(peer);
                }
                DirectPurpose::WalkFirstHop { walk } => self.abort_walk(ctx, walk),
                DirectPurpose::FingerLookupStep { fl } => {
                    self.finger_lookups.remove(&fl);
                }
                DirectPurpose::FingerPredList { check } => {
                    self.checks.remove(&check);
                }
                DirectPurpose::Phase2Step { flow } => {
                    self.delegated.remove(&flow);
                }
            }
            return;
        }
        if let Some((purpose, relays)) = self.anon_pending.remove(&req) {
            self.handle_anon_timeout(ctx, req, purpose, relays);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_crypto::CertificateAuthority;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn test_node(id: u64) -> OctopusNode {
        let mut rng = StdRng::seed_from_u64(id ^ 0xBEEF);
        let mut ca = CertificateAuthority::new(&mut rng);
        let kp = KeyPair::generate(&mut rng);
        let cert = ca.issue(NodeId(id), 1, kp.public(), u64::MAX);
        OctopusNode::new(
            NodeId(id),
            OctopusConfig::default(),
            kp,
            cert,
            NodeId(u64::MAX),
            ca.public_key(),
            None,
        )
    }

    /// What a handler did.
    #[derive(Debug, Default)]
    struct Effects {
        sent: Vec<(Addr, Msg)>,
        armed: Vec<Timer>,
        controls: Vec<Control>,
        cancelled: Vec<Timer>,
    }

    /// Run `f` on `n` under a throw-away context at time zero that
    /// records cancelled timers, as the UDP host's does, and return
    /// everything it did.
    fn run_recording(
        n: &mut OctopusNode,
        f: impl FnOnce(&mut OctopusNode, &mut NodeCtx<'_>),
    ) -> Effects {
        let mut rng = StdRng::seed_from_u64(1);
        let (mut outbox, mut timers, mut fx) = (Vec::new(), Vec::new(), Effects::default());
        let mut ctx: octopus_net::Ctx<'_, Msg, Timer, Control> = octopus_net::Ctx::from_parts(
            octopus_sim::SimTime::ZERO,
            n.id,
            &mut rng,
            &mut outbox,
            &mut timers,
            &mut fx.controls,
        )
        .with_cancels(&mut fx.cancelled);
        f(n, &mut ctx);
        fx.sent = outbox.into_iter().map(|(to, msg, _)| (to, msg)).collect();
        fx.armed = timers.into_iter().map(|(_, t)| t).collect();
        fx
    }

    /// The messages `f` sent (see [`run_recording`]).
    fn run(
        n: &mut OctopusNode,
        f: impl FnOnce(&mut OctopusNode, &mut NodeCtx<'_>),
    ) -> Vec<(Addr, Msg)> {
        run_recording(n, f).sent
    }

    /// A test node whose traces show up as controls.
    fn traced_node(id: u64) -> OctopusNode {
        let mut n = test_node(id);
        n.cfg.trace = true;
        n
    }

    /// The request tables a moot timer must leave alone.
    fn pending_tables(n: &OctopusNode) -> (Vec<u64>, Vec<u64>, Vec<(u64, NodeId)>) {
        (
            n.direct_pending.iter().map(|(&req, _)| req).collect(),
            n.anon_pending.iter().map(|(&flow, _)| flow).collect(),
            n.awaiting_receipt_flows(),
        )
    }

    /// Fire `timer` by hand, as a host that ignored the cancel would:
    /// it sends, arms, emits and cancels nothing, and leaves the
    /// request tables as they were.
    fn assert_moot(n: &mut OctopusNode, timer: Timer) {
        let before = pending_tables(n);
        let fx = run_recording(n, |n, ctx| n.on_timer(ctx, timer));
        assert!(
            fx.sent.is_empty()
                && fx.armed.is_empty()
                && fx.controls.is_empty()
                && fx.cancelled.is_empty(),
            "the cancelled {timer:?} still acts: {fx:?}"
        );
        assert_eq!(
            pending_tables(n),
            before,
            "the cancelled {timer:?} changed state"
        );
    }

    /// The `req` of the one request `fx` sent to `to`.
    fn req_sent_to(fx: &Effects, to: NodeId) -> u64 {
        let reqs: Vec<u64> = fx
            .sent
            .iter()
            .filter(|(dest, _)| *dest == to)
            .filter_map(|(_, msg)| match msg {
                Msg::GetSuccList { req } | Msg::GetPredList { req } | Msg::GetTable { req } => {
                    Some(*req)
                }
                _ => None,
            })
            .collect();
        let [req] = reqs[..] else {
            panic!("expected one request to {to:?}, sent {:?}", fx.sent);
        };
        req
    }

    #[test]
    fn stabilization_replies_cancel_their_timeouts() {
        let mut n = traced_node(100);
        n.seed_state(vec![NodeId(120)], vec![NodeId(80)], vec![], vec![]);
        let fx = run_recording(&mut n, |n, ctx| n.stabilize(ctx));
        assert!(
            fx.cancelled.is_empty(),
            "a request cancelled its own timeout"
        );
        let succ_req = req_sent_to(&fx, NodeId(120));
        let pred_req = req_sent_to(&fx, NodeId(80));
        let table = |owner: u64| {
            let peer = test_node(owner);
            Box::new(peer.sign_table(successor_list_table(NodeId(owner), vec![]), 0))
        };
        let replies = [
            (
                succ_req,
                NodeId(120),
                Msg::SuccList {
                    req: succ_req,
                    list: table(120),
                },
            ),
            (
                pred_req,
                NodeId(80),
                Msg::PredList {
                    req: pred_req,
                    list: table(80),
                },
            ),
        ];
        for (req, from, reply) in replies {
            let fx = run_recording(&mut n, |n, ctx| n.on_message(ctx, from, reply));
            let timeout = Timer::RequestTimeout { req };
            assert_eq!(fx.cancelled, vec![timeout]);
            assert!(
                n.direct_pending.get(&req).is_none(),
                "the request is still pending"
            );
            assert_moot(&mut n, timeout);
        }
        // a second copy of a reply finds nothing to retire or cancel
        let fx = run_recording(&mut n, |n, ctx| {
            n.on_message(
                ctx,
                NodeId(120),
                Msg::SuccList {
                    req: succ_req,
                    list: table(120),
                },
            );
        });
        assert!(fx.cancelled.is_empty());
    }

    #[test]
    fn a_table_reply_cancels_its_timeout() {
        let mut n = traced_node(100);
        let purpose = DirectPurpose::FingerLookupStep { fl: 9 };
        let fx = run_recording(&mut n, |n, ctx| {
            n.send_direct(ctx, NodeId(300), |req| Msg::GetTable { req }, purpose);
        });
        assert!(
            fx.cancelled.is_empty(),
            "a request cancelled its own timeout"
        );
        let req = req_sent_to(&fx, NodeId(300));
        let target = test_node(300);
        let table = Box::new(target.sign_table(target.routing_table(), 0));
        let fx = run_recording(&mut n, |n, ctx| {
            n.on_message(ctx, NodeId(300), Msg::Table { req, table });
        });
        let timeout = Timer::RequestTimeout { req };
        assert_eq!(fx.cancelled, vec![timeout]);
        assert!(n.direct_pending.get(&req).is_none());
        assert_moot(&mut n, timeout);
    }

    /// `n` sends a dummy lookup query through `relays`; returns its flow.
    fn send_dummy_query(n: &mut OctopusNode, relays: &[NodeId]) -> u64 {
        let purpose = AnonPurpose::LookupQuery {
            lookup: 1,
            dummy: true,
        };
        let mut flow = 0;
        let fx = run_recording(n, |n, ctx| {
            flow = n.send_anonymous_query(ctx, relays, NodeId(400), purpose);
        });
        assert!(
            fx.cancelled.is_empty(),
            "a query cancelled its own timeouts"
        );
        flow
    }

    #[test]
    fn a_receipt_and_an_onion_reply_cancel_their_deadlines() {
        let mut n = traced_node(100);
        let first = test_node(201);
        let flow = send_dummy_query(&mut n, &[first.id, NodeId(202), NodeId(203)]);
        // the first relay's receipt retires the receipt deadline
        let token = first.receipt_token(flow);
        let fx = run_recording(&mut n, |n, ctx| {
            n.on_message(ctx, first.id, Msg::Receipt { token });
        });
        let deadline = Timer::ReceiptDeadline { flow };
        assert_eq!(fx.cancelled, vec![deadline]);
        assert!(n.awaiting_receipt.get(&flow).is_none());
        assert!(
            n.anon_pending.get(&flow).is_some(),
            "the query is still open"
        );
        assert_moot(&mut n, deadline);
        // the reply retires the query's request timeout
        let target = test_node(400);
        let table = Box::new(target.sign_table(target.routing_table(), 0));
        let payload = Box::new(Msg::Table { req: flow, table });
        let fx = run_recording(&mut n, |n, ctx| {
            n.on_message(ctx, first.id, Msg::OnionReply { flow, payload });
        });
        let timeout = Timer::RequestTimeout { req: flow };
        assert_eq!(fx.cancelled, vec![timeout]);
        assert!(n.anon_pending.get(&flow).is_none());
        assert_moot(&mut n, timeout);
    }

    #[test]
    fn a_receipt_from_the_wrong_signer_cancels_nothing() {
        let mut n = traced_node(100);
        let flow = send_dummy_query(&mut n, &[NodeId(201), NodeId(202), NodeId(203)]);
        let token = test_node(202).receipt_token(flow);
        let fx = run_recording(&mut n, |n, ctx| {
            n.on_message(ctx, NodeId(202), Msg::Receipt { token });
        });
        assert!(fx.cancelled.is_empty());
        assert!(n.awaiting_receipt.get(&flow).is_some());
    }

    #[test]
    fn unanswered_requests_still_time_out() {
        let mut n = traced_node(100);
        n.seed_state(vec![NodeId(120), NodeId(130)], vec![], vec![], vec![]);
        let fx = run_recording(&mut n, |n, ctx| n.stabilize(ctx));
        let req = req_sent_to(&fx, NodeId(120));
        // the direct timeout reaches `on_peer_dead`
        let fx = run_recording(&mut n, |n, ctx| {
            n.on_timer(ctx, Timer::RequestTimeout { req });
        });
        assert!(fx.cancelled.is_empty());
        assert!(n.direct_pending.get(&req).is_none());
        assert_eq!(
            n.successors(),
            &[NodeId(130)],
            "the silent successor is kept"
        );
        // the anonymous one reaches `handle_anon_timeout`, and the
        // receipt deadline still expires
        let flow = send_dummy_query(&mut n, &[NodeId(201), NodeId(202), NodeId(203)]);
        let fx = run_recording(&mut n, |n, ctx| {
            n.on_timer(ctx, Timer::ReceiptDeadline { flow });
            n.on_timer(ctx, Timer::RequestTimeout { req: flow });
        });
        assert!(fx.cancelled.is_empty());
        assert!(n.awaiting_receipt.get(&flow).is_none());
        assert!(
            n.anon_pending.get(&flow).is_none(),
            "the query is still pending"
        );
        let expired = fx.controls.iter().any(|c| {
            matches!(c, Control::Trace(ev) if matches!(**ev, TraceEvent::ReceiptExpired { .. }))
        });
        assert!(expired, "no ReceiptExpired trace: {:?}", fx.controls);
    }

    #[test]
    fn a_finger_adopted_from_the_proof_queue_shares_its_allocation() {
        let mut n = test_node(100);
        n.seed_state(vec![NodeId(99)], vec![], vec![], vec![]);
        let peer = test_node(99);
        let list = peer.sign_table(successor_list_table(NodeId(99), vec![]), 0);
        n.on_succ_list(NodeId(99), list);
        // the one successor sits just behind us, so its span covers every
        // finger target: each slot is adopted on the newest proof
        run(&mut n, |n, ctx| n.start_finger_update(ctx));
        let proof = n.proof_queue.back().expect("the list was queued");
        assert_eq!(n.finger_prov.len(), n.cfg.chord.fingers as usize);
        for (slot, prov) in n.finger_prov.iter().enumerate() {
            assert_eq!(n.fingers[slot], NodeId(99), "slot {slot} adopted");
            let prov = prov.as_ref().expect("adopted with provenance");
            assert!(Arc::ptr_eq(prov, proof), "slot {slot} holds a copy");
        }
    }

    #[test]
    fn a_stored_signed_list_shares_its_signers_certificate() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut ca = CertificateAuthority::new(&mut rng);
        let mut peer_of_ca = |id| {
            let kp = KeyPair::generate(&mut rng);
            let cert = ca.issue(NodeId(id), 1, kp.public(), u64::MAX);
            let ca_key = ca.public_key();
            OctopusNode::new(
                NodeId(id),
                OctopusConfig::default(),
                kp,
                cert,
                NodeId(u64::MAX),
                ca_key,
                None,
            )
        };
        let (mut n, peer) = (peer_of_ca(100), peer_of_ca(99));
        let list = peer.sign_table(successor_list_table(NodeId(99), vec![]), 0);
        n.on_succ_list(NodeId(99), list);
        n.buffer_table(peer.sign_table(peer.routing_table(), 0));
        let proof = n.proof_queue.back().expect("the list was queued");
        let buffered = n.table_buffer.back().expect("the table was buffered");
        assert!(
            Arc::ptr_eq(&proof.certificate, &peer.cert),
            "the proof holds a copy"
        );
        assert!(
            Arc::ptr_eq(&buffered.certificate, &peer.cert),
            "the buffer holds a copy"
        );
        // and checking it files the same allocation in the verify-once memo
        assert!(buffered.clone().verify_with(&mut n.verifier, 0).is_ok());
        assert_eq!(
            Arc::strong_count(&peer.cert),
            4,
            "signer, proof, buffer and memo"
        );
    }

    #[test]
    fn a_ca_proof_reply_shows_the_queues_own_lists() {
        let mut n = test_node(100);
        let other = test_node(200);
        for i in 0..3 {
            let list =
                other.sign_table(successor_list_table(NodeId(200), vec![NodeId(300 + i)]), i);
            n.on_succ_list(NodeId(200), list);
        }
        let ca = n.ca_addr;
        let sent = run(&mut n, |n, ctx| {
            n.on_message(ctx, ca, Msg::CaProofRequest { case: 7 });
        });
        let [(
            to,
            Msg::CaProofReply {
                case: 7, proofs, ..
            },
        )] = sent.as_slice()
        else {
            panic!("expected one proof reply, sent {sent:?}");
        };
        assert_eq!(*to, ca);
        assert_eq!(proofs.len(), n.proof_queue.len());
        for (shown, held) in proofs.iter().zip(&n.proof_queue) {
            assert!(Arc::ptr_eq(shown, held), "the reply holds a copy");
        }
    }

    /// `exit` receives the last layer of onion `flow` from `prev` and
    /// the exit's one `GetTable` is answered with `target`'s table;
    /// returns what the exit sent on that answer.
    fn serve_as_exit(
        exit: &mut OctopusNode,
        prev: Addr,
        flow: u64,
        action: ExitAction,
        target: &OctopusNode,
    ) -> Vec<(Addr, Msg)> {
        let onion = Msg::Onion(OnionPacket {
            flow,
            route: Vec::new(),
            action,
        });
        let sent = run(exit, |n, ctx| n.on_message(ctx, prev, onion));
        let req = sent
            .iter()
            .find_map(|(to, msg)| match msg {
                Msg::GetTable { req } if *to == target.id => Some(*req),
                _ => None,
            })
            .expect("the exit queries the target");
        assert!(exit.relay_flows.contains_key(&flow), "flow forgotten early");
        let table = Box::new(target.sign_table(target.routing_table(), 0));
        run(exit, |n, ctx| {
            n.on_message(ctx, target.id, Msg::Table { req, table });
        })
    }

    #[test]
    fn an_exit_forgets_the_flow_it_returns_a_table_on() {
        let (mut exit, target) = (test_node(100), test_node(300));
        let action = ExitAction::QueryTable { target: target.id };
        let sent = serve_as_exit(&mut exit, NodeId(50), 7, action, &target);
        let [(NodeId(50), Msg::OnionReply { flow: 7, payload })] = sent.as_slice() else {
            panic!("expected one reply to the previous hop, sent {sent:?}");
        };
        assert!(matches!(**payload, Msg::Table { req: 7, .. }));
        assert!(exit.relay_flows.is_empty(), "the answered flow is kept");
    }

    #[test]
    fn an_exit_forgets_the_flow_it_returns_a_walk_result_on() {
        let (mut exit, target) = (test_node(100), test_node(300));
        let delegation = crate::messages::Delegation {
            seed: 1,
            length: 1,
            fingers: vec![target.id],
        };
        let action = ExitAction::Delegate(Box::new(delegation));
        let sent = serve_as_exit(&mut exit, NodeId(50), 7, action, &target);
        let [(NodeId(50), Msg::OnionReply { flow: 7, payload })] = sent.as_slice() else {
            panic!("expected one reply to the previous hop, sent {sent:?}");
        };
        assert!(matches!(&**payload, Msg::WalkResult { flow: 7, tables } if tables.len() == 1));
        assert!(exit.relay_flows.is_empty(), "the answered flow is kept");
    }

    #[test]
    fn fresh_req_unique_per_node() {
        let mut a = test_node(1);
        let mut b = test_node(2);
        let ra: Vec<u64> = (0..5).map(|_| a.fresh_req()).collect();
        let rb: Vec<u64> = (0..5).map(|_| b.fresh_req()).collect();
        for x in &ra {
            assert!(!rb.contains(x), "req ids must not collide across nodes");
        }
    }

    #[test]
    fn learn_neighbor_orders_lists() {
        let mut n = test_node(100);
        n.seed_state(vec![NodeId(120)], vec![NodeId(80)], vec![], vec![]);
        n.learn_neighbor(NodeId(110));
        assert_eq!(n.successors(), &[NodeId(110), NodeId(120)]);
        n.learn_neighbor(NodeId(90));
        assert_eq!(n.predecessors(), &[NodeId(90), NodeId(80)]);
        // duplicate ignored
        n.learn_neighbor(NodeId(110));
        assert_eq!(n.successors().len(), 2);
    }

    #[test]
    fn revocation_purges_state() {
        let mut n = test_node(100);
        n.seed_state(
            vec![NodeId(120), NodeId(130)],
            vec![NodeId(80)],
            vec![NodeId(120), NodeId(500)],
            vec![(NodeId(120), NodeId(600)), (NodeId(700), NodeId(800))],
        );
        n.on_revocation(&[NodeId(120)]);
        assert_eq!(n.successors(), &[NodeId(130)]);
        assert_eq!(n.fingers()[0], NodeId(100), "revoked finger self-points");
        assert_eq!(n.relay_pool.len(), 1);
        assert!(n.revoked.contains(&NodeId(120)));
        // a revoked node cannot be re-learned
        n.learn_neighbor(NodeId(120));
        assert!(!n.successors().contains(&NodeId(120)));
    }

    #[test]
    fn proof_queue_bounded() {
        let mut n = test_node(100);
        let other = test_node(200);
        let cap = n.cfg.proof_queue as u64;
        for i in 0..cap + 4 {
            let list =
                other.sign_table(successor_list_table(NodeId(200), vec![NodeId(300 + i)]), i);
            n.on_succ_list(NodeId(200), list);
        }
        assert_eq!(n.proof_queue.len(), n.cfg.proof_queue);
        // newest proof retained
        assert_eq!(n.proof_queue.back().unwrap().timestamp, cap + 3);
    }

    #[test]
    fn merge_updates_successors() {
        let mut n = test_node(100);
        n.seed_state(vec![NodeId(120)], vec![], vec![], vec![]);
        let peer = test_node(120);
        let list = peer.sign_table(
            successor_list_table(NodeId(120), vec![NodeId(130), NodeId(140)]),
            0,
        );
        n.on_succ_list(NodeId(120), list);
        assert_eq!(n.successors(), &[NodeId(120), NodeId(130), NodeId(140)]);
    }

    #[test]
    fn peer_death_drops_from_lists_and_pool() {
        let mut n = test_node(100);
        n.seed_state(
            vec![NodeId(120), NodeId(130)],
            vec![NodeId(80)],
            vec![],
            vec![(NodeId(120), NodeId(99))],
        );
        n.on_peer_dead(NodeId(120));
        assert_eq!(n.successors(), &[NodeId(130)]);
        assert_eq!(n.relay_pool.len(), 0);
    }

    #[test]
    fn known_nodes_deduped() {
        let mut n = test_node(100);
        n.seed_state(
            vec![NodeId(120)],
            vec![NodeId(80)],
            vec![NodeId(120), NodeId(500)],
            vec![],
        );
        let known = n.known_nodes();
        assert_eq!(known, vec![NodeId(80), NodeId(120), NodeId(500)]);
    }

    #[test]
    fn table_buffer_bounded() {
        let mut n = test_node(100);
        let other = test_node(200);
        for i in 0..20u64 {
            let t = other.sign_table(other.routing_table(), i);
            n.buffer_table(t);
        }
        assert_eq!(n.table_buffer.len(), n.cfg.table_buffer);
    }
}
