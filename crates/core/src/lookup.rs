//! The anonymous Octopus lookup (§4.1–4.2).
//!
//! Every query of a lookup travels over its *own* anonymous path
//! (Fig. 1(b): the shared first pair (A, B) plus a per-query pair
//! (Cᵢ, Dᵢ)), and dummy queries to plausible positions are mixed in so a
//! passive adversary cannot tell which observed queries belong together
//! or which are real — defeating the range-estimation attack that breaks
//! NISAN and Torsk.

use octopus_chord::{NextHop, SignedRoutingTable};
use octopus_id::{Key, NodeId};
use octopus_sim::SimTime;
use octopus_spec::ModelEvent;
use rand::seq::SliceRandom;

use crate::messages::Report;
use crate::mutation::{self, Mutation};
use crate::node::{AnonPurpose, NodeCtx, OctopusNode};
use crate::simnet::Control;

/// Hop cap for one lookup (honest lookups take Θ(log N)).
const MAX_LOOKUP_HOPS: usize = 32;
/// Per-query retry budget when a path times out.
const MAX_RETRIES: usize = 2;

/// An application lookup in progress.
#[derive(Clone, Debug)]
pub(crate) struct LookupState {
    /// The hidden lookup key.
    pub key: Key,
    /// The shared first relay pair (A, B) for this lookup.
    pub first_pair: (NodeId, NodeId),
    /// Remote queries performed so far.
    pub hops: usize,
    /// When the lookup started.
    pub started: SimTime,
    /// Retries left for the current step.
    pub retries: usize,
    /// The node the outstanding query targets.
    pub awaiting: NodeId,
}

impl OctopusNode {
    /// Start an anonymous lookup for `key`.
    pub fn start_lookup(&mut self, ctx: &mut NodeCtx<'_>, key: Key) {
        let started = ctx.now();
        match self.routing_table().next_hop(key) {
            NextHop::Found(owner) => {
                ctx.emit(Control::LookupDone {
                    initiator: self.id,
                    key,
                    result: Some(owner),
                    hops: 0,
                    elapsed: ctx.now() - started,
                });
            }
            NextHop::Forward(first_target) => {
                let Some(first_pair) = self.sample_relay_pair(ctx.rng()) else {
                    return; // no anonymization relays yet
                };
                let id = self.fresh_req();
                let st = LookupState {
                    key,
                    first_pair,
                    hops: 0,
                    started,
                    retries: MAX_RETRIES,
                    awaiting: first_target,
                };
                self.lookups.insert(id, st);
                self.send_lookup_query(ctx, id, first_target);
                self.send_dummies(ctx, id);
            }
        }
    }

    /// Fire the configured number of dummy queries for lookup `id`
    /// toward random plausible positions (§4.2).
    fn send_dummies(&mut self, ctx: &mut NodeCtx<'_>, id: u64) {
        let known = self.known_nodes();
        if known.is_empty() {
            return;
        }
        for _ in 0..self.cfg.dummy_queries {
            let Some(&target) = known.as_slice().choose(ctx.rng()) else {
                break;
            };
            let Some(relays) = self.lookup_path(ctx, id, target) else {
                break;
            };
            self.send_anonymous_query(
                ctx,
                &relays,
                target,
                AnonPurpose::LookupQuery {
                    lookup: id,
                    dummy: true,
                },
            );
        }
    }

    /// Assemble the 4-relay path for one query of lookup `id`:
    /// the lookup's shared (A, B) plus a fresh per-query pair (Cᵢ, Dᵢ).
    ///
    /// All four relays must be distinct — a flow revisiting a relay would
    /// collide with its own reply-routing state (and a repeated relay
    /// weakens the path in the real system too) — and none may be the
    /// queried node or the initiator.
    fn lookup_path(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        id: u64,
        target: NodeId,
    ) -> Option<Vec<NodeId>> {
        let (a, b) = self.lookups.get(&id)?.first_pair;
        if a == target || b == target || a == self.id || b == self.id {
            return None;
        }
        for _ in 0..8 {
            let Some((c, d)) = self.sample_relay_pair(ctx.rng()) else {
                break;
            };
            let path = [a, b, c, d];
            let distinct = a != c && a != d && b != c && b != d;
            if distinct && !path.contains(&target) && !path.contains(&self.id) {
                return Some(path.to_vec());
            }
        }
        // degenerate fallback: a single pair still anonymizes, just with
        // less unlinkability between queries
        Some(vec![a, b])
    }

    fn send_lookup_query(&mut self, ctx: &mut NodeCtx<'_>, id: u64, target: NodeId) {
        let Some(relays) = self.lookup_path(ctx, id, target) else {
            self.fail_lookup(ctx, id);
            return;
        };
        if let Some(st) = self.lookups.get_mut(&id) {
            st.awaiting = target;
        }
        self.trace(ctx, || ModelEvent::LookupQuery {
            node: self.id.0,
            lookup: id,
            target: target.0,
        });
        self.send_anonymous_query(
            ctx,
            &relays,
            target,
            AnonPurpose::LookupQuery {
                lookup: id,
                dummy: false,
            },
        );
    }

    /// A lookup query's routing table arrived.
    pub(crate) fn on_lookup_table(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        id: u64,
        table: SignedRoutingTable,
    ) {
        let now = ctx.now().as_secs_f64() as u64;
        let Some(st) = self.lookups.get(&id) else {
            return;
        };
        let awaiting = st.awaiting;
        let owner = table.owner();
        // recompute both gate inputs independently of the accept
        // decision so the oracle can observe a broken decision path
        // (the verify call is pure — no RNG — so evaluating it
        // unconditionally never shifts a seeded stream)
        let owner_match = owner == awaiting;
        let sig_ok = table.verify_with(&mut self.verifier, now).is_ok();
        let accepted = if mutation::is(Mutation::AcceptStaleTables) {
            owner_match // injected bug: certificate check skipped
        } else {
            owner_match && sig_ok
        };
        self.trace(ctx, || ModelEvent::TableChecked {
            node: self.id.0,
            lookup: id,
            owner: owner.0,
            awaiting: awaiting.0,
            sig_ok,
            accepted,
        });
        if !accepted {
            return; // wrong or forged responder; the timeout will retry
        }
        let st = self.lookups.get_mut(&id).expect("state checked above");
        st.hops += 1;
        st.retries = MAX_RETRIES;
        let (key, hops, started) = (st.key, st.hops, st.started);
        match table.table.next_hop(key) {
            NextHop::Found(owner) => {
                let st = self.lookups.remove(&id).expect("state exists");
                ctx.emit(Control::LookupDone {
                    initiator: self.id,
                    key,
                    result: Some(owner),
                    hops: st.hops,
                    elapsed: ctx.now() - started,
                });
            }
            NextHop::Forward(next) => {
                if hops >= MAX_LOOKUP_HOPS || next == self.id {
                    self.fail_lookup(ctx, id);
                } else {
                    self.send_lookup_query(ctx, id, next);
                }
            }
        }
        self.buffer_table(table);
    }

    /// An anonymous lookup query timed out (dropped or dead path).
    pub(crate) fn on_lookup_timeout(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        id: u64,
        flow: u64,
        relays: Vec<NodeId>,
    ) {
        let Some(st) = self.lookups.get_mut(&id) else {
            return;
        };
        let target = st.awaiting;
        // Appendix II: report the failed path so the CA can walk the
        // forwarding receipts and identify the dropper
        let initiator_receipt = self.receipts.get(&flow).cloned();
        let report = Report::Dropper {
            reporter: self.id,
            reporter_cert: *self.cert,
            flow,
            relays,
            target,
            initiator_receipt,
        };
        self.file_report(ctx, report);
        let Some(st) = self.lookups.get_mut(&id) else {
            return;
        };
        if st.retries == 0 {
            self.fail_lookup(ctx, id);
            return;
        }
        st.retries -= 1;
        // retry over a fresh first pair as well (any relay may be bad)
        if let Some(pair) = self.sample_relay_pair(ctx.rng()) {
            if let Some(st) = self.lookups.get_mut(&id) {
                st.first_pair = pair;
            }
        }
        self.send_lookup_query(ctx, id, target);
    }

    fn fail_lookup(&mut self, ctx: &mut NodeCtx<'_>, id: u64) {
        if let Some(st) = self.lookups.remove(&id) {
            ctx.emit(Control::LookupDone {
                initiator: self.id,
                key: st.key,
                result: None,
                hops: st.hops,
                elapsed: ctx.now() - st.started,
            });
        }
    }

    /// Dispatch an anonymous reply to its purpose handler.
    pub(crate) fn handle_anon_reply(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        purpose: AnonPurpose,
        payload: crate::messages::Msg,
    ) {
        use crate::messages::Msg;
        match (purpose, payload) {
            (AnonPurpose::LookupQuery { lookup, dummy }, Msg::Table { table, .. }) if !dummy => {
                self.on_lookup_table(ctx, lookup, *table);
            }
            (AnonPurpose::NeighborCheck { target }, Msg::Table { table, .. }) => {
                self.conclude_neighbor_check(ctx, target, *table);
            }
            (AnonPurpose::FingerStage2 { check }, Msg::Table { table, .. }) => {
                self.conclude_finger_check(ctx, check, *table);
            }
            (AnonPurpose::WalkQuery { walk }, Msg::Table { table, .. }) => {
                self.on_walk_query_reply(ctx, walk, *table);
            }
            (AnonPurpose::WalkDelegate { walk }, Msg::WalkResult { tables, .. }) => {
                self.on_walk_result(ctx, walk, tables);
            }
            _ => {}
        }
    }

    /// An anonymous request timed out; dispatch per purpose.
    pub(crate) fn handle_anon_timeout(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        flow: u64,
        purpose: AnonPurpose,
        relays: Vec<NodeId>,
    ) {
        match purpose {
            AnonPurpose::LookupQuery { lookup, dummy } => {
                if !dummy {
                    self.on_lookup_timeout(ctx, lookup, flow, relays);
                }
            }
            AnonPurpose::NeighborCheck { .. } | AnonPurpose::FingerStage2 { .. } => {
                // surveillance silently retries next period
            }
            AnonPurpose::WalkQuery { walk } | AnonPurpose::WalkDelegate { walk } => {
                self.abort_walk(ctx, walk);
            }
        }
    }
}
