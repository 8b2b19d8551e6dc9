//! The two-phase random walk for relay selection (Appendix I, Fig. 8).
//!
//! Phase 1: the initiator I hops `l` times, choosing each next hop
//! uniformly from the previous hop's (signed, bound-checked) fingertable,
//! querying each hop *through the partial path built so far* so no hop
//! past U₁ learns I's identity.
//!
//! Phase 2: I hands a random seed to Uₗ through the phase-1 path; Uₗ
//! walks `l` more hops, with every "random" choice derived from the seed,
//! and returns all signed fingertables. I re-derives the choices and
//! verifies every signature and bound, so a dishonest Uₗ cannot steer the
//! walk without detection. The last two hops become an anonymization
//! relay pair.

use octopus_chord::SignedRoutingTable;
use octopus_id::NodeId;
use octopus_sim::split_seed;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::messages::{Delegation, ExitAction, Msg};
use crate::node::{AnonPurpose, DirectPurpose, NodeCtx, OctopusNode};
use crate::simnet::Control;

/// Hops per random-walk phase (`l` in Appendix I).
const WALK_LENGTH: usize = 3;

/// A walk in progress at the initiator.
#[derive(Clone, Debug)]
pub(crate) struct WalkState {
    /// Phase-1 hops U₁…Uᵢ visited so far.
    pub hops: Vec<NodeId>,
    /// Their signed tables (kept for buffering and phase-2 verification).
    pub tables: Vec<SignedRoutingTable>,
    /// The hop we are waiting to hear from.
    pub awaiting: NodeId,
    /// Seed for phase 2.
    pub seed: u64,
}

/// A delegated phase-2 walk in progress at Uₗ, keyed by the phase-1 flow.
#[derive(Clone, Debug)]
pub(crate) struct DelegatedWalk {
    /// The seed received from the (anonymous) initiator.
    pub seed: u64,
    /// Hops still to take.
    pub length: usize,
    /// Signed tables collected so far.
    pub collected: Vec<SignedRoutingTable>,
    /// The fingertable the next choice is derived from.
    pub current_fingers: Vec<NodeId>,
}

/// Derive the seed-guided finger choice for hop `i` (shared by Uₗ and
/// the initiator's verifier — footnote 5's `hash(seed, i) → [1, m]`).
#[must_use]
pub(crate) fn seeded_choice(seed: u64, i: usize, fingers: &[NodeId]) -> Option<NodeId> {
    if fingers.is_empty() {
        return None;
    }
    Some(fingers[(split_seed(seed, i as u64) % fingers.len() as u64) as usize])
}

impl OctopusNode {
    /// Begin a relay-selection walk (every 15 s).
    pub(crate) fn start_walk(&mut self, ctx: &mut NodeCtx<'_>) {
        let fingers: Vec<NodeId> = self
            .fingers
            .iter()
            .copied()
            .filter(|f| *f != self.id && !self.revoked.contains(f))
            .collect();
        let Some(&u1) = fingers.as_slice().choose(ctx.rng()) else {
            return;
        };
        let walk = self.fresh_req();
        self.walks.insert(
            walk,
            WalkState {
                hops: vec![u1],
                tables: Vec::new(),
                awaiting: u1,
                seed: ctx.rng().gen(),
            },
        );
        self.send_direct(
            ctx,
            u1,
            |req| Msg::GetTable { req },
            DirectPurpose::WalkFirstHop { walk },
        );
    }

    /// Abort a walk (timeout, bad signature, failed bound check).
    pub(crate) fn abort_walk(&mut self, ctx: &mut NodeCtx<'_>, walk: u64) {
        if self.walks.remove(&walk).is_some() {
            ctx.emit(Control::WalkDone {
                initiator: self.id,
                ok: false,
            });
        }
    }

    /// Phase-1 table received (first hop directly, later hops through
    /// the partial anonymous path).
    pub(crate) fn on_walk_table(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        walk: u64,
        table: SignedRoutingTable,
    ) {
        let now = ctx.now().as_secs_f64() as u64;
        let Some(st) = self.walks.get_mut(&walk) else {
            return;
        };
        if table.owner() != st.awaiting || table.verify_with(&mut self.verifier, now).is_err() {
            self.abort_walk(ctx, walk);
            return;
        }
        // Appendix I / §4.1: bound checking limits fingertable
        // manipulation along the walk
        if !self.bound_checker().passes(&table.table) {
            self.abort_walk(ctx, walk);
            return;
        }
        let st = self.walks.get_mut(&walk).expect("still present");
        st.tables.push(table.clone());
        self.buffer_table(table);
        let st = self.walks.get(&walk).expect("still present");
        if st.hops.len() >= WALK_LENGTH {
            self.delegate_phase2(ctx, walk);
            return;
        }
        // choose the next hop uniformly from the current fingertable
        let last_table = st.tables.last().expect("at least one table");
        let hops = st.hops.clone();
        let candidates: Vec<NodeId> = last_table
            .table
            .fingers
            .iter()
            .copied()
            .filter(|f| *f != self.id && !hops.contains(f) && !self.revoked.contains(f))
            .collect();
        let Some(&next) = candidates.as_slice().choose(ctx.rng()) else {
            self.abort_walk(ctx, walk);
            return;
        };
        let st = self.walks.get_mut(&walk).expect("still present");
        st.hops.push(next);
        st.awaiting = next;
        let relays = hops; // query travels through U₁…Uᵢ₋₁
        self.send_anon_action(
            ctx,
            &relays,
            ExitAction::QueryTable { target: next },
            AnonPurpose::WalkQuery { walk },
        );
    }

    /// Reply to a phase-1 query that travelled the partial path.
    pub(crate) fn on_walk_query_reply(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        walk: u64,
        table: SignedRoutingTable,
    ) {
        self.on_walk_table(ctx, walk, table);
    }

    /// Phase 1 complete: delegate phase 2 to Uₗ through the path.
    fn delegate_phase2(&mut self, ctx: &mut NodeCtx<'_>, walk: u64) {
        let Some(st) = self.walks.get(&walk) else {
            return;
        };
        let seed = st.seed;
        // Uₗ must pick from exactly the fingertable it signed in phase 1,
        // so the initiator sends that table's fingers along (removing any
        // ambiguity about which snapshot the seed indexes)
        let ul_fingers = st
            .tables
            .last()
            .map(|t| t.table.fingers.clone())
            .unwrap_or_default();
        if ul_fingers.is_empty() {
            self.abort_walk(ctx, walk);
            return;
        }
        let relays = st.hops.clone(); // the full phase-1 path, exit = Uₗ
        self.send_anon_action(
            ctx,
            &relays,
            ExitAction::Delegate(Box::new(Delegation {
                seed,
                length: WALK_LENGTH,
                fingers: ul_fingers,
            })),
            AnonPurpose::WalkDelegate { walk },
        );
    }

    /// We are Uₗ: a delegation arrived through an anonymous path.
    pub(crate) fn on_walk_delegate(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        flow: u64,
        delegation: Delegation,
    ) {
        let dw = DelegatedWalk {
            seed: delegation.seed,
            length: delegation.length,
            collected: Vec::new(),
            current_fingers: delegation.fingers,
        };
        self.delegated.insert(flow, dw);
        self.step_delegated(ctx, flow);
    }

    /// Take the next seed-guided phase-2 hop.
    pub(crate) fn step_delegated(&mut self, ctx: &mut NodeCtx<'_>, flow: u64) {
        let Some(dw) = self.delegated.get(&flow) else {
            return;
        };
        if dw.collected.len() >= dw.length {
            // done: return all signed tables to the initiator
            let dw = self.delegated.remove(&flow).expect("present");
            let reply = Msg::WalkResult {
                flow,
                tables: dw.collected,
            };
            // the exit's part of the flow ends with its reply
            if let Some(rf) = self.relay_flows.remove(&flow) {
                ctx.send(
                    rf.prev,
                    Msg::OnionReply {
                        flow,
                        payload: Box::new(reply),
                    },
                );
            }
            return;
        }
        let i = dw.collected.len();
        let Some(next) = seeded_choice(dw.seed, i, &dw.current_fingers) else {
            self.delegated.remove(&flow);
            return;
        };
        if next == self.id {
            self.delegated.remove(&flow);
            return;
        }
        self.send_direct(
            ctx,
            next,
            |req| Msg::GetTable { req },
            DirectPurpose::Phase2Step { flow },
        );
    }

    /// A phase-2 step's table arrived (we are Uₗ).
    pub(crate) fn on_phase2_table(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        flow: u64,
        table: SignedRoutingTable,
    ) {
        let Some(dw) = self.delegated.get_mut(&flow) else {
            return;
        };
        dw.current_fingers = table.table.fingers.clone();
        dw.collected.push(table);
        self.step_delegated(ctx, flow);
    }

    /// The phase-2 result arrived at the initiator: verify everything.
    pub(crate) fn on_walk_result(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        walk: u64,
        tables: Vec<SignedRoutingTable>,
    ) {
        let now = ctx.now().as_secs_f64() as u64;
        let Some(st) = self.walks.remove(&walk) else {
            return;
        };
        let l = WALK_LENGTH;
        let ok = 'verify: {
            if tables.len() != l || st.tables.len() != l {
                break 'verify false;
            }
            // re-derive every seed-guided choice and verify each table
            let mut fingers = st.tables[l - 1].table.fingers.clone();
            for (i, t) in tables.iter().enumerate() {
                let Some(expected) = seeded_choice(st.seed, i, &fingers) else {
                    break 'verify false;
                };
                if t.owner() != expected
                    || t.verify_with(&mut self.verifier, now).is_err()
                    || !self.bound_checker().passes(&t.table)
                {
                    break 'verify false;
                }
                fingers = t.table.fingers.clone();
            }
            true
        };
        if ok {
            for t in &tables {
                self.buffer_table(t.clone());
            }
            let pair = (tables[l - 2].owner(), tables[l - 1].owner());
            if pair.0 != pair.1 && pair.0 != self.id && pair.1 != self.id {
                self.push_relay_pair(pair);
            }
        }
        ctx.emit(Control::WalkDone {
            initiator: self.id,
            ok,
        });
    }
}
