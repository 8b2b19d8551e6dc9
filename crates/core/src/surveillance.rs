//! Secret surveillance and checked finger updates (§4.3–4.5).
//!
//! Three mechanisms share one machinery:
//!
//! * **Secret neighbor surveillance** (§4.3): X anonymously queries a
//!   random predecessor P and checks that X itself appears in P's
//!   returned successor list. P cannot distinguish the test from a real
//!   lookup query, so manipulating *any* query risks detection.
//! * **Secret finger surveillance** (§4.4): X picks a buffered signed
//!   fingertable of some Y, asks the suspect finger F′ for its
//!   predecessor list, then — after a short random delay — anonymously
//!   fetches a random predecessor P′₁'s successor list and looks for a
//!   node closer to the ideal finger id than F′.
//! * **Checked finger updates** (§4.5): the same two-step check is run on
//!   the result of every finger-update lookup before it is adopted.

use std::sync::Arc;

use octopus_chord::{NextHop, SignedRoutingTable};
use octopus_id::{Key, NodeId};
use octopus_sim::Duration;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::messages::{Msg, Report, Timer};
use crate::node::{AnonPurpose, DirectPurpose, FingerLookup, NodeCtx, OctopusNode};
use crate::simnet::Control;

/// Does `list` omit `node` though it spans past it? Only such a list
/// is evidence of an omission; a short or stale one is not (§4.3).
/// Neighbor surveillance files by this rule and the CA judges by it.
pub(crate) fn omits(list: &SignedRoutingTable, node: NodeId) -> bool {
    let succ = &list.table.successors;
    !succ.contains(&node)
        && succ
            .last()
            .is_some_and(|&last| node.is_between(list.owner(), last))
}

/// Does a finger `finger` for the ideal id `ideal` skip `z`, a node
/// closer to that id — the "true finger" (§4.4)? The finger never skips
/// itself. Finger surveillance, checked finger updates and the CA judge
/// by this rule.
pub(crate) fn skips(ideal: Key, finger: NodeId, z: NodeId) -> bool {
    ideal.distance_to_node(z) < ideal.distance_to_node(finger)
}

/// Where a finger check originated — determines the report filed on
/// violation and whether a candidate gets adopted on a pass.
#[derive(Clone, Debug)]
pub(crate) enum CheckOrigin {
    /// §4.4: checking finger `index` of a buffered signed table.
    Surveillance {
        /// Y's signed routing table under scrutiny.
        y_table: Box<SignedRoutingTable>,
        /// The finger index checked.
        index: u32,
    },
    /// §4.5: validating the result of a finger-update lookup before
    /// adopting it into slot `slot`.
    FingerUpdate {
        /// The signed table of the last lookup hop (the evidence that
        /// asserted F′ owns the target).
        evidence: Box<SignedRoutingTable>,
        /// Our finger slot the candidate would fill.
        slot: u32,
    },
}

/// An in-flight two-stage finger check.
#[derive(Clone, Debug)]
pub(crate) struct FingerCheck {
    /// The suspect finger F′.
    pub fprime: NodeId,
    /// The ideal finger id the slot should cover.
    pub ideal: Key,
    /// F′'s signed predecessor list (set after stage 1).
    pub fpred_list: Option<Box<SignedRoutingTable>>,
    /// The randomly selected predecessor P′₁ (set at stage 2).
    pub p1: Option<NodeId>,
    /// What triggered the check.
    pub origin: CheckOrigin,
}

impl OctopusNode {
    /// One surveillance round (every 60 s): one neighbor test plus one
    /// finger test.
    pub(crate) fn run_surveillance(&mut self, ctx: &mut NodeCtx<'_>) {
        self.neighbor_check(ctx);
        self.finger_surveillance_check(ctx);
    }

    /// §4.3: anonymously test a random predecessor.
    fn neighbor_check(&mut self, ctx: &mut NodeCtx<'_>) {
        let preds: Vec<NodeId> = self
            .predecessors
            .iter()
            .copied()
            .filter(|p| !self.revoked.contains(p) && *p != self.id)
            .collect();
        let Some(&target) = preds.as_slice().choose(ctx.rng()) else {
            return;
        };
        let Some((a, b)) = self.sample_relay_pair(ctx.rng()) else {
            return;
        };
        if a == target || b == target {
            return; // don't route the test through its own subject
        }
        self.send_anonymous_query(ctx, &[a, b], target, AnonPurpose::NeighborCheck { target });
    }

    /// §4.4: pick a buffered table and start a finger check on one of
    /// its fingers.
    fn finger_surveillance_check(&mut self, ctx: &mut NodeCtx<'_>) {
        let candidates: Vec<&SignedRoutingTable> = self
            .table_buffer
            .iter()
            .filter(|t| t.owner() != self.id && !t.table.fingers.is_empty())
            .collect();
        // only the chosen table is copied; the draw is the same whatever
        // the element type
        let Some(table) = candidates.choose(ctx.rng()).map(|&t| t.clone()) else {
            return;
        };
        let index = ctx.rng().gen_range(0..table.table.fingers.len()) as u32;
        let fprime = table.table.fingers[index as usize];
        if fprime == table.owner() || fprime == self.id || self.revoked.contains(&fprime) {
            return;
        }
        let ideal = self.chord().finger_target(table.owner(), index);
        self.begin_finger_check(
            ctx,
            fprime,
            ideal,
            CheckOrigin::Surveillance {
                y_table: Box::new(table),
                index,
            },
        );
    }

    /// Start stage 1 of a finger check: ask F′ for its predecessor list.
    pub(crate) fn begin_finger_check(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        fprime: NodeId,
        ideal: Key,
        origin: CheckOrigin,
    ) {
        let check = self.fresh_req();
        self.checks.insert(
            check,
            FingerCheck {
                fprime,
                ideal,
                fpred_list: None,
                p1: None,
                origin,
            },
        );
        self.send_direct(
            ctx,
            fprime,
            |req| Msg::GetPredList { req },
            DirectPurpose::FingerPredList { check },
        );
    }

    /// Stage 1 reply: F′'s predecessor list arrived.
    pub(crate) fn on_finger_pred_list(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        check: u64,
        list: SignedRoutingTable,
    ) {
        let now = ctx.now().as_secs_f64() as u64;
        let Some(fc) = self.checks.get_mut(&check) else {
            return;
        };
        if list.owner() != fc.fprime || list.verify_with(&mut self.verifier, now).is_err() {
            self.checks.remove(&check);
            return;
        }
        fc.fpred_list = Some(Box::new(list));
        // "after a short random period of time" (§4.4) — decorrelates the
        // pred-list request from the consistency query
        let delay = Duration::from_millis(ctx.rng().gen_range(500..3000));
        ctx.set_timer(delay, Timer::FingerCheckStage2 { check });
    }

    /// Stage 2: anonymously query a random predecessor P′₁ of F′.
    pub(crate) fn finger_check_stage2(&mut self, ctx: &mut NodeCtx<'_>, check: u64) {
        let Some(fc) = self.checks.get(&check) else {
            return;
        };
        let Some(list) = fc.fpred_list.as_ref() else {
            self.checks.remove(&check);
            return;
        };
        let fprime = fc.fprime;
        let preds: Vec<NodeId> = list
            .table
            .predecessors
            .iter()
            .copied()
            .filter(|p| *p != self.id && *p != fprime && !self.revoked.contains(p))
            .collect();
        let Some(&p1) = preds.as_slice().choose(ctx.rng()) else {
            self.checks.remove(&check);
            return;
        };
        let Some((a, b)) = self.sample_relay_pair(ctx.rng()) else {
            self.checks.remove(&check);
            return;
        };
        if a == p1 || b == p1 {
            self.checks.remove(&check);
            return;
        }
        if let Some(fc) = self.checks.get_mut(&check) {
            fc.p1 = Some(p1);
        }
        self.send_anonymous_query(ctx, &[a, b], p1, AnonPurpose::FingerStage2 { check });
    }

    /// Stage 2 reply: P′₁'s routing table arrived; decide.
    pub(crate) fn conclude_finger_check(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        check: u64,
        p1_table: SignedRoutingTable,
    ) {
        let now = ctx.now().as_secs_f64() as u64;
        let Some(fc) = self.checks.remove(&check) else {
            return;
        };
        let Some(p1) = fc.p1 else { return };
        if p1_table.owner() != p1 || p1_table.verify_with(&mut self.verifier, now).is_err() {
            return;
        }
        // the violation: some successor of P′₁ is closer to the ideal
        // finger id than F′ — the "true finger" Y's table skipped (§4.4)
        let closer = p1_table
            .table
            .successors
            .iter()
            .copied()
            .find(|&z| skips(fc.ideal, fc.fprime, z));
        let violation = closer.is_some();
        ctx.emit(Control::FingerTest {
            tester: self.id,
            finger: fc.fprime,
            ideal: fc.ideal,
            violation,
            from_update: matches!(fc.origin, CheckOrigin::FingerUpdate { .. }),
        });
        match fc.origin {
            CheckOrigin::Surveillance { y_table, index } => {
                if let (true, Some(fpl)) = (violation, fc.fpred_list) {
                    let report = Report::FingerManipulation {
                        reporter: self.id,
                        reporter_cert: *self.cert,
                        table: y_table,
                        finger_index: index,
                        finger_pred_list: fpl,
                        pred_succ_list: Box::new(p1_table),
                    };
                    self.file_report(ctx, report);
                }
            }
            CheckOrigin::FingerUpdate { evidence, slot } => {
                if let Some(z) = closer {
                    // the last lookup hop's signed table asserted F′
                    // covers the target while omitting the closer z —
                    // report the omission (§4.5)
                    let report = Report::ListOmission {
                        reporter: self.id,
                        reporter_cert: *self.cert,
                        omitted: z,
                        accused_list: evidence,
                    };
                    self.file_report(ctx, report);
                    // re-run the lookup next period rather than adopt
                } else {
                    self.adopt_finger(slot, fc.fprime);
                    // keep the check transcript: P′₁'s signed list is the
                    // adoption provenance shown to the CA if the finger
                    // is ever challenged
                    self.finger_prov[slot as usize] = Some(Arc::new(p1_table));
                }
            }
        }
    }

    fn adopt_finger(&mut self, slot: u32, finger: NodeId) {
        let slot = slot as usize;
        if self.fingers.len() <= slot {
            self.fingers.resize(slot + 1, self.id);
        }
        self.fingers[slot] = finger;
    }

    // ------------------------------------------------------------------
    // Finger updates (§4.5): iterative lookups toward ideal finger ids,
    // candidates validated before adoption.
    // ------------------------------------------------------------------

    /// Refresh every finger (one lookup per slot, every 30 s).
    pub(crate) fn start_finger_update(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..self.cfg.chord.fingers {
            self.start_one_finger_lookup(ctx, i);
        }
    }

    fn start_one_finger_lookup(&mut self, ctx: &mut NodeCtx<'_>, index: u32) {
        let target = self.chord().finger_target(self.id, index);
        match self.routing_table().next_hop(target) {
            NextHop::Found(owner) => {
                // our own successor list already covers the target; the
                // entry came from stabilization, whose signed proofs
                // double as adoption provenance. Without a proof in hand
                // yet (fresh join), defer the adoption — an unjustifiable
                // finger is a liability under challenge.
                if let Some(proof) = self.proof_queue.back() {
                    self.finger_prov[index as usize] = Some(Arc::clone(proof));
                    self.adopt_finger(index, owner);
                }
            }
            NextHop::Forward(next) => {
                if next == self.id || self.revoked.contains(&next) {
                    return;
                }
                let fl = self.fresh_req();
                self.finger_lookups.insert(
                    fl,
                    FingerLookup {
                        index,
                        target,
                        hops: 0,
                    },
                );
                self.send_direct(
                    ctx,
                    next,
                    |req| Msg::GetTable { req },
                    DirectPurpose::FingerLookupStep { fl },
                );
            }
        }
    }

    /// A finger-update lookup step returned a table.
    pub(crate) fn on_finger_lookup_table(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        fl: u64,
        table: SignedRoutingTable,
    ) {
        let now = ctx.now().as_secs_f64() as u64;
        let Some(state) = self.finger_lookups.get_mut(&fl) else {
            return;
        };
        if table.verify_with(&mut self.verifier, now).is_err() {
            self.finger_lookups.remove(&fl);
            return;
        }
        state.hops += 1;
        let (index, target, hops) = (state.index, state.target, state.hops);
        match table.table.next_hop(target) {
            NextHop::Found(candidate) => {
                self.finger_lookups.remove(&fl);
                let current = self.fingers.get(index as usize).copied();
                if candidate == self.id {
                    return;
                }
                if current == Some(candidate) {
                    return; // unchanged — already validated previously
                }
                // §4.5: validate the candidate before adoption
                self.begin_finger_check(
                    ctx,
                    candidate,
                    target,
                    CheckOrigin::FingerUpdate {
                        evidence: Box::new(table.clone()),
                        slot: index,
                    },
                );
            }
            NextHop::Forward(next) => {
                if hops >= 24 || next == self.id || self.revoked.contains(&next) {
                    self.finger_lookups.remove(&fl);
                    return;
                }
                self.send_direct(
                    ctx,
                    next,
                    |req| Msg::GetTable { req },
                    DirectPurpose::FingerLookupStep { fl },
                );
            }
        }
        self.buffer_table(table);
    }

    // ------------------------------------------------------------------
    // Neighbor-check conclusion (§4.3).
    // ------------------------------------------------------------------

    /// An anonymous neighbor-surveillance reply arrived.
    pub(crate) fn conclude_neighbor_check(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        target: NodeId,
        table: SignedRoutingTable,
    ) {
        let now = ctx.now().as_secs_f64() as u64;
        if table.owner() != target || table.verify_with(&mut self.verifier, now).is_err() {
            return;
        }
        let violation = omits(&table, self.id);
        ctx.emit(Control::NeighborTest {
            tester: self.id,
            target,
            violation,
        });
        if violation {
            let report = Report::ListOmission {
                reporter: self.id,
                reporter_cert: *self.cert,
                omitted: self.id,
                accused_list: Box::new(table),
            };
            self.file_report(ctx, report);
        }
    }
}
