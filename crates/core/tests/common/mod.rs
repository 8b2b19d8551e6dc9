//! Shared harness for the reference-model oracle suites: the probe
//! configuration (a small, fast network with accelerated protocol
//! periods and tracing on), the shard-count cube, and the
//! seeded Byzantine injection rounds used by the fuzz oracle and the
//! mutation-kill suite.
//!
//! Each integration test binary links this module separately and uses a
//! subset of it, so unused-item lints are silenced wholesale.

// The workspace's one `allow`: an `#[expect(dead_code)]` would go
// unfulfilled in a binary that uses all of this module. clippy's
// `allow_attributes` reads outer attributes only, so this inner one
// needs no expectation of its own.
#![allow(
    dead_code,
    reason = "each test binary uses a different subset of this module"
)]

use std::collections::BTreeSet;

use octopus_chord::SignedRoutingTable;
use octopus_core::messages::{receipt_bytes, ExitAction, Hop, ReceiptToken, Report};
use octopus_core::simnet::CA_ADDR;
use octopus_core::spec_adapter::replay_trace;
use octopus_core::{
    AttackKind, Msg, OctopusConfig, OnionPacket, SecuritySim, SimConfig, SimReport, TraceEvent,
};
use octopus_id::NodeId;
use octopus_sim::{Duration, SimTime};
use octopus_spec::{check_invariants, Replay};

/// One point of the acceptance cube: a shard count.
pub type CubePoint = usize;

/// The cube's shard counts. Index 0 is the 1-shard baseline.
pub fn cube() -> Vec<CubePoint> {
    vec![1, 2, 4]
}

/// The probe network: 40 nodes, 12 simulated seconds, protocol periods
/// accelerated so a debug-build run still exercises walks, lookups,
/// onion relaying, receipts, surveillance and CA intake — with the
/// trace oracle recording.
pub fn probe(seed: u64, shards: CubePoint) -> SimConfig {
    let mut octopus = OctopusConfig::for_network(40);
    octopus.surveillance_every = Duration::from_secs(5);
    octopus.walk_every = Duration::from_secs(3);
    octopus.lookup_every = Duration::from_secs(4);
    octopus.trace = true;
    SimConfig {
        n: 40,
        malicious_fraction: 0.2,
        attack: AttackKind::LookupBias,
        attack_rate: 1.0,
        duration: Duration::from_secs(12),
        seed,
        shards,
        octopus,
        ..SimConfig::default()
    }
}

/// Everything one traced run yields: the report, the recorded trace,
/// and the engine's final ground truth for cross-checking the model.
pub struct TracedRun {
    /// The simulation report (byte-comparable across cube points).
    pub report: SimReport,
    /// The recorded semantic trace, in deterministic control order.
    pub trace: Vec<(SimTime, TraceEvent)>,
    /// Live node ids at the end of the run (engine ground truth).
    pub live: BTreeSet<u64>,
    /// Revoked node ids at the end of the run (engine ground truth).
    pub revoked: BTreeSet<u64>,
}

/// Run a probe to completion and collect the trace and ground truth.
pub fn run_traced(cfg: SimConfig) -> TracedRun {
    let mut sim = SecuritySim::new(cfg);
    let report = sim.run();
    finish_traced(sim, report)
}

/// Collect trace and ground truth from a finished sim.
pub fn finish_traced(mut sim: SecuritySim, report: SimReport) -> TracedRun {
    let trace = sim.take_trace();
    let live = sim.live_ids().iter().map(|n| n.0).collect();
    let revoked = sim.revoked_ids().iter().map(|n| n.0).collect();
    TracedRun {
        report,
        trace,
        live,
        revoked,
    }
}

/// Replay a recorded trace through the reference model.
pub fn replay(run: &TracedRun) -> Replay {
    replay_trace(run.trace.iter().map(|(_, e)| e))
}

/// Assert a traced run agrees with the model completely: no
/// divergences, no invariant breaches, and final live/revoked ground
/// truth matching the model's state.
pub fn assert_model_agrees(run: &TracedRun, what: &str) -> Replay {
    let rep = replay(run);
    assert!(
        rep.divergences.is_empty(),
        "{what}: model diverged from engine: {:?}",
        rep.divergences
    );
    let broken = check_invariants(&rep.state);
    assert!(broken.is_empty(), "{what}: invariants breached: {broken:?}");
    assert_eq!(rep.state.live, run.live, "{what}: live sets disagree");
    assert_eq!(
        rep.state.revoked, run.revoked,
        "{what}: revoked sets disagree"
    );
    rep
}

// ---------------------------------------------------------------------
// Byzantine injection rounds (fuzz oracle + mutation kill).
// ---------------------------------------------------------------------

/// Flow-id namespace for injected onions, far above the engine's
/// counter-derived organic flow ids.
pub const INJECT_FLOW_BASE: u64 = 0xF1ED_0000_0000_0000;

/// What a sequence of injection rounds put on the wire, so assertions
/// know which rejection evidence must appear in the trace.
#[derive(Debug, Default)]
pub struct InjectStats {
    /// Receipts signed by the wrong node for a live awaited flow.
    pub wrong_signer_receipts: usize,
    /// Receipts with the awaited identity but a garbage signature
    /// (accepted by engine AND model: the node-side check is
    /// identity-only; signatures are verified by the CA).
    pub garbage_sig_receipts: usize,
    /// Lookup replies carrying a table signed under an expired cert.
    pub stale_tables: usize,
    /// Lookup replies carrying another node's validly signed table.
    pub wrong_owner_tables: usize,
    /// Dropper reports whose attached initiator receipt is forged.
    pub forged_receipt_reports: usize,
    /// Reports presenting a certificate for the wrong identity.
    pub bad_cert_reports: usize,
    /// Reports presenting an expired certificate.
    pub stale_cert_reports: usize,
    /// Truncated onions (empty remaining route) fired at honest nodes.
    pub truncated_onions: usize,
    /// Onions with a fabricated remaining route.
    pub routed_onions: usize,
    /// Byte-for-byte replays of a previously injected onion.
    pub replayed_onions: usize,
    /// Spoofed/replayed revocation broadcasts.
    pub spoofed_revocations: usize,
}

/// State carried across injection rounds (the replay corpus).
#[derive(Debug, Default)]
pub struct Injector {
    /// Totals of everything injected so far.
    pub stats: InjectStats,
    /// Last injected routed onion, replayed verbatim next round.
    last_onion: Option<(NodeId, NodeId, OnionPacket)>,
    /// Monotonic counter for injected flow ids.
    next_flow: u64,
}

impl Injector {
    fn flow(&mut self) -> u64 {
        self.next_flow += 1;
        INJECT_FLOW_BASE + self.next_flow
    }

    /// One seeded round of Byzantine mutations, injected while the sim
    /// is paused at `now_secs`. Every choice is a deterministic
    /// function of current sim state, so identical schedules replay
    /// identically at every cube point.
    pub fn round(&mut self, sim: &mut SecuritySim, now_secs: u64) {
        let malicious: Vec<NodeId> = sim.initial_malicious_ids().iter().copied().collect();
        let live = sim.live_ids();
        let honest: Vec<NodeId> = live
            .iter()
            .copied()
            .filter(|n| !malicious.contains(n))
            .collect();
        let (Some(&attacker), true) = (malicious.first(), honest.len() >= 2) else {
            return;
        };
        let victim = honest[now_secs as usize % honest.len()];
        let second = honest[(now_secs as usize + 1) % honest.len()];
        let attacker_kp = sim.keypair_of(attacker).expect("keys exist");
        let attacker_cert = sim.cert_of(attacker).expect("cert exists");

        // (1) Forged receipts against any flow caught in flight: one
        // with the wrong signer (must be rejected), one with the right
        // identity but a garbage signature (accepted — the node-side
        // check is identity-only by design; the model mirrors that).
        for &h in &honest {
            let flows = sim
                .with_peer(h, |p| p.awaiting_receipt_flows())
                .unwrap_or_default();
            let Some(&(flow, next)) = flows.first() else {
                continue;
            };
            if next != attacker {
                let sig = attacker_kp.sign(&receipt_bytes(flow));
                let token = ReceiptToken {
                    flow,
                    signer: attacker,
                    sig,
                };
                sim.inject(attacker, h, Msg::Receipt { token });
                self.stats.wrong_signer_receipts += 1;
            }
            let token = ReceiptToken {
                flow,
                signer: next,
                sig: octopus_crypto::Signature(0),
            };
            sim.inject(next, h, Msg::Receipt { token });
            self.stats.garbage_sig_receipts += 1;
        }

        // (2) Stale-certificate and stolen tables on pending lookups:
        // the awaited owner's real table, but signed under an expired
        // certificate — and another node's validly signed table.
        for &h in &honest {
            let pending = sim
                .with_peer(h, |p| p.pending_lookup_queries())
                .unwrap_or_default();
            let Some(&(flow, owner)) = pending.first() else {
                continue;
            };
            if let (Some(table), Some(kp), Some(stale)) = (
                sim.with_peer(owner, |p| p.routing_table()),
                sim.keypair_of(owner),
                sim.issue_cert_expiring(owner, 1),
            ) {
                let signed = SignedRoutingTable::sign(table, now_secs, &kp, stale);
                sim.inject(
                    attacker,
                    h,
                    Msg::OnionReply {
                        flow,
                        payload: Box::new(Msg::Table {
                            req: flow,
                            table: Box::new(signed),
                        }),
                    },
                );
                self.stats.stale_tables += 1;
            }
            if let Some(&(flow2, owner2)) = pending.get(1) {
                if owner2 != attacker {
                    if let Some(table) = sim.with_peer(attacker, |p| p.routing_table()) {
                        let signed =
                            SignedRoutingTable::sign(table, now_secs, &attacker_kp, attacker_cert);
                        sim.inject(
                            attacker,
                            h,
                            Msg::OnionReply {
                                flow: flow2,
                                payload: Box::new(Msg::Table {
                                    req: flow2,
                                    table: Box::new(signed),
                                }),
                            },
                        );
                        self.stats.wrong_owner_tables += 1;
                    }
                }
            }
        }

        // (3) A Dropper report with a valid reporter cert but a forged
        // initiator receipt: intake passes, the CA's receipt
        // verification must reject the garbage signature.
        let forged = ReceiptToken {
            flow: self.flow(),
            signer: victim,
            sig: octopus_crypto::Signature(0),
        };
        sim.inject(
            attacker,
            CA_ADDR,
            Msg::Report(Box::new(Report::Dropper {
                reporter: attacker,
                reporter_cert: attacker_cert,
                flow: forged.flow,
                relays: vec![victim],
                target: second,
                initiator_receipt: Some(forged),
            })),
        );
        self.stats.forged_receipt_reports += 1;

        // (4) Reports with broken reporter certificates: one presenting
        // another node's cert, one presenting a genuinely expired cert
        // issued by the real authority. Intake must refuse both.
        if let Some(stolen) = sim.cert_of(victim) {
            sim.inject(
                attacker,
                CA_ADDR,
                Msg::Report(Box::new(Report::Dropper {
                    reporter: attacker,
                    reporter_cert: stolen,
                    flow: self.flow(),
                    relays: vec![victim],
                    target: second,
                    initiator_receipt: None,
                })),
            );
            self.stats.bad_cert_reports += 1;
        }
        if now_secs > 2 {
            if let Some(expired) = sim.issue_cert_expiring(attacker, 1) {
                sim.inject(
                    attacker,
                    CA_ADDR,
                    Msg::Report(Box::new(Report::Dropper {
                        reporter: attacker,
                        reporter_cert: expired,
                        flow: self.flow(),
                        relays: vec![victim],
                        target: second,
                        initiator_receipt: None,
                    })),
                );
                self.stats.stale_cert_reports += 1;
            }
        }

        // (5) Onion mutations: a truncated onion (no layers left — the
        // victim becomes an exit for a flow it never agreed to carry),
        // a fabricated routed onion, and a byte-for-byte replay of the
        // previous round's routed onion (a replayed hop).
        let truncated = OnionPacket {
            flow: self.flow(),
            route: Vec::new(),
            action: ExitAction::QueryTable { target: second },
        };
        sim.inject(attacker, victim, Msg::Onion(truncated));
        self.stats.truncated_onions += 1;

        let routed = OnionPacket {
            flow: self.flow(),
            route: vec![Hop {
                node: second,
                delay: false,
            }],
            action: ExitAction::QueryTable { target: victim },
        };
        sim.inject(attacker, victim, Msg::Onion(routed.clone()));
        self.stats.routed_onions += 1;
        if let Some((from, to, packet)) = self.last_onion.take() {
            if live.contains(&to) {
                sim.inject(from, to, Msg::Onion(packet));
                self.stats.replayed_onions += 1;
            }
        }
        self.last_onion = Some((attacker, victim, routed));

        // (6) A spoofed revocation broadcast naming a malicious node the
        // CA has not (necessarily) convicted: a replay/forgery of the
        // CA's own broadcast channel. Honest nodes track it either way;
        // the oracle checks the purge actually happened.
        sim.inject(
            CA_ADDR,
            victim,
            Msg::Revocation {
                revoked: [attacker].into(),
            },
        );
        self.stats.spoofed_revocations += 1;
    }
}

/// Drive a probe with one Byzantine injection round per simulated
/// second, returning the traced run and the injection totals.
pub fn run_fuzzed(cfg: SimConfig) -> (TracedRun, InjectStats) {
    let end_secs = cfg.duration.as_secs_f64() as u64;
    let mut sim = SecuritySim::new(cfg);
    let mut acc = sim.begin();
    let mut inj = Injector::default();
    for s in 1..end_secs {
        sim.advance_until(&mut acc, SimTime::ZERO + Duration::from_secs(s));
        inj.round(&mut sim, s);
    }
    let report = sim.finish(acc);
    (finish_traced(sim, report), inj.stats)
}

/// Count trace events matching a predicate.
pub fn count(run: &TracedRun, pred: impl Fn(&TraceEvent) -> bool) -> usize {
    run.trace.iter().filter(|(_, e)| pred(e)).count()
}
