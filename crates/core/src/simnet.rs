//! The event-based security simulator (paper §5).
//!
//! Reproduces the paper's evaluation methodology: N = 1000 nodes with
//! 20 % malicious, King-like WAN latencies, exponential churn,
//! stabilization every 2 s, finger updates every 30 s, surveillance
//! every 60 s, random walks every 15 s, one application lookup per node
//! per minute — and measures how fast the attacker-identification
//! mechanisms drain the network of malicious nodes, how accurate they
//! are (Table 2's false positive/negative/alarm rates), how many lookups
//! get biased before the attackers die (Fig. 3(b)), and the CA's message
//! workload (Fig. 7(b)).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use octopus_chord::{ChordConfig, SignedSuccessorList};
use octopus_crypto::{Certificate, CertificateAuthority, KeyPair};
use octopus_id::{IdSpace, Key, NodeId};
use octopus_metrics::{merge_point_series, Merge};
use octopus_net::{Addr, KingLikeLatency, NodeBehavior, Runtime, World};
use octopus_sim::{derive_rng, ChurnProcess, Duration, SchedulerKind, SimTime};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::adversary::{AdversaryState, AttackKind, ShardedAdversary};
use crate::ca::CaNode;
use crate::config::OctopusConfig;
use crate::messages::{Msg, Timer};
use crate::node::OctopusNode;
use crate::trace::TraceEvent;

/// The CA's reserved overlay address (outside the ring population).
pub const CA_ADDR: NodeId = NodeId(u64::MAX);

/// Which mechanism a report/verdict belongs to (drives Table 2's rows
/// and Fig. 7(b)'s series).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReportCat {
    /// Secret neighbor surveillance (§4.3).
    NeighborSurveillance,
    /// Secret finger surveillance (§4.4).
    FingerSurveillance,
    /// Checked finger updates (§4.5).
    FingerUpdate,
    /// Selective-DoS defense (Appendix II).
    SelectiveDos,
}

/// Outcome of a CA case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A node was identified and its certificate revoked.
    Revoked(NodeId),
    /// The case closed without identifying anyone (false alarm).
    Dismissed,
}

/// Control events: protocol milestones surfaced to the driver, plus the
/// driver's own scheduled events (churn, measurement).
#[derive(Clone, Debug)]
pub enum Control {
    /// An application lookup finished.
    LookupDone {
        /// The initiator.
        initiator: NodeId,
        /// The key looked up.
        key: Key,
        /// The owner found (`None` = failed).
        result: Option<NodeId>,
        /// Remote queries used.
        hops: usize,
        /// Wall-clock (simulated) duration.
        elapsed: Duration,
    },
    /// A relay-selection walk finished.
    WalkDone {
        /// The walk's initiator.
        initiator: NodeId,
        /// Whether verification passed and a pair was harvested.
        ok: bool,
    },
    /// A secret neighbor surveillance test concluded (§4.3).
    NeighborTest {
        /// The monitoring node.
        tester: NodeId,
        /// The predecessor tested.
        target: NodeId,
        /// Whether the tester observed a violation.
        violation: bool,
    },
    /// A finger check concluded (§4.4/§4.5).
    FingerTest {
        /// The monitoring node.
        tester: NodeId,
        /// The finger that was checked.
        finger: NodeId,
        /// The ideal finger id it should cover.
        ideal: Key,
        /// Whether a closer node was revealed.
        violation: bool,
        /// True when the check validated a finger-update candidate.
        from_update: bool,
    },
    /// The CA received a protocol message (Fig. 7(b) workload).
    CaReceived,
    /// The CA closed a case.
    Verdict {
        /// The outcome.
        verdict: Verdict,
        /// The mechanism that produced the case.
        category: ReportCat,
    },
    /// Driver: kill a node (churn).
    ChurnKill(NodeId),
    /// Driver: (re)join a node after its offline gap.
    ChurnJoin(NodeId),
    /// Driver: take a measurement sample.
    Measure,
    /// A semantic protocol decision for the reference-model oracle
    /// (only emitted when [`OctopusConfig::trace`] is on; boxed to keep
    /// the common variants small).
    Trace(Box<TraceEvent>),
}

/// The actor hosted at each world address: a peer or the CA.
pub enum Actor {
    /// An Octopus peer.
    Peer(Box<OctopusNode>),
    /// The certificate authority.
    Ca(Box<CaNode>),
}

impl NodeBehavior for Actor {
    type Msg = Msg;
    type Timer = Timer;
    type Control = Control;

    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg, Timer, Control>) {
        match self {
            Actor::Peer(n) => n.on_start(ctx),
            Actor::Ca(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg, Timer, Control>, from: Addr, msg: Msg) {
        match self {
            Actor::Peer(n) => n.on_message(ctx, from, msg),
            Actor::Ca(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg, Timer, Control>, timer: Timer) {
        match self {
            Actor::Peer(n) => n.on_timer(ctx, timer),
            Actor::Ca(c) => c.on_timer(ctx, timer),
        }
    }
}

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Network size (1000 in §5.1).
    pub n: usize,
    /// Fraction of malicious nodes (0.2 in §5.1).
    pub malicious_fraction: f64,
    /// The active attack.
    pub attack: AttackKind,
    /// Attack rate (1.0 or 0.5 in Figs. 3/4/9).
    pub attack_rate: f64,
    /// Consistent-collusion probability (0.5 in Table 2's caption).
    pub consistent_collusion: f64,
    /// Mean node lifetime; `None` disables churn.
    pub mean_lifetime: Option<Duration>,
    /// Simulated run length (1000 s in Fig. 3).
    pub duration: Duration,
    /// Master seed.
    pub seed: u64,
    /// Protocol parameters.
    pub octopus: OctopusConfig,
    /// Whether peers run application lookups (Fig. 3(b) accounting).
    pub lookups_enabled: bool,
    /// Number of contiguous ID-range shards the world is partitioned
    /// into (clamped to at least 1). Sharding splits storage — one node
    /// slab, one timer lane and one delivery lane per shard — but never
    /// results: a fixed seed produces an identical [`SimReport`] at
    /// every shard count (pinned by the `engine_determinism` regression
    /// tests). Several shards only pay at very large N: at a million
    /// nodes they run faster than one and peak higher in memory.
    pub shards: usize,
    /// Accepted and ignored: windows always run their shards one after
    /// another. Kept so configs written for the parallel windows of
    /// earlier versions still compile; reports were byte-identical
    /// either way.
    pub parallel: bool,
    /// Accepted and ignored, like `parallel`: there is no worker pool
    /// to size.
    pub pool_threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            n: 1000,
            malicious_fraction: 0.2,
            attack: AttackKind::LookupBias,
            attack_rate: 1.0,
            consistent_collusion: 0.5,
            mean_lifetime: None,
            duration: Duration::from_secs(1000),
            seed: 42,
            octopus: OctopusConfig::default(),
            lookups_enabled: true,
            shards: 1,
            parallel: false,
            pool_threads: 0,
        }
    }
}

/// Aggregated results of one run — or, after
/// [`Merge`]-ing, of several independent trials (time series then hold
/// per-trial *sums*; divide by [`SimReport::trials`] via
/// [`SimReport::mean_series`] for per-trial curves).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Number of trials folded into this report (1 for a single run).
    pub trials: u64,
    /// `(t, fraction of the network that is unrevoked-malicious)`.
    pub malicious_fraction: Vec<(f64, f64)>,
    /// `(t, cumulative lookups completed)`.
    pub lookups_total: Vec<(f64, f64)>,
    /// `(t, cumulative biased lookups)`.
    pub lookups_biased: Vec<(f64, f64)>,
    /// `(t, CA messages received in this 10 s bin)`.
    pub ca_messages: Vec<(f64, f64)>,
    /// Honest nodes revoked (false positives).
    pub false_positives: u64,
    /// Total revocations.
    pub revocations: u64,
    /// Surveillance tests whose subject was provably bad.
    pub tests_of_bad: u64,
    /// …of which the test failed to observe the violation.
    pub tests_missed: u64,
    /// Neighbor-surveillance tests of bad subjects (subset of the above).
    pub neighbor_tests_of_bad: u64,
    /// …missed.
    pub neighbor_tests_missed: u64,
    /// Finger tests of bad subjects.
    pub finger_tests_of_bad: u64,
    /// …missed.
    pub finger_tests_missed: u64,
    /// Per-category (dismissed, convicted) case counts.
    pub verdicts_by_cat: Vec<(ReportCat, u64, u64)>,
    /// Cases closed with no identification.
    pub dismissed: u64,
    /// Cases closed with a revocation.
    pub convicted: u64,
    /// Lookups that returned a wrong owner.
    pub biased_lookups: u64,
    /// Lookups that completed (right or wrong).
    pub completed_lookups: u64,
    /// Lookups that failed outright.
    pub failed_lookups: u64,
    /// Walks that completed and were verified.
    pub walks_ok: u64,
    /// Walks aborted (timeout, bad signature, failed bound check).
    pub walks_failed: u64,
    /// Per-lookup end-to-end latency in milliseconds (Table 3 / Fig. 7a).
    pub lookup_latencies_ms: Vec<f64>,
    /// Mean per-node bandwidth in kbps over the run (Table 3).
    pub bandwidth_kbps: f64,
}

impl SimReport {
    /// False positive rate: honest revocations / all revocations.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        if self.revocations == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.revocations as f64
        }
    }

    /// False negative rate: bad subjects tested without detection.
    #[must_use]
    pub fn false_negative_rate(&self) -> f64 {
        if self.tests_of_bad == 0 {
            0.0
        } else {
            self.tests_missed as f64 / self.tests_of_bad as f64
        }
    }

    /// False-alarm rate for one mechanism's cases only (Table 2 reports
    /// per-mechanism rows).
    #[must_use]
    pub fn false_alarm_rate_for(&self, cat: ReportCat) -> f64 {
        match self.verdicts_by_cat.iter().find(|(c, _, _)| *c == cat) {
            Some(&(_, dismissed, convicted)) if dismissed + convicted > 0 => {
                dismissed as f64 / (dismissed + convicted) as f64
            }
            _ => 0.0,
        }
    }

    /// Neighbor-surveillance false-negative rate (Table 2's bias row).
    #[must_use]
    pub fn neighbor_fn_rate(&self) -> f64 {
        if self.neighbor_tests_of_bad == 0 {
            0.0
        } else {
            self.neighbor_tests_missed as f64 / self.neighbor_tests_of_bad as f64
        }
    }

    /// Finger-check false-negative rate (Table 2's manipulation and
    /// pollution rows).
    #[must_use]
    pub fn finger_fn_rate(&self) -> f64 {
        if self.finger_tests_of_bad == 0 {
            0.0
        } else {
            self.finger_tests_missed as f64 / self.finger_tests_of_bad as f64
        }
    }

    /// Fraction of malicious nodes still in the network at the end
    /// (averaged over trials for a merged report).
    #[must_use]
    pub fn final_malicious_fraction(&self) -> f64 {
        let t = self.trials.max(1) as f64;
        self.malicious_fraction.last().map_or(0.0, |&(_, f)| f / t)
    }

    /// Scale a summed time series down to a per-trial mean. For a
    /// single-run report (`trials == 1`) this is the identity.
    #[must_use]
    pub fn mean_series(&self, series: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let t = self.trials.max(1) as f64;
        series.iter().map(|&(x, v)| (x, v / t)).collect()
    }
}

impl Merge for SimReport {
    /// Fold another trial's report into this one: counters and series
    /// sum, latency samples pool, bandwidth averages weighted by trial
    /// count. Associative and trial-order-deterministic, as the
    /// [`Merge`] contract requires.
    fn merge(&mut self, other: Self) {
        let self_trials = self.trials.max(1);
        let other_trials = other.trials.max(1);
        merge_point_series(&mut self.malicious_fraction, &other.malicious_fraction);
        merge_point_series(&mut self.lookups_total, &other.lookups_total);
        merge_point_series(&mut self.lookups_biased, &other.lookups_biased);
        merge_point_series(&mut self.ca_messages, &other.ca_messages);
        self.false_positives += other.false_positives;
        self.revocations += other.revocations;
        self.tests_of_bad += other.tests_of_bad;
        self.tests_missed += other.tests_missed;
        self.neighbor_tests_of_bad += other.neighbor_tests_of_bad;
        self.neighbor_tests_missed += other.neighbor_tests_missed;
        self.finger_tests_of_bad += other.finger_tests_of_bad;
        self.finger_tests_missed += other.finger_tests_missed;
        for (cat, dismissed, convicted) in other.verdicts_by_cat {
            match self.verdicts_by_cat.iter_mut().find(|(c, _, _)| *c == cat) {
                Some(slot) => {
                    slot.1 += dismissed;
                    slot.2 += convicted;
                }
                None => self.verdicts_by_cat.push((cat, dismissed, convicted)),
            }
        }
        self.dismissed += other.dismissed;
        self.convicted += other.convicted;
        self.biased_lookups += other.biased_lookups;
        self.completed_lookups += other.completed_lookups;
        self.failed_lookups += other.failed_lookups;
        self.walks_ok += other.walks_ok;
        self.walks_failed += other.walks_failed;
        self.lookup_latencies_ms.extend(other.lookup_latencies_ms);
        self.bandwidth_kbps = (self.bandwidth_kbps * self_trials as f64
            + other.bandwidth_kbps * other_trials as f64)
            / (self_trials + other_trials) as f64;
        self.trials = self_trials + other_trials;
    }
}

/// In-flight state of an incremental run: the partially-folded report
/// plus the CA-workload bins. Opaque — obtain from
/// [`SecuritySim::begin`], feed to [`SecuritySim::advance_until`] and
/// [`SecuritySim::finish`].
pub struct RunAccum {
    report: SimReport,
    ca_bins: Vec<f64>,
    bin: f64,
    end: SimTime,
}

/// The security simulator.
///
/// It owns the adversary directory and mutates it between windows, as
/// churn kills and revives colluders; malicious nodes get read-only
/// [`AdversaryHandle`](crate::AdversaryHandle)s. It hands out no
/// reference to the directory itself, so no code outside the driver
/// can write it. Its queries compile:
///
/// ```
/// use octopus_core::SecuritySim;
/// use octopus_id::{Key, NodeId};
///
/// fn owner(sim: &SecuritySim, key: Key) -> NodeId {
///     sim.truth_owner(key)
/// }
/// ```
///
/// but there is no accessor for the directory:
///
/// ```compile_fail,E0599
/// use octopus_core::SecuritySim;
///
/// fn colluders(sim: &SecuritySim) -> usize {
///     sim.adversary().read().live_count()
/// }
/// ```
pub struct SecuritySim {
    cfg: SimConfig,
    world: World<Actor, KingLikeLatency>,
    /// Ground-truth membership, in ring order.
    space: IdSpace,
    adversary: ShardedAdversary,
    /// The full original malicious set (revocations don't erase guilt).
    initial_malicious: BTreeSet<NodeId>,
    unrevoked_malicious: BTreeSet<NodeId>,
    revoked: BTreeSet<NodeId>,
    /// Each node's key pair and certificate; the certificate's one
    /// allocation is shared by the adversary's directory and by every
    /// list the simulation signs in the node's name.
    keys: BTreeMap<NodeId, (KeyPair, Arc<Certificate>)>,
    churn: ChurnProcess,
    rng: rand::rngs::StdRng,
    /// Recorded semantic trace, present iff [`OctopusConfig::trace`] is
    /// on: node/CA events arrive via [`Control::Trace`] in global
    /// control order; driver events (joins, kills, applied revocations)
    /// are appended directly at their control's position.
    trace: Option<Vec<(SimTime, TraceEvent)>>,
}

impl SecuritySim {
    /// Build the network.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let mut rng = derive_rng(cfg.seed, b"driver", 0);
        let ca_authority = CertificateAuthority::new(&mut rng);
        let ca_key = ca_authority.public_key();

        // --- population ---
        let mut space = IdSpace::random(cfg.n, &mut rng);
        while space.contains(CA_ADDR) {
            space = IdSpace::random(cfg.n, &mut rng);
        }
        let mut ids: Vec<NodeId> = space.ids().to_vec();
        ids.shuffle(&mut rng);
        let n_mal = (cfg.n as f64 * cfg.malicious_fraction).round() as usize;
        let malicious: BTreeSet<NodeId> = ids.iter().take(n_mal).copied().collect();

        let mut adversary_state =
            AdversaryState::new(cfg.attack, cfg.attack_rate, cfg.consistent_collusion);
        for &m in &malicious {
            adversary_state.enroll(m);
        }

        // --- certificates & CA ---
        let mut ca_node = CaNode::new(CA_ADDR, ca_authority, cfg.octopus);
        let mut keys = BTreeMap::new();
        for &id in space.ids() {
            let kp = KeyPair::generate(&mut rng);
            let cert = ca_node.issue_cert(id, kp.public());
            ca_node.register(id, kp.public());
            ca_node.note_join(id, 0);
            keys.insert(id, (kp, Arc::new(cert)));
        }
        ca_node.broadcast_to = space.ids().to_vec();

        // --- world ---
        let latency = KingLikeLatency::new(octopus_sim::split_seed(cfg.seed, 7));
        let mut world: World<Actor, KingLikeLatency> =
            World::with_shards(latency, cfg.seed, SchedulerKind::default(), cfg.shards);
        world.insert_node(CA_ADDR, Actor::Ca(Box::new(ca_node)));

        let chord = cfg.octopus.chord;
        for &m in &malicious {
            let (kp, cert) = keys.get(&m).expect("key exists");
            adversary_state.share_keys(m, kp.clone(), Arc::clone(cert));
        }
        let adversary = ShardedAdversary::new(adversary_state);
        // the genesis ring is one membership at one instant: each
        // signer's list is signed once for all the nodes citing it
        let mut genesis_lists = BTreeMap::new();
        for &id in space.ids() {
            let (kp, cert) = keys.get(&id).expect("key exists");
            let adv = malicious.contains(&id).then(|| adversary.handle());
            let mut node =
                OctopusNode::new(id, cfg.octopus, kp.clone(), **cert, CA_ADDR, ca_key, adv);
            seed_from_truth(&mut node, &space, chord, &mut rng);
            seed_provenance(&mut node, &space, chord, &keys, 0, &mut genesis_lists);
            world.insert_node(id, Actor::Peer(Box::new(node)));
        }

        let churn = match cfg.mean_lifetime {
            Some(l) => ChurnProcess::new(l, Duration::from_secs(30)),
            None => ChurnProcess::disabled(),
        };

        let trace_on = cfg.octopus.trace;
        let mut sim = SecuritySim {
            unrevoked_malicious: malicious.clone(),
            initial_malicious: malicious,
            revoked: BTreeSet::new(),
            cfg,
            world,
            space,
            adversary,
            keys,
            churn,
            rng,
            trace: trace_on.then(Vec::new),
        };
        if sim.trace.is_some() {
            // genesis population: the model learns the initial membership
            // the same way it learns churn joins
            for id in sim.space.ids().to_vec() {
                sim.push_trace(SimTime::ZERO, TraceEvent::NodeJoined { node: id });
            }
        }
        sim.schedule_initial_events();
        sim
    }

    /// Append a driver-side trace event (no-op when tracing is off).
    fn push_trace(&mut self, t: SimTime, ev: TraceEvent) {
        if let Some(buf) = &mut self.trace {
            buf.push((t, ev));
        }
    }

    /// Take the recorded semantic trace (empty when tracing is off or
    /// already taken). Call after [`SecuritySim::finish`].
    pub fn take_trace(&mut self) -> Vec<(SimTime, TraceEvent)> {
        self.trace.take().unwrap_or_default()
    }

    fn schedule_initial_events(&mut self) {
        // churn
        if self.churn.is_enabled() {
            for &id in self.space.ids() {
                let life = self.churn.sample_lifetime(&mut self.rng);
                if SimTime::ZERO + life <= SimTime::ZERO + self.cfg.duration {
                    self.world
                        .schedule_control(SimTime::ZERO + life, Control::ChurnKill(id));
                }
            }
        }
        // measurement every 5 s
        let mut t = SimTime::ZERO;
        while t <= SimTime::ZERO + self.cfg.duration {
            self.world.schedule_control(t, Control::Measure);
            t += Duration::from_secs(5);
        }
    }

    /// Current ground-truth owner of a key (live nodes only).
    #[must_use]
    pub fn truth_owner(&self, key: Key) -> NodeId {
        self.space.owner_of(key).owner
    }

    /// Run to completion and produce the report.
    ///
    /// Execution is windowed: the world runs one conservative lookahead
    /// window at a time ([`World::run_window`]), and the driver folds
    /// the window's control events, in global `(time, key)` order,
    /// between barriers. A fixed seed yields a byte-identical report at
    /// every shard count.
    pub fn run(&mut self) -> SimReport {
        let mut acc = self.begin();
        let end = acc.end;
        self.advance_until(&mut acc, end);
        self.finish(acc)
    }

    /// Start an incremental run: returns the accumulator that
    /// [`SecuritySim::advance_until`] folds window results into and
    /// [`SecuritySim::finish`] turns into the final [`SimReport`].
    ///
    /// The incremental API exists for harnesses that need to interleave
    /// the run with outside action — e.g. the fuzz oracle injecting
    /// Byzantine messages at known simulated times. Chunking is a pure
    /// speed knob like every other execution knob: any sequence of
    /// deadlines yields the byte-identical report `run()` produces.
    #[must_use]
    pub fn begin(&mut self) -> RunAccum {
        let bin = 10.0; // seconds per CA-workload bin
        RunAccum {
            report: SimReport {
                trials: 1,
                ..SimReport::default()
            },
            ca_bins: vec![0.0; (self.cfg.duration.as_secs_f64() / bin) as usize + 1],
            bin,
            end: SimTime::ZERO + self.cfg.duration,
        }
    }

    /// Advance the simulation up to `deadline` (clamped to the run's
    /// end), folding every control event produced on the way into the
    /// accumulator in global `(time, key)` order.
    pub fn advance_until(&mut self, acc: &mut RunAccum, deadline: SimTime) {
        let deadline = deadline.min(acc.end);
        while let Some(controls) = self.world.run_window(deadline) {
            for (t, c) in controls {
                self.handle_control(c, t, &mut acc.report, &mut acc.ca_bins, acc.bin);
            }
        }
    }

    /// Drain any remaining events and produce the final report.
    pub fn finish(&mut self, mut acc: RunAccum) -> SimReport {
        let end = acc.end;
        self.advance_until(&mut acc, end);
        let RunAccum {
            mut report,
            ca_bins,
            bin,
            ..
        } = acc;
        report.ca_messages = ca_bins
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * bin, v))
            .collect();
        report.bandwidth_kbps = self
            .world
            .ledger()
            .mean_node_kbps(self.cfg.n, self.cfg.duration.as_secs_f64());
        report
    }

    #[expect(
        clippy::too_many_lines,
        reason = "one arm per control; splitting hides which controls the driver handles"
    )]
    fn handle_control(
        &mut self,
        c: Control,
        now: SimTime,
        report: &mut SimReport,
        ca_bins: &mut [f64],
        bin: f64,
    ) {
        let t = now.as_secs_f64();
        match c {
            Control::Measure => {
                let frac = self.unrevoked_malicious.len() as f64 / self.cfg.n as f64;
                report.malicious_fraction.push((t, frac));
                report
                    .lookups_total
                    .push((t, report.completed_lookups as f64));
                report
                    .lookups_biased
                    .push((t, report.biased_lookups as f64));
                self.heal_starved_nodes();
            }
            Control::CaReceived => {
                let idx = ((t / bin) as usize).min(ca_bins.len() - 1);
                ca_bins[idx] += 1.0;
            }
            Control::LookupDone {
                key,
                result,
                elapsed,
                ..
            } => {
                if !self.cfg.lookups_enabled {
                    return;
                }
                match result {
                    Some(owner) => {
                        report.completed_lookups += 1;
                        report.lookup_latencies_ms.push(elapsed.as_millis_f64());
                        let truth = self.space.owner_of(key).owner;
                        if owner != truth {
                            report.biased_lookups += 1;
                        }
                    }
                    None => report.failed_lookups += 1,
                }
            }
            Control::WalkDone { ok, .. } => {
                if ok {
                    report.walks_ok += 1;
                } else {
                    report.walks_failed += 1;
                }
            }
            Control::NeighborTest {
                target, violation, ..
            } => {
                if self.initial_malicious.contains(&target) {
                    report.tests_of_bad += 1;
                    report.neighbor_tests_of_bad += 1;
                    if !violation {
                        report.tests_missed += 1;
                        report.neighbor_tests_missed += 1;
                    }
                }
            }
            Control::FingerTest {
                finger,
                ideal,
                violation,
                ..
            } => {
                // a finger is provably bad when ground truth has a
                // closer live owner for its ideal id
                let truth = self.space.owner_of(ideal).owner;
                let bad = truth != finger
                    && ideal.distance_to_node(truth) < ideal.distance_to_node(finger);
                if bad {
                    report.tests_of_bad += 1;
                    report.finger_tests_of_bad += 1;
                    if !violation {
                        report.tests_missed += 1;
                        report.finger_tests_missed += 1;
                    }
                }
            }
            Control::Verdict { verdict, category } => {
                let slot = if let Some(slot) = report
                    .verdicts_by_cat
                    .iter_mut()
                    .find(|(c, _, _)| *c == category)
                {
                    slot
                } else {
                    report.verdicts_by_cat.push((category, 0, 0));
                    report.verdicts_by_cat.last_mut().expect("just pushed")
                };
                match verdict {
                    Verdict::Revoked(_) => slot.2 += 1,
                    Verdict::Dismissed => slot.1 += 1,
                }
                match verdict {
                    Verdict::Revoked(id) => {
                        report.revocations += 1;
                        report.convicted += 1;
                        if !self.initial_malicious.contains(&id) {
                            report.false_positives += 1;
                        }
                        self.apply_revocation(id);
                        self.push_trace(now, TraceEvent::RevocationApplied { node: id });
                    }
                    Verdict::Dismissed => report.dismissed += 1,
                }
            }
            Control::ChurnKill(id) => self.churn_kill(id, now),
            Control::ChurnJoin(id) => self.churn_join(id, now),
            Control::Trace(ev) => self.push_trace(now, *ev),
        }
    }

    fn apply_revocation(&mut self, id: NodeId) {
        self.revoked.insert(id);
        self.unrevoked_malicious.remove(&id);
        self.adversary.update(|a| a.remove(id));
        self.space.remove(id);
        self.world.remove_node(id);
    }

    fn churn_kill(&mut self, id: NodeId, now: SimTime) {
        if self.revoked.contains(&id) || !self.world.is_alive(id) {
            return;
        }
        self.world.remove_node(id);
        self.space.remove(id);
        self.adversary.update(|a| a.remove(id));
        self.push_trace(now, TraceEvent::NodeKilled { node: id });
        self.with_ca(|ca| ca.note_death(id, now.as_secs_f64() as u64));
        let gap = self
            .churn
            .sample_offline(&mut self.rng)
            .max(Duration::from_secs(1));
        self.world
            .schedule_control(now + gap, Control::ChurnJoin(id));
    }

    fn churn_join(&mut self, id: NodeId, now: SimTime) {
        if self.revoked.contains(&id) || self.world.is_alive(id) {
            return;
        }
        self.space.insert(id);
        let malicious = self.initial_malicious.contains(&id);
        if malicious {
            self.adversary.update(|a| a.enroll(id));
        }
        let (kp, cert) = self.keys.get(&id).expect("keys exist").clone();
        let ca_key = self.with_ca_ref(|ca| ca.public_key());
        let mut node = OctopusNode::new(
            id,
            self.cfg.octopus,
            kp,
            *cert,
            CA_ADDR,
            ca_key,
            malicious.then(|| self.adversary.handle()),
        );
        let chord = self.cfg.octopus.chord;
        seed_from_truth(&mut node, &self.space, chord, &mut self.rng);
        seed_provenance(
            &mut node,
            &self.space,
            chord,
            &self.keys,
            now.as_secs_f64() as u64,
            &mut BTreeMap::new(),
        );
        if malicious {
            let (kp, cert) = self.keys.get(&id).expect("keys exist");
            self.adversary
                .update(|a| a.share_keys(id, kp.clone(), Arc::clone(cert)));
        }
        self.world.insert_node(id, Actor::Peer(Box::new(node)));
        self.push_trace(now, TraceEvent::NodeJoined { node: id });
        self.with_ca(|ca| ca.note_join(id, now.as_secs_f64() as u64));
        // announce the join to ring neighbors (idealized join protocol)
        let succs = self.space.successor_list(id, chord.successors);
        let preds = self.space.predecessor_list(id, chord.predecessors);
        for n in succs.into_iter().chain(preds) {
            if let Some(Actor::Peer(p)) = self.world.node_mut(n) {
                p.learn_neighbor(id);
            }
        }
        // schedule its next death
        let life = self.churn.sample_lifetime(&mut self.rng);
        let death = now + life;
        if death <= SimTime::ZERO + self.cfg.duration {
            self.world.schedule_control(death, Control::ChurnKill(id));
        }
    }

    /// Emergency re-seed for nodes whose neighbor lists were emptied by
    /// mass revocation of their (malicious) neighborhood — stands in for
    /// a re-join, which the idealized join protocol would perform.
    fn heal_starved_nodes(&mut self) {
        let chord = self.cfg.octopus.chord;
        for &id in self.space.ids() {
            let starved = matches!(
                self.world.node(id),
                Some(Actor::Peer(p)) if p.successors().is_empty() || p.predecessors().is_empty()
            );
            if starved {
                let succs = self.space.successor_list(id, chord.successors);
                let preds = self.space.predecessor_list(id, chord.predecessors);
                if let Some(Actor::Peer(p)) = self.world.node_mut(id) {
                    if p.successors().is_empty() && !succs.is_empty() {
                        p.set_successors(succs);
                    }
                    if p.predecessors().is_empty() && !preds.is_empty() {
                        p.set_predecessors(preds);
                    }
                }
            }
        }
    }

    fn with_ca<R>(&mut self, f: impl FnOnce(&mut CaNode) -> R) -> R {
        match self.world.node_mut(CA_ADDR) {
            Some(Actor::Ca(ca)) => f(ca),
            _ => unreachable!("CA actor always present"),
        }
    }

    fn with_ca_ref<R>(&self, f: impl FnOnce(&CaNode) -> R) -> R {
        match self.world.node(CA_ADDR) {
            Some(Actor::Ca(ca)) => f(ca),
            _ => unreachable!("CA actor always present"),
        }
    }

    // --- harness hooks -------------------------------------------------
    //
    // The fuzz-oracle and differential harnesses need controlled ways to
    // observe ground truth and to inject Byzantine wire messages between
    // `advance_until` chunks. These hooks never run on the report path.

    /// Inject a wire message into the world as if `from` had sent it —
    /// the fuzz oracle's entry point for malformed/Byzantine payloads.
    /// Deterministic: latency comes from the same seeded stream normal
    /// driver injections use.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        self.world.inject_message(from, to, msg);
    }

    /// Ground-truth live membership, in ring order.
    #[must_use]
    pub fn live_ids(&self) -> Vec<NodeId> {
        self.space.ids().to_vec()
    }

    /// Nodes revoked so far.
    #[must_use]
    pub fn revoked_ids(&self) -> &BTreeSet<NodeId> {
        &self.revoked
    }

    /// The originally-malicious population (guilt survives revocation).
    #[must_use]
    pub fn initial_malicious_ids(&self) -> &BTreeSet<NodeId> {
        &self.initial_malicious
    }

    /// Borrow a live peer for inspection (`None` for the CA address or
    /// a dead node).
    pub fn with_peer<R>(&self, id: NodeId, f: impl FnOnce(&OctopusNode) -> R) -> Option<R> {
        match self.world.node(id) {
            Some(Actor::Peer(p)) => Some(f(p)),
            _ => None,
        }
    }

    /// A node's long-term keypair — lets the fuzz harness forge
    /// authentic-looking evidence (correctly signed by the wrong party).
    #[must_use]
    pub fn keypair_of(&self, id: NodeId) -> Option<KeyPair> {
        self.keys.get(&id).map(|(kp, _)| kp.clone())
    }

    /// A node's CA-issued certificate.
    #[must_use]
    pub fn cert_of(&self, id: NodeId) -> Option<Certificate> {
        self.keys.get(&id).map(|(_, cert)| **cert)
    }

    /// Switch off the verify-once memos of the CA and of every peer now
    /// in the world (peers that join later start with a fresh memo), so
    /// every signature check runs in full — the reference run of the
    /// memo tripwire.
    pub fn disable_verify_memo(&mut self) {
        self.with_ca(CaNode::disable_verify_memo);
        for &id in self.space.ids() {
            if let Some(Actor::Peer(p)) = self.world.node_mut(id) {
                p.disable_verify_memo();
            }
        }
    }

    /// The CA's verification work counters.
    #[must_use]
    pub fn ca_verify_work(&self) -> crate::ca::VerifyWork {
        self.with_ca_ref(CaNode::verify_work)
    }

    /// Have the CA issue a certificate for `id` that expires at
    /// simulated second `expires_at` — the fuzz harness's stale-cert
    /// vector. `None` when `id` never had keys.
    pub fn issue_cert_expiring(&mut self, id: NodeId, expires_at: u64) -> Option<Certificate> {
        let key = self.keys.get(&id).map(|(kp, _)| kp.public())?;
        Some(self.with_ca(|ca| ca.issue_cert_expiring(id, key, expires_at)))
    }
}

/// Seed per-finger adoption provenance from ground truth: the idealized
/// join protocol runs checked finger lookups, so each seeded finger
/// comes with the signed third-party list a real §4.5 check would have
/// produced — the successor list of the finger target's predecessor.
///
/// `signed` holds the lists already signed at `now` over this `space`,
/// by signer; a signer's list is signed once and shared after that, by
/// every node that cites it. The signature is deterministic, so the
/// shared list is the bytes a second signing would give. The caller
/// starts a fresh map whenever `space` or `now` changes.
fn seed_provenance(
    node: &mut OctopusNode,
    space: &IdSpace,
    chord: ChordConfig,
    keys: &BTreeMap<NodeId, (KeyPair, Arc<Certificate>)>,
    now: u64,
    signed: &mut BTreeMap<NodeId, Arc<SignedSuccessorList>>,
) {
    use octopus_chord::signed::successor_list_table;
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

/// Initialize a node's ring state from ground truth (idealized join).
fn seed_from_truth(
    node: &mut OctopusNode,
    space: &IdSpace,
    chord: ChordConfig,
    rng: &mut impl Rng,
) {
    let id = node.id;
    let succs = space.successor_list(id, chord.successors);
    let preds = space.predecessor_list(id, chord.predecessors);
    let fingers = (0..chord.fingers)
        .map(|i| space.owner_of(chord.finger_target(id, i)).owner)
        .collect();
    // initial relay pairs: as if walks had already run (the pool is
    // immediately refreshed by real walks every 15 s)
    let mut pairs = Vec::new();
    for _ in 0..4 {
        let a = space.random_member(rng);
        let b = space.random_member(rng);
        if a != b && a != id && b != id {
            pairs.push((a, b));
        }
    }
    node.seed_state(succs, preds, fingers, pairs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_lists_signed_once_equal_lists_signed_per_call() {
        // `new` seeds the §5.1 ring with one map shared by every genesis
        // node; seeding again with a fresh map per call signs every list
        // anew, and must give the same provenance field for field. The
        // shared lists are shared in memory too: one allocation per
        // signer, however many slots cite it.
        let sim = SecuritySim::new(SimConfig {
            seed: 31,
            ..SimConfig::default()
        });
        let chord = sim.cfg.octopus.chord;
        let ca_key = sim.with_ca_ref(CaNode::public_key);
        let (mut cited, mut signers, mut allocations) = (0, BTreeSet::new(), BTreeSet::new());
        for &id in sim.space.ids() {
            let (kp, cert) = sim.keys.get(&id).expect("key exists").clone();
            let mut fresh = OctopusNode::new(id, sim.cfg.octopus, kp, *cert, CA_ADDR, ca_key, None);
            seed_provenance(
                &mut fresh,
                &sim.space,
                chord,
                &sim.keys,
                0,
                &mut BTreeMap::new(),
            );
            let shared = sim
                .with_peer(id, |p| p.finger_prov.clone())
                .expect("genesis node is live");
            assert_eq!(shared, fresh.finger_prov, "provenance of {id:?}");
            for list in shared.iter().flatten() {
                cited += 1;
                signers.insert(list.table.owner);
                allocations.insert(Arc::as_ptr(list));
            }
        }
        // twelve fingers on each of 1000 nodes cite fewer than 1000 lists
        assert_eq!(cited, 12_000);
        assert!(signers.len() < 1_000, "{} signers", signers.len());
        assert_eq!(
            allocations.len(),
            signers.len(),
            "one allocation per signer"
        );
    }
}
