//! The colluding adversary (threat model, §3.2).
//!
//! A fraction `f` of nodes is malicious; they behave arbitrarily, log
//! everything they see, and share knowledge over an out-of-band channel
//! with negligible delay. This module is that channel: a directory of
//! live colluders plus the fabrication routines for each active attack.
//!
//! Every malicious node holds an [`AdversaryHandle`] onto the one
//! shared directory, so a successful fabrication by one node (e.g.
//! "which colluder most closely succeeds this position?") reflects
//! every colluder instantly — the paper's "high-speed communication
//! channel" assumption. Protocol code only ever *reads* the directory
//! (the dice rolls draw from each node's own RNG stream); the
//! simulation driver mutates it between windows via
//! [`ShardedAdversary::update`]. The types hold that split: a handle has
//! no write method, and `SecuritySim` hands its `ShardedAdversary` to
//! no one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use octopus_chord::signed::successor_list_table;
use octopus_chord::{ChordConfig, SignedSuccessorList};
use octopus_crypto::{Certificate, KeyPair};
use octopus_id::{Key, NodeId};
use rand::Rng;

/// Which active attack the adversary mounts (§5's three experiments plus
/// the Appendix II DoS experiment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    /// Purely passive: observe, never deviate (anonymity analysis §6
    /// assumes this — active attackers get identified and evicted).
    Passive,
    /// Lookup bias (§4.3, Figs. 2(a)/2(b), 3(a)/3(b)): manipulate
    /// successor lists in query responses and pollute honest nodes'
    /// lists during stabilization.
    LookupBias,
    /// Fingertable manipulation (§4.4, Fig. 3(c)): return fingertables
    /// pointing at colluders to misdirect walks and lookups.
    FingerManipulation,
    /// Fingertable pollution (§4.5, Fig. 4): bias finger-update lookups
    /// so honest fingertables absorb colluders.
    FingerPollution,
    /// Selective DoS (Appendix II, Fig. 9): drop relayed queries when
    /// the circuit cannot be compromised.
    SelectiveDos,
}

/// Probability a checked malicious predecessor covers for a colluding
/// finger by answering with a *consistent* manipulated successor list
/// (50 % in Table 2's caption).
const CONSISTENT_COLLUSION: f64 = 0.5;

/// Shared adversary directory and fabrication logic.
#[derive(Clone, Debug)]
pub struct AdversaryState {
    kind: AttackKind,
    /// Probability a malicious node attacks a given opportunity
    /// ("attack rate" in Figs. 3/4/9: 100 % or 50 %).
    attack_rate: f64,
    /// Live colluders, sorted by ring position.
    colluders: BTreeSet<NodeId>,
    /// Colluders share key material over the out-of-band channel, which
    /// lets any of them fabricate statements signed by any other — at
    /// the price of sacrificing the signer once the CA verifies the lie.
    keypairs: BTreeMap<NodeId, (KeyPair, Arc<Certificate>)>,
}

/// The adversary directory of a simulated world: one [`AdversaryState`]
/// behind a lock, shared by every malicious node on every shard. Nodes
/// read it through an [`AdversaryHandle`]; the driver mutates it
/// between windows via [`ShardedAdversary::update`]. The lock is an
/// `RwLock` rather than a `RefCell` so that nodes holding a handle stay
/// `Send`.
#[derive(Clone, Debug)]
pub struct ShardedAdversary {
    state: Arc<RwLock<AdversaryState>>,
}

impl ShardedAdversary {
    /// The directory holding `state`.
    #[must_use]
    pub fn new(state: AdversaryState) -> Self {
        ShardedAdversary {
            state: Arc::new(RwLock::new(state)),
        }
    }

    /// A read handle onto the directory, cloned into each malicious
    /// node.
    #[must_use]
    pub fn handle(&self) -> AdversaryHandle {
        AdversaryHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Driver-side read access.
    ///
    /// # Panics
    /// Panics if a previous lock holder panicked (poisoned lock).
    pub fn read(&self) -> RwLockReadGuard<'_, AdversaryState> {
        self.state.read().expect("adversary lock poisoned")
    }

    /// Apply one mutation and return what it produced. Driver-only,
    /// between windows.
    ///
    /// # Panics
    /// Panics if a previous lock holder panicked (poisoned lock).
    pub fn update<T>(&self, f: impl FnOnce(&mut AdversaryState) -> T) -> T {
        f(&mut self.state.write().expect("adversary lock poisoned"))
    }
}

/// A malicious node's read handle onto the adversary directory; all
/// writes flow through [`ShardedAdversary::update`], which only the
/// simulation driver holds.
///
/// A handle reads:
///
/// ```
/// use octopus_core::{AdversaryState, AttackKind, ShardedAdversary};
/// use octopus_id::NodeId;
///
/// let directory = ShardedAdversary::new(AdversaryState::new(AttackKind::LookupBias, 1.0));
/// let handle = directory.handle();
/// directory.update(|a| a.enroll(NodeId(7)));
/// assert!(handle.read().is_colluder(NodeId(7)));
/// ```
///
/// and has no way to write, so a protocol handler cannot change what
/// the other colluders read mid-window:
///
/// ```compile_fail,E0599
/// use octopus_core::{AdversaryState, AttackKind, ShardedAdversary};
/// use octopus_id::NodeId;
///
/// let directory = ShardedAdversary::new(AdversaryState::new(AttackKind::LookupBias, 1.0));
/// let handle = directory.handle();
/// handle.update(|a| a.enroll(NodeId(7)));
/// ```
#[derive(Clone, Debug)]
pub struct AdversaryHandle {
    state: Arc<RwLock<AdversaryState>>,
}

impl AdversaryHandle {
    /// Read access (protocol fabrication paths).
    ///
    /// # Panics
    /// Panics if a previous lock holder panicked (poisoned lock).
    pub fn read(&self) -> RwLockReadGuard<'_, AdversaryState> {
        self.state.read().expect("adversary lock poisoned")
    }
}

impl AdversaryState {
    /// New adversary.
    #[must_use]
    pub fn new(kind: AttackKind, attack_rate: f64) -> Self {
        AdversaryState {
            kind,
            attack_rate,
            colluders: BTreeSet::new(),
            keypairs: BTreeMap::new(),
        }
    }

    /// Share a colluder's key material with the collective.
    pub fn share_keys(&mut self, id: NodeId, keypair: KeyPair, cert: Arc<Certificate>) {
        self.keypairs.insert(id, (keypair, cert));
    }

    /// Fabricate a signed "provenance" list justifying the manipulated
    /// finger `fprime` for ideal id `ideal`: a colluder preceding the
    /// ideal signs a colluders-only successor list whose gap
    /// `[ideal, fprime)` is empty. Verifiable to the CA — and once the
    /// CA learns the skipped node was stable, the signer is sacrificed.
    #[must_use]
    pub fn fabricate_provenance(
        &self,
        ideal: Key,
        fprime: NodeId,
        k: usize,
        now: u64,
    ) -> Option<SignedSuccessorList> {
        let signer = self.prev_colluder_before(ideal.as_id())?;
        if signer == fprime {
            return None;
        }
        let (kp, cert) = self.keypairs.get(&signer)?;
        let list = self.fake_successor_list(signer, k);
        if list.is_empty() {
            return None;
        }
        Some(SignedSuccessorList::sign(
            successor_list_table(signer, list),
            now,
            kp,
            Arc::clone(cert),
        ))
    }

    /// The active attack.
    #[must_use]
    pub fn kind(&self) -> AttackKind {
        self.kind
    }

    /// The attack rate.
    #[must_use]
    pub fn attack_rate(&self) -> f64 {
        self.attack_rate
    }

    /// Enroll a malicious node.
    pub fn enroll(&mut self, id: NodeId) {
        self.colluders.insert(id);
    }

    /// Remove a colluder (revoked or churned out).
    pub fn remove(&mut self, id: NodeId) -> bool {
        self.colluders.remove(&id)
    }

    /// Is `id` a live colluder?
    #[must_use]
    pub fn is_colluder(&self, id: NodeId) -> bool {
        self.colluders.contains(&id)
    }

    /// Number of live colluders.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.colluders.len()
    }

    /// Roll the attack-rate dice.
    pub fn attacks_now<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.attack_rate
    }

    /// Roll the consistent-collusion dice (§4.4 cover-up).
    pub fn colludes_consistently<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < CONSISTENT_COLLUSION
    }

    /// The first colluder strictly clockwise after `pos` (wrapping).
    #[must_use]
    pub fn next_colluder_after(&self, pos: NodeId) -> Option<NodeId> {
        self.colluders
            .range((std::ops::Bound::Excluded(pos), std::ops::Bound::Unbounded))
            .next()
            .copied()
            .or_else(|| self.colluders.iter().next().copied().filter(|&c| c != pos))
    }

    /// The first colluder strictly anticlockwise before `pos` (wrapping).
    #[must_use]
    pub fn prev_colluder_before(&self, pos: NodeId) -> Option<NodeId> {
        self.colluders
            .range(..pos)
            .next_back()
            .copied()
            .or_else(|| {
                self.colluders
                    .iter()
                    .next_back()
                    .copied()
                    .filter(|&c| c != pos)
            })
    }

    /// A colluders-only successor list for `owner` (§4.3's manipulated
    /// list): the `k` colluders clockwise after `owner`, skipping every
    /// honest node in between so keys in the gap resolve to colluders.
    #[must_use]
    pub fn fake_successor_list(&self, owner: NodeId, k: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(k);
        let mut pos = owner;
        for _ in 0..k {
            match self.next_colluder_after(pos) {
                Some(c) if !out.contains(&c) => {
                    out.push(c);
                    pos = c;
                }
                _ => break,
            }
        }
        out
    }

    /// A colluders-only predecessor list for `owner` (§4.4: F′ hides the
    /// true closer predecessors behind colluders).
    #[must_use]
    pub fn fake_predecessor_list(&self, owner: NodeId, k: usize) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(k);
        let mut pos = owner;
        for _ in 0..k {
            match self.prev_colluder_before(pos) {
                Some(c) if !out.contains(&c) && c != owner => {
                    out.push(c);
                    pos = c;
                }
                _ => break,
            }
        }
        out
    }

    /// A manipulated fingertable for `owner`: each finger is replaced by
    /// the colluder closest after its ideal target, **when that colluder
    /// stays within `bound` of the target** (so the table passes NISAN
    /// bound checking, §4.1); otherwise the honest finger is kept.
    #[must_use]
    pub fn fake_fingers(
        &self,
        owner: NodeId,
        config: ChordConfig,
        honest: &[NodeId],
        bound: u64,
    ) -> Vec<NodeId> {
        honest
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let target = config.finger_target(owner, i as u32);
                match self.next_colluder_after(target.as_id()) {
                    Some(c) if target.distance_to_node(c) <= bound => c,
                    _ => f,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adversary_with(ids: &[u64]) -> AdversaryState {
        let mut a = AdversaryState::new(AttackKind::LookupBias, 1.0);
        for &i in ids {
            a.enroll(NodeId(i));
        }
        a
    }

    #[test]
    fn directory_basics() {
        let mut a = adversary_with(&[10, 20, 30]);
        assert!(a.is_colluder(NodeId(10)));
        assert_eq!(a.live_count(), 3);
        assert!(a.remove(NodeId(20)));
        assert!(!a.remove(NodeId(20)));
        assert_eq!(a.live_count(), 2);
    }

    #[test]
    fn next_colluder_wraps() {
        let a = adversary_with(&[10, 20, 30]);
        assert_eq!(a.next_colluder_after(NodeId(15)), Some(NodeId(20)));
        assert_eq!(a.next_colluder_after(NodeId(30)), Some(NodeId(10)));
        assert_eq!(a.next_colluder_after(NodeId(35)), Some(NodeId(10)));
        assert_eq!(a.next_colluder_after(NodeId(10)), Some(NodeId(20)));
    }

    #[test]
    fn prev_colluder_wraps() {
        let a = adversary_with(&[10, 20, 30]);
        assert_eq!(a.prev_colluder_before(NodeId(15)), Some(NodeId(10)));
        assert_eq!(a.prev_colluder_before(NodeId(10)), Some(NodeId(30)));
        assert_eq!(a.prev_colluder_before(NodeId(5)), Some(NodeId(30)));
    }

    #[test]
    fn fake_successor_list_skips_honest() {
        let a = adversary_with(&[100, 200, 300]);
        // manipulated list for a malicious node at 50: colluders only
        let l = a.fake_successor_list(NodeId(50), 2);
        assert_eq!(l, vec![NodeId(100), NodeId(200)]);
    }

    #[test]
    fn fake_successor_list_handles_few_colluders() {
        let a = adversary_with(&[100]);
        let l = a.fake_successor_list(NodeId(50), 3);
        assert_eq!(l, vec![NodeId(100)]);
        let empty = AdversaryState::new(AttackKind::LookupBias, 1.0);
        assert!(empty.fake_successor_list(NodeId(50), 3).is_empty());
    }

    #[test]
    fn fake_pred_list_anticlockwise() {
        let a = adversary_with(&[100, 200, 300]);
        let l = a.fake_predecessor_list(NodeId(250), 2);
        assert_eq!(l, vec![NodeId(200), NodeId(100)]);
    }

    #[test]
    fn fake_fingers_respect_bound() {
        let a = adversary_with(&[1000, 5000]);
        let cfg = ChordConfig {
            fingers: 4,
            successors: 2,
            predecessors: 2,
        };
        // node 0's finger targets: 2^60, 2^61, 2^62, 2^63 — colluders at
        // 1000/5000 are nowhere near within a small bound, so honest
        // fingers are kept
        let honest = vec![NodeId(7), NodeId(8), NodeId(9), NodeId(11)];
        let faked = a.fake_fingers(NodeId(0), cfg, &honest, 1 << 20);
        assert_eq!(faked, honest);
        // with an enormous bound, colluders substitute
        let faked = a.fake_fingers(NodeId(0), cfg, &honest, u64::MAX);
        assert!(faked.iter().all(|f| a.is_colluder(*f)));
    }

    #[test]
    fn attack_rate_zero_and_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let never = AdversaryState::new(AttackKind::LookupBias, 0.0);
        let always = AdversaryState::new(AttackKind::LookupBias, 1.0);
        assert!(!(0..100).any(|_| never.attacks_now(&mut rng)));
        assert!((0..100).all(|_| always.attacks_now(&mut rng)));
    }

    #[test]
    fn sharded_update_keeps_replicas_identical() {
        // every node's handle, taken before or after the driver's
        // updates, sees them
        let directory = ShardedAdversary::new(adversary_with(&[10, 20]));
        let early: Vec<AdversaryHandle> = (0..4).map(|_| directory.handle()).collect();
        assert!(directory.update(|a| a.remove(NodeId(10))));
        directory.update(|a| a.enroll(NodeId(40)));
        for view in early.iter().chain([&directory.handle()]) {
            let a = view.read();
            assert!(!a.is_colluder(NodeId(10)));
            assert!(a.is_colluder(NodeId(40)));
            assert_eq!(a.live_count(), 2);
        }
        assert_eq!(directory.read().live_count(), 2);
    }

    #[test]
    fn consistent_collusion_rate() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = AdversaryState::new(AttackKind::FingerManipulation, 1.0);
        let hits = (0..10_000)
            .filter(|_| a.colludes_consistently(&mut rng))
            .count();
        assert!((4500..5500).contains(&hits), "got {hits}");
    }
}
