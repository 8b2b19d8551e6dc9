//! Helpers for populating and reasoning about a whole identifier space.
//!
//! The simulators repeatedly need "a ring of N nodes" plus queries such as
//! *who owns key k* or *which node is the p-th successor of id x*. This
//! module centralizes those so Chord, the baselines, and the anonymity
//! calculators all agree on ownership semantics.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::ring::{Key, NodeId};

/// A sorted universe of node identifiers with successor/predecessor and
/// ownership queries — the "ground truth" view of the ring that
/// simulators use to validate protocol behaviour.
#[derive(Clone, Debug)]
pub struct IdSpace {
    ids: Vec<NodeId>,
}

/// Result of an ownership query: the owner and its index in the sorted
/// ring order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyOwnership {
    /// The node owning the key.
    pub owner: NodeId,
    /// Index of the owner within the sorted id list.
    pub index: usize,
}

impl IdSpace {
    /// Build a space from arbitrary ids (sorted or not); duplicates are
    /// removed.
    #[must_use]
    pub fn new(ids: impl AsRef<[NodeId]>) -> Self {
        let mut ids = ids.as_ref().to_vec();
        ids.sort_unstable();
        ids.dedup();
        IdSpace { ids }
    }

    /// Sample `n` distinct random ids: the first `n` distinct draws.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut ids: Vec<NodeId> = (0..n).map(|_| NodeId(rng.gen())).collect();
        ids.sort_unstable();
        ids.dedup();
        // two equal 64-bit draws are rare: top up one draw at a time
        while ids.len() < n {
            let id = NodeId(rng.gen());
            if let Err(at) = ids.binary_search(&id) {
                ids.insert(at, id);
            }
        }
        IdSpace { ids }
    }

    /// Number of ids in the space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the space holds no ids.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted ids.
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Does the space contain `id`?
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Index of `id` in sorted order, if present.
    #[must_use]
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The node owning `key`: the first node clockwise at or after the
    /// key (Chord's `successor(key)`).
    ///
    /// # Panics
    /// Panics when the space is empty.
    #[must_use]
    pub fn owner_of(&self, key: Key) -> KeyOwnership {
        assert!(!self.ids.is_empty(), "empty id space");
        let index = match self.ids.binary_search(&key.as_id()) {
            Ok(i) => i,
            Err(i) if i == self.ids.len() => 0, // wrap to the smallest id
            Err(i) => i,
        };
        KeyOwnership {
            owner: self.ids[index],
            index,
        }
    }

    /// The `k`-th successor of position `id` (k = 1 is the immediate
    /// successor). `id` itself need not be a member.
    #[must_use]
    pub fn successor(&self, id: NodeId, k: usize) -> NodeId {
        assert!(!self.ids.is_empty(), "empty id space");
        let base = match self.ids.binary_search(&id) {
            Ok(i) => i,
            // first id strictly greater is already the 1st successor
            Err(i) => (i + self.ids.len() - 1) % self.ids.len(),
        };
        self.ids[(base + k) % self.ids.len()]
    }

    /// The `k`-th predecessor of position `id` (k = 1 is the immediate
    /// predecessor).
    #[must_use]
    pub fn predecessor(&self, id: NodeId, k: usize) -> NodeId {
        assert!(!self.ids.is_empty(), "empty id space");
        let n = self.ids.len();
        let base = match self.ids.binary_search(&id) {
            Ok(i) => i,
            Err(i) => i % n, // first id after the position; pred(1) steps back from it
        };
        self.ids[(base + n - (k % n)) % n]
    }

    /// The first `k` successors of `id`, in ring order — ground truth for
    /// a correct Chord successor list.
    #[must_use]
    pub fn successor_list(&self, id: NodeId, k: usize) -> Vec<NodeId> {
        (1..=k).map(|i| self.successor(id, i)).collect()
    }

    /// The first `k` predecessors of `id`, closest first — ground truth
    /// for a correct Octopus predecessor list (§4.3).
    #[must_use]
    pub fn predecessor_list(&self, id: NodeId, k: usize) -> Vec<NodeId> {
        (1..=k).map(|i| self.predecessor(id, i)).collect()
    }

    /// Ground-truth fingertable of `id`: for each bit `i`, the owner of
    /// `id + 2^i`.
    #[must_use]
    pub fn fingertable(&self, id: NodeId, fingers: u32) -> Vec<NodeId> {
        (0..fingers)
            .map(|i| self.owner_of(id.finger_target(i)).owner)
            .collect()
    }

    /// A uniformly random member id.
    pub fn random_member<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        *self.ids.choose(rng).expect("empty id space")
    }

    /// Remove an id (e.g. a churned node). Returns whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(i) => {
                self.ids.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Insert an id (e.g. a joining node). Returns whether it was new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(i) => {
                self.ids.insert(i, id);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> IdSpace {
        IdSpace::new(vec![NodeId(10), NodeId(20), NodeId(30), NodeId(40)])
    }

    #[test]
    fn owner_is_first_at_or_after() {
        let s = space();
        assert_eq!(s.owner_of(Key(10)).owner, NodeId(10));
        assert_eq!(s.owner_of(Key(11)).owner, NodeId(20));
        assert_eq!(s.owner_of(Key(41)).owner, NodeId(10)); // wraps
        assert_eq!(s.owner_of(Key(0)).owner, NodeId(10));
    }

    #[test]
    fn successors_and_predecessors() {
        let s = space();
        assert_eq!(s.successor(NodeId(10), 1), NodeId(20));
        assert_eq!(s.successor(NodeId(40), 1), NodeId(10));
        assert_eq!(s.successor(NodeId(10), 4), NodeId(10));
        assert_eq!(s.predecessor(NodeId(10), 1), NodeId(40));
        assert_eq!(s.predecessor(NodeId(30), 2), NodeId(10));
        // non-member position
        assert_eq!(s.successor(NodeId(25), 1), NodeId(30));
        assert_eq!(s.predecessor(NodeId(25), 1), NodeId(20));
    }

    #[test]
    fn successor_list_matches_manual() {
        let s = space();
        assert_eq!(
            s.successor_list(NodeId(30), 3),
            vec![NodeId(40), NodeId(10), NodeId(20)]
        );
        assert_eq!(
            s.predecessor_list(NodeId(10), 2),
            vec![NodeId(40), NodeId(30)]
        );
    }

    #[test]
    fn fingertable_ground_truth() {
        let s = space();
        let ft = s.fingertable(NodeId(10), 6);
        // targets 11,12,14,18,26,42 → owners 20,20,20,20,30,10
        assert_eq!(
            ft,
            vec![
                NodeId(20),
                NodeId(20),
                NodeId(20),
                NodeId(20),
                NodeId(30),
                NodeId(10)
            ]
        );
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = space();
        assert!(s.insert(NodeId(25)));
        assert!(!s.insert(NodeId(25)));
        assert_eq!(s.owner_of(Key(22)).owner, NodeId(25));
        assert!(s.remove(NodeId(25)));
        assert!(!s.remove(NodeId(25)));
        assert_eq!(s.owner_of(Key(22)).owner, NodeId(30));
    }

    #[test]
    fn random_space_has_n_distinct() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = IdSpace::random(500, &mut rng);
        assert_eq!(s.len(), 500);
    }

    /// Draws from a fixed list, so a repeat comes on cue.
    struct Script(std::vec::IntoIter<u64>);

    impl rand::RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("enough draws")
        }
    }

    #[test]
    fn random_space_is_the_first_n_distinct_draws() {
        let mut rng = Script(vec![5, 3, 5, 9, 3, 7, 1].into_iter());
        let s = IdSpace::random(4, &mut rng);
        assert_eq!(s.ids(), [3, 5, 7, 9].map(NodeId));
        assert_eq!(rng.0.next(), Some(1), "no draw past the 4th distinct one");
    }
}
