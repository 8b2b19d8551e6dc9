//! Verify-once memo: remember inputs that already passed a pure,
//! expensive check, so the check runs once per distinct input.
//!
//! Signature verification is a pure function of the bytes verified, and
//! the protocols re-present the same bytes constantly — a neighbour's
//! certificate with every table it signs, the same proof-queue lists
//! with every reply to the CA. A memo may skip the check exactly when it
//! can tell that the input *is* one it has seen pass, so a hit requires
//! the stored value to equal the presented one in full: the key only
//! finds the candidate, it is never trusted. Failures are not stored;
//! a rejected input is checked, and rejected, again.
//!
//! The memo is lookup-only — nothing ever iterates it into an output —
//! so the hash index's unordered layout cannot reach any result.

use std::collections::HashMap;
use std::hash::Hash;

/// Memos up to this many entries are searched by scanning the ring: a
/// peer's two dozen certificates take 448 bytes (an id and an `Arc`
/// each), and a scan over them is cheaper than hashing the key, in time
/// and above all in memory (a thousand peers each hold one). Larger memos
/// index the ring by key.
const SCAN_LIMIT: usize = 64;

/// A bounded memo of values that passed verification, oldest evicted
/// first.
#[derive(Clone, Debug)]
pub struct VerifiedMemo<K, V> {
    /// Remembered values in insertion order, as a ring: once the ring is
    /// full, `next` is the oldest entry and the next one overwritten.
    ring: Vec<(K, V)>,
    next: usize,
    capacity: usize,
    /// Key → ring position, kept only above [`SCAN_LIMIT`].
    index: Option<HashMap<K, usize>>,
}

impl<K: Copy + Eq + Hash, V: PartialEq> VerifiedMemo<K, V> {
    /// A memo holding at most `capacity` values. With `capacity` 0 it
    /// remembers nothing and every lookup misses.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        VerifiedMemo {
            ring: Vec::new(),
            next: 0,
            capacity,
            index: (capacity > SCAN_LIMIT).then(HashMap::new),
        }
    }

    fn position(&self, key: &K) -> Option<usize> {
        match &self.index {
            Some(index) => index.get(key).copied(),
            None => self.ring.iter().position(|(k, _)| k == key),
        }
    }

    /// Has exactly this `value` been remembered under `key`?
    #[must_use]
    pub fn contains(&self, key: &K, value: &V) -> bool {
        self.position(key).is_some_and(|i| self.ring[i].1 == *value)
    }

    /// Remember `value`, which the caller has just verified, under
    /// `key`, replacing whatever the key held.
    pub fn remember(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.position(&key) {
            self.ring[i].1 = value;
            return;
        }
        let slot = if self.ring.len() < self.capacity {
            if self.ring.is_empty() && self.index.is_none() {
                // a scanned ring is small and fills up: size it once,
                // where doubling would overshoot (28 entries → room for 32)
                self.ring.reserve_exact(self.capacity);
            }
            self.ring.push((key, value));
            self.ring.len() - 1
        } else {
            let slot = self.next;
            let (evicted, _) = std::mem::replace(&mut self.ring[slot], (key, value));
            if let Some(index) = &mut self.index {
                index.remove(&evicted);
            }
            self.next = (slot + 1) % self.capacity;
            slot
        };
        if let Some(index) = &mut self.index {
            index.insert(key, slot);
        }
    }

    /// Number of values currently remembered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Is the memo empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One capacity on each side of [`SCAN_LIMIT`]: every behaviour must
    /// hold for the scanned and for the indexed ring.
    const CAPACITIES: [usize; 2] = [8, SCAN_LIMIT + 8];

    #[test]
    fn hit_needs_full_equality() {
        for capacity in CAPACITIES {
            let mut memo = VerifiedMemo::new(capacity);
            memo.remember(1u32, "alpha");
            assert!(memo.contains(&1, &"alpha"));
            assert!(!memo.contains(&1, &"beta"), "same key, other value");
            assert!(!memo.contains(&2, &"alpha"), "other key, same value");
        }
    }

    #[test]
    fn replacing_a_key_keeps_one_entry_and_its_age() {
        for capacity in CAPACITIES {
            let mut memo = VerifiedMemo::new(capacity);
            memo.remember(0u32, 10u32);
            memo.remember(0, 11);
            assert_eq!(memo.len(), 1);
            assert!(memo.contains(&0, &11));
            assert!(!memo.contains(&0, &10));
            // the replaced key is still the oldest: filling the memo and
            // adding one more evicts it, and nothing else
            for k in 1..=capacity as u32 {
                memo.remember(k, k);
            }
            assert_eq!(memo.len(), capacity);
            assert!(!memo.contains(&0, &11), "oldest key evicted");
            for k in 1..=capacity as u32 {
                assert!(memo.contains(&k, &k), "key {k} kept");
            }
        }
    }

    #[test]
    fn evicts_oldest_first_and_stays_bounded() {
        for capacity in CAPACITIES {
            let mut memo = VerifiedMemo::new(capacity);
            let total = 5 * capacity as u32 + 3;
            for i in 0..total {
                memo.remember(i, i);
                assert!(memo.len() <= capacity);
            }
            for i in 0..total {
                let kept = i >= total - capacity as u32;
                assert_eq!(memo.contains(&i, &i), kept, "key {i} of {total}");
            }
        }
    }

    #[test]
    fn zero_capacity_remembers_nothing() {
        let mut memo = VerifiedMemo::new(0);
        memo.remember(1u32, 1u32);
        assert!(memo.is_empty());
        assert!(!memo.contains(&1, &1));
    }
}
