//! Slab storage for world-hosted nodes.
//!
//! An early version of the [`World`](crate::World) kept its nodes in a
//! `HashMap<Addr, Node>`; at N = 10k–100k the per-event hashing and the
//! pointer-chasing iteration dominate. [`NodeSlab`] stores values in a
//! dense `Vec` of slots with an `Addr → slot` index on the side: lookups
//! hash once, event dispatch borrows the value where it lies
//! ([`NodeSlab::get_mut_hinted`] — nothing is moved out and back), and
//! iteration is a linear scan. A freed slot is reused by the next
//! insert, and a slot records the address it holds, so a remembered
//! slot index is only ever a hint: it is checked against the address
//! and can never alias the slot's next occupant. A sharded world
//! keeps one slab per shard, so each stays dense and cache-friendly
//! even as the total ring grows toward millions of ids.
//!
//! That one index probe is the only hash an event pays — and an event
//! that carries the slot its node was last seen in (a timer does) pays
//! none while the hint holds — so it is a cheap one: `IdHasher` is a
//! single 64×64 → 128-bit multiply folded to 64 bits, not SipHash. That
//! is sound *here* because the keys are ring ids the simulation driver
//! chose itself — nobody outside the process can craft colliding ones.
//! A table keyed by addresses that arrive from a network would need a
//! keyed hasher.

use std::hash::{BuildHasherDefault, Hasher};

use crate::world::Addr;

/// Multiply-and-fold hasher for driver-chosen 64-bit ids: the id times
/// an odd 64-bit constant as a 128-bit product, high half xored into
/// the low half. The low half alone is a bijection of the id's low
/// bits (sequential ids never share a bucket) and the high half carries
/// the id's high bits down (ids that differ only up there still
/// spread), so both the bucket bits and the 7 control bits hashbrown
/// takes from the top are well mixed.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        let wide = u128::from(self.0 ^ id) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by `NodeId`, which hashes as one `u64`");
    }
}

/// `Addr` → slot. `clippy.toml` bans `HashMap` because its iteration
/// order is seeded per process; this index is only ever probed by key,
/// so no order of it can reach a result.
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookup on every delivery, never iterated"
)]
type IdIndex = std::collections::HashMap<Addr, u32, BuildHasherDefault<IdHasher>>;

/// The hint of a caller that has none: no slab grows to `u32::MAX`
/// slots, so [`NodeSlab::get_mut_hinted`] always probes the index.
pub const NO_HINT: u32 = u32::MAX;

/// Dense storage with address lookup.
#[derive(Debug)]
pub struct NodeSlab<T> {
    slots: Vec<Option<(Addr, T)>>,
    index: IdIndex,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for NodeSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> NodeSlab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        NodeSlab {
            slots: Vec::new(),
            index: IdIndex::default(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab with room for `capacity` values before reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSlab {
            slots: Vec::with_capacity(capacity),
            index: IdIndex::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `addr` present?
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        self.index.contains_key(&addr)
    }

    /// Insert `value` under `addr`. Replaces (and returns) any previous
    /// value stored under the same address.
    pub fn insert(&mut self, addr: Addr, value: T) -> Option<T> {
        if let Some(&idx) = self.index.get(&addr) {
            return self.slots[idx as usize]
                .replace((addr, value))
                .map(|(_, v)| v);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some((addr, value));
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("slab index fits u32");
                self.slots.push(Some((addr, value)));
                idx
            }
        };
        self.index.insert(addr, idx);
        self.len += 1;
        None
    }

    /// Remove and return the value under `addr`, freeing its slot.
    pub fn remove(&mut self, addr: Addr) -> Option<T> {
        let idx = self.index.remove(&addr)?;
        let (_, value) = self.slots[idx as usize]
            .take()
            .expect("indexed slot must be occupied");
        self.free.push(idx);
        self.len -= 1;
        Some(value)
    }

    /// Shared access by address.
    #[must_use]
    pub fn get(&self, addr: Addr) -> Option<&T> {
        let &idx = self.index.get(&addr)?;
        self.slots[idx as usize].as_ref().map(|(_, v)| v)
    }

    /// Mutable access by address.
    pub fn get_mut(&mut self, addr: Addr) -> Option<&mut T> {
        let &idx = self.index.get(&addr)?;
        self.slots[idx as usize].as_mut().map(|(_, v)| v)
    }

    /// Mutable access by address for a caller that remembers where the
    /// value last lay: the slot index comes back with the value, and
    /// passing it as `hint` next time skips the index probe. The hinted
    /// slot is used only if it holds exactly `addr` — otherwise (empty,
    /// reused by another address, out of range such as [`NO_HINT`]) the
    /// index decides as in [`NodeSlab::get_mut`], so a stale hint costs
    /// a probe and never changes the answer.
    pub fn get_mut_hinted(&mut self, addr: Addr, hint: u32) -> Option<(u32, &mut T)> {
        let hit = matches!(
            self.slots.get(hint as usize),
            Some(Some((a, _))) if *a == addr
        );
        let idx = if hit { hint } else { *self.index.get(&addr)? };
        let (_, value) = self.slots[idx as usize].as_mut()?;
        Some((idx, value))
    }

    /// Iterate `(addr, &value)` pairs in slot order (a dense scan).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &T)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(a, v)| (*a, v)))
    }

    /// Iterate stored addresses in slot order.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.iter().map(|(a, _)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_id::NodeId;
    use std::hash::BuildHasher;

    #[test]
    fn insert_get_remove() {
        let mut s: NodeSlab<u32> = NodeSlab::new();
        assert!(s.is_empty());
        s.insert(NodeId(10), 100);
        s.insert(NodeId(20), 200);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(NodeId(10)), Some(&100));
        *s.get_mut(NodeId(20)).unwrap() += 1;
        assert_eq!(s.get(NodeId(20)), Some(&201));
        assert_eq!(s.remove(NodeId(10)), Some(100));
        assert_eq!(s.get(NodeId(10)), None);
        assert_eq!(s.remove(NodeId(10)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn insert_replaces_same_addr() {
        let mut s: NodeSlab<u32> = NodeSlab::new();
        assert_eq!(s.insert(NodeId(1), 1), None);
        assert_eq!(s.insert(NodeId(1), 2), Some(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(NodeId(1)), Some(&2));
    }

    #[test]
    fn slots_are_reused_densely() {
        let mut s: NodeSlab<u32> = NodeSlab::new();
        for i in 0..8u64 {
            s.insert(NodeId(i), i as u32);
        }
        for i in 0..4u64 {
            s.remove(NodeId(i));
        }
        // churn back in: the freed slots are reused, no growth
        for i in 0..4u64 {
            s.insert(NodeId(100 + i), 0);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.slots.len(), 8, "freed slots must be reused");
    }

    #[test]
    fn a_hint_never_changes_what_get_mut_returns() {
        let mut s: NodeSlab<u32> = NodeSlab::new();
        for i in 0..4u64 {
            s.insert(NodeId(i), i as u32); // NodeId(i) lies in slot i
        }
        // churn until slot 0 holds NodeId(3) (rejoined elsewhere),
        // slot 1 NodeId(1) (rejoined in place), slot 2 NodeId(7) (a
        // stranger) and slot 3 nothing; 0, 2 and 8 are gone
        s.remove(NodeId(1));
        s.remove(NodeId(2));
        s.insert(NodeId(7), 70);
        s.remove(NodeId(0));
        s.insert(NodeId(8), 80);
        s.insert(NodeId(1), 10);
        s.remove(NodeId(3));
        s.remove(NodeId(8));
        s.insert(NodeId(3), 30);
        assert_eq!(s.get_mut_hinted(NodeId(3), 3), Some((0, &mut 30)));
        assert_eq!(s.get_mut_hinted(NodeId(2), 2), None, "a stranger's slot");
        let addrs = [0u64, 1, 2, 3, 7, 8, 9].map(NodeId);
        let hints = [0, 1, 2, 3, 4, 1000, NO_HINT];
        for addr in addrs {
            let expected = s.get_mut(addr).copied();
            for hint in hints {
                let got = s.get_mut_hinted(addr, hint);
                assert_eq!(
                    got.as_ref().map(|(_, v)| **v),
                    expected,
                    "{addr:?} hint {hint}"
                );
                // the slot that comes back is the right hint from now on
                if let Some((idx, _)) = got {
                    let again = s.get_mut_hinted(addr, idx).map(|(i, v)| (i, *v));
                    assert_eq!(again, expected.map(|v| (idx, v)));
                    assert_eq!(s.index.get(&addr), Some(&idx));
                }
            }
        }
    }

    #[test]
    fn iteration_is_deterministic_slot_order() {
        let mut s: NodeSlab<u32> = NodeSlab::new();
        for i in [5u64, 3, 9, 1] {
            s.insert(NodeId(i), i as u32);
        }
        s.remove(NodeId(3));
        s.insert(NodeId(7), 7); // reuses node 3's slot
        let order: Vec<u64> = s.addrs().map(|a| a.0).collect();
        assert_eq!(order, vec![5, 7, 9, 1]);
    }

    /// Most keys in one bucket when `ids` are hashed into 16 384
    /// buckets by the low 14 bits (hashbrown's bucket choice at this
    /// size) and into 128 by the top 7 (its control byte).
    fn worst_buckets(ids: &[u64]) -> (usize, usize) {
        let mut low = vec![0usize; 1 << 14];
        let mut top = [0usize; 128];
        for &id in ids {
            let h = BuildHasherDefault::<IdHasher>::default().hash_one(NodeId(id));
            low[(h & ((1 << 14) - 1)) as usize] += 1;
            top[(h >> 57) as usize] += 1;
        }
        (
            low.into_iter().max().unwrap(),
            top.into_iter().max().unwrap(),
        )
    }

    #[test]
    fn id_hasher_spreads_the_id_shapes_the_simulator_uses() {
        use rand::{Rng, SeedableRng};
        // 10 000 keys in a table of 16 384 buckets: uniformly random
        // hashes put 7 or 8 in the fullest bucket and about 78 ± 9 on
        // each control-byte value
        const N: u64 = 10_000;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51ab);
        let low: u64 = rng.gen::<u64>() & 0xffff_ffff;
        let (lo, hi) = crate::ShardMap::new(64).range(37);
        let in_range: Vec<u64> = (0..N).map(|_| rng.gen_range(lo..=hi)).collect();
        let shapes: [(&str, Vec<u64>); 3] = [
            ("sequential small ids", (0..N).collect()),
            ("equal low 32 bits", (0..N).map(|i| i << 32 | low).collect()),
            ("one shard's range", in_range),
        ];
        for (shape, ids) in shapes {
            let (low_worst, top_worst) = worst_buckets(&ids);
            assert!(low_worst <= 10, "{shape}: {low_worst} keys share low bits");
            assert!(top_worst <= 130, "{shape}: {top_worst} keys share top bits");
        }
    }
}
