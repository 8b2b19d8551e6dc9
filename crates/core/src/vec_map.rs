//! A map kept as a key-sorted `Vec`, for a peer's request tables.
//!
//! Each peer holds nine tables of in-flight requests (pending direct and
//! anonymous queries, lookups, walks, finger checks, …). They hold a
//! handful of entries at most and are empty most of the time, and there
//! are a thousand peers or more. A `BTreeMap` keeps its eleven-slot root
//! leaf after its last entry leaves, hundreds of bytes per table; a `Vec`
//! keeps only the room its busiest moment needed. Most keys are request
//! ids the peer hands out itself, in increasing order, so most inserts
//! are a push at the end.
//!
//! Iteration is in key order, as a `BTreeMap`'s is, so either map gives
//! the same output.

/// A map from `K` to `V` stored as a `Vec` sorted by key.
pub(crate) struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map; allocates nothing until the first insert.
    pub(crate) fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Insert `value` under `key`, returning what the key held before.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Remove `key`, returning what it held.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// The entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn behaves_like_a_btree_map() {
        // a small key range, so inserts replace, removes hit and the map
        // empties and refills many times over
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ours = VecMap::new();
            let mut reference = BTreeMap::new();
            for step in 0..400u32 {
                let key: u8 = rng.gen_range(0..12);
                match rng.gen_range(0..4) {
                    0 => assert_eq!(
                        ours.insert(key, step),
                        reference.insert(key, step),
                        "insert {key} (seed {seed})"
                    ),
                    1 => assert_eq!(ours.get(&key), reference.get(&key), "get {key}"),
                    2 => {
                        let (a, b) = (ours.get_mut(&key), reference.get_mut(&key));
                        assert_eq!(a, b, "get_mut {key}");
                        if let (Some(a), Some(b)) = (a, b) {
                            *a += 1000;
                            *b += 1000;
                        }
                    }
                    _ => assert_eq!(ours.remove(&key), reference.remove(&key), "remove {key}"),
                }
            }
            assert!(
                ours.iter().eq(reference.iter()),
                "final order (seed {seed})"
            );
        }
    }
}
