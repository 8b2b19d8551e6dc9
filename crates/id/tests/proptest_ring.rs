//! Randomized property tests of the ring invariants every protocol
//! relies on. (Originally written against `proptest`; the offline build
//! replays the same properties over seeded random case generators.)

use std::collections::BTreeSet;

use octopus_id::{IdSpace, Key, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

/// A random set of `lo..hi` distinct ids, mirroring
/// `proptest::collection::hash_set(any::<u64>(), lo..hi)`.
fn random_ids(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<NodeId> {
    let n = rng.gen_range(lo..hi);
    let mut set = BTreeSet::new();
    while set.len() < n {
        set.insert(rng.gen::<u64>());
    }
    set.into_iter().map(NodeId).collect()
}

/// Clockwise distances around the full circle sum to 2^64 (≡ 0).
#[test]
fn distances_sum_to_ring() {
    let mut rng = StdRng::seed_from_u64(0xd15);
    for _ in 0..CASES {
        let (a, b) = (NodeId(rng.gen()), NodeId(rng.gen()));
        assert_eq!(a.distance_to(b).wrapping_add(b.distance_to(a)), 0);
    }
}

/// `is_between` is equivalent to a distance comparison.
#[test]
fn between_matches_distance() {
    let mut rng = StdRng::seed_from_u64(0xbe7);
    for _ in 0..CASES {
        let (x, from, to) = (NodeId(rng.gen()), NodeId(rng.gen()), NodeId(rng.gen()));
        let by_def = x.is_between(from, to);
        let by_dist = if from == to {
            x != from
        } else {
            from.distance_to(x) > 0 && from.distance_to(x) < from.distance_to(to)
        };
        assert_eq!(by_def, by_dist);
    }
}

/// Exactly one node owns any key, and ownership matches the
/// predecessor interval definition.
#[test]
fn exactly_one_owner() {
    let mut rng = StdRng::seed_from_u64(0x04e);
    for _ in 0..CASES {
        let space = IdSpace::new(random_ids(&mut rng, 2, 50));
        let key = Key(rng.gen());
        let own = space.owner_of(key);
        let owners: Vec<_> = space
            .ids()
            .iter()
            .filter(|&&n| key.owned_by(n, space.predecessor(n, 1)))
            .collect();
        assert_eq!(owners.len(), 1, "key must have a unique owner");
        assert_eq!(*owners[0], own.owner);
    }
}

/// successor and predecessor are inverse on members.
#[test]
fn succ_pred_inverse() {
    let mut rng = StdRng::seed_from_u64(0x10c);
    for _ in 0..CASES {
        let space = IdSpace::new(random_ids(&mut rng, 2, 50));
        let k = rng.gen_range(1usize..5);
        for &n in space.ids() {
            let s = space.successor(n, k);
            assert_eq!(space.predecessor(s, k), n);
        }
    }
}

/// The successor list is sorted by clockwise distance from the node.
#[test]
fn successor_list_ordered() {
    let mut rng = StdRng::seed_from_u64(0x50d);
    for _ in 0..CASES {
        let space = IdSpace::new(random_ids(&mut rng, 3, 60));
        let n = space.ids()[0];
        let sl = space.successor_list(n, space.len() - 1);
        let mut last = 0u64;
        for s in sl {
            let d = n.distance_to(s);
            assert!(d > last, "successor list must be clockwise-ordered");
            last = d;
        }
    }
}

/// Fingers never precede their target: owner_of(t) is at or after t.
#[test]
fn finger_at_or_after_target() {
    let mut rng = StdRng::seed_from_u64(0xf19);
    for _ in 0..64 {
        let space = IdSpace::new(random_ids(&mut rng, 2, 40));
        let n = NodeId(rng.gen());
        for i in 0..64 {
            let t = n.finger_target(i);
            let f = space.owner_of(t).owner;
            // distance from target to owner < distance from target to any other node
            for &m in space.ids() {
                assert!(t.distance_to_node(f) <= t.distance_to_node(m));
            }
        }
    }
}
