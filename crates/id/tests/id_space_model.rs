//! Generative properties: [`IdSpace`] must behave exactly like a plain
//! `BTreeSet<NodeId>` model of the ring under arbitrary seeded churn —
//! same membership, same ring queries, same mutation return values, and
//! `random_member` draws that consume one `gen_range(0..len)` each.
//! (Originally written against `proptest`; the offline build replays the
//! same properties over seeded random case generators.)

use std::collections::{BTreeSet, HashSet};
use std::ops::Bound::{Excluded, Unbounded};

use octopus_id::{IdSpace, Key, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;
const CHURN_OPS: usize = 400;

/// A random set of distinct ids, half of them clustered in one 1/64th
/// of the ring so neighbours sit close together.
fn random_ids(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<NodeId> {
    let n = rng.gen_range(lo..hi);
    let mut set = HashSet::new();
    while set.len() < n {
        let id = if rng.gen_bool(0.5) {
            rng.gen::<u64>()
        } else {
            (7u64 << 58) | (rng.gen::<u64>() >> 6)
        };
        set.insert(id);
    }
    set.into_iter().map(NodeId).collect()
}

/// The owner of `key`: the first member at or after it, wrapping.
fn model_owner(model: &BTreeSet<NodeId>, key: Key) -> NodeId {
    let at = key.as_id();
    *model.range(at..).next().or(model.first()).unwrap()
}

/// The `k`-th member clockwise strictly after position `id`, walking
/// round the ring as often as `k` needs.
fn model_successor(model: &BTreeSet<NodeId>, id: NodeId, k: usize) -> NodeId {
    let once = model
        .range((Excluded(id), Unbounded))
        .chain(model.range(..=id));
    *once.cycle().nth(k - 1).unwrap()
}

/// The `k`-th member anticlockwise strictly before position `id`.
fn model_predecessor(model: &BTreeSet<NodeId>, id: NodeId, k: usize) -> NodeId {
    let once = model.range(..id).rev().chain(model.range(id..).rev());
    *once.cycle().nth(k - 1).unwrap()
}

/// A uniformly random member: one `gen_range(0..len)` into sorted order.
fn model_random_member(model: &BTreeSet<NodeId>, rng: &mut StdRng) -> NodeId {
    *model.iter().nth(rng.gen_range(0..model.len())).unwrap()
}

/// Assert the space and the model agree on everything observable.
fn assert_matches_model(space: &IdSpace, model: &BTreeSet<NodeId>, probes: &mut StdRng) {
    assert_eq!(space.len(), model.len());
    assert_eq!(space.is_empty(), model.is_empty());
    assert!(
        space.ids().iter().eq(model.iter()),
        "universe order diverged"
    );
    for (i, &id) in space.ids().iter().enumerate() {
        assert_eq!(space.index_of(id), Some(i));
    }
    for _ in 0..16 {
        let probe = NodeId(probes.gen());
        assert_eq!(space.contains(probe), model.contains(&probe));
        if model.is_empty() {
            continue;
        }
        let key = Key(probe.0);
        let owner = space.owner_of(key);
        assert_eq!(owner.owner, model_owner(model, key));
        assert_eq!(space.ids()[owner.index], owner.owner);
        // k = len and k = len + 1 walk once round the ring and on
        let n = model.len();
        let member = *model.iter().nth(probes.gen_range(0..n)).unwrap();
        for k in [1, 2, 3, n, n + 1] {
            assert_eq!(space.successor(probe, k), model_successor(model, probe, k));
            assert_eq!(
                space.predecessor(probe, k),
                model_predecessor(model, probe, k)
            );
            assert_eq!(
                space.successor(member, k),
                model_successor(model, member, k)
            );
            assert_eq!(
                space.predecessor(member, k),
                model_predecessor(model, member, k)
            );
        }
        let succs: Vec<NodeId> = (1..=5).map(|k| model_successor(model, probe, k)).collect();
        let preds: Vec<NodeId> = (1..=5)
            .map(|k| model_predecessor(model, probe, k))
            .collect();
        assert_eq!(space.successor_list(probe, 5), succs);
        assert_eq!(space.predecessor_list(probe, 5), preds);
    }
}

/// Random interleaved churn: inserts and removes (of members and
/// non-members alike) keep the space and the model in lockstep, with
/// every mutation's return value matching.
#[test]
fn churn_keeps_space_and_model_in_lockstep() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DE + case as u64);
        let ids = random_ids(&mut rng, 1, 200);
        let mut space = IdSpace::new(&ids);
        let mut model: BTreeSet<NodeId> = ids.iter().copied().collect();
        let mut pool = ids;
        for _ in 0..CHURN_OPS {
            let insert = rng.gen_bool(0.5);
            // half the time target an existing member, half a fresh id
            let id = if !pool.is_empty() && rng.gen_bool(0.5) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                let fresh = NodeId(rng.gen());
                pool.push(fresh);
                fresh
            };
            if insert {
                assert_eq!(space.insert(id), model.insert(id), "insert({id})");
            } else {
                assert_eq!(space.remove(id), model.remove(&id), "remove({id})");
            }
        }
        assert_matches_model(&space, &model, &mut rng);
    }
}

/// `random_member` consumes exactly one `gen_range(0..len)` draw: the
/// same seed gives the same draw sequence and the same members as the
/// model, so a seeded experiment's stream never shifts under it.
#[test]
fn random_member_draws_are_bit_compatible() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD1CE + case as u64);
        let ids = random_ids(&mut rng, 1, 300);
        let mut space = IdSpace::new(&ids);
        let mut model: BTreeSet<NodeId> = ids.iter().copied().collect();
        let mut space_rng = StdRng::seed_from_u64(case as u64);
        let mut model_rng = StdRng::seed_from_u64(case as u64);
        for round in 0..64 {
            let a = space.random_member(&mut space_rng);
            let b = model_random_member(&model, &mut model_rng);
            assert_eq!(a, b, "case {case} round {round}: draw diverged");
            // interleave churn between draws so stream alignment
            // survives mutation too
            if round % 3 == 0 && model.len() > 1 {
                assert_eq!(space.remove(a), model.remove(&a));
            } else if round % 3 == 1 {
                let fresh = NodeId(rng.gen());
                assert_eq!(space.insert(fresh), model.insert(fresh));
            }
        }
        // after identical draw counts the two rngs are in the same
        // state: one more draw from each still agrees
        assert_eq!(
            space.random_member(&mut space_rng),
            model_random_member(&model, &mut model_rng)
        );
    }
}

/// Draining the space in a shuffled order keeps it equal to the model
/// at every step, down to empty.
#[test]
fn draining_to_empty_tracks_the_model() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    let ids = random_ids(&mut rng, 50, 150);
    let mut space = IdSpace::new(&ids);
    let mut model: BTreeSet<NodeId> = ids.iter().copied().collect();
    let mut order = ids;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for id in &order {
        assert_eq!(
            space.ids().first(),
            model.first(),
            "smallest member diverged"
        );
        assert!(space.remove(*id));
        assert!(model.remove(id));
        assert_matches_model(&space, &model, &mut rng);
    }
    assert!(space.is_empty());
}
