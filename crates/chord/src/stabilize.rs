//! Pure stabilization rules for successor and predecessor lists.
//!
//! Octopus nodes run Chord stabilization clockwise for the successor
//! list and — its extension — *anticlockwise* for the predecessor list
//! (§4.3), every 2 s in the paper's setup. The message choreography lives
//! in `octopus-core::simnet`; the list arithmetic lives here where it can
//! be tested exhaustively.

use octopus_id::NodeId;

/// Merge the first successor's list into our own:
/// `new = [s1] ++ s1_list`, with ourselves removed, deduplicated, and
/// truncated to `k` entries.
#[must_use]
pub fn merge_successor_list(own: NodeId, s1: NodeId, s1_list: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(k);
    for &cand in std::iter::once(&s1).chain(s1_list.iter()) {
        if cand == own || out.contains(&cand) {
            continue;
        }
        out.push(cand);
        if out.len() == k {
            break;
        }
    }
    out
}

/// Mirror of [`merge_successor_list`] for the anticlockwise direction.
#[must_use]
pub fn merge_predecessor_list(
    own: NodeId,
    p1: NodeId,
    p1_list: &[NodeId],
    k: usize,
) -> Vec<NodeId> {
    merge_successor_list(own, p1, p1_list, k)
}

/// Drop a dead head from a neighbor list, promoting the next entry.
pub fn drop_head(list: &mut Vec<NodeId>, dead: NodeId) {
    list.retain(|&n| n != dead);
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn merge_basic() {
        let merged = merge_successor_list(
            NodeId(10),
            NodeId(20),
            &[NodeId(30), NodeId(40), NodeId(50)],
            3,
        );
        assert_eq!(merged, vec![NodeId(20), NodeId(30), NodeId(40)]);
    }

    #[test]
    fn merge_skips_self_and_dups() {
        let merged = merge_successor_list(
            NodeId(10),
            NodeId(20),
            &[NodeId(20), NodeId(10), NodeId(30)],
            4,
        );
        assert_eq!(merged, vec![NodeId(20), NodeId(30)]);
    }

    #[test]
    fn merge_converges_to_ground_truth() {
        // Applying the merge rule along the ring reproduces IdSpace's
        // ground-truth successor lists.
        let mut rng = StdRng::seed_from_u64(1);
        let space = IdSpace::random(50, &mut rng);
        let k = 6;
        for &n in space.ids() {
            let s1 = space.successor(n, 1);
            let s1_list = space.successor_list(s1, k);
            let merged = merge_successor_list(n, s1, &s1_list, k);
            assert_eq!(merged, space.successor_list(n, k));
        }
    }

    #[test]
    fn predecessor_merge_converges() {
        let mut rng = StdRng::seed_from_u64(2);
        let space = IdSpace::random(50, &mut rng);
        let k = 6;
        for &n in space.ids() {
            let p1 = space.predecessor(n, 1);
            let p1_list = space.predecessor_list(p1, k);
            let merged = merge_predecessor_list(n, p1, &p1_list, k);
            assert_eq!(merged, space.predecessor_list(n, k));
        }
    }

    #[test]
    fn drop_head_promotes() {
        let mut l = vec![NodeId(1), NodeId(2), NodeId(3)];
        drop_head(&mut l, NodeId(1));
        assert_eq!(l, vec![NodeId(2), NodeId(3)]);
        drop_head(&mut l, NodeId(9));
        assert_eq!(l.len(), 2);
    }
}
