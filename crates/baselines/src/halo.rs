//! Halo: high-assurance locate \[17\].
//!
//! Instead of looking up the target key directly, Halo performs
//! redundant searches for *knuckles* — nodes whose fingers point at the
//! target — and cross-checks their answers. The paper's comparison run
//! uses "degree-2 recursion with redundant parameter 8 × 4" (§7): 8
//! knuckle searches, each itself performed via 4 redundant sub-searches.
//! A Halo lookup only completes when **all** redundant searches return
//! (§7: "a lookup is not completed until all redundant lookups' results
//! are returned") — which is why its mean latency is dominated by the
//! slowest path while its median stays Chord-like.

use octopus_chord::{iterative_lookup, RoutingView};
use octopus_id::{Key, NodeId};
use octopus_net::{sizes, LatencyModel};
use octopus_sim::Duration;
use rand::Rng;

/// Knuckle searches per lookup (the "8" of 8×4).
pub const HALO_REDUNDANCY: usize = 8;
/// Sub-searches per knuckle search (the "4" of 8×4, degree-2 recursion).
pub const HALO_DEGREE: usize = 4;

/// Result of one simulated Halo lookup.
#[derive(Clone, Debug)]
pub struct HaloLookup {
    /// The answer each knuckle search produced.
    pub candidates: Vec<NodeId>,
    /// The majority answer (the high-assurance result).
    pub result: Option<NodeId>,
    /// Latency: redundant searches run in parallel; the lookup waits for
    /// the slowest.
    pub latency: Duration,
    /// Total bytes across all redundant searches.
    pub bytes: u64,
}

/// Run a Halo lookup: 8 knuckle searches × 4 sub-searches, in parallel.
pub fn halo_lookup<V: RoutingView, L: LatencyModel, R: Rng + ?Sized>(
    view: &V,
    initiator: NodeId,
    key: Key,
    latency: &L,
    rng: &mut R,
) -> HaloLookup {
    let mut candidates = Vec::with_capacity(HALO_REDUNDANCY);
    let mut slowest = Duration::ZERO;
    let mut bytes = 0u64;
    for i in 0..HALO_REDUNDANCY {
        // knuckle i targets the position whose 2^(i-th) finger covers the
        // key: key - 2^(63-i) (search keys fan out across the ring)
        let knuckle_key = Key(key.0.wrapping_sub(1u64 << (63 - i)));
        let mut sub_latencies = Vec::with_capacity(HALO_DEGREE);
        let mut answer = None;
        for j in 0..HALO_DEGREE {
            // degree-2 recursion: sub-searches approach the knuckle from
            // slightly different positions
            let sub_key = Key(knuckle_key.0.wrapping_sub(j as u64 * 1024));
            let trace = iterative_lookup(view, initiator, sub_key);
            let mut sub_latency = Duration::ZERO;
            for &q in &trace.queried {
                sub_latency = sub_latency
                    + latency.sample(initiator, q, rng)
                    + latency.sample(q, initiator, rng);
                if rng.gen::<f64>() < crate::chord::STRAGGLER_PROB {
                    sub_latency = sub_latency + crate::chord::straggler_delay(rng, true);
                }
                bytes += u64::from(sizes::REQUEST)
                    + u64::from(sizes::ROUTING_ITEM)
                    + 2 * u64::from(sizes::UDP_HEADER);
            }
            sub_latencies.push(sub_latency);
            if j == 0 {
                answer = trace.result();
            }
        }
        // the redundant sub-searches cross-check each other: the knuckle
        // search concludes once a checking quorum (2 of 4) agrees, so a
        // single straggling sub-search is masked — but the *lookup* still
        // waits for all 8 knuckles, so an unlucky knuckle (several
        // stragglers at once) stalls everything. That is exactly the
        // mean ≫ median signature of Table 3.
        sub_latencies.sort_unstable();
        let mut knuckle_latency = sub_latencies.get(1).copied().unwrap_or(Duration::ZERO);
        // the knuckle then answers the actual key query: one more RTT
        if let Some(k) = answer {
            if k != initiator {
                knuckle_latency = knuckle_latency
                    + latency.sample(initiator, k, rng)
                    + latency.sample(k, initiator, rng);
                bytes += u64::from(sizes::REQUEST)
                    + u64::from(sizes::ROUTING_ITEM)
                    + 2 * u64::from(sizes::UDP_HEADER);
            }
            // ask the knuckle for its finger covering the key
            let owner = view.table_of(k).next_hop(key);
            let cand = match owner {
                octopus_chord::NextHop::Found(n) => n,
                octopus_chord::NextHop::Forward(n) => n,
            };
            candidates.push(cand);
        }
        slowest = slowest.max(knuckle_latency);
    }
    let result = majority(&candidates);
    HaloLookup {
        candidates,
        result,
        latency: slowest,
        bytes,
    }
}

/// The knuckles' majority answer. A tie goes to the tied candidate that
/// answered first.
fn majority(candidates: &[NodeId]) -> Option<NodeId> {
    let votes = |n: NodeId| candidates.iter().filter(|&&c| c == n).count();
    let mut best: Option<(NodeId, usize)> = None;
    for &c in candidates {
        let v = votes(c);
        if best.is_none_or(|(_, b)| v > b) {
            best = Some((c, v));
        }
    }
    best.map(|(n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_chord::{ChordConfig, GroundTruthView};
    use octopus_id::IdSpace;
    use octopus_net::KingLikeLatency;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn majority_vote_takes_the_most_answers_and_breaks_ties_by_first_answer() {
        let [a, b, c] = [NodeId(30), NodeId(10), NodeId(20)];
        assert_eq!(majority(&[a, b, b, c, b]), Some(b));
        assert_eq!(majority(&[a, b, b, a]), Some(a), "2–2 tie, a first");
        assert_eq!(majority(&[b, a, a, b]), Some(b), "2–2 tie, b first");
        assert_eq!(majority(&[]), None);
    }

    #[test]
    fn halo_slower_than_chord_on_average() {
        let mut rng = StdRng::seed_from_u64(5);
        let space = IdSpace::random(400, &mut rng);
        let view = GroundTruthView::new(&space, ChordConfig::for_network(400));
        let lat = KingLikeLatency::new(6);
        let mut halo_total = 0.0;
        let mut chord_total = 0.0;
        for _ in 0..30 {
            let i = space.random_member(&mut rng);
            let key = Key(rng.gen());
            let h = halo_lookup(&view, i, key, &lat, &mut rng);
            let c = crate::chord::chord_lookup(&view, i, key, &lat, &mut rng);
            halo_total += h.latency.as_millis_f64();
            chord_total += c.latency.as_millis_f64();
        }
        assert!(
            halo_total > chord_total,
            "waiting for all redundant searches must cost more ({halo_total} vs {chord_total})"
        );
    }

    #[test]
    fn halo_finds_correct_owner_honestly() {
        let mut rng = StdRng::seed_from_u64(7);
        let space = IdSpace::random(400, &mut rng);
        let view = GroundTruthView::new(&space, ChordConfig::for_network(400));
        let lat = KingLikeLatency::new(8);
        let mut correct = 0;
        let trials = 20;
        for _ in 0..trials {
            let i = space.random_member(&mut rng);
            let key = Key(rng.gen());
            let h = halo_lookup(&view, i, key, &lat, &mut rng);
            if h.result == Some(space.owner_of(key).owner) {
                correct += 1;
            }
        }
        assert!(
            correct >= trials * 7 / 10,
            "knuckle majority should usually locate the owner ({correct}/{trials})"
        );
    }

    #[test]
    fn bytes_reflect_redundancy() {
        let mut rng = StdRng::seed_from_u64(9);
        let space = IdSpace::random(400, &mut rng);
        let view = GroundTruthView::new(&space, ChordConfig::for_network(400));
        let lat = KingLikeLatency::new(10);
        let i = space.random_member(&mut rng);
        let key = Key(rng.gen());
        let h = halo_lookup(&view, i, key, &lat, &mut rng);
        let c = crate::chord::chord_lookup(&view, i, key, &lat, &mut rng);
        assert!(
            h.bytes > 3 * c.bytes.max(1),
            "8×4 redundancy must multiply traffic"
        );
    }
}
