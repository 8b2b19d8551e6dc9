//! Routing tables and the greedy next-hop rule.
//!
//! In Octopus every queried node returns its full *routing table* — the
//! combination of fingertable and successor list (§4.3) — rather than a
//! single closest finger. Returning the whole table both hides the lookup
//! key from intermediate nodes (target anonymity, §4.1) and lets the
//! initiator use successor entries to finish the lookup early.

use octopus_id::{Key, NodeId};

/// A node's routing state as returned to lookup queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTable {
    /// The table's owner.
    pub owner: NodeId,
    /// Finger entries, shortest span first. May contain `owner` itself
    /// when the network is small.
    pub fingers: Vec<NodeId>,
    /// Successor list, nearest first.
    pub successors: Vec<NodeId>,
    /// Predecessor list, nearest first (Octopus extension, §4.3).
    pub predecessors: Vec<NodeId>,
}

/// The next step of a greedy lookup using one routing table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextHop {
    /// The key's owner has been determined.
    Found(NodeId),
    /// The lookup should query this node next.
    Forward(NodeId),
}

impl RoutingTable {
    /// An empty table for `owner` (fresh node before stabilization).
    #[must_use]
    pub fn empty(owner: NodeId) -> Self {
        RoutingTable {
            owner,
            fingers: Vec::new(),
            successors: Vec::new(),
            predecessors: Vec::new(),
        }
    }

    /// All distinct routing entries (fingers ∪ successors), the candidate
    /// set for greedy forwarding.
    #[must_use]
    pub fn candidates(&self) -> Vec<NodeId> {
        let mut c: Vec<NodeId> = self
            .fingers
            .iter()
            .chain(self.successors.iter())
            .copied()
            .filter(|&n| n != self.owner)
            .collect();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Octopus' greedy routing rule for `key` against this table:
    ///
    /// 1. If the key falls between the owner and one of its successors
    ///    (scanning the successor list in ring order), that successor
    ///    *is* the key's owner — the lookup completes (§4.3's "use the
    ///    successor list to speed up the last few hops").
    /// 2. Otherwise forward to the candidate that most closely *precedes*
    ///    the key (classic Chord greedy step over fingers ∪ successors).
    /// 3. With no preceding candidate, fall back to the first successor
    ///    (guarantees progress on sparse tables).
    #[must_use]
    pub fn next_hop(&self, key: Key) -> NextHop {
        // 1. successor-list completion
        let mut prev = self.owner;
        for &s in &self.successors {
            if key.as_id().is_between_incl(prev, s) {
                return NextHop::Found(s);
            }
            prev = s;
        }
        // 2. closest preceding candidate
        let mut best: Option<(u64, NodeId)> = None;
        for c in self.candidates() {
            if c.is_between(self.owner, key.as_id()) {
                let advance = self.owner.distance_to(c);
                if best.is_none_or(|(b, _)| advance > b) {
                    best = Some((advance, c));
                }
            }
        }
        if let Some((_, c)) = best {
            return NextHop::Forward(c);
        }
        // 3. fallback
        match self.successors.first() {
            Some(&s) => NextHop::Forward(s),
            None => NextHop::Found(self.owner), // isolated node owns everything
        }
    }

    /// Number of routing items (fingers + successors) — the quantity the
    /// wire-size model charges for.
    #[must_use]
    pub fn item_count(&self) -> u32 {
        (self.fingers.len() + self.successors.len()) as u32
    }

    /// Length of [`RoutingTable::encode`]'s output: the owner, then per
    /// list a tag byte, a 4-byte count and 8 bytes per entry.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 + 3 * 5 + 8 * (self.fingers.len() + self.successors.len() + self.predecessors.len())
    }

    /// Canonical byte encoding, the content covered by table signatures.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Append the canonical encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.owner.0.to_be_bytes());
        for (tag, list) in [
            (0u8, &self.fingers),
            (1u8, &self.successors),
            (2u8, &self.predecessors),
        ] {
            out.push(tag);
            out.extend_from_slice(&(list.len() as u32).to_be_bytes());
            for id in list {
                out.extend_from_slice(&id.0.to_be_bytes());
            }
        }
    }

    /// Inverse of [`RoutingTable::encode`]: parse a canonical encoding,
    /// requiring every byte to be consumed. Returns `None` on any
    /// malformation (wrong tag, length lies, truncation, trailing
    /// bytes) — never panics. Because the decode accepts exactly the
    /// canonical form, a table that roundtrips still carries valid
    /// signatures over its re-encoding.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let owner = NodeId(u64::from_be_bytes(take(&mut pos, 8)?.try_into().ok()?));
        let mut lists: [Vec<NodeId>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (tag, slot) in lists.iter_mut().enumerate() {
            if *take(&mut pos, 1)?.first()? != tag as u8 {
                return None;
            }
            let len = u32::from_be_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            // each id is 8 bytes: a forged length cannot pass this gate,
            // so allocation stays bounded by the input size
            if len.checked_mul(8)? > bytes.len() - pos {
                return None;
            }
            slot.reserve(len);
            for _ in 0..len {
                slot.push(NodeId(u64::from_be_bytes(
                    take(&mut pos, 8)?.try_into().ok()?,
                )));
            }
        }
        if pos != bytes.len() {
            return None;
        }
        let [fingers, successors, predecessors] = lists;
        Some(RoutingTable {
            owner,
            fingers,
            successors,
            predecessors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RoutingTable {
        RoutingTable {
            owner: NodeId(100),
            fingers: vec![NodeId(200), NodeId(400), NodeId(800)],
            successors: vec![NodeId(110), NodeId(120), NodeId(130)],
            predecessors: vec![NodeId(90), NodeId(80)],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = table();
        let bytes = t.encode();
        let back = RoutingTable::decode(&bytes).expect("canonical bytes decode");
        assert_eq!(back, t);
        // signature stability: re-encoding the decode is byte-identical
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn decode_rejects_malformed() {
        let bytes = table().encode();
        // every truncation
        for cut in 0..bytes.len() {
            assert!(RoutingTable::decode(&bytes[..cut]).is_none(), "cut={cut}");
        }
        // trailing garbage
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(RoutingTable::decode(&padded).is_none());
        // wrong section tag
        let mut bad_tag = bytes.clone();
        bad_tag[8] = 7;
        assert!(RoutingTable::decode(&bad_tag).is_none());
        // forged length prefix
        let mut bad_len = bytes;
        bad_len[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(RoutingTable::decode(&bad_len).is_none());
    }

    #[test]
    fn successor_completion() {
        let t = table();
        assert_eq!(t.next_hop(Key(105)), NextHop::Found(NodeId(110)));
        assert_eq!(t.next_hop(Key(110)), NextHop::Found(NodeId(110)));
        assert_eq!(t.next_hop(Key(115)), NextHop::Found(NodeId(120)));
        assert_eq!(t.next_hop(Key(130)), NextHop::Found(NodeId(130)));
    }

    #[test]
    fn greedy_forwarding() {
        let t = table();
        // key 500: candidates preceding it are 200, 400 (and succs) → 400
        assert_eq!(t.next_hop(Key(500)), NextHop::Forward(NodeId(400)));
        // key 1000: 800 precedes → forward to 800
        assert_eq!(t.next_hop(Key(1000)), NextHop::Forward(NodeId(800)));
        // key 150: no finger precedes except successors; 130 is closest preceding
        assert_eq!(t.next_hop(Key(150)), NextHop::Forward(NodeId(130)));
    }

    #[test]
    fn wrapping_key() {
        let t = table();
        // key 50 (behind owner, wraps all the way around): the farthest
        // candidate preceding it clockwise from 100 is 800
        assert_eq!(t.next_hop(Key(50)), NextHop::Forward(NodeId(800)));
    }

    #[test]
    fn fallback_to_first_successor() {
        let t = RoutingTable {
            owner: NodeId(100),
            fingers: vec![],
            successors: vec![NodeId(110)],
            predecessors: vec![],
        };
        // key 110 covered by succ list
        assert_eq!(t.next_hop(Key(110)), NextHop::Found(NodeId(110)));
        // key far away, no fingers: still makes progress via successor
        assert_eq!(t.next_hop(Key(5000)), NextHop::Forward(NodeId(110)));
    }

    #[test]
    fn isolated_node_owns_everything() {
        let t = RoutingTable::empty(NodeId(7));
        assert_eq!(t.next_hop(Key(123)), NextHop::Found(NodeId(7)));
    }

    #[test]
    fn candidates_deduped_without_owner() {
        let mut t = table();
        t.fingers.push(NodeId(110)); // duplicate of a successor
        t.fingers.push(NodeId(100)); // owner itself
        let c = t.candidates();
        assert_eq!(c.iter().filter(|&&n| n == NodeId(110)).count(), 1);
        assert!(!c.contains(&NodeId(100)));
    }

    #[test]
    fn encode_is_injective_across_lists() {
        // same ids distributed differently must encode differently
        let a = RoutingTable {
            owner: NodeId(1),
            fingers: vec![NodeId(2)],
            successors: vec![],
            predecessors: vec![],
        };
        let b = RoutingTable {
            owner: NodeId(1),
            fingers: vec![],
            successors: vec![NodeId(2)],
            predecessors: vec![],
        };
        assert_ne!(a.encode(), b.encode());
    }

    #[test]
    fn item_count_charges_fingers_and_successors() {
        assert_eq!(table().item_count(), 6);
    }
}
