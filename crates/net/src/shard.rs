//! Ring partitioning for sharded worlds: ID-range ownership and the
//! cross-shard message bus.
//!
//! A sharded [`World`](crate::World) splits the Chord ring into
//! contiguous ID ranges, one per shard; each shard owns the
//! [`NodeSlab`](crate::NodeSlab) and event queue for its range.
//! [`ShardMap`] is the ownership function (`Addr → shard`, `O(1)`,
//! allocation-free), and [`CrossShardBus`] holds messages in flight
//! between shards until the next conservative synchronization barrier
//! (see [`octopus_sim::LookaheadWindow`]).

use octopus_sim::SimTime;

use crate::wire::FrameHeader;
use crate::world::Addr;

/// Contiguous-range ownership of the 64-bit ID space by `count` shards.
///
/// Shard `s` owns ids in `[range(s).0, range(s).1]`; ranges tile the
/// whole space, so every address — including out-of-population driver
/// addresses like a CA at `u64::MAX` — has exactly one owner. The map
/// is pure arithmetic (`shard_of(id) = ⌊id · count / 2⁶⁴⌋`), identical
/// for every shard count on every run.
///
/// ```
/// use octopus_net::ShardMap;
///
/// let map = ShardMap::new(4);
/// assert_eq!(map.count(), 4);
/// assert_eq!(map.shard_of(octopus_id::NodeId(0)), 0);
/// assert_eq!(map.shard_of(octopus_id::NodeId(u64::MAX)), 3);
/// // ranges are contiguous and cover the space
/// let (lo, hi) = map.range(1);
/// assert_eq!(map.shard_of(octopus_id::NodeId(lo)), 1);
/// assert_eq!(map.shard_of(octopus_id::NodeId(hi)), 1);
/// assert_eq!(map.shard_of(octopus_id::NodeId(hi + 1)), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    count: usize,
}

impl ShardMap {
    /// A map over `count` shards (clamped to at least 1).
    #[must_use]
    pub fn new(count: usize) -> Self {
        ShardMap {
            count: count.max(1),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The shard owning `addr`.
    #[must_use]
    pub fn shard_of(&self, addr: Addr) -> usize {
        ((u128::from(addr.0) * self.count as u128) >> 64) as usize
    }

    /// The inclusive `[lo, hi]` ID range shard `s` owns.
    ///
    /// # Panics
    /// Panics when `s >= count()`.
    #[must_use]
    pub fn range(&self, s: usize) -> (u64, u64) {
        assert!(s < self.count, "shard index {s} out of {}", self.count);
        let lo = Self::range_start(self.count, s);
        let hi = if s + 1 == self.count {
            u64::MAX
        } else {
            Self::range_start(self.count, s + 1) - 1
        };
        (lo, hi)
    }

    /// First id owned by shard `s`: the smallest `id` with
    /// `id · count ≥ s · 2⁶⁴`.
    fn range_start(count: usize, s: usize) -> u64 {
        let num = (s as u128) << 64;
        let count = count as u128;
        (num.div_ceil(count)) as u64
    }
}

/// A message parked between shards, carrying the full global ordering
/// key it was assigned at send time.
///
/// Addressing lives in the embedded [`FrameHeader`] — the same header
/// type [`crate::wire::encode_frame`] serializes for the UDP transport,
/// so the simulator's in-memory framing and the on-the-wire framing are
/// one representation and can never drift apart.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Delivery time (send time + link latency + artificial delay).
    pub at: SimTime,
    /// Packed `(lane, origin, counter)` tie-break key, assigned from the
    /// sender's own counter when the send was routed — no cross-shard
    /// coordination needed.
    pub seq: u128,
    /// Sender and destination addresses (the codec-owned frame header).
    pub header: FrameHeader,
    /// The message itself.
    pub msg: M,
}

/// In-flight cross-shard messages, bucketed by destination shard.
///
/// The bus is append-only between barriers and fully drained at each
/// one; because every envelope's arrival time provably lies at or
/// beyond the current lookahead window's end, draining at barriers can
/// never deliver an event late. Envelopes keep their send-time sequence
/// numbers, so after a flush the destination queue still pops them in
/// exact global `(time, seq)` order.
#[derive(Debug)]
pub struct CrossShardBus<M> {
    lanes: Vec<Vec<Envelope<M>>>,
    len: usize,
}

impl<M> CrossShardBus<M> {
    /// An empty bus with one lane per destination shard.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        CrossShardBus {
            lanes: (0..shards.max(1)).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    /// Number of parked envelopes across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Park an envelope on its destination lane.
    ///
    /// # Panics
    /// Panics when `dest` is not a valid shard index.
    pub fn park(&mut self, dest: usize, envelope: Envelope<M>) {
        self.lanes[dest].push(envelope);
        self.len += 1;
    }

    /// Drain every lane at a barrier, handing each envelope to
    /// `deliver(dest_shard, envelope)`. Lanes drain in shard order and
    /// envelopes within a lane in park (send) order, so delivery is
    /// deterministic; ordering correctness does not depend on it (the
    /// envelopes' own `(time, seq)` keys restore the global order).
    pub fn flush(&mut self, mut deliver: impl FnMut(usize, Envelope<M>)) {
        for (dest, lane) in self.lanes.iter_mut().enumerate() {
            for e in lane.drain(..) {
                deliver(dest, e);
            }
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_id::NodeId;

    #[test]
    fn ranges_tile_the_space() {
        for count in [1usize, 2, 3, 4, 7, 8, 64] {
            let map = ShardMap::new(count);
            let mut next = 0u64;
            for s in 0..count {
                let (lo, hi) = map.range(s);
                assert_eq!(lo, next, "shard {s}/{count} range is contiguous");
                assert!(hi >= lo);
                assert_eq!(map.shard_of(NodeId(lo)), s);
                assert_eq!(map.shard_of(NodeId(hi)), s);
                if s + 1 < count {
                    assert_eq!(map.shard_of(NodeId(hi + 1)), s + 1);
                    next = hi + 1;
                }
            }
            assert_eq!(map.range(count - 1).1, u64::MAX);
        }
    }

    #[test]
    fn zero_count_clamps_to_one() {
        let map = ShardMap::new(0);
        assert_eq!(map.count(), 1);
        assert_eq!(map.range(0), (0, u64::MAX));
    }

    #[test]
    fn ca_address_lands_in_last_shard() {
        // the security sim parks its CA at u64::MAX, outside the ring
        // population; it must still have exactly one owner
        for count in [1usize, 2, 4, 8] {
            let map = ShardMap::new(count);
            assert_eq!(map.shard_of(NodeId(u64::MAX)), count - 1);
        }
    }

    #[test]
    fn balanced_partition() {
        // contiguous ranges should be near-equal in width
        let map = ShardMap::new(8);
        let widths: Vec<u128> = (0..8)
            .map(|s| {
                let (lo, hi) = map.range(s);
                u128::from(hi) - u128::from(lo) + 1
            })
            .collect();
        let min = widths.iter().min().unwrap();
        let max = widths.iter().max().unwrap();
        assert!(max - min <= 1, "ranges differ by more than one id");
    }

    #[test]
    fn bus_parks_and_flushes_in_lane_order() {
        let mut bus: CrossShardBus<&str> = CrossShardBus::new(3);
        assert!(bus.is_empty());
        bus.park(
            2,
            Envelope {
                at: SimTime::from_millis(30),
                seq: 5,
                header: FrameHeader {
                    from: NodeId(1),
                    to: NodeId(9),
                },
                msg: "b",
            },
        );
        bus.park(
            0,
            Envelope {
                at: SimTime::from_millis(10),
                seq: 6,
                header: FrameHeader {
                    from: NodeId(2),
                    to: NodeId(3),
                },
                msg: "a",
            },
        );
        assert_eq!(bus.len(), 2);
        let mut seen = Vec::new();
        bus.flush(|dest, e| seen.push((dest, e.msg, e.seq)));
        assert_eq!(seen, vec![(0, "a", 6), (2, "b", 5)]);
        assert!(bus.is_empty());
    }
}
