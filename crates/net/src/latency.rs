//! Pairwise latency models (King-dataset substitute).

use octopus_id::NodeId;
use octopus_sim::Duration;
use rand::Rng;

/// A model of one-way network latency between overlay nodes.
pub trait LatencyModel {
    /// Sample the one-way latency for a packet `from → to`, including
    /// jitter. Deterministic models may ignore `rng`.
    fn sample<R: Rng + ?Sized>(&self, from: NodeId, to: NodeId, rng: &mut R) -> Duration;

    /// The *base* (jitter-free) one-way latency, used by the timing
    /// analysis attack which compares upstream and downstream latencies
    /// (paper §4.7).
    fn base(&self, from: NodeId, to: NodeId) -> Duration;

    /// A lower bound on every latency [`LatencyModel::sample`] can ever
    /// return, for any pair and any jitter draw.
    ///
    /// This is the *lookahead* of a sharded world: cross-shard messages
    /// sent at time `t` provably arrive no earlier than
    /// `t + min_latency()`, which bounds how far shards may run between
    /// synchronization barriers. The default of zero is always sound
    /// but forces a barrier before every event; override it with the
    /// model's true floor to let shards batch.
    fn min_latency(&self) -> Duration {
        Duration::ZERO
    }
}

/// Fixed latency for unit tests.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLatency(pub Duration);

impl LatencyModel for ConstantLatency {
    fn sample<R: Rng + ?Sized>(&self, _: NodeId, _: NodeId, _: &mut R) -> Duration {
        self.0
    }
    fn base(&self, _: NodeId, _: NodeId) -> Duration {
        self.0
    }
    fn min_latency(&self) -> Duration {
        self.0
    }
}

/// Synthetic King-like latency.
///
/// Each node id is hashed onto a point in a 2-D unit square and given a
/// per-node "access penalty" drawn from a heavy-tailed distribution (the
/// King data mixes well-connected and poorly connected name servers). The
/// base one-way latency `from → to` is
///
/// ```text
/// base = (geo_scale · euclidean(from, to) + penalty(from) + penalty(to)) ms
/// ```
///
/// calibrated so that the mean RTT (2·base) is ≈ 182 ms, matching the
/// published King mean (§5.1 footnote 2). Sampling adds symmetric jitter
/// of up to min(10 ms, 10 % of base), the rule the paper adopts from \[2\].
///
/// The model is deterministic in the node ids, so `base(a,b) == base(b,a)`
/// — the symmetry the end-to-end timing attack exploits — while different
/// pairs get very different latencies (heterogeneity).
#[derive(Clone, Debug)]
pub struct KingLikeLatency {
    seed: u64,
    geo_scale_ms: f64,
    penalty_scale_ms: f64,
}

impl Default for KingLikeLatency {
    fn default() -> Self {
        Self::new(0xD157_AB1E)
    }
}

impl KingLikeLatency {
    /// Model with calibration matching the King mean RTT of ≈ 182 ms.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // E[euclidean distance in unit square] ≈ 0.5214.
        // E[penalty] = penalty_scale · E[lognormal-ish factor] (≈ 1.0 by
        // construction below). Choose scales so
        //   mean one-way ≈ geo_scale·0.5214 + 2·penalty_scale ≈ 91 ms.
        KingLikeLatency {
            seed,
            geo_scale_ms: 105.0,
            penalty_scale_ms: 18.2,
        }
    }

    fn mix(&self, x: u64) -> u64 {
        octopus_sim::split_seed(self.seed, x)
    }

    fn coords(&self, id: NodeId) -> (f64, f64) {
        let h = self.mix(id.0);
        let x = (h >> 32) as f64 / u32::MAX as f64;
        let y = (h & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
        (x, y)
    }

    /// Heavy-tailed per-node access penalty with mean ≈ 1 (then scaled).
    ///
    /// The King data mixes well-connected name servers with a minority
    /// behind very slow links; the tail below (≈10 % of nodes, penalties
    /// up to ≈10×) reproduces the dataset's mean ≪ max structure that
    /// makes Halo's wait-for-all-32 so expensive (Table 3: mean 6.89 s
    /// vs median 1.79 s).
    fn penalty(&self, id: NodeId) -> f64 {
        let h = self.mix(id.0 ^ 0xACCE_55ED);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform (0,1)
        let u = u.clamp(1e-9, 1.0 - 1e-9);
        // mean ≈ 0.35 + 0.20 + 0.10·5 = 1.05
        0.35 + 0.20 * (-(1.0 - u).ln())
            + if u > 0.90 {
                10.0 * (u - 0.90) / 0.10
            } else {
                0.0
            }
    }

    /// Jitter bound for a given base latency: min(10 ms, 10 % of base).
    #[must_use]
    pub fn jitter_bound(base: Duration) -> Duration {
        Duration::from_millis_f64((base.as_millis_f64() * 0.10).min(10.0))
    }

    fn base_ms(&self, a: NodeId, b: NodeId) -> f64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let geo = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        // order-independent so latency is symmetric
        self.geo_scale_ms * geo + self.penalty_scale_ms * (self.penalty(a) + self.penalty(b))
    }
}

impl LatencyModel for KingLikeLatency {
    fn sample<R: Rng + ?Sized>(&self, from: NodeId, to: NodeId, rng: &mut R) -> Duration {
        let base = self.base(from, to);
        let bound = Self::jitter_bound(base).as_millis_f64();
        let jitter = rng.gen_range(-bound..=bound);
        Duration::from_millis_f64((base.as_millis_f64() + jitter).max(0.1))
    }

    fn base(&self, from: NodeId, to: NodeId) -> Duration {
        Duration::from_millis_f64(self.base_ms(from, to).max(0.1))
    }

    /// `sample` clamps every draw to at least 0.1 ms, so that clamp is a
    /// sound floor, but not the exact one: every penalty is at least
    /// 0.35, so every base latency is at least 18.2 × 0.7 = 12.74 ms, and
    /// jitter takes off at most 10 %, so no sample falls below ≈ 11.47 ms.
    /// The 0.1 ms stays: it is the lookahead that decides where
    /// `SecuritySim`'s windows close, and CA revocations apply at window
    /// barriers, so raising it would change the simulator's results.
    fn min_latency(&self) -> Duration {
        Duration::from_millis_f64(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids(n: usize) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(3);
        (0..n).map(|_| NodeId(rng.gen())).collect()
    }

    #[test]
    fn symmetric_base() {
        let m = KingLikeLatency::new(1);
        for w in ids(20).windows(2) {
            assert_eq!(m.base(w[0], w[1]), m.base(w[1], w[0]));
        }
    }

    #[test]
    fn mean_rtt_near_king() {
        let m = KingLikeLatency::new(2);
        let nodes = ids(300);
        let mut total = 0.0;
        let mut count = 0u64;
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                total += 2.0 * m.base(nodes[i], nodes[j]).as_millis_f64();
                count += 1;
            }
        }
        let mean_rtt = total / count as f64;
        assert!(
            (140.0..230.0).contains(&mean_rtt),
            "mean RTT {mean_rtt} ms should be near the King mean of 182 ms"
        );
    }

    #[test]
    fn heterogeneous() {
        let m = KingLikeLatency::new(3);
        let nodes = ids(100);
        let mut lats: Vec<f64> = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                lats.push(m.base(nodes[i], nodes[j]).as_millis_f64());
            }
        }
        let min = lats.iter().cloned().fold(f64::MAX, f64::min);
        let max = lats.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max / min > 4.0,
            "King data is highly heterogeneous (got {min}..{max})"
        );
    }

    #[test]
    fn jitter_within_bound() {
        let m = KingLikeLatency::new(4);
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b) = (NodeId(1), NodeId(2));
        let base = m.base(a, b);
        let bound = KingLikeLatency::jitter_bound(base);
        for _ in 0..200 {
            let s = m.sample(a, b, &mut rng);
            let dev = if s > base { (s - base).0 } else { (base - s).0 };
            assert!(dev <= bound.0 + 1, "jitter exceeded bound");
        }
    }

    #[test]
    fn samples_stay_above_the_penalty_floor() {
        // penalties ≥ 0.35 each: base ≥ 18.2 × 0.7 = 12.74 ms, less at
        // most 10 % jitter
        let m = KingLikeLatency::new(9);
        let mut rng = StdRng::seed_from_u64(11);
        let nodes = ids(60);
        for &a in &nodes {
            for &b in &nodes {
                for _ in 0..4 {
                    let s = m.sample(a, b, &mut rng);
                    assert!(s >= Duration::from_millis_f64(11.4), "{a}→{b}: {s:?}");
                }
            }
        }
    }

    #[test]
    fn jitter_rule_small_latency() {
        // 10% of 40ms = 4ms < 10ms cap
        let b = Duration::from_millis(40);
        assert_eq!(KingLikeLatency::jitter_bound(b), Duration::from_millis(4));
        // 10% of 200ms = 20ms → capped at 10ms
        let b = Duration::from_millis(200);
        assert_eq!(KingLikeLatency::jitter_bound(b), Duration::from_millis(10));
    }

    #[test]
    fn constant_model() {
        let m = ConstantLatency(Duration::from_millis(50));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            m.sample(NodeId(1), NodeId(2), &mut rng),
            Duration::from_millis(50)
        );
        assert_eq!(m.base(NodeId(1), NodeId(2)), Duration::from_millis(50));
    }

    #[test]
    fn deterministic_across_instances() {
        let m1 = KingLikeLatency::new(7);
        let m2 = KingLikeLatency::new(7);
        assert_eq!(
            m1.base(NodeId(10), NodeId(20)),
            m2.base(NodeId(10), NodeId(20))
        );
    }
}
