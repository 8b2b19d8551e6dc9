//! NISAN-style fingertable bound checking.
//!
//! Octopus' lightweight random-walk defense (§4.1): *"like NISAN, the
//! initiator applies bound checking on the fingertables returned by
//! intermediate nodes of the random walk to limit fingertable
//! manipulation."* The idea: in a ring of `N` uniformly distributed
//! nodes, the first node succeeding a finger target is, with high
//! probability, within a few multiples of the mean node spacing. A
//! returned finger lying much farther past its ideal target than that —
//! or *preceding* the target — is evidence of manipulation.
//!
//! Bound checking is "merely a moderate defense" (§2): an adversary can
//! substitute colluders that happen to fall inside the bound. The strong
//! defense is secret finger surveillance (`octopus-core`).

use octopus_id::NodeId;

use crate::config::ChordConfig;
use crate::table::RoutingTable;

/// Verdict for one finger entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FingerVerdict {
    /// Within the plausibility bound.
    Plausible,
    /// The finger *precedes* its ideal target — always invalid.
    PrecedesTarget,
    /// The finger overshoots the target by more than the bound.
    TooFar,
}

/// Bound checker calibrated from a local density estimate.
#[derive(Clone, Copy, Debug)]
pub struct BoundChecker {
    config: ChordConfig,
    /// Estimated mean spacing between adjacent nodes on the ring.
    mean_spacing: u64,
    /// Slack multiplier β: a finger may overshoot its target by at most
    /// `β · mean_spacing`.
    beta: f64,
}

impl BoundChecker {
    /// Default slack β = 16: with uniform ids the overshoot is
    /// Exp(mean_spacing), so P(overshoot > 16·mean) ≈ e⁻¹⁶ — honest
    /// fingers essentially never fail while gross manipulation is caught.
    pub const DEFAULT_BETA: f64 = 16.0;

    /// Build a checker from one's own successor list — the same local
    /// information NISAN uses for its density estimate. The spacing
    /// estimate is the mean clockwise gap across the list.
    #[must_use]
    pub fn from_successor_list(config: ChordConfig, own: NodeId, successors: &[NodeId]) -> Self {
        let mean_spacing = if successors.is_empty() {
            u64::MAX / 2 // no information: accept almost anything
        } else {
            let span = own.distance_to(*successors.last().expect("non-empty"));
            (span / successors.len() as u64).max(1)
        };
        BoundChecker {
            config,
            mean_spacing,
            beta: Self::DEFAULT_BETA,
        }
    }

    /// The estimated mean node spacing.
    #[must_use]
    pub fn mean_spacing(&self) -> u64 {
        self.mean_spacing
    }

    /// Check one finger of `owner` at index `i`.
    #[must_use]
    pub fn check_finger(&self, owner: NodeId, i: u32, finger: NodeId) -> FingerVerdict {
        let target = self.config.finger_target(owner, i);
        let overshoot = target.distance_to_node(finger);
        // a finger exactly at the target is valid (overshoot 0); one that
        // "precedes" shows up as a huge clockwise overshoot beyond the
        // finger span itself
        let span = 1u64 << self.config.finger_bit(i);
        if overshoot > span.saturating_add(span) && overshoot > self.bound() {
            // far beyond the next finger's region going clockwise means it
            // actually precedes the target
            return FingerVerdict::PrecedesTarget;
        }
        if overshoot > self.bound() {
            return FingerVerdict::TooFar;
        }
        FingerVerdict::Plausible
    }

    /// Check an entire routing table; returns the indices of implausible
    /// fingers.
    #[must_use]
    pub fn check_table(&self, table: &RoutingTable) -> Vec<(u32, FingerVerdict)> {
        let mut bad = Vec::new();
        for (i, &f) in table.fingers.iter().enumerate() {
            let i = i as u32;
            if i >= self.config.fingers {
                break;
            }
            let v = self.check_finger(table.owner, i, f);
            if v != FingerVerdict::Plausible {
                bad.push((i, v));
            }
        }
        bad
    }

    /// Does the whole table pass?
    #[must_use]
    pub fn passes(&self, table: &RoutingTable) -> bool {
        self.check_table(table).is_empty()
    }

    fn bound(&self) -> u64 {
        let b = self.mean_spacing as f64 * self.beta;
        if b >= u64::MAX as f64 {
            u64::MAX
        } else {
            b as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{GroundTruthView, RoutingView};
    use octopus_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (IdSpace, ChordConfig) {
        let mut rng = StdRng::seed_from_u64(42);
        let space = IdSpace::random(1000, &mut rng);
        (space, ChordConfig::for_network(1000))
    }

    /// A checker that knows the true mean spacing of `n` uniform ids.
    fn from_network_size(config: ChordConfig, n: usize) -> BoundChecker {
        BoundChecker {
            config,
            mean_spacing: u64::MAX / n as u64,
            beta: BoundChecker::DEFAULT_BETA,
        }
    }

    #[test]
    fn honest_tables_pass() {
        let (space, cfg) = setup();
        let view = GroundTruthView::new(&space, cfg);
        let checker = from_network_size(cfg, space.len());
        let mut failures = 0;
        for &n in space.ids().iter().take(200) {
            if !checker.passes(&view.table_of(n)) {
                failures += 1;
            }
        }
        assert!(
            failures <= 2,
            "honest tables should essentially always pass ({failures}/200 failed)"
        );
    }

    #[test]
    fn local_density_estimate_close_to_truth() {
        let (space, cfg) = setup();
        let own = space.ids()[0];
        let sl = space.successor_list(own, 6);
        let checker = BoundChecker::from_successor_list(cfg, own, &sl);
        let truth = u64::MAX / 1000;
        let est = checker.mean_spacing();
        // within an order of magnitude is plenty for a β=16 bound
        assert!(
            est > truth / 10 && est < truth.saturating_mul(10),
            "estimate {est} vs {truth}"
        );
    }

    #[test]
    fn distant_colluder_caught() {
        let (space, cfg) = setup();
        let view = GroundTruthView::new(&space, cfg);
        let checker = from_network_size(cfg, space.len());
        let owner = space.ids()[0];
        let mut table = view.table_of(owner);
        // replace the longest finger with a node a quarter-span past the
        // target: ~128 mean spacings with N=1000, far beyond the β=16 bound
        let i = cfg.fingers - 1;
        let target = cfg.finger_target(owner, i);
        let span = 1u64 << cfg.finger_bit(i);
        let fake = NodeId(target.0.wrapping_add(span / 4));
        table.fingers[i as usize] = fake;
        let bad = checker.check_table(&table);
        assert!(
            bad.iter().any(|&(j, _)| j == i),
            "manipulated finger must fail"
        );
    }

    #[test]
    fn preceding_finger_caught() {
        let (space, cfg) = setup();
        let view = GroundTruthView::new(&space, cfg);
        let checker = from_network_size(cfg, space.len());
        let owner = space.ids()[0];
        let mut table = view.table_of(owner);
        // a "finger" sitting just before its own target wraps nearly the
        // whole ring in clockwise overshoot
        let target = cfg.finger_target(owner, 5);
        table.fingers[5] = NodeId(target.0.wrapping_sub(1000));
        let bad = checker.check_table(&table);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 5);
    }

    #[test]
    fn nearby_colluder_evades() {
        // the documented limitation: a colluder within the bound passes
        let (space, cfg) = setup();
        let view = GroundTruthView::new(&space, cfg);
        let checker = from_network_size(cfg, space.len());
        let owner = space.ids()[0];
        let mut table = view.table_of(owner);
        let target = cfg.finger_target(owner, 3);
        // a colluder 2 mean-spacings past the target: plausible
        table.fingers[3] = NodeId(target.0.wrapping_add(2 * (u64::MAX / 1000)));
        assert!(
            checker.passes(&table),
            "bound checking is only a moderate defense"
        );
    }

    #[test]
    fn empty_successor_list_is_permissive() {
        let cfg = ChordConfig::default();
        let checker = BoundChecker::from_successor_list(cfg, NodeId(0), &[]);
        assert!(checker.mean_spacing() > u64::MAX / 4);
    }
}
