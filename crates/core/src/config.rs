//! Octopus protocol parameters (defaults from paper §5.1 and §7).

use octopus_chord::ChordConfig;
use octopus_sim::Duration;

/// Parameters of an Octopus deployment.
#[derive(Clone, Copy, Debug)]
pub struct OctopusConfig {
    /// Underlying Chord ring parameters.
    pub chord: ChordConfig,
    /// Dummy queries injected per lookup (§4.2; 2 or 6 in Fig. 5).
    pub dummy_queries: usize,
    /// Successor/predecessor stabilization period (2 s in §5.1).
    pub stabilize_every: Duration,
    /// Finger-update lookup period (30 s in §5.1).
    pub finger_update_every: Duration,
    /// Secret neighbor + finger surveillance period (60 s in §5.1).
    pub surveillance_every: Duration,
    /// Random walk period for relay selection (15 s in §5.1).
    pub walk_every: Duration,
    /// Application lookup period (one lookup per minute per node, §5.1).
    pub lookup_every: Duration,
    /// Maximum random delay added by the middle relay B to defeat timing
    /// analysis (100 ms in §7).
    pub relay_max_delay: Duration,
    /// Request timeout before a peer is treated as unresponsive.
    pub request_timeout: Duration,
    /// Emit `octopus_spec::ModelEvent`s for the reference model. Off
    /// by default: tracing is a test-only observation channel and costs
    /// one control per protocol decision.
    pub trace: bool,
}

impl Default for OctopusConfig {
    fn default() -> Self {
        OctopusConfig {
            chord: ChordConfig::default(),
            dummy_queries: 6,
            stabilize_every: Duration::from_secs(2),
            finger_update_every: Duration::from_secs(30),
            surveillance_every: Duration::from_secs(60),
            walk_every: Duration::from_secs(15),
            lookup_every: Duration::from_secs(60),
            relay_max_delay: Duration::from_millis(100),
            // comfortably above the worst-case anonymous path RTT
            // (12 hops × max one-way latency + relay delay ≈ 5.5 s), so a
            // timeout really means a drop or a death, never a slow path —
            // a false Dropper report would send the CA after honest relays
            request_timeout: Duration::from_secs(10),
            trace: false,
        }
    }
}

impl OctopusConfig {
    /// A configuration scaled for a network of `n` nodes.
    #[must_use]
    pub fn for_network(n: usize) -> Self {
        OctopusConfig {
            chord: ChordConfig::for_network(n),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = OctopusConfig::default();
        assert_eq!(c.stabilize_every, Duration::from_secs(2));
        assert_eq!(c.finger_update_every, Duration::from_secs(30));
        assert_eq!(c.surveillance_every, Duration::from_secs(60));
        assert_eq!(c.walk_every, Duration::from_secs(15));
        assert_eq!(c.dummy_queries, 6);
        assert_eq!(c.relay_max_delay, Duration::from_millis(100));
    }

    #[test]
    fn for_network_scales_chord() {
        let c = OctopusConfig::for_network(100_000);
        assert!(c.chord.fingers > 12);
    }
}
