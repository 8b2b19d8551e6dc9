//! Entropy-based anonymity analysis (paper §6 and Appendices).
//!
//! The paper quantifies anonymity as Shannon entropy over the
//! adversary's posterior: `H(I) = Σ P(o)·H(I|o)` (Eq. 1), computed "using
//! probabilistic modeling with the help of simulation". This crate
//! reproduces that methodology:
//!
//! * [`presim`] — pre-simulations of the lookup on a large ring,
//!   producing the query-position distributions the paper calls ξ, γ and
//!   χ ("obtained via pre-simulations of the lookup").
//! * [`range`] — the range-estimation attack of \[38\] (Appendix III):
//!   bounding the target between the last observed query and the
//!   greedy-lookup upper bound.
//! * [`initiator`] / [`target`] — Monte-Carlo evaluation of H(I) (§6.2)
//!   and H(T) (Appendix III) for Octopus, with split queries over
//!   multiple anonymous paths and dummy queries.
//! * [`comparison`] — the same quantities for Chord, NISAN and Torsk
//!   under their respective observation models (Figs. 5(b)/6).
//! * [`timing`] — the end-to-end timing-analysis attack of §4.7
//!   (Table 1).
//!
//! Modeling notes (see ARCHITECTURE.md, "Modelling substitutions"):
//! relay compromise is sampled i.i.d. with probability `f`; random-walk
//! linkability of a relay to its initiator is approximated as `f²` (both
//! hops of the pair observed); the dummy-filtering of Appendix III is
//! evaluated by enumerating subsets of the (small) observed query set
//! against the paper's two ordering rules. Absolute bit counts therefore differ from the paper's
//! (whose exact estimator is not fully specified), but the comparisons —
//! who leaks more, and by roughly what factor — are preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
pub mod initiator;
pub mod presim;
pub mod range;
pub mod target;
pub mod timing;

pub use comparison::{chord_entropies, nisan_entropies, torsk_entropies, SchemeEntropies};
pub use initiator::initiator_entropy;
pub use presim::{LookupPresim, PresimConfig};
pub use range::{estimate_range, RangeEstimate};
pub use target::target_entropy;
pub use timing::{timing_attack_error_rate, TimingConfig};

/// Common parameters for the anonymity Monte Carlo.
#[derive(Clone, Copy, Debug)]
pub struct AnonymityConfig {
    /// Network size (100 000 in §6).
    pub n: usize,
    /// Fraction of malicious nodes.
    pub f: f64,
    /// Concurrent lookup rate α (fraction of nodes looking up at once).
    pub alpha: f64,
    /// Dummy queries per lookup.
    pub dummies: usize,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for AnonymityConfig {
    fn default() -> Self {
        AnonymityConfig {
            n: 100_000,
            f: 0.2,
            alpha: 0.01,
            dummies: 6,
            trials: 400,
            seed: 42,
        }
    }
}

impl AnonymityConfig {
    /// The ideal entropy `log₂ N` (the "Ideal entropy" line of Fig. 5).
    #[must_use]
    pub fn ideal_entropy(&self) -> f64 {
        (self.n as f64).log2()
    }

    /// Entropy of the honest-node anonymity set, `log₂((1−f)·N)`.
    #[must_use]
    pub fn honest_entropy(&self) -> f64 {
        ((1.0 - self.f) * self.n as f64).max(1.0).log2()
    }

    /// Number of concurrent lookups.
    #[must_use]
    pub fn concurrent_lookups(&self) -> usize {
        ((self.alpha * self.n as f64).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_entropy_matches_paper_scale() {
        let cfg = AnonymityConfig::default();
        assert!((cfg.ideal_entropy() - 16.61).abs() < 0.01);
        assert!((cfg.honest_entropy() - 16.28).abs() < 0.01);
        assert_eq!(cfg.concurrent_lookups(), 1000);
    }
}
