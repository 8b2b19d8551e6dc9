//! Target anonymity H(T) for Octopus (paper Appendix III, Eqs. 8–21).
//!
//! Monte-Carlo per trial:
//!
//! 1. The adversary must observe the initiator first (Eq. 8's `on`
//!    class): unobserved I → maximum entropy `log₂ N`.
//! 2. With linkable queries (class `Ol`), the adversary runs the
//!    range-estimation attack — but dummy queries contaminate the
//!    observation: every subset of the linkable queries that passes the
//!    temporal/positional filtering rules is a candidate basis for the
//!    range, and only one of them is the true `Rˡ_I`. The posterior
//!    spreads over all surviving ranges (Eqs. 11–13).
//! 3. With no linkable query (class `Od`), observations cannot be
//!    grouped; the entropy is near `Hm` (Eq. 10), the mix over "target
//!    is one of the observed malicious targets" vs "any honest node".

use std::collections::BTreeMap;

use octopus_sim::derive_rng;
use rand::Rng;

use crate::initiator::sample_lookup_obs;
use crate::presim::LookupPresim;
use crate::range::estimate_range;
use crate::AnonymityConfig;

/// One linkable observation: position and (hidden) dummy flag, plus the
/// observation's apparent time.
struct LinkObs {
    dist: usize,
    dummy: bool,
    time: f64,
}

/// Eq. 10: entropy when linkable queries carry no target information.
fn h_m(cfg: &AnonymityConfig) -> f64 {
    let mal_targets = (cfg.alpha * cfg.n as f64 * cfg.f).max(1.0);
    (1.0 - cfg.f) * cfg.honest_entropy() + cfg.f * mal_targets.log2()
}

/// Compute H(T) in bits.
#[must_use]
pub fn target_entropy(cfg: &AnonymityConfig, presim: &LookupPresim) -> f64 {
    let mut rng = derive_rng(cfg.seed, b"h_t", cfg.dummies as u64);
    let f = cfg.f;
    let mut total = 0.0;
    for _ in 0..cfg.trials {
        // 1. precondition: the initiator must be observed
        let p_i_obs = f + (1.0 - f) * f * f;
        if rng.gen::<f64>() >= p_i_obs {
            total += (cfg.n as f64).log2();
            continue;
        }
        // 2. observations of ψ_I: real queries plus dummies
        let trace = presim.sample_trace(&mut rng);
        let obs = sample_lookup_obs(trace, f, &mut rng);
        let mut linkable: Vec<LinkObs> = obs
            .iter()
            .enumerate()
            .filter(|(_, q)| q.linkable)
            .map(|(i, q)| LinkObs {
                dist: q.dist,
                dummy: false,
                time: i as f64,
            })
            .collect();
        // dummy queries go to random plausible positions over their own
        // anonymous paths, at arbitrary times within the lookup (§4.2)
        for _ in 0..cfg.dummies {
            let d_obs = sample_lookup_obs(&[rng.gen_range(0..cfg.n)], f, &mut rng);
            if d_obs[0].linkable {
                linkable.push(LinkObs {
                    dist: d_obs[0].dist,
                    dummy: true,
                    time: rng.gen::<f64>() * trace.len().max(1) as f64,
                });
            }
        }
        let real_count = linkable.iter().filter(|o| !o.dummy).count();
        if linkable.is_empty() || real_count == 0 {
            // class Od / all-dummies (Eq. 9's Rˡ_I = ∅ branch)
            total += h_m(cfg);
            continue;
        }
        // 3. range estimation over every filter-surviving subset
        total += subset_range_entropy(cfg, presim, &linkable);
    }
    total / cfg.trials as f64
}

/// Enumerate subsets of the linkable observations that pass Appendix
/// III's filtering rules and spread the posterior over their estimation
/// ranges.
fn subset_range_entropy(cfg: &AnonymityConfig, presim: &LookupPresim, obs: &[LinkObs]) -> f64 {
    let m = obs.len().min(10); // 2^10 subsets at most
    let mut node_probs: BTreeMap<usize, f64> = BTreeMap::new();
    let mut passing = 0u32;
    for mask in 1u32..(1 << m) {
        let subset: Vec<&LinkObs> = (0..m)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &obs[i])
            .collect();
        // filtering rule: ordered by time, positions must strictly
        // approach the target (distances strictly decreasing) — the
        // signature of a real greedy lookup
        let mut by_time: Vec<&&LinkObs> = subset.iter().collect();
        by_time.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("no NaN"));
        let approaches = by_time.windows(2).all(|w| w[1].dist < w[0].dist);
        if !approaches {
            continue;
        }
        passing += 1;
        let dists: Vec<usize> = subset.iter().map(|o| o.dist).collect();
        if let Some(range) = estimate_range(&dists, presim.mean_hops) {
            let closest = *dists.iter().min().expect("non-empty");
            let width = range.width.min(cfg.n);
            for i in 0..width.min(256) {
                // node at position i past the closest observed query;
                // key candidates indexed relative to the true target:
                // candidate index = (closest - 1 - i) behind the target
                let pos = (closest as i64 - 1 - i as i64).rem_euclid(cfg.n as i64) as usize;
                *node_probs.entry(pos).or_default() += presim.gamma(i, width);
            }
        }
    }
    if passing == 0 || node_probs.is_empty() {
        return h_m(cfg);
    }
    // in key order, so `entropy_bits` sums the floats in one order
    let probs: Vec<f64> = node_probs.values().copied().collect();
    octopus_metrics::entropy_bits(&probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presim::PresimConfig;

    fn presim() -> LookupPresim {
        LookupPresim::run(PresimConfig {
            n: 5000,
            samples: 400,
            seed: 3,
        })
    }

    fn cfg(f: f64, dummies: usize) -> AnonymityConfig {
        AnonymityConfig {
            n: 5000,
            f,
            alpha: 0.01,
            dummies,
            trials: 300,
            seed: 10,
        }
    }

    #[test]
    fn near_ideal_without_adversary() {
        let p = presim();
        let c = cfg(0.0, 6);
        let h = target_entropy(&c, &p);
        assert!((h - c.ideal_entropy()).abs() < 0.2, "got {h}");
    }

    #[test]
    fn dummies_improve_target_anonymity() {
        // §6.3: "The anonymity grows with more added dummy queries."
        let p = presim();
        let h0 = target_entropy(&cfg(0.2, 0), &p);
        let h6 = target_entropy(&cfg(0.2, 6), &p);
        assert!(
            h6 >= h0 - 0.05,
            "dummies must not hurt target anonymity ({h0} → {h6})"
        );
    }

    /// H(T) sums the posterior's node probabilities. Each call builds
    /// its map afresh, so two calls agree bit for bit only when that
    /// sum's order does not hang on the map's layout.
    #[test]
    fn h_t_is_bit_identical_across_calls() {
        let p = presim();
        let c = cfg(0.2, 6);
        let obs: Vec<LinkObs> = [
            (2400, false, 0.0),
            (900, false, 1.0),
            (310, false, 2.0),
            (95, false, 3.0),
            (40, false, 4.0),
            (700, true, 2.5),
            (60, true, 3.5),
        ]
        .into_iter()
        .map(|(dist, dummy, time)| LinkObs { dist, dummy, time })
        .collect();
        let first = subset_range_entropy(&c, &p, &obs).to_bits();
        for _ in 0..8 {
            assert_eq!(subset_range_entropy(&c, &p, &obs).to_bits(), first);
        }
        assert_eq!(
            target_entropy(&c, &p).to_bits(),
            target_entropy(&c, &p).to_bits()
        );
    }

    #[test]
    fn leak_bounded() {
        let p = presim();
        let c = cfg(0.2, 6);
        let h = target_entropy(&c, &p);
        let leak = c.ideal_entropy() - h;
        assert!(leak < 3.0, "Octopus H(T) leak must stay small (got {leak})");
        assert!(leak >= 0.0);
    }
}
