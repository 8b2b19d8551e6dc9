//! Initiator anonymity H(I) for Octopus (paper §6.2, Eqs. 2–7).
//!
//! Monte-Carlo over the adversary's observations. Per trial:
//!
//! 1. With probability `f` the target is malicious and therefore
//!    *observed* (a node knows when it is a lookup target, §6.1); when T
//!    is unobserved the adversary learns nothing that links anyone
//!    (Eq. 3: `H = log₂((1−f)N)`).
//! 2. When T is observed, each query of the lookup may be observed
//!    (queried node Eᵢ or exit relay Dᵢ malicious) and *linkable to I*
//!    (compromised-bridge A+Cᵢ, or walk-linkability of the pair —
//!    approximated as f², both pair relays compromised). Queries
//!    linkable to the shared relay B become linkable transitively once
//!    any one of them is (§6.1).
//! 3. With no linkable real query, Eq. 5 mixes over whether I was
//!    observed at all; with linkable queries, Eq. 6/7 weight every
//!    concurrent lookup by ξ(minimum observed distance to T).

use octopus_sim::derive_rng;
use rand::Rng;

use crate::presim::LookupPresim;
use crate::AnonymityConfig;

/// Per-query observation sample for one lookup.
pub(crate) struct QueryObs {
    /// Node-index distance of the queried node to the target.
    pub dist: usize,
    /// Linkable to the initiator.
    pub linkable: bool,
    /// Linkable to the shared relay B.
    pub b_linkable: bool,
}

/// Sample the observation pattern of one Octopus lookup.
pub(crate) fn sample_lookup_obs<R: Rng + ?Sized>(
    trace: &[usize],
    f: f64,
    rng: &mut R,
) -> Vec<QueryObs> {
    let a_mal = rng.gen::<f64>() < f;
    let b_mal = rng.gen::<f64>() < f;
    let mut obs: Vec<QueryObs> = trace
        .iter()
        .map(|&dist| {
            let ci_mal = rng.gen::<f64>() < f;
            let di_mal = rng.gen::<f64>() < f;
            let ei_mal = rng.gen::<f64>() < f;
            let observed = ei_mal || di_mal;
            // bridge to I through A—Cᵢ, or the pair's selection walk was
            // itself compromised end-to-end (≈ f²)
            let walk_linked = di_mal && rng.gen::<f64>() < f * f;
            let linkable = observed && ((a_mal && ci_mal) || walk_linked);
            let b_linkable = observed && b_mal && ci_mal;
            QueryObs {
                dist,
                linkable,
                b_linkable,
            }
        })
        .collect();
    // §6.1: if any query is linkable to both I and B, every query
    // linkable to B becomes linkable to I
    if obs.iter().any(|q| q.linkable && q.b_linkable) {
        for q in &mut obs {
            if q.b_linkable {
                q.linkable = true;
            }
        }
    }
    obs
}

/// Probability one query of a random lookup is linkable to its initiator
/// (used to size Ψˡ, the set of concurrent lookups with linkable
/// queries).
pub(crate) fn linkable_query_prob(f: f64) -> f64 {
    let observed = 1.0 - (1.0 - f) * (1.0 - f);
    observed * (f * f + f * f * f - f * f * f * f).max(f * f * (1.0 - 0.5 * f))
}

/// Compute H(I) in bits.
#[must_use]
pub fn initiator_entropy(cfg: &AnonymityConfig, presim: &LookupPresim) -> f64 {
    let mut rng = derive_rng(cfg.seed, b"h_i", cfg.dummies as u64);
    let f = cfg.f;
    let mut total = 0.0;
    let q_link = linkable_query_prob(f);
    for _ in 0..cfg.trials {
        // 1. is the target observed?
        if rng.gen::<f64>() >= f {
            total += cfg.honest_entropy(); // Eq. 3
            continue;
        }
        // 2. observation pattern of ψ_T
        let trace = presim.sample_trace(&mut rng);
        let obs = sample_lookup_obs(trace, f, &mut rng);
        let linkable: Vec<&QueryObs> = obs.iter().filter(|q| q.linkable).collect();
        if linkable.is_empty() {
            // Eq. 5: no linkable query — I may still be observed as *an*
            // initiator somewhere (entering relay A, or its walks)
            let p_i_obs = f + (1.0 - f) * f * f;
            let observed_honest_initiators =
                (cfg.concurrent_lookups() as f64 * (1.0 - f) * p_i_obs).max(1.0);
            total += p_i_obs * observed_honest_initiators.log2()
                + (1.0 - p_i_obs) * cfg.honest_entropy();
            continue;
        }
        // Eq. 6/7: weight concurrent lookups by ξ(min linkable distance)
        let own_min = linkable.iter().map(|q| q.dist).min().expect("non-empty");
        let mut weights = vec![presim.xi_weight(own_min).max(1e-12)];
        let p_lookup_linkable = 1.0 - (1.0 - q_link).powf(presim.mean_hops);
        for _ in 1..cfg.concurrent_lookups() {
            if rng.gen::<f64>() < p_lookup_linkable {
                // another lookup's linkable queries sit at an unrelated
                // ring position relative to T
                let d = rng.gen_range(0..cfg.n);
                weights.push(presim.xi_weight(d).max(1e-12));
            }
        }
        total += octopus_metrics::entropy_bits(&weights);
    }
    total / cfg.trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presim::PresimConfig;

    fn presim() -> LookupPresim {
        LookupPresim::run(PresimConfig {
            n: 5000,
            samples: 400,
            seed: 2,
        })
    }

    fn cfg(f: f64, dummies: usize) -> AnonymityConfig {
        AnonymityConfig {
            n: 5000,
            f,
            alpha: 0.01,
            dummies,
            trials: 300,
            seed: 9,
        }
    }

    #[test]
    fn near_ideal_at_zero_adversary() {
        let p = presim();
        let c = cfg(0.0, 6);
        let h = initiator_entropy(&c, &p);
        assert!(
            (h - c.ideal_entropy()).abs() < 0.2,
            "no adversary → no leak ({h} vs {})",
            c.ideal_entropy()
        );
    }

    #[test]
    fn leak_grows_with_f_but_stays_small() {
        let p = presim();
        let h10 = initiator_entropy(&cfg(0.10, 6), &p);
        let h20 = initiator_entropy(&cfg(0.20, 6), &p);
        assert!(
            h20 <= h10 + 0.05,
            "more adversaries leak more ({h10} → {h20})"
        );
        let leak = cfg(0.20, 6).ideal_entropy() - h20;
        assert!(leak < 2.5, "Octopus H(I) leak must stay small (got {leak})");
    }

    #[test]
    fn linkable_prob_monotone() {
        assert!(linkable_query_prob(0.2) > linkable_query_prob(0.1));
        assert!(linkable_query_prob(0.0) == 0.0);
    }
}
