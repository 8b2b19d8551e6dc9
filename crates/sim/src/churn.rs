//! The churn model of paper §5.1.
//!
//! Node lifetimes follow an exponential distribution
//! `f(x) = λ⁻¹·e^(−x/λ)` with mean lifetime λ (the paper writes the
//! density with rate 1/λ; λ = 60 min or 10 min in Table 2). When a node
//! dies, a replacement joins after an exponentially distributed offline
//! gap, keeping the long-run population stable — the paper's Table 2
//! varies λ to stress the identification mechanisms under frequent churn.

use rand::Rng;

use crate::time::Duration;

/// Mean offline gap before a dead node's replacement joins. §5.1 gives
/// none; against Table 2's 10 and 60 min lifetimes, 30 s keeps about
/// 5 % and 1 % of the population offline.
const MEAN_OFFLINE: Duration = Duration::from_secs(30);

/// Samples node lifetimes and offline gaps.
#[derive(Clone, Debug)]
pub struct ChurnProcess {
    mean_lifetime: Duration,
}

impl ChurnProcess {
    /// Churn with the given mean lifetime.
    #[must_use]
    pub fn new(mean_lifetime: Duration) -> Self {
        ChurnProcess { mean_lifetime }
    }

    /// Churn disabled: nodes never die.
    #[must_use]
    pub fn disabled() -> Self {
        ChurnProcess {
            mean_lifetime: Duration(u64::MAX),
        }
    }

    /// Is churn active?
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.mean_lifetime.0 != u64::MAX
    }

    /// Mean lifetime λ.
    #[must_use]
    pub fn mean_lifetime(&self) -> Duration {
        self.mean_lifetime
    }

    /// Sample a node lifetime.
    pub fn sample_lifetime<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        if !self.is_enabled() {
            return Duration(u64::MAX);
        }
        sample_exponential(self.mean_lifetime, rng)
    }

    /// Sample how long a replacement waits before joining (no wait
    /// when churn is disabled).
    pub fn sample_offline<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        if !self.is_enabled() {
            return Duration::ZERO;
        }
        sample_exponential(MEAN_OFFLINE, rng)
    }
}

/// Draw from Exp(mean) by inversion sampling.
fn sample_exponential<R: Rng + ?Sized>(mean: Duration, rng: &mut R) -> Duration {
    // u ∈ (0,1]; -ln(u) ~ Exp(1)
    let u: f64 = 1.0 - rng.gen::<f64>();
    let x = -u.ln() * mean.as_secs_f64();
    Duration::from_secs_f64(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_matches_parameter() {
        let mut rng = StdRng::seed_from_u64(9);
        let churn = ChurnProcess::new(Duration::from_secs(3600));
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| churn.sample_lifetime(&mut rng).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!(
            (mean - 3600.0).abs() < 100.0,
            "empirical mean {mean} too far from 3600"
        );
    }

    #[test]
    fn exponential_memoryless_shape() {
        // P(X > λ) should be ≈ e^{-1} ≈ 0.368
        let mut rng = StdRng::seed_from_u64(10);
        let churn = ChurnProcess::new(Duration::from_secs(600));
        let n = 20_000;
        let over = (0..n)
            .filter(|_| churn.sample_lifetime(&mut rng) > Duration::from_secs(600))
            .count();
        let frac = over as f64 / n as f64;
        assert!((frac - 0.368).abs() < 0.02, "P(X>λ) = {frac}");
    }

    #[test]
    fn disabled_never_dies() {
        let mut rng = StdRng::seed_from_u64(11);
        let churn = ChurnProcess::disabled();
        assert!(!churn.is_enabled());
        assert_eq!(churn.sample_lifetime(&mut rng), Duration(u64::MAX));
        assert_eq!(churn.sample_offline(&mut rng), Duration::ZERO);
    }

    #[test]
    fn offline_gap_sampled() {
        let mut rng = StdRng::seed_from_u64(12);
        let churn = ChurnProcess::new(Duration::from_secs(600));
        let g = churn.sample_offline(&mut rng);
        assert!(g > Duration::ZERO);
    }

    #[test]
    fn samples_are_positive_and_varied() {
        let mut rng = StdRng::seed_from_u64(13);
        let churn = ChurnProcess::new(Duration::from_secs(600));
        let a = churn.sample_lifetime(&mut rng);
        let b = churn.sample_lifetime(&mut rng);
        assert_ne!(a, b);
    }
}
