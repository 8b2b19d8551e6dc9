//! Parallel multi-trial simulation driver.
//!
//! The paper's figures average independent seeded runs; a parameter
//! sweep multiplies that by every grid point. Each [`SecuritySim`] is
//! single-threaded and deterministic, so trials are embarrassingly
//! parallel: [`TrialRunner`] fans a batch of [`SimConfig`]s across
//! scoped OS threads and collects the [`SimReport`]s in *submission
//! order*, so results — including [`TrialRunner::run_sweep`] folds —
//! are bit-identical no matter how many threads run them or how the OS
//! schedules completion.

use octopus_metrics::Accumulator;
use octopus_sim::split_seed;

use crate::simnet::{SecuritySim, SimConfig, SimReport};

/// Fans independent simulation trials across worker threads.
///
/// ```
/// use octopus_core::{SimConfig, TrialRunner};
/// use octopus_sim::Duration;
///
/// let base = SimConfig {
///     n: 30,
///     duration: Duration::from_secs(10),
///     octopus: octopus_core::OctopusConfig::for_network(30),
///     ..SimConfig::default()
/// };
/// // one point, two seeded trials, fanned across two threads, merged
/// // in submission order — identical to a 1-thread run
/// let merged = TrialRunner::new(2).run_sweep(&[base], 2);
/// assert_eq!(merged[0].trials, 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TrialRunner {
    threads: usize,
}

impl TrialRunner {
    /// A runner using `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        TrialRunner {
            threads: threads.max(1),
        }
    }

    /// Worker thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every config (each a full build-and-run of a [`SecuritySim`])
    /// and return the reports in the same order as `configs`.
    ///
    /// Trials are dealt round-robin to `min(threads, configs.len())`
    /// scoped threads; with one thread this degenerates to a plain
    /// sequential loop.
    #[must_use]
    pub fn run(&self, configs: &[SimConfig]) -> Vec<SimReport> {
        let workers = self.threads.min(configs.len()).max(1);
        if workers == 1 {
            return configs
                .iter()
                .map(|cfg| SecuritySim::new(cfg.clone()).run())
                .collect();
        }
        let mut slots: Vec<Option<SimReport>> = Vec::new();
        slots.resize_with(configs.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let assigned: Vec<(usize, SimConfig)> = configs
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, c)| (i, c.clone()))
                        .collect();
                    scope.spawn(move || {
                        assigned
                            .into_iter()
                            .map(|(i, cfg)| (i, SecuritySim::new(cfg).run()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, report) in handle.join().expect("trial worker panicked") {
                    slots[i] = Some(report);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every trial produced a report"))
            .collect()
    }

    /// Run every sweep point — expanded to `trials` (at least 1)
    /// independent seeded trials each, see [`trial_configs`] — through
    /// one [`run`] batch, and return one merged [`SimReport`] per point,
    /// in point order. Points *and* trials share the workers, so a six-point sweep
    /// saturates the machine even at one trial per point.
    ///
    /// [`run`]: TrialRunner::run
    #[must_use]
    pub fn run_sweep(&self, points: &[SimConfig], trials: usize) -> Vec<SimReport> {
        let trials = trials.max(1);
        let configs: Vec<SimConfig> = points
            .iter()
            .flat_map(|p| trial_configs(p, trials))
            .collect();
        let mut reports = self.run(&configs).into_iter();
        points
            .iter()
            .map(|_| {
                reports
                    .by_ref()
                    .take(trials)
                    .collect::<Accumulator<SimReport>>()
                    .into_inner()
                    .expect("at least one trial per sweep point")
            })
            .collect()
    }
}

/// The per-trial configs for `trials` repetitions of `base`: trial 0
/// keeps `base.seed` (so a 1-trial run reproduces a plain
/// `SecuritySim::new(base).run()` exactly), later trials derive
/// statistically independent master seeds from it.
#[must_use]
pub fn trial_configs(base: &SimConfig, trials: usize) -> Vec<SimConfig> {
    (0..trials)
        .map(|t| {
            let mut cfg = base.clone();
            if t > 0 {
                cfg.seed = split_seed(base.seed, 0x7121_A15E ^ t as u64);
            }
            cfg
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_configs_vary_only_the_seed() {
        let base = SimConfig::default();
        let cfgs = trial_configs(&base, 3);
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[0].seed, base.seed, "trial 0 reproduces the base run");
        assert_ne!(cfgs[1].seed, cfgs[2].seed);
        for c in &cfgs {
            assert_eq!(c.n, base.n);
            assert_eq!(c.duration, base.duration);
        }
    }

    #[test]
    fn runner_clamps_threads() {
        assert_eq!(TrialRunner::new(0).threads(), 1);
        assert_eq!(TrialRunner::new(4).threads(), 4);
    }

    #[test]
    fn empty_batch_merges_to_none() {
        assert!(TrialRunner::new(2).run_sweep(&[], 2).is_empty());
    }

    #[test]
    fn run_sweep_folds_each_point_in_point_order() {
        let points: Vec<SimConfig> = [11, 12, 13]
            .into_iter()
            .map(|seed| SimConfig {
                n: 30,
                duration: octopus_sim::Duration::from_secs(10),
                seed,
                octopus: crate::OctopusConfig::for_network(30),
                ..SimConfig::default()
            })
            .collect();
        let expected: Vec<SimReport> = points
            .iter()
            .map(|p| {
                TrialRunner::new(1)
                    .run(&trial_configs(p, 2))
                    .into_iter()
                    .collect::<Accumulator<SimReport>>()
                    .into_inner()
                    .expect("2 trials")
            })
            .collect();
        assert_ne!(expected[0], expected[1], "points must be distinguishable");
        assert_ne!(expected[1], expected[2], "points must be distinguishable");
        for threads in [1, 3] {
            let swept = TrialRunner::new(threads).run_sweep(&points, 2);
            assert_eq!(swept, expected, "{threads} threads");
            assert!(swept.iter().all(|r| r.trials == 2));
        }
    }
}
