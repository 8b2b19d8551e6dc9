//! Engine-level determinism regressions: the same seeded experiment
//! must produce byte-identical reports across trial-runner thread
//! counts, across world shard counts, and across window execution
//! modes (sequential vs parallel shard threads). These guard the
//! engine's core promise — parallelism and partitioning change speed,
//! never results.
//!
//! CI additionally drives this suite across an `OCTOPUS_SHARDS` ×
//! `OCTOPUS_PAR` matrix (see `determinism_under_env_matrix`), so
//! sequential/parallel equivalence is enforced on every push for every
//! matrix point, not just the combinations hard-coded below.

use octopus_core::{trial_configs, AttackKind, OctopusConfig, SecuritySim, SimConfig, TrialRunner};
use octopus_sim::Duration;

fn small(seed: u64) -> SimConfig {
    SimConfig {
        n: 60,
        malicious_fraction: 0.2,
        attack: AttackKind::LookupBias,
        attack_rate: 1.0,
        duration: Duration::from_secs(45),
        seed,
        octopus: OctopusConfig::for_network(60),
        ..SimConfig::default()
    }
}

/// T trials on 1 thread and the same T trials on 4 threads merge to
/// identical metrics.
#[test]
fn trial_runner_merge_is_thread_count_invariant() {
    let configs = trial_configs(&small(23), 4);
    let serial = TrialRunner::new(1).run_merged(&configs).expect("4 trials");
    let parallel = TrialRunner::new(4).run_merged(&configs).expect("4 trials");
    assert_eq!(serial.trials, 4);
    assert_eq!(serial, parallel, "thread count changed merged metrics");
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// A fixed-seed `SecuritySim` produces identical `SimReport`s at 1, 2,
/// and 4 shards: origin-derived `(time, key)` event ordering makes the
/// partition a pure speed/layout knob that can never change results.
#[test]
fn security_sim_identical_across_shard_counts() {
    let report_at = |shards: usize| {
        let cfg = SimConfig {
            shards,
            ..small(17)
        };
        SecuritySim::new(cfg).run()
    };
    let one = report_at(1);
    assert!(
        one.completed_lookups > 0 || one.walks_ok > 0,
        "run must exercise the protocol"
    );
    for shards in [2usize, 4] {
        let sharded = report_at(shards);
        assert_eq!(one, sharded, "{shards}-shard run diverged");
        assert_eq!(format!("{one:?}"), format!("{sharded:?}"));
    }
}

/// The acceptance cube: a fixed-seed `SecuritySim` produces
/// byte-identical `SimReport`s for **every** combination of shard count
/// {1, 2, 4} and execution mode {sequential, parallel windows}. (The
/// name is kept for the test floor; the two scheduler backends are
/// compared in `scheduler_equivalence` and in the world's
/// `identical_on_both_scheduler_backends`, not here.)
#[test]
fn security_sim_identical_across_modes_shards_and_backends() {
    let report_at = |shards: usize, parallel: bool| {
        let cfg = SimConfig {
            shards,
            parallel,
            ..small(17)
        };
        SecuritySim::new(cfg).run()
    };
    let baseline = report_at(1, false);
    assert!(
        baseline.completed_lookups > 0 || baseline.walks_ok > 0,
        "run must exercise the protocol"
    );
    for shards in [1usize, 2, 4] {
        for parallel in [false, true] {
            let probe = report_at(shards, parallel);
            assert_eq!(
                baseline, probe,
                "{shards}-shard parallel={parallel} run diverged"
            );
            assert_eq!(format!("{baseline:?}"), format!("{probe:?}"));
        }
    }
}

/// The persistent worker pool is invisible in results: forcing a
/// 2-thread pool (which single-core CI would otherwise size down to
/// inline execution) reproduces the sequential baseline byte for byte
/// at every shard count.
#[test]
fn pooled_windows_identical_to_sequential_baseline() {
    let baseline = SecuritySim::new(small(17)).run();
    for shards in [2usize, 4] {
        let cfg = SimConfig {
            shards,
            parallel: true,
            pool_threads: 2,
            ..small(17)
        };
        let probe = SecuritySim::new(cfg).run();
        assert_eq!(baseline, probe, "{shards}-shard pooled run diverged");
        assert_eq!(format!("{baseline:?}"), format!("{probe:?}"));
    }
}

/// `TrialRunner::run_mode_sweep` composes the shards × mode grid
/// through one batch, and every grid point matches.
#[test]
fn mode_sweep_grid_is_invariant() {
    let base = small(29);
    let grid = TrialRunner::new(4).run_mode_sweep(&base, &[1, 2], 2);
    assert_eq!(grid.len(), 4);
    assert_eq!(
        grid.iter().map(|&(s, p, _)| (s, p)).collect::<Vec<_>>(),
        vec![(1, false), (1, true), (2, false), (2, true)]
    );
    for (shards, parallel, report) in &grid {
        assert_eq!(report.trials, 2);
        assert_eq!(
            report, &grid[0].2,
            "{shards}-shard parallel={parallel} grid point diverged"
        );
    }
}

/// The CI matrix hook: run the configuration selected by
/// `OCTOPUS_SHARDS` and `OCTOPUS_PAR` (defaulting to the 1-shard
/// sequential engine) against the 1-shard sequential baseline. The CI
/// workflow fans this test across the full env matrix on every push.
#[test]
fn determinism_under_env_matrix() {
    let shards = std::env::var("OCTOPUS_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    let parallel = std::env::var("OCTOPUS_PAR")
        .is_ok_and(|v| matches!(v.as_str(), "1" | "true" | "yes" | "on"));
    let baseline = SecuritySim::new(small(37)).run();
    let probe = SecuritySim::new(SimConfig {
        shards,
        parallel,
        ..small(37)
    })
    .run();
    assert_eq!(
        baseline, probe,
        "{shards}-shard parallel={parallel} env-matrix run diverged from the sequential baseline"
    );
}

/// Per-trial reports also come back in submission order regardless of
/// worker count, and a 1-trial merged run reproduces the plain run.
#[test]
fn trial_runner_preserves_order_and_base_seed() {
    let configs = trial_configs(&small(31), 3);
    let one = TrialRunner::new(1).run(&configs);
    let many = TrialRunner::new(3).run(&configs);
    assert_eq!(one, many);
    let plain = SecuritySim::new(configs[0].clone()).run();
    assert_eq!(one[0], plain, "trial 0 must reproduce the base run");
}
