//! Engine-level determinism regressions: the same seeded experiment
//! must produce byte-identical reports across trial-runner thread
//! counts and across world shard counts. These guard the engine's core
//! promise — trial threads and partitioning change speed and memory,
//! never results.

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
    let points = [small(23)];
    let serial = TrialRunner::new(1).run_sweep(&points, 4).remove(0);
    let parallel = TrialRunner::new(4).run_sweep(&points, 4).remove(0);
    assert_eq!(serial.trials, 4);
    assert_eq!(serial, parallel, "thread count changed merged metrics");
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// The acceptance cube: a fixed-seed `SecuritySim` produces
/// byte-identical `SimReport`s at every shard count {1, 2, 4}. (The
/// name is kept for the test floor; windows have one execution mode,
/// and the two scheduler backends are compared in
/// `scheduler_equivalence` and in the world's
/// `identical_on_both_scheduler_backends`, not here.)
#[test]
fn security_sim_identical_across_modes_shards_and_backends() {
    let report_at = |shards: usize| {
        SecuritySim::new(SimConfig {
            shards,
            ..small(17)
        })
        .run()
    };
    let baseline = report_at(1);
    assert!(
        baseline.completed_lookups > 0 || baseline.walks_ok > 0,
        "run must exercise the protocol"
    );
    for shards in [2usize, 4] {
        let probe = report_at(shards);
        assert_eq!(baseline, probe, "{shards}-shard run diverged");
        assert_eq!(format!("{baseline:?}"), format!("{probe:?}"));
    }
}

/// The settings of the removed worker pool are accepted and change
/// nothing: `parallel: true, pool_threads: 2` reproduces the baseline
/// byte for byte at every shard count.
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
        assert_eq!(
            baseline, probe,
            "{shards}-shard run with pool settings diverged"
        );
        assert_eq!(format!("{baseline:?}"), format!("{probe:?}"));
    }
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
