//! Engine-level determinism regressions: the same seeded experiment
//! must produce byte-identical reports across trial-runner thread
//! counts and across world shard counts. These guard the engine's core
//! promise — trial threads and partitioning change speed and memory,
//! never results.

use octopus_core::{
    trial_configs, AttackKind, OctopusConfig, SecuritySim, SimConfig, SimReport, TrialRunner,
};
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

/// FNV-1a 64 over a report's `Debug` text.
fn fingerprint(report: &SimReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Exact results, not only agreement: a few fixed-seed runs must
/// reproduce the fingerprints recorded when this test was written, so
/// a refactor that changes results fails `cargo test` and not only
/// the release-only golden diff. The cases cover a static ring under
/// lookup bias, a churned ring (lifetimes and offline gaps), and a
/// finger attack, whose colluders cover up through
/// `AdversaryState::colludes_consistently`. Like the figure goldens,
/// the values assume this host's libm `ln` (latency and churn draws go
/// through it); a libm that rounds differently needs them recorded
/// again.
#[test]
fn fixed_seed_reports_match_recorded_fingerprints() {
    let cases = [
        ("static lookup bias", small(1), 0x237f_2550_d666_54bb),
        (
            "churned lookup bias",
            SimConfig {
                mean_lifetime: Some(Duration::from_secs(40)),
                ..small(5)
            },
            0x6d86_94a6_a3c2_ca6a,
        ),
        (
            "finger manipulation",
            SimConfig {
                attack: AttackKind::FingerManipulation,
                duration: Duration::from_secs(150),
                ..small(9)
            },
            0x5ade_9e05_a6ed_5419,
        ),
    ];
    let recorded: Vec<(&str, u64)> = cases.iter().map(|(name, _, f)| (*name, *f)).collect();
    let run: Vec<(&str, u64)> = cases
        .into_iter()
        .map(|(name, cfg, _)| (name, fingerprint(&SecuritySim::new(cfg).run())))
        .collect();
    assert_eq!(run, recorded, "fixed-seed results changed");
}
