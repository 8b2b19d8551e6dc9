//! End-to-end tests of the event-based security simulator — miniature
//! versions of the paper's §5 experiments (small N, short horizon, so
//! they run quickly in debug builds; the bench harness runs the full
//! N = 1000 / 1000 s configurations).

use octopus_core::{AttackKind, SecuritySim, SimConfig};
use octopus_sim::Duration;

fn base(attack: AttackKind, seed: u64) -> SimConfig {
    SimConfig {
        n: 150,
        malicious_fraction: 0.2,
        attack,
        attack_rate: 1.0,
        mean_lifetime: None,
        duration: Duration::from_secs(240),
        seed,
        octopus: octopus_core::OctopusConfig::for_network(150),
        shards: 1,
        parallel: false,
        pool_threads: 0,
    }
}

#[test]
fn passive_network_stays_intact() {
    let mut sim = SecuritySim::new(base(AttackKind::Passive, 1));
    let report = sim.run();
    assert_eq!(report.revocations, 0, "no attacks → no revocations");
    assert_eq!(report.false_positives, 0);
    assert!(report.completed_lookups > 100, "lookups must run");
    let biased = report.biased_lookups as f64 / report.completed_lookups.max(1) as f64;
    assert!(
        biased < 0.05,
        "honest network must resolve lookups correctly (biased = {biased})"
    );
    assert!(report.walks_ok > 50, "random walks must complete");
    // malicious fraction never changes without attacks
    assert!(
        (report.final_malicious_fraction() - 0.2).abs() < 0.01,
        "passive adversary is never evicted"
    );
}

#[test]
fn lookup_bias_attackers_identified() {
    let mut sim = SecuritySim::new(base(AttackKind::LookupBias, 2));
    let report = sim.run();
    assert_eq!(report.false_positives, 0, "no honest node may be revoked");
    // the paper drains all attackers in ~20-30 min; this 4-minute
    // mini-run must show the curve well underway (the full-scale bench
    // binaries reproduce the complete drain)
    assert!(
        report.final_malicious_fraction() <= 0.12,
        "most attackers must be identified (remaining = {})",
        report.final_malicious_fraction()
    );
    assert!(
        report.biased_lookups > 0,
        "attack must bias some lookups before eviction"
    );
    // the curve must be monotonically non-increasing after its peak
    let fracs: Vec<f64> = report.malicious_fraction.iter().map(|&(_, f)| f).collect();
    assert!(fracs.first().copied().unwrap_or(0.0) >= fracs.last().copied().unwrap_or(1.0));
}

#[test]
fn bias_attack_at_half_rate_still_caught() {
    let mut cfg = base(AttackKind::LookupBias, 3);
    cfg.attack_rate = 0.5;
    let mut sim = SecuritySim::new(cfg);
    let report = sim.run();
    assert_eq!(report.false_positives, 0);
    assert!(
        report.final_malicious_fraction() <= 0.15,
        "half-rate attackers are caught more slowly but still caught ({})",
        report.final_malicious_fraction()
    );
}

#[test]
fn finger_manipulation_attackers_identified() {
    let mut sim = SecuritySim::new(base(AttackKind::FingerManipulation, 4));
    let report = sim.run();
    assert_eq!(report.false_positives, 0, "FP must be zero");
    assert!(
        report.final_malicious_fraction() < 0.15,
        "manipulators must be identified (remaining = {})",
        report.final_malicious_fraction()
    );
}

#[test]
fn finger_pollution_attackers_identified() {
    let mut sim = SecuritySim::new(base(AttackKind::FingerPollution, 5));
    let report = sim.run();
    assert_eq!(report.false_positives, 0);
    assert!(
        report.final_malicious_fraction() < 0.15,
        "polluters must be identified (remaining = {})",
        report.final_malicious_fraction()
    );
}

#[test]
fn selective_dos_droppers_identified() {
    let mut sim = SecuritySim::new(base(AttackKind::SelectiveDos, 6));
    let report = sim.run();
    assert_eq!(report.false_positives, 0);
    assert!(
        report.final_malicious_fraction() < 0.15,
        "droppers must be identified (remaining = {})",
        report.final_malicious_fraction()
    );
}

#[test]
fn churn_does_not_cause_false_positives() {
    let mut cfg = base(AttackKind::LookupBias, 7);
    cfg.mean_lifetime = Some(Duration::from_secs(600)); // 10-minute λ
    let mut sim = SecuritySim::new(cfg);
    let report = sim.run();
    assert_eq!(
        report.false_positives, 0,
        "churn must never get honest nodes revoked (Table 2's FP = 0)"
    );
    assert!(report.final_malicious_fraction() <= 0.15);
}

#[test]
fn deterministic_given_seed() {
    let r1 = SecuritySim::new(base(AttackKind::LookupBias, 9)).run();
    let r2 = SecuritySim::new(base(AttackKind::LookupBias, 9)).run();
    assert_eq!(r1.revocations, r2.revocations);
    assert_eq!(r1.completed_lookups, r2.completed_lookups);
    assert_eq!(r1.biased_lookups, r2.biased_lookups);
    assert_eq!(r1.malicious_fraction, r2.malicious_fraction);
}

// ---- long-duration cases ----
//
// The cases below replay the paper's full horizons and take minutes in
// debug builds, so they are `#[ignore]`d to keep `cargo test -q` fast
// and deterministic. Run them explicitly with:
//
//     cargo test --release -p octopus-core --test security_sim -- --ignored

/// The complete §5.2 drain: over the paper's full horizon the curve
/// must reach its floor — clearly below the 4-minute mini-run bound
/// (0.12) — and *hold* it. (At N = 150 this reproduction plateaus at a
/// handful of never-exercised attackers rather than the paper's ~0; the
/// bound documents that floor.)
#[test]
#[ignore = "full 1000 s horizon; run with -- --ignored (see module comment)"]
fn full_horizon_bias_attack_drains_to_floor() {
    let mut cfg = base(AttackKind::LookupBias, 11);
    cfg.duration = Duration::from_secs(1000);
    let mut sim = SecuritySim::new(cfg);
    let report = sim.run();
    assert_eq!(report.false_positives, 0);
    assert!(
        report.final_malicious_fraction() <= 0.08,
        "after the full horizon the drain must be at its floor ({})",
        report.final_malicious_fraction()
    );
    // once down, the curve never rebounds (revocation is permanent)
    let fracs: Vec<f64> = report.malicious_fraction.iter().map(|&(_, f)| f).collect();
    let min = fracs.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        (fracs.last().copied().unwrap_or(1.0) - min).abs() < 1e-9,
        "the final fraction must equal the curve minimum"
    );
}

/// Long-horizon churn soak: Table 2's FP = 0 must hold over the paper's
/// full duration, not just the 4-minute mini-run.
#[test]
#[ignore = "full 1000 s horizon; run with -- --ignored (see module comment)"]
fn full_horizon_churn_stays_false_positive_free() {
    let mut cfg = base(AttackKind::LookupBias, 12);
    cfg.duration = Duration::from_secs(1000);
    cfg.mean_lifetime = Some(Duration::from_secs(600));
    let mut sim = SecuritySim::new(cfg);
    let report = sim.run();
    assert_eq!(report.false_positives, 0);
}
