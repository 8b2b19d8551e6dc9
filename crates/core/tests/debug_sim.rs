//! Diagnostic harness (run with --nocapture) — not a correctness test.
//!
//!     cargo test -p octopus-core --test debug_sim -- --ignored --nocapture

use octopus_core::{AttackKind, SecuritySim, SimConfig};
use octopus_sim::Duration;

#[test]
#[ignore = "diagnostic dump, not a correctness test; run with -- --ignored --nocapture"]
fn diagnose_passive() {
    let cfg = SimConfig {
        n: 150,
        malicious_fraction: 0.2,
        attack: AttackKind::LookupBias,
        attack_rate: 0.5,
        consistent_collusion: 0.5,
        mean_lifetime: None,
        duration: Duration::from_secs(240),
        seed: 3,
        octopus: octopus_core::OctopusConfig::for_network(150),
        lookups_enabled: true,
        shards: 1,
        parallel: false,
        pool_threads: 0,
    };
    let mut sim = SecuritySim::new(cfg);
    let report = sim.run_debug();
    println!("{report:#?}");
}
