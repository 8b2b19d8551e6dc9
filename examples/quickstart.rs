//! Quickstart: spin up a small Octopus network, watch it run anonymous
//! lookups, and confirm nothing goes wrong in an honest deployment.
//!
//!     cargo run --release --example quickstart

use octopus::core::{AttackKind, OctopusConfig, SecuritySim, SimConfig};
use octopus::sim::Duration;

fn main() {
    let n = 200;
    println!("building an Octopus network of {n} nodes (all honest)…");
    let cfg = SimConfig {
        n,
        malicious_fraction: 0.0,
        attack: AttackKind::Passive,
        mean_lifetime: None,
        duration: Duration::from_secs(180),
        seed: 1,
        octopus: OctopusConfig::for_network(n),
        shards: 1,
        ..SimConfig::default()
    };
    let report = SecuritySim::new(cfg).run();
    println!("ran 180 simulated seconds:");
    println!(
        "  anonymous lookups completed: {}",
        report.completed_lookups
    );
    println!("  wrong results:               {}", report.biased_lookups);
    println!("  relay-selection walks ok:    {}", report.walks_ok);
    println!("  revocations (should be 0):   {}", report.revocations);
    let mut lat = octopus::metrics::Summary::new();
    lat.extend(report.lookup_latencies_ms.iter().map(|&ms| ms / 1000.0));
    println!(
        "  lookup latency: mean {:.2}s, median {:.2}s (each query rides a 4-relay onion path)",
        lat.mean(),
        lat.median()
    );
}
