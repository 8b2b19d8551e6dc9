//! Table 3 + Fig. 7(a): lookup latency (mean/median, CDF) and per-node
//! bandwidth for Octopus vs Chord vs Halo.
//!
//! Octopus runs as the *real protocol* inside the event simulator (207
//! nodes, the paper's PlanetLab population, passive adversary); Chord and
//! Halo replay their message patterns against the same WAN latency model
//! (see `octopus-baselines`). Bandwidth uses the paper's byte model
//! (footnote 4) with lookups every 5 and 10 minutes.

use octopus_baselines::{chord_lookup, halo_lookup};
use octopus_bench::RunArgs;
use octopus_chord::{ChordConfig, GroundTruthView};
use octopus_core::{AttackKind, OctopusConfig, SimConfig};
use octopus_id::{IdSpace, Key};
use octopus_metrics::{Summary, TextTable};
use octopus_net::{sizes, KingLikeLatency};
use octopus_sim::{derive_rng, Duration};
use rand::Rng;

const N: usize = 207; // the paper's PlanetLab deployment size

fn octopus_config(args: &RunArgs, lookup_interval: Duration, secs: u64) -> SimConfig {
    let mut octopus = OctopusConfig::for_network(N);
    octopus.lookup_every = lookup_interval;
    SimConfig {
        n: N,
        malicious_fraction: 0.0,
        attack: AttackKind::Passive,
        attack_rate: 0.0,
        mean_lifetime: None,
        duration: Duration::from_secs(secs),
        seed: args.seed_or(77),
        octopus,
        ..SimConfig::default()
    }
}

/// Analytic maintenance bandwidth for plain Chord (stabilization every
/// 2 s + finger refresh every 30 s) plus its lookups at the interval.
fn chord_kbps(lookup_interval_s: f64, lookup_bytes: f64) -> f64 {
    let stabilize = (f64::from(sizes::REQUEST)
        + f64::from(sizes::ROUTING_ITEM) * 6.0
        + 2.0 * f64::from(sizes::UDP_HEADER))
        / 2.0;
    let fingers = (f64::from(sizes::REQUEST)
        + f64::from(sizes::ROUTING_ITEM)
        + 2.0 * f64::from(sizes::UDP_HEADER))
        * 12.0
        / 30.0;
    let lookups = lookup_bytes / lookup_interval_s;
    // each byte is sent by one node and received by another
    2.0 * (stabilize + fingers + lookups) * 8.0 / 1000.0
}

fn main() {
    let args = RunArgs::from_env();
    let secs = args.scale.planetlab_secs();
    let trials = args.scale.comparison_trials();
    let mut rng = derive_rng(args.seed_or(99), b"table3", 0);
    let space = IdSpace::random(N, &mut rng);
    let chord_cfg = ChordConfig::for_network(N);
    let view = GroundTruthView::new(&space, chord_cfg);
    let latency = KingLikeLatency::new(123);

    // --- latency ---
    println!("running Octopus ({N} nodes, {secs}s, real protocol in the event sim)…");
    // the two lookup-interval runs (× trials) are independent: one
    // parallel batch, merged per interval
    let octopus_reports = args.runner().run_sweep(
        &[
            octopus_config(&args, Duration::from_secs(300), secs),
            octopus_config(&args, Duration::from_secs(600), secs),
        ],
        args.trials,
    );
    let mut oct_lat = Summary::new();
    oct_lat.extend(
        octopus_reports[0]
            .lookup_latencies_ms
            .iter()
            .map(|&ms| ms / 1000.0),
    );
    let oct_kbps_5m = octopus_reports[0].bandwidth_kbps;
    let oct_kbps_10m = octopus_reports[1].bandwidth_kbps;

    let mut chord_lat = Summary::new();
    let mut halo_lat = Summary::new();
    let mut chord_bytes = 0.0;
    let mut halo_bytes = 0.0;
    for _ in 0..trials {
        let i = space.random_member(&mut rng);
        let key = Key(rng.gen());
        let c = chord_lookup(&view, i, key, &latency, &mut rng);
        chord_lat.add(c.latency.as_secs_f64());
        chord_bytes += c.bytes as f64;
        let h = halo_lookup(&view, i, key, &latency, &mut rng);
        halo_lat.add(h.latency.as_secs_f64());
        halo_bytes += h.bytes as f64;
    }
    chord_bytes /= trials as f64;
    halo_bytes /= trials as f64;

    println!("\nTable 3: efficiency comparison");
    println!("(paper: Octopus 2.15/1.61s, Chord 1.35/0.35s, Halo 6.89/1.79s;");
    println!(" bandwidth Octopus 5.91/4.30, Chord 0.29/0.28, Halo 0.71/0.37 kbps)\n");
    let mut t = TextTable::new([
        "Scheme",
        "Latency mean (s)",
        "Latency median (s)",
        "BW @5min (kbps)",
        "BW @10min (kbps)",
    ]);
    t.row([
        "Octopus".into(),
        format!("{:.2}", oct_lat.mean()),
        format!("{:.2}", oct_lat.median()),
        format!("{oct_kbps_5m:.2}"),
        format!("{oct_kbps_10m:.2}"),
    ]);
    t.row([
        "Chord".into(),
        format!("{:.2}", chord_lat.mean()),
        format!("{:.2}", chord_lat.median()),
        format!("{:.2}", chord_kbps(300.0, chord_bytes)),
        format!("{:.2}", chord_kbps(600.0, chord_bytes)),
    ]);
    t.row([
        "Halo".into(),
        format!("{:.2}", halo_lat.mean()),
        format!("{:.2}", halo_lat.median()),
        format!("{:.2}", chord_kbps(300.0, halo_bytes)),
        format!("{:.2}", chord_kbps(600.0, halo_bytes)),
    ]);
    println!("{}", t.render());

    // --- Fig 7(a): latency CDF ---
    println!("Fig 7(a): CDF of lookup latency (seconds at P10..P100)");
    let mut t = TextTable::new(["P", "Chord", "Octopus", "Halo"]);
    for p in (10..=100).step_by(10) {
        t.row([
            format!("{p}%"),
            format!("{:.2}", chord_lat.percentile(f64::from(p))),
            format!("{:.2}", oct_lat.percentile(f64::from(p))),
            format!("{:.2}", halo_lat.percentile(f64::from(p))),
        ]);
    }
    println!("{}", t.render());
}
