//! The benchmark's contract, as data: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at
//! the repository root is generated from these tables (`octobench spec`)
//! and a test keeps the two equal.

use crate::json;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Workload names and the reason each is here.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sim-bias-1k",
        "security simulator at the paper's point (1000 nodes, 20% malicious, lookup bias), static ring: protocol and crypto work per event, membership only read",
    ),
    (
        "sim-churn-1k",
        "same simulator, mean lifetime 0.6 of the job: every node leaves and rejoins (~1900 counted kills and joins per ~500 lookups), so slab, id-space, re-seeding and dead-peer handling run beside lookups",
    ),
    (
        "engine-gossip-10k",
        "bare engine, 10000 gossip nodes (14 MiB, so the host's memory-latency drift stays out), 40 ms windows, no protocol and no crypto: scheduler, dispatch and bus only; crypto gains must not move it",
    ),
    (
        "udp-ring-16",
        "16 nodes and the CA over loopback UDP, served by one thread in bursts of 16 lookups started together, 20 ms apart: the only workload that encodes, sends and decodes frames",
    ),
];

/// One metric of the contract.
pub struct Metric {
    /// Name as printed and as keyed in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics. Every workload reports every one of them; what
/// an "operation" and a "job" are is the workload's (see README).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("job_ms", "ms", "lower", 0.25),
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Per-layer metrics of a traced run: `core.simnet.*` and
/// `transport.host.*` (but for the round trip) decompose a workload and
/// come from that workload's own run, the rest from the probe suite.
pub const PER_LAYER: &[Metric] = &[
    // sim: the event queue alone, on the §5.1 timer mix
    layer("sim.queue.wheel_ns_per_event", "ns", "lower"),
    layer("sim.queue.heap_ns_per_event", "ns", "lower"),
    layer("sim.queue.events", "count", "higher"),
    // net: the bare world, 100 000 benchmark-owned nodes
    layer("net.world.insert_ns_per_node", "ns", "lower"),
    layer("net.world.timer_ns_per_event", "ns", "lower"),
    layer("net.world.send_ns_per_msg", "ns", "lower"),
    layer("net.world.win1_ns_per_event", "ns", "lower"),
    layer("net.world.win2_ns_per_event", "ns", "lower"),
    layer("net.world.par2_ns_per_event", "ns", "lower"),
    layer("net.world.par2_speedup", "ratio", "higher"),
    layer("net.world.windows", "count", "lower"),
    layer("net.world.events_per_window", "count", "higher"),
    layer("net.world.dropped_to_dead", "count", "lower"),
    layer("net.ledger.bytes", "bytes", "lower"),
    layer("net.pool.narrow_window_slowdown", "ratio", "lower"),
    // net: the frame codec, per message kind
    layer("net.wire.encode_ns.get_table", "ns", "lower"),
    layer("net.wire.encode_ns.table", "ns", "lower"),
    layer("net.wire.encode_ns.onion4", "ns", "lower"),
    layer("net.wire.encode_ns.onion_reply", "ns", "lower"),
    layer("net.wire.encode_ns.report", "ns", "lower"),
    layer("net.wire.encode_ns.revocation", "ns", "lower"),
    layer("net.wire.decode_ns.get_table", "ns", "lower"),
    layer("net.wire.decode_ns.table", "ns", "lower"),
    layer("net.wire.decode_ns.onion4", "ns", "lower"),
    layer("net.wire.decode_ns.onion_reply", "ns", "lower"),
    layer("net.wire.decode_ns.report", "ns", "lower"),
    layer("net.wire.decode_ns.revocation", "ns", "lower"),
    layer("net.wire.frame_bytes.get_table", "bytes", "lower"),
    layer("net.wire.frame_bytes.table", "bytes", "lower"),
    layer("net.wire.frame_bytes.onion4", "bytes", "lower"),
    layer("net.wire.frame_bytes.onion_reply", "bytes", "lower"),
    layer("net.wire.frame_bytes.report", "bytes", "lower"),
    layer("net.wire.frame_bytes.revocation", "bytes", "lower"),
    layer("net.wire.reject_ns", "ns", "lower"),
    // crypto and chord: the work inside one protocol event
    layer("crypto.sha256.ns_per_kib", "ns", "lower"),
    layer("crypto.rsa.keygen_us", "us", "lower"),
    layer("crypto.rsa.sign_ns", "ns", "lower"),
    layer("crypto.rsa.verify_ns", "ns", "lower"),
    layer("crypto.cert.issue_ns", "ns", "lower"),
    layer("crypto.cert.verify_ns", "ns", "lower"),
    layer("crypto.onion.wrap_ns.l1", "ns", "lower"),
    layer("crypto.onion.wrap_ns.l2", "ns", "lower"),
    layer("crypto.onion.wrap_ns.l3", "ns", "lower"),
    layer("crypto.onion.wrap_ns.l4", "ns", "lower"),
    layer("crypto.onion.unwrap_ns", "ns", "lower"),
    layer("chord.signed.sign_ns", "ns", "lower"),
    layer("chord.signed.verify_ns", "ns", "lower"),
    layer("chord.lookup.iterative_ns", "ns", "lower"),
    layer("chord.table.next_hop_ns", "ns", "lower"),
    // id: ground-truth membership at N = 1000
    layer("id.sharded.owner_of_ns", "ns", "lower"),
    layer("id.sharded.random_member_ns", "ns", "lower"),
    layer("id.sharded.churn_ns", "ns", "lower"),
    // core: one simulator job over simulated time, and trial fan-out
    layer("core.simnet.new_s", "s", "lower"),
    layer("core.simnet.chunk_ms_p50", "ms", "lower"),
    layer("core.simnet.chunk_ms_max", "ms", "lower"),
    layer("core.simnet.first_tenth_ratio", "ratio", "lower"),
    layer("core.simnet.us_per_lookup", "us", "lower"),
    layer("core.simnet.completed_lookups", "count", "higher"),
    layer("core.simnet.failed_lookups", "count", "lower"),
    layer("core.simnet.walks_ok", "count", "higher"),
    layer("core.simnet.walks_failed", "count", "lower"),
    layer("core.simnet.revocations", "count", "higher"),
    layer("core.simnet.false_positives", "count", "lower"),
    layer("core.simnet.ca_messages", "count", "lower"),
    layer("core.simnet.joins", "count", "higher"),
    layer("core.simnet.kills", "count", "higher"),
    layer("core.simnet.churn_share", "ratio", "lower"),
    layer("core.trial.fanout_efficiency", "ratio", "higher"),
    // transport: the UDP host
    layer("transport.host.rtt_us_p50", "us", "lower"),
    layer("transport.host.frames_per_lookup", "count", "lower"),
    layer("transport.host.frames_in", "count", "lower"),
    layer("transport.host.frames_out", "count", "lower"),
    layer("transport.host.frames_rejected", "count", "lower"),
    layer("transport.host.send_failures", "count", "lower"),
    layer("transport.host.dropped_unknown_peer", "count", "lower"),
    layer("transport.host.cpu_share", "cores", "lower"),
    layer("transport.host.lookup_p90_ms", "ms", "lower"),
    layer("transport.host.lookup_p99_ms", "ms", "lower"),
    layer("transport.host.local_lookup_share", "ratio", "lower"),
    layer("transport.host.declined_share", "ratio", "lower"),
    layer("transport.host.abandoned_share", "ratio", "lower"),
    // the traced workload itself
    layer("trace.spans", "count", "lower"),
    layer("trace.span_cost_ns", "ns", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// `BENCHMARK.json`, generated.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {}",
                json::object(&[("name", json::quote(name)), ("why", json::quote(why))])
            )
        })
        .collect();
    let metric = |m: &Metric, bounded: bool| {
        let mut members = vec![
            ("name", json::quote(m.name)),
            ("unit", json::quote(m.unit)),
            ("better", json::quote(m.better)),
        ];
        if bounded {
            members.push(("bound", json::number(m.bound)));
        }
        format!("    {}", json::object(&members))
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `octobench spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_stay_within_the_contract() {
        let mut names = BTreeSet::new();
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(ok(name, "_.-", 64) && names.insert(*name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(m.name, "_.-", 64) && names.insert(m.name), "{}", m.name);
            assert!(ok(m.unit, "_/%.-", 16), "{}: unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(benchmark_json().len() <= 64 * 1024);
        assert!(json::parse(&benchmark_json()).is_ok());
    }
}
