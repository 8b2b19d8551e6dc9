//! `octobench`: the benchmark every claim about this repository's speed
//! is measured with. See `benchmark/README.md`.
//!
//! ```text
//! octobench --workload W --seed N --seconds S --trace 0|1   one run, one result line
//!           [--layers own]      (traced) only W's own per-layer metrics; `trace` uses it
//! octobench run   [--seed N] [--reps R] [--seconds S] [--workload W] [--trace 0|1] [--out FILE]
//! octobench trace [--seed N] ...                            = run --trace 1 --reps 1
//! octobench compare A.json B.json
//! octobench spec                                            prints BENCHMARK.json
//! ```

mod compare;
mod gate;
mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use gate::Gate;
use trace::Tracer;

/// `--flag value` pairs of a command line.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found {flag}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Flags(map))
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.0.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} takes a whole number, not {v}"))
        })
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }
}

/// Where span files and run files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Per-layer metrics that only a run of one workload supplies: a metric
/// that tells whether they are there, the workload, and the seconds a
/// stand-in run of it gets in a traced run of another workload.
const STAND_INS: &[(&str, &str, u64)] = &[
    ("core.simnet.new_s", "sim-bias-1k", 4),
    ("transport.host.frames_out", "udp-ring-16", 3),
];

/// One run of one workload in this process: the mode `BENCHMARK.json`'s
/// command selects. Prints every number as `workload metric value unit`
/// and, last, the result line.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.text("workload").ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "unknown workload {workload}; known: {}",
            known.join(", ")
        ));
    }
    let seed = flags.number("seed", 31)?;
    let seconds = flags.number("seconds", spec::RUN_SECONDS)?.max(1);
    let traced = flags.number("trace", 0)? == 1;

    host::keep_freed_memory();
    let mut tracer = Tracer::new(traced);
    let mut gate = Gate::default();
    let whole = tracer.enter("octobench.workload");
    // a traced run reports no end-to-end number: it runs the workload
    // for half the time and spends the rest on the probe suite
    let measured = if traced { seconds.div_ceil(2) } else { seconds };
    let outcome = workloads::run(workload, seed, measured, &mut tracer, &mut gate);
    let workload_s = tracer.exit(whole);
    // peak memory belongs to the workload: read it before the probes run
    let peak_rss_mb = host::peak_rss_mib();

    for (name, value, unit) in &outcome.notes {
        println!("{workload} {name} {value} {unit}");
    }
    if let Some(d) = outcome.digest {
        println!("{workload} report_digest {d:016x} hash");
    }
    let metrics: Vec<(String, f64, &str)> = if traced {
        let own_only = match flags.text("layers") {
            None | Some("all") => false,
            Some("own") => true,
            Some(other) => return Err(format!("--layers takes own or all, not {other}")),
        };
        let mut layers = probes::run(
            own_only.then_some(workload),
            seed,
            &mut tracer,
            &mut gate,
            workload_s,
        );
        layers.extend(outcome.layers);
        if !own_only {
            // a single traced run reports every per-layer metric, so the
            // ones this workload cannot supply come from a short run of
            // the workload that can; `trace` takes them from that
            // workload's own full traced run instead
            for &(telltale, stand_in, secs) in STAND_INS {
                if !layers.contains_key(telltale) {
                    println!("{workload} stand_in {secs} s of {stand_in}");
                    let short = workloads::run(stand_in, seed, secs, &mut tracer, &mut gate);
                    layers.extend(short.layers);
                }
            }
        }
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        let path = out_dir().join(format!("trace-{workload}.json"));
        std::fs::write(&path, tracer.to_json(workload, &host::stamp(seed, seconds)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{workload} span_file {} path", path.display());
        for t in tracer.self_times() {
            println!(
                "{workload} self_time.{} {} ms ({} spans, {} ms total)",
                t.name,
                t.self_ns as f64 / 1e6,
                t.count,
                t.total_ns as f64 / 1e6
            );
        }
        spec::PER_LAYER
            .iter()
            .filter_map(|m| match layers.get(m.name) {
                Some(&v) => Some((m.name.to_owned(), v, m.unit)),
                None if own_only => None,
                None => panic!("nothing measured {}", m.name),
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => outcome.setup_s,
            "ops_per_s" => outcome.ops_per_s,
            "job_ms" => outcome.job_ms,
            "cpu_us_per_op" => outcome.cpu_us_per_op,
            "peak_rss_mb" => peak_rss_mb,
            other => panic!("no measurement for end-to-end metric {other}"),
        };
        spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), value(m.name), m.unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("{workload} {name} {value} {unit}");
    }
    for failure in gate.failures() {
        println!("{workload} GATE FAILED: {failure}");
        eprintln!("octobench: {workload}: GATE FAILED: {failure}");
    }
    let members: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                json::object(&[("value", json::number(*value)), ("unit", json::quote(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        json::object(&[
            ("correct", gate.passed().to_string()),
            ("attempted", outcome.attempted.max(1).to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", json::object(&members)),
        ])
    );
    Ok(if gate.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => compare::run_suite(&Flags::parse(&args[1..])?, 0),
        Some("trace") => compare::run_suite(&Flags::parse(&args[1..])?, 1),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: octobench compare A.json B.json".to_owned()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => run_one(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("octobench: {e}");
        ExitCode::from(2)
    })
}
