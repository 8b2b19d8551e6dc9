//! The suite runner (`run`, `trace`) and `compare`.
//!
//! `run` starts one child process per workload and repetition — the
//! same single-run mode `BENCHMARK.json`'s command selects, so peak
//! memory and processor time are per workload — with seeds `--seed`,
//! `--seed`+1, …, gathers the result lines and writes them, stamped,
//! to a run file. `compare` reads two run files and applies the
//! benchmark's own rule to them: a metric is worse when B's median is
//! worse than A's by more than the metric's bound, and unresolved when
//! either file's interquartile range exceeds the bound. B must hold
//! everything A holds — every workload, every metric, as many samples —
//! and may not fail or decline a larger share of its operations; a B
//! that lost a workload does not pass for having nothing to compare.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};
use crate::{host, out_dir, spec, Flags};

/// What the children of one workload reported.
#[derive(Default)]
struct Gathered {
    seeds: Vec<u64>,
    samples: BTreeMap<String, Vec<f64>>,
    notes: BTreeMap<String, Vec<f64>>,
    digests: Vec<String>,
    attempted: Vec<f64>,
    failed: Vec<f64>,
}

/// Run one child; `Err` carries why its result cannot be used.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: u64,
    into: &mut Gathered,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        // each per-layer metric once per suite, from the workload it belongs to
        .args(["--layers", "own"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
        let mut words = line.split_whitespace().skip(1);
        if let (Some(name), Some(value)) = (words.next(), words.next()) {
            if name == "report_digest" {
                into.digests.push(value.to_owned());
            } else if let Ok(v) = value.parse::<f64>() {
                into.notes.entry(name.to_owned()).or_default().push(v);
            }
        }
    }
    let result =
        json::parse(last).map_err(|e| format!("{workload} seed {seed}: result line: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: incorrect run ({})",
            output.status
        ));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::obj)
        .ok_or("result line has no metrics")?;
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(Value::num)
            .ok_or("metric has no value")?;
        into.samples.entry(name.clone()).or_default().push(v);
    }
    let count = |key| result.get(key).and_then(Value::num).unwrap_or(0.0);
    into.seeds.push(seed);
    into.attempted.push(count("attempted"));
    into.failed.push(count("failed"));
    Ok(())
}

fn numbers(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| json::number(x)).collect();
    format!("[{}]", items.join(", "))
}

fn series(map: &BTreeMap<String, Vec<f64>>) -> String {
    let members: Vec<(&str, String)> = map.iter().map(|(k, v)| (k.as_str(), numbers(v))).collect();
    json::object(&members)
}

/// `run` (`trace == 0`) and `trace` (`trace == 1`).
pub fn run_suite(flags: &Flags, default_trace: u64) -> Result<ExitCode, String> {
    let seed = flags.number("seed", 31)?;
    let seconds = flags.number("seconds", spec::RUN_SECONDS)?.max(1);
    let trace = flags.number("trace", default_trace)?;
    let reps = flags.number("reps", if trace == 1 { 1 } else { 3 })?.max(1);
    let only = flags.text("workload");
    let table = if trace == 1 {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };

    let mut failures = Vec::new();
    let mut gathered: Vec<(&str, Gathered)> = Vec::new();
    for (workload, _) in spec::WORKLOADS
        .iter()
        .filter(|(w, _)| only.is_none_or(|o| o == *w))
    {
        let mut g = Gathered::default();
        for rep in 0..reps {
            if let Err(e) = run_child(workload, seed + rep, seconds, trace, &mut g) {
                eprintln!("octobench: {e}");
                failures.push(e);
            }
        }
        gathered.push((workload, g));
    }
    if gathered.is_empty() {
        return Err(format!("no workload called {}", only.unwrap_or("")));
    }

    println!();
    println!(
        "{:<20} {:<36} {:>14} {:>14} {:>14} {:<6} {:>2}",
        "workload", "metric", "q1", "median", "q3", "unit", "n"
    );
    for (workload, g) in &gathered {
        for m in table {
            let Some(v) = g.samples.get(m.name) else {
                continue;
            };
            let (q1, q3) = if v.len() >= 2 {
                let (q1, _, q3) = quartiles(v);
                (format!("{q1:.6}"), format!("{q3:.6}"))
            } else {
                ("-".to_owned(), "-".to_owned())
            };
            println!(
                "{workload:<20} {:<36} {q1:>14} {:>14.6} {q3:>14} {:<6} {:>2}",
                m.name,
                median(v),
                m.unit,
                v.len()
            );
        }
    }

    let metrics: Vec<(&str, String)> = table
        .iter()
        .map(|m| {
            let mut members = vec![
                ("unit", json::quote(m.unit)),
                ("better", json::quote(m.better)),
            ];
            if trace == 0 {
                members.push(("bound", json::number(m.bound)));
            }
            (m.name, json::object(&members))
        })
        .collect();
    // one line per workload keeps the file diffable
    let workloads: Vec<String> = gathered
        .iter()
        .map(|(w, g)| {
            let seeds: Vec<f64> = g.seeds.iter().map(|&s| s as f64).collect();
            let digests: Vec<String> = g.digests.iter().map(|d| json::quote(d)).collect();
            let members = [
                ("seeds", numbers(&seeds)),
                ("attempted", numbers(&g.attempted)),
                ("failed", numbers(&g.failed)),
                ("digests", format!("[{}]", digests.join(", "))),
                ("samples", series(&g.samples)),
                ("notes", series(&g.notes)),
            ];
            format!("  {}: {}", json::quote(w), json::object(&members))
        })
        .collect();
    let mut stamp = host::stamp(seed, seconds);
    stamp.push(("repetitions", reps.to_string()));
    let text = format!(
        "{{\"stamp\": {},\n \"trace\": {trace},\n \"metrics\": {},\n \"workloads\": {{\n{}\n }}}}\n",
        json::object(&stamp),
        json::object(&metrics),
        workloads.join(",\n")
    );
    let path = flags.text("out").map_or_else(
        || {
            let kind = if trace == 1 { "layers" } else { "run" };
            out_dir().join(format!("{kind}-seed{seed}.json"))
        },
        PathBuf::from,
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("octobench: {} run(s) failed:", failures.len());
        for f in &failures {
            eprintln!("octobench:   {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// How one metric of one workload compares between two run files.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// One file's own interquartile range exceeds the bound.
    Unresolved,
    /// The metric has no bound (per-layer metrics).
    Unbounded,
}

/// `setup_s` may get worse by its bound or by this many seconds,
/// whichever is larger: the ring's set-up takes half a millisecond, and
/// a quarter of that is not a regression anyone could measure.
const SETUP_FLOOR_S: f64 = 0.05;

/// Printed shares that may not rise by more than an absolute amount:
/// the lookups the ring's nodes decline (the issue's `failed_share`
/// bound of +0.02).
const ABSOLUTE_BOUNDS: &[(&str, f64)] = &[("declined_share", 0.02)];

/// By how much of A's median B's median is worse (negative = better).
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// Apply the benchmark's rule to two sets of samples. For `setup_s`
/// the spread is not judged (the acceptance rule exempts it: a set-up
/// is too short to be steadied) and [`SETUP_FLOOR_S`] applies.
pub fn judge(name: &str, a: &[f64], b: &[f64], better: &str, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Unbounded;
    };
    let setup = name == "setup_s";
    let (ma, mb) = (median(a), median(b));
    let too_wide = |v: &[f64]| !setup && v.len() >= 2 && spread(v) > bound;
    if worse_by(ma, mb, better) > bound && !(setup && mb - ma <= SETUP_FLOOR_S) {
        Verdict::Worse
    } else if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// The numbers under `workloads.<workload>.<section>[.<key>]`.
fn series_of(file: &Value, workload: &str, section: &str, key: Option<&str>) -> Option<Vec<f64>> {
    let mut v = file.get("workloads")?.get(workload)?.get(section)?;
    if let Some(key) = key {
        v = v.get(key)?;
    }
    v.arr()?.iter().map(Value::num).collect()
}

fn quartile_text(v: &[f64]) -> String {
    if v.len() >= 2 {
        let (q1, _, q3) = quartiles(v);
        format!("{:.5} [{q1:.5}, {q3:.5}]", median(v))
    } else {
        format!("{:.5}", median(v))
    }
}

/// What `compare` found.
#[derive(Default)]
pub struct Comparison {
    /// The table, line by line.
    pub lines: Vec<String>,
    /// Rows in which B is worse than A by more than the bound.
    pub worse: usize,
    /// Rows in which a file's own spread exceeds the bound.
    pub unresolved: usize,
    /// Workloads, metrics or samples A has and B lacks.
    pub missing: usize,
}

impl Comparison {
    /// Whether B holds everything A holds and nothing in it is worse.
    pub fn passed(&self) -> bool {
        self.worse == 0 && self.missing == 0
    }
}

/// Compare run file `b` against run file `a`.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let metrics = a
        .get("metrics")
        .and_then(Value::obj)
        .ok_or("A has no metrics table")?;
    let workloads = a
        .get("workloads")
        .and_then(Value::obj)
        .ok_or("A has no workloads")?;
    let mut out = Comparison::default();
    for workload in workloads.keys() {
        if b.get("workloads").and_then(|w| w.get(workload)).is_none() {
            out.missing += 1;
            out.lines
                .push(format!("{workload:<20} MISSING from B: the whole workload"));
            continue;
        }
        for (name, m) in metrics {
            let Some(sa) = series_of(a, workload, "samples", Some(name)).filter(|s| !s.is_empty())
            else {
                continue; // A never measured it on this workload
            };
            let sb = series_of(b, workload, "samples", Some(name)).unwrap_or_default();
            if sb.len() < sa.len() {
                out.missing += 1;
                out.lines.push(format!(
                    "{workload:<20} {name:<30} MISSING from B: {} of A's {} samples",
                    sb.len(),
                    sa.len()
                ));
                if sb.is_empty() {
                    continue;
                }
            }
            let better = m.get("better").and_then(Value::str).unwrap_or("lower");
            let unit = m.get("unit").and_then(Value::str).unwrap_or("");
            let verdict = judge(name, &sa, &sb, better, m.get("bound").and_then(Value::num));
            match verdict {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Within | Verdict::Unbounded => {}
            }
            out.lines.push(format!(
                "{workload:<20} {name:<30} {:>34} {:>34} {:>22} {}",
                quartile_text(&sa),
                quartile_text(&sb),
                format!(
                    "{:.4} of {:.5} {unit}",
                    median(&sb) / median(&sa),
                    median(&sa)
                ),
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Unbounded => "-",
                }
            ));
        }

        // operations that failed, as a share of those attempted
        let total = |file: &Value, section: &str| -> f64 {
            series_of(file, workload, section, None)
                .unwrap_or_default()
                .iter()
                .sum()
        };
        let share = |file: &Value| total(file, "failed") / total(file, "attempted").max(1.0);
        let (fa, fb) = (share(a), share(b));
        if fb > fa {
            out.worse += 1;
        }
        if fa > 0.0 || fb > 0.0 {
            out.lines.push(format!(
                "{workload:<20} {:<30} {fa:>34.6} {fb:>34.6} {:>22} {}",
                "failed / attempted",
                "",
                if fb > fa { "WORSE" } else { "no more than A" }
            ));
        }
        for &(note, bound) in ABSOLUTE_BOUNDS {
            let (Some(na), Some(nb)) = (
                series_of(a, workload, "notes", Some(note)).filter(|s| !s.is_empty()),
                series_of(b, workload, "notes", Some(note)).filter(|s| !s.is_empty()),
            ) else {
                continue;
            };
            let rise = median(&nb) - median(&na);
            if rise > bound {
                out.worse += 1;
            }
            out.lines.push(format!(
                "{workload:<20} {note:<30} {:>34} {:>34} {:>22} {}",
                quartile_text(&na),
                quartile_text(&nb),
                format!("{rise:+.4} (bound +{bound})"),
                if rise > bound {
                    "WORSE"
                } else {
                    "within bound"
                }
            ));
        }

        let of = |file: &Value, key: &str| {
            file.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(key))
                .cloned()
        };
        if of(a, "seeds") == of(b, "seeds") {
            if let (Some(da), Some(db)) = (of(a, "digests"), of(b, "digests")) {
                if da != db {
                    out.lines.push(format!("{workload:<20} simulated statistics changed: report_digest differs at equal seeds"));
                } else if da.arr().is_some_and(|d| !d.is_empty()) {
                    out.lines.push(format!(
                        "{workload:<20} report_digest identical at equal seeds"
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// `compare A.json B.json`.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, file) in [("A", &a), ("B", &b)] {
        let stamp = |k| {
            file.get("stamp")
                .and_then(|s| s.get(k))
                .and_then(Value::str)
                .unwrap_or("?")
        };
        println!("{label}: commit {} ({})", stamp("commit"), stamp("rustc"));
    }
    println!(
        "{:<20} {:<30} {:>34} {:>34} {:>22} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)"
    );
    let found = compare(&a, &b)?;
    for line in &found.lines {
        println!("{line}");
    }
    println!(
        "{} worse than bound, {} unresolved, {} missing from B",
        found.worse, found.unresolved, found.missing
    );
    Ok(if found.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.2];
        let slower = [111.0, 112.0, 110.5, 111.2, 111.1];
        let noisy = [80.0, 120.0, 95.0, 130.0, 100.0];
        let j = |a: &[f64], b: &[f64], better, bound| judge("job_ms", a, b, better, bound);
        assert_eq!(j(&steady, &slower, "lower", Some(0.10)), Verdict::Worse);
        assert_eq!(j(&steady, &slower, "lower", Some(0.15)), Verdict::Within);
        // the same numbers read as a rate are an improvement
        assert_eq!(j(&steady, &slower, "higher", Some(0.10)), Verdict::Within);
        assert_eq!(j(&slower, &steady, "higher", Some(0.05)), Verdict::Worse);
        assert_eq!(j(&steady, &noisy, "lower", Some(0.10)), Verdict::Unresolved);
        assert_eq!(j(&steady, &slower, "lower", None), Verdict::Unbounded);
        assert_eq!(j(&[5.0], &[5.2], "lower", Some(0.10)), Verdict::Within);
        // set-up's spread is exempt, its median is not
        let setup = |b: &[f64]| judge("setup_s", &steady, b, "lower", Some(0.10));
        assert_eq!(setup(&noisy), Verdict::Within);
        assert_eq!(setup(&slower), Verdict::Worse);
        // … unless the whole move is under the floor: 0.5 ms -> 0.9 ms
        let tiny = |b: &[f64]| judge("setup_s", &[0.0005], b, "lower", Some(0.25));
        assert_eq!(tiny(&[0.0009]), Verdict::Within);
        assert_eq!(tiny(&[0.0600]), Verdict::Worse);
    }

    #[test]
    fn worse_by_is_relative_to_a() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, "lower") < 0.0);
    }

    /// A run file of two workloads, three runs each.
    fn run_file(udp: &str) -> Value {
        let text = format!(
            r#"{{"metrics": {{"job_ms": {{"unit": "ms", "better": "lower", "bound": 0.25}}}},
                "workloads": {{
                  "sim-churn-1k": {{"seeds": [1, 2, 3], "attempted": [500, 500, 500], "failed": [0, 0, 0],
                    "digests": ["aa", "bb", "cc"], "samples": {{"job_ms": [800, 810, 805]}}, "notes": {{}}}},
                  "udp-ring-16": {udp}}}}}"#
        );
        json::parse(&text).expect("valid run file")
    }

    const UDP: &str = r#"{"seeds": [1, 2, 3], "attempted": [9000, 9000, 9000], "failed": [0, 0, 0],
        "digests": [], "samples": {"job_ms": [3.1, 3.3, 3.2]}, "notes": {"declined_share": [0.11, 0.12, 0.10]}}"#;

    #[test]
    fn a_file_compares_clean_against_itself() {
        let a = run_file(UDP);
        let found = compare(&a, &a).expect("comparable");
        assert!(found.passed());
        assert_eq!((found.worse, found.unresolved, found.missing), (0, 0, 0));
    }

    #[test]
    fn a_dropped_workload_or_sample_fails_the_comparison() {
        let a = run_file(UDP);
        let mut b = run_file(UDP);
        let Value::Obj(top) = &mut b else {
            panic!("object")
        };
        let Some(Value::Obj(w)) = top.get_mut("workloads") else {
            panic!("workloads")
        };
        w.remove("sim-churn-1k");
        let found = compare(&a, &b).expect("comparable");
        assert_eq!(found.missing, 1);
        assert!(!found.passed());
        assert!(found.lines.iter().any(|l| l.contains("MISSING from B")));

        let fewer = run_file(&UDP.replace("[3.1, 3.3, 3.2]", "[3.1]"));
        assert_eq!(compare(&a, &fewer).expect("comparable").missing, 1);
        let none = run_file(&UDP.replace("[3.1, 3.3, 3.2]", "[]"));
        assert_eq!(compare(&a, &none).expect("comparable").missing, 1);
    }

    #[test]
    fn more_failed_or_declined_operations_fail_the_comparison() {
        let a = run_file(UDP);
        let failing =
            run_file(&UDP.replace(r#""failed": [0, 0, 0]"#, r#""failed": [500, 500, 500]"#));
        let found = compare(&a, &failing).expect("comparable");
        assert_eq!(found.worse, 1);
        assert!(!found.passed());
        let declining = run_file(&UDP.replace("[0.11, 0.12, 0.10]", "[0.14, 0.15, 0.13]"));
        assert_eq!(compare(&a, &declining).expect("comparable").worse, 1);
        let same = run_file(&UDP.replace("[0.11, 0.12, 0.10]", "[0.12, 0.13, 0.11]"));
        assert!(compare(&a, &same).expect("comparable").passed());
    }
}
