//! Fixture-based contract tests for `octolint` itself, in the VEF
//! stable-signature style: each rule is demonstrated by a known-bad
//! fixture whose `//~ CODE` markers pin the exact diagnostic code and
//! line, a false-positive guard asserts the real tree (with its
//! justified suppressions) passes clean, the parser-torture fixture
//! pins the statement tree the dataflow rules consume, and the CLI's
//! script-friendly exit codes (0 clean / 1 violations / 2 usage error)
//! are exercised end to end.
//!
//! The retired token rules 002–004 live on as `clippy.toml` entries:
//! the clippy-contract fixture marks each offending line with the lint
//! that must fire on it (`//~ clippy::disallowed_methods`), and the
//! ignored test `clippy_contract_fires_on_exactly_the_marked_lines`
//! (run in CI's octolint job) lints it with clippy.

use std::path::{Path, PathBuf};

use octopus_lint::{lint_source, lint_tree, parse_debug, scan_paths, Report, RULES};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Expected diagnostics from `//~ CODE` markers: (1-based line, code).
fn markers(source: &str) -> Vec<(u32, String)> {
    source
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let (_, m) = l.split_once("//~")?;
            Some((i as u32 + 1, m.trim().to_string()))
        })
        .collect()
}

/// Lint `name` under the synthetic workspace path `as_path` and assert
/// the diagnostics match the fixture's markers exactly (code and line —
/// the stable signature), with every column anchored on the line.
fn assert_fixture(name: &str, as_path: &str) -> Report {
    let source = fixture(name);
    let report = lint_source(as_path, &source);
    let got: Vec<(u32, String)> = report
        .diagnostics
        .iter()
        .map(|d| (d.line, d.code.to_string()))
        .collect();
    assert_eq!(
        got,
        markers(&source),
        "{name} under {as_path}: diagnostics diverge from //~ markers\n{:#?}",
        report.diagnostics
    );
    for d in &report.diagnostics {
        assert!(d.col >= 1, "{name}: column must be 1-based: {d}");
        assert_eq!(d.path, as_path);
        let rule = RULES.iter().find(|r| r.code == d.code).expect("known code");
        assert_eq!(d.rule, rule.name, "rule name is part of the signature");
    }
    report
}

/// A retired rule stays in the table, never fires, and an allow naming
/// it is an `OCT-LINT-000` violation (codes are never reused).
fn assert_retired(code: &str) {
    let rule = RULES.iter().find(|r| r.code == code).unwrap();
    assert!(rule.retired, "{code} is retired");
    let src = format!("fn f() {{}} // octolint: allow({code}) -- legacy allow\n");
    let report = lint_source("crates/net/src/world.rs", &src);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].code, "OCT-LINT-000");
    assert!(
        report.diagnostics[0]
            .message
            .contains(&format!("retired rule `{code}`")),
        "{}",
        report.diagnostics[0].message
    );
}

/// A token rule retired into `clippy.toml`: each of its `paths` is a
/// `disallowed-*` entry there, and the clippy-contract fixture has a
/// marked line calling or naming it (by its last path segment), so
/// `clippy_contract_fires_on_exactly_the_marked_lines` exercises it.
fn assert_retired_to_clippy(code: &str, paths: &[&str]) {
    assert_retired(code);
    let toml = std::fs::read_to_string(workspace_root().join("clippy.toml")).expect("clippy.toml");
    let contract = std::fs::read_to_string(clippy_contract_dir().join("src/lib.rs"))
        .expect("clippy-contract fixture");
    let marked: Vec<&str> = contract
        .lines()
        .filter(|l| l.contains("//~ clippy::disallowed_"))
        .collect();
    for path in paths {
        assert!(
            toml.contains(&format!("path = \"{path}\"")),
            "clippy.toml lost `{path}`, which replaced {code}"
        );
        let last = path.rsplit("::").next().unwrap();
        assert!(
            marked.iter().any(|l| l.contains(last)),
            "no marked clippy-contract line exercises `{path}`"
        );
    }
}

#[test]
fn rule_002_wall_clock_fires_with_stable_code() {
    assert_retired_to_clippy(
        "OCT-LINT-002",
        &[
            "std::time::Instant::now",
            "std::time::SystemTime",
            "std::time::SystemTime::elapsed",
        ],
    );
}

#[test]
fn rule_003_ambient_rng_fires_with_stable_code() {
    assert_retired_to_clippy(
        "OCT-LINT-003",
        &[
            "rand::thread_rng",
            "rand::random",
            "rand::SeedableRng::from_entropy",
        ],
    );
}

#[test]
fn rule_004_thread_identity_fires_with_stable_code() {
    assert_retired_to_clippy(
        "OCT-LINT-004",
        &[
            "std::thread::current",
            "std::thread::available_parallelism",
            "std::thread::ThreadId",
        ],
    );
}

/// The driver-only adversary write is a type now: protocol nodes hold
/// an `AdversaryHandle`, which has no write method, and `SecuritySim`
/// does not hand out its `ShardedAdversary`. The `compile_fail`
/// doctests on both types in `crates/core` pin that.
#[test]
fn rule_005_shard_write_fires_with_stable_code() {
    assert_retired("OCT-LINT-005");
}

#[test]
fn rule_006_unordered_flow_fires_with_stable_code() {
    assert_fixture("bad_006_unordered_flow.rs", "crates/sim/src/bad_006.rs");
    // outside the engine crates the same source is legal
    let src = fixture("bad_006_unordered_flow.rs");
    assert!(lint_source("crates/crypto/src/ok.rs", &src).is_clean());
}

#[test]
fn rule_007_float_merge_fires_with_stable_code() {
    assert_fixture("bad_007_float_merge.rs", "crates/metrics/src/bad_007.rs");
    // outside the engine crates the same source is legal
    let src = fixture("bad_007_float_merge.rs");
    assert!(lint_source("crates/crypto/src/ok.rs", &src).is_clean());
}

#[test]
fn rule_008_guard_discipline_fires_with_stable_code() {
    // retired with the shard worker pool it guarded
    assert_retired("OCT-LINT-008");
}

#[test]
fn rule_009_barrier_path_fires_with_stable_code() {
    assert_fixture("bad_009_barrier_path.rs", "crates/net/src/bad_009.rs");
}

/// `crates/spec` — the executable reference model the differential
/// suites replay engine traces through — carries the full engine-crate
/// posture: its verdicts must be as replay-stable as the engine it
/// judges, so it gets no exemption from any rule.
#[test]
fn reference_model_crate_is_engine_source() {
    // unordered-iteration dataflow is a violation in its src tree…
    assert_fixture("bad_006_unordered_flow.rs", "crates/spec/src/bad_006.rs");
    // …though, as for every crate, only in src — tests are exempt
    let src = fixture("bad_006_unordered_flow.rs");
    assert!(lint_source("crates/spec/tests/x.rs", &src).is_clean());
    // float accumulation in its merge paths too, and the barrier-path
    // rule applies as in every crate
    assert_fixture("bad_007_float_merge.rs", "crates/spec/src/bad_007.rs");
    assert_fixture("bad_009_barrier_path.rs", "crates/spec/src/bad_009.rs");
}

#[test]
fn justified_suppressions_silence_and_are_counted() {
    let report = assert_fixture("suppressed_clean.rs", "crates/net/src/suppressed.rs");
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 2, "both allows must be exercised");
    // the audited inventory is retained for the JSON artifact
    assert_eq!(report.audited.len(), 2);
    assert!(report.audited.iter().any(|d| d.code == "OCT-LINT-006"));
    assert!(report.audited.iter().any(|d| d.code == "OCT-LINT-007"));
}

#[test]
fn defective_suppressions_are_themselves_violations() {
    let report = assert_fixture("suppressed_bad.rs", "crates/sim/src/suppressed_bad.rs");
    assert!(report.diagnostics.iter().all(|d| d.code == "OCT-LINT-000"));
    // the four defect classes: retired rule, never fires, unknown rule,
    // missing justification
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("retired")));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("never fires")));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("unknown rule")));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.message.contains("lacks a justification")));
}

#[test]
fn lexer_false_positive_guard() {
    let report = assert_fixture("tricky_clean.rs", "crates/sim/src/tricky.rs");
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 0);
}

/// The statement tree the dataflow/concurrency rules consume, pinned on
/// the torture fixture (nested closures, `macro_rules!`, raw strings in
/// match guards, expression-position generics, else-if chains). Any
/// parser change that reshapes this must update the expectation
/// consciously.
#[test]
fn parser_torture_tree_is_stable() {
    let tree = parse_debug(&fixture("torture_parse.rs"));
    assert!(
        !tree.contains("error "),
        "torture fixture must parse without structural errors:\n{tree}"
    );
    let expected = "\
fn tally @19
  let [acc] :ty =init @20:9
  for [x] @21:9
    let [add] =init @22:13
      cond-let [n] @23:17
        expr @24:21
        expr @26:21
    expr @29:13
  expr @31:9
    expr @32:13
    expr @33:13
      let [parsed] =init @34:17
      let [cmp] =init @35:17
      let [] =init @36:17
      expr @37:17
    expr @39:13
fn edge_cases @44
  let [total] =init @45:5
  expr @46:5
    expr @47:9
  expr @49:5
    expr @50:9
    expr @52:9
    expr @54:9
  expr @51:15
  cond-let [v] @56:5
    expr @57:9
    expr @58:9
  expr @60:5
    expr @61:9
    expr @62:9
      expr @63:13
  expr @66:5
    expr @67:9
  expr @69:5
";
    assert_eq!(tree, expected, "statement tree diverged:\n{tree}");
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn clippy_contract_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy_contract")
}

/// The determinism contract's clippy half, end to end: clippy, reading
/// the repository's `clippy.toml` (found by walking up from the
/// fixture's manifest), must fire on every `//~ <lint>` line of the
/// clippy-contract fixture, with that lint, and on no other line.
/// Ignored in tier-1 because it runs `cargo clippy` on a package of its
/// own; CI's octolint job runs it with `--ignored`.
#[test]
#[ignore = "runs cargo clippy on the clippy-contract fixture; CI runs it with --ignored"]
fn clippy_contract_fires_on_exactly_the_marked_lines() {
    let dir = clippy_contract_dir();
    let out = std::process::Command::new("cargo")
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--message-format=json-diagnostic-short",
            "--manifest-path",
        ])
        .arg(dir.join("Cargo.toml"))
        .output()
        .expect("run cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // one JSON object per line; a compiler message's short rendering
    // starts `src/lib.rs:LINE:COL: `, and its lint is the one non-null
    // `code` (child notes carry none)
    let mut got: Vec<(u32, String)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-message\""))
        .map(|l| {
            let rendered = l.split_once("\"rendered\":\"").map_or("", |(_, r)| r);
            let line = rendered
                .strip_prefix("src/lib.rs:")
                .and_then(|r| r.split(':').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            let code = l
                .rsplit_once("\"code\":{\"code\":\"")
                .and_then(|(_, c)| c.split('"').next())
                .unwrap_or("<no code>");
            (line, code.to_string())
        })
        .collect();
    got.sort();
    let source = std::fs::read_to_string(dir.join("src/lib.rs")).expect("read fixture");
    assert_eq!(
        got,
        markers(&source),
        "clippy's diagnostics on the clippy-contract fixture diverge from its //~ markers"
    );
}

/// Parser totality on the real tree: every scanned file must produce a
/// structurally error-free statement tree. A file octolint cannot parse
/// would surface as an OCT-LINT-000 violation in CI — this test points
/// at the parser directly so the failure names the file.
#[test]
fn real_tree_parses_structurally() {
    let root = workspace_root();
    let paths = scan_paths(&root).expect("walk workspace");
    assert!(paths.len() > 60, "walker broke: {} files", paths.len());
    for rel in paths {
        let src = std::fs::read_to_string(root.join(&rel)).expect("read");
        let tree = parse_debug(&src);
        for line in tree.lines() {
            assert!(
                !line.starts_with("error "),
                "{} does not parse: {line}",
                rel.display()
            );
        }
    }
}

/// The VEF false-positive guard on the real tree: the workspace, with
/// its justified suppressions, lints clean — so the CI gate only ever
/// fails on a *new* contract violation.
#[test]
fn real_tree_passes_clean() {
    let report = lint_tree(&workspace_root()).expect("scan workspace");
    assert!(
        report.is_clean(),
        "determinism-contract violations in the tree:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 60,
        "suspiciously few files scanned ({}) — walker broke?",
        report.files_scanned
    );
    // the whole audited allow inventory: the one float-merge allow on
    // merge_point_series's fixed-order trial sum. A new allow, or this
    // one deleted without its float sum, shows up here
    let inventory: Vec<(&str, &str)> = report
        .audited
        .iter()
        .map(|d| (d.path.as_str(), d.code))
        .collect();
    assert_eq!(
        inventory,
        [("crates/metrics/src/merge.rs", "OCT-LINT-007")],
        "the audited allow inventory changed: re-audit before updating this list"
    );
}

/// Diagnostics are replay-stable: two scans of the same tree produce
/// byte-identical, path-sorted output — and the JSON rendering is
/// byte-identical too.
#[test]
fn output_is_deterministic_and_sorted() {
    let a = lint_tree(&workspace_root()).expect("scan");
    let b = lint_tree(&workspace_root()).expect("scan");
    let render = |r: &Report| {
        r.diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&a), render(&b));
    let mut sorted = a.diagnostics.clone();
    sorted.sort();
    assert_eq!(a.diagnostics, sorted);
    assert_eq!(a.to_json(), b.to_json(), "JSON artifact must diff cleanly");
}

/// The machine-readable schema the CI artifact uploads: stable keys,
/// audited suppressions included with `"suppressed": true`.
#[test]
fn json_format_exposes_audited_allows() {
    let report = lint_tree(&workspace_root()).expect("scan");
    let json = report.to_json();
    assert!(json.contains("\"schema\": 1"));
    assert!(json.contains("\"violations\": 0"));
    assert!(
        json.contains("\"suppressed\": true"),
        "audited allows present"
    );
    for key in [
        "\"path\": ",
        "\"line\": ",
        "\"col\": ",
        "\"code\": ",
        "\"rule\": ",
        "\"message\": ",
    ] {
        assert!(json.contains(key), "schema key {key} missing");
    }
}

/// End-to-end exit codes through the real binary: 0 clean, 1 violation,
/// 2 usage error — the contract the CI job and scripts rely on.
#[test]
fn cli_exit_codes_are_script_friendly() {
    let bin = env!("CARGO_BIN_EXE_octolint");
    let clean = std::process::Command::new(bin)
        .args(["--quiet", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run octolint");
    assert_eq!(clean.status.code(), Some(0), "clean tree must exit 0");
    assert!(
        clean.stdout.is_empty(),
        "--quiet on a clean tree prints nothing"
    );

    // a throwaway bad tree under target/ (gitignored, inside the repo)
    let bad_root = workspace_root().join("target/octolint-exit-code-fixture");
    let src_dir = bad_root.join("crates/sim/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        src_dir.join("bad.rs"),
        "fn f(m: &std::collections::HashMap<u8, u8>, out: &mut Vec<u8>) {\n\
             for k in m.keys() { out.push(*k); }\n\
         }\n",
    )
    .expect("write");
    let dirty = std::process::Command::new(bin)
        .args(["--quiet", "--root"])
        .arg(&bad_root)
        .output()
        .expect("run octolint");
    assert_eq!(dirty.status.code(), Some(1), "violations must exit 1");
    let out = String::from_utf8_lossy(&dirty.stdout);
    assert!(out.contains("OCT-LINT-006"), "diagnostic printed: {out}");

    let json_run = std::process::Command::new(bin)
        .args(["--format", "json", "--root"])
        .arg(&bad_root)
        .output()
        .expect("run octolint");
    assert_eq!(json_run.status.code(), Some(1), "json run keeps exit codes");
    let json = String::from_utf8_lossy(&json_run.stdout);
    assert!(
        json.contains("\"code\": \"OCT-LINT-006\""),
        "json body: {json}"
    );

    let usage = std::process::Command::new(bin)
        .arg("--no-such-flag")
        .output()
        .expect("run octolint");
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
}
