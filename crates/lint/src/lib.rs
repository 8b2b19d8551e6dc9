//! `octolint` — the determinism-contract static-analysis pass.
//!
//! The engine's headline property is byte-identical replay across
//! shard counts × scheduler backends. The equivalence-matrix
//! tests enforce that *dynamically*, which means a nondeterminism
//! source can hide until a workload happens to exercise it. This crate
//! enforces the contract *statically*: it walks the workspace sources
//! and flags the constructs that historically break replay, as named
//! rules with stable diagnostic codes (the VEF stable-signature style):
//!
//! | code | rule | contract clause |
//! |---|---|---|
//! | `OCT-LINT-001` | `nondet-iteration` | **retired** — superseded by the precise dataflow rule `OCT-LINT-006`; the blanket `HashMap`/`HashSet` type ban forced allows for keyed-access-only maps |
//! | `OCT-LINT-002` | `wall-clock` | **retired** — `clippy.toml` bans `std::time`'s clock reads (`SystemTime`, `SystemTime::elapsed` and the monotonic clock's `now`) |
//! | `OCT-LINT-003` | `ambient-rng` | **retired** — `clippy.toml` bans `thread_rng`, `random` and `SeedableRng::from_entropy` |
//! | `OCT-LINT-004` | `thread-identity` | **retired** — `clippy.toml` bans `thread::current`, `ThreadId` and `available_parallelism` |
//! | `OCT-LINT-005` | `shard-unsafe-write` | **retired** — protocol nodes hold an `AdversaryHandle`, which has no write method; only the simulation driver owns the `ShardedAdversary` |
//! | `OCT-LINT-006` | `unordered-flow` | no binding produced by `HashMap`/`HashSet` iteration may flow into an order-sensitive sink (push/insert/entry/extend/append/fold/hash/emit) without an intervening sort — keyed access is fine |
//! | `OCT-LINT-007` | `float-merge` | no f32/f64 `+=`/`sum()`/`fold` inside merge paths (`impl Merge`, `absorb`, `*merge*` fns) — float addition is not associative, so merge order changes results |
//! | `OCT-LINT-008` | `guard-discipline` | **retired** — it guarded lock discipline in the shard worker pool, which is gone; a world runs on one thread |
//! | `OCT-LINT-009` | `barrier-panic-path` | shard batch execution (`run_batch`, `run_one`) must be reachable only through `catch_unwind`-covered call paths, checked by an intra-crate call-graph walk |
//!
//! Plus the meta-rule `OCT-LINT-000` (`analyzer-integrity`): a
//! suppression that lacks a justification, names an unknown or retired
//! rule, or never fires is itself a violation — and so is a file the
//! analyzer cannot parse (a parse failure is a lint error, never a
//! silent skip).
//!
//! The token half of the contract (wall clock, ambient entropy, thread
//! identity) is `clippy.toml`'s: clippy resolves paths with type
//! information, and the clippy-contract fixture under
//! `tests/fixtures/clippy_contract` pins every entry. octolint keeps
//! what clippy cannot express.
//!
//! Suppressions are explicit and auditable, one per offending line:
//!
//! ```text
//! *self.sent.entry(node).or_default() += bytes; // octolint: allow(OCT-LINT-006) -- commutative u64 merge
//! ```
//!
//! The analyzer is deliberately dependency-free (no `syn`; the vendor
//! tree is offline). Since v2 it is no longer a token grep: one shared
//! lex+parse pass per file (`lexer`, `parser`) produces a
//! per-function statement tree with scope-tracked bindings, and the
//! rule families (`rules`) consume that shared product — taint-style
//! dataflow for 006/007 and an intra-crate call-graph fixpoint for 009.
//!
//! Diagnostics are path-sorted and line-sorted, so the tool's own
//! output is replay-stable. Exit codes are script-friendly: 0 clean,
//! 1 violations, 2 usage/IO error. `--format json` renders the same
//! diagnostics (including audited suppressions) as a stable
//! machine-readable schema.

#![forbid(unsafe_code)]

mod lexer;
mod parser;
mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{Lexed, Suppression};
use rules::{Candidate, FileCtx};

/// One enforced rule of the determinism contract.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable diagnostic code (`OCT-LINT-XXX`).
    pub code: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line contract clause, shown by `--list-rules`.
    pub summary: &'static str,
    /// Retired rules stay in the table (codes are never reused) but no
    /// longer fire; suppressions naming them are audit violations.
    pub retired: bool,
}

/// The rule table (the meta-rule `OCT-LINT-000` first, then 001..009).
pub const RULES: &[Rule] = &[
    Rule {
        code: "OCT-LINT-000",
        name: "analyzer-integrity",
        summary: "suppressions must carry a justification, name a known live rule, and \
                  actually fire; files must parse (a parse failure is a violation, \
                  never a silent skip)",
        retired: false,
    },
    Rule {
        code: "OCT-LINT-001",
        name: "nondet-iteration",
        summary: "RETIRED (superseded by OCT-LINT-006): the blanket HashMap/HashSet type \
                  ban flagged keyed-access-only maps; the dataflow rule flags the actual \
                  hazard — unordered iteration reaching order-sensitive sinks",
        retired: true,
    },
    Rule {
        code: "OCT-LINT-002",
        name: "wall-clock",
        summary: "RETIRED (clippy.toml's disallowed std::time clock reads): simulated \
                  time comes from the event queue",
        retired: true,
    },
    Rule {
        code: "OCT-LINT-003",
        name: "ambient-rng",
        summary: "RETIRED (clippy.toml's disallowed thread_rng, random and \
                  SeedableRng::from_entropy): every stream derives from the master seed",
        retired: true,
    },
    Rule {
        code: "OCT-LINT-004",
        name: "thread-identity",
        summary: "RETIRED (clippy.toml's disallowed thread::current, ThreadId and \
                  available_parallelism): results must not depend on thread count or identity",
        retired: true,
    },
    Rule {
        code: "OCT-LINT-005",
        name: "shard-unsafe-write",
        summary: "RETIRED (a type: protocol nodes hold an AdversaryHandle, which only \
                  reads; the simulation driver alone owns the ShardedAdversary)",
        retired: true,
    },
    Rule {
        code: "OCT-LINT-006",
        name: "unordered-flow",
        summary: "no HashMap/HashSet iteration flowing into order-sensitive sinks \
                  (push/insert/entry/extend/append/fold/hash/emit) without a sort: \
                  iteration order is seeded per process; keyed access is fine",
        retired: false,
    },
    Rule {
        code: "OCT-LINT-007",
        name: "float-merge",
        summary: "no f32/f64 +=/sum()/fold in merge paths (impl Merge / absorb / *merge*): \
                  float addition is not associative, so merge order changes results",
        retired: false,
    },
    Rule {
        code: "OCT-LINT-008",
        name: "guard-discipline",
        summary: "RETIRED (the shard worker pool it guarded is gone; a world runs on \
                  one thread): no second lock and no potential panic while a lock \
                  guard is live in the barrier modules",
        retired: true,
    },
    Rule {
        code: "OCT-LINT-009",
        name: "barrier-panic-path",
        summary: "shard batch execution (run_batch, run_one) must be reachable only \
                  through catch_unwind-covered call paths (intra-crate call-graph walk)",
        retired: false,
    },
];

fn rule_by_code(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

/// One diagnostic, anchored to a file/line/column.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated on every platform.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the triggering token.
    pub col: u32,
    /// Stable rule code.
    pub code: &'static str,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}] {}",
            self.path, self.line, self.col, self.code, self.rule, self.message
        )
    }
}

/// Result of linting one file or a whole tree.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Violations, sorted by (path, line, col, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics silenced by a justified suppression — retained so
    /// `--format json` can expose the audited allow inventory.
    pub audited: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Diagnostics silenced by a justified suppression (== `audited.len()`).
    pub suppressed: usize,
}

impl Report {
    /// True when no violation survived.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the report as the stable machine-readable JSON schema:
    /// top-level `schema`/`files_scanned`/`violations`/`suppressed`
    /// counters plus a `diagnostics` array of
    /// `{path, line, col, code, rule, message, suppressed}` objects,
    /// sorted by (path, line, col, code) with audited (suppressed)
    /// entries merged in.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut entries: Vec<(&Diagnostic, bool)> = self
            .diagnostics
            .iter()
            .map(|d| (d, false))
            .chain(self.audited.iter().map(|d| (d, true)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"violations\": {},\n", self.diagnostics.len()));
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str("  \"diagnostics\": [");
        for (i, (d, suppressed)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"code\": \"{}\", \
                 \"rule\": \"{}\", \"message\": \"{}\", \"suppressed\": {}}}",
                esc(&d.path),
                d.line,
                d.col,
                d.code,
                d.rule,
                esc(&d.message),
                suppressed
            ));
        }
        if !entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Single-pass engine
// ---------------------------------------------------------------------------

/// The shared per-file analysis product: lexed once, parsed once, then
/// handed to every rule family.
struct FileAnalysis {
    rel: String,
    lexed: Lexed,
    parsed: parser::ParsedFile,
}

fn analyze(rel: &str, source: &str) -> FileAnalysis {
    let lexed = lexer::lex(source);
    let parsed = parser::parse(&lexed.tokens);
    FileAnalysis {
        rel: rel.to_string(),
        lexed,
        parsed,
    }
}

/// Per-file rule families (006, 007) plus parse-integrity candidates.
/// 009 is cross-file and runs per crate group.
fn file_candidates(fa: &FileAnalysis) -> Vec<Candidate> {
    let ctx = FileCtx {
        rel: &fa.rel,
        toks: &fa.lexed.tokens,
        parsed: &fa.parsed,
    };
    let mut out = Vec::new();
    for (line, col, msg) in &fa.parsed.errors {
        out.push(Candidate {
            line: *line,
            col: *col,
            code: "OCT-LINT-000",
            message: format!(
                "octolint could not parse this file ({msg}): a parse failure is a lint \
                 error, never a silent skip — simplify the construct or extend the parser"
            ),
        });
    }
    rules::dataflow::check(&ctx, &mut out);
    rules::float_merge::check(&ctx, &mut out);
    out
}

/// Suppression filtering: match candidates to same-line allows, audit
/// the allows themselves, dedup per (line, code), sort.
fn finalize(
    rel: &str,
    suppressions: &[Suppression],
    mut candidates: Vec<Candidate>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    // one diagnostic per (line, rule): `map.keys()...fold(..)` on one
    // line is one hazard, not two
    candidates.sort_by_key(|c| (c.line, c.code, c.col));
    let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    candidates.retain(|c| seen.insert((c.line, c.code)));

    let by_line: BTreeMap<u32, usize> = suppressions
        .iter()
        .enumerate()
        .map(|(idx, s)| (s.line, idx))
        .collect();
    let mut used = vec![false; suppressions.len()];
    let mut diagnostics = Vec::new();
    let mut audited = Vec::new();

    for c in candidates {
        let covering = by_line
            .get(&c.line)
            .copied()
            .filter(|&idx| suppressions[idx].codes.iter().any(|code| code == c.code));
        match covering {
            Some(idx) => {
                used[idx] = true;
                let rule = rule_by_code(c.code).expect("candidate codes come from RULES");
                if suppressions[idx].justified {
                    audited.push(Diagnostic {
                        path: rel.to_string(),
                        line: c.line,
                        col: c.col,
                        code: c.code,
                        rule: rule.name,
                        message: c.message,
                    });
                } else {
                    diagnostics.push(Diagnostic {
                        path: rel.to_string(),
                        line: c.line,
                        col: c.col,
                        code: "OCT-LINT-000",
                        rule: "analyzer-integrity",
                        message: format!(
                            "suppression of {} lacks a justification: write \
                             `octolint: allow({}) -- <why this site is safe>`",
                            c.code, c.code
                        ),
                    });
                }
            }
            None => {
                let rule = rule_by_code(c.code).expect("candidate codes come from RULES");
                diagnostics.push(Diagnostic {
                    path: rel.to_string(),
                    line: c.line,
                    col: c.col,
                    code: c.code,
                    rule: rule.name,
                    message: c.message,
                });
            }
        }
    }

    // audit the suppressions themselves
    for (idx, s) in suppressions.iter().enumerate() {
        let mut names_ok = true;
        for code in &s.codes {
            match rule_by_code(code) {
                None => {
                    names_ok = false;
                    diagnostics.push(Diagnostic {
                        path: rel.to_string(),
                        line: s.line,
                        col: s.col,
                        code: "OCT-LINT-000",
                        rule: "analyzer-integrity",
                        message: format!("suppression names unknown rule `{code}`"),
                    });
                }
                Some(rule) if rule.retired => {
                    names_ok = false;
                    diagnostics.push(Diagnostic {
                        path: rel.to_string(),
                        line: s.line,
                        col: s.col,
                        code: "OCT-LINT-000",
                        rule: "analyzer-integrity",
                        message: format!(
                            "suppression names retired rule `{code}`: {} — migrate or \
                             remove the allow",
                            rule.summary
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        if !used[idx] && names_ok {
            diagnostics.push(Diagnostic {
                path: rel.to_string(),
                line: s.line,
                col: s.col,
                code: "OCT-LINT-000",
                rule: "analyzer-integrity",
                message: format!(
                    "suppression of {} never fires on this line: remove it or move it \
                     to the offending line",
                    s.codes.join(", ")
                ),
            });
        }
    }

    diagnostics.sort();
    audited.sort();
    (diagnostics, audited)
}

/// Lint one file's source under its workspace-relative path.
///
/// The file is treated as its own crate for the cross-file rule
/// `OCT-LINT-009` (intra-file call graph), which is exactly right for
/// fixtures and single-file checks.
///
/// Suppression semantics: a justified `// octolint: allow(CODE) -- why`
/// on the offending line silences that rule there; an unjustified,
/// unknown-rule, retired-rule, or never-firing suppression is reported
/// as `OCT-LINT-000`.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str) -> Report {
    let fa = analyze(rel_path, source);
    let mut candidates = file_candidates(&fa);
    let ctx = FileCtx {
        rel: &fa.rel,
        toks: &fa.lexed.tokens,
        parsed: &fa.parsed,
    };
    for (_, c) in rules::barrier::check_crate(std::slice::from_ref(&ctx)) {
        candidates.push(c);
    }
    let (diagnostics, audited) = finalize(rel_path, &fa.lexed.suppressions, candidates);
    Report {
        suppressed: audited.len(),
        diagnostics,
        audited,
        files_scanned: 1,
    }
}

/// Debug view of the statement tree (the parser-torture contract):
/// `fn name [pub] [impl:Trait]` lines followed by indented
/// `let/for/cond-let/expr` statement lines, then any parse errors.
#[must_use]
pub fn parse_debug(source: &str) -> String {
    let lexed = lexer::lex(source);
    let parsed = parser::parse(&lexed.tokens);
    parser::debug_tree(&parsed)
}

// ---------------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------------

/// Collect the workspace-relative `.rs` paths `octolint` scans, sorted:
/// `crates/*/{src,tests,benches,examples}`, plus the root package's
/// `src/`, `tests/`, `examples/` and `benches/`. `vendor/` (offline
/// shims of external crates) and any directory named `fixtures` (the
/// lint's own known-bad corpus) are excluded.
pub fn scan_paths(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut roots: Vec<PathBuf> = Vec::new();
    for sub in ["src", "tests", "examples", "benches"] {
        roots.push(root.join(sub));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if dir.is_dir() {
                for sub in ["src", "tests", "examples", "benches"] {
                    roots.push(dir.join(sub));
                }
            }
        }
    }
    let mut files = Vec::new();
    for r in roots {
        if r.is_dir() {
            collect_rs(&r, &mut files)?;
        }
    }
    for f in &mut files {
        *f = f
            .strip_prefix(root)
            .map(Path::to_path_buf)
            .unwrap_or_else(|_| f.clone());
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Crate-group key for the cross-file rule: `crates/X/src/*` files
/// analyze together; everything else groups by its top-level dir.
fn crate_group(rel: &str) -> Option<String> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.strip_prefix("src/").map(|_| format!("crates/{name}"))
}

/// Lint the whole workspace rooted at `root`.
///
/// Every file is lexed and parsed exactly once; the per-file rule
/// families consume the shared product, then `OCT-LINT-009` runs once
/// per crate group over the retained analyses.
///
/// # Errors
/// Propagates IO errors from walking or reading sources (the CLI maps
/// those to exit code 2).
pub fn lint_tree(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut analyses: Vec<FileAnalysis> = Vec::new();
    let mut candidates: Vec<Vec<Candidate>> = Vec::new();
    for rel in scan_paths(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let fa = analyze(&rel_str, &source);
        let cands = file_candidates(&fa);
        analyses.push(fa);
        candidates.push(cands);
        report.files_scanned += 1;
    }

    // cross-file: OCT-LINT-009 per crate group
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, fa) in analyses.iter().enumerate() {
        if let Some(key) = crate_group(&fa.rel) {
            groups.entry(key).or_default().push(idx);
        }
    }
    for members in groups.values() {
        let ctxs: Vec<FileCtx<'_>> = members
            .iter()
            .map(|&i| FileCtx {
                rel: &analyses[i].rel,
                toks: &analyses[i].lexed.tokens,
                parsed: &analyses[i].parsed,
            })
            .collect();
        for (local_idx, c) in rules::barrier::check_crate(&ctxs) {
            candidates[members[local_idx]].push(c);
        }
    }

    for (fa, cands) in analyses.iter().zip(candidates) {
        let (diagnostics, audited) = finalize(&fa.rel, &fa.lexed.suppressions, cands);
        report.diagnostics.extend(diagnostics);
        report.suppressed += audited.len();
        report.audited.extend(audited);
    }
    report.diagnostics.sort();
    report.audited.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_comments_strings_and_attrs() {
        // each stripped region holds a live rule's trigger: a HashMap key
        // flowing into `push` (006), a float `+=` in a merge path (007)
        // and an uncovered `run_batch` call from a `pub fn` (009)
        let live = "pub fn absorb(m: &HashMap<u8, u8>, out: &mut Vec<u8>, acc: &mut f64) {\n\
                        for k in m.keys() { out.push(*k); }\n\
                        *acc += 0.5;\n\
                        run_batch(0);\n\
                    }\n";
        let rep = lint_source("crates/sim/src/fake.rs", live);
        let codes: Vec<&str> = rep.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["OCT-LINT-006", "OCT-LINT-007", "OCT-LINT-009"]);

        let src = r##"
            pub fn absorb(m: &HashMap<u8, u8>, out: &mut Vec<u8>, acc: &mut f64) {
                // for k in m.keys() { out.push(*k); } *acc += 0.5; run_batch(0);
                /* for k in m.keys() { out.push(*k); } /* nested */ run_batch(0); */
                #[doc = stringify!(run_batch(0))]
                let s = "for k in m.keys() { out.push(*k); } *acc += 0.5;";
                let r = r#"run_batch(0) "quoted" too"#;
                let c = 'x';
                let _ = (m, out, acc, s, r, c);
            }
        "##;
        let rep = lint_source("crates/sim/src/fake.rs", src);
        assert!(rep.is_clean(), "false positives: {:?}", rep.diagnostics);
    }

    #[test]
    fn lifetimes_do_not_derail_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = '\\''; let _ = c; x }\n\
                   fn g(out: &mut Vec<u8>) {\n\
                       let m = std::collections::HashMap::<u8, u8>::new();\n\
                       for k in m.keys() { out.push(*k); }\n\
                   }\n";
        let rep = lint_source("crates/net/src/fake.rs", src);
        assert_eq!(rep.diagnostics.len(), 1, "{:#?}", rep.diagnostics);
        assert_eq!(rep.diagnostics[0].code, "OCT-LINT-006");
        assert_eq!(rep.diagnostics[0].line, 4);
    }

    #[test]
    fn engine_scope_is_path_based() {
        let src = "fn f(out: &mut Vec<u8>) {\n\
                       let m = std::collections::HashMap::<u8, u8>::new();\n\
                       for k in m.keys() { out.push(*k); }\n\
                   }\n";
        assert!(!lint_source("crates/sim/src/x.rs", src).is_clean());
        assert!(lint_source("crates/crypto/src/x.rs", src).is_clean());
        assert!(lint_source("crates/sim/tests/x.rs", src).is_clean());
    }

    #[test]
    fn keyed_access_no_longer_needs_an_allow() {
        // the exact shape the retired OCT-LINT-001 forced allows for
        let src = "fn f(m: &std::collections::HashMap<u32, u32>, k: u32) -> Option<u32> {\n\
                       m.get(&k).copied()\n\
                   }\n";
        let rep = lint_source("crates/net/src/x.rs", src);
        assert!(rep.is_clean(), "{:#?}", rep.diagnostics);
    }

    #[test]
    fn suppression_must_be_justified_and_fire() {
        let ok = "fn f(out: &mut Vec<u8>) {\n\
                      let m = std::collections::HashMap::<u8, u8>::new();\n\
                      for k in m.keys() { out.push(*k); } // octolint: allow(OCT-LINT-006) -- demo\n\
                  }\n";
        let rep = lint_source("crates/sim/src/x.rs", ok);
        assert!(rep.is_clean(), "{:#?}", rep.diagnostics);
        assert_eq!(rep.suppressed, 1);
        assert_eq!(rep.audited.len(), 1);
        assert_eq!(rep.audited[0].code, "OCT-LINT-006");

        let bare = "fn f(out: &mut Vec<u8>) {\n\
                        let m = std::collections::HashMap::<u8, u8>::new();\n\
                        for k in m.keys() { out.push(*k); } // octolint: allow(OCT-LINT-006)\n\
                    }\n";
        let rep = lint_source("crates/sim/src/x.rs", bare);
        assert_eq!(rep.diagnostics.len(), 1);
        assert_eq!(rep.diagnostics[0].code, "OCT-LINT-000");

        let unused = "fn f() {} // octolint: allow(OCT-LINT-006) -- nothing here";
        let rep = lint_source("crates/sim/src/x.rs", unused);
        assert_eq!(rep.diagnostics.len(), 1);
        assert_eq!(rep.diagnostics[0].code, "OCT-LINT-000");
    }

    #[test]
    fn retired_rule_allows_are_flagged() {
        let src = "fn f() {} // octolint: allow(OCT-LINT-001) -- legacy keyed-access allow";
        let rep = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(rep.diagnostics.len(), 1, "{:#?}", rep.diagnostics);
        assert_eq!(rep.diagnostics[0].code, "OCT-LINT-000");
        assert!(
            rep.diagnostics[0].message.contains("retired"),
            "{}",
            rep.diagnostics[0].message
        );
    }

    #[test]
    fn parse_failure_is_a_violation_not_a_skip() {
        let src = "fn f() { let x = 1;\n"; // unbalanced brace
        let rep = lint_source("crates/sim/src/x.rs", src);
        assert!(
            rep.diagnostics.iter().any(|d| d.code == "OCT-LINT-000"),
            "{:#?}",
            rep.diagnostics
        );
    }

    #[test]
    fn json_schema_is_stable_and_escaped() {
        let src = "fn f(out: &mut Vec<u8>) {\n\
                       let m = std::collections::HashMap::<u8, u8>::new();\n\
                       for k in m.keys() { out.push(*k); }\n\
                   }\n";
        let rep = lint_source("crates/sim/src/json \"quote\".rs", src);
        let json = rep.to_json();
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"code\": \"OCT-LINT-006\""));
        assert!(json.contains("json \\\"quote\\\".rs"));
        assert!(json.contains("\"suppressed\": false"));
    }

    #[test]
    fn rule_codes_are_stable() {
        let codes: Vec<&str> = RULES.iter().map(|r| r.code).collect();
        assert_eq!(
            codes,
            [
                "OCT-LINT-000",
                "OCT-LINT-001",
                "OCT-LINT-002",
                "OCT-LINT-003",
                "OCT-LINT-004",
                "OCT-LINT-005",
                "OCT-LINT-006",
                "OCT-LINT-007",
                "OCT-LINT-008",
                "OCT-LINT-009",
            ]
        );
        let retired: Vec<&str> = RULES.iter().filter(|r| r.retired).map(|r| r.code).collect();
        assert_eq!(
            retired,
            [
                "OCT-LINT-001",
                "OCT-LINT-002",
                "OCT-LINT-003",
                "OCT-LINT-004",
                "OCT-LINT-005",
                "OCT-LINT-008",
            ],
            "codes are never reused"
        );
    }
}
