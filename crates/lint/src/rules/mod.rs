//! Rule families. Every family consumes the shared lex+parse product
//! of a file ([`FileCtx`]) and emits [`Candidate`] violations; the
//! engine in `lib.rs` applies suppression filtering and rendering.

pub(crate) mod barrier;
pub(crate) mod dataflow;
pub(crate) mod float_merge;
pub(crate) mod token_rules;

use crate::lexer::Tok;
use crate::parser::ParsedFile;

/// Source prefixes where the engine-state rules (006/005) apply: the
/// deterministic engine crates whose state feeds replayed results.
pub(crate) const ENGINE_SRC: &[&str] = &[
    "crates/sim/src/",
    "crates/net/src/",
    "crates/core/src/",
    "crates/id/src/",
    "crates/metrics/src/",
    "crates/spec/src/",
];

/// `OCT-LINT-002` exemptions: the bench harness times real wall-clock,
/// and `crates/transport` is the sanctioned home for real time — its
/// UDP host keys the timer wheel off `Instant` by design, *outside* the
/// deterministic engine boundary. (`octolint`'s own `--timing` helper
/// is *not* exempt — it carries a justified allow, dogfooding the
/// suppression audit.)
pub(crate) const WALL_CLOCK_EXEMPT: &[&str] = &["crates/bench/", "crates/transport/"];

/// `OCT-LINT-003` exemption: `crates/transport` is the sanctioned home
/// for deployment-facing entropy. Note the crate *still* derives every
/// RNG from the master seed (`derive_rng`/`split_seed`) — the exemption
/// records that ambient entropy would be *architecturally acceptable*
/// there (it sits outside the replayed engine), not that it is used.
/// Engine crates keep the rule unconditionally.
pub(crate) const AMBIENT_RNG_EXEMPT: &[&str] = &["crates/transport/"];

/// `OCT-LINT-004` exemption: the one sanctioned fan-out sizing site,
/// `RunArgs`, which sizes the trial fan-out (never an input to
/// results).
pub(crate) const THREAD_IDENTITY_EXEMPT: &[&str] = &["crates/bench/src/lib.rs"];

/// `OCT-LINT-005` exemptions: the simulation driver module that
/// legitimately takes the adversary write lock between windows, and the
/// module defining the lock itself.
pub(crate) const SHARD_WRITE_EXEMPT: &[&str] =
    &["crates/core/src/simnet.rs", "crates/core/src/adversary.rs"];

/// `OCT-LINT-009` protected callees: shard batch execution. A panic
/// escaping one of these without `catch_unwind` coverage skips the
/// barrier merge and leaves the world inconsistent.
pub(crate) const BARRIER_PROTECTED: &[&str] = &["run_batch"];

pub(crate) fn has_prefix(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

pub(crate) fn engine_src(path: &str) -> bool {
    has_prefix(path, ENGINE_SRC)
}

/// The shared per-file analysis product handed to every rule family.
pub(crate) struct FileCtx<'a> {
    /// Workspace-relative `/`-separated path.
    pub(crate) rel: &'a str,
    /// Stripped token stream (comments/strings/attrs/uses removed).
    pub(crate) toks: &'a [Tok],
    /// Statement tree.
    pub(crate) parsed: &'a ParsedFile,
}

/// Candidate violation before suppression filtering.
pub(crate) struct Candidate {
    pub(crate) line: u32,
    pub(crate) col: u32,
    pub(crate) code: &'static str,
    pub(crate) message: String,
}

/// Does `tokens[i..]` spell out `pat` (each entry one token)?
pub(crate) fn seq(tokens: &[Tok], i: usize, pat: &[&str]) -> bool {
    pat.len() <= tokens.len().saturating_sub(i)
        && pat.iter().zip(&tokens[i..]).all(|(p, t)| t.text == *p)
}

/// Is token `i` a method call `.name(` for any `name` in `names`?
pub(crate) fn is_method_call(toks: &[Tok], i: usize, names: &[&str]) -> bool {
    toks[i].ident
        && names.contains(&toks[i].text.as_str())
        && i > 0
        && toks[i - 1].text == "."
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
}

/// Is token `i` a call `name(` / `.name(` for any `name` in `names`?
pub(crate) fn is_call(toks: &[Tok], i: usize, names: &[&str]) -> bool {
    toks[i].ident
        && names.contains(&toks[i].text.as_str())
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
        && !(i > 0 && toks[i - 1].text == "fn")
}
