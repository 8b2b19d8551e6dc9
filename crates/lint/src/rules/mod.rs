//! Rule families. Every family consumes the shared lex+parse product
//! of a file ([`FileCtx`]) and emits [`Candidate`] violations; the
//! engine in `lib.rs` applies suppression filtering and rendering.

pub(crate) mod barrier;
pub(crate) mod dataflow;
pub(crate) mod float_merge;

use crate::lexer::Tok;
use crate::parser::ParsedFile;

/// Source prefixes where the engine-state rules (006/007) apply: the
/// deterministic engine crates whose state feeds replayed results.
pub(crate) const ENGINE_SRC: &[&str] = &[
    "crates/sim/src/",
    "crates/net/src/",
    "crates/core/src/",
    "crates/id/src/",
    "crates/metrics/src/",
    "crates/spec/src/",
];

/// `OCT-LINT-009` protected callees: shard batch execution, and the
/// one-event step a zero-lookahead window takes instead. A panic
/// escaping one of these without `catch_unwind` coverage skips the
/// barrier merge and leaves the world inconsistent.
pub(crate) const BARRIER_PROTECTED: &[&str] = &["run_batch", "run_one"];

pub(crate) fn engine_src(path: &str) -> bool {
    ENGINE_SRC.iter().any(|p| path.starts_with(p))
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
