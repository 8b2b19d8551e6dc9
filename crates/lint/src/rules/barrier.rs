//! `OCT-LINT-009` — barrier-path panic safety.
//!
//! Shard batch execution (`run_batch`, or `run_one` when a window has
//! zero lookahead and steps one event) runs between window barriers.
//! If a batch panic escapes uncaught, the barrier is skipped: the clock
//! does not advance past the completed events and the window's emitted
//! controls are neither returned nor discarded, so a driver that
//! catches the panic and keeps stepping holds an inconsistent world. The
//! contract: every call into a protected callee must be lexically
//! covered by `catch_unwind`, or reached only *through* functions whose
//! own call sites are covered. This rule walks the intra-crate call
//! graph to check reachability:
//!
//! 1. a call to a protected callee outside any `catch_unwind(..)`
//!    argument range marks the containing fn **hot**;
//! 2. hotness propagates to callers whose call sites are themselves
//!    uncovered;
//! 3. a hot fn that is `pub` (callable from outside the crate) or has
//!    no intra-crate callers (an entry point) is a violation, reported
//!    at the original unprotected call site.
//!
//! The walk is name-based and per-crate: `crates/X/src/*` files are
//! analyzed together so a call from one module into another resolves.

use std::collections::{BTreeMap, BTreeSet};

use super::{Candidate, FileCtx, BARRIER_PROTECTED};

/// One call site inside a fn body.
struct Call {
    callee: String,
    covered: bool,
    /// (file index, line, col) of the callee token.
    site: (usize, u32, u32),
}

struct FnInfo {
    name: String,
    is_pub: bool,
    calls: Vec<Call>,
}

/// Check one crate group (all `FileCtx`s share a crate). Returns
/// candidates tagged with the index of the file they anchor to.
pub(crate) fn check_crate(files: &[FileCtx<'_>]) -> Vec<(usize, Candidate)> {
    let mut fns: Vec<FnInfo> = Vec::new();
    for (file_idx, ctx) in files.iter().enumerate() {
        for f in ctx.parsed.fns.iter().filter(|f| !f.in_test_mod) {
            let (start, end) = f.body_span;
            let end = end.min(ctx.toks.len());
            // catch_unwind coverage: the balanced argument ranges
            let mut covered: Vec<(usize, usize)> = Vec::new();
            let mut i = start;
            while i < end {
                if ctx.toks[i].ident
                    && ctx.toks[i].text == "catch_unwind"
                    && ctx.toks.get(i + 1).is_some_and(|t| t.text == "(")
                {
                    let mut depth = 0i64;
                    let open = i + 1;
                    let mut j = open;
                    while j < end {
                        match ctx.toks[j].text.as_str() {
                            "(" => depth += 1,
                            ")" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    covered.push((open, j));
                    i = open + 1;
                    continue;
                }
                i += 1;
            }
            // call sites
            let mut calls = Vec::new();
            for i in start..end {
                let t = &ctx.toks[i];
                if !t.ident
                    || ctx.toks.get(i + 1).is_none_or(|n| n.text != "(")
                    || (i > 0 && ctx.toks[i - 1].text == "fn")
                {
                    continue;
                }
                calls.push(Call {
                    callee: t.text.clone(),
                    covered: covered.iter().any(|&(a, b)| i > a && i < b),
                    site: (file_idx, t.line, t.col),
                });
            }
            fns.push(FnInfo {
                name: f.name.clone(),
                is_pub: f.is_pub,
                calls,
            });
        }
    }

    // callers: fn name -> indices of fns that call it (covered or not)
    let mut callers: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        for c in &f.calls {
            callers.entry(c.callee.as_str()).or_default().insert(idx);
        }
    }

    // hot set: fn index -> witness site of the unprotected call
    let mut hot: BTreeMap<usize, (usize, u32, u32)> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        for c in &f.calls {
            if !c.covered && BARRIER_PROTECTED.contains(&c.callee.as_str()) {
                hot.entry(idx).or_insert(c.site);
            }
        }
    }
    // propagate hotness up through uncovered call edges
    let mut changed = true;
    while changed {
        changed = false;
        for (idx, f) in fns.iter().enumerate() {
            if hot.contains_key(&idx) {
                continue;
            }
            for c in &f.calls {
                if c.covered {
                    continue;
                }
                let callee_hot = fns
                    .iter()
                    .enumerate()
                    .find(|(j, g)| g.name == c.callee && hot.contains_key(j))
                    .map(|(j, _)| hot[&j]);
                if let Some(witness) = callee_hot {
                    hot.insert(idx, witness);
                    changed = true;
                    break;
                }
            }
        }
    }

    // violations: hot fns that are entry points
    let mut out = Vec::new();
    for (&idx, &(file_idx, line, col)) in &hot {
        let f = &fns[idx];
        let has_other_caller = callers
            .get(f.name.as_str())
            .is_some_and(|set| set.iter().any(|&c| c != idx));
        let exposed = f.is_pub || !has_other_caller;
        if exposed {
            out.push((
                file_idx,
                Candidate {
                    line,
                    col,
                    code: "OCT-LINT-009",
                    message: format!(
                        "shard batch execution is reachable through `{}` without \
                         `catch_unwind` coverage: a panic here skips the window \
                         barrier merge and leaves the world inconsistent; wrap the \
                         call in `catch_unwind(AssertUnwindSafe(..))` and re-raise \
                         after the barrier",
                        f.name
                    ),
                },
            ));
        }
    }
    out
}
