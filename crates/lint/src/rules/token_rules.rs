//! The v1 token-pattern rules (002–005): wall-clock reads, ambient
//! randomness, thread-identity leakage, and shard-unsafe writes.
//!
//! `OCT-LINT-001` (the blanket `HashMap`/`HashSet` type ban) is
//! *retired*: the dataflow rule `OCT-LINT-006` supersedes it by flagging
//! the actual hazard — unordered iteration flowing into order-sensitive
//! sinks — instead of every type mention. Keyed-access-only maps no
//! longer need an allow.

use super::{
    has_prefix, seq, Candidate, FileCtx, AMBIENT_RNG_EXEMPT, THREAD_IDENTITY_EXEMPT,
    WALL_CLOCK_EXEMPT,
};

pub(crate) fn check(ctx: &FileCtx<'_>, out: &mut Vec<Candidate>) {
    let rel_path = ctx.rel;
    let tokens = ctx.toks;
    let engine = super::engine_src(rel_path);

    for (i, t) in tokens.iter().enumerate() {
        if !t.ident {
            continue;
        }
        match t.text.as_str() {
            // OCT-LINT-002 — wall-clock reads
            "Instant"
                if seq(tokens, i, &["Instant", ":", ":", "now"])
                    && !has_prefix(rel_path, WALL_CLOCK_EXEMPT) =>
            {
                out.push(Candidate {
                    line: t.line,
                    col: t.col,
                    code: "OCT-LINT-002",
                    message: "`Instant::now` outside crates/bench: simulated time must come \
                              from the event queue (`ctx.now()` / `SimTime`)"
                        .to_string(),
                });
            }
            "SystemTime" | "UNIX_EPOCH" if !has_prefix(rel_path, WALL_CLOCK_EXEMPT) => {
                out.push(Candidate {
                    line: t.line,
                    col: t.col,
                    code: "OCT-LINT-002",
                    message: format!(
                        "`{}` outside crates/bench: wall-clock reads make replay \
                         depend on when the run happened",
                        t.text
                    ),
                });
            }
            // OCT-LINT-003 — ambient randomness
            "thread_rng" | "from_entropy" | "OsRng"
                if !has_prefix(rel_path, AMBIENT_RNG_EXEMPT) =>
            {
                out.push(Candidate {
                    line: t.line,
                    col: t.col,
                    code: "OCT-LINT-003",
                    message: format!(
                        "`{}` draws ambient entropy: every RNG must derive from the master \
                         seed via `derive_rng`/`split_seed`",
                        t.text
                    ),
                });
            }
            "rand"
                if seq(tokens, i, &["rand", ":", ":", "random"])
                    && !has_prefix(rel_path, AMBIENT_RNG_EXEMPT) =>
            {
                out.push(Candidate {
                    line: t.line,
                    col: t.col,
                    code: "OCT-LINT-003",
                    message: "`rand::random` draws from the ambient thread RNG: derive a \
                              seeded stream via `derive_rng`/`split_seed`"
                        .to_string(),
                });
            }
            // OCT-LINT-004 — thread-identity leakage
            "available_parallelism" | "ThreadId" if !THREAD_IDENTITY_EXEMPT.contains(&rel_path) => {
                out.push(Candidate {
                    line: t.line,
                    col: t.col,
                    code: "OCT-LINT-004",
                    message: format!(
                        "`{}` outside RunArgs: results must not depend on how many \
                         threads the host offers",
                        t.text
                    ),
                });
            }
            "thread"
                if seq(tokens, i, &["thread", ":", ":", "current"])
                    && !THREAD_IDENTITY_EXEMPT.contains(&rel_path) =>
            {
                out.push(Candidate {
                    line: t.line,
                    col: t.col,
                    code: "OCT-LINT-004",
                    message: "`thread::current` leaks thread identity into engine state"
                        .to_string(),
                });
            }
            // OCT-LINT-005 — shard-unsafe shared mutation:
            // `<...adversary...>.write(` or `.update(` (mutating the
            // directory is driver-only)
            "write" | "update"
                if engine
                    && !super::SHARD_WRITE_EXEMPT.contains(&rel_path)
                    && i > 0
                    && tokens[i - 1].text == "."
                    && tokens.get(i + 1).is_some_and(|t| t.text == "(") =>
            {
                // back-scan the expression for the adversary directory
                let from = i.saturating_sub(16);
                let stmt_start = tokens[from..i]
                    .iter()
                    .rposition(|t| matches!(t.text.as_str(), ";" | "{" | "}"))
                    .map_or(from, |p| from + p + 1);
                const ADVERSARY_IDENTS: &[&str] = &[
                    "adversary",
                    "SharedAdversary",
                    "ShardedAdversary",
                    "AdversaryHandle",
                ];
                if tokens[stmt_start..i]
                    .iter()
                    .any(|t| t.ident && ADVERSARY_IDENTS.contains(&t.text.as_str()))
                {
                    out.push(Candidate {
                        line: t.line,
                        col: t.col,
                        code: "OCT-LINT-005",
                        message: format!(
                            "`.{}()` on the adversary directory outside a driver module: \
                             protocol handlers may only read it; mutate between windows \
                             from the driver",
                            t.text
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}
