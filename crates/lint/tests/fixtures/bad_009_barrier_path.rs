// Known-bad fixture: OCT-LINT-009 barrier-path panic safety, linted as
// its own crate under the synthetic path crates/net/src/bad_009.rs.
// `run_batch` and `run_one` (a zero-lookahead window's one-event step)
// are the protected callees: every path into them must be covered by
// catch_unwind, directly or via covered callers.

fn run_batch(shard: usize) -> u64 {
    shard as u64
}

fn run_one(shard: usize) -> u64 {
    shard as u64
}

pub fn drive_uncovered(shards: usize) -> u64 {
    let mut acc = 0;
    for s in 0..shards {
        acc += run_batch(s); //~ OCT-LINT-009
    }
    acc
}

pub fn step_uncovered(shard: usize) -> u64 {
    run_one(shard) //~ OCT-LINT-009
}

// --- negative space: these must stay clean -------------------------------

pub fn drive_inline_covered(shards: usize) -> u64 {
    let mut acc = 0;
    for s in 0..shards {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_batch(s)));
        acc += r.unwrap_or(0);
    }
    acc
}

// uncovered call, but private and only reachable through a covered
// call site in `covered_caller` — the graph walk must not flag it
fn covered_leaf(s: usize) -> u64 {
    run_batch(s)
}

pub fn covered_caller(shards: usize) -> u64 {
    let mut acc = 0;
    for s in 0..shards {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| covered_leaf(s)));
        acc += r.unwrap_or(0);
    }
    acc
}

pub fn step_covered(shard: usize) -> u64 {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(shard))).unwrap_or(0)
}
