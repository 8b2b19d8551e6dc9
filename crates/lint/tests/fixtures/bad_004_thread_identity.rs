// Known-bad fixture: OCT-LINT-004 thread-identity.
// Linted under crates/metrics/src/bad_004.rs, crates/core/src/trial.rs
// and crates/net/src/pool.rs (and asserted exempt under
// crates/bench/src/lib.rs, the one sanctioned RunArgs sizing site).

fn who_am_i() -> std::thread::ThreadId { //~ OCT-LINT-004
    std::thread::current().id() //~ OCT-LINT-004
}

fn how_wide() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) //~ OCT-LINT-004
}
