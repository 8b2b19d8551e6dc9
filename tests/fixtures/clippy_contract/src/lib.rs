//! Known-bad fixture for the determinism contract's clippy half, linted
//! with the repository's `clippy.toml`. Every offending line ends in a
//! marker comment naming the lint that must fire on it, and no other
//! line may fire anything (see `clippy_contract_fires_on_exactly_the_marked_lines`
//! in `tests/clippy_contract.rs`).

use rand::{Rng, SeedableRng};

/// Wall clock: simulated time comes from the event queue.
pub fn how_long() -> u128 {
    let t0 = std::time::Instant::now(); //~ clippy::disallowed_methods
    t0.elapsed().as_nanos()
}

/// Wall clock through the type.
pub fn since_epoch() -> u64 {
    let now = std::time::SystemTime::now(); //~ clippy::disallowed_types
    now.duration_since(std::time::UNIX_EPOCH).unwrap().as_secs()
}

/// Wall clock without naming `SystemTime`.
pub fn epoch_age() -> u64 {
    std::time::UNIX_EPOCH.elapsed().unwrap().as_secs() //~ clippy::disallowed_methods
}

/// Ambient entropy: every stream derives from the master seed.
pub fn roll() -> u64 {
    let mut rng = rand::thread_rng(); //~ clippy::disallowed_methods
    rng.gen()
}

/// Ambient entropy through `SeedableRng`.
pub fn reseed() -> rand::rngs::StdRng {
    rand::rngs::StdRng::from_entropy() //~ clippy::disallowed_methods
}

/// Ambient entropy through the convenience wrapper.
pub fn convenience() -> u8 {
    rand::random() //~ clippy::disallowed_methods
}

/// Thread identity in a signature.
pub fn who_am_i() -> std::thread::ThreadId { //~ clippy::disallowed_types
    std::thread::current().id() //~ clippy::disallowed_methods
}

/// Host thread count.
pub fn how_wide() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) //~ clippy::disallowed_methods
}

/// The environment: a run is fully described by its config.
pub fn from_env() -> Option<String> {
    let a = std::env::var("OCTOPUS_SEED").ok(); //~ clippy::disallowed_methods
    let b = std::env::var_os("OCTOPUS_SCALE"); //~ clippy::disallowed_methods
    a.or(b.and_then(|s| s.into_string().ok()))
}

/// Hash-map iteration order is seeded per process.
pub fn any_word(words: &[&str]) -> Option<String> {
    let lens: std::collections::HashMap<&str, usize> = words.iter().map(|w| (*w, w.len())).collect(); //~ clippy::disallowed_types
    lens.into_keys().next().map(str::to_string)
}

/// Hash-set iteration order too, through an expression path.
pub fn distinct(xs: &[u32]) -> Vec<u32> {
    let mut seen = std::collections::HashSet::<u32>::new(); //~ clippy::disallowed_types
    seen.extend(xs);
    seen.into_iter().collect()
}
