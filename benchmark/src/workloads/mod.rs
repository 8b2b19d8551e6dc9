//! The four workloads. Each takes the seed and the measuring time,
//! drives the library through its public items, checks what comes back
//! and returns the end-to-end numbers.

pub mod engine;
pub mod sim;
pub mod udp;

use std::collections::BTreeMap;

use crate::gate::Gate;
use crate::trace::Tracer;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one workload run measured.
pub struct Outcome {
    /// Median wall time of one set-up, seconds.
    pub setup_s: f64,
    /// The workload's operations per wall second.
    pub ops_per_s: f64,
    /// Wall time of one job, milliseconds.
    pub job_ms: f64,
    /// Processor time per operation, microseconds.
    pub cpu_us_per_op: f64,
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations whose result was wrong or never came.
    pub failed: u64,
    /// Further numbers worth a line of output — the names the issue
    /// used, derived values, sample counts — as `(name, value, unit)`.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// `report_digest` of the simulated statistics, where there are any.
    pub digest: Option<u64>,
    /// The per-layer metrics that decompose this workload, measured on
    /// this very run: `core.simnet.*` for the simulator workloads,
    /// `transport.host.*` for the ring (see `spec::PER_LAYER`).
    pub layers: Layers,
}

/// Run workload `name`.
///
/// # Panics
/// On a name that is not in [`crate::spec::WORKLOADS`]; the caller
/// checks first.
pub fn run(name: &str, seed: u64, seconds: u64, tr: &mut Tracer, gate: &mut Gate) -> Outcome {
    match name {
        "sim-bias-1k" => sim::run(false, seed, seconds, tr, gate),
        "sim-churn-1k" => sim::run(true, seed, seconds, tr, gate),
        "engine-gossip-10k" => engine::run(seed, seconds, tr, gate),
        "udp-ring-16" => udp::run(seed, seconds, tr, gate),
        other => panic!("unknown workload {other}"),
    }
}
