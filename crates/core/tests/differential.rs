//! Differential checking: the real `SecuritySim` engine and the
//! dependency-free reference model (`octopus-spec`) are driven from the
//! same seeded schedule, and must agree event for event — at every
//! shard count of the cube.
//!
//! The engine emits a semantic trace of every security decision it
//! makes (onion hop processing, receipt acceptance, signed-table
//! validation, revocation handling, CA report intake); the model
//! independently recomputes each decision from the decision's inputs
//! and flags any disagreement as a divergence. A passing run therefore
//! certifies both that the engine's decisions match the protocol
//! semantics *and* that the trace itself is identical at every cube
//! point (tracing rides the deterministic control channel).

mod common;

use common::{assert_model_agrees, cube, probe, run_traced, TracedRun};
use octopus_spec::ModelEvent;

/// Seeds per suite slice; three slices give ≥ 50 seeded schedules
/// through the full cube while keeping wall-clock parallel.
const SEEDS_PER_SLICE: u64 = 18;

/// Run one seed at the sequential baseline and at one rotating cube
/// variant; assert byte-identical reports and traces across the two
/// points, and full model agreement.
fn check_seed(seed: u64) -> TracedRun {
    let points = cube();
    let baseline = run_traced(probe(seed, points[0]));
    assert!(
        !baseline.trace.is_empty(),
        "seed {seed}: probe produced no trace"
    );
    // rotate through the non-baseline cube points so consecutive seeds
    // cover every point of the cube
    let variant_point = points[1 + (seed as usize) % (points.len() - 1)];
    let variant = run_traced(probe(seed, variant_point));
    assert_eq!(
        baseline.report, variant.report,
        "seed {seed}: report diverged at cube point {variant_point:?}"
    );
    assert_eq!(
        baseline.trace, variant.trace,
        "seed {seed}: trace diverged at cube point {variant_point:?}"
    );
    assert_model_agrees(&baseline, &format!("seed {seed} baseline"));
    assert_model_agrees(&variant, &format!("seed {seed} variant {variant_point:?}"));
    baseline
}

/// Every seed slice additionally accumulates per-variant event counts
/// and asserts the corpus actually exercised the protocol surface the
/// model covers.
fn check_slice(first_seed: u64) {
    let mut onions = 0usize;
    let mut receipts = 0usize;
    let mut tables = 0usize;
    let mut lookups = 0usize;
    let mut anon = 0usize;
    for seed in first_seed..first_seed + SEEDS_PER_SLICE {
        let run = check_seed(seed);
        for (_, ev) in &run.trace {
            match ev {
                ModelEvent::OnionProcessed { .. } => onions += 1,
                ModelEvent::ReceiptChecked { .. } => receipts += 1,
                ModelEvent::TableChecked { .. } => tables += 1,
                ModelEvent::LookupQuery { .. } => lookups += 1,
                ModelEvent::AnonSent { .. } => anon += 1,
                _ => {}
            }
        }
    }
    assert!(onions > 100, "corpus exercised too few onion hops");
    assert!(receipts > 100, "corpus exercised too few receipt checks");
    assert!(tables > 20, "corpus exercised too few table validations");
    assert!(lookups > 20, "corpus exercised too few lookup queries");
    assert!(anon > 20, "corpus exercised too few anonymous sends");
}

#[test]
fn differential_agreement_slice_a() {
    check_slice(100);
}

#[test]
fn differential_agreement_slice_b() {
    check_slice(200);
}

#[test]
fn differential_agreement_slice_c() {
    check_slice(300);
}

/// What the trace contains, not only that the model agrees with it:
/// one small fixed-seed probe must reproduce the FNV-1a 64 fingerprint
/// of its whole trace's `Debug` text recorded when this test was
/// written. Like the figure goldens, the value assumes this host's
/// libm `ln` (latency draws go through it).
#[test]
fn traced_run_emits_a_recorded_event_stream() {
    let run = run_traced(probe(7, 1));
    let fingerprint = run
        .trace
        .iter()
        .flat_map(|(t, e)| format!("{:?}", (t, e)).into_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        (run.trace.len(), fingerprint),
        (5728, 0x2594_49c4_1ca5_5663),
        "trace changed"
    );
}
