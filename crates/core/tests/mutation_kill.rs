//! Mutation kill: with `--features spec-mutations` the engine carries
//! six deliberately injected bugs, selectable one at a time at runtime.
//! This suite proves the differential/fuzz oracle has zero false
//! negatives over that set — a clean engine passes the exact same
//! schedule, and *every* injected bug produces a divergence or an
//! invariant breach.
//!
//! The mutation selector is process-global, so this file holds exactly
//! one `#[test]` and iterates the mutations serially.
#![cfg(feature = "spec-mutations")]

mod common;

use common::{assert_model_agrees, probe, run_fuzzed, TracedRun};
use octopus_core::mutation::{self, Mutation};
use octopus_core::SecuritySim;
use octopus_sim::{Duration, SimTime};
use octopus_spec::check_invariants;

const SEED: u64 = 7;

fn fuzzed_probe() -> octopus_core::SimConfig {
    probe(SEED, 1)
}

/// Divergences plus invariant breaches for a traced run.
fn flags_of(run: &TracedRun) -> Vec<String> {
    let rep = common::replay(run);
    let mut flags = rep.divergences.clone();
    flags.extend(check_invariants(&rep.state));
    flags
}

/// Replay the standard fuzzed schedule and report whether the oracle
/// flagged anything (divergence or invariant breach).
fn oracle_flags() -> (TracedRun, Vec<String>) {
    let (run, _) = run_fuzzed(fuzzed_probe());
    let flags = flags_of(&run);
    (run, flags)
}

#[test]
fn every_injected_engine_bug_is_caught() {
    // Benign baseline: the clean engine survives the full Byzantine
    // schedule without a single flag — so any flag below is caused by
    // the activated mutation, not by the harness.
    mutation::set_mutation(None);
    let (benign, benign_flags) = oracle_flags();
    assert!(
        benign_flags.is_empty(),
        "benign engine flagged: {benign_flags:?}"
    );
    assert_model_agrees(&benign, "benign engine");

    // Every mutation must be killed — zero false negatives.
    let mut kills = Vec::new();
    for &m in mutation::ALL {
        mutation::set_mutation(Some(m));
        let (_, flags) = oracle_flags();
        assert!(
            !flags.is_empty(),
            "mutation {m:?} survived the oracle (false negative)"
        );
        kills.push((m, flags.len()));
    }
    assert_eq!(kills.len(), mutation::ALL.len());

    // The injection rounds are not load-bearing for the forwarding
    // bugs: purely organic traffic catches those even on a short run.
    for m in [Mutation::ForwardWithoutReceipt, Mutation::MisrouteOnion] {
        mutation::set_mutation(Some(m));
        let mut sim = SecuritySim::new(fuzzed_probe());
        let mut acc = sim.begin();
        sim.advance_until(&mut acc, SimTime::ZERO + Duration::from_secs(6));
        let report = sim.finish(acc);
        let run = common::finish_traced(sim, report);
        assert!(
            !flags_of(&run).is_empty(),
            "mutation {m:?} survived organic traffic"
        );
    }

    // And the benign schedule stays clean after the sweep — the global
    // selector was restored, nothing leaked across runs.
    mutation::set_mutation(None);
    let (_, after) = oracle_flags();
    assert!(after.is_empty(), "selector leaked across runs: {after:?}");
}
