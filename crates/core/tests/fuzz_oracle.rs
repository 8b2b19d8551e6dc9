//! The Byzantine fuzz oracle: seeded adversarial `Msg` mutations —
//! truncated onion layers, forged receipts, stale and stolen
//! certificates, replayed hops, spoofed revocations — are injected into
//! a live run, and the engine must reject exactly what the reference
//! model rejects. Zero divergences means every accept/reject decision
//! the engine made under attack matches the model's independent
//! recomputation; the per-kind assertions below additionally pin the
//! *direction* of the interesting decisions so a silently-degenerate
//! harness (nothing delivered, nothing checked) cannot pass.

mod common;

use common::{assert_model_agrees, count, probe, run_fuzzed, INJECT_FLOW_BASE};
use octopus_spec::{ModelEvent, ReportKind};

/// Fuzzed seeds: enough schedules that every injection kind lands on
/// live state (in-flight receipts and pending lookups are caught
/// opportunistically) while staying debug-build fast.
const SEEDS: std::ops::Range<u64> = 40..48;

#[test]
fn byzantine_mutations_rejected_in_agreement_with_model() {
    let mut wrong_signer = 0usize;
    let mut rejected_receipts = 0usize;
    let mut stale_tables = 0usize;
    let mut bad_tables = 0usize;
    let mut bad_cert_intakes = 0usize;
    let mut forged_ca_receipts = 0usize;
    let mut injected_onions = 0usize;
    let mut tracked_revocations = 0usize;
    for seed in SEEDS {
        let (run, stats) = run_fuzzed(probe(seed, 1));
        assert_model_agrees(&run, &format!("fuzzed seed {seed}"));

        // Deterministically injected kinds must have fired every round.
        assert!(stats.forged_receipt_reports >= 8, "seed {seed}: {stats:?}");
        assert!(stats.bad_cert_reports >= 8, "seed {seed}: {stats:?}");
        assert!(stats.stale_cert_reports >= 8, "seed {seed}: {stats:?}");
        assert!(stats.truncated_onions >= 8, "seed {seed}: {stats:?}");
        assert!(stats.replayed_onions >= 7, "seed {seed}: {stats:?}");
        assert!(stats.spoofed_revocations >= 8, "seed {seed}: {stats:?}");

        wrong_signer += stats.wrong_signer_receipts;
        stale_tables += stats.stale_tables;
        rejected_receipts += count(&run, |e| {
            matches!(
                e,
                ModelEvent::ReceiptChecked {
                    accepted: false,
                    ..
                }
            )
        });
        // A failed-signature table can only come from the harness:
        // organic tables are always validly signed (even malicious
        // nodes hold real certificates). Both broken-table kinds must
        // be rejected.
        bad_tables += count(&run, |e| {
            matches!(
                e,
                ModelEvent::TableChecked { sig_ok: false, accepted, .. } if !accepted
            )
        });
        assert_eq!(
            count(&run, |e| matches!(
                e,
                ModelEvent::TableChecked {
                    sig_ok: false,
                    accepted: true,
                    ..
                }
            )),
            0,
            "seed {seed}: engine accepted a table the model rejects"
        );
        // Broken-certificate reports must be refused at intake…
        bad_cert_intakes += count(&run, |e| {
            matches!(
                e,
                ModelEvent::ReportIntake {
                    kind: ReportKind::Dropper,
                    cert_ok: false,
                    accepted: false,
                    ..
                }
            )
        });
        assert_eq!(
            count(&run, |e| matches!(
                e,
                ModelEvent::ReportIntake {
                    cert_ok: false,
                    accepted: true,
                    ..
                }
            )),
            0,
            "seed {seed}: CA accepted a report with a broken certificate"
        );
        // …while the forged-receipt report passes intake (its cert is
        // genuine) and dies at the CA's signature check.
        forged_ca_receipts += count(&run, |e| {
            matches!(
                e,
                ModelEvent::CaReceiptCheck {
                    sig_ok: false,
                    accepted: false,
                    ..
                }
            )
        });
        assert_eq!(
            count(&run, |e| matches!(
                e,
                ModelEvent::CaReceiptCheck {
                    sig_ok: false,
                    accepted: true,
                    ..
                }
            )),
            0,
            "seed {seed}: CA accepted a forged receipt"
        );
        // Injected onions (truncated + routed + replayed) are processed
        // by honest nodes under the oracle's eye: every one appears in
        // the trace under the harness flow namespace.
        injected_onions += count(&run, |e| {
            matches!(
                e,
                ModelEvent::OnionProcessed { flow, .. } if *flow >= INJECT_FLOW_BASE
            )
        });
        tracked_revocations += count(&run, |e| {
            matches!(e, ModelEvent::RevocationSeen { tracked: true, .. })
        });
        assert_eq!(
            count(&run, |e| matches!(
                e,
                ModelEvent::RevocationSeen { tracked: false, .. }
            )),
            0,
            "seed {seed}: a node failed to track a revocation broadcast"
        );
    }
    // Opportunistic kinds (they need state caught in flight) must land
    // somewhere across the corpus, and their rejections must show up.
    assert!(wrong_signer > 0, "no wrong-signer receipts were injected");
    assert!(rejected_receipts > 0, "no receipt was ever rejected");
    assert!(stale_tables > 0, "no stale-cert tables were injected");
    assert!(bad_tables > 0, "no bad table rejection was observed");
    assert!(bad_cert_intakes > 0, "no bad-cert report was refused");
    assert!(forged_ca_receipts > 0, "no forged CA receipt was refused");
    assert!(injected_onions > 0, "no injected onion was processed");
    assert!(tracked_revocations > 0, "no revocation broadcast was seen");
}

/// The injections compose with the execution cube: the same fuzzed
/// schedule on a 2-shard engine reproduces the 1-shard run byte for
/// byte — report and trace.
#[test]
fn fuzzed_runs_deterministic_across_modes() {
    for seed in [44u64, 45] {
        let (one, one_stats) = run_fuzzed(probe(seed, 1));
        let (two, two_stats) = run_fuzzed(probe(seed, 2));
        assert_eq!(
            format!("{one_stats:?}"),
            format!("{two_stats:?}"),
            "seed {seed}: injection schedules diverged across shard counts"
        );
        assert_eq!(
            one.report, two.report,
            "seed {seed}: fuzzed report diverged"
        );
        assert_eq!(one.trace, two.trace, "seed {seed}: fuzzed trace diverged");
    }
}
