//! Work tripwire for the verify-once memos.
//!
//! Two properties, both deterministic counts rather than timings:
//!
//! * **invisible** — a run whose CA and peers verify every signature in
//!   full (memos switched off through the harness hook) reports
//!   byte-identically to the normal, memoised run;
//! * **effective** — in the memoised run the CA puts each distinct
//!   signed list and each distinct certificate through the stateless
//!   verification at most once.

use octopus_core::{AttackKind, OctopusConfig, SecuritySim, SimConfig};
use octopus_sim::Duration;

/// The paper's §5.1 set-up at a fifth of its population, for the first
/// 20 simulated seconds.
fn section_5_1(seed: u64) -> SimConfig {
    SimConfig {
        n: 200,
        malicious_fraction: 0.2,
        attack: AttackKind::LookupBias,
        attack_rate: 1.0,
        duration: Duration::from_secs(20),
        seed,
        octopus: OctopusConfig::for_network(200),
        ..SimConfig::default()
    }
}

#[test]
fn memoised_run_reports_identically_and_verifies_once() {
    let mut memoised = SecuritySim::new(section_5_1(31));
    let report = memoised.run();
    let work = memoised.ca_verify_work();

    let mut reference = SecuritySim::new(section_5_1(31));
    reference.disable_verify_memo();
    let reference_report = reference.run();
    let reference_work = reference.ca_verify_work();

    assert!(
        report.completed_lookups > 0 && work.list_verifications > 0,
        "the run must exercise lookups and the CA's proof checking"
    );
    assert_eq!(report, reference_report, "the memo changed a result");
    assert_eq!(format!("{report:?}"), format!("{reference_report:?}"));

    // the reference really is pass-through: it remembers nothing, so it
    // verifies strictly more than the memoised run was asked to
    assert_eq!(reference_work.lists_remembered, 0);
    assert!(
        reference_work.list_verifications > work.list_verifications,
        "no signed list was ever presented twice: the run does not exercise the list memo \
         ({} verifications either way)",
        work.list_verifications
    );
    assert!(reference_work.certificate_verifications > work.certificate_verifications);

    // one full verification per distinct list: every verified list is
    // still remembered (nothing was rejected, nothing evicted), so the
    // count of verifications is the count of distinct lists
    assert_eq!(work.list_verifications, work.lists_remembered as u64);
    // and at most one per certificate in existence
    assert!(
        work.certificate_verifications <= work.certificates_issued,
        "{} certificate verifications for {} certificates",
        work.certificate_verifications,
        work.certificates_issued
    );
}
