//! The correctness gate: every check a workload makes on the library's
//! outputs lands here, and one failed check makes the run incorrect
//! (`"correct": false`, exit code 1).

use octopus_core::simnet::ReportCat;
use octopus_core::SimReport;

/// Collected check failures of one run.
#[derive(Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Record a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Two runs of the same seeded simulation must agree on every
    /// statistic; `what` names the pair.
    pub fn same_digest(&mut self, a: u64, b: u64, what: &str) {
        self.check(a == b, || {
            format!("simulated statistics changed: {what}: report_digest {a:016x} != {b:016x}")
        });
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    fn series(&mut self, s: &[(f64, f64)]) {
        self.word(s.len() as u64);
        for &(x, y) in s {
            self.float(x);
            self.float(y);
        }
    }
}

/// Hash over every field of a [`SimReport`]. A simulator speed-up must
/// leave it as it was; the destructuring below stops compiling when the
/// report grows a field, so "every" stays true.
pub fn report_digest(r: &SimReport) -> u64 {
    let SimReport {
        trials,
        malicious_fraction,
        lookups_total,
        lookups_biased,
        ca_messages,
        false_positives,
        revocations,
        tests_of_bad,
        tests_missed,
        neighbor_tests_of_bad,
        neighbor_tests_missed,
        finger_tests_of_bad,
        finger_tests_missed,
        verdicts_by_cat,
        dismissed,
        convicted,
        biased_lookups,
        completed_lookups,
        failed_lookups,
        walks_ok,
        walks_failed,
        lookup_latencies_ms,
        bandwidth_kbps,
    } = r;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(*trials);
    for s in [
        malicious_fraction,
        lookups_total,
        lookups_biased,
        ca_messages,
    ] {
        h.series(s);
    }
    for w in [
        false_positives,
        revocations,
        tests_of_bad,
        tests_missed,
        neighbor_tests_of_bad,
        neighbor_tests_missed,
        finger_tests_of_bad,
        finger_tests_missed,
        dismissed,
        convicted,
        biased_lookups,
        completed_lookups,
        failed_lookups,
        walks_ok,
        walks_failed,
    ] {
        h.word(*w);
    }
    h.word(verdicts_by_cat.len() as u64);
    for &(cat, dismissed, convicted) in verdicts_by_cat {
        h.word(match cat {
            ReportCat::NeighborSurveillance => 0,
            ReportCat::FingerSurveillance => 1,
            ReportCat::FingerUpdate => 2,
            ReportCat::SelectiveDos => 3,
        });
        h.word(dismissed);
        h.word(convicted);
    }
    h.word(lookup_latencies_ms.len() as u64);
    for &l in lookup_latencies_ms {
        h.float(l);
    }
    h.float(*bandwidth_kbps);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatching_digest_fails_the_gate_loudly() {
        let a = SimReport {
            trials: 1,
            completed_lookups: 10,
            ..SimReport::default()
        };
        let mut b = a.clone();
        let mut gate = Gate::default();
        gate.same_digest(report_digest(&a), report_digest(&b), "rep 0 vs rep 1");
        assert!(gate.passed());
        b.lookup_latencies_ms.push(1.5);
        gate.same_digest(report_digest(&a), report_digest(&b), "rep 0 vs rep 1");
        assert!(!gate.passed());
        assert!(gate.failures()[0].starts_with("simulated statistics changed: rep 0 vs rep 1"));
    }

    #[test]
    fn digest_sees_every_kind_of_field() {
        let base = SimReport::default();
        let d0 = report_digest(&base);
        let mut r = base.clone();
        r.bandwidth_kbps = 0.5;
        assert_ne!(report_digest(&r), d0);
        let mut r = base.clone();
        r.ca_messages.push((10.0, 2.0));
        assert_ne!(report_digest(&r), d0);
        let mut r = base.clone();
        r.verdicts_by_cat.push((ReportCat::SelectiveDos, 0, 1));
        assert_ne!(report_digest(&r), d0);
        let mut r = base;
        r.walks_failed = 1;
        assert_ne!(report_digest(&r), d0);
    }
}
