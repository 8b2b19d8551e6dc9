//! Fig. 9: selective-DoS attack — remaining malicious fraction over time
//! at attack rates 100 % and 50 % (Appendix II defense).

use octopus_bench::{attack_sweep, RunArgs};
use octopus_core::AttackKind;

fn main() {
    let args = RunArgs::from_env();
    let title = "Fig 9: selective DoS attack";
    attack_sweep(&args, title, AttackKind::SelectiveDos, 39, |report, _| {
        println!(
            "(FP rate {:.2}%, failed lookups {})\n",
            report.false_positive_rate() * 100.0,
            report.failed_lookups
        );
    });
}
