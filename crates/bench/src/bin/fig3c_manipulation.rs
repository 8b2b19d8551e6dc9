//! Fig. 3(c): fingertable manipulation attack — remaining malicious
//! fraction over time at attack rates 100 % and 50 %.

use octopus_bench::{attack_sweep, RunArgs};
use octopus_core::AttackKind;

fn main() {
    let args = RunArgs::from_env();
    let title = "Fig 3(c): fingertable manipulation attack";
    attack_sweep(
        &args,
        title,
        AttackKind::FingerManipulation,
        33,
        |report, _| {
            println!(
                "(FP rate {:.2}%, FN rate {:.2}%)\n",
                report.false_positive_rate() * 100.0,
                report.false_negative_rate() * 100.0
            );
        },
    );
}
