//! Fig. 4: fingertable pollution attack — remaining malicious fraction
//! over time at attack rates 100 % and 50 %.

use octopus_bench::{attack_sweep, RunArgs};
use octopus_core::AttackKind;

fn main() {
    let args = RunArgs::from_env();
    let title = "Fig 4: fingertable pollution attack";
    attack_sweep(
        &args,
        title,
        AttackKind::FingerPollution,
        34,
        |report, _| {
            println!(
                "(FP rate {:.2}%, FN rate {:.2}%)\n",
                report.false_positive_rate() * 100.0,
                report.false_negative_rate() * 100.0
            );
        },
    );
}
