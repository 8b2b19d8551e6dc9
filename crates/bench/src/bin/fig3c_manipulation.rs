//! Fig. 3(c): fingertable manipulation attack — remaining malicious
//! fraction over time at attack rates 100 % and 50 %.

use octopus_bench::{print_fraction_series, RunArgs};
use octopus_core::AttackKind;

fn main() {
    let args = RunArgs::from_env();
    println!("Fig 3(c): fingertable manipulation attack\n");
    let rates = [1.0, 0.5];
    let points: Vec<_> = rates
        .iter()
        .map(|&rate| args.security_config(AttackKind::FingerManipulation, rate, 33))
        .collect();
    let reports = args.runner().run_sweep(&points, args.trials);
    for (report, rate) in reports.iter().zip(rates) {
        print_fraction_series(
            &format!("attack rate = {:.0}%", rate * 100.0),
            &report.mean_series(&report.malicious_fraction),
        );
        println!(
            "(FP rate {:.2}%, FN rate {:.2}%)\n",
            report.false_positive_rate() * 100.0,
            report.false_negative_rate() * 100.0
        );
    }
}
