//! Fig. 3(a)/(b): lookup-bias attack — remaining malicious fraction over
//! time at attack rates 100 % and 50 %, plus cumulative all/biased
//! lookup counts.

use octopus_bench::{print_fraction_series, RunArgs};
use octopus_core::AttackKind;

fn main() {
    let args = RunArgs::from_env();
    println!("Fig 3(a): lookup bias attack — remaining malicious fraction\n");
    let rates = [1.0, 0.5];
    let points: Vec<_> = rates
        .iter()
        .map(|&rate| args.security_config(AttackKind::LookupBias, rate, 31))
        .collect();
    let reports = args.runner().run_sweep(&points, args.trials);
    for (report, rate) in reports.iter().zip(rates) {
        print_fraction_series(
            &format!("attack rate = {:.0}%", rate * 100.0),
            &report.mean_series(&report.malicious_fraction),
        );
        println!(
            "(FP rate {:.2}%, {} revocations over {} trial(s))\n",
            report.false_positive_rate() * 100.0,
            report.revocations,
            report.trials
        );
        if (rate - 1.0).abs() < f64::EPSILON {
            println!("Fig 3(b): cumulative lookups (all vs biased, per-trial mean)");
            println!("# time(s)  all  biased");
            let all_series = report.mean_series(&report.lookups_total);
            let biased_series = report.mean_series(&report.lookups_biased);
            for (i, &(t, all)) in all_series.iter().enumerate().step_by(4) {
                let biased = biased_series.get(i).map_or(0.0, |&(_, b)| b);
                println!("{t:7.0}  {all:7.0}  {biased:7.0}");
            }
            println!();
        }
    }
}
