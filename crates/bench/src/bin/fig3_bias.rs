//! Fig. 3(a)/(b): lookup-bias attack — remaining malicious fraction over
//! time at attack rates 100 % and 50 %, plus cumulative all/biased
//! lookup counts.

use octopus_bench::{attack_sweep, RunArgs};
use octopus_core::AttackKind;

fn main() {
    let args = RunArgs::from_env();
    let title = "Fig 3(a): lookup bias attack — remaining malicious fraction";
    attack_sweep(&args, title, AttackKind::LookupBias, 31, |report, rate| {
        println!(
            "(FP rate {:.2}%, {} revocations over {} trial(s))\n",
            report.false_positive_rate() * 100.0,
            report.revocations,
            report.trials
        );
        // Fig. 3(b) sits between the two rates' series
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
    });
}
