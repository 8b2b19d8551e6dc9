//! Fig. 7(b): CA workload — messages received by the CA per 10 s bin,
//! for each of the three active attacks. The paper: the peak is at the
//! beginning (most attackers alive), ~2 msgs/s at the busiest, and
//! hardly any new reports after 20 min.

use octopus_bench::RunArgs;
use octopus_core::AttackKind;

fn main() {
    let args = RunArgs::from_env();
    println!("Fig 7(b): messages received by the CA (per 10s bin)\n");
    let attacks = [
        ("Lookup bias", AttackKind::LookupBias),
        ("FT manipulation", AttackKind::FingerManipulation),
        ("FT pollution", AttackKind::FingerPollution),
    ];
    let points: Vec<_> = attacks
        .iter()
        .map(|&(_, attack)| args.security_config(attack, 1.0, 37))
        .collect();
    let reports = args.runner().run_sweep(&points, args.trials);
    for (report, (name, _)) in reports.iter().zip(attacks) {
        let bins = report.mean_series(&report.ca_messages);
        println!("# {name}: time(s)  CA msgs in bin");
        for &(t, v) in bins.iter().step_by(2) {
            println!("{t:7.0}  {v:7.0}");
        }
        let peak = bins.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        println!("(peak {:.1} msgs/s)\n", peak / 10.0);
    }
}
