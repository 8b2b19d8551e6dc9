//! Table 2: false positive / false negative / false alarm rates of the
//! malicious-node identification mechanisms, with and without heavy
//! churn (λ = 60 min vs λ = 10 min), attack rate 100 %, consistent
//! collusion 50 %.

use octopus_bench::RunArgs;
use octopus_core::simnet::ReportCat;
use octopus_core::AttackKind;
use octopus_metrics::TextTable;
use octopus_sim::Duration;

fn main() {
    let args = RunArgs::from_env();
    println!("Table 2: identification accuracy (attack rate 100%, collusion 50%)");
    println!("(paper: FP = 0 everywhere; FN <= 0.52% bias / 14-20% finger attacks)\n");
    let mut table = TextTable::new([
        "Attack",
        "FP l=60m",
        "FP l=10m",
        "FN l=60m",
        "FN l=10m",
        "Alarm l=60m",
        "Alarm l=10m",
    ]);
    let attacks = [
        (
            "Lookup Bias",
            AttackKind::LookupBias,
            ReportCat::NeighborSurveillance,
        ),
        (
            "Finger Manipulation",
            AttackKind::FingerManipulation,
            ReportCat::FingerSurveillance,
        ),
        (
            "Finger Pollution",
            AttackKind::FingerPollution,
            ReportCat::FingerUpdate,
        ),
    ];
    const LIFETIMES_MIN: [u64; 2] = [60, 10];
    // all six (attack × churn) cells are independent sims: run them as
    // one parallel batch
    let args_ref = &args;
    let points: Vec<_> = attacks
        .iter()
        .flat_map(|&(_, attack, _)| {
            LIFETIMES_MIN.iter().map(move |&lifetime_min| {
                let mut cfg =
                    args_ref.security_config(attack, 1.0, 100 + lifetime_min + attack as u64);
                cfg.mean_lifetime = Some(Duration::from_secs(lifetime_min * 60));
                cfg
            })
        })
        .collect();
    let reports = args.runner().run_sweep(&points, args.trials);
    for (row, (name, _, cat)) in reports.chunks(LIFETIMES_MIN.len()).zip(attacks) {
        let mut cells = vec![name.to_string()];
        let mut fns = Vec::new();
        let mut alarms = Vec::new();
        let mut fps = Vec::new();
        for report in row {
            fps.push(format!("{:.2}%", report.false_positive_rate() * 100.0));
            let fn_rate = match cat {
                ReportCat::NeighborSurveillance => report.neighbor_fn_rate(),
                _ => report.finger_fn_rate(),
            };
            fns.push(format!("{:.2}%", fn_rate * 100.0));
            alarms.push(format!("{:.2}%", report.false_alarm_rate_for(cat) * 100.0));
        }
        cells.extend(fps);
        cells.extend(fns);
        cells.extend(alarms);
        table.row(cells);
    }
    println!("{}", table.render());
}
