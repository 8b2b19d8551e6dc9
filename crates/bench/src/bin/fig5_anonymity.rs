//! Figs. 5(a), 5(b), 5(c) and 6: initiator and target anonymity.
//!
//! 5(a): H(I) for Octopus vs fraction of malicious nodes, for 2 and 6
//! dummies and α ∈ {0.5 %, 1 %}. 5(c): H(T) likewise. 5(b)/6: comparison
//! with Chord, NISAN, and Torsk at α = 1 %.

use octopus_anonymity::{
    chord_entropies, initiator_entropy, nisan_entropies, target_entropy, torsk_entropies,
    AnonymityConfig, LookupPresim, PresimConfig,
};
use octopus_bench::RunArgs;
use octopus_metrics::TextTable;

fn main() {
    let args = RunArgs::from_env();
    let n = args.scale.anon_n();
    let trials = args.scale.anon_trials() * args.trials;
    println!("pre-simulating lookups on an N = {n} ring…");
    let presim = LookupPresim::run(PresimConfig {
        n,
        samples: 1500,
        seed: args.seed_or(7),
    });
    let ideal = (n as f64).log2();
    println!("ideal entropy: {ideal:.2} bits\n");

    let cfg = |f: f64, alpha: f64, dummies: usize| AnonymityConfig {
        n,
        f,
        alpha,
        dummies,
        trials,
        seed: args.seed_or(42),
    };
    let fs = [0.04, 0.08, 0.12, 0.16, 0.20];

    println!("Fig 5(a): Octopus initiator anonymity H(I) vs f");
    let mut t = TextTable::new(["f", "d=2 a=1%", "d=2 a=0.5%", "d=6 a=1%", "d=6 a=0.5%"]);
    for &f in &fs {
        t.row([
            format!("{f:.2}"),
            format!("{:.2}", initiator_entropy(&cfg(f, 0.01, 2), &presim)),
            format!("{:.2}", initiator_entropy(&cfg(f, 0.005, 2), &presim)),
            format!("{:.2}", initiator_entropy(&cfg(f, 0.01, 6), &presim)),
            format!("{:.2}", initiator_entropy(&cfg(f, 0.005, 6), &presim)),
        ]);
    }
    println!("{}", t.render());

    println!("Fig 5(c): Octopus target anonymity H(T) vs f");
    let mut t = TextTable::new(["f", "d=2 a=1%", "d=6 a=1%", "d=0 a=1% (ablation)"]);
    for &f in &fs {
        t.row([
            format!("{f:.2}"),
            format!("{:.2}", target_entropy(&cfg(f, 0.01, 2), &presim)),
            format!("{:.2}", target_entropy(&cfg(f, 0.01, 6), &presim)),
            format!("{:.2}", target_entropy(&cfg(f, 0.01, 0), &presim)),
        ]);
    }
    println!("{}", t.render());

    println!("Fig 5(b)/Fig 6: comparison at alpha = 1%, d = 6");
    let mut t = TextTable::new([
        "f",
        "Octopus H(I)",
        "NISAN H(I)",
        "Torsk H(I)",
        "Chord H(I)",
        "Octopus H(T)",
        "NISAN H(T)",
        "Torsk H(T)",
        "Chord H(T)",
    ]);
    for &f in &fs {
        let c = cfg(f, 0.01, 6);
        let nis = nisan_entropies(&c, &presim);
        let tor = torsk_entropies(&c, &presim);
        let cho = chord_entropies(&c, &presim);
        t.row([
            format!("{f:.2}"),
            format!("{:.2}", initiator_entropy(&c, &presim)),
            format!("{:.2}", nis.h_i),
            format!("{:.2}", tor.h_i),
            format!("{:.2}", cho.h_i),
            format!("{:.2}", target_entropy(&c, &presim)),
            format!("{:.2}", nis.h_t),
            format!("{:.2}", tor.h_t),
            format!("{:.2}", cho.h_t),
        ]);
    }
    println!("{}", t.render());

    let c = cfg(0.2, 0.01, 6);
    let leak_i = ideal - initiator_entropy(&c, &presim);
    let leak_t = ideal - target_entropy(&c, &presim);
    let leak_nisan = ideal - nisan_entropies(&c, &presim).h_i;
    println!("headline @ f=20%: Octopus leaks {leak_i:.2} bit (I), {leak_t:.2} bit (T);");
    println!(
        "NISAN leaks {leak_nisan:.2} bit (I) — {:.1}x more than Octopus",
        leak_nisan / leak_i.max(0.01)
    );
}
