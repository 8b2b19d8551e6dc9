//! The experiment harness: one runnable target per table and figure of
//! the paper (README's "Reproducing the paper's figures" table is the
//! experiment index).
//!
//! Experiment binaries live in `src/bin/` and print rows/series shaped
//! like the paper's tables and figures. Speed is measured elsewhere:
//! the standalone `benchmark/` package (`octobench`) is the
//! repository's one bench harness.
//!
//! Every binary reads one shared [`RunArgs`] configuration, from the
//! environment or CLI flags (flags win):
//!
//! | env | flag | meaning | default |
//! |---|---|---|---|
//! | `OCTOPUS_SCALE` | `--scale` | `quick` or `full` experiment size | `quick` |
//! | `OCTOPUS_SEED` | `--seed` | master seed override | per-bin constant |
//! | `OCTOPUS_THREADS` | `--threads` | trial-runner worker threads | available parallelism |
//! | `OCTOPUS_TRIALS` | `--trials` | independent trials merged per data point | 1 |
//!
//! `octopus-node` also reads `OCTOPUS_ADDR`/`--addr`,
//! `OCTOPUS_PEERS`/`--peers` and `OCTOPUS_NODE_CONFIG`/`--node-config`.
//! [`RunArgs::from_env`] is the only reader of the environment in the
//! workspace.
//!
//! The bins run every simulation on one shard. Shard count never
//! changes a report; [`SimConfig::shards`] stays an engine setting for
//! worlds of a million nodes, where several shards run faster than one
//! (smaller slabs and lanes stay warmer) at a price in peak memory; no
//! figure runs that large. Windows always run their shards
//! one after another: parallel windows never made a figure faster (a
//! §5 window holds too few events to pay for a barrier; `fig3_bias` at
//! `--scale full` took 7.7 s sequentially and 43.9 s at 4 parallel
//! shards on a 2-vCPU host), so they were removed and
//! [`SimConfig::parallel`] is accepted and ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use octopus_core::{AttackKind, OctopusConfig, SimConfig, SimReport, TrialRunner};
use octopus_sim::Duration;

/// Experiment scale (paper-exact vs CI-sized), from `OCTOPUS_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters, same shapes — seconds of CPU.
    Quick,
    /// The paper's exact parameters — minutes of CPU.
    Full,
}

impl Scale {
    /// Parse a scale name (`quick`/`full`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Security-sim network size (paper: 1000).
    #[must_use]
    pub fn sim_n(self) -> usize {
        match self {
            Scale::Quick => 300,
            Scale::Full => 1000,
        }
    }

    /// Security-sim duration (paper: 1000 s).
    #[must_use]
    pub fn sim_secs(self) -> u64 {
        match self {
            Scale::Quick => 400,
            Scale::Full => 1000,
        }
    }

    /// Anonymity ring size (paper: 100 000).
    #[must_use]
    pub fn anon_n(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }

    /// Anonymity Monte-Carlo trials.
    #[must_use]
    pub fn anon_trials(self) -> usize {
        match self {
            Scale::Quick => 300,
            Scale::Full => 1000,
        }
    }

    /// Timing-attack Monte-Carlo trials (Table 1).
    #[must_use]
    pub fn timing_trials(self) -> usize {
        match self {
            Scale::Quick => 200,
            Scale::Full => 1000,
        }
    }

    /// Simulated seconds for the PlanetLab-sized efficiency runs
    /// (Table 3 / Fig. 7a).
    #[must_use]
    pub fn planetlab_secs(self) -> u64 {
        match self {
            Scale::Quick => 240,
            Scale::Full => 600,
        }
    }

    /// Baseline lookup replays for the efficiency comparison (Table 3).
    #[must_use]
    pub fn comparison_trials(self) -> usize {
        match self {
            Scale::Quick => 400,
            Scale::Full => 2000,
        }
    }
}

/// Shared experiment configuration parsed once per binary: scale, seed
/// and trial/thread fan-out, from environment variables or CLI flags
/// (see the [crate docs](self) for the table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// Master-seed override; bins fall back to their per-bin constant
    /// via [`RunArgs::seed_or`] so published outputs stay reproducible.
    pub seed: Option<u64>,
    /// Worker threads for the [`TrialRunner`].
    pub threads: usize,
    /// Independent trials merged per data point.
    pub trials: usize,
    /// This process's own endpoint for the UDP transport, as
    /// `id@host:port` (`octopus-node` only; simulations ignore it).
    pub addr: Option<String>,
    /// Comma-separated `id@host:port` peer endpoints for the UDP
    /// transport's peer table.
    pub peers: Option<String>,
    /// Path to an `octopus-node` TOML config file; flags and environment
    /// variables override values read from it.
    pub node_config: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scale: Scale::Quick,
            seed: None,
            // Sanctioned thread-count site (clippy.toml's
            // `std::thread::available_parallelism` entry): RunArgs only
            // sizes the worker pool; results are merge-order-stable.
            #[expect(
                clippy::disallowed_methods,
                reason = "the one sanctioned thread-count site"
            )]
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            trials: 1,
            addr: None,
            peers: None,
            node_config: None,
        }
    }
}

impl RunArgs {
    /// Parse from the process environment and CLI arguments.
    #[must_use]
    // The workspace's one reader of the environment: clippy.toml
    // disallows `std::env::var` everywhere else.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned reader of the environment"
    )]
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, |k| std::env::var(k).ok())
    }

    /// Pure parsing core (tested without touching the real
    /// environment). Unknown flags and malformed values fall back to
    /// defaults rather than aborting an experiment run.
    #[must_use]
    pub fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Self {
        let mut out = RunArgs::default();
        let mut apply = |key: &str, value: &str| match key {
            "scale" => {
                if let Some(s) = Scale::parse(value) {
                    out.scale = s;
                }
            }
            "seed" => out.seed = value.parse().ok().or(out.seed),
            "threads" => {
                if let Ok(t) = value.parse::<usize>() {
                    out.threads = t.max(1);
                }
            }
            "trials" => {
                if let Ok(t) = value.parse::<usize>() {
                    out.trials = t.max(1);
                }
            }
            "addr" => out.addr = Some(value.to_string()),
            "peers" => out.peers = Some(value.to_string()),
            "node-config" => out.node_config = Some(value.to_string()),
            _ => {}
        };
        for (env_key, key) in [
            ("OCTOPUS_SCALE", "scale"),
            ("OCTOPUS_SEED", "seed"),
            ("OCTOPUS_THREADS", "threads"),
            ("OCTOPUS_TRIALS", "trials"),
            ("OCTOPUS_ADDR", "addr"),
            ("OCTOPUS_PEERS", "peers"),
            ("OCTOPUS_NODE_CONFIG", "node-config"),
        ] {
            if let Some(v) = env(env_key) {
                apply(key, &v);
            }
        }
        const KNOWN_FLAGS: [&str; 7] = [
            "scale",
            "seed",
            "threads",
            "trials",
            "addr",
            "peers",
            "node-config",
        ];
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                continue;
            };
            match flag.split_once('=') {
                Some((key, value)) => apply(key, value),
                None => {
                    // Only a known flag may consume the next token as
                    // its value, and never one that is itself a flag —
                    // an unknown `--verbose` must not swallow `--scale`.
                    if KNOWN_FLAGS.contains(&flag)
                        && it.peek().is_some_and(|v| !v.starts_with("--"))
                    {
                        let value = it.next().expect("peeked value exists");
                        apply(flag, value);
                    }
                }
            }
        }
        out
    }

    /// The seed to use: the override, or this bin's published constant.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// A trial runner sized to the requested thread count.
    #[must_use]
    pub fn runner(&self) -> TrialRunner {
        TrialRunner::new(self.threads)
    }

    /// A security-sim configuration matching §5.1 at this run's scale
    /// and seed policy.
    #[must_use]
    pub fn security_config(&self, attack: AttackKind, attack_rate: f64, seed: u64) -> SimConfig {
        SimConfig {
            n: self.scale.sim_n(),
            malicious_fraction: 0.2,
            attack,
            attack_rate,
            consistent_collusion: 0.5,
            mean_lifetime: None,
            duration: Duration::from_secs(self.scale.sim_secs()),
            seed: self.seed_or(seed),
            octopus: OctopusConfig::for_network(self.scale.sim_n()),
            lookups_enabled: true,
            ..SimConfig::default()
        }
    }
}

/// Run `attack` at rates 100 % and 50 % and print the attack figures'
/// text (Figs. 3(a), 3(c), 4, 9): `title`, then for each rate its
/// malicious-fraction-over-time series followed by whatever `footer`
/// prints for that rate's report.
pub fn attack_sweep(
    args: &RunArgs,
    title: &str,
    attack: AttackKind,
    seed: u64,
    mut footer: impl FnMut(&SimReport, f64),
) {
    println!("{title}\n");
    let rates = [1.0, 0.5];
    let points: Vec<_> = rates
        .iter()
        .map(|&rate| args.security_config(attack, rate, seed))
        .collect();
    let reports = args.runner().run_sweep(&points, args.trials);
    for (report, rate) in reports.iter().zip(rates) {
        print_fraction_series(
            &format!("attack rate = {:.0}%", rate * 100.0),
            &report.mean_series(&report.malicious_fraction),
        );
        footer(report, rate);
    }
}

/// Print a malicious-fraction-over-time series as the figures do.
fn print_fraction_series(label: &str, series: &[(f64, f64)]) {
    println!("# {label}: time(s)  fraction_of_malicious_nodes");
    for &(t, f) in series.iter().step_by(2) {
        println!("{t:7.0}  {f:.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn scale_parses_env_convention() {
        assert_eq!(Scale::Quick.sim_n(), 300);
        assert_eq!(Scale::Full.sim_n(), 1000);
        assert!(Scale::Full.anon_n() > Scale::Quick.anon_n());
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn security_config_matches_paper_shape() {
        let full = RunArgs {
            scale: Scale::Full,
            ..RunArgs::default()
        };
        let c = full.security_config(AttackKind::LookupBias, 1.0, 1);
        assert_eq!(c.n, 1000);
        assert!((c.malicious_fraction - 0.2).abs() < 1e-12);
        assert_eq!(c.duration, Duration::from_secs(1000));
    }

    #[test]
    fn run_args_defaults() {
        let a = RunArgs::parse(&[], no_env);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed, None);
        assert_eq!(a.trials, 1);
        assert!(a.threads >= 1);
        assert_eq!(a.seed_or(31), 31);
    }

    #[test]
    fn transport_knobs_parse_from_flags_and_env() {
        let flags: Vec<String> = [
            "--addr",
            "1@127.0.0.1:7001",
            "--peers=2@127.0.0.1:7002,3@127.0.0.1:7003",
            "--node-config",
            "node.toml",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let a = RunArgs::parse(&flags, no_env);
        assert_eq!(a.addr.as_deref(), Some("1@127.0.0.1:7001"));
        assert_eq!(
            a.peers.as_deref(),
            Some("2@127.0.0.1:7002,3@127.0.0.1:7003")
        );
        assert_eq!(a.node_config.as_deref(), Some("node.toml"));

        let env = |k: &str| match k {
            "OCTOPUS_ADDR" => Some("9@10.0.0.1:9000".to_string()),
            "OCTOPUS_PEERS" => Some("8@10.0.0.2:9000".to_string()),
            "OCTOPUS_NODE_CONFIG" => Some("/etc/octopus.toml".to_string()),
            _ => None,
        };
        let a = RunArgs::parse(&[], env);
        assert_eq!(a.addr.as_deref(), Some("9@10.0.0.1:9000"));
        assert_eq!(a.peers.as_deref(), Some("8@10.0.0.2:9000"));
        assert_eq!(a.node_config.as_deref(), Some("/etc/octopus.toml"));

        // flags override env, like every other knob
        let a = RunArgs::parse(&flags, env);
        assert_eq!(a.addr.as_deref(), Some("1@127.0.0.1:7001"));
    }

    #[test]
    fn run_args_from_env_map() {
        let env = |k: &str| match k {
            "OCTOPUS_SCALE" => Some("full".to_string()),
            "OCTOPUS_SEED" => Some("99".to_string()),
            "OCTOPUS_THREADS" => Some("2".to_string()),
            "OCTOPUS_TRIALS" => Some("5".to_string()),
            _ => None,
        };
        let a = RunArgs::parse(&[], env);
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.seed_or(31), 99);
        assert_eq!(a.threads, 2);
        assert_eq!(a.trials, 5);
    }

    #[test]
    fn cli_flags_override_env() {
        let env = |k: &str| (k == "OCTOPUS_SCALE").then(|| "full".to_string());
        let args: Vec<String> = ["--scale", "quick", "--seed=7"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let a = RunArgs::parse(&args, env);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed, Some(7));
    }

    #[test]
    fn unknown_flags_do_not_swallow_real_ones() {
        let args: Vec<String> = ["--verbose", "--scale", "full", "--seed", "--trials", "3"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let a = RunArgs::parse(&args, no_env);
        // --verbose must not eat --scale; --seed without a value must
        // not eat --trials
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.seed, None);
        assert_eq!(a.trials, 3);

        // shard and pool settings are not bin flags: neither they nor
        // their values set anything, bare or valued
        let args: Vec<String> = [
            "--shards",
            "4",
            "--par",
            "--pool-threads",
            "2",
            "--scale",
            "full",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let expected = RunArgs {
            scale: Scale::Full,
            ..RunArgs::default()
        };
        assert_eq!(RunArgs::parse(&args, no_env), expected);
    }

    #[test]
    fn par_flag_forms() {
        // --par is no longer a bin flag: in every form it used to take,
        // and from OCTOPUS_PAR, it sets nothing and eats no real flag
        let parse = |tokens: &[&str]| {
            let args: Vec<String> = tokens.iter().map(ToString::to_string).collect();
            RunArgs::parse(&args, no_env)
        };
        let full = RunArgs {
            scale: Scale::Full,
            ..RunArgs::default()
        };
        assert_eq!(parse(&["--par"]), RunArgs::default());
        assert_eq!(parse(&["--par", "--scale", "full"]), full);
        assert_eq!(parse(&["--par=0", "--scale", "full"]), full);
        assert_eq!(parse(&["--par", "2", "--scale", "full"]), full);
        let two_trials = RunArgs {
            trials: 2,
            ..RunArgs::default()
        };
        assert_eq!(parse(&["--par", "true", "--trials", "2"]), two_trials);
        let env_on = |k: &str| (k == "OCTOPUS_PAR").then(|| "1".to_string());
        assert_eq!(RunArgs::parse(&[], env_on), RunArgs::default());
    }

    #[test]
    fn malformed_values_fall_back() {
        let args: Vec<String> = ["--threads", "zero", "--trials=-3", "--scale", "big"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let a = RunArgs::parse(&args, no_env);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.trials, 1);
        assert!(a.threads >= 1);
    }

    #[test]
    fn run_args_plumb_into_security_config() {
        let args: Vec<String> = ["--scale", "full", "--seed", "5"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let a = RunArgs::parse(&args, no_env);
        let c = a.security_config(AttackKind::FingerPollution, 0.5, 34);
        assert_eq!(c.n, 1000);
        assert_eq!(c.seed, 5);
        assert!((c.attack_rate - 0.5).abs() < 1e-12);
        // every bin runs one shard with sequential windows
        assert_eq!((c.shards, c.parallel, c.pool_threads), (1, false, 0));
    }
}
