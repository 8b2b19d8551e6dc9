//! Boot configuration for `octopus-node`: its command line, and
//! nothing else.
//!
//! Four flags, each given at most once, as `--flag value` or
//! `--flag=value`: `--addr id@host:port`, `--peers a,b,…` (the whole
//! deployment, this node's own entry included), `--seed N` (any `u64`)
//! and the optional `--run-ms N`. The parser refuses the boot on the
//! first thing it cannot use and names it: an unknown flag, a stray
//! argument, a missing or malformed value, a repeated flag, or a
//! missing required one. A node that ran on past `--sed 42` would boot
//! with keys and certificates that match no other process.

use std::net::SocketAddr;

use octopus_id::NodeId;

use crate::peer::PeerTable;

/// Everything one `octopus-node` process needs to boot.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// This node's overlay id.
    pub id: NodeId,
    /// UDP bind address.
    pub bind: SocketAddr,
    /// Shared master seed: every process in a deployment must agree on
    /// it (keys, certificates and the seeded ring state derive from it).
    pub seed: u64,
    /// The full peer table, including this node's own entry. The
    /// process whose id is the CA's reserved address hosts the
    /// certificate authority; every other entry is a ring member.
    pub peers: PeerTable,
    /// Wall-clock run length in milliseconds (`None`: run until killed).
    pub run_ms: Option<u64>,
}

/// Every flag the node takes.
const FLAGS: [&str; 4] = ["addr", "peers", "seed", "run-ms"];

/// Fill an empty slot; `false` when it already held a value.
fn put<T>(slot: &mut Option<T>, value: T) -> bool {
    slot.replace(value).is_none()
}

impl NodeConfig {
    /// Parse a node's command line (without the program name).
    ///
    /// # Errors
    /// Names the first token it cannot use, a required flag that is
    /// missing, a malformed or repeated `--peers` entry, or an `--addr`
    /// id that `--peers` does not hold.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let (mut addr, mut peers, mut seed, mut run_ms) = (None, None, None, None);
        let mut tokens = args.iter().map(String::as_str).peekable();
        while let Some(arg) = tokens.next() {
            let flag = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("stray argument {arg}"))?;
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (flag, None),
            };
            if !FLAGS.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            // a flag never takes the next flag as its value
            let value = inline
                .or_else(|| tokens.next_if(|v| !v.starts_with("--")))
                .ok_or_else(|| format!("missing value for --{name}"))?;
            let malformed = || format!("malformed value for --{name}: {value}");
            let fresh = match name {
                "addr" => put(
                    &mut addr,
                    PeerTable::parse_entry(value).ok_or_else(malformed)?,
                ),
                "peers" => put(&mut peers, PeerTable::from_entries(value.split(','))?),
                "seed" => put(&mut seed, value.parse::<u64>().map_err(|_| malformed())?),
                _ => put(&mut run_ms, value.parse::<u64>().map_err(|_| malformed())?),
            };
            if !fresh {
                return Err(format!("repeated flag --{name}"));
            }
        }
        let (id, bind) = addr.ok_or("missing --addr")?;
        let peers = peers.ok_or("missing --peers")?;
        let seed = seed.ok_or("missing --seed")?;
        if peers.get(id).is_none() {
            return Err(format!("own id {} missing from --peers", id.0));
        }
        Ok(NodeConfig {
            id,
            bind,
            seed,
            peers,
            run_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODE: &str = "--addr 3@127.0.0.1:7003 \
        --peers 1@127.0.0.1:7001,2@127.0.0.1:7002,3@127.0.0.1:7003";

    /// Parse a command line given as one whitespace-separated string.
    fn parse(line: &str) -> Result<NodeConfig, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        NodeConfig::parse(&args)
    }

    #[test]
    fn parses_sample() {
        let c = parse(&format!("{NODE} --seed=99 --run-ms 5000")).expect("valid");
        assert_eq!(c.id, NodeId(3));
        assert_eq!(c.bind, "127.0.0.1:7003".parse().unwrap());
        assert_eq!(c.seed, 99);
        assert_eq!(c.run_ms, Some(5000));
        assert_eq!(c.peers.len(), 3);
        // flags in any order; without --run-ms the node runs until killed
        let c = parse("--seed 1 --peers 0x3@127.0.0.1:7003 --addr 0x3@0.0.0.0:9000");
        assert_eq!(c.map(|c| (c.id, c.run_ms)), Ok((NodeId(3), None)));
    }

    #[test]
    fn malformed_rejected_with_context() {
        for (line, named) in [
            ("--seed 4 --addr", "missing value for --addr"),
            (
                "--addr 3@nonsense",
                "malformed value for --addr: 3@nonsense",
            ),
            ("--addr= x", "malformed value for --addr: "),
            (
                "--addr 3@127.0.0.1:7003 --peers 3@127.0.0.1:7003,x",
                "malformed peer: x",
            ),
            (
                &format!("{NODE} --run-ms=-4"),
                "malformed value for --run-ms: -4",
            ),
            (&format!("{NODE} --seed 4 --seed 5"), "repeated flag --seed"),
            (&format!("{NODE} --seed 4 x"), "stray argument x"),
            // every required flag is named when missing
            ("--seed 4", "missing --addr"),
            ("--addr 3@127.0.0.1:7003 --seed 4", "missing --peers"),
            // the own entry is in the shared table, the CA's too
            (
                "--addr 9@127.0.0.1:7009 --peers 3@127.0.0.1:7003 --seed 4",
                "own id 9 missing from --peers",
            ),
        ] {
            assert_eq!(parse(line), Err(named.to_string()), "{line}");
        }
    }

    #[test]
    fn unknown_keys_rejected_by_name() {
        for (flags, named) in [
            // a misspelled seed would boot with keys no other process shares
            ("--sed 42", "unknown flag --sed"),
            // the CA is the process at the CA's reserved id, not a flag
            ("--ca", "unknown flag --ca"),
            // the figure bins' flags are not node flags
            ("--trials=3", "unknown flag --trials"),
        ] {
            let line = format!("{NODE} {flags}");
            assert_eq!(parse(&line), Err(named.to_string()), "{line}");
        }
    }

    #[test]
    fn repeated_peer_flag_entry_is_named() {
        let peers = "1@127.0.0.1:7001,2@127.0.0.1:7002,1@127.0.0.1:7003";
        assert_eq!(
            parse(&format!("--addr 1@127.0.0.1:7001 --peers {peers} --seed 1")),
            Err("duplicate peer id: 1@127.0.0.1:7003".to_string())
        );
        assert_eq!(
            parse(&format!("{NODE} --peers 3@127.0.0.1:7003")),
            Err("repeated flag --peers".to_string())
        );
    }

    #[test]
    fn unusable_flags_refused_by_name() {
        for (flags, named) in [
            ("--seed=abc", "malformed value for --seed: abc"),
            ("--seed abc", "malformed value for --seed: abc"),
            ("--seed -4", "malformed value for --seed: -4"),
            ("--seed --run-ms 5", "missing value for --seed"),
            ("", "missing --seed"),
            // the first unusable token is named, whatever follows it
            ("--seed abc --sed 42", "malformed value for --seed: abc"),
        ] {
            let line = format!("{NODE} {flags}");
            assert_eq!(parse(&line), Err(named.to_string()), "{line}");
        }
    }

    #[test]
    fn every_u64_seed_resolves() {
        // the bins take any u64 seed, so the node must too; ids span
        // u64, in decimal or 0x-prefixed hex
        let max = u64::MAX;
        let node =
            format!("--addr {max}@0.0.0.0:9000 --peers 0x1@127.0.0.1:7001,{max}@127.0.0.1:9000");
        let c = parse(&format!("{node} --seed {max}")).expect("valid");
        assert_eq!((c.id, c.seed), (NodeId(max), max));
        assert_eq!(c.peers.ids(), [NodeId(1), NodeId(max)]);
        assert_eq!(
            parse(&format!("{node} --seed 18446744073709551616")),
            Err("malformed value for --seed: 18446744073709551616".to_string())
        );
    }
}
