//! Boot configuration for `octopus-node`.
//!
//! A node boots from a minimal TOML file (no external TOML crate — the
//! subset parsed here is flat `key = value` pairs with strings,
//! integers and single-line string arrays, which covers every knob the
//! binary has; any other key is rejected by name), overridden by the shared
//! [`octopus_bench::RunArgs`] env/flag parser: `--addr`/`OCTOPUS_ADDR`,
//! `--peers`/`OCTOPUS_PEERS`, `--seed`/`OCTOPUS_SEED` and
//! `--node-config`/`OCTOPUS_NODE_CONFIG` all work without a file.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use octopus_bench::RunArgs;
use octopus_id::NodeId;

use crate::peer::{parse_node_id, PeerTable};

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
    /// Wall-clock run length in milliseconds (0 = run until killed).
    pub run_ms: u64,
}

/// Every key the config has. Any other key is an error: a misspelled
/// `seed` would otherwise boot with seed 0, whose keys and certificates
/// match no other process in the deployment.
const KEYS: [&str; 6] = ["addr", "id", "bind", "seed", "peers", "run_ms"];

/// A parsed TOML scalar (the subset the config uses). Every integer the
/// config has is an id, a seed or a length of time, so integers are
/// unsigned and span all of `u64`.
#[derive(Clone, Debug, PartialEq)]
enum TomlValue {
    Str(String),
    Int(u64),
    StrArray(Vec<String>),
}

/// Parse the flat TOML subset: `key = value` per line, `#` comments,
/// bare/quoted strings, integers, `["a", "b"]` arrays. A key the
/// config does not have is an error.
fn parse_toml(text: &str) -> Result<BTreeMap<String, TomlValue>, String> {
    let mut map = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = match raw.split_once('#') {
            // a '#' inside quotes would be truncated here; the config
            // schema has no values that legitimately contain '#'
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("line {}: tables are not supported", lineno + 1));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
        let key = key.trim();
        if !KEYS.contains(&key) {
            return Err(format!("line {}: unknown key: {key}", lineno + 1));
        }
        let value = parse_value(value.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn parse_value(s: &str) -> Result<TomlValue, String> {
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item)? {
                TomlValue::Str(v) => items.push(v),
                _ => return Err("arrays may only contain strings".to_string()),
            }
        }
        return Ok(TomlValue::StrArray(items));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        return Ok(TomlValue::Str(inner.to_string()));
    }
    if let Ok(v) = s.parse::<u64>() {
        return Ok(TomlValue::Int(v));
    }
    if s.strip_prefix('-')
        .is_some_and(|v| v.parse::<u64>().is_ok())
    {
        return Err(format!(
            "negative integer {s}: ids, seeds and times are non-negative"
        ));
    }
    Err(format!("cannot parse value: {s}"))
}

impl NodeConfig {
    /// Parse a config file's text, as [`NodeConfig::resolve`] does with
    /// no overrides. Returns a readable error, never panics on malformed
    /// input.
    #[cfg(test)]
    fn from_toml(text: &str) -> Result<Self, String> {
        let map = parse_toml(text)?;
        Self::from_map(&map)
    }

    fn from_map(map: &BTreeMap<String, TomlValue>) -> Result<Self, String> {
        let addr = match map.get("addr") {
            Some(TomlValue::Str(s)) => Some(s.clone()),
            Some(_) => return Err("addr must be a string".to_string()),
            None => None,
        };
        let (id, bind) = match addr {
            Some(spec) => {
                let (id, bind) = PeerTable::parse_entry(&spec)
                    .ok_or_else(|| format!("malformed addr: {spec}"))?;
                (Some(id), Some(bind))
            }
            None => (None, None),
        };
        let id = match map.get("id") {
            Some(TomlValue::Str(s)) => {
                Some(parse_node_id(s).ok_or_else(|| format!("malformed id: {s}"))?)
            }
            Some(TomlValue::Int(v)) => Some(NodeId(*v)),
            Some(_) => return Err("id must be an integer or string".to_string()),
            None => id,
        };
        let bind = match map.get("bind") {
            Some(TomlValue::Str(s)) => Some(s.parse().map_err(|_| format!("malformed bind: {s}"))?),
            Some(_) => return Err("bind must be a string".to_string()),
            None => bind,
        };
        let seed = match map.get("seed") {
            Some(TomlValue::Int(v)) => *v,
            Some(_) => return Err("seed must be an integer".to_string()),
            None => 0,
        };
        let peers = match map.get("peers") {
            Some(TomlValue::StrArray(items)) => {
                PeerTable::from_entries(items.iter().map(String::as_str))?
            }
            Some(TomlValue::Str(spec)) => PeerTable::from_entries(spec.split(','))?,
            Some(_) => return Err("peers must be an array of strings".to_string()),
            None => PeerTable::new(),
        };
        let run_ms = match map.get("run_ms") {
            Some(TomlValue::Int(v)) => *v,
            Some(_) => return Err("run_ms must be an integer".to_string()),
            None => 0,
        };
        Ok(NodeConfig {
            id: id.ok_or_else(|| "missing id (or addr)".to_string())?,
            bind: bind.ok_or_else(|| "missing bind (or addr)".to_string())?,
            seed,
            peers,
            run_ms,
        })
    }

    /// Resolve the full boot config: the `--node-config` TOML file (if
    /// any) overridden by `RunArgs` knobs. A config can come entirely
    /// from flags/env — the file is optional.
    ///
    /// # Errors
    /// On a flag or variable `RunArgs` skipped (the first is named: a
    /// node that ignored `--sed 42` would boot with a seed no other
    /// process shares), an unreadable/malformed file, or malformed
    /// override values.
    pub fn resolve(args: &RunArgs) -> Result<Self, String> {
        if let Some(first) = args.skipped.first() {
            return Err(format!("cannot use {first}"));
        }
        let mut map = match &args.node_config {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                parse_toml(&text)?
            }
            None => BTreeMap::new(),
        };
        if let Some(addr) = &args.addr {
            map.insert("addr".to_string(), TomlValue::Str(addr.clone()));
            // an explicit --addr supersedes the file's id/bind split
            map.remove("id");
            map.remove("bind");
        }
        if let Some(peers) = &args.peers {
            map.insert("peers".to_string(), TomlValue::Str(peers.clone()));
        }
        if let Some(seed) = args.seed {
            map.insert("seed".to_string(), TomlValue::Int(seed));
        }
        Self::from_map(&map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# octopus-node boot config
addr = "3@127.0.0.1:7003"
seed = 99
run_ms = 5000
peers = ["1@127.0.0.1:7001", "2@127.0.0.1:7002", "3@127.0.0.1:7003"]
"#;

    #[test]
    fn parses_sample() {
        let c = NodeConfig::from_toml(SAMPLE).expect("valid");
        assert_eq!(c.id, NodeId(3));
        assert_eq!(c.bind, "127.0.0.1:7003".parse().unwrap());
        assert_eq!(c.seed, 99);
        assert_eq!(c.run_ms, 5000);
        assert_eq!(c.peers.len(), 3);
    }

    #[test]
    fn split_id_bind_form() {
        let c = NodeConfig::from_toml("id = 7\nbind = \"0.0.0.0:9000\"").expect("valid");
        assert_eq!(c.id, NodeId(7));
        assert_eq!(c.bind, "0.0.0.0:9000".parse().unwrap());
    }

    #[test]
    fn malformed_rejected_with_context() {
        assert!(NodeConfig::from_toml("addr = ").is_err());
        assert!(NodeConfig::from_toml("[section]").is_err());
        assert!(NodeConfig::from_toml("addr = \"unterminated").is_err());
        assert!(NodeConfig::from_toml("peers = [3]").is_err());
        assert!(NodeConfig::from_toml("seed = -4").is_err());
        // a repeated peer id names the entry that repeats it
        let err = NodeConfig::from_toml(
            "addr = \"1@127.0.0.1:7001\"\npeers = [\"1@127.0.0.1:7001\", \"1@127.0.0.1:7002\"]",
        )
        .expect_err("duplicate peer id");
        assert_eq!(err, "duplicate peer id: 1@127.0.0.1:7002");
        // missing id entirely
        assert!(NodeConfig::from_toml("seed = 4").is_err());
    }

    #[test]
    fn unknown_keys_rejected_by_name() {
        // a misspelled seed would boot with seed 0 and never converge
        assert_eq!(
            NodeConfig::from_toml("addr = \"3@127.0.0.1:7003\"\nsed = 42"),
            Err("line 2: unknown key: sed".to_string())
        );
        // the CA is the process at the CA's reserved id, not a flag
        assert_eq!(
            NodeConfig::from_toml("addr = \"3@127.0.0.1:7003\"\nca = true"),
            Err("line 2: unknown key: ca".to_string())
        );
    }

    #[test]
    fn repeated_peer_flag_entry_is_named() {
        let args = RunArgs {
            addr: Some("1@127.0.0.1:7001".to_string()),
            peers: Some("1@127.0.0.1:7001,2@127.0.0.1:7002,1@127.0.0.1:7003".to_string()),
            ..RunArgs::default()
        };
        assert_eq!(
            NodeConfig::resolve(&args),
            Err("duplicate peer id: 1@127.0.0.1:7003".to_string())
        );
    }

    #[test]
    fn flags_override_file_values() {
        let args = RunArgs {
            addr: Some("9@127.0.0.1:9009".to_string()),
            seed: Some(123),
            ..RunArgs::default()
        };
        // no file: flags alone suffice
        let c = NodeConfig::resolve(&args).expect("valid");
        assert_eq!(c.id, NodeId(9));
        assert_eq!(c.seed, 123);
    }

    #[test]
    fn unusable_flags_refused_by_name() {
        let addr = ["--addr", "9@127.0.0.1:9009"];
        for (flags, env_seed, named) in [
            (&["--sed", "42"][..], None, "--sed (unknown flag)"),
            (&["--seed=abc"], None, "--seed=abc (malformed value)"),
            (&["--seed", "abc"], None, "--seed abc (malformed value)"),
            (&[], Some("abc"), "OCTOPUS_SEED=abc (malformed value)"),
        ] {
            let tokens: Vec<String> = addr.iter().chain(flags).map(ToString::to_string).collect();
            let env = |k: &str| env_seed.filter(|_| k == "OCTOPUS_SEED").map(String::from);
            let args = RunArgs::parse(&tokens, env);
            // a figure bin would run on with its own seed...
            assert_eq!(args.seed, None, "{named}");
            assert_eq!(args.addr.as_deref(), Some("9@127.0.0.1:9009"));
            // ...but a node would boot with keys no other process shares
            assert_eq!(
                NodeConfig::resolve(&args),
                Err(format!("cannot use {named}"))
            );
        }
    }

    #[test]
    fn every_u64_seed_resolves() {
        // the bins take any u64 seed, so the node must too
        let args = RunArgs {
            addr: Some("9@127.0.0.1:9009".to_string()),
            seed: Some(u64::MAX),
            ..RunArgs::default()
        };
        assert_eq!(NodeConfig::resolve(&args).expect("valid").seed, u64::MAX);
        let file =
            "id = 18446744073709551615\nbind = \"0.0.0.0:9000\"\nseed = 18446744073709551615";
        let c = NodeConfig::from_toml(file).expect("valid");
        assert_eq!((c.id, c.seed), (NodeId(u64::MAX), u64::MAX));
        assert_eq!(
            NodeConfig::from_toml("id = 1\nseed = -4"),
            Err("line 2: negative integer -4: ids, seeds and times are non-negative".to_string())
        );
    }
}
