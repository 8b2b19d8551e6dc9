//! The peer table: overlay id → socket address.
//!
//! The simulator routes by [`octopus_net::Addr`] directly; a real
//! transport needs the extra indirection. Entries use the textual form
//! `id@host:port` (decimal or `0x`-prefixed hex id), the syntax of
//! `octopus-node`'s `--addr` and of each entry of its `--peers`.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use octopus_id::NodeId;

/// Maps overlay ids to UDP socket addresses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerTable {
    map: BTreeMap<NodeId, SocketAddr>,
}

impl PeerTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or update) a peer's address.
    pub fn insert(&mut self, id: NodeId, addr: SocketAddr) {
        self.map.insert(id, addr);
    }

    /// Look up a peer's socket address.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<SocketAddr> {
        self.map.get(&id).copied()
    }

    /// Number of known peers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All known overlay ids, in ring order.
    #[must_use]
    pub fn ids(&self) -> Vec<NodeId> {
        self.map.keys().copied().collect()
    }

    /// Iterate `(id, addr)` pairs in ring order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, SocketAddr)> + '_ {
        self.map.iter().map(|(&id, &a)| (id, a))
    }

    /// Parse one `id@host:port` endpoint.
    pub(crate) fn parse_entry(s: &str) -> Option<(NodeId, SocketAddr)> {
        let (id, addr) = s.trim().split_once('@')?;
        let id = parse_node_id(id)?;
        let addr: SocketAddr = addr.parse().ok()?;
        Some((id, addr))
    }

    /// Build a table from `id@host:port` entries, skipping blank ones.
    ///
    /// # Errors
    /// Names the first entry that is malformed or repeats an earlier
    /// entry's id, so a typo fails the whole boot instead of silently
    /// shrinking the ring.
    pub(crate) fn from_entries<'a>(
        entries: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, String> {
        let mut table = PeerTable::new();
        for entry in entries {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (id, addr) =
                Self::parse_entry(entry).ok_or_else(|| format!("malformed peer: {entry}"))?;
            if table.map.insert(id, addr).is_some() {
                return Err(format!("duplicate peer id: {entry}"));
            }
        }
        Ok(table)
    }
}

/// Parse a node id: decimal, or hex with a `0x` prefix.
fn parse_node_id(s: &str) -> Option<NodeId> {
    let s = s.trim();
    let v = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok()?,
        None => s.parse().ok()?,
    };
    Some(NodeId(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_endpoints() {
        let (id, addr) = PeerTable::parse_entry("42@127.0.0.1:7042").expect("valid");
        assert_eq!(id, NodeId(42));
        assert_eq!(addr, "127.0.0.1:7042".parse().unwrap());
        let (id, _) = PeerTable::parse_entry("0xff@127.0.0.1:1").expect("hex id");
        assert_eq!(id, NodeId(255));
    }

    #[test]
    fn spec_roundtrip() {
        let t = PeerTable::from_entries("1@127.0.0.1:7001, 2@127.0.0.1:7002,".split(','))
            .expect("valid spec");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(NodeId(1)), Some("127.0.0.1:7001".parse().unwrap()));
        assert_eq!(t.get(NodeId(2)), Some("127.0.0.1:7002".parse().unwrap()));
        assert_eq!(t.get(NodeId(3)), None);
    }

    #[test]
    fn malformed_specs_rejected() {
        let parse = |spec: &str| PeerTable::from_entries(spec.split(','));
        assert_eq!(
            parse("1@nonsense"),
            Err("malformed peer: 1@nonsense".to_string())
        );
        assert!(parse("one@127.0.0.1:7001").is_err());
        assert!(parse("127.0.0.1:7001").is_err());
        // a repeated id, even at another address, would shrink the ring
        assert_eq!(
            parse("1@127.0.0.1:7001,1@127.0.0.1:7002"),
            Err("duplicate peer id: 1@127.0.0.1:7002".to_string())
        );
        assert!(parse("0x1@127.0.0.1:7001, 1@127.0.0.1:7001").is_err());
        // empty spec is a valid empty table (seed processes start alone)
        assert_eq!(parse("").map(|t| t.len()), Ok(0));
    }
}
