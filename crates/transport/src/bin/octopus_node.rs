//! `octopus-node`: one Octopus node (peer or CA) over real UDP.
//!
//! Boot is fully deterministic from the shared master seed: every
//! process in a deployment derives the *same* certificate authority,
//! the same per-node keypairs and certificates, and the same idealized
//! ring state, purely from `seed` and the (sorted) peer table — no
//! key-distribution step, which keeps multi-process bring-up a matter
//! of pointing N processes at the same peer list and seed. The ring
//! state is the simulator's idealized join, `octopus_core::genesis`;
//! only the relay pairs are this binary's own draws. The process whose
//! id is the CA's reserved address (`2^64 - 1`) hosts the CA. The
//! protocol running on top is the untouched `octopus-core` code driven
//! through the transport-agnostic `Runtime` boundary.
//!
//! The command line is the whole configuration (`NodeConfig::parse`):
//!
//! ```text
//! octopus-node --addr 3@127.0.0.1:7003 \
//!              --peers 1@127.0.0.1:7001,2@127.0.0.1:7002,3@127.0.0.1:7003 \
//!              --seed 42 [--run-ms 6000]
//! ```
//!
//! Progress is reported as machine-parsable lines on stdout (`ready`,
//! `lookup-done`, `final`, `clean-shutdown`) — the multi-process smoke
//! test drives and asserts on exactly these.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::UdpSocket;

use octopus_chord::GroundTruthView;
use octopus_core::genesis::{self, RingKeys};
use octopus_core::simnet::CA_ADDR;
use octopus_core::{Actor, CaNode, Control, OctopusConfig, OctopusNode};
use octopus_crypto::{CertificateAuthority, PublicKey};
use octopus_id::{IdSpace, NodeId};
use octopus_net::Transport;
use octopus_sim::{derive_rng, Duration, SimTime};
use octopus_transport::{NodeConfig, UdpHost};

/// Protocol periods shrunk for wall-clock runs: the paper's periods
/// (2 s stabilize, 60 s lookups) assume long-lived deployments; a smoke
/// run has seconds, not minutes.
fn accelerated_config(n: usize) -> OctopusConfig {
    let mut cfg = OctopusConfig::for_network(n.max(2));
    cfg.stabilize_every = Duration::from_millis(250);
    cfg.finger_update_every = Duration::from_secs(5);
    cfg.surveillance_every = Duration::from_secs(60);
    cfg.walk_every = Duration::from_secs(2);
    cfg.lookup_every = Duration::from_millis(500);
    cfg.request_timeout = Duration::from_secs(2);
    cfg.relay_max_delay = Duration::from_millis(10);
    cfg
}

/// The deployment's CA and every member's keys: each process derives
/// them identically from the master seed and the ring.
fn issue(seed: u64, space: &IdSpace, cfg: OctopusConfig) -> (CaNode, RingKeys) {
    let mut rng = derive_rng(seed, b"udp-boot", 0);
    let mut ca = CaNode::new(CA_ADDR, CertificateAuthority::new(&mut rng), cfg);
    let keys = genesis::issue_certs(&mut ca, space, &mut rng);
    (ca, keys)
}

/// Member `id`'s initial relay pairs, from its own stream: draws are
/// retried until it holds four, so lookups work before its first walk
/// completes. On a ring of fewer than four members, where valid pairs
/// may not exist, it stops at the first invalid draw.
fn relay_pairs(seed: u64, space: &IdSpace, id: NodeId) -> Vec<(NodeId, NodeId)> {
    let mut rng = derive_rng(seed, b"udp-relays", id.0);
    let mut pairs = Vec::new();
    while pairs.len() < 4 {
        match genesis::relay_pair(space, id, &mut rng) {
            Some(pair) => pairs.push(pair),
            None if space.len() < 4 => break,
            None => {}
        }
    }
    pairs
}

/// Ring member `id`, seated by the idealized join. `id` must be in
/// `space`.
fn peer(
    seed: u64,
    space: &IdSpace,
    cfg: OctopusConfig,
    keys: &RingKeys,
    ca_key: PublicKey,
    id: NodeId,
) -> OctopusNode {
    let (kp, cert) = keys.get(&id).expect("every ring member has keys").clone();
    let mut node = OctopusNode::new(id, cfg, kp, *cert, CA_ADDR, ca_key, None);
    let truth = GroundTruthView::new(space, cfg.chord);
    genesis::seed_from_truth(&mut node, &truth, relay_pairs(seed, space, id));
    genesis::seed_provenance(&mut node, &truth, keys, 0, &mut BTreeMap::new());
    node
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = NodeConfig::parse(&args)?;
    // the CA's reserved overlay address identifies it
    let is_ca = cfg.id == CA_ADDR;

    // ring members: every peer-table entry except the CA's
    let ring_ids: Vec<NodeId> = cfg
        .peers
        .ids()
        .into_iter()
        .filter(|&i| i != CA_ADDR)
        .collect();
    let ocfg = accelerated_config(ring_ids.len());
    let space = IdSpace::new(&ring_ids);
    let (ca, keys) = issue(cfg.seed, &space, ocfg);
    let actor = if is_ca {
        Actor::Ca(Box::new(ca))
    } else {
        let node = peer(cfg.seed, &space, ocfg, &keys, ca.public_key(), cfg.id);
        Actor::Peer(Box::new(node))
    };

    let socket = UdpSocket::bind(cfg.bind).map_err(|e| format!("bind {}: {e}", cfg.bind))?;
    let local = socket.local_addr().map_err(|e| e.to_string())?;
    let mut host = UdpHost::new(actor, cfg.id, socket, cfg.peers.clone(), cfg.seed)
        .map_err(|e| e.to_string())?;
    println!("ready id={} bind={local}", cfg.id.0);
    std::io::stdout().flush().ok();
    // grace period: give the rest of the deployment time to bind before
    // the first onion goes out (a message to an unbound peer is silently
    // lost and costs a full request timeout)
    std::thread::sleep(std::time::Duration::from_millis(400));

    let run_ms = cfg.run_ms.unwrap_or(u64::MAX);
    // `run_ms` of driving from here on the host's clock, so a drive that
    // returns early or runs over does not move the end of the run
    let end = SimTime(host.now().0.saturating_add(run_ms.saturating_mul(1000)));
    let chunk = Duration::from_millis(100);
    let mut lookups = 0u64;
    let mut converged = 0u64;
    loop {
        let left = end - host.now();
        if left == Duration::ZERO {
            break;
        }
        for control in host.drive(left.min(chunk)) {
            if let Control::LookupDone {
                initiator,
                key,
                result,
                hops,
                ..
            } = control
            {
                let expected = space.owner_of(key).owner;
                let ok = result == Some(expected);
                lookups += 1;
                converged += u64::from(ok);
                println!(
                    "lookup-done id={} key={:#x} ok={ok} hops={hops}",
                    initiator.0, key.0
                );
                std::io::stdout().flush().ok();
            }
        }
    }

    let s = host.stats;
    println!(
        "final id={} lookups={lookups} converged={converged} frames_in={} frames_out={} \
         datagrams_out={} rejected={} unknown_peer={}",
        cfg.id.0,
        s.frames_in,
        s.frames_out,
        s.datagrams_out,
        s.frames_rejected,
        s.dropped_unknown_peer
    );
    println!("clean-shutdown id={}", cfg.id.0);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("octopus-node: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_chord::RoutingView;

    #[test]
    fn every_peer_seeds_from_ground_truth_with_four_relay_pairs() {
        for n in [4u64, 16] {
            let ids: Vec<NodeId> = (1..=n)
                .map(|i| NodeId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            let space = IdSpace::new(&ids);
            let cfg = accelerated_config(space.len());
            let (ca, keys) = issue(42, &space, cfg);
            let truth = GroundTruthView::new(&space, cfg.chord);
            for &id in space.ids() {
                let node = peer(42, &space, cfg, &keys, ca.public_key(), id);
                let table = truth.table_of(id);
                assert_eq!(node.successors(), table.successors, "{n} peers, {id:?}");
                assert_eq!(node.predecessors(), table.predecessors, "{n} peers, {id:?}");
                assert_eq!(node.fingers(), table.fingers, "{n} peers, {id:?}");
                assert_eq!(relay_pairs(42, &space, id).len(), 4, "{n} peers, {id:?}");
            }
        }
    }
}
