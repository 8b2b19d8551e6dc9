//! `octopus-node`: one Octopus node (peer or CA) over real UDP.
//!
//! Boot is fully deterministic from the shared master seed: every
//! process in a deployment derives the *same* certificate authority,
//! the same per-node keypairs and certificates, and the same idealized
//! ring state, purely from `seed` and the (sorted) peer table — no
//! key-distribution step, which keeps multi-process bring-up a matter
//! of pointing N processes at the same config. The protocol running on
//! top is the untouched `octopus-core` code driven through the
//! transport-agnostic `Runtime` boundary.
//!
//! ```text
//! octopus-node --node-config node3.toml
//! octopus-node --addr 3@127.0.0.1:7003 \
//!              --peers 1@127.0.0.1:7001,2@127.0.0.1:7002,3@127.0.0.1:7003 \
//!              --seed 42
//! ```
//!
//! Progress is reported as machine-parsable lines on stdout (`ready`,
//! `lookup-done`, `final`, `clean-shutdown`) — the multi-process smoke
//! test drives and asserts on exactly these.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::UdpSocket;

use octopus_bench::RunArgs;
use octopus_chord::signed::successor_list_table;
use octopus_chord::{ChordConfig, SignedRoutingTable};
use octopus_core::simnet::CA_ADDR;
use octopus_core::{Actor, CaNode, Control, OctopusConfig, OctopusNode};
use octopus_crypto::{Certificate, CertificateAuthority, KeyPair};
use octopus_id::{IdSpace, NodeId};
use octopus_net::Transport;
use octopus_sim::{derive_rng, Duration};
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

/// Deterministic deployment-wide key material: every process computes
/// this identically from the master seed and the sorted ring ids.
struct Deployment {
    ca_node: CaNode,
    keys: BTreeMap<NodeId, (KeyPair, Certificate)>,
    space: IdSpace,
}

fn derive_deployment(seed: u64, ring_ids: &[NodeId], cfg: OctopusConfig) -> Deployment {
    let mut rng = derive_rng(seed, b"udp-boot", 0);
    let authority = CertificateAuthority::new(&mut rng);
    let mut ca_node = CaNode::new(CA_ADDR, authority, cfg);
    let mut keys = BTreeMap::new();
    for &id in ring_ids {
        let kp = KeyPair::generate(&mut rng);
        let cert = ca_node.issue_cert(id, kp.public());
        ca_node.register(id, kp.public());
        ca_node.note_join(id, 0);
        keys.insert(id, (kp, cert));
    }
    ca_node.broadcast_to = ring_ids.to_vec();
    Deployment {
        ca_node,
        keys,
        space: IdSpace::new(ring_ids),
    }
}

/// Idealized-join seeding, mirroring the simulator's driver: ring lists
/// from ground truth, finger provenance signed by real third parties,
/// and an initial relay-pair pool so lookups work before the first walk
/// completes.
fn seed_node(node: &mut OctopusNode, dep: &Deployment, chord: ChordConfig, seed: u64) {
    let id = node.id;
    let space = &dep.space;
    let succs = space.successor_list(id, chord.successors);
    let preds = space.predecessor_list(id, chord.predecessors);
    let fingers: Vec<NodeId> = (0..chord.fingers)
        .map(|i| space.owner_of(chord.finger_target(id, i)).owner)
        .collect();
    let mut rng = derive_rng(seed, b"udp-relays", id.0);
    let mut pairs = Vec::new();
    while pairs.len() < 4 {
        let a = space.random_member(&mut rng);
        let b = space.random_member(&mut rng);
        if a != b && a != id && b != id {
            pairs.push((a, b));
        } else if space.len() < 4 {
            break; // tiny ring: distinct pairs may not exist
        }
    }
    node.seed_state(succs, preds, fingers, pairs);
    for i in 0..chord.fingers {
        let ideal = chord.finger_target(id, i);
        let owner = space.owner_of(ideal).owner;
        let signer = (1..=3)
            .map(|d| space.predecessor(owner, d))
            .find(|&s| s != id && s != owner);
        let Some(signer) = signer else { continue };
        let Some((kp, cert)) = dep.keys.get(&signer) else {
            continue;
        };
        let list = space.successor_list(signer, chord.successors);
        let signed = SignedRoutingTable::sign(successor_list_table(signer, list), 0, kp, *cert);
        node.set_finger_provenance(i, signed);
    }
}

fn run() -> Result<(), String> {
    let args = RunArgs::from_env();
    let cfg = NodeConfig::resolve(&args)?;
    // the CA's reserved overlay address identifies it even without an
    // explicit `ca = true` in the config
    let is_ca = cfg.ca || cfg.id == CA_ADDR;
    let my_id = if is_ca { CA_ADDR } else { cfg.id };

    // ring members: every peer-table entry except the CA's
    let ring_ids: Vec<NodeId> = cfg
        .peers
        .ids()
        .into_iter()
        .filter(|&i| i != CA_ADDR)
        .collect();
    if !is_ca && !ring_ids.contains(&cfg.id) {
        return Err(format!(
            "own id {} missing from the peer table (add it to peers)",
            cfg.id.0
        ));
    }
    let ocfg = accelerated_config(ring_ids.len());
    let dep = derive_deployment(cfg.seed, &ring_ids, ocfg);
    let ca_key = dep.ca_node.public_key();

    let actor = if is_ca {
        Actor::Ca(Box::new(dep.ca_node))
    } else {
        let (kp, cert) = dep
            .keys
            .get(&cfg.id)
            .cloned()
            .ok_or_else(|| "own key missing after derivation".to_string())?;
        let mut node = OctopusNode::new(cfg.id, ocfg, kp, cert, CA_ADDR, ca_key, None);
        seed_node(&mut node, &dep, ocfg.chord, cfg.seed);
        Actor::Peer(Box::new(node))
    };

    let socket = UdpSocket::bind(cfg.bind).map_err(|e| format!("bind {}: {e}", cfg.bind))?;
    let local = socket.local_addr().map_err(|e| e.to_string())?;
    let mut host = UdpHost::new(actor, my_id, socket, cfg.peers.clone(), cfg.seed)
        .map_err(|e| e.to_string())?;
    println!("ready id={} bind={local}", my_id.0);
    std::io::stdout().flush().ok();
    // grace period: give the rest of the deployment time to bind before
    // the first onion goes out (a message to an unbound peer is silently
    // lost and costs a full request timeout)
    std::thread::sleep(std::time::Duration::from_millis(400));

    let run_ms = if cfg.run_ms == 0 {
        u64::MAX
    } else {
        cfg.run_ms
    };
    let chunk = Duration::from_millis(100);
    let mut elapsed_ms = 0u64;
    let mut lookups = 0u64;
    let mut converged = 0u64;
    while elapsed_ms < run_ms {
        for control in host.drive(chunk) {
            if let Control::LookupDone {
                initiator,
                key,
                result,
                hops,
                ..
            } = control
            {
                let expected = dep.space.owner_of(key).owner;
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
        elapsed_ms = elapsed_ms.saturating_add(100);
    }

    let s = host.stats;
    println!(
        "final id={} lookups={lookups} converged={converged} frames_in={} frames_out={} \
         datagrams_out={} rejected={} unknown_peer={}",
        my_id.0,
        s.frames_in,
        s.frames_out,
        s.datagrams_out,
        s.frames_rejected,
        s.dropped_unknown_peer
    );
    println!("clean-shutdown id={}", my_id.0);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("octopus-node: {e}");
        std::process::exit(1);
    }
}
