//! Drive the *real byte-level* onion encryption over live threads: three
//! relay threads forward a layered query, each stripping exactly one
//! layer, with the middle relay adding the anti-timing-analysis delay
//! (paper §4.1/§4.7).
//!
//!     cargo run --release --example onion_relay

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use octopus::crypto::onion;
use rand::Rng;

/// Master seed for the demo's derived RNG streams.
const DEMO_SEED: u64 = 0x0C70;

struct Relay {
    name: &'static str,
    key: [u8; 32],
    addr: u64,
    inbox: Receiver<Vec<u8>>,
    network: Vec<(u64, Sender<Vec<u8>>)>,
    add_delay: bool,
}

impl Relay {
    fn run(self, log: Arc<Mutex<Vec<String>>>) {
        // each relay handles exactly one packet in this demo
        if let Ok(packet) = self.inbox.recv() {
            let layer = onion::unwrap(&packet, &self.key).expect("valid layer");
            if self.add_delay {
                // the middle relay B blurs timing correlation (§4.7);
                // the jitter draws from a seeded per-relay stream so the
                // demo replays identically (determinism contract)
                let ms = octopus::sim::derive_rng(DEMO_SEED, b"relay-delay", self.addr)
                    .gen_range(0..100);
                thread::sleep(Duration::from_millis(ms));
            }
            if layer.next_hop == 0 {
                log.lock().unwrap().push(format!(
                    "{}: exit — decrypted query: {:?}",
                    self.name,
                    String::from_utf8_lossy(&layer.inner)
                ));
                return;
            }
            log.lock()
                .unwrap()
                .push(format!("{}: forwarding to {}", self.name, layer.next_hop));
            let next = self
                .network
                .iter()
                .find(|(a, _)| *a == layer.next_hop)
                .expect("known hop");
            next.1.send(layer.inner).expect("send");
        }
    }
}

fn main() {
    let keys: Vec<[u8; 32]> = (0..3).map(|i| [i as u8 + 1; 32]).collect();
    let addrs = [101u64, 102, 103];
    type Packet = Vec<u8>;
    let (senders, receivers): (Vec<Sender<Packet>>, Vec<Receiver<Packet>>) =
        (0..3).map(|_| channel()).unzip();
    let network: Vec<(u64, Sender<Vec<u8>>)> = addrs
        .iter()
        .zip(senders.iter())
        .map(|(&a, tx)| (a, tx.clone()))
        .collect();
    let log = Arc::new(Mutex::new(Vec::new()));

    let mut handles = Vec::new();
    for (i, rx) in receivers.into_iter().enumerate() {
        let relay = Relay {
            name: ["relay A", "relay B", "relay D (exit)"][i],
            key: keys[i],
            addr: addrs[i],
            inbox: rx,
            network: network.clone(),
            add_delay: i == 1,
        };
        let log = log.clone();
        handles.push(thread::spawn(move || relay.run(log)));
    }
    // drop the initiator's copies so exit relays see disconnected inboxes
    drop(senders);

    // the initiator wraps the query for A → B → D
    let onion_packet = onion::wrap(
        b"GET routing-table (key hidden)",
        &keys,
        &[102, 103, 0],
        octopus::sim::derive_rng(DEMO_SEED, b"onion-nonce", 0).gen(),
    );
    println!(
        "initiator: sending {}-byte onion to relay A",
        onion_packet.len()
    );
    network[0].1.send(onion_packet).expect("send");
    drop(network);

    for h in handles {
        let _ = h.join();
    }
    for line in log.lock().unwrap().iter() {
        println!("{line}");
    }
    println!("no relay saw both the initiator and the query — that's the point.");
}
