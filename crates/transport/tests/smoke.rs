//! Multi-process UDP smoke test (feature `net-smoke`).
//!
//! Boots a real deployment on localhost — four Octopus peers plus the
//! CA, five OS processes total — each from its command line alone
//! (`--addr`, `--peers`, `--seed`, `--run-ms`), lets it run lookups
//! over actual UDP sockets, and asserts:
//!
//! * every process reports `ready` and exits cleanly (status 0 with a
//!   `clean-shutdown` line) within a hard timeout;
//! * every peer completes lookups and the large majority *converge*
//!   (the result matches the ground-truth ring owner — the paper's
//!   correctness criterion);
//! * no process rejected a frame: all traffic is codec-clean;
//! * every peer sent frames, and no process sent more datagrams than
//!   frames (a datagram carries one or more).
//!
//! Gated behind `net-smoke` because it binds sockets and spawns
//! processes; the dedicated CI job runs
//! `cargo test -p octopus-transport --features net-smoke --test smoke`.

#![cfg(feature = "net-smoke")]

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Hard ceiling on the whole deployment's lifetime. The run itself is
/// ~7 s; anything past this is a hang, and the harness kills it rather
/// than letting CI time out opaquely.
const HARD_TIMEOUT: Duration = Duration::from_secs(60);

/// Wall-clock protocol runtime per process (ms).
const RUN_MS: u64 = 6000;

const PEER_IDS: [u64; 4] = [100, 200, 300, 400];
const CA_ID: u64 = u64::MAX;

struct Proc {
    name: String,
    child: Child,
}

fn spawn_deployment(base_port: u16) -> Vec<Proc> {
    let ca_entry = format!("{CA_ID}@127.0.0.1:{base_port}");
    let mut entries: Vec<String> = PEER_IDS
        .iter()
        .enumerate()
        .map(|(i, id)| format!("{id}@127.0.0.1:{}", base_port + 1 + i as u16))
        .collect();
    entries.push(ca_entry);
    let peers = entries.join(",");

    let mut procs = Vec::new();
    for entry in &entries {
        let id: u64 = entry.split('@').next().unwrap().parse().unwrap();
        let name = if id == CA_ID {
            "ca".to_string()
        } else {
            format!("peer{id}")
        };
        let child = Command::new(env!("CARGO_BIN_EXE_octopus-node"))
            .args([
                "--addr",
                entry.as_str(),
                "--peers",
                peers.as_str(),
                "--seed",
                "42",
            ])
            .arg(format!("--run-ms={RUN_MS}"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn octopus-node");
        procs.push(Proc { name, child });
    }
    procs
}

// Timing a real multi-process deployment is inherently wall-clock
// (clippy.toml's `std::time::Instant::now` entry names crates/transport
// as a sanctioned timing site).
#[expect(
    clippy::disallowed_methods,
    reason = "a multi-process deployment runs on real time"
)]
fn wall_now() -> Instant {
    Instant::now()
}

/// Wait for every process within the hard timeout; kill stragglers.
fn wait_all(procs: &mut [Proc]) -> Vec<(String, std::process::Output)> {
    let deadline = wall_now() + HARD_TIMEOUT;
    let mut done: Vec<Option<()>> = procs.iter().map(|_| None).collect();
    loop {
        let mut all_done = true;
        for (i, p) in procs.iter_mut().enumerate() {
            if done[i].is_none() {
                match p.child.try_wait().expect("try_wait") {
                    Some(_) => done[i] = Some(()),
                    None => all_done = false,
                }
            }
        }
        if all_done {
            break;
        }
        if wall_now() >= deadline {
            for p in procs.iter_mut() {
                let _ = p.child.kill();
            }
            panic!("deployment exceeded the {HARD_TIMEOUT:?} hard timeout");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    procs
        .iter_mut()
        .map(|p| {
            let out = std::mem::replace(&mut p.child, Command::new("true").spawn().unwrap())
                .wait_with_output()
                .expect("collect output");
            (p.name.clone(), out)
        })
        .collect()
}

fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
}

#[test]
fn four_process_udp_deployment_converges() {
    let mut procs = spawn_deployment(17900);
    let outputs = wait_all(&mut procs);

    let mut total_converged = 0u64;
    for (name, out) in &outputs {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{name} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
            out.status
        );
        assert!(stdout.contains("ready id="), "{name} never reported ready");
        assert!(
            stdout.contains("clean-shutdown id="),
            "{name} did not shut down cleanly:\n{stdout}"
        );
        let final_line = stdout
            .lines()
            .find(|l| l.starts_with("final "))
            .unwrap_or_else(|| panic!("{name} printed no final line:\n{stdout}"));
        let lookups = field(final_line, "lookups").expect("lookups field");
        let converged = field(final_line, "converged").expect("converged field");
        let rejected = field(final_line, "rejected").expect("rejected field");
        assert_eq!(rejected, 0, "{name} rejected frames: {final_line}");
        // frames leave packed, one or more to a datagram; the CA of a
        // run without reports sends none
        let frames_out = field(final_line, "frames_out").expect("frames_out field");
        let datagrams_out = field(final_line, "datagrams_out").expect("datagrams_out field");
        assert!(
            datagrams_out <= frames_out && (datagrams_out > 0) == (frames_out > 0),
            "{name} sent {frames_out} frames in {datagrams_out} datagrams: {final_line}"
        );
        if name != "ca" {
            // each peer runs lookups every ~500 ms for 6 s: demand real
            // activity and majority convergence (startup raciness may
            // cost the first request-timeout's worth)
            assert!(lookups >= 4, "{name} ran too few lookups: {final_line}");
            assert!(datagrams_out > 0, "{name} sent nothing: {final_line}");
            assert!(
                converged * 2 > lookups,
                "{name} failed to converge a majority: {final_line}"
            );
            total_converged += converged;
        }
    }
    assert!(
        total_converged >= PEER_IDS.len() as u64 * 3,
        "deployment converged too few lookups in total ({total_converged})"
    );
}
