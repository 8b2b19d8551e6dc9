//! The determinism contract, end to end: clippy, reading the
//! repository's `clippy.toml`, must fire on every marked line of the
//! clippy-contract fixture (`tests/fixtures/clippy_contract`, a package
//! of its own), with the marked lint, and on no other line. A marked
//! line ends in `//~ clippy::<lint>`.

use std::path::Path;

/// Expected diagnostics from `//~ <lint>` markers: (1-based line, lint).
fn markers(source: &str) -> Vec<(u32, String)> {
    source
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let (_, m) = l.split_once("//~")?;
            Some((i as u32 + 1, m.trim().to_string()))
        })
        .collect()
}

/// Clippy finds the repository's `clippy.toml` by walking up from the
/// fixture's manifest. Ignored in tier-1 because it runs `cargo clippy`
/// on a package of its own; CI runs it with `--ignored`.
#[test]
#[ignore = "runs cargo clippy on the clippy-contract fixture; CI runs it with --ignored"]
fn clippy_contract_fires_on_exactly_the_marked_lines() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy_contract");
    let out = std::process::Command::new("cargo")
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--message-format=json-diagnostic-short",
            "--manifest-path",
        ])
        .arg(dir.join("Cargo.toml"))
        .output()
        .expect("run cargo clippy");
    assert!(
        out.status.success(),
        "cargo clippy failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // one JSON object per line; a compiler message's short rendering
    // starts `src/lib.rs:LINE:COL: `, and its lint is the one non-null
    // `code` (child notes carry none)
    let mut got: Vec<(u32, String)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-message\""))
        .map(|l| {
            let rendered = l.split_once("\"rendered\":\"").map_or("", |(_, r)| r);
            let line = rendered
                .strip_prefix("src/lib.rs:")
                .and_then(|r| r.split(':').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            let code = l
                .rsplit_once("\"code\":{\"code\":\"")
                .and_then(|(_, c)| c.split('"').next())
                .unwrap_or("<no code>");
            (line, code.to_string())
        })
        .collect();
    got.sort();
    let source = std::fs::read_to_string(dir.join("src/lib.rs")).expect("read fixture");
    assert_eq!(
        got,
        markers(&source),
        "clippy's diagnostics on the clippy-contract fixture diverge from its //~ markers"
    );
}
