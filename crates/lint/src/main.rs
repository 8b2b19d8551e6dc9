//! `octolint` CLI — run the determinism-contract pass over the tree.
//!
//!     cargo run -p octopus-lint -- [--root <dir>] [--quiet] [--list-rules]
//!                                  [--format text|json]
//!
//! Exit codes are script-friendly (the CI gate relies on them):
//! 0 clean, 1 violations found, 2 usage or IO error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: octolint [--root <dir>] [--quiet] [--list-rules] [--format text|json]
  --root <dir>    workspace root to scan (default: current directory)
  --quiet         print only the diagnostics, no banner or summary
  --list-rules    print the rule table and exit
  --format <fmt>  output format: text (default) or json (stable schema,
                  includes audited suppressions)";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut quiet = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quiet" | "-q" => quiet = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("octolint: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                other => {
                    eprintln!(
                        "octolint: --format needs `text` or `json`, got {:?}\n{USAGE}",
                        other.unwrap_or("<none>")
                    );
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in octopus_lint::RULES {
                    let tag = if rule.retired { " (retired)" } else { "" };
                    println!("{} [{}]{tag}\n    {}", rule.code, rule.name, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("octolint: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match octopus_lint::lint_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("octolint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        if !quiet {
            println!(
                "octolint: {} violation(s), {} suppressed, {} file(s) scanned",
                report.diagnostics.len(),
                report.suppressed,
                report.files_scanned
            );
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
