//! `ascend-lint` — CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p ascend-lint -- --check             # the CI gate
//! cargo run -p ascend-lint -- --check --format github   # PR annotations
//! cargo run -p ascend-lint -- --report            # every violation, incl. baselined
//! cargo run -p ascend-lint -- --update-baseline   # rewrite crates/lint/baseline.tsv
//! ```
//!
//! Exit codes follow the `ascend-cli` convention: 0 clean, 1 violations,
//! 2 usage or I/O problems.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use ascend_lint::{report, workspace};

const USAGE: &str = "\
ascend-lint — static workspace invariant checker (see crates/lint/RULES.md)

USAGE:
    ascend-lint <--check|--report|--update-baseline> [--root PATH] [--format FMT]

MODES:
    --check            Fail (exit 1) on any deny-class violation or any
                       ratchet count above the committed baseline
    --report           Print every violation, including baselined ones
    --update-baseline  Rewrite crates/lint/baseline.tsv from the current
                       tree (counts may only be committed if they shrank)

OPTIONS:
    --root PATH        Workspace root (default: found from the current dir)
    --format FMT       Output format for --check: text (default) or github
                       (workflow-command annotations)
";

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(args: &[String]) -> i32 {
    let mut mode: Option<&str> = None;
    let mut root_flag: Option<PathBuf> = None;
    let mut format = "text";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                return 0;
            }
            m @ ("--check" | "--report" | "--update-baseline") => {
                if let Some(prev) = mode {
                    eprintln!("ascend-lint: `{m}` conflicts with `{prev}`\n{USAGE}");
                    return 2;
                }
                mode = match m {
                    "--check" => Some("--check"),
                    "--report" => Some("--report"),
                    _ => Some("--update-baseline"),
                };
            }
            "--root" => match it.next() {
                Some(p) => root_flag = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ascend-lint: `--root` needs a path\n{USAGE}");
                    return 2;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = "text",
                Some("github") => format = "github",
                Some(other) => {
                    eprintln!("ascend-lint: unknown format `{other}` (text|github)\n{USAGE}");
                    return 2;
                }
                None => {
                    eprintln!("ascend-lint: `--format` needs a value (text|github)\n{USAGE}");
                    return 2;
                }
            },
            other => {
                eprintln!("ascend-lint: unknown argument `{other}`\n{USAGE}");
                return 2;
            }
        }
    }
    let Some(mode) = mode else {
        eprint!("{USAGE}");
        return 2;
    };
    if format != "text" && mode != "--check" {
        eprintln!("ascend-lint: `--format {format}` only applies to `--check`\n{USAGE}");
        return 2;
    }

    let root = match root_flag {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("ascend-lint: cannot read the current directory: {e}");
                    return 2;
                }
            };
            match workspace::find_root(&cwd) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ascend-lint: {e}");
                    return 2;
                }
            }
        }
    };

    let outcome = match workspace::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ascend-lint: {e}");
            return 2;
        }
    };
    let baseline = match workspace::load_baseline(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ascend-lint: {e}");
            return 2;
        }
    };

    match mode {
        "--report" => {
            print!("{}", report::full_report(&outcome, &baseline));
            0
        }
        "--update-baseline" => {
            if let Err(e) = workspace::write_baseline(&root, &outcome) {
                eprintln!("ascend-lint: {e}");
                return 2;
            }
            println!(
                "ascend-lint: baseline rewritten from {} files ({} ratcheted violations)",
                outcome.files,
                outcome.ratchet.values().map(Vec::len).sum::<usize>()
            );
            if !outcome.deny.is_empty() {
                eprintln!(
                    "ascend-lint: note — {} deny-class violations remain (a baseline never \
                     covers those):",
                    outcome.deny.len()
                );
                for v in &outcome.deny {
                    eprintln!("  {}", v.render());
                }
                return 1;
            }
            0
        }
        _ => {
            let result = report::check(&outcome, &baseline);
            if format == "github" {
                print!("{}", report::render_github(&outcome, &baseline));
                return i32::from(!result.ok());
            }
            for note in &result.notes {
                println!("ascend-lint: note — {note}");
            }
            if result.ok() {
                println!(
                    "ascend-lint: OK — {} files, {} active waivers, 0 deny violations, \
                     ratchet within baseline",
                    outcome.files, outcome.waivers
                );
                0
            } else {
                eprintln!("ascend-lint: FAIL — {} problem(s):", result.errors.len());
                for e in &result.errors {
                    eprintln!("  {e}");
                }
                eprintln!(
                    "fix the violations, or waive a line with \
                     `// ascend-lint: allow(<rule>) -- <reason>` (reason mandatory; \
                     see crates/lint/RULES.md)"
                );
                1
            }
        }
    }
}
