//! `ascend-lint` — CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p ascend-lint -- --check                   # the CI gate
//! cargo run -p ascend-lint -- --check --format github   # PR annotations
//! ```
//!
//! Exit codes follow the `ascend-cli` convention: 0 clean, 1 violations,
//! 2 usage or I/O problems.

use std::path::PathBuf;

use ascend_lint::{report, workspace};

const USAGE: &str = "\
ascend-lint — static workspace invariant checker (see crates/lint/RULES.md)

USAGE:
    ascend-lint --check [--root PATH] [--format FMT]

MODES:
    --check            Fail (exit 1) on any violation, listing each with
                       its file and line

OPTIONS:
    --root PATH        Workspace root (default: found from the current dir)
    --format FMT       Output format: text (default) or github
                       (workflow-command annotations)
";

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(args: &[String]) -> i32 {
    let mut check = false;
    let mut root_flag: Option<PathBuf> = None;
    let mut format = "text";
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                return 0;
            }
            "--check" => check = true,
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
    if !check {
        eprint!("{USAGE}");
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

    let errors = report::check(&outcome);
    if format == "github" {
        print!("{}", report::render_github(&outcome));
        return i32::from(!errors.is_empty());
    }
    if errors.is_empty() {
        println!(
            "ascend-lint: OK — {} files, {} active waivers, 0 violations",
            outcome.files, outcome.waivers
        );
        0
    } else {
        eprintln!("ascend-lint: FAIL — {} problem(s):", errors.len());
        for e in &errors {
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
