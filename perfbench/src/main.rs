//! Command line of the benchmark; see the crate docs of `perfbench`.
//!
//! ```text
//! perfbench [run] --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare DIR_A DIR_B [--benchmark BENCHMARK.json]
//! perfbench prepare            # train and cache the models (internal)
//! ```
//!
//! Run from the root of a checkout: models are cached under
//! `.perfbench/cache`, every result is also written to
//! `.perfbench/results/<workload>/`, and traced runs write their spans as
//! chrome://tracing JSON to `.perfbench/traces/`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use perfbench::json::Value;
use perfbench::workloads::{self, RunConfig, Workload, END_TO_END, PER_LAYER};
use perfbench::{compare, host, models, trace};

const STATE_DIR: &str = ".perfbench";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench [run] --workload <{}> --seed N --seconds S --trace 0|1\n       \
         perfbench compare DIR_A DIR_B [--benchmark BENCHMARK.json]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("prepare") => match models::prepare(&cache_dir()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench prepare: {e}");
                ExitCode::FAILURE
            }
        },
        Some("run") => run_cmd(&args[1..]),
        _ => run_cmd(&args),
    }
}

fn cache_dir() -> PathBuf {
    Path::new(STATE_DIR).join("cache")
}

/// Value of `--name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_cmd(args: &[String]) -> ExitCode {
    let parsed = (|| {
        Some(RunConfig {
            workload: Workload::parse(flag(args, "--workload")?)?,
            seed: flag(args, "--seed")?.parse().ok()?,
            seconds: flag(args, "--seconds")?
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)?,
            trace: match flag(args, "--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                _ => return None,
            },
        })
    })();
    let Some(cfg) = parsed else { return usage() };

    // Training runs in a child process, so its time and memory never reach
    // a metric of this one.
    let cache = cache_dir();
    if !models::cached(&cache) {
        let status = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .arg("prepare")
                .stdout(Stdio::null())
                .status()
        });
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("perfbench: model preparation failed: {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let result = match workloads::run(&cfg, &cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let listed: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Value::obj();
    for (name, unit) in listed {
        let value = result.metrics.get(name).copied().unwrap_or(0.0);
        metrics = metrics.with(name, Value::obj().with("value", value).with("unit", *unit));
    }
    let correct = result.mismatched == 0 && result.checked > 0;
    let line = Value::obj()
        .with("correct", correct)
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with("metrics", metrics);

    let mut prov = host::provenance();
    for (k, v) in &result.params {
        prov = prov.with(k, v.clone());
    }
    prov = prov
        .with("attempted", result.attempted)
        .with("failed", result.failed)
        .with(
            "error_ratio",
            result.failed as f64 / result.attempted.max(1) as f64,
        )
        .with("checked", result.checked)
        .with("mismatched", result.mismatched);

    print!("{}", result.report);
    if cfg.trace {
        if let Some(epoch) = result.epoch {
            let path = Path::new(STATE_DIR).join("traces").join(format!(
                "{}-seed{}.json",
                cfg.workload.name(),
                cfg.seed
            ));
            match write(&path, &trace::chrome_json(&result.spans, epoch)) {
                Ok(()) => println!(
                    "spans ({}) written to {}",
                    result.spans.len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: {e}"),
            }
        }
    }
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let file = Path::new(STATE_DIR)
        .join("results")
        .join(cfg.workload.name())
        .join(format!(
            "seed{}-trace{}-{stamp}.json",
            cfg.seed,
            u8::from(cfg.trace)
        ));
    let record = Value::obj()
        .with("provenance", prov.clone())
        .with("result", line.clone());
    if let Err(e) = write(&file, &record.to_string()) {
        eprintln!("perfbench: {e}");
    }
    println!("{}", Value::obj().with("provenance", prov));
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checked responses differ from the serial forward",
            result.mismatched, result.checked
        );
        ExitCode::FAILURE
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let bench = flag(args, "--benchmark").unwrap_or("BENCHMARK.json");
    let loaded = compare::load_bounds(Path::new(bench)).and_then(|bounds| {
        Ok((
            bounds,
            compare::load_results(Path::new(a))?,
            compare::load_results(Path::new(b))?,
        ))
    });
    match loaded {
        Ok((bounds, sa, sb)) => {
            if compare::report(&bounds, &sa, &sb) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}
