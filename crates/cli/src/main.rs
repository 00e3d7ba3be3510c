//! `ascend-cli` — the end-to-end ASCEND pipeline over artifact files.
//!
//! The paper's deployment flow, one subcommand per stage, chained through
//! persisted artifacts so no stage ever repeats another's work:
//!
//! ```text
//! ascend-cli train   --out model.ckpt          # QAT training  → checkpoint
//! ascend-cli compile --model model.ckpt \
//!                    --out engine.sceng        # checkpoint    → SC engine
//! ascend-cli eval    --engine engine.sceng     # engine        → accuracy
//! ascend-cli serve   --engine engine.sceng     # engine        → batched serving
//! ascend-cli info    --path any-artifact       # artifact introspection
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs; the build is
//! offline and dependency-free). Errors print to stderr and exit 2 for
//! usage problems, 1 for runtime failures.

use std::path::{Path, PathBuf};

use ascend::engine::{EngineConfig, ScEngine};
use ascend::{BackendKind, Session};
use ascend_io::{ArtifactReader, ModelCheckpoint};
use ascend_vit::data::synth_cifar;
use ascend_vit::train::{evaluate, train_model, TrainConfig};
use ascend_vit::{PrecisionPlan, VitConfig, VitModel};

const USAGE: &str = "\
ascend-cli — train, compile, eval, and serve the ASCEND SC-ViT pipeline

USAGE:
    ascend-cli <train|compile|eval|serve|info> [--key value ...]

SUBCOMMANDS:
    train    Train a QAT ViT on SynthCIFAR and save a model checkpoint
             --out PATH (required)  --classes 4  --image 8  --patch 4
             --dim 16  --layers 2  --heads 2  --train-n 96  --test-n 48
             --data-seed 7  --epochs 3  --qat-epochs (= --epochs)
             --batch 16  --lr 0.001  --plan w2a2r16|w4a4r16|w16a16r16|fp
             --calib 16  --verbose true
    compile  Compile an SC engine from a checkpoint and save the artifact
             --model PATH (required)  --out PATH (required)
             --by 8  --s1 32  --s2 8  --k 3
    eval     Measure top-1 accuracy of a saved artifact on a chosen backend
             --engine PATH (required; engine artifact, or checkpoint)
             --backend sc|ref (sc; ref needs a checkpoint artifact)
             [--model PATH for float comparison]  [--fault-rate 0.0]
             [--fault-seed 7]  --test-n 48  --data-seed 7  --batch 16
    serve    Run the persistent serving pool on a saved artifact
             --engine PATH (required; engine artifact, or checkpoint)
             --backend sc|ref (sc)  --requests 8  --images 4 (per request)
             --workers 0 (auto)  --queue-depth 2
             --rounds 1 (repeated rounds reuse one worker pool)
             --data-seed 7
             With --listen ADDR:PORT, serve over HTTP/1.1 instead of the
             built-in smoke traffic (port 0 picks a free port); --engine
             becomes the model `default`, warmed before the listener opens
             and also served at POST /v1/infer:
             --listen 127.0.0.1:8080  --conn-workers 4
             --keep-alive-requests 1024
             --port-file PATH (write the bound address for scripts)
             --duration-secs 0 (0 = run until killed; otherwise drain
             gracefully after that many seconds)
             --memory-budget-mb 0 (0 = unlimited; otherwise LRU-evict
             idle models to stay under the budget)
             With repeated --artifact NAME=PATH pairs (instead of
             --engine), host many models behind one listener; each stays
             cold until its first POST /v1/models/NAME/infer:
             --artifact alpha=a.sceng --artifact beta=b.sceng
    profile  Per-stage timing breakdown of the forward pass
             --engine PATH (required; engine artifact, or checkpoint)
             --backend sc|ref (sc)  --images 16  --batch 4
             --data-seed 7  [--fault-rate 0.0]  [--fault-seed 7]
             Runs instrumented forwards and prints patch-embed /
             attention / softmax / GELU / MLP / head timings
             (observation is bit-neutral: same logits as the bare run)
    info     Describe any artifact file
             --path PATH (required)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return 2;
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        print!("{USAGE}");
        return 0;
    }
    let result = Flags::parse(&args[1..]).and_then(|flags| match cmd.as_str() {
        "train" => cmd_train(flags),
        "compile" => cmd_compile(flags),
        "eval" => cmd_eval(flags),
        "serve" => cmd_serve(flags),
        "profile" => cmd_profile(flags),
        "info" => cmd_info(flags),
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    });
    match result {
        Ok(()) => 0,
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            1
        }
        // Usage, UnknownFlag, DuplicateFlag: bad invocation, exit 2.
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            2
        }
    }
}

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum CliError {
    /// Bad invocation: print usage, exit 2.
    Usage(String),
    /// A flag no subcommand parameter consumed — named, never silently
    /// ignored (`--worker 4` must not run with defaults). Exit 2.
    UnknownFlag(String),
    /// The same flag given more than once — ambiguous, rejected by name
    /// rather than letting one occurrence win. Exit 2.
    DuplicateFlag(String),
    /// The pipeline itself failed: exit 1.
    Runtime(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Runtime(msg) => f.write_str(msg),
            CliError::UnknownFlag(name) => {
                write!(f, "unknown flag --{name} for this subcommand")
            }
            CliError::DuplicateFlag(name) => write!(f, "flag --{name} given twice"),
        }
    }
}

impl From<sc_core::ScError> for CliError {
    fn from(e: sc_core::ScError) -> Self {
        CliError::Runtime(e.to_string())
    }
}

/// Flags that accumulate when repeated instead of being rejected as
/// duplicates: multi-model serving names one model per `--artifact
/// name=path` occurrence.
const REPEATABLE_FLAGS: &[&str] = &["artifact"];

/// Parsed `--key value` pairs with consumed-key tracking, so unknown or
/// misspelled flags are reported instead of silently ignored.
#[derive(Debug, Default)]
struct Flags {
    pairs: Vec<(String, String)>,
    used: std::cell::RefCell<Vec<String>>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(CliError::Usage(format!("expected a --flag, got `{key}`")));
            };
            if name.is_empty() {
                return Err(CliError::Usage("empty flag name `--`".into()));
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!("flag --{name} is missing its value")));
            };
            if !REPEATABLE_FLAGS.contains(&name) && pairs.iter().any(|(k, _)| k == name) {
                return Err(CliError::DuplicateFlag(name.to_string()));
            }
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs, used: std::cell::RefCell::new(Vec::new()) })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.used.borrow_mut().push(name.to_string());
        self.pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Every value a repeatable flag was given, in command-line order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.used.borrow_mut().push(name.to_string());
        self.pairs.iter().filter(|(k, _)| k == name).map(|(_, v)| v.as_str()).collect()
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("flag --{name} has invalid value `{v}`"))),
        }
    }

    /// Errors on any flag that no `get` call ever looked at, naming it.
    fn reject_unknown(&self) -> Result<(), CliError> {
        let used = self.used.borrow();
        for (k, _) in &self.pairs {
            if !used.iter().any(|u| u == k) {
                return Err(CliError::UnknownFlag(k.clone()));
            }
        }
        Ok(())
    }
}

fn parse_plan(s: &str) -> Result<PrecisionPlan, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "fp" => Ok(PrecisionPlan::fp()),
        "w2a2r16" => Ok(PrecisionPlan::w2_a2_r16()),
        "w4a4r16" => Ok(PrecisionPlan::w4_a4_r16()),
        "w16a2r16" => Ok(PrecisionPlan::w16_a2_r16()),
        "w16a16r16" => Ok(PrecisionPlan::w16_a16_r16()),
        other => Err(CliError::Usage(format!(
            "unknown plan `{other}` (expected fp|w2a2r16|w4a4r16|w16a2r16|w16a16r16)"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn cmd_train(flags: Flags) -> Result<(), CliError> {
    let out = PathBuf::from(flags.require("out")?);
    let classes: usize = flags.get_parsed("classes", 4)?;
    let model_cfg = VitConfig {
        image: flags.get_parsed("image", 8)?,
        patch: flags.get_parsed("patch", 4)?,
        dim: flags.get_parsed("dim", 16)?,
        layers: flags.get_parsed("layers", 2)?,
        heads: flags.get_parsed("heads", 2)?,
        classes,
        ..Default::default()
    };
    let n_train: usize = flags.get_parsed("train-n", 96)?;
    let n_test: usize = flags.get_parsed("test-n", 48)?;
    let data_seed: u64 = flags.get_parsed("data-seed", 7)?;
    let epochs: usize = flags.get_parsed("epochs", 3)?;
    let qat_epochs: usize = flags.get_parsed("qat-epochs", epochs)?;
    let batch: usize = flags.get_parsed("batch", 16)?;
    let lr: f32 = flags.get_parsed("lr", 1e-3)?;
    let plan = parse_plan(flags.get("plan").unwrap_or("w2a2r16"))?;
    let calib_n: usize = flags.get_parsed("calib", 16)?;
    let verbose: bool = flags.get_parsed("verbose", false)?;
    flags.reject_unknown()?;
    if calib_n == 0 || calib_n > n_train {
        return Err(CliError::Usage(format!(
            "--calib {calib_n} must be in [1, --train-n = {n_train}]"
        )));
    }

    println!(
        "training {} ViT on SynthCIFAR-{classes} ({n_train} train / {n_test} test images)",
        plan.name()
    );
    let (train, test) = synth_cifar(classes, n_train, n_test, model_cfg.image, data_seed);
    let mut model = VitModel::new(model_cfg);
    let tc = TrainConfig { epochs, batch, lr, verbose, ..Default::default() };
    train_model(&mut model, None, &train, &test, &tc);
    println!(
        "  FP accuracy after {epochs} epochs: {:.2}%",
        evaluate(&model, &test, batch) * 100.0
    );

    let calib_idx: Vec<usize> = (0..calib_n).collect();
    let calib = train.patches(&calib_idx, model_cfg.patch);
    if !plan.is_fp() {
        model.set_plan(plan);
        model.calibrate_steps(&calib, calib_n);
        if qat_epochs > 0 {
            let qat = TrainConfig { epochs: qat_epochs, ..tc };
            train_model(&mut model, None, &train, &test, &qat);
        }
        println!(
            "  {} accuracy after {qat_epochs} QAT epochs: {:.2}%",
            plan.name(),
            evaluate(&model, &test, batch) * 100.0
        );
    }

    ModelCheckpoint::capture(&model).with_calib(calib, calib_n).save(&out)?;
    println!("checkpoint written to {}", out.display());
    Ok(())
}

fn cmd_compile(flags: Flags) -> Result<(), CliError> {
    let model_path = PathBuf::from(flags.require("model")?);
    let out = PathBuf::from(flags.require("out")?);
    let config = EngineConfig::from_quad(
        flags.get_parsed("by", 8)?,
        flags.get_parsed("s1", 32)?,
        flags.get_parsed("s2", 8)?,
        flags.get_parsed("k", 3)?,
    );
    flags.reject_unknown()?;

    let ckpt = ModelCheckpoint::load(&model_path)?;
    println!(
        "compiling SC engine from {} ({} plan, {} layers)",
        model_path.display(),
        ckpt.plan.name(),
        ckpt.config.layers
    );
    let engine = ScEngine::compile_from_checkpoint(&ckpt, config)?;
    let sm = engine.softmax_block().config();
    println!(
        "  softmax block: m={} Bx={} ax={:.4} By={} ay={:.4} s1={} s2={} k={}",
        sm.m, sm.bx, sm.ax, sm.by, sm.ay, sm.s1, sm.s2, sm.k
    );
    engine.save(&out)?;
    println!("engine artifact written to {}", out.display());
    Ok(())
}

/// Parses the shared `--backend sc|ref` flag.
fn parse_backend(flags: &Flags) -> Result<BackendKind, CliError> {
    match flags.get("backend") {
        None => Ok(BackendKind::Sc),
        Some(s) => s
            .parse()
            .map_err(|e: sc_core::ScError| CliError::Usage(e.to_string())),
    }
}

fn cmd_eval(flags: Flags) -> Result<(), CliError> {
    let engine_path = PathBuf::from(flags.require("engine")?);
    let backend = parse_backend(&flags)?;
    let model_path = flags.get("model").map(PathBuf::from);
    let fault_rate: f64 = flags.get_parsed("fault-rate", 0.0)?;
    let fault_seed: u64 = flags.get_parsed("fault-seed", 7)?;
    let n_test: usize = flags.get_parsed("test-n", 48)?;
    let data_seed: u64 = flags.get_parsed("data-seed", 7)?;
    let batch: usize = flags.get_parsed("batch", 16)?;
    flags.reject_unknown()?;

    // Gate on flag *presence*, not value, so an invalid rate (negative,
    // NaN, > 1) reaches the builder's validation instead of being
    // silently ignored as "no faults requested".
    let fault_requested = flags.get("fault-rate").is_some();
    if !fault_requested && flags.get("fault-seed").is_some() {
        return Err(CliError::Usage(
            "--fault-seed has no effect without --fault-rate".into(),
        ));
    }
    let mut builder = Session::builder().artifact(&engine_path).backend(backend);
    if fault_requested {
        builder = builder.fault(fault_rate, fault_seed);
    }
    let session = builder.build()?;
    let cfg = *session.backend().vit_config();
    let (_, test) = synth_cifar(cfg.classes, 1, n_test, cfg.image, data_seed);
    let acc = session.accuracy(&test, batch)? * 100.0;
    println!(
        "`{}` backend accuracy on SynthCIFAR-{} ({n_test} images): {acc:.2}%",
        session.backend().name(),
        cfg.classes
    );
    if let Some(mp) = model_path {
        let model = ModelCheckpoint::load(&mp)?.restore()?;
        let float_acc = evaluate(&model, &test, batch) * 100.0;
        println!("float (quantized) model accuracy:          {float_acc:.2}%");
    }
    Ok(())
}

fn cmd_serve(flags: Flags) -> Result<(), CliError> {
    // `--listen` switches the subcommand from self-generated smoke
    // traffic to the real HTTP front-end.
    if flags.pairs.iter().any(|(k, _)| k == "listen") {
        return cmd_serve_http(flags);
    }
    if flags.pairs.iter().any(|(k, _)| k == "artifact") {
        return Err(CliError::Usage(
            "--artifact name=path is multi-model HTTP serving; it requires --listen".into(),
        ));
    }
    let engine_path = PathBuf::from(flags.require("engine")?);
    let backend = parse_backend(&flags)?;
    let requests: usize = flags.get_parsed("requests", 8)?;
    let images: usize = flags.get_parsed("images", 4)?;
    let workers: usize = flags.get_parsed("workers", 0)?;
    let queue_depth: usize = flags.get_parsed("queue-depth", 2)?;
    let rounds: usize = flags.get_parsed("rounds", 1)?;
    let data_seed: u64 = flags.get_parsed("data-seed", 7)?;
    flags.reject_unknown()?;
    if requests == 0 || images == 0 || rounds == 0 {
        return Err(CliError::Usage(
            "--requests, --images, and --rounds must be non-zero".into(),
        ));
    }

    // The pool's batch helper carves the `requests × images` traffic into
    // requests of `micro_batch = images` images each.
    let session = Session::builder()
        .artifact(&engine_path)
        .backend(backend)
        .workers(workers)
        .micro_batch(images)
        .queue_depth(queue_depth)
        .build()?;
    let cfg = *session.backend().vit_config();
    let n = requests * images;
    let (_, test) = synth_cifar(cfg.classes, 1, n, cfg.image, data_seed);
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), cfg.patch);
    // One persistent pool for every round: the workers spawn here, once.
    let pool = session.runner()?;
    println!(
        "serving on the `{}` backend — persistent pool of {} workers, queue depth {}",
        session.backend().name(),
        pool.workers(),
        if queue_depth == 0 { "unbounded".to_string() } else { queue_depth.to_string() },
    );
    let shape = format!("{n} images in {requests} requests of {images}");
    let logits = session.serve_batch(&patches, n)?;
    println!("round 1/{rounds}: {shape}");
    for round in 2..=rounds {
        // Pool reuse must be invisible to the numerics: every round's
        // logits match round 1 bit for bit.
        if !same_bits(session.serve_batch(&patches, n)?.data(), logits.data()) {
            return Err(CliError::Runtime(format!(
                "round {round} diverged from round 1 on the reused pool"
            )));
        }
        println!("round {round}/{rounds}: {shape}, bit-stable");
    }
    // Latency comes from the pool's own histograms: an exact mean, and
    // percentiles as the bounds of the log2 bucket that holds them.
    let ms = |ns: u64| ns as f64 / 1e6;
    let obs = pool.obs();
    for (label, hist) in [("service", obs.service()), ("queue wait", obs.queue_wait())] {
        let snap = hist.snapshot();
        let count = snap.count();
        let (p50_lo, p50_hi) = snap.percentile_bounds_ns(50.0);
        let (p95_lo, p95_hi) = snap.percentile_bounds_ns(95.0);
        println!(
            "{label}: {count} requests, mean {:.3} ms, p50 within [{:.3}, {:.3}] ms, \
             p95 within [{:.3}, {:.3}] ms (log2 bucket bounds)",
            ms(snap.sum_ns.checked_div(count).unwrap_or(0)),
            ms(p50_lo),
            ms(p50_hi),
            ms(p95_lo),
            ms(p95_hi),
        );
    }

    // Serving is only trustworthy if parallel == serial, bit for bit —
    // for every backend, not just the SC engine.
    let identical = same_bits(session.forward(&patches, n)?.data(), logits.data());
    println!("bit-identical to serial forward: {identical}");
    if !identical {
        return Err(CliError::Runtime("parallel serving diverged from serial logits".into()));
    }
    Ok(())
}

/// Whether two logit buffers agree bit for bit.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `serve --listen ADDR:PORT`: the HTTP/1.1 front-end over a model
/// registry — non-blocking admission, load shedding with `503
/// Retry-After`, live `/metrics`, graceful drain.
///
/// `--engine PATH` registers one model `default`, warmed here so a broken
/// artifact fails before the listener opens and `POST /v1/infer` serves
/// it. Repeated `--artifact name=path` pairs register many models, each
/// cold until its first `POST /v1/models/{name}/infer`. An optional
/// `--memory-budget-mb` bounds total residency via LRU eviction.
fn cmd_serve_http(flags: Flags) -> Result<(), CliError> {
    use ascend_http::{HttpConfig, HttpServer};
    use ascend_registry::{ModelRegistry, ModelSpec, RegistryConfig};

    let mut models: Vec<(String, PathBuf)> = Vec::new();
    for pair in flags.get_all("artifact") {
        let Some((name, path)) = pair.split_once('=') else {
            return Err(CliError::Usage(format!(
                "--artifact expects name=path, got `{pair}`"
            )));
        };
        if name.is_empty() || path.is_empty() {
            return Err(CliError::Usage(format!(
                "--artifact expects name=path with both sides non-empty, got `{pair}`"
            )));
        }
        models.push((name.to_string(), PathBuf::from(path)));
    }
    let engine = models.is_empty();
    if engine {
        models.push(("default".into(), PathBuf::from(flags.require("engine")?)));
    } else if flags.get("engine").is_some() {
        return Err(CliError::Usage(
            "--engine serves a single model; with --artifact name=path every model \
             comes from the registry"
                .into(),
        ));
    }
    let backend = parse_backend(&flags)?;
    let listen = flags.require("listen")?.to_string();
    let workers: usize = flags.get_parsed("workers", 0)?;
    // Absent --queue-depth keeps the session's bounded default
    // (4 × workers); `--queue-depth 0` is the explicit unbounded opt-in.
    let queue_depth: Option<usize> = match flags.get("queue-depth") {
        None => None,
        Some(_) => Some(flags.get_parsed("queue-depth", 0)?),
    };
    let conn_workers: usize = flags.get_parsed("conn-workers", 4)?;
    let keep_alive_requests: usize = flags.get_parsed("keep-alive-requests", 1024)?;
    let port_file = flags.get("port-file").map(PathBuf::from);
    let duration_secs: u64 = flags.get_parsed("duration-secs", 0)?;
    let memory_budget_mb: usize = flags.get_parsed("memory-budget-mb", 0)?;
    flags.reject_unknown()?;

    let mut serve =
        ascend::serve::ServeConfig { workers, ..Default::default() }.with_bounded_queue();
    if let Some(depth) = queue_depth {
        serve.queue_depth = depth;
    }
    let registry = std::sync::Arc::new(ModelRegistry::new(RegistryConfig {
        memory_budget_bytes: memory_budget_mb.saturating_mul(1024 * 1024),
        ..Default::default()
    }));
    for (name, path) in &models {
        registry
            .register(ModelSpec::artifact(name.as_str(), path.as_path()).backend(backend).serve(serve))?;
    }
    if engine {
        registry.acquire("default")?;
    }

    let mut http = HttpConfig::new(listen);
    http.conn_workers = conn_workers;
    http.keep_alive_requests = keep_alive_requests;
    let server = HttpServer::bind_registry(std::sync::Arc::clone(&registry), http)?;
    let addr = server.local_addr();
    println!(
        "serving {} model(s) over http on {addr} — POST /v1/models/{{name}}/infer \
         (`default` also at POST /v1/infer), GET /healthz, GET /metrics \
         ({} pool workers and queue depth {} per model, memory budget {}, \
         {conn_workers} connection handlers)",
        models.len(),
        serve.resolved_workers(),
        if serve.queue_depth == 0 { "unbounded".to_string() } else { serve.queue_depth.to_string() },
        if memory_budget_mb == 0 {
            "unlimited".to_string()
        } else {
            format!("{memory_budget_mb} MiB")
        },
    );
    for (name, path) in &models {
        let state = if engine { "warm" } else { "cold; warms on first request" };
        println!("  model `{name}` <- {} ({state})", path.display());
    }
    if let Some(path) = port_file {
        // Written atomically-enough for scripts: the address only appears
        // once the listener is live.
        std::fs::write(&path, addr.to_string())
            .map_err(|e| CliError::Runtime(format!("writing --port-file {path:?}: {e}")))?;
    }
    if duration_secs > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration_secs));
        server.shutdown_handle().shutdown();
        server.join();
        println!("drained after {duration_secs}s");
    } else {
        // Serve until the process is killed: join blocks while the accept
        // loop runs.
        server.join();
    }
    Ok(())
}

/// `profile`: run instrumented forwards and print the per-stage table.
///
/// The instrumented backend is the *same computation* as the bare one —
/// stage observation carries no data and never touches the math — so the
/// command also proves it, comparing instrumented logits bit-for-bit
/// against an uninstrumented forward of the same session's backend.
fn cmd_profile(flags: Flags) -> Result<(), CliError> {
    use ascend::StageStats;
    use std::sync::Arc;

    let engine_path = PathBuf::from(flags.require("engine")?);
    let backend = parse_backend(&flags)?;
    let images: usize = flags.get_parsed("images", 16)?;
    let batch: usize = flags.get_parsed("batch", 4)?;
    let data_seed: u64 = flags.get_parsed("data-seed", 7)?;
    let fault_rate: f64 = flags.get_parsed("fault-rate", 0.0)?;
    let fault_seed: u64 = flags.get_parsed("fault-seed", 7)?;
    flags.reject_unknown()?;
    if images == 0 || batch == 0 {
        return Err(CliError::Usage("--images and --batch must be non-zero".into()));
    }
    let fault_requested = flags.get("fault-rate").is_some();
    if !fault_requested && flags.get("fault-seed").is_some() {
        return Err(CliError::Usage("--fault-seed has no effect without --fault-rate".into()));
    }

    let stats = Arc::new(StageStats::new());
    let mut builder = Session::builder()
        .artifact(&engine_path)
        .backend(backend)
        .instrument(Arc::clone(&stats));
    let mut bare = Session::builder().artifact(&engine_path).backend(backend);
    if fault_requested {
        builder = builder.fault(fault_rate, fault_seed);
        bare = bare.fault(fault_rate, fault_seed);
    }
    let session = builder.build()?;
    let bare = bare.build()?;
    let cfg = *session.backend().vit_config();
    let (_, test) = synth_cifar(cfg.classes, 1, images, cfg.image, data_seed);
    let idx: Vec<usize> = (0..images).collect();
    let mut identical = true;
    for chunk in idx.chunks(batch) {
        let patches = test.patches(chunk, cfg.patch);
        let instrumented = session.forward(&patches, chunk.len())?;
        identical &= same_bits(instrumented.data(), bare.forward(&patches, chunk.len())?.data());
    }

    println!(
        "profiled {} forwards on the `{}` backend ({images} images, batch {batch}):",
        stats.forwards(),
        session.backend().name(),
    );
    println!();
    print!("{}", stats.table());
    println!();
    println!("bit-identical to uninstrumented forward: {identical}");
    if !identical {
        return Err(CliError::Runtime(
            "instrumented forward diverged from the bare forward".into(),
        ));
    }
    Ok(())
}

fn cmd_info(flags: Flags) -> Result<(), CliError> {
    let path = PathBuf::from(flags.require("path")?);
    flags.reject_unknown()?;
    let reader = ArtifactReader::open(&path)?;
    let index = reader.section_index();
    // Read every listed section, so a corrupt payload fails `info` even
    // when no decoder would read it.
    for &(tag, _) in &index {
        reader.read_section(tag)?;
    }
    let total: usize = index.iter().map(|(_, n)| n).sum();
    println!(
        "{}: {:?} artifact, {} sections, {total} payload bytes",
        path.display(),
        reader.kind(),
        index.len()
    );
    for (tag, len) in &index {
        println!("  `{}`  {len} bytes", String::from_utf8_lossy(tag));
    }
    describe(&path, &reader);
    Ok(())
}

/// Kind-specific summary lines for `info`.
fn describe(path: &Path, reader: &ArtifactReader) {
    match reader.kind() {
        ascend_io::ArtifactKind::ModelCheckpoint => {
            if let Ok(ckpt) = ModelCheckpoint::from_reader(reader) {
                let scalars: usize = ckpt.params.iter().map(|t| t.numel()).sum();
                println!(
                    "  model: {} layers, dim {}, {} classes, plan {}, {scalars} scalars, calib: {}",
                    ckpt.config.layers,
                    ckpt.config.dim,
                    ckpt.config.classes,
                    ckpt.plan.name(),
                    ckpt.calib
                        .as_ref()
                        .map_or("none".to_string(), |c| format!("{} images", c.batch)),
                );
            } else {
                eprintln!(
                    "warning: {} verified but does not decode as a checkpoint",
                    path.display()
                );
            }
        }
        ascend_io::ArtifactKind::Engine => {
            if let Ok(engine) = ScEngine::from_reader(reader) {
                let cfg = engine.vit_config();
                let sm = engine.softmax_block().config();
                println!(
                    "  engine: {} layers, dim {}, {} classes, plan {}, softmax [By={} s1={} s2={} k={}]",
                    cfg.layers,
                    cfg.dim,
                    cfg.classes,
                    engine.plan().name(),
                    sm.by,
                    sm.s1,
                    sm.s2,
                    sm.k,
                );
            } else {
                eprintln!(
                    "warning: {} verified but does not decode as an engine",
                    path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        let args: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Flags::parse(&args).unwrap()
    }

    fn http_roundtrip(
        addr: std::net::SocketAddr,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> ascend_http::client::ClientResponse {
        let stream =
            std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(2))
                .expect("connect to served address");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        ascend_http::client::write_request(&mut writer, method, target, body, true)
            .expect("write request");
        ascend_http::client::read_response(&mut reader).expect("read response")
    }

    #[test]
    fn flags_parse_key_value_pairs() {
        let f = flags(&[("out", "m.ckpt"), ("epochs", "5")]);
        assert_eq!(f.get("out"), Some("m.ckpt"));
        assert_eq!(f.get_parsed("epochs", 0usize).unwrap(), 5);
        assert_eq!(f.get_parsed("batch", 16usize).unwrap(), 16);
        assert!(f.reject_unknown().is_ok());
    }

    #[test]
    fn flags_reject_malformed_input() {
        assert!(Flags::parse(&["positional".to_string()]).is_err());
        assert!(Flags::parse(&["--dangling".to_string()]).is_err());
        assert!(Flags::parse(&["--".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn duplicated_flags_are_a_typed_error_naming_the_flag() {
        let twice = ["--workers", "1", "--workers", "2"].map(String::from);
        match Flags::parse(&twice) {
            Err(CliError::DuplicateFlag(name)) => assert_eq!(name, "workers"),
            other => panic!("expected DuplicateFlag(workers), got {other:?}"),
        }
        let err = Flags::parse(&twice).unwrap_err();
        assert!(err.to_string().contains("--workers"), "message must name the flag: {err}");
    }

    #[test]
    fn unknown_flags_are_a_typed_error_naming_the_flag() {
        // `--worker 4` (singular typo) must never run with defaults.
        let f = flags(&[("worker", "4")]);
        match f.reject_unknown() {
            Err(CliError::UnknownFlag(name)) => assert_eq!(name, "worker"),
            other => panic!("expected UnknownFlag(worker), got {other:?}"),
        }
        let err = f.reject_unknown().unwrap_err();
        assert!(err.to_string().contains("--worker"), "message must name the flag: {err}");
    }

    #[test]
    fn unknown_and_duplicated_flags_exit_2_end_to_end() {
        let typo = ["serve", "--engine", "x.sceng", "--worker", "4"].map(String::from);
        assert_eq!(run(&typo), 2, "--worker typo must exit 2, not run with defaults");
        let twice =
            ["serve", "--engine", "x.sceng", "--workers", "1", "--workers", "2"].map(String::from);
        assert_eq!(run(&twice), 2, "duplicated --workers must exit 2");
    }

    #[test]
    fn repeatable_artifact_flags_accumulate_in_order() {
        let args = ["--artifact", "a=x.sceng", "--artifact", "b=y.sceng"].map(String::from);
        let f = Flags::parse(&args).expect("repeated --artifact must parse");
        assert_eq!(f.get_all("artifact"), vec!["a=x.sceng", "b=y.sceng"]);
        assert!(f.reject_unknown().is_ok(), "get_all must mark the flag consumed");
        // Absence is an empty list, not an error.
        assert!(flags(&[("listen", "x")]).get_all("artifact").is_empty());
    }

    #[test]
    fn registry_flag_misuse_exits_2_before_touching_any_file() {
        let no_listen = ["serve", "--artifact", "a=x.sceng"].map(String::from);
        assert_eq!(run(&no_listen), 2, "--artifact without --listen must be a usage error");

        let bad_pair =
            ["serve", "--listen", "127.0.0.1:0", "--artifact", "noequals"].map(String::from);
        assert_eq!(run(&bad_pair), 2, "--artifact without name=path must be a usage error");

        let empty_name =
            ["serve", "--listen", "127.0.0.1:0", "--artifact", "=x.sceng"].map(String::from);
        assert_eq!(run(&empty_name), 2, "--artifact with an empty name must be a usage error");

        let both = [
            "serve", "--listen", "127.0.0.1:0", "--artifact", "a=x.sceng", "--engine",
            "y.sceng",
        ]
        .map(String::from);
        assert_eq!(run(&both), 2, "--engine and --artifact together must be a usage error");
    }

    #[test]
    fn invalid_numeric_values_are_usage_errors() {
        let f = flags(&[("epochs", "three")]);
        assert!(matches!(f.get_parsed("epochs", 0usize), Err(CliError::Usage(_))));
    }

    #[test]
    fn plan_names_parse_case_insensitively() {
        assert_eq!(parse_plan("W2A2R16").unwrap(), PrecisionPlan::w2_a2_r16());
        assert_eq!(parse_plan("fp").unwrap(), PrecisionPlan::fp());
        assert!(parse_plan("w3a3r3").is_err());
    }

    #[test]
    fn unknown_subcommand_and_missing_flags_exit_2() {
        assert_eq!(run(&["frobnicate".to_string()]), 2);
        assert_eq!(run(&["compile".to_string()]), 2);
        assert_eq!(run(&[]), 2);
    }

    #[test]
    fn unknown_backend_is_a_usage_error() {
        let args =
            ["eval", "--engine", "whatever.sceng", "--backend", "fpga"].map(String::from);
        assert_eq!(run(&args), 2, "bad --backend must exit 2 before touching the file");
    }

    #[test]
    fn missing_artifact_file_exits_1() {
        let args = ["eval", "--engine", "/nonexistent/engine.sceng"].map(String::from);
        assert_eq!(run(&args), 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test waits for each server's port file against a wall-clock deadline"
    )]
    fn full_pipeline_through_artifact_files() {
        // The e2e smoke at miniature scale: train → compile → eval → serve
        // entirely through files in a temp dir.
        let dir = std::env::temp_dir().join(format!("ascend-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("m.ckpt").display().to_string();
        let eng = dir.join("e.sceng").display().to_string();

        let train = [
            "train", "--out", &ckpt, "--epochs", "1", "--qat-epochs", "0", "--train-n", "32",
            "--test-n", "16", "--calib", "8",
        ]
        .map(String::from);
        assert_eq!(run(&train), 0, "train failed");

        let compile = ["compile", "--model", &ckpt, "--out", &eng].map(String::from);
        assert_eq!(run(&compile), 0, "compile failed");

        // The SC softmax configuration is a compile flag; `info` reads the
        // result back.
        let eng_k4 = dir.join("e-k4.sceng").display().to_string();
        let compile_k4 = [
            "compile", "--model", &ckpt, "--out", &eng_k4, "--by", "8", "--s1", "32", "--s2",
            "8", "--k", "4",
        ]
        .map(String::from);
        assert_eq!(run(&compile_k4), 0, "compile with SC flags failed");
        assert_eq!(run(&["info", "--path", &eng_k4].map(String::from)), 0, "info on k4 failed");
        let k4 = ScEngine::load(Path::new(&eng_k4)).unwrap();
        assert_eq!(k4.softmax_block().config().k, 4, "--k must reach the compiled engine");

        let eval = ["eval", "--engine", &eng, "--test-n", "16", "--model", &ckpt]
            .map(String::from);
        assert_eq!(run(&eval), 0, "eval failed");

        // The float-reference backend evaluates straight from the
        // checkpoint — no compiled engine artifact needed.
        let eval_ref = [
            "eval", "--engine", &ckpt, "--backend", "ref", "--test-n", "16",
        ]
        .map(String::from);
        assert_eq!(run(&eval_ref), 0, "eval --backend ref failed");

        // The SC backend also compiles on the fly from a checkpoint.
        let eval_sc_ckpt = [
            "eval", "--engine", &ckpt, "--backend", "sc", "--test-n", "8",
        ]
        .map(String::from);
        assert_eq!(run(&eval_sc_ckpt), 0, "eval --backend sc from checkpoint failed");

        // Fault injection rides along as a decorator.
        let eval_fault = [
            "eval", "--engine", &eng, "--fault-rate", "0.01", "--test-n", "8",
        ]
        .map(String::from);
        assert_eq!(run(&eval_fault), 0, "eval --fault-rate failed");

        // An out-of-range rate must be rejected, not silently un-faulted.
        let bad_fault =
            ["eval", "--engine", &eng, "--fault-rate", "-0.5"].map(String::from);
        assert_eq!(run(&bad_fault), 1, "negative fault rate must fail");

        // A seed without a rate is a no-op the user should hear about.
        let orphan_seed =
            ["eval", "--engine", &eng, "--fault-seed", "9"].map(String::from);
        assert_eq!(run(&orphan_seed), 2, "--fault-seed without --fault-rate must be usage error");

        // Per-stage profiling: the command itself enforces bit identity
        // between the instrumented and bare forwards before exiting 0.
        let profile =
            ["profile", "--engine", &eng, "--images", "4", "--batch", "2"].map(String::from);
        assert_eq!(run(&profile), 0, "profile failed");

        // Profiling composes with the fault decorator and with the ref
        // backend compiled from a checkpoint.
        let profile_fault = [
            "profile", "--engine", &eng, "--images", "2", "--batch", "2",
            "--fault-rate", "0.01",
        ]
        .map(String::from);
        assert_eq!(run(&profile_fault), 0, "profile --fault-rate failed");
        let profile_ref = [
            "profile", "--engine", &ckpt, "--backend", "ref", "--images", "2", "--batch", "2",
        ]
        .map(String::from);
        assert_eq!(run(&profile_ref), 0, "profile --backend ref failed");

        let serve = [
            "serve", "--engine", &eng, "--requests", "3", "--images", "2", "--workers", "2",
        ]
        .map(String::from);
        assert_eq!(run(&serve), 0, "serve failed");

        // Repeated rounds reuse one persistent pool through a bounded
        // queue (backpressure path) and must stay bit-stable.
        let serve_rounds = [
            "serve", "--engine", &eng, "--requests", "3", "--images", "1", "--workers", "2",
            "--rounds", "3", "--queue-depth", "1",
        ]
        .map(String::from);
        assert_eq!(run(&serve_rounds), 0, "serve --rounds over a bounded queue failed");

        // More workers than requests: the pool must still drain cleanly.
        let serve_wide = [
            "serve", "--engine", &eng, "--requests", "2", "--images", "1", "--workers", "6",
        ]
        .map(String::from);
        assert_eq!(run(&serve_wide), 0, "serve with workers > requests failed");

        let serve_ref = [
            "serve", "--engine", &ckpt, "--backend", "ref", "--requests", "2", "--images",
            "2", "--workers", "2",
        ]
        .map(String::from);
        assert_eq!(run(&serve_ref), 0, "serve --backend ref failed");

        // A compiled engine artifact cannot feed the reference backend:
        // runtime failure (exit 1), not a usage error.
        let ref_from_engine =
            ["eval", "--engine", &eng, "--backend", "ref"].map(String::from);
        assert_eq!(run(&ref_from_engine), 1, "ref from engine artifact must fail");

        for p in [&ckpt, &eng] {
            let info = ["info", "--path", p].map(String::from);
            assert_eq!(run(&info), 0, "info failed for {p}");
        }

        // HTTP serving leg: `serve --listen` on a free port, bounded for
        // time via --duration-secs, address discovered via --port-file.
        let port_file = dir.join("addr.txt");
        let pf = port_file.display().to_string();
        let serve_http = [
            "serve", "--engine", &eng, "--listen", "127.0.0.1:0", "--port-file", &pf,
            "--duration-secs", "3", "--workers", "2", "--queue-depth", "4",
        ]
        .map(String::from);
        let server = std::thread::spawn(move || run(&serve_http));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never wrote --port-file");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        // `--engine` is the registry model `default`, warmed before the
        // listener opened: ready before any inference, and served at the
        // `POST /v1/infer` alias.
        let health = http_roundtrip(addr, "GET", "/healthz", &[]);
        assert_eq!(health.status, 200, "a pre-warmed `default` must make the process ready");
        let body = String::from_utf8(health.body).unwrap();
        assert!(body.contains("default=warm"), "{body}");
        // Trained at the defaults: 8×8 image, 4×4 patches → 4 patches of
        // 3·4·4 floats each.
        let payload = ascend_http::encode_infer_request(&vec![0.1f32; 4 * 48], 1);
        let infer = http_roundtrip(addr, "POST", "/v1/infer", &payload);
        assert_eq!(
            infer.status,
            200,
            "POST /v1/infer failed: {}",
            String::from_utf8_lossy(&infer.body)
        );
        let response = http_roundtrip(addr, "GET", "/metrics", &[]);
        assert_eq!(response.status, 200, "GET /metrics over `serve --listen` failed");
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("ascend_queue_capacity 4\n"), "{text}");
        assert_eq!(server.join().unwrap(), 0, "serve --listen failed");

        // Multi-model registry leg: two names over the same compiled
        // engine, each lazily warmed behind POST /v1/models/{name}/infer.
        let registry_pf = dir.join("addr2.txt");
        let rpf = registry_pf.display().to_string();
        let alpha = format!("alpha={eng}");
        let beta = format!("beta={eng}");
        let serve_registry = [
            "serve", "--listen", "127.0.0.1:0", "--artifact", &alpha, "--artifact", &beta,
            "--memory-budget-mb", "64", "--port-file", &rpf, "--duration-secs", "4",
            "--workers", "2",
        ]
        .map(String::from);
        let server = std::thread::spawn(move || run(&serve_registry));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&registry_pf) {
                if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            assert!(std::time::Instant::now() < deadline, "registry never wrote --port-file");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        // Everything is cold, so the process reports not-ready.
        assert_eq!(http_roundtrip(addr, "GET", "/healthz", &[]).status, 503);
        let ok = http_roundtrip(addr, "POST", "/v1/models/alpha/infer", &payload);
        assert_eq!(
            ok.status,
            200,
            "registry infer failed: {}",
            String::from_utf8_lossy(&ok.body)
        );
        let health = http_roundtrip(addr, "GET", "/healthz", &[]);
        assert_eq!(health.status, 200, "one warm model must make the process ready");
        let body = String::from_utf8(health.body).unwrap();
        assert!(body.contains("alpha=warm") && body.contains("beta=cold"), "{body}");
        assert_eq!(http_roundtrip(addr, "POST", "/v1/models/ghost/infer", &payload).status, 404);
        let scrape = http_roundtrip(addr, "GET", "/metrics", &[]);
        let text = String::from_utf8(scrape.body).unwrap();
        assert!(text.contains("ascend_model_state{model=\"alpha\"} 2"), "{text}");
        assert!(text.contains("ascend_model_state{model=\"beta\"} 0"), "{text}");
        assert_eq!(server.join().unwrap(), 0, "registry serve exited nonzero");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn info_fails_on_a_corrupt_section_that_no_decoder_reads() {
        // `XTRA` is no checkpoint section, so no decoder would read it:
        // `info` must still check its CRC.
        let dir = std::env::temp_dir().join(format!("ascend-cli-info-{}", std::process::id()));
        let path = dir.join("extra.ckpt");
        let mut w = ascend_io::ArtifactWriter::new(ascend_io::ArtifactKind::ModelCheckpoint);
        let mut extra = ascend_io::SectionWriter::new();
        extra.put_u32(0xABCD);
        w.add_section(*b"XTRA", extra);
        w.write_to(&path).unwrap();
        let info = ["info", "--path", &path.display().to_string()].map(String::from);
        assert_eq!(run(&info), 0, "an intact container must pass info");

        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(run(&info), 1, "a corrupt XTRA payload must fail info");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
