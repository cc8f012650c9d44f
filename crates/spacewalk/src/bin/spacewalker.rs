//! `spacewalker` — non-interactive design-space exploration from a
//! specification file, now subcommand-structured:
//!
//! ```console
//! $ spacewalker walk SPEC.txt [--db CACHE.mhec] [--export CACHE.tsv]
//!               [--heuristic] [--policy LIST] [--sample N[:clusters=K,warmup=W]]
//!               [--checkpoint DIR] [--resume DIR] [--obs|--obs-json]
//! $ spacewalker serve ADDR
//! $ spacewalker connect ADDR SPEC.txt [--heuristic] [--policy LIST]
//!               [--sample ...] [--timeout SECS] [--retries N]
//! $ spacewalker worker ADDR [--threads N] [--timeout SECS]
//! $ spacewalker fleet SPEC.txt --workers N [--bind ADDR] [--port-file PATH]
//!               [--shards S] [--db ...] [--checkpoint DIR] [--resume DIR]
//! ```
//!
//! `walk` reads the design-space specification, runs the reference
//! evaluation once (the only simulation), walks the processor × memory
//! space with the dilation model, and prints the cost/performance Pareto
//! frontier. With `--db` the evaluation cache persists across runs in
//! the versioned binary format (bit-exact round-trip); `--export`
//! additionally writes a human-readable text listing; `--heuristic`
//! demonstrates neighbourhood-ascent pruning; `--policy
//! lru,fifo,plru,random:7` overrides the replacement-policy dimension of
//! every cache space; `--sample N` routes the reference evaluation
//! through interval sampling and stamps the frontier with its
//! provenance. `--obs` / `--obs-json` (or `MHE_OBS`) emit a run report
//! to stderr.
//!
//! # Daemon mode
//!
//! `serve ADDR` turns the process into a sweep daemon (the same service
//! `mhe-server` runs): warm sessions, bounded admission, graceful
//! SIGTERM drain. `connect ADDR SPEC` sends the walk to such a daemon
//! and prints the served frontier — byte-identical to the batch output,
//! because both sides render the same report with the same renderer.
//! Persistence flags are rejected in connect mode: they belong to the
//! daemon's side of the socket.
//!
//! # Distributed mode
//!
//! `fleet SPEC --workers N` partitions the metric evaluations into
//! deterministic shards, spawns `N` local worker processes (more can
//! attach from other machines with `worker ADDR`), merges their
//! streamed points with work-stealing fault tolerance, and finishes
//! with a serial walk over the merged cache — printing a frontier
//! bit-identical to `walk` at any worker count, even after killing a
//! worker mid-sweep. `--checkpoint`/`--resume` reuse the crash-safe
//! cache format, so a restarted coordinator re-offers completed points
//! instead of recomputing them.
//!
//! # Exit codes
//!
//! Failures exit with a one-line message and a typed status: **2** bad
//! configuration (usage, unreadable or malformed spec, protocol-version
//! skew rejected by a server), **3** corrupt input (cache database or
//! checkpoint fails its CRC), **4** worker failure (a panic isolated
//! inside the parallel walk, a failed checkpoint write, an aborted
//! fleet sweep), **5** server unavailable (a daemon or coordinator
//! could not be reached or went silent), **6** unauthorized (a tokened
//! daemon or coordinator rejected — or never received — the shared
//! auth token), **7** cancelled (the request was cooperatively
//! cancelled before completing).

use mhe_core::evaluator::EvalConfig;
use mhe_core::{
    SamplingConfig, EXIT_BAD_CONFIG, EXIT_CORRUPT_INPUT, EXIT_SERVER_UNAVAILABLE,
    EXIT_WORKER_FAILURE,
};
use mhe_spacewalk::cache_db::{EvaluationCache, MetricKey};
use mhe_spacewalk::ckpt::Checkpointer;
use mhe_spacewalk::fleet::{run_worker, Coordinator, FleetConfig, FleetJob, WorkerOptions};
use mhe_spacewalk::heuristic::walk_heuristic;
use mhe_spacewalk::service::proto::{FrontierReport, FrontierRequest};
use mhe_spacewalk::spec::Spec;
use mhe_spacewalk::{render_frontier, report_from, walker, Client, EvalService, Server};
use mhe_vliw::ProcessorKind;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  spacewalker walk SPEC [--db CACHE.mhec] [--export CACHE.tsv] [--heuristic]
              [--policy LIST] [--sample N[:clusters=K,warmup=W]]
              [--checkpoint DIR] [--resume DIR] [--obs|--obs-json]
  spacewalker serve ADDR [--session-ttl SECS] [--max-sessions N]
              [--persist DIR] [--auth-token TOKEN] [--obs|--obs-json]
  spacewalker connect ADDR SPEC [--heuristic] [--policy LIST] [--sample ...]
              [--timeout SECS] [--retries N] [--retry-deadline SECS]
              [--auth-token TOKEN] [--obs|--obs-json]
  spacewalker worker ADDR [--threads N] [--timeout SECS] [--redials N]
              [--auth-token TOKEN] [--die-after-points N] [--obs|--obs-json]
  spacewalker fleet SPEC --workers N [--bind ADDR] [--port-file PATH]
              [--shards S] [--lease-timeout SECS] [--stall-timeout SECS]
              [--auth-token TOKEN] [--db CACHE.mhec] [--export CACHE.tsv]
              [--policy LIST] [--sample ...] [--checkpoint DIR] [--resume DIR]
              [--obs|--obs-json]

exit codes:
  0 success | 2 bad configuration | 3 corrupt input
  4 worker failure | 5 server unavailable
  6 unauthorized | 7 cancelled";

/// Parses `N[:clusters=K,warmup=W]` into a [`SamplingConfig`] (defaults
/// fill the unnamed fields).
fn parse_sample(arg: &str) -> Result<SamplingConfig, String> {
    let (n, opts) = match arg.split_once(':') {
        Some((n, opts)) => (n, Some(opts)),
        None => (arg, None),
    };
    let interval_accesses: usize = n.parse().map_err(|e| format!("interval size {n:?}: {e}"))?;
    let mut cfg = SamplingConfig { interval_accesses, ..SamplingConfig::default() };
    for pair in opts.iter().flat_map(|o| o.split(',')).filter(|p| !p.is_empty()) {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("expected key=value, got {pair:?}"));
        };
        match key {
            "clusters" => {
                cfg.clusters = value.parse().map_err(|e| format!("clusters {value:?}: {e}"))?;
            }
            "warmup" => {
                cfg.warmup = value.parse().map_err(|e| format!("warmup {value:?}: {e}"))?;
            }
            other => return Err(format!("unknown option {other:?} (clusters, warmup)")),
        }
    }
    cfg.validate().map_err(|(field, req)| format!("{field} {req}"))?;
    Ok(cfg)
}

fn parse_policy_list(list: &str) -> Result<Vec<mhe_cache::Policy>, String> {
    let mut parsed = Vec::new();
    for token in list.split(',').filter(|t| !t.is_empty()) {
        parsed.push(token.parse::<mhe_cache::Policy>().map_err(|e| format!("{token:?}: {e}"))?);
    }
    if parsed.is_empty() {
        return Err("needs at least one policy".into());
    }
    Ok(parsed)
}

/// Prints a one-line diagnostic and returns the given exit status.
fn fail(code: u8, msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("spacewalker: {msg}");
    ExitCode::from(code)
}

/// A typed CLI failure: exit code plus rendered message.
type CliError = (u8, String);

fn bad(msg: impl std::fmt::Display) -> CliError {
    (EXIT_BAD_CONFIG, msg.to_string())
}

/// Options shared by every sweep-shaped subcommand (`walk`, `connect`,
/// `fleet`) plus the persistence knobs only batch-side commands accept.
#[derive(Debug, Default, Clone)]
struct SweepOptions {
    heuristic: bool,
    policies: Option<Vec<mhe_cache::Policy>>,
    sampling: Option<SamplingConfig>,
    db_path: Option<String>,
    export_path: Option<String>,
    ckpt_dir: Option<String>,
    resume: bool,
}

impl SweepOptions {
    /// Tries to consume one shared flag at `args[*i]`; `Ok(true)` means
    /// it was recognized (and `*i` advanced past any value).
    fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, CliError> {
        let flag = args[*i].as_str();
        let mut value = |name: &str| -> Result<String, CliError> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| bad(format!("{name} needs a value")))
        };
        match flag {
            "--heuristic" => self.heuristic = true,
            "--policy" => {
                let list = value("--policy")?;
                self.policies =
                    Some(parse_policy_list(&list).map_err(|e| bad(format!("--policy {e}")))?);
            }
            "--sample" => {
                let v = value("--sample")?;
                self.sampling =
                    Some(parse_sample(&v).map_err(|e| bad(format!("--sample {v:?}: {e}")))?);
            }
            "--db" => self.db_path = Some(value("--db")?),
            "--export" => self.export_path = Some(value("--export")?),
            "--checkpoint" | "--resume" => {
                self.resume |= flag == "--resume";
                let dir = value(flag)?;
                if let Some(prev) = &self.ckpt_dir {
                    if *prev != dir {
                        return Err(bad("--checkpoint and --resume name different directories"));
                    }
                }
                self.ckpt_dir = Some(dir);
            }
            "--obs" => mhe_obs::set_level(mhe_obs::ObsLevel::Text),
            "--obs-json" => mhe_obs::set_level(mhe_obs::ObsLevel::Json),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn reject_persistence(&self, context: &str) -> Result<(), CliError> {
        if self.db_path.is_some() || self.export_path.is_some() || self.ckpt_dir.is_some() {
            return Err(bad(format!(
                "{context} is incompatible with --db/--export/--checkpoint/--resume \
                 (persistence lives on the serving side)"
            )));
        }
        Ok(())
    }
}

/// A parsed and policy-overridden spec, plus its verbatim text.
struct LoadedSpec {
    text: String,
    spec: Spec,
}

fn load_spec(path: &str, opts: &SweepOptions) -> Result<LoadedSpec, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| bad(format!("cannot read {path}: {e}")))?;
    let mut spec = Spec::parse(&text).map_err(|e| bad(format!("{path}: {e}")))?;
    if let Some(p) = &opts.policies {
        spec.space.icache.policies.clone_from(p);
        spec.space.dcache.policies.clone_from(p);
        spec.space.ucache.policies.clone_from(p);
    }
    eprintln!(
        "benchmark {} | {} processors x {} I$ x {} D$ x {} U$ = {} systems",
        spec.benchmark,
        spec.space.processors.len(),
        spec.space.icache.enumerate().len(),
        spec.space.dcache.enumerate().len(),
        spec.space.ucache.enumerate().len(),
        spec.space.combinations()
    );
    Ok(LoadedSpec { text, spec })
}

/// Opens the checkpointer (if any) and the starting evaluation cache,
/// honouring `--resume` and `--db` preloads.
fn open_store(opts: &SweepOptions) -> Result<(Option<Checkpointer>, EvaluationCache), CliError> {
    let checkpoint = match &opts.ckpt_dir {
        Some(dir) => Some(Checkpointer::new(dir).map_err(bad)?),
        None => None,
    };
    let db = if opts.resume {
        match checkpoint.as_ref().map(Checkpointer::load) {
            Some(Ok(db)) => {
                eprintln!("resumed {} cached metrics from checkpoint", db.len());
                db
            }
            Some(Err(e)) => return Err((EXIT_CORRUPT_INPUT, e.to_string())),
            None => EvaluationCache::new(),
        }
    } else {
        match &opts.db_path {
            Some(p) if std::path::Path::new(p).exists() => match EvaluationCache::load(p) {
                Ok(db) => {
                    eprintln!("loaded {} cached metrics from {p}", db.len());
                    db
                }
                Err(e) => return Err((EXIT_CORRUPT_INPUT, e.to_string())),
            },
            _ => EvaluationCache::new(),
        }
    };
    Ok((checkpoint, db))
}

/// Prints the frontier and its one-line stderr summary — the shared tail
/// of `walk`, `connect`, and `fleet`, and the bytes the byte-identity
/// contract is about.
fn print_report(report: &FrontierReport) {
    print!("{}", render_frontier(report));
    eprintln!(
        "{} frontier designs; evaluation cache {} hits / {} computes",
        report.rows.len(),
        report.hits,
        report.computes
    );
}

/// Saves/exports the cache per the persistence flags.
fn persist(db: &EvaluationCache, opts: &SweepOptions) -> Result<(), CliError> {
    if let Some(p) = &opts.db_path {
        db.save(p).map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot save {p}: {e}")))?;
        eprintln!("saved evaluation cache to {p}");
    }
    if let Some(p) = &opts.export_path {
        db.export_text(p).map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot export {p}: {e}")))?;
        eprintln!("exported text listing to {p}");
    }
    Ok(())
}

// --- subcommands ---------------------------------------------------------

fn cmd_walk(args: &[String]) -> ExitCode {
    let mut opts = SweepOptions::default();
    let mut spec_path = None;
    let mut i = 0;
    while i < args.len() {
        match opts.take(args, &mut i) {
            Ok(true) => {}
            Ok(false) => {
                let other = args[i].as_str();
                if spec_path.replace(other.to_string()).is_some() {
                    return fail(EXIT_BAD_CONFIG, format!("unexpected extra argument {other:?}"));
                }
            }
            Err((code, msg)) => return fail(code, msg),
        }
        i += 1;
    }
    let Some(spec_path) = spec_path else {
        return fail(EXIT_BAD_CONFIG, "walk needs a SPEC file");
    };
    match run_walk(&spec_path, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => fail(code, msg),
    }
}

fn run_walk(spec_path: &str, opts: &SweepOptions) -> Result<(), CliError> {
    let loaded = load_spec(spec_path, opts)?;
    let spec = &loaded.spec;
    let (checkpoint, db) = open_store(opts)?;

    eprintln!("building reference evaluation (the only simulation step)...");
    let eval = walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: spec.events, sampling: opts.sampling, ..EvalConfig::default() },
        &spec.space,
    );

    if opts.heuristic {
        // Demonstrate the pruning on the instruction-cache walk at each
        // processor's dilation. The heuristic shares the system cache, so
        // every design it touches pre-warms the full walk below.
        let app: Arc<str> = Arc::from(eval.program().name.as_str());
        for proc in &spec.space.processors {
            let d = eval.dilation_of(proc);
            let r = walk_heuristic(
                &spec.space.icache,
                &db,
                eval.config().worker_threads(),
                |design| MetricKey::icache(&app, design, d),
                |design| eval.estimate_icache_misses(design.config, d),
            );
            match r {
                Ok(r) => eprintln!(
                    "heuristic I$ walk @ {}: evaluated {}/{} designs, frontier {}",
                    proc.name,
                    r.evaluated,
                    r.space_size,
                    r.pareto.len()
                ),
                Err(e) => {
                    return Err((e.exit_code(), format!("heuristic I$ walk @ {}: {e}", proc.name)))
                }
            }
        }
    }

    let frontier =
        walker::walk_system_with(&eval, &spec.space, spec.penalties, &db, checkpoint.as_ref())
            .map_err(|e| (e.exit_code(), format!("system walk failed: {e}")))?;
    // Sampled-vs-exact provenance travels with the frontier itself, so a
    // saved listing is self-describing about how its misses were measured.
    // The report + renderer pair is the same one a daemon serves over the
    // wire, which is what keeps batch, served, and fleet output
    // byte-identical by construction.
    let report = report_from(&eval, &frontier, &db);
    print_report(&report);
    persist(&db, opts)?;
    if mhe_obs::enabled() {
        mhe_obs::RunReport::capture("spacewalker", eval.config().worker_threads()).emit();
    }
    Ok(())
}

/// Runs the sweep daemon on `addr` until a drain signal, exactly like
/// `mhe-server` with default flags.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut addr = None;
    let mut opts = SweepOptions::default();
    let mut service_cfg = mhe_spacewalk::ServiceConfig::default();
    let mut auth_token: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--session-ttl" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--session-ttl needs seconds");
                };
                match v.parse::<u64>() {
                    Ok(secs) => service_cfg.session_ttl = Some(Duration::from_secs(secs)),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--session-ttl {v:?}: {e}")),
                }
            }
            "--max-sessions" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--max-sessions needs a count");
                };
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => service_cfg.max_sessions = Some(n),
                    Ok(_) => return fail(EXIT_BAD_CONFIG, "--max-sessions must be positive"),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--max-sessions {v:?}: {e}")),
                }
            }
            "--persist" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--persist needs a directory");
                };
                service_cfg.persist_dir = Some(std::path::PathBuf::from(v));
            }
            "--auth-token" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--auth-token needs a token");
                };
                if v.is_empty() {
                    return fail(EXIT_BAD_CONFIG, "--auth-token must not be empty");
                }
                auth_token = Some(v.clone());
            }
            _ => match opts.take(args, &mut i) {
                Ok(true) => {}
                Ok(false) => {
                    if addr.replace(args[i].clone()).is_some() {
                        return fail(EXIT_BAD_CONFIG, format!("unexpected argument {:?}", args[i]));
                    }
                }
                Err((code, msg)) => return fail(code, msg),
            },
        }
        i += 1;
    }
    let Some(addr) = addr else {
        return fail(EXIT_BAD_CONFIG, "serve needs an address (e.g. 127.0.0.1:7199)");
    };
    if let Err((code, msg)) =
        opts.reject_persistence("serve").and_then(|()| reject_sweep_flags(&opts, "serve"))
    {
        return fail(code, msg);
    }
    serve(&addr, service_cfg, auth_token)
}

fn reject_sweep_flags(opts: &SweepOptions, context: &str) -> Result<(), CliError> {
    if opts.heuristic || opts.policies.is_some() || opts.sampling.is_some() {
        return Err(bad(format!("{context} takes no sweep flags (--heuristic/--policy/--sample)")));
    }
    Ok(())
}

fn serve(
    addr: &str,
    service_cfg: mhe_spacewalk::ServiceConfig,
    auth_token: Option<String>,
) -> ExitCode {
    let service = Arc::new(EvalService::with_config(service_cfg));
    let mut server = match Server::bind(addr, service) {
        Ok(s) => s,
        Err(e) => return fail(EXIT_SERVER_UNAVAILABLE, format!("cannot bind {addr}: {e}")),
    };
    if auth_token.is_some() {
        server = server.with_auth_token(auth_token);
    }
    server.install_signal_drain();
    match server.local_addr() {
        Ok(a) => eprintln!("spacewalker: serving on {a} (SIGTERM drains)"),
        Err(e) => return fail(EXIT_SERVER_UNAVAILABLE, format!("local addr: {e}")),
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(EXIT_WORKER_FAILURE, format!("serve loop: {e}")),
    }
}

fn cmd_connect(args: &[String]) -> ExitCode {
    let mut opts = SweepOptions::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut timeout = None;
    let mut retries = 0u32;
    let mut retry_deadline = None;
    let mut auth_token: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--timeout needs seconds");
                };
                match v.parse::<u64>() {
                    Ok(secs) => timeout = Some(Duration::from_secs(secs)),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--timeout {v:?}: {e}")),
                }
            }
            "--retries" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--retries needs a count");
                };
                match v.parse::<u32>() {
                    Ok(n) => retries = n,
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--retries {v:?}: {e}")),
                }
            }
            "--retry-deadline" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--retry-deadline needs seconds");
                };
                match v.parse::<u64>() {
                    Ok(secs) => retry_deadline = Some(Duration::from_secs(secs)),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--retry-deadline {v:?}: {e}")),
                }
            }
            "--auth-token" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--auth-token needs a token");
                };
                auth_token = Some(v.clone());
            }
            _ => match opts.take(args, &mut i) {
                Ok(true) => {}
                Ok(false) => positionals.push(args[i].clone()),
                Err((code, msg)) => return fail(code, msg),
            },
        }
        i += 1;
    }
    let [addr, spec_path] = positionals.as_slice() else {
        return fail(EXIT_BAD_CONFIG, "connect needs ADDR and SPEC");
    };
    if let Err((code, msg)) = opts.reject_persistence("connect") {
        return fail(code, msg);
    }
    let loaded = match load_spec(spec_path, &opts) {
        Ok(l) => l,
        Err((code, msg)) => return fail(code, msg),
    };
    connect(addr, loaded.text, &opts, timeout, retries, retry_deadline, auth_token)
}

/// Sends the walk to a daemon and prints the served frontier — the same
/// bytes the batch path prints for the same spec.
fn connect(
    addr: &str,
    spec_text: String,
    opts: &SweepOptions,
    timeout: Option<Duration>,
    retries: u32,
    retry_deadline: Option<Duration>,
    auth_token: Option<String>,
) -> ExitCode {
    let mut builder = Client::builder().addr(addr).retries(retries);
    if let Some(t) = timeout {
        builder = builder.timeout(t);
    }
    if let Some(d) = retry_deadline {
        builder = builder.retry_deadline(d);
    }
    if let Some(token) = auth_token {
        builder = builder.auth_token(token);
    }
    let mut client = match builder.connect() {
        Ok(c) => c,
        Err(e) => return fail(e.exit_code(), e),
    };
    let request = FrontierRequest {
        spec_text,
        heuristic: opts.heuristic,
        sampling: opts.sampling,
        policies: opts.policies.clone(),
    };
    let report = match client.evaluate(request) {
        Ok(r) => r,
        Err(e) => return fail(e.exit_code(), e),
    };
    print_report(&report);
    ExitCode::SUCCESS
}

fn cmd_worker(args: &[String]) -> ExitCode {
    let mut addr = None;
    let mut worker = WorkerOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--threads needs a count");
                };
                match v.parse::<usize>() {
                    Ok(n) => worker.threads = Some(n),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--threads {v:?}: {e}")),
                }
            }
            "--timeout" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--timeout needs seconds");
                };
                match v.parse::<u64>() {
                    Ok(secs) => worker.reply_timeout = Some(Duration::from_secs(secs)),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--timeout {v:?}: {e}")),
                }
            }
            "--die-after-points" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--die-after-points needs a count");
                };
                match v.parse::<u64>() {
                    Ok(n) => worker.die_after_points = Some(n),
                    Err(e) => {
                        return fail(EXIT_BAD_CONFIG, format!("--die-after-points {v:?}: {e}"))
                    }
                }
            }
            "--redials" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--redials needs a count");
                };
                match v.parse::<u32>() {
                    Ok(n) => worker.redial_retries = n,
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--redials {v:?}: {e}")),
                }
            }
            "--auth-token" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--auth-token needs a token");
                };
                worker.auth_token = Some(v.clone());
            }
            "--obs" => mhe_obs::set_level(mhe_obs::ObsLevel::Text),
            "--obs-json" => mhe_obs::set_level(mhe_obs::ObsLevel::Json),
            other => {
                if addr.replace(other.to_string()).is_some() {
                    return fail(EXIT_BAD_CONFIG, format!("unexpected argument {other:?}"));
                }
            }
        }
        i += 1;
    }
    let Some(addr) = addr else {
        return fail(EXIT_BAD_CONFIG, "worker needs a coordinator ADDR");
    };
    match run_worker(&addr, worker) {
        Ok(outcome) => {
            eprintln!(
                "worker {}: {} shards, {} points evaluated, {} prefilled skipped",
                outcome.worker_id, outcome.shards, outcome.points, outcome.skipped_prefilled
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e.exit_code(), e),
    }
}

fn cmd_fleet(args: &[String]) -> ExitCode {
    let mut opts = SweepOptions::default();
    let mut spec_path = None;
    let mut workers: Option<u32> = None;
    let mut bind_addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<String> = None;
    let mut fleet_cfg = FleetConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--workers needs a count");
                };
                match v.parse::<u32>() {
                    Ok(n) => workers = Some(n),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--workers {v:?}: {e}")),
                }
            }
            "--bind" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--bind needs an address");
                };
                bind_addr = v.clone();
            }
            "--port-file" => {
                i += 1;
                port_file = args.get(i).cloned();
                if port_file.is_none() {
                    return fail(EXIT_BAD_CONFIG, "--port-file needs a path");
                }
            }
            "--shards" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--shards needs a count");
                };
                match v.parse::<u32>() {
                    Ok(n) if n > 0 => fleet_cfg.shard_count = n,
                    Ok(_) => return fail(EXIT_BAD_CONFIG, "--shards must be positive"),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--shards {v:?}: {e}")),
                }
            }
            "--lease-timeout" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--lease-timeout needs seconds");
                };
                match v.parse::<u64>() {
                    Ok(secs) => fleet_cfg.lease_timeout = Duration::from_secs(secs),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--lease-timeout {v:?}: {e}")),
                }
            }
            "--stall-timeout" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--stall-timeout needs seconds");
                };
                match v.parse::<u64>() {
                    Ok(secs) => fleet_cfg.stall_timeout = Duration::from_secs(secs),
                    Err(e) => return fail(EXIT_BAD_CONFIG, format!("--stall-timeout {v:?}: {e}")),
                }
            }
            "--auth-token" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    return fail(EXIT_BAD_CONFIG, "--auth-token needs a token");
                };
                if v.is_empty() {
                    return fail(EXIT_BAD_CONFIG, "--auth-token must not be empty");
                }
                fleet_cfg.auth_token = Some(v.clone());
            }
            _ => match opts.take(args, &mut i) {
                Ok(true) => {}
                Ok(false) => {
                    let other = args[i].as_str();
                    if spec_path.replace(other.to_string()).is_some() {
                        return fail(
                            EXIT_BAD_CONFIG,
                            format!("unexpected extra argument {other:?}"),
                        );
                    }
                }
                Err((code, msg)) => return fail(code, msg),
            },
        }
        i += 1;
    }
    let Some(spec_path) = spec_path else {
        return fail(EXIT_BAD_CONFIG, "fleet needs a SPEC file");
    };
    let Some(workers) = workers else {
        return fail(EXIT_BAD_CONFIG, "fleet needs --workers N (0 = attach workers manually)");
    };
    if opts.heuristic {
        return fail(
            EXIT_BAD_CONFIG,
            "fleet has no --heuristic: the fleet prewarms every metric anyway",
        );
    }
    match run_fleet(&spec_path, &opts, workers, &bind_addr, port_file.as_deref(), fleet_cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => fail(code, msg),
    }
}

fn run_fleet(
    spec_path: &str,
    opts: &SweepOptions,
    workers: u32,
    bind_addr: &str,
    port_file: Option<&str>,
    fleet_cfg: FleetConfig,
) -> Result<(), CliError> {
    let loaded = load_spec(spec_path, opts)?;
    let spec = &loaded.spec;
    let (checkpoint, db) = open_store(opts)?;
    let db = Arc::new(db);

    let job = FleetJob {
        spec_text: loaded.text.clone(),
        sampling: opts.sampling,
        policies: opts.policies.clone(),
    };
    let shard_count = fleet_cfg.shard_count;
    let worker_token = fleet_cfg.auth_token.clone();
    let coordinator = Coordinator::bind(bind_addr, job, fleet_cfg, Arc::clone(&db))
        .map_err(|e| (EXIT_SERVER_UNAVAILABLE, format!("cannot bind {bind_addr}: {e}")))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| (EXIT_SERVER_UNAVAILABLE, format!("local addr: {e}")))?;
    if let Some(path) = port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot write {path}: {e}")))?;
    }
    eprintln!("fleet: coordinating on {addr} ({} shards, {} local workers)", shard_count, workers);

    let exe = std::env::current_exe()
        .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot locate own binary: {e}")))?;
    let mut children = Vec::new();
    for _ in 0..workers {
        let mut command = std::process::Command::new(&exe);
        command.arg("worker").arg(addr.to_string());
        if let Some(token) = &worker_token {
            // Locally-spawned workers inherit the coordinator's token so
            // `fleet --auth-token` works without extra plumbing.
            command.arg("--auth-token").arg(token);
        }
        let child = command
            .spawn()
            .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot spawn worker: {e}")))?;
        children.push(child);
    }

    let summary = match coordinator.run(checkpoint.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            for child in &mut children {
                let _ = child.kill();
                let _ = child.wait();
            }
            return Err((e.exit_code(), format!("fleet sweep failed: {e}")));
        }
    };
    // Workers exit on NoMoreWork; a worker that died mid-sweep was
    // already stolen from — its exit status is not the fleet's.
    for child in &mut children {
        let _ = child.wait();
    }
    eprintln!(
        "fleet: {} workers, {} points merged, {} steals, {} duplicate deliveries",
        summary.workers, summary.points, summary.steals, summary.duplicates
    );

    // The fleet filled the cache; the frontier itself is the ordinary
    // deterministic serial walk — every metric lookup below is a hit,
    // which is what makes this output bit-identical to `walk`.
    eprintln!("building reference evaluation (the only simulation step)...");
    let eval = walker::prepare_evaluation(
        spec.benchmark.generate(),
        &ProcessorKind::P1111.mdes(),
        EvalConfig { events: spec.events, sampling: opts.sampling, ..EvalConfig::default() },
        &spec.space,
    );
    let frontier =
        walker::walk_system_with(&eval, &spec.space, spec.penalties, &db, checkpoint.as_ref())
            .map_err(|e| (e.exit_code(), format!("system walk failed: {e}")))?;
    let report = report_from(&eval, &frontier, &db);
    print_report(&report);
    persist(&db, opts)?;
    if mhe_obs::enabled() {
        mhe_obs::RunReport::capture("spacewalker-fleet", eval.config().worker_threads()).emit();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("walk") => cmd_walk(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("connect") => cmd_connect(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            if args.is_empty() {
                return ExitCode::from(EXIT_BAD_CONFIG);
            }
            ExitCode::SUCCESS
        }
        Some(other) => fail(EXIT_BAD_CONFIG, format!("unknown command {other:?}\n{USAGE}")),
    }
}
