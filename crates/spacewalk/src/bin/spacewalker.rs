//! `spacewalker` — non-interactive design-space exploration from a
//! specification file, now subcommand-structured:
//!
//! ```console
//! $ spacewalker walk SPEC.txt [--db CACHE.mhec] [--export CACHE.tsv]
//!               [--heuristic] [--policy LIST] [--sample N[:clusters=K,warmup=W]]
//!               [--checkpoint DIR] [--resume DIR] [--obs|--obs-json]
//! $ spacewalker serve ADDR [--port-file PATH] [--inflight N] [--queue N]
//!               [--session-ttl SECS] [--max-sessions N] [--persist DIR]
//!               [--auth-token TOKEN]
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
//! `serve ADDR` turns the process into the sweep daemon: warm sessions,
//! bounded admission (`--inflight` walks run, `--queue` more wait, the
//! rest are rejected), bounded warm state (`--session-ttl`,
//! `--max-sessions`), evicted scope caches persisted under `--persist`,
//! and a graceful SIGTERM drain. `--port-file` publishes the bound
//! address, so `serve 127.0.0.1:0` suits scripts and tests that need an
//! ephemeral port. `connect ADDR SPEC` sends the walk to such a daemon
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
use mhe_spacewalk::{
    render_frontier, report_from, walker, Client, EvalService, Server, ServiceConfig,
};
use mhe_vliw::ProcessorKind;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  spacewalker walk SPEC [--db CACHE.mhec] [--export CACHE.tsv] [--heuristic]
              [--policy LIST] [--sample N[:clusters=K,warmup=W]]
              [--checkpoint DIR] [--resume DIR] [--obs|--obs-json]
  spacewalker serve ADDR [--port-file PATH] [--inflight N] [--queue N]
              [--session-ttl SECS] [--max-sessions N] [--persist DIR]
              [--auth-token TOKEN] [--obs|--obs-json]
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

/// A typed CLI failure: exit code plus rendered message.
type CliError = (u8, String);

fn bad(msg: impl std::fmt::Display) -> CliError {
    (EXIT_BAD_CONFIG, msg.to_string())
}

/// The value after the flag at `args[*i]`; advances `*i` onto it.
fn flag_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, CliError> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i).map(String::as_str).ok_or_else(|| bad(format!("{flag} needs a value")))
}

/// The value after the flag at `args[*i]`, parsed as a `T`.
fn flag_parse<T: FromStr>(args: &[String], i: &mut usize) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    let flag = &args[*i];
    let v = flag_value(args, i)?;
    v.parse().map_err(|e| bad(format!("{flag} {v:?}: {e}")))
}

/// Like [`flag_parse`], rejecting zero.
fn flag_positive<T: FromStr + Default + PartialOrd>(
    args: &[String],
    i: &mut usize,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    let flag = &args[*i];
    let n: T = flag_parse(args, i)?;
    if n > T::default() {
        Ok(n)
    } else {
        Err(bad(format!("{flag} must be positive")))
    }
}

/// Whole seconds after the flag at `args[*i]`.
fn flag_secs(args: &[String], i: &mut usize) -> Result<Duration, CliError> {
    flag_parse(args, i).map(Duration::from_secs)
}

/// `--auth-token TOKEN`, shared by `serve`, `connect`, `worker` and
/// `fleet`. An empty token is a configuration error on every side, never
/// an open port or an empty HMAC key.
fn flag_auth_token(args: &[String], i: &mut usize) -> Result<String, CliError> {
    let token = flag_value(args, i)?;
    if token.is_empty() {
        return Err(bad("--auth-token must not be empty"));
    }
    Ok(token.to_string())
}

/// Stores a subcommand's one positional argument, rejecting a second.
fn set_positional<'a>(slot: &mut Option<&'a str>, arg: &'a str) -> Result<(), CliError> {
    match slot.replace(arg) {
        Some(_) => Err(bad(format!("unexpected extra argument {arg:?}"))),
        None => Ok(()),
    }
}

/// Publishes a bound address, so scripts can start on port 0.
fn write_port_file(path: Option<&str>, addr: std::net::SocketAddr) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    std::fs::write(path, format!("{addr}\n"))
        .map_err(|e| (EXIT_WORKER_FAILURE, format!("cannot write {path}: {e}")))
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
        match flag {
            "--heuristic" => self.heuristic = true,
            "--policy" => {
                let list = flag_value(args, i)?;
                self.policies =
                    Some(parse_policy_list(list).map_err(|e| bad(format!("--policy {e}")))?);
            }
            "--sample" => {
                let v = flag_value(args, i)?;
                self.sampling =
                    Some(parse_sample(v).map_err(|e| bad(format!("--sample {v:?}: {e}")))?);
            }
            "--db" => self.db_path = Some(flag_value(args, i)?.to_string()),
            "--export" => self.export_path = Some(flag_value(args, i)?.to_string()),
            "--checkpoint" | "--resume" => {
                self.resume |= flag == "--resume";
                let dir = flag_value(args, i)?;
                if self.ckpt_dir.as_deref().is_some_and(|prev| prev != dir) {
                    return Err(bad("--checkpoint and --resume name different directories"));
                }
                self.ckpt_dir = Some(dir.to_string());
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

fn cmd_walk(args: &[String]) -> Result<(), CliError> {
    let mut opts = SweepOptions::default();
    let mut spec_path = None;
    let mut i = 0;
    while i < args.len() {
        if !opts.take(args, &mut i)? {
            set_positional(&mut spec_path, &args[i])?;
        }
        i += 1;
    }
    run_walk(spec_path.ok_or_else(|| bad("walk needs a SPEC file"))?, &opts)
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

/// The daemon's settings, as `serve` flags give them.
#[derive(Debug, Default)]
struct ServeArgs {
    addr: String,
    port_file: Option<String>,
    service: ServiceConfig,
    auth_token: Option<String>,
    obs: Option<mhe_obs::ObsLevel>,
}

/// Parses `serve ADDR [FLAGS]` without acting on any flag.
fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut parsed = ServeArgs::default();
    let mut addr = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port-file" => parsed.port_file = Some(flag_value(args, &mut i)?.to_string()),
            "--inflight" => parsed.service.limits.max_inflight = flag_positive(args, &mut i)?,
            "--queue" => parsed.service.limits.max_queued = flag_parse(args, &mut i)?,
            "--session-ttl" => parsed.service.session_ttl = Some(flag_secs(args, &mut i)?),
            "--max-sessions" => parsed.service.max_sessions = Some(flag_positive(args, &mut i)?),
            "--persist" => parsed.service.persist_dir = Some(flag_value(args, &mut i)?.into()),
            "--auth-token" => parsed.auth_token = Some(flag_auth_token(args, &mut i)?),
            "--obs" => parsed.obs = Some(mhe_obs::ObsLevel::Text),
            "--obs-json" => parsed.obs = Some(mhe_obs::ObsLevel::Json),
            "--db" => {
                return Err(bad("serve persists with --persist DIR (--db names a .mhec file)"))
            }
            flag if flag.starts_with('-') => {
                return Err(bad(format!("serve has no {flag} flag (see spacewalker --help)")))
            }
            other => set_positional(&mut addr, other)?,
        }
        i += 1;
    }
    parsed.addr = addr.ok_or_else(|| bad("serve needs an address (e.g. 127.0.0.1:7199)"))?.into();
    Ok(parsed)
}

/// Runs the sweep daemon until a SIGTERM/SIGINT drain.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let ServeArgs { addr, port_file, service, auth_token, obs } = parse_serve_args(args)?;
    if let Some(level) = obs {
        mhe_obs::set_level(level);
    }
    let limits = service.limits;
    let mut server = Server::bind(addr.as_str(), Arc::new(EvalService::with_config(service)))
        .map_err(|e| (EXIT_SERVER_UNAVAILABLE, format!("cannot bind {addr}: {e}")))?;
    if auth_token.is_some() {
        server = server.with_auth_token(auth_token);
    }
    server.install_signal_drain();
    let bound =
        server.local_addr().map_err(|e| (EXIT_SERVER_UNAVAILABLE, format!("local addr: {e}")))?;
    write_port_file(port_file.as_deref(), bound)?;
    eprintln!(
        "spacewalker: serving on {bound} (inflight {}, queue {}; SIGTERM drains)",
        limits.max_inflight, limits.max_queued
    );
    server.run().map_err(|e| (EXIT_WORKER_FAILURE, format!("serve loop: {e}")))
}

/// Sends the walk to a daemon and prints the served frontier — the same
/// bytes the batch path prints for the same spec.
fn cmd_connect(args: &[String]) -> Result<(), CliError> {
    let mut opts = SweepOptions::default();
    let mut positionals = Vec::new();
    let mut builder = Client::builder();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout" => builder = builder.timeout(flag_secs(args, &mut i)?),
            "--retries" => builder = builder.retries(flag_parse(args, &mut i)?),
            "--retry-deadline" => builder = builder.retry_deadline(flag_secs(args, &mut i)?),
            "--auth-token" => builder = builder.auth_token(flag_auth_token(args, &mut i)?),
            _ => {
                if !opts.take(args, &mut i)? {
                    positionals.push(args[i].as_str());
                }
            }
        }
        i += 1;
    }
    let [addr, spec_path] = positionals[..] else {
        return Err(bad("connect needs ADDR and SPEC"));
    };
    opts.reject_persistence("connect")?;
    let loaded = load_spec(spec_path, &opts)?;
    let remote = |e: mhe_spacewalk::ClientError| (e.exit_code(), e.to_string());
    let mut client = builder.addr(addr).connect().map_err(remote)?;
    let report = client
        .evaluate(FrontierRequest {
            spec_text: loaded.text,
            heuristic: opts.heuristic,
            sampling: opts.sampling,
            policies: opts.policies,
        })
        .map_err(remote)?;
    print_report(&report);
    Ok(())
}

fn cmd_worker(args: &[String]) -> Result<(), CliError> {
    let mut addr = None;
    let mut worker = WorkerOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => worker.threads = Some(flag_parse(args, &mut i)?),
            "--timeout" => worker.reply_timeout = Some(flag_secs(args, &mut i)?),
            "--die-after-points" => worker.die_after_points = Some(flag_parse(args, &mut i)?),
            "--redials" => worker.redial_retries = flag_parse(args, &mut i)?,
            "--auth-token" => worker.auth_token = Some(flag_auth_token(args, &mut i)?),
            "--obs" => mhe_obs::set_level(mhe_obs::ObsLevel::Text),
            "--obs-json" => mhe_obs::set_level(mhe_obs::ObsLevel::Json),
            other => set_positional(&mut addr, other)?,
        }
        i += 1;
    }
    let addr = addr.ok_or_else(|| bad("worker needs a coordinator ADDR"))?;
    let outcome = run_worker(addr, worker).map_err(|e| (e.exit_code(), e.to_string()))?;
    eprintln!(
        "worker {}: {} shards, {} points evaluated, {} prefilled skipped",
        outcome.worker_id, outcome.shards, outcome.points, outcome.skipped_prefilled
    );
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    let mut opts = SweepOptions::default();
    let mut spec_path = None;
    let mut workers: Option<u32> = None;
    let mut bind_addr = "127.0.0.1:0";
    let mut port_file = None;
    let mut fleet_cfg = FleetConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => workers = Some(flag_parse(args, &mut i)?),
            "--bind" => bind_addr = flag_value(args, &mut i)?,
            "--port-file" => port_file = Some(flag_value(args, &mut i)?),
            "--shards" => fleet_cfg.shard_count = flag_positive(args, &mut i)?,
            "--lease-timeout" => fleet_cfg.lease_timeout = flag_secs(args, &mut i)?,
            "--stall-timeout" => fleet_cfg.stall_timeout = flag_secs(args, &mut i)?,
            "--auth-token" => fleet_cfg.auth_token = Some(flag_auth_token(args, &mut i)?),
            _ => {
                if !opts.take(args, &mut i)? {
                    set_positional(&mut spec_path, &args[i])?;
                }
            }
        }
        i += 1;
    }
    let spec_path = spec_path.ok_or_else(|| bad("fleet needs a SPEC file"))?;
    let workers =
        workers.ok_or_else(|| bad("fleet needs --workers N (0 = attach workers manually)"))?;
    if opts.heuristic {
        return Err(bad("fleet has no --heuristic: the fleet prewarms every metric anyway"));
    }
    run_fleet(spec_path, &opts, workers, bind_addr, port_file, fleet_cfg)
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
    write_port_file(port_file, addr)?;
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
    let outcome = match args.first().map(String::as_str) {
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
            Ok(())
        }
        Some(other) => Err(bad(format!("unknown command {other:?}\n{USAGE}"))),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, msg)) => {
            eprintln!("spacewalker: {msg}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhe_spacewalk::ServiceLimits;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn serve(args: &[&str]) -> Result<ServeArgs, CliError> {
        parse_serve_args(&argv(args))
    }

    #[test]
    fn serve_defaults_to_open_unbounded_memory_only() {
        let parsed = serve(&["127.0.0.1:0"]).unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:0");
        assert_eq!(parsed.port_file, None);
        assert_eq!(parsed.service.limits, ServiceLimits { max_inflight: 4, max_queued: 64 });
        assert_eq!(parsed.service.session_ttl, None);
        assert_eq!(parsed.service.max_sessions, None);
        assert_eq!(parsed.service.persist_dir, None);
        assert_eq!(parsed.auth_token, None);
        assert_eq!(parsed.obs, None);
    }

    #[test]
    fn serve_takes_every_override() {
        let parsed = serve(&[
            "--port-file",
            "daemon.port",
            "127.0.0.1:7199",
            "--inflight",
            "2",
            "--queue",
            "0",
            "--session-ttl",
            "0",
            "--max-sessions",
            "2",
            "--persist",
            "daemon-db",
            "--auth-token",
            "hunter2",
            "--obs-json",
        ])
        .unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:7199");
        assert_eq!(parsed.port_file.as_deref(), Some("daemon.port"));
        assert_eq!(parsed.service.limits, ServiceLimits { max_inflight: 2, max_queued: 0 });
        assert_eq!(parsed.service.session_ttl, Some(Duration::ZERO));
        assert_eq!(parsed.service.max_sessions, Some(2));
        assert_eq!(parsed.service.persist_dir, Some("daemon-db".into()));
        assert_eq!(parsed.auth_token.as_deref(), Some("hunter2"));
        assert_eq!(parsed.obs, Some(mhe_obs::ObsLevel::Json));
    }

    #[test]
    fn serve_rejects_bad_flags_as_bad_configuration() {
        let rejected: [&[&str]; 12] = [
            &["127.0.0.1:0", "--inflight", "0"],
            &["127.0.0.1:0", "--queue", "many"],
            &["127.0.0.1:0", "--max-sessions", "0"],
            &["127.0.0.1:0", "--session-ttl", "soon"],
            &["127.0.0.1:0", "--auth-token", ""],
            &["127.0.0.1:0", "--port-file"],
            &["127.0.0.1:0", "--frobnicate"],
            &["127.0.0.1:0", "--db", "cache.mhec"],
            &["127.0.0.1:0", "--heuristic"],
            &["127.0.0.1:0", "--addr", "127.0.0.1:1"],
            &["127.0.0.1:0", "127.0.0.1:1"],
            &[],
        ];
        for args in rejected {
            let (code, msg) = serve(args).unwrap_err();
            assert_eq!(code, EXIT_BAD_CONFIG, "{args:?}: {msg}");
        }
    }

    #[test]
    fn every_subcommand_rejects_an_empty_auth_token() {
        let empty = (EXIT_BAD_CONFIG, "--auth-token must not be empty".to_string());
        assert_eq!(cmd_serve(&argv(&["127.0.0.1:0", "--auth-token", ""])), Err(empty.clone()));
        assert_eq!(
            cmd_connect(&argv(&["127.0.0.1:1", "spec.txt", "--auth-token", ""])),
            Err(empty.clone())
        );
        assert_eq!(cmd_worker(&argv(&["127.0.0.1:1", "--auth-token", ""])), Err(empty.clone()));
        assert_eq!(
            cmd_fleet(&argv(&["spec.txt", "--workers", "0", "--auth-token", ""])),
            Err(empty)
        );
    }
}
