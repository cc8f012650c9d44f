//! One repeatable benchmark for the mhe workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay_exact --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process. It builds every
//! input from `--seed` (set up several times; `setup_s` is the median),
//! resets the peak-RSS mark, then runs operations in a closed loop for
//! `--seconds`, checking each one against a reference made by another
//! path. The last stdout line is the JSON result: the end-to-end metrics
//! with `--trace 0`, or, with `--trace 1`, the per-layer metrics of a
//! traced run whose spans the benchmark records around its own calls into
//! each module. README.md in this directory explains the workloads and
//! metrics.

mod checks;
mod layers;
mod replay;
mod serve;
mod stats;
mod tracer;
mod walk;

use stats::{median, Metric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;

/// How many times a run builds its inputs; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// What every workload's run needs to know.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads or client connections: at most 2, and at most the
    /// machine's parallelism.
    pub threads: usize,
    /// Scratch directory for generated input files, removed at exit.
    pub work_dir: PathBuf,
}

/// Operations attempted and failed, with the latency of each success.
#[derive(Debug, Default)]
pub struct Loop {
    pub latencies_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
}

impl Loop {
    /// Records one operation: its latency, and the verdict of its check.
    pub fn record(&mut self, latency_s: f64, verdict: Result<(), String>) {
        self.attempted += 1;
        match verdict {
            Ok(()) => self.latencies_s.push(latency_s),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation {} failed: {e}", self.attempted);
            }
        }
    }

    pub fn merge(&mut self, other: Loop) {
        self.latencies_s.extend(other.latencies_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
    }
}

/// Runs `op` back to back until `seconds` have passed (at least once).
/// `op` returns the latency of its timed part and its check's verdict.
pub fn closed_loop(seconds: f64, mut op: impl FnMut() -> (f64, Result<(), String>)) -> Loop {
    let start = Instant::now();
    let mut out = Loop::default();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        trim_heap();
        let (latency, verdict) = op();
        out.record(latency, verdict);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Alternates an untraced operation with a traced one until `seconds` have
/// passed (at least one pair), so the overhead compares like with like.
/// `pair` runs one of each, records both verdicts, and returns their
/// latencies (untraced, traced). Returns the loop, the number of traced
/// operations and the tracing overhead.
pub fn traced_pairs(
    seconds: f64,
    mut pair: impl FnMut(&mut Loop) -> Result<(f64, f64), String>,
) -> Result<(Loop, u64, f64), String> {
    let start = Instant::now();
    let (mut ops, mut plain, mut traced) = (Loop::default(), Vec::new(), Vec::new());
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (p, t) = pair(&mut ops)?;
        plain.push(p);
        traced.push(t);
    }
    Ok((ops, traced.len() as u64, overhead_pct(&plain, &traced)))
}

/// How much slower (%) the median traced operation ran than the median
/// untraced one; printed as the run's overhead line.
pub fn overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let (p, t) = (median(plain), median(traced));
    let pct = (t / p - 1.0) * 100.0;
    println!(
        "tracing overhead: traced {:.2} ms vs untraced {:.2} ms median ({pct:+.1}%, {} vs {} operations)",
        t * 1e3,
        p * 1e3,
        traced.len(),
        plain.len()
    );
    pct
}

/// CPU busy ÷ (wall × threads) of an evaluation's measurement fan-out.
pub fn fanout_efficiency(m: &mhe_core::EvalMetrics) -> f64 {
    m.parallel_speedup() / m.threads.max(1) as f64
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Builds a workload's inputs [`SETUP_REPS`] times, keeping the last, and
/// returns it with the median set-up time.
pub fn set_up<S>(mut build: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let (state, secs) = timed(&mut build);
        drop(kept.take());
        kept = Some(state?);
        times.push(secs);
    }
    Ok((kept.expect("SETUP_REPS > 0"), median(&times)))
}

/// The result of one run, before formatting.
#[derive(Debug)]
pub enum Outcome {
    /// `--trace 0`: the timed loop and the median set-up time.
    Timed { setup_s: f64, ops: Loop },
    /// `--trace 1`: checked operations plus the per-layer figures.
    Traced { ops: Loop, tracer: Tracer, traced_ops: u64, extras: BTreeMap<&'static str, f64> },
}

/// The end-to-end metrics, in the order `--trace 0` prints them.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("request_p50_ms", "ms"), ("requests_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Where the per-layer figures come from.
enum Source {
    /// Self time of the named spans, per traced operation.
    SelfTime(&'static str),
    /// A count recorded at the call sites, per traced operation.
    Count(&'static str),
    /// A figure the workload computes itself.
    Extra,
}

/// Every per-layer metric, in the order it is printed.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("trace.gen_s", "s", Source::SelfTime("trace.gen")),
    ("trace.gen_accesses", "count", Source::Count("trace.gen_accesses")),
    ("trace.decode_s", "s", Source::SelfTime("trace.decode")),
    ("trace.decode_accesses", "count", Source::Count("trace.decode_accesses")),
    ("trace.decode_bytes", "bytes", Source::Count("trace.decode_bytes")),
    ("model.busy_s", "s", Source::SelfTime("model")),
    ("model.accesses", "count", Source::Count("model.accesses")),
    ("cache.sim_lru_s", "s", Source::SelfTime("cache.sim_lru")),
    ("cache.sim_fifo_s", "s", Source::SelfTime("cache.sim_fifo")),
    ("cache.family_accesses", "count", Source::Count("cache.family_accesses")),
    ("cache.families", "count", Source::Count("cache.families")),
    ("sampling.plan_s", "s", Source::SelfTime("sampling.plan")),
    ("sampling.extract_s", "s", Source::SelfTime("sampling.extract")),
    ("sampling.sim_s", "s", Source::SelfTime("sampling.sim")),
    ("sampling.intervals", "count", Source::Count("sampling.intervals")),
    ("sampling.clusters", "count", Source::Count("sampling.clusters")),
    (
        "sampling.representative_accesses",
        "count",
        Source::Count("sampling.representative_accesses"),
    ),
    ("sampling.coverage", "ratio", Source::Extra),
    ("sampling.miss_ratio_error", "ratio", Source::Extra),
    ("sampling.estimate_error", "ratio", Source::Extra),
    ("workload.generate_s", "s", Source::SelfTime("workload.generate")),
    ("workload.profile_s", "s", Source::SelfTime("workload.profile")),
    ("vliw.compile_s", "s", Source::SelfTime("vliw.compile")),
    ("vliw.compile_calls", "count", Source::Count("vliw.compile_calls")),
    ("vliw.cycles_s", "s", Source::SelfTime("vliw.cycles")),
    ("vliw.cycles_calls", "count", Source::Count("vliw.cycles_calls")),
    ("core.estimate_s", "s", Source::SelfTime("core.estimate")),
    ("core.estimate_calls", "count", Source::Count("core.estimate_calls")),
    ("core.fanout_efficiency", "ratio", Source::Extra),
    ("spacewalk.heuristic_s", "s", Source::SelfTime("spacewalk.heuristic")),
    ("spacewalk.walk_s", "s", Source::SelfTime("spacewalk.walk")),
    ("spacewalk.walk_designs", "count", Source::Count("spacewalk.walk_designs")),
    ("spacewalk.db_hits", "count", Source::Count("spacewalk.db_hits")),
    ("spacewalk.db_computes", "count", Source::Count("spacewalk.db_computes")),
    ("spacewalk.db_hit_ratio", "ratio", Source::Extra),
    ("spacewalk.respond_ms", "ms", Source::Extra),
    ("spacewalk.server_wait_ms", "ms", Source::Extra),
    ("spacewalk.proto_encode_us", "us", Source::Extra),
    ("spacewalk.proto_decode_us", "us", Source::Extra),
    ("spacewalk.frame_bytes", "bytes", Source::Extra),
    ("spacewalk.admission_queued", "count", Source::Extra),
    ("request_p90_ms", "ms", Source::Extra),
    ("trace_overhead_pct", "%", Source::Extra),
    ("traced_ops", "count", Source::Extra),
];

fn per_layer_metrics(
    tracer: &Tracer,
    traced_ops: u64,
    extras: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let self_s = tracer.self_seconds();
    let counts = tracer.count_totals();
    let ops = traced_ops.max(1) as f64;
    let per_op = |v: Option<&f64>| v.copied().unwrap_or(0.0) / ops;
    let mut derived = extras.clone();
    let total = counts.get("sampling.total_accesses").copied().unwrap_or(0.0);
    if total > 0.0 {
        derived.entry("sampling.coverage").or_insert(
            counts.get("sampling.representative_accesses").copied().unwrap_or(0.0) / total,
        );
    }
    let (hits, computes) = (
        counts.get("spacewalk.db_hits").copied().unwrap_or(0.0),
        counts.get("spacewalk.db_computes").copied().unwrap_or(0.0),
    );
    if hits + computes > 0.0 {
        derived.entry("spacewalk.db_hit_ratio").or_insert(hits / (hits + computes));
    }
    derived.entry("traced_ops").or_insert(traced_ops as f64);
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| Metric {
            name,
            unit,
            value: match source {
                Source::SelfTime(span) => per_op(self_s.get(span)),
                Source::Count(count) => per_op(counts.get(count)),
                Source::Extra => derived.get(name).copied().unwrap_or(0.0),
            },
        })
        .collect()
}

/// Peak resident set size (MiB) since the last [`reset_peak_rss`].
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Hands the allocator's free pages back to the kernel. Called after set-up
/// and before every operation; otherwise the resident baseline an
/// operation starts from holds whatever free memory earlier work left in
/// glibc's per-thread arenas, which depends on which thread ran which
/// task, and peak RSS grew with the run's length and wandered between
/// identical runs.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
        // free heap pages; std already links glibc.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the peak-RSS mark to the current RSS after trimming the heap, so
/// set-up does not count.
fn reset_peak_rss() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS through /proc/self/clear_refs: {e}"))
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if map.insert(key, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let take = |key: &str| map.get(key).copied().ok_or_else(|| format!("missing --{key}"));
    let seconds: f64 = take("seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match take("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(extra) = map.keys().find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload: take("workload")?.to_string(),
        seed: take("seed")?.parse().map_err(|_| "--seed must be a whole number")?,
        seconds,
        trace,
    })
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// (steal, total) CPU ticks since boot, from the first line of /proc/stat.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn run(args: &Args, out_dir: &Path) -> Result<String, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create {:?}: {e}", work.0))?;
    let env = Env { seed: args.seed, seconds: args.seconds, threads, work_dir: work.0.clone() };
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let ticks_before = cpu_ticks();
    let outcome = match args.workload.as_str() {
        "replay_exact" => replay::run(&env, replay::Mode::Exact, args.trace)?,
        "replay_sampled" => replay::run(&env, replay::Mode::Sampled, args.trace)?,
        "walk_cold" => walk::run(&env, args.trace)?,
        "serve_warm" => serve::run(&env, args.trace)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    // Time the hypervisor gave to other guests: the noise no median can
    // remove, printed so a noisy run can be told from a slow program.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0;
        println!("host steal: {share:.1}% of CPU time during the run");
    }
    let line = match outcome {
        Outcome::Timed { setup_s, ops } => {
            let peak = peak_rss_mb()?;
            if ops.latencies_s.is_empty() {
                return Err("every operation failed".into());
            }
            let mut lat = ops.latencies_s.clone();
            lat.sort_by(f64::total_cmp);
            println!(
                "{} operations ({} failed) in {:.3} s; latency ms min {:.1} median {:.1} max {:.1}",
                ops.attempted,
                ops.failed,
                ops.wall_s,
                lat[0] * 1e3,
                median(&lat) * 1e3,
                lat[lat.len() - 1] * 1e3
            );
            let values =
                [setup_s, median(&lat) * 1e3, ops.latencies_s.len() as f64 / ops.wall_s, peak];
            let metrics: Vec<Metric> = END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| Metric { name, value, unit })
                .collect();
            stats::result_line(ops.failed == 0, ops.attempted, ops.failed, &metrics)
        }
        Outcome::Traced { ops, tracer, traced_ops, extras } => {
            let path = out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
            let header = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"threads\":{threads},\"traced_ops\":{traced_ops}}}",
                args.workload, args.seed, args.seconds
            );
            tracer
                .write_jsonl(&path, &header)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            println!("spans written to {}", path.display());
            let metrics = per_layer_metrics(&tracer, traced_ops, &extras);
            stats::result_line(ops.failed == 0, ops.attempted, ops.failed, &metrics)
        }
    };
    Ok(line)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match run(&args, &out_dir) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse_args(&args("--workload walk_cold --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("walk_cold", 7, 10.0, true));
        for bad in [
            "--workload w --seed 7 --seconds 10",
            "--workload w --seed x --seconds 10 --trace 0",
            "--workload w --seed 7 --seconds 0 --trace 0",
            "--workload w --seed 7 --seconds 10 --trace 2",
            "--workload w --seed 7 --seconds 10 --trace 0 --extra 1",
            "--workload w --seed 7 --seed 8 --seconds 10 --trace 0",
            "stray",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let printed: Vec<(&str, &str)> = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)))
            .collect();
        for (name, unit) in &printed {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), printed.len());
    }

    #[test]
    fn every_per_layer_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _, _) in PER_LAYER {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        let metrics = per_layer_metrics(&Tracer::default(), 0, &BTreeMap::new());
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
}
