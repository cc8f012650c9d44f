//! `replay_exact` and `replay_sampled`: one `ReferenceEvaluation::replay_file`
//! call over a gcc `.mtr` trace captured in set-up, with the paper's four
//! caches, exact or with `SamplingConfig::default()`.

use crate::checks::{self, Measured};
use crate::layers::{self, Grids};
use crate::stats::median;
use crate::tracer::{Ctx, Tracer};
use crate::{closed_loop, set_up, timed, Env, Outcome};
use mhe_cache::CacheConfig;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::SamplingConfig;
use mhe_trace::{StreamKind, TraceReader};
use mhe_vliw::{Compiled, Mdes, ProcessorKind};
use mhe_workload::{Benchmark, BlockFrequencies};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// Basic-block events of the replayed gcc trace (about 8.6 M accesses,
/// 13.6 MB of `.mtr`): half the size the roadmap's Amdahl table used, so
/// a run holds enough calls for a steady median.
const EVENTS: usize = 1_000_000;
/// Largest tolerated |sampled − exact| miss ratio.
const SAMPLING_BUDGET: f64 = 0.02;
/// Events the evaluator profiles for its code layout.
pub const PROFILE_EVENTS: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Exact,
    Sampled,
}

/// The paper's four caches: 1 KB direct-mapped and 16 KB 2-way L1s,
/// 16 KB 2-way and 128 KB 4-way unified L2s.
fn grids() -> Grids {
    let l1 = vec![CacheConfig::from_bytes(1024, 1, 32), CacheConfig::from_bytes(16 << 10, 2, 32)];
    let l2 =
        vec![CacheConfig::from_bytes(16 << 10, 2, 64), CacheConfig::from_bytes(128 << 10, 4, 64)];
    Grids { icaches: l1.clone(), dcaches: l1, ucaches: l2 }
}

struct State {
    mode: Mode,
    config: EvalConfig,
    mdes: Mdes,
    grids: Grids,
    path: PathBuf,
    /// The in-memory `build` of the same trace: the reference every replay
    /// is checked against.
    reference: Measured,
    /// Per-stream access counts (instruction, data, unified).
    stream_len: [u64; 3],
    /// Exact estimates at the five presets' dilations, with the
    /// (stream, config, dilation) they answer.
    exact_estimates: Vec<(StreamKind, CacheConfig, f64, f64)>,
}

fn estimates(
    eval: &ReferenceEvaluation,
    points: &[(StreamKind, CacheConfig, f64)],
) -> Result<Vec<f64>, String> {
    points
        .iter()
        .map(|&(kind, config, d)| match kind {
            StreamKind::Instruction => eval.estimate_icache_misses(config, d),
            _ => eval.estimate_ucache_misses(config, d),
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

fn build_state(env: &Env, mode: Mode) -> Result<State, String> {
    let config = EvalConfig {
        events: EVENTS,
        seed: env.seed,
        threads: env.threads,
        ..EvalConfig::default()
    };
    let mdes = ProcessorKind::P1111.mdes();
    let grids = grids();
    let reference = ReferenceEvaluation::build(
        Benchmark::Gcc.generate(),
        &mdes,
        config,
        &grids.icaches,
        &grids.dcaches,
        &grids.ucaches,
    );
    let path = env.work_dir.join("gcc.mtr");
    let file = File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
    reference.capture_mtr(BufWriter::new(file)).map_err(|e| format!("capture failed: {e}"))?;

    let stream_len = [StreamKind::Instruction, StreamKind::Data, StreamKind::Unified].map(|k| {
        reference.metrics().passes.iter().find(|p| p.stream == k).map_or(0, |p| p.addresses)
    });
    let mut points = Vec::new();
    for kind in ProcessorKind::ALL {
        let d = reference.dilation_of(&kind.mdes());
        points.extend(grids.icaches.iter().map(|&c| (StreamKind::Instruction, c, d)));
        points.extend(grids.ucaches.iter().map(|&c| (StreamKind::Unified, c, d)));
    }
    let values = estimates(&reference, &points)?;
    let exact_estimates = points.iter().zip(values).map(|(&(k, c, d), v)| (k, c, d, v)).collect();
    Ok(State {
        mode,
        config: match mode {
            Mode::Exact => config,
            Mode::Sampled => EvalConfig { sampling: Some(SamplingConfig::default()), ..config },
        },
        mdes,
        grids,
        path,
        reference: Measured::of(&reference),
        stream_len,
        exact_estimates,
    })
}

impl State {
    /// The timed call.
    fn replay(&self) -> Result<ReferenceEvaluation, String> {
        let g = &self.grids;
        ReferenceEvaluation::replay_file(
            Benchmark::Gcc.generate(),
            &self.mdes,
            self.config,
            &self.path,
            &g.icaches,
            &g.dcaches,
            &g.ucaches,
        )
        .map_err(|e| format!("replay failed: {e}"))
    }

    /// Checks a replayed result; returns (miss-ratio error, estimate
    /// error), both 0 for an exact replay.
    fn check(
        &self,
        got: &Measured,
        eval: Option<&ReferenceEvaluation>,
    ) -> Result<(f64, f64), String> {
        match self.mode {
            Mode::Exact => checks::identical(got, &self.reference).map(|()| (0.0, 0.0)),
            Mode::Sampled => {
                let err = checks::miss_ratio_error(got, &self.reference, self.stream_len)?;
                checks::within_budget(err, SAMPLING_BUDGET)?;
                let Some(eval) = eval else { return Ok((err, 0.0)) };
                let points: Vec<_> =
                    self.exact_estimates.iter().map(|&(k, c, d, _)| (k, c, d)).collect();
                let sampled = estimates(eval, &points)?;
                let worst = self
                    .exact_estimates
                    .iter()
                    .zip(sampled)
                    .map(|(&(_, _, _, exact), s)| (s - exact).abs() / exact.abs().max(1.0))
                    .fold(0.0, f64::max);
                Ok((err, worst))
            }
        }
    }

    /// The same measurement, driven layer by layer with a span around
    /// every call.
    fn traced(&self, t: &Tracer, op: Ctx) -> Result<Measured, String> {
        t.span(op, "op", |ctx| {
            let program = t.span(ctx, "workload.generate", |_| Benchmark::Gcc.generate());
            let freq = t.span(ctx, "workload.profile", |_| {
                BlockFrequencies::profile(&program, self.config.seed, PROFILE_EVENTS)
            });
            t.span(ctx, "vliw.compile", |_| Compiled::build(&program, &self.mdes, Some(&freq)));
            t.count(ctx, "vliw.compile_calls", 1.0);
            let mut reader_a = open(&self.path)?;
            let mut pass_a = |ctx: Ctx| decode(t, ctx, &mut reader_a);
            let measured = match self.config.sampling {
                None => layers::measure_exact(t, ctx, &self.config, &self.grids, &mut pass_a),
                Some(sampling) => {
                    let mut reader_b = open(&self.path)?;
                    let mut pass_b = |ctx: Ctx| decode(t, ctx, &mut reader_b);
                    let m = layers::measure_sampled(
                        t,
                        ctx,
                        &self.config,
                        sampling,
                        &self.grids,
                        &mut pass_a,
                        &mut pass_b,
                    );
                    t.count(ctx, "trace.decode_bytes", reader_b.stats().bytes as f64);
                    m
                }
            };
            t.count(ctx, "trace.decode_bytes", reader_a.stats().bytes as f64);
            Ok(measured)
        })
    }
}

fn open(path: &Path) -> Result<TraceReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    TraceReader::new(BufReader::new(file)).map_err(|e| format!("bad trace header: {e}"))
}

/// Decodes one frame inside a `trace.decode` span. A decode error ends
/// the pass; the result check then reports the short trace.
fn decode(
    t: &Tracer,
    ctx: Ctx,
    reader: &mut TraceReader<BufReader<File>>,
) -> Option<Vec<mhe_trace::Access>> {
    let frame = t.span(ctx, "trace.decode", |_| reader.next_frame());
    match frame {
        Ok(Some(chunk)) => {
            t.count(ctx, "trace.decode_accesses", chunk.len() as f64);
            Some(chunk)
        }
        Ok(None) => None,
        Err(e) => {
            eprintln!("decode failed: {e}");
            None
        }
    }
}

pub fn run(env: &Env, mode: Mode, trace: bool) -> Result<Outcome, String> {
    let (state, setup_s) = set_up(|| build_state(env, mode))?;
    crate::reset_peak_rss()?;
    let op = || {
        let (eval, secs) = timed(|| state.replay());
        let verdict = eval.and_then(|e| state.check(&Measured::of(&e), Some(&e)).map(|_| ()));
        (secs, verdict)
    };
    if !trace {
        return Ok(Outcome::Timed { setup_s, ops: closed_loop(env.seconds, op) });
    }

    let tracer = Tracer::default();
    let (mut efficiency, mut errors) = (Vec::new(), (0.0, 0.0));
    let (ops, traced_ops, overhead) = crate::traced_pairs(env.seconds, |ops| {
        let (eval, plain) = timed(|| state.replay());
        let eval = eval?;
        if efficiency.is_empty() {
            eprintln!("cross-check, EvalMetrics of the untraced call: {}", eval.metrics());
        }
        efficiency.push(crate::fanout_efficiency(eval.metrics()));
        let verdict = state.check(&Measured::of(&eval), Some(&eval));
        if let Ok(e) = verdict {
            errors = e;
        }
        ops.record(plain, verdict.map(|_| ()));

        let want = match mode {
            Mode::Exact => state.reference.clone(),
            Mode::Sampled => Measured::of(&eval),
        };
        let (measured, traced) = timed(|| state.traced(&tracer, tracer.op()));
        ops.record(traced, measured.and_then(|got| checks::identical(&got, &want)));
        Ok((plain, traced))
    })?;
    let extras = BTreeMap::from([
        ("core.fanout_efficiency", median(&efficiency)),
        ("sampling.miss_ratio_error", errors.0),
        ("sampling.estimate_error", errors.1),
        ("trace_overhead_pct", overhead),
    ]);
    Ok(Outcome::Traced { ops, tracer, traced_ops, extras })
}
