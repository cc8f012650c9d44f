//! `walk_cold`: the `spacewalker walk --heuristic` path from a program in
//! hand to a rendered frontier, with a cold metric cache. Also the traced
//! mirror of the heuristic and system walks, shared with `serve_warm`.

use crate::checks::{self, Measured};
use crate::layers::{self, Grids};
use crate::replay::PROFILE_EVENTS;
use crate::tracer::{Ctx, Tracer};
use crate::{closed_loop, set_up, timed, Env, Outcome};
use mhe_cache::Penalties;
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_core::{processor_cycles, MheError};
use mhe_spacewalk::spec::Spec;
use mhe_spacewalk::walker::{self, MemoryPoint, SystemPoint, PROCESSOR_AREA_SCALE};
use mhe_spacewalk::{
    cache_area, render_frontier, report_from, walk_heuristic, CacheDesign, CacheSpace,
    EvaluationCache, MetricKey, ParetoSet, SystemSpace,
};
use mhe_trace::TraceGenerator;
use mhe_vliw::{Compiled, Mdes, ProcessorKind};
use mhe_workload::BlockFrequencies;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The walked space: five preset processors; I$ and D$ 1–32 KB × assoc
/// 1/2/4 × 16/32/64-byte lines; U$ 16–256 KB × assoc 2/4/8 × 64/128-byte
/// lines; LRU and FIFO everywhere. Ghostscript runs 100 k basic-block
/// events (about 0.8 M accesses), a quarter of the size the workload was
/// first drawn at: its FIFO grid costs about three times as much per event
/// as a replay, and a run needs enough walks for a steady median.
const SPEC: &str = "\
[processors]
kinds = 1111 2111 3221 4221 6332
[icache]
sizes_kb = 1 2 4 8 16 32
assocs = 1 2 4
line_bytes = 16 32 64
policies = lru fifo
[dcache]
sizes_kb = 1 2 4 8 16 32
assocs = 1 2 4
line_bytes = 16 32 64
policies = lru fifo
[ucache]
sizes_kb = 16 32 64 128 256
assocs = 2 4 8
line_bytes = 64 128
policies = lru fifo
[eval]
benchmark = ghostscript
events = 100000
l1_miss = 10
l2_miss = 50
";

/// The I$ heuristic prewarm `spacewalker walk --heuristic` runs at every
/// processor's dilation before the full walk.
fn heuristic(
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    db: &EvaluationCache,
) -> Result<(), MheError> {
    let app: Arc<str> = Arc::from(eval.program().name.as_str());
    for proc in &space.processors {
        let d = eval.dilation_of(proc);
        walk_heuristic(
            &space.icache,
            db,
            eval.config().worker_threads(),
            |design| MetricKey::icache(&app, design, d),
            |design| eval.estimate_icache_misses(design.config, d),
        )?;
    }
    Ok(())
}

/// Heuristic prewarm plus system walk, rendered as `spacewalker` prints it.
pub fn walk_and_render(
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    penalties: Penalties,
    db: &EvaluationCache,
) -> Result<String, MheError> {
    heuristic(eval, space, db)?;
    let frontier = walker::walk_system(eval, space, penalties, db)?;
    Ok(render_frontier(&report_from(eval, &frontier, db)))
}

/// Compiles for `proc` inside a `vliw.compile` span and returns the text
/// dilation against the reference, as `ReferenceEvaluation::dilation_of`
/// computes it.
fn traced_compile(
    t: &Tracer,
    ctx: Ctx,
    eval: &ReferenceEvaluation,
    proc: &Mdes,
) -> (Compiled, f64) {
    let compiled = t.span(ctx, "vliw.compile", |_| eval.compile_target(proc));
    t.count(ctx, "vliw.compile_calls", 1.0);
    let d = compiled.text_words() as f64 / eval.reference().text_words() as f64;
    (compiled, d)
}

fn traced_estimate(
    t: &Tracer,
    ctx: Ctx,
    f: impl FnOnce() -> Result<f64, MheError>,
) -> Result<f64, MheError> {
    t.count(ctx, "core.estimate_calls", 1.0);
    t.span(ctx, "core.estimate", |_| f())
}

/// [`heuristic`] with spans around its compile and estimate calls.
pub fn traced_heuristic(
    t: &Tracer,
    ctx: Ctx,
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    db: &EvaluationCache,
) -> Result<(), MheError> {
    t.span(ctx, "spacewalk.heuristic", |ctx| {
        let app: Arc<str> = Arc::from(eval.program().name.as_str());
        for proc in &space.processors {
            let (_, d) = traced_compile(t, ctx, eval, proc);
            let r = walk_heuristic(
                &space.icache,
                db,
                eval.config().worker_threads(),
                |design| MetricKey::icache(&app, design, d),
                |design| traced_estimate(t, ctx, || eval.estimate_icache_misses(design.config, d)),
            )?;
            t.count(ctx, "spacewalk.walk_designs", r.evaluated as f64);
        }
        Ok(())
    })
}

/// One cache space walked exhaustively through the shared cache, merged
/// in enumeration order as the walker does.
fn traced_cache_space(
    t: &Tracer,
    ctx: Ctx,
    space: &CacheSpace,
    db: &EvaluationCache,
    key: impl Fn(CacheDesign) -> MetricKey,
    metric: impl Fn(CacheDesign) -> Result<f64, MheError>,
) -> Result<ParetoSet<CacheDesign>, MheError> {
    let designs = space.enumerate();
    t.count(ctx, "spacewalk.walk_designs", designs.len() as f64);
    let mut pareto = ParetoSet::new();
    for design in designs {
        let time =
            db.get_or_try_insert_with(key(design), || traced_estimate(t, ctx, || metric(design)))?;
        pareto.insert(design, cache_area(&design), time);
    }
    Ok(pareto)
}

/// `walker::walk_system` rebuilt from the public pieces it is made of,
/// with spans around the compile, cycle and estimate calls.
pub fn traced_walk_system(
    t: &Tracer,
    ctx: Ctx,
    eval: &ReferenceEvaluation,
    space: &SystemSpace,
    penalties: Penalties,
    db: &EvaluationCache,
) -> Result<ParetoSet<SystemPoint>, MheError> {
    t.span(ctx, "spacewalk.walk", |ctx| {
        let app: Arc<str> = Arc::from(eval.program().name.as_str());
        let cfg = *eval.config();
        let mut prepared = Vec::new();
        for proc in &space.processors {
            let (compiled, d) = traced_compile(t, ctx, eval, proc);
            let cycles = db.get_or_insert_with(MetricKey::proc_cycles(&app, &proc.name), || {
                t.count(ctx, "vliw.cycles_calls", 1.0);
                t.span(ctx, "vliw.cycles", |_| {
                    processor_cycles(eval.program(), &compiled, cfg.seed, cfg.events) as f64
                })
            });
            prepared.push((d, cycles));
        }
        let mut pareto = ParetoSet::new();
        for (proc, (d, compute)) in space.processors.iter().zip(prepared) {
            let ic = traced_cache_space(
                t,
                ctx,
                &space.icache,
                db,
                |design| MetricKey::icache(&app, design, d),
                |design| eval.estimate_icache_misses(design.config, d),
            )?;
            let dc = traced_cache_space(
                t,
                ctx,
                &space.dcache,
                db,
                |design| MetricKey::dcache(&app, design),
                |design| eval.dcache_misses(design.config).map(|m| m as f64),
            )?;
            let uc = traced_cache_space(
                t,
                ctx,
                &space.ucache,
                db,
                |design| MetricKey::ucache(&app, design, d),
                |design| eval.estimate_ucache_misses(design.config, d),
            )?;
            let mut memory = ParetoSet::new();
            for i in ic.points() {
                for dd in dc.points() {
                    for u in uc.points() {
                        let point =
                            MemoryPoint { icache: i.design, dcache: dd.design, ucache: u.design };
                        if !point.design().satisfies_inclusion() {
                            continue;
                        }
                        let stalls = (i.time + dd.time) * penalties.l1_miss as f64
                            + u.time * penalties.l2_miss as f64;
                        memory.insert(point, i.cost + dd.cost + u.cost, stalls);
                    }
                }
            }
            for m in memory.points() {
                let cost = proc.cost() * PROCESSOR_AREA_SCALE + m.cost;
                pareto.insert(
                    SystemPoint { processor: proc.clone(), memory: m.design },
                    cost,
                    compute + m.time,
                );
            }
        }
        Ok(pareto)
    })
}

/// Records the metric cache's hit and compute counts since `before`.
pub fn count_db(t: &Tracer, ctx: Ctx, db: &EvaluationCache, before: (u64, u64)) {
    let (hits, computes) = db.stats();
    t.count(ctx, "spacewalk.db_hits", (hits - before.0) as f64);
    t.count(ctx, "spacewalk.db_computes", (computes - before.1) as f64);
}

struct State {
    spec: Spec,
    config: EvalConfig,
    mdes: Mdes,
    /// Measured maps and rendered frontier of the streaming reference.
    want: Measured,
    want_frontier: String,
}

fn build_state(env: &Env) -> Result<State, String> {
    let spec = Spec::parse(SPEC).map_err(|e| format!("walk spec: {e}"))?;
    let config = EvalConfig {
        events: spec.events,
        seed: env.seed,
        threads: env.threads,
        ..EvalConfig::default()
    };
    let mdes = ProcessorKind::P1111.mdes();
    // Reference: the streaming path at one thread, fed the generated
    // trace, then the same walk and renderer.
    let program = spec.benchmark.generate();
    let freq = BlockFrequencies::profile(&program, env.seed, PROFILE_EVENTS);
    let compiled = Compiled::build(&program, &mdes, Some(&freq));
    let trace: Vec<_> =
        TraceGenerator::new(&program, &compiled, env.seed).with_event_limit(spec.events).collect();
    let reference = ReferenceEvaluation::build_from_trace(
        program.clone(),
        &mdes,
        EvalConfig { threads: 1, ..config },
        trace,
        &spec.space.icache.configs(),
        &spec.space.dcache.configs(),
        &spec.space.ucache.configs(),
    );
    let want_frontier =
        walk_and_render(&reference, &spec.space, spec.penalties, &EvaluationCache::new())
            .map_err(|e| format!("reference walk failed: {e}"))?;
    Ok(State { want: Measured::of(&reference), want_frontier, spec, config, mdes })
}

impl State {
    /// The timed operation: prepare, heuristic, walk, render.
    fn walk(&self) -> Result<(ReferenceEvaluation, String), String> {
        let eval = walker::prepare_evaluation(
            self.spec.benchmark.generate(),
            &self.mdes,
            self.config,
            &self.spec.space,
        );
        let frontier =
            walk_and_render(&eval, &self.spec.space, self.spec.penalties, &EvaluationCache::new())
                .map_err(|e| format!("walk failed: {e}"))?;
        Ok((eval, frontier))
    }

    fn check(&self, got: &Measured, frontier: &str) -> Result<(), String> {
        checks::identical(got, &self.want)?;
        checks::same_frontier(frontier, &self.want_frontier)
    }

    /// The same operation with every layer driven from outside: the build
    /// through [`layers::measure_exact`], checked against `eval` (built
    /// untraced just before), then the traced heuristic and system walk
    /// over `eval` with a cold cache.
    fn traced(&self, t: &Tracer, op: Ctx, eval: &ReferenceEvaluation) -> Result<(), String> {
        t.span(op, "op", |ctx| {
            let program = t.span(ctx, "workload.generate", |_| self.spec.benchmark.generate());
            let freq = t.span(ctx, "workload.profile", |_| {
                BlockFrequencies::profile(&program, self.config.seed, PROFILE_EVENTS)
            });
            let compiled =
                t.span(ctx, "vliw.compile", |_| Compiled::build(&program, &self.mdes, Some(&freq)));
            t.count(ctx, "vliw.compile_calls", 1.0);
            let space = &self.spec.space;
            let grids = Grids {
                icaches: space.icache.configs(),
                dcaches: space.dcache.configs(),
                ucaches: space.ucache.configs(),
            };
            let mut once = Some(());
            let mut generate = |ctx: Ctx| {
                once.take()?;
                let trace: Vec<_> = t.span(ctx, "trace.gen", |_| {
                    TraceGenerator::new(&program, &compiled, self.config.seed)
                        .with_event_limit(self.config.events)
                        .collect()
                });
                t.count(ctx, "trace.gen_accesses", trace.len() as f64);
                Some(trace)
            };
            let measured = layers::measure_exact(t, ctx, &self.config, &grids, &mut generate);
            checks::identical(&measured, &Measured::of(eval))?;

            let db = EvaluationCache::new();
            let walk = || -> Result<String, MheError> {
                traced_heuristic(t, ctx, eval, space, &db)?;
                let frontier = traced_walk_system(t, ctx, eval, space, self.spec.penalties, &db)?;
                Ok(render_frontier(&report_from(eval, &frontier, &db)))
            };
            let frontier = walk().map_err(|e| format!("traced walk failed: {e}"))?;
            count_db(t, ctx, &db, (0, 0));
            self.check(&measured, &frontier)
        })
    }
}

pub fn run(env: &Env, trace: bool) -> Result<Outcome, String> {
    let (state, setup_s) = set_up(|| build_state(env))?;
    crate::reset_peak_rss()?;
    let op = || {
        let (walked, secs) = timed(|| state.walk());
        (secs, walked.and_then(|(eval, f)| state.check(&Measured::of(&eval), &f)))
    };
    if !trace {
        return Ok(Outcome::Timed { setup_s, ops: closed_loop(env.seconds, op) });
    }

    let tracer = Tracer::default();
    let mut efficiency = Vec::new();
    let (ops, traced_ops, overhead) = crate::traced_pairs(env.seconds, |ops| {
        let (walked, plain) = timed(|| state.walk());
        let (eval, frontier) = walked?;
        if efficiency.is_empty() {
            eprintln!("cross-check, EvalMetrics of the untraced build: {}", eval.metrics());
        }
        efficiency.push(crate::fanout_efficiency(eval.metrics()));
        ops.record(plain, state.check(&Measured::of(&eval), &frontier));
        let (verdict, traced) = timed(|| state.traced(&tracer, tracer.op(), &eval));
        ops.record(traced, verdict);
        Ok((plain, traced))
    })?;
    let extras = BTreeMap::from([
        ("core.fanout_efficiency", crate::stats::median(&efficiency)),
        ("trace_overhead_pct", overhead),
    ]);
    Ok(Outcome::Traced { ops, tracer, traced_ops, extras })
}
