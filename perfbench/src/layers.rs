//! The measurement pipeline driven layer by layer from outside the
//! program, for the traced run.
//!
//! `ReferenceEvaluation::{build, replay_file}` fan a trace out to the AHH
//! modelers and one single-pass simulator per (stream, line size, policy)
//! family. Here the benchmark makes the same calls into `mhe-trace`,
//! `mhe-model`, `mhe-cache` and `mhe-sampling` itself, with a span around
//! each, over the same `ParallelSweep` pool. The traced results are
//! checked bit-identical to the library's, which keeps this mirror honest.

use crate::checks::Measured;
use crate::tracer::{Ctx, Tracer};
use mhe_cache::{CacheConfig, Policy, SinglePassSim};
use mhe_core::evaluator::EvalConfig;
use mhe_core::{ParallelSweep, RetryPolicy};
use mhe_model::{ITraceModeler, UTraceModeler};
use mhe_sampling::{SamplePlanner, SampledSim, SamplingConfig, WindowExtractor};
use mhe_trace::{Access, StreamKind};
use std::collections::BTreeMap;

/// The cache configurations one evaluation measures, per stream.
#[derive(Debug, Clone)]
pub struct Grids {
    pub icaches: Vec<CacheConfig>,
    pub dcaches: Vec<CacheConfig>,
    pub ucaches: Vec<CacheConfig>,
}

impl Grids {
    /// Every (stream, family) the evaluation simulates: instruction
    /// configurations gain the neighbouring line sizes that dilation
    /// interpolation needs, as the evaluator's own expansion does.
    fn families(&self, max_dilation: f64) -> Vec<(StreamKind, Vec<CacheConfig>)> {
        let mut out = Vec::new();
        for (kind, configs) in [
            (StreamKind::Instruction, expand_line_sizes(&self.icaches, max_dilation)),
            (StreamKind::Data, self.dcaches.clone()),
            (StreamKind::Unified, self.ucaches.clone()),
        ] {
            let mut by_family: BTreeMap<(u32, Policy), Vec<CacheConfig>> = BTreeMap::new();
            for c in configs {
                by_family.entry((c.line_words, c.policy)).or_default().push(c);
            }
            out.extend(by_family.into_values().map(|group| (kind, group)));
        }
        out
    }
}

/// For every instruction-cache configuration, the smaller power-of-two
/// line sizes down to `L / max_dilation` and one size up.
fn expand_line_sizes(configs: &[CacheConfig], max_dilation: f64) -> Vec<CacheConfig> {
    let mut out = Vec::new();
    for &c in configs {
        let min_line = (f64::from(c.line_words) / max_dilation).floor().max(1.0) as u32;
        let mut l = c.line_words;
        loop {
            out.push(c.with_line_words(l));
            if l <= min_line || l == 1 {
                break;
            }
            l /= 2;
        }
        out.push(c.with_line_words(c.line_words * 2));
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn sim_span(policy: Policy) -> &'static str {
    match policy {
        Policy::Lru => "cache.sim_lru",
        Policy::Fifo => "cache.sim_fifo",
        _ => "cache.sim_other",
    }
}

/// One stateful unit of the exact fan-out, fed a chunk at a time.
enum Task {
    IModel(ITraceModeler),
    UModel(UTraceModeler),
    Sim { kind: StreamKind, sim: SinglePassSim, configs: Vec<CacheConfig> },
    Plan(Box<SamplePlanner>),
}

impl Task {
    fn feed(&mut self, t: &Tracer, ctx: Ctx, chunk: &[Access]) {
        match self {
            Task::IModel(m) => t.span(ctx, "model", |ctx| {
                let mut n = 0u64;
                for a in chunk.iter().filter(|a| StreamKind::Instruction.admits(a.kind)) {
                    m.process(a.addr);
                    n += 1;
                }
                t.count(ctx, "model.accesses", n as f64);
            }),
            Task::UModel(m) => t.span(ctx, "model", |ctx| {
                for &a in chunk {
                    m.process(a);
                }
                t.count(ctx, "model.accesses", chunk.len() as f64);
            }),
            Task::Sim { kind, sim, configs } => t.span(ctx, sim_span(configs[0].policy), |ctx| {
                let before = sim.accesses();
                sim.run_stream(*kind, chunk.iter().copied());
                t.count(ctx, "cache.family_accesses", (sim.accesses() - before) as f64);
            }),
            Task::Plan(p) => t.span(ctx, "sampling.plan", |_| p.feed(chunk)),
        }
    }
}

fn stream_map(m: &mut Measured, kind: StreamKind) -> &mut BTreeMap<CacheConfig, u64> {
    match kind {
        StreamKind::Instruction => &mut m.imeasured,
        StreamKind::Data => &mut m.dmeasured,
        StreamKind::Unified => &mut m.umeasured,
    }
}

fn empty_measured(iparams: mhe_model::TraceParams, uparams: mhe_model::UnifiedParams) -> Measured {
    Measured {
        imeasured: BTreeMap::new(),
        dmeasured: BTreeMap::new(),
        umeasured: BTreeMap::new(),
        iparams,
        uparams,
    }
}

/// The worker pool, without retries: the tasks are stateful, so a retried
/// task could see a chunk twice (the evaluator's own fan-out does the same).
fn stateful_sweep(config: &EvalConfig) -> ParallelSweep {
    ParallelSweep::with_threads(config.worker_threads()).with_retry(RetryPolicy::NONE)
}

/// Feeds every chunk `next_chunk` yields to every task, one pool round
/// per chunk.
fn feed_all(
    t: &Tracer,
    ctx: Ctx,
    sweep: &ParallelSweep,
    tasks: &mut [Task],
    next_chunk: &mut dyn FnMut(Ctx) -> Option<Vec<Access>>,
) {
    while let Some(chunk) = next_chunk(ctx) {
        t.span(ctx, "core.fanout", |ctx| {
            sweep.for_each_mut(tasks, |task| task.feed(t, ctx, &chunk))
        });
    }
}

/// Exact measurement: the modelers and one simulator per family, fed
/// every chunk.
pub fn measure_exact(
    t: &Tracer,
    ctx: Ctx,
    config: &EvalConfig,
    grids: &Grids,
    next_chunk: &mut dyn FnMut(Ctx) -> Option<Vec<Access>>,
) -> Measured {
    let mut tasks = vec![
        Task::IModel(ITraceModeler::new(config.i_granule)),
        Task::UModel(UTraceModeler::new(config.u_granule)),
    ];
    for (kind, configs) in grids.families(config.max_dilation) {
        t.count(ctx, "cache.families", 1.0);
        tasks.push(Task::Sim { kind, sim: SinglePassSim::for_configs(&configs), configs });
    }
    let sweep = stateful_sweep(config);
    feed_all(t, ctx, &sweep, &mut tasks, next_chunk);

    let (mut iparams, mut uparams, mut sims) = (None, None, Vec::new());
    for task in tasks {
        match task {
            Task::IModel(m) => iparams = Some(t.span(ctx, "model", |_| m.finish())),
            Task::UModel(m) => uparams = Some(t.span(ctx, "model", |_| m.finish())),
            Task::Sim { kind, sim, configs } => sims.push((kind, sim, configs)),
            Task::Plan(_) => unreachable!("the exact pipeline plans no samples"),
        }
    }
    let mut out = empty_measured(
        iparams.expect("instruction modeler ran"),
        uparams.expect("unified modeler ran"),
    );
    for (kind, sim, configs) in sims {
        stream_map(&mut out, kind)
            .extend(configs.iter().map(|&c| (c, sim.misses(c.sets, c.assoc))));
    }
    out
}

/// Interval-sampled measurement: pass A feeds the exact modelers and the
/// planner, pass B extracts the representative windows, then one
/// `SampledSim` per family runs over them.
pub fn measure_sampled(
    t: &Tracer,
    ctx: Ctx,
    config: &EvalConfig,
    sampling: SamplingConfig,
    grids: &Grids,
    pass_a: &mut dyn FnMut(Ctx) -> Option<Vec<Access>>,
    pass_b: &mut dyn FnMut(Ctx) -> Option<Vec<Access>>,
) -> Measured {
    let mut tasks = vec![
        Task::IModel(ITraceModeler::new(config.i_granule)),
        Task::UModel(UTraceModeler::new(config.u_granule)),
        Task::Plan(Box::new(SamplePlanner::new(sampling))),
    ];
    let sweep = stateful_sweep(config);
    feed_all(t, ctx, &sweep, &mut tasks, pass_a);
    let (mut iparams, mut uparams, mut plan) = (None, None, None);
    for task in tasks {
        match task {
            Task::IModel(m) => iparams = Some(t.span(ctx, "model", |_| m.finish())),
            Task::UModel(m) => uparams = Some(t.span(ctx, "model", |_| m.finish())),
            Task::Plan(p) => plan = Some(t.span(ctx, "sampling.plan", |_| p.finish())),
            Task::Sim { .. } => unreachable!("pass A runs no simulators"),
        }
    }
    let plan = plan.expect("planner ran");
    t.count(ctx, "sampling.intervals", plan.intervals().len() as f64);
    t.count(ctx, "sampling.clusters", plan.clusters().len() as f64);
    t.count(ctx, "sampling.representative_accesses", plan.representative_accesses() as f64);
    t.count(ctx, "sampling.total_accesses", plan.total_accesses() as f64);

    let mut extractor = WindowExtractor::new(&plan);
    while let Some(chunk) = pass_b(ctx) {
        t.span(ctx, "sampling.extract", |_| extractor.feed(&chunk));
    }
    let windows = t.span(ctx, "sampling.extract", |_| extractor.finish());

    let families = grids.families(config.max_dilation);
    let results = t.span(ctx, "core.fanout", |ctx| {
        sweep.map(families, |(kind, configs)| {
            t.span(ctx, "sampling.sim", |_| {
                let mut sets: Vec<u32> = configs.iter().map(|c| c.sets).collect();
                sets.sort_unstable();
                sets.dedup();
                let max_assoc = configs.iter().map(|c| c.assoc).max().unwrap_or(1);
                let (line, policy) = (configs[0].line_words, configs[0].policy);
                let sim =
                    SampledSim::measure(policy, line, &sets, max_assoc, kind, &plan, &windows);
                let rows: Vec<(CacheConfig, u64)> =
                    configs.iter().map(|&c| (c, sim.misses(c.sets, c.assoc))).collect();
                (kind, rows)
            })
        })
    });
    let mut out = empty_measured(
        iparams.expect("instruction modeler ran"),
        uparams.expect("unified modeler ran"),
    );
    for (kind, rows) in results {
        stream_map(&mut out, kind).extend(rows);
    }
    out
}
