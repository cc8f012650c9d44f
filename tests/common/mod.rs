//! Shared setup for the integration-test suites.
//!
//! The policy-differential, sampling-accuracy, and daemon suites all
//! start from the same ingredients — a reference instruction trace, a
//! configured evaluation, a small walkable spec — and diverged copies of
//! that setup are exactly how differential harnesses drift apart. Each
//! helper lives here once; each suite binds its own constants (events,
//! grids, budgets) and passes them in.

// Each integration test is its own crate, so no single suite uses every
// helper here.
#![allow(dead_code)]

use mhe::cache::SinglePassSim;
use mhe::core::icache::estimate_icache_misses;
use mhe::core::ucache::estimate_ucache_misses;
use mhe::model::{ITraceModeler, TraceParams, UTraceModeler, UnifiedParams};
use mhe::prelude::*;
use mhe::trace::{StreamKind, TraceGenerator};
use mhe::vliw::compile::Compiled;
use mhe::workload::BlockFrequencies;
use std::collections::HashMap;

/// The workspace-wide deterministic seed (`EvalConfig::default().seed`).
pub const SEED: u64 = 0xC0FF_EE01;

/// The reference instruction-address trace of `b` on the P1111 reference
/// processor: `events` scheduler events, default seed.
pub fn instruction_trace(b: Benchmark, events: usize) -> Vec<u64> {
    let program = b.generate();
    let compiled = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
    TraceGenerator::new(&program, &compiled, SEED)
        .stream(StreamKind::Instruction)
        .take(events)
        .map(|a| a.addr)
        .collect()
}

/// Builds one reference evaluation of `b` under `policy`, sampled or
/// exact, over the caller's (icache, dcache, ucache) grids.
pub fn build_eval(
    b: Benchmark,
    policy: Policy,
    threads: usize,
    events: usize,
    sampling: Option<SamplingConfig>,
    grids: (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>),
) -> ReferenceEvaluation {
    let (ic, dc, uc) = grids;
    let mut builder = EvalConfig::builder().events(events).threads(threads).policy(policy);
    if let Some(s) = sampling {
        builder = builder.sampling(s);
    }
    let cfg = builder.build().expect("harness config is valid");
    ReferenceEvaluation::for_benchmark(b, &ProcessorKind::P1111.mdes(), cfg, &ic, &dc, &uc)
}

/// A small but non-trivial walkable spec: two processors, two sizes and
/// two associativities of I$, split/unified caches — enough structure
/// for a multi-row frontier while staying debug-build fast.
pub fn demo_spec_text(benchmark: &str, events: usize) -> String {
    format!(
        "[processors]\n\
         kinds = 1111 3221\n\
         \n\
         [icache]\n\
         sizes_kb = 1 4\n\
         assocs = 1 2\n\
         line_bytes = 32\n\
         ports = 1\n\
         \n\
         [dcache]\n\
         sizes_kb = 1 4\n\
         assocs = 1\n\
         line_bytes = 32\n\
         ports = 1\n\
         \n\
         [ucache]\n\
         sizes_kb = 16 64\n\
         assocs = 2\n\
         line_bytes = 64\n\
         ports = 1\n\
         \n\
         [eval]\n\
         benchmark = {benchmark}\n\
         events = {events}\n\
         l1_miss = 10\n\
         l2_miss = 50\n"
    )
}

/// A serial reference for the measurement pipeline, independent of it:
/// the generated reference trace collected in memory, then the two AHH
/// modelers and one single-pass simulator per (stream, line size, policy)
/// family run over it one after another, with no chunking, worker pool
/// or trace source.
pub struct Oracle {
    pub config: EvalConfig,
    pub trace: Vec<Access>,
    pub iparams: TraceParams,
    pub uparams: UnifiedParams,
    pub imeasured: HashMap<CacheConfig, u64>,
    pub dmeasured: HashMap<CacheConfig, u64>,
    pub umeasured: HashMap<CacheConfig, u64>,
}

impl Oracle {
    /// Measures `program` on the P1111 reference, as the evaluator does.
    pub fn new(program: &Program, config: EvalConfig, grids: &[Vec<CacheConfig>; 3]) -> Self {
        let freq = BlockFrequencies::profile(program, config.seed, 200_000);
        let reference = Compiled::build(program, &ProcessorKind::P1111.mdes(), Some(&freq));
        let trace: Vec<Access> = TraceGenerator::new(program, &reference, config.seed)
            .with_event_limit(config.events)
            .collect();
        let mut imodel = ITraceModeler::new(config.i_granule);
        let mut umodel = UTraceModeler::new(config.u_granule);
        for &a in &trace {
            if StreamKind::Instruction.admits(a.kind) {
                imodel.process(a.addr);
            }
            umodel.process(a);
        }
        // Dilation needs every power-of-two line from L down to
        // L / max_dilation, and 2L for targets denser than the reference.
        let expanded: Vec<CacheConfig> = grids[0]
            .iter()
            .flat_map(|&c| {
                let min = (f64::from(c.line_words) / config.max_dilation).floor().max(1.0) as u32;
                std::iter::successors(Some(c.line_words), move |&l| (l > min).then_some(l / 2))
                    .chain([c.line_words * 2])
                    .map(move |l| c.with_line_words(l))
            })
            .collect();
        let simulate = |kind: StreamKind, configs: &[CacheConfig]| {
            let mut out = HashMap::new();
            for c in configs {
                if out.contains_key(c) {
                    continue;
                }
                let family: Vec<CacheConfig> = configs
                    .iter()
                    .copied()
                    .filter(|f| (f.line_words, f.policy) == (c.line_words, c.policy))
                    .collect();
                let mut sim = SinglePassSim::for_configs(&family);
                sim.run(trace.iter().filter(|a| kind.admits(a.kind)).map(|a| a.addr));
                out.extend(family.iter().map(|&f| (f, sim.misses(f.sets, f.assoc))));
            }
            out
        };
        Self {
            config,
            iparams: imodel.finish(),
            uparams: umodel.finish(),
            imeasured: simulate(StreamKind::Instruction, &expanded),
            dmeasured: simulate(StreamKind::Data, &grids[1]),
            umeasured: simulate(StreamKind::Unified, &grids[2]),
            trace,
        }
    }

    /// Asserts `eval` measured exactly what the oracle did: equal miss
    /// maps, and dilated estimates equal to the last bit.
    pub fn assert_matches(
        &self,
        eval: &ReferenceEvaluation,
        grids: &[Vec<CacheConfig>; 3],
        tag: &str,
    ) {
        assert_eq!(eval.imeasured(), &self.imeasured, "imeasured {tag}");
        assert_eq!(eval.dmeasured(), &self.dmeasured, "dmeasured {tag}");
        assert_eq!(eval.umeasured(), &self.umeasured, "umeasured {tag}");
        let model = self.config.model;
        for d in [1.0, 1.6, 2.0, 3.0] {
            for &c in &grids[0] {
                let table = |cfg: CacheConfig| self.imeasured.get(&cfg).copied();
                let want = estimate_icache_misses(&self.iparams, &table, c, d, model).unwrap();
                let got = eval.estimate_icache_misses(c, d).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "icache {c} @ d={d} {tag}");
            }
            for &c in &grids[2] {
                let want = estimate_ucache_misses(&self.uparams, self.umeasured[&c], c, d, model);
                let got = eval.estimate_ucache_misses(c, d).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "ucache {c} @ d={d} {tag}");
            }
        }
    }
}
