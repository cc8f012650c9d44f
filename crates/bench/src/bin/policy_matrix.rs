//! Per-policy simulation throughput: accesses/second for each
//! replacement policy, on both the direct oracle and the single-pass
//! engine that backs the evaluator.
//!
//! LRU and FIFO are single-pass native (one stack/insertion-ring pass answers
//! every associativity at once); PLRU and random fall back to an embedded
//! grid of per-configuration direct simulations inside the same pass.
//! This matrix makes the cost of each row visible — and sanity-checks
//! that both engines agree on the miss count before printing it, so a
//! throughput number for a wrong simulator can never be reported.
//!
//! `MHE_EVENTS` bounds the trace length (default from `mhe_bench`).

use mhe_bench::SEED;
use mhe_cache::{Cache, CacheConfig, Policy, SinglePassSim};
use mhe_trace::{StreamKind, TraceGenerator};
use mhe_vliw::compile::Compiled;
use mhe_vliw::ProcessorKind;
use mhe_workload::Benchmark;
use std::time::Instant;

const SET_COUNTS: [u32; 3] = [16, 64, 256];
const MAX_ASSOC: u32 = 4;
const LINE_WORDS: u32 = 8;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    mhe_bench::obs_from_args(&mut args);
    let events = mhe_bench::events();

    let program = Benchmark::Epic.generate();
    let compiled = Compiled::build(&program, &ProcessorKind::P1111.mdes(), None);
    let trace: Vec<u64> = TraceGenerator::new(&program, &compiled, SEED)
        .stream(StreamKind::Instruction)
        .take(events)
        .map(|a| a.addr)
        .collect();
    let grid_points = SET_COUNTS.len() as u64 * u64::from(MAX_ASSOC);
    println!(
        "# Policy matrix (epic, {} accesses, {} sets x assoc 1..={MAX_ASSOC} grid)\n",
        trace.len(),
        SET_COUNTS.len()
    );
    println!(
        "{:<16} {:>6} {:>14} {:>16} {:>12}",
        "policy", "path", "oracle acc/s", "one-pass acc/s", "misses(64,2)"
    );

    for policy in Policy::all() {
        // Direct oracle: one representative configuration.
        let cfg = CacheConfig::new(64, 2, LINE_WORDS).with_policy(policy);
        let start = Instant::now();
        let oracle = Cache::new(cfg).run(trace.iter().copied());
        let oracle_rate = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);

        // Single-pass engine: the whole grid in one pass. Rate counts
        // trace accesses, not grid points — the grid is the payoff.
        let start = Instant::now();
        let mut sim = SinglePassSim::new_with_policy(policy, LINE_WORDS, &SET_COUNTS, MAX_ASSOC);
        sim.run(trace.iter().copied());
        let sp_rate = trace.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);

        let sp_misses = sim.misses(64, 2);
        assert_eq!(
            sp_misses, oracle.misses,
            "{policy}: engines disagree — throughput for a wrong simulator is meaningless"
        );
        let path = if policy.single_pass_native() { "1pass" } else { "grid" };
        println!(
            "{:<16} {:>6} {:>14.0} {:>16.0} {:>12}",
            policy.to_string(),
            path,
            oracle_rate,
            sp_rate,
            sp_misses
        );
    }
    println!(
        "\nThe one-pass column answers all {grid_points} grid configurations at once; \
         native rows (lru, fifo) amortize, fallback rows (plru, random) pay per lane."
    );
}
