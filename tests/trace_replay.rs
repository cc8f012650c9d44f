//! Differential test: every way of feeding the measurement pipeline
//! reproduces an independent serial oracle bit for bit.
//!
//! The oracle (`common::Oracle`) collects the generated reference trace
//! and runs the AHH modelers and one single-pass simulator per family over
//! it one after another. Each trace source the evaluator accepts — the
//! generator (`build`), an in-memory stream (`build_from_trace`), and
//! captured `.mtr` and `din` files (`replay_file`) — must agree with it
//! exactly at any worker count and chunk size: identical measured miss
//! maps and bit-identical dilated estimates. The binary capture must also
//! be at least 4x smaller than the equivalent `din` text.

mod common;

use common::Oracle;
use mhe::prelude::*;
use mhe::trace::codec::write_mtr;
use mhe::trace::io::write_din;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

const EVENTS: usize = 10_000;

fn grids() -> [Vec<CacheConfig>; 3] {
    [
        vec![CacheConfig::from_bytes(1024, 1, 32), CacheConfig::from_bytes(16 * 1024, 2, 32)],
        vec![CacheConfig::from_bytes(1024, 1, 32)],
        vec![CacheConfig::from_bytes(16 * 1024, 2, 64)],
    ]
}

fn config(threads: usize, chunk_accesses: usize) -> EvalConfig {
    EvalConfig { events: EVENTS, threads, chunk_accesses, ..EvalConfig::default() }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mhe_replay_test_{}_{name}", std::process::id()))
}

fn build(b: Benchmark, cfg: EvalConfig) -> ReferenceEvaluation {
    let [ic, dc, uc] = grids();
    ReferenceEvaluation::build(b.generate(), &ProcessorKind::P1111.mdes(), cfg, &ic, &dc, &uc)
}

fn build_from_trace(b: Benchmark, cfg: EvalConfig, trace: &[Access]) -> ReferenceEvaluation {
    let [ic, dc, uc] = grids();
    ReferenceEvaluation::build_from_trace(
        b.generate(),
        &ProcessorKind::P1111.mdes(),
        cfg,
        trace.iter().copied(),
        &ic,
        &dc,
        &uc,
    )
}

fn replay(b: Benchmark, cfg: EvalConfig, path: &PathBuf) -> ReferenceEvaluation {
    let [ic, dc, uc] = grids();
    ReferenceEvaluation::replay_file(
        b.generate(),
        &ProcessorKind::P1111.mdes(),
        cfg,
        path,
        &ic,
        &dc,
        &uc,
    )
    .unwrap()
}

#[test]
fn mtr_replay_is_bit_identical_for_every_benchmark() {
    for b in Benchmark::ALL {
        let name = b.name();
        let oracle = Oracle::new(&b.generate(), config(1, 1 << 16), &grids());
        oracle.assert_matches(&build(b, config(1, 1 << 16)), &grids(), &format!("[{name} build]"));
        let path = temp_path(&format!("{}.mtr", name.replace('.', "_")));
        let stats =
            write_mtr(BufWriter::new(File::create(&path).unwrap()), oracle.trace.iter().copied())
                .unwrap();
        assert_eq!(stats.accesses, oracle.trace.len() as u64, "{name}: captured whole trace");
        assert!(
            stats.compression_ratio() >= 4.0,
            "{name}: .mtr only {:.2}x smaller than din",
            stats.compression_ratio()
        );
        for threads in [1, 8] {
            let rep = replay(b, config(threads, 1 << 16), &path);
            oracle.assert_matches(&rep, &grids(), &format!("[{name} mtr @ {threads} threads]"));
            let replay = rep.metrics().replay.expect("file replay records metrics");
            assert_eq!(replay.accesses, oracle.trace.len() as u64, "{name}");
            assert_eq!(replay.bytes_read, stats.bytes, "{name}");
            assert!(replay.chunks > 0, "{name}");
            assert!(
                replay.compression_ratio() >= 4.0,
                "{name}: replay reports {:.2}x",
                replay.compression_ratio()
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn din_replay_matches_and_chunk_size_is_invisible() {
    let b = Benchmark::Unepic;
    let oracle = Oracle::new(&b.generate(), config(1, 1 << 16), &grids());
    let path = temp_path("unepic.din");
    write_din(File::create(&path).unwrap(), oracle.trace.iter().copied()).unwrap();
    // A prime chunk size exercises ragged frame boundaries; the default
    // must give the same bits.
    for chunk_accesses in [977, 1 << 16] {
        let rep = replay(b, config(2, chunk_accesses), &path);
        oracle.assert_matches(&rep, &grids(), &format!("[din chunk={chunk_accesses}]"));
        let replay = rep.metrics().replay.expect("file replay records metrics");
        // din is the uncompressed baseline, so its ratio is exactly 1.
        assert_eq!(replay.bytes_read, replay.din_bytes);
        assert_eq!(replay.accesses, oracle.trace.len() as u64);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_source_matches_the_serial_oracle_at_any_threads_and_chunking() {
    for b in [Benchmark::Unepic, Benchmark::Gcc] {
        let oracle = Oracle::new(&b.generate(), config(1, 1 << 16), &grids());
        let mtr = temp_path(&format!("every_{}.mtr", b.name().replace('.', "_")));
        let din = temp_path(&format!("every_{}.din", b.name().replace('.', "_")));
        write_mtr(BufWriter::new(File::create(&mtr).unwrap()), oracle.trace.iter().copied())
            .unwrap();
        write_din(File::create(&din).unwrap(), oracle.trace.iter().copied()).unwrap();
        for threads in [1, 2, 8] {
            for chunk in [977, 1 << 16] {
                let cfg = config(threads, chunk);
                let tag = |source: &str| {
                    format!("[{} {source} @ {threads} threads, chunk {chunk}]", b.name())
                };
                oracle.assert_matches(&build(b, cfg), &grids(), &tag("build"));
                oracle.assert_matches(
                    &build_from_trace(b, cfg, &oracle.trace),
                    &grids(),
                    &tag("stream"),
                );
                oracle.assert_matches(&replay(b, cfg, &mtr), &grids(), &tag("mtr"));
                oracle.assert_matches(&replay(b, cfg, &din), &grids(), &tag("din"));
            }
        }
        std::fs::remove_file(&mtr).ok();
        std::fs::remove_file(&din).ok();
    }
}
