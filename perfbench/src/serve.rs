//! `serve_warm`: two closed-loop clients over loopback TCP against an
//! in-process daemon whose three gcc sessions were built in set-up.

use crate::checks;
use crate::stats::{median, percentile_with_tail};
use crate::tracer::Tracer;
use crate::walk::{count_db, traced_heuristic, traced_walk_system, walk_and_render};
use crate::{set_up, timed, Env, Loop, Outcome};
use mhe_core::evaluator::{EvalConfig, ReferenceEvaluation};
use mhe_spacewalk::service::proto::{
    decode_request, decode_response, encode_request, encode_response, FrontierRequest, Request,
    Response,
};
use mhe_spacewalk::spec::Spec;
use mhe_spacewalk::{
    render_frontier, report_from, walker, Client, EvalService, EvaluationCache, Server,
    ServiceConfig, ServiceLimits,
};
use mhe_vliw::ProcessorKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Basic-block events of each session's gcc evaluation. A warm request
/// simulates nothing, so this sizes only the set-up.
const EVENTS: usize = 100_000;
/// Requests in one cycle of the mix, each with penalties drawn from the
/// seed: every space six times, twice with the heuristic on.
const MIX: usize = 18;
/// Untraced requests the traced run needs before it reads p90, so that at
/// least ten lie beyond it.
const TAIL_SAMPLES: usize = 110;

/// The session pool: three gcc spaces. Requests differ only in the miss
/// penalties and the heuristic flag, so each maps to one of these warm
/// sessions. Each space holds three processors (narrow, middle, wide):
/// a request recompiles once per processor, twice with the heuristic, and
/// with five the heuristic requests took about 95 ms, so the daemon's
/// 100 ms poll tick split them between two latency modes from run to run.
const SPACES: [&str; 3] = [
    // Paper-sized caches, LRU.
    "[icache]\nsizes_kb = 1 2 4 8 16\nassocs = 1 2\nline_bytes = 32\n\
     [dcache]\nsizes_kb = 1 2 4 8 16\nassocs = 1 2\nline_bytes = 32\n\
     [ucache]\nsizes_kb = 16 32 64 128\nassocs = 2 4\nline_bytes = 64\n",
    // The same caches under FIFO.
    "[icache]\nsizes_kb = 1 2 4 8 16\nassocs = 1 2\nline_bytes = 32\npolicies = fifo\n\
     [dcache]\nsizes_kb = 1 2 4 8 16\nassocs = 1 2\nline_bytes = 32\npolicies = fifo\n\
     [ucache]\nsizes_kb = 16 32 64 128\nassocs = 2 4\nline_bytes = 64\npolicies = fifo\n",
    // Two L1 line sizes and a larger L2 range.
    "[icache]\nsizes_kb = 1 4 16\nassocs = 1 2 4\nline_bytes = 16 64\n\
     [dcache]\nsizes_kb = 1 4 16\nassocs = 1 2\nline_bytes = 16 64\n\
     [ucache]\nsizes_kb = 32 128 256\nassocs = 4 8\nline_bytes = 64 128\n",
];

fn spec_text(space: usize, l1_miss: u64, l2_miss: u64) -> String {
    format!(
        "[processors]\nkinds = 1111 3221 6332\n{}\
         [eval]\nbenchmark = gcc\nevents = {EVENTS}\nl1_miss = {l1_miss}\nl2_miss = {l2_miss}\n",
        SPACES[space]
    )
}

/// splitmix64: the request mix's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    space: usize,
    l1_miss: u64,
    l2_miss: u64,
}

#[derive(Debug, Clone)]
struct Item {
    key: Key,
    heuristic: bool,
}

/// One cycle of the request mix: spaces in turn, the heuristic on for a
/// third of the requests of each space, penalties drawn from the seed.
/// Heuristic requests do twice the work of the others; were they half the
/// mix, the median request would sit on the boundary between the two
/// latency modes whenever the host slows enough to push heuristic
/// requests past the daemon's 100 ms poll tick.
fn mix(seed: u64) -> Vec<Item> {
    let mut rng = seed;
    (0..MIX)
        .map(|i| {
            let l1_miss = [8, 10, 12][(splitmix(&mut rng) % 3) as usize];
            let l2_miss = [40, 50, 60][(splitmix(&mut rng) % 3) as usize];
            Item { key: Key { space: i % 3, l1_miss, l2_miss }, heuristic: (i / 3) % 3 == 0 }
        })
        .collect()
}

fn request(item: &Item) -> FrontierRequest {
    let k = item.key;
    FrontierRequest {
        spec_text: spec_text(k.space, k.l1_miss, k.l2_miss),
        heuristic: item.heuristic,
        sampling: None,
        policies: None,
    }
}

struct State {
    service: Arc<EvalService>,
    mix: Vec<Item>,
    /// Per space: an evaluation built in process, apart from the service,
    /// and a metric cache it has warmed.
    evals: Vec<(Spec, ReferenceEvaluation, EvaluationCache)>,
    /// The in-process rendering every served response must match.
    want: BTreeMap<Key, String>,
}

fn build_state(env: &Env) -> Result<State, String> {
    let mix = mix(env.seed);
    let service = Arc::new(EvalService::with_config(ServiceConfig {
        limits: ServiceLimits { max_inflight: env.threads, max_queued: env.threads },
        // Above the pool: the eviction pass runs on every request but
        // never evicts.
        session_ttl: Some(Duration::from_secs(24 * 3600)),
        max_sessions: Some(SPACES.len() + 1),
        persist_dir: None,
    }));
    let mut evals = Vec::new();
    for space in 0..SPACES.len() {
        let item = Item { key: Key { space, l1_miss: 10, l2_miss: 50 }, heuristic: true };
        match service.respond(Request::Frontier(request(&item))) {
            Response::Frontier(_) => {}
            other => return Err(format!("warming session {space} failed: {other:?}")),
        }
        let text = spec_text(space, 10, 50);
        let spec = Spec::parse(&text).map_err(|e| format!("space {space}: {e}"))?;
        let eval = walker::prepare_evaluation(
            spec.benchmark.generate(),
            &ProcessorKind::P1111.mdes(),
            EvalConfig { events: spec.events, threads: env.threads, ..EvalConfig::default() },
            &spec.space,
        );
        let db = EvaluationCache::new();
        walk_and_render(&eval, &spec.space, spec.penalties, &db)
            .map_err(|e| format!("warming space {space} failed: {e}"))?;
        evals.push((spec, eval, db));
    }
    let mut want = BTreeMap::new();
    for item in &mix {
        if want.contains_key(&item.key) {
            continue;
        }
        let (spec, eval, db) = &evals[item.key.space];
        let text = spec_text(item.key.space, item.key.l1_miss, item.key.l2_miss);
        let penalties = Spec::parse(&text).map_err(|e| e.to_string())?.penalties;
        let frontier = walker::walk_system(eval, &spec.space, penalties, db)
            .map_err(|e| format!("reference walk failed: {e}"))?;
        want.insert(item.key, render_frontier(&report_from(eval, &frontier, db)));
    }
    Ok(State { service, mix, evals, want })
}

impl State {
    fn check(&self, item: &Item, response: Result<String, String>) -> Result<(), String> {
        checks::same_frontier(&response?, &self.want[&item.key])
    }

    /// Two clients in a closed loop for `seconds` (and until at least
    /// `min_requests` completed); with a `tracer`, each request gets a span.
    fn clients(
        &self,
        addr: &str,
        seconds: f64,
        min_requests: usize,
        tracer: Option<&Tracer>,
        threads: usize,
    ) -> Result<(Loop, u64), String> {
        let next = AtomicU64::new(0);
        let queued = AtomicU64::new(0);
        let start = Instant::now();
        let results: Vec<Result<Loop, String>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut client = Client::builder()
                            .addr(addr)
                            .connect()
                            .map_err(|e| format!("connect failed: {e}"))?;
                        let mut out = Loop::default();
                        loop {
                            let done = next.load(Ordering::Relaxed) as usize;
                            if done >= min_requests && start.elapsed().as_secs_f64() >= seconds {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                            let item = &self.mix[i % self.mix.len()];
                            if self.service.gate().occupancy().1 > 0 {
                                queued.fetch_add(1, Ordering::Relaxed);
                            }
                            let mut send = || {
                                timed(|| {
                                    client
                                        .evaluate(request(item))
                                        .map(|report| render_frontier(&report))
                                        .map_err(|e| format!("request failed: {e}"))
                                })
                            };
                            let (response, secs) = match tracer {
                                Some(t) => t.span(t.op(), "spacewalk.request", |_| send()),
                                None => send(),
                            };
                            out.record(secs, self.check(item, response));
                        }
                        out.wall_s = start.elapsed().as_secs_f64();
                        Ok(out)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
        });
        let mut total = Loop::default();
        for r in results {
            total.merge(r?);
        }
        Ok((total, queued.load(Ordering::Relaxed)))
    }

    /// One request answered in process, with spans around the protocol
    /// and service calls, then the same walk rebuilt from public pieces
    /// over this benchmark's own warm evaluation. Returns the in-process
    /// respond time and the verdict.
    fn traced(&self, t: &Tracer, item: &Item) -> (f64, Result<(), String>) {
        let op = t.op();
        t.span(op, "op", |ctx| {
            let request = Request::Frontier(request(item));
            let bytes = t.span(ctx, "proto.encode", |_| encode_request(&request));
            let decoded = t.span(ctx, "proto.decode", |_| decode_request(&bytes));
            let Ok(decoded) = decoded else {
                return (0.0, Err("request did not decode".to_string()));
            };
            let (response, secs) =
                t.span(ctx, "spacewalk.respond", |_| timed(|| self.service.respond(decoded)));
            let bytes = t.span(ctx, "proto.encode", |_| encode_response(&response));
            t.count(ctx, "spacewalk.frame_bytes", bytes.len() as f64);
            let rendered = match t.span(ctx, "proto.decode", |_| decode_response(&bytes)) {
                Ok(Response::Frontier(report)) => Ok(render_frontier(&report)),
                Ok(other) => Err(format!("unexpected response {other:?}")),
                Err(e) => Err(format!("response did not decode: {e}")),
            };
            let verdict = self.check(item, rendered);

            let (spec, eval, db) = &self.evals[item.key.space];
            let penalties =
                mhe_cache::Penalties { l1_miss: item.key.l1_miss, l2_miss: item.key.l2_miss };
            let before = db.stats();
            let walked = (|| {
                if item.heuristic {
                    traced_heuristic(t, ctx, eval, &spec.space, db)?;
                }
                traced_walk_system(t, ctx, eval, &spec.space, penalties, db)
            })();
            count_db(t, ctx, db, before);
            let verdict =
                verdict.and(walked.map_err(|e| format!("traced walk failed: {e}")).and_then(|f| {
                    checks::same_frontier(
                        &render_frontier(&report_from(eval, &f, db)),
                        &self.want[&item.key],
                    )
                }));
            (secs, verdict)
        })
    }
}

/// Runs the daemon on an ephemeral loopback port for the duration of `f`.
fn with_server<R>(service: &Arc<EvalService>, f: impl FnOnce(&str) -> R) -> Result<R, String> {
    let server = Server::bind("127.0.0.1:0", Arc::clone(service))
        .map_err(|e| format!("bind failed: {e}"))?
        .with_auth_token(None);
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let drain = server.drain_handle();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let out = f(&addr);
        drain.store(true, Ordering::SeqCst);
        match handle.join() {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    })
}

pub fn run(env: &Env, trace: bool) -> Result<Outcome, String> {
    let (state, setup_s) = set_up(|| build_state(env))?;
    crate::reset_peak_rss()?;
    if !trace {
        let ops = with_server(&state.service, |addr| {
            state.clients(addr, env.seconds, 1, None, env.threads)
        })??;
        return Ok(Outcome::Timed { setup_s, ops: ops.0 });
    }

    // Traced run: the untraced client loop (p90 and the overhead base),
    // the same loop with a span per request, then in-process requests
    // for the layer breakdown, each a share of the run.
    let tracer = Tracer::default();
    let (plain, traced_tcp, queued) = with_server(&state.service, |addr| {
        let (plain, _) = state.clients(addr, env.seconds * 0.4, TAIL_SAMPLES, None, env.threads)?;
        let (traced, queued) =
            state.clients(addr, env.seconds * 0.3, 1, Some(&tracer), env.threads)?;
        Ok::<_, String>((plain, traced, queued))
    })??;
    let mut ops = Loop::default();
    let mut respond = Vec::new();
    let start = Instant::now();
    while respond.is_empty() || start.elapsed().as_secs_f64() < env.seconds * 0.3 {
        for item in &state.mix {
            let (secs, verdict) = state.traced(&tracer, item);
            ops.record(secs, verdict);
            respond.push(secs);
        }
    }
    let tcp = tracer.durations("spacewalk.request");
    let overhead = crate::overhead_pct(&plain.latencies_s, &tcp);
    let p90 = percentile_with_tail(&plain.latencies_s, 90.0)
        .ok_or("too few untraced requests for a p90")?;
    let requests = respond.len() as f64;
    let self_s = tracer.self_seconds();
    let per_request_us = |span: &str| self_s.get(span).copied().unwrap_or(0.0) / requests * 1e6;
    let extras = BTreeMap::from([
        ("spacewalk.respond_ms", median(&respond) * 1e3),
        ("spacewalk.server_wait_ms", (median(&tcp) - median(&respond)) * 1e3),
        ("spacewalk.proto_encode_us", per_request_us("proto.encode")),
        ("spacewalk.proto_decode_us", per_request_us("proto.decode")),
        ("spacewalk.frame_bytes", tracer.count_totals()["spacewalk.frame_bytes"] / requests),
        ("spacewalk.admission_queued", queued as f64 / tcp.len().max(1) as f64),
        ("request_p90_ms", p90 * 1e3),
        ("trace_overhead_pct", overhead),
    ]);
    ops.merge(plain);
    ops.merge(traced_tcp);
    Ok(Outcome::Traced { ops, tracer, traced_ops: respond.len() as u64, extras })
}
