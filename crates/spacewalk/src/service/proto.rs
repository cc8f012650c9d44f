//! The daemon wire protocol: length-prefixed binary frames.
//!
//! One request or response per frame. A frame is a little-endian `u32`
//! payload length followed by that many payload bytes; payloads are
//! hand-rolled tagged binary (varint-free: fixed-width little-endian
//! integers, `f64`s as raw bits so every float round-trips bit-exactly —
//! the same discipline as the cache database format). On connect the
//! server sends a 12-byte handshake (magic `MHES` + version + feature
//! bits) before any frame, and the client answers with its own 12 bytes,
//! so a client talking to the wrong port fails immediately and loudly
//! instead of hanging on a length prefix that never comes, and a version
//! skew is a *structured* rejection on both sides rather than a frame
//! error (see [`Handshake`]).
//!
//! The protocol is deliberately local: it carries the *spec text* of a
//! walk, not paths, so the daemon never touches the client's filesystem,
//! and frontier rows carry full design identities plus `f64` bit
//! patterns, so a client can render output byte-identical to a batch run.
//!
//! Version 2 added the handshake feature word and the fleet frames
//! ([`WorkerFrame`]/[`CoordFrame`]) that carry sharded work assignments
//! and streamed `(MetricKey, f64)` evaluation points between a
//! distributed-walk coordinator and its workers.
//!
//! Version 3 added cooperative cancellation ([`Request::Cancel`]), the
//! shared-token authentication exchange ([`Response::AuthChallenge`] /
//! [`Request::Auth`] on the daemon port, [`CoordFrame::AuthChallenge`] /
//! [`WorkerFrame::Auth`] / [`CoordFrame::Denied`] on the fleet port,
//! gated by [`FEATURE_AUTH`]), and a wider [`StatsReport`] carrying
//! session-eviction counters plus the server's protocol version,
//! negotiated feature bits, and build identifier. Frame writes also
//! consult [`mhe_core::fault::next_frame_fate`], so a deterministic
//! chaos plan can drop, duplicate, truncate, or delay exact frames.

use crate::cache_db::{self, MetricKey};
use crate::cost::CacheDesign;
use mhe_cache::{CacheConfig, Policy};
use mhe_core::metrics::SamplingMetrics;
use mhe_core::SamplingConfig;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Handshake magic both sides emit on every fresh connection.
pub const MAGIC: [u8; 4] = *b"MHES";
/// Protocol version, bumped on any incompatible frame-layout change.
/// Version 2: 12-byte handshake with a feature word, fleet frames.
/// Version 3: cancellation, token auth, widened [`StatsReport`].
pub const VERSION: u32 = 3;
/// Feature bit: the peer answers [`Request`] frames (frontier RPC).
pub const FEATURE_FRONTIER: u32 = 1 << 0;
/// Feature bit: the peer coordinates fleet workers ([`WorkerFrame`]s).
pub const FEATURE_FLEET: u32 = 1 << 1;
/// Feature bit: the peer requires the shared-token challenge/response
/// exchange before serving any request (see [`mhe_core::auth`]).
pub const FEATURE_AUTH: u32 = 1 << 2;
/// Upper bound on a single frame's payload; anything larger is treated as
/// stream corruption rather than an allocation request.
pub const MAX_FRAME: usize = 16 << 20;

/// A design-point query: one full spacewalk over a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRequest {
    /// The design-space specification, verbatim spec-file text (parsed
    /// server-side by [`crate::spec::Spec::parse`]).
    pub spec_text: String,
    /// Run the heuristic per-cache prewarm before the full walk
    /// (`spacewalker --heuristic`).
    pub heuristic: bool,
    /// Route the reference evaluation through interval sampling
    /// (`spacewalker --sample`).
    pub sampling: Option<SamplingConfig>,
    /// Override every cache space's replacement-policy dimension
    /// (`spacewalker --policy`).
    pub policies: Option<Vec<Policy>>,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Evaluate a full Pareto frontier.
    Frontier(FrontierRequest),
    /// Service counters (sessions, cache traffic).
    Stats,
    /// Cancel the in-flight [`Request::Frontier`] on this connection.
    /// The server answers the *frontier* with a code-7 error once the
    /// sweep reaches a task boundary; `Cancel` itself gets no reply.
    Cancel,
    /// Answer to [`Response::AuthChallenge`]: the HMAC-SHA-256 proof of
    /// the shared token over the server's nonce.
    Auth {
        /// `HMAC-SHA256(token, nonce)` (see [`mhe_core::auth::proof`]).
        proof: [u8; 32],
    },
}

/// One frontier design, with cost/time carried as exact `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRow {
    /// Processor (machine description) name.
    pub processor: String,
    /// Instruction-cache design.
    pub icache: CacheDesign,
    /// Data-cache design.
    pub dcache: CacheDesign,
    /// Unified-cache design.
    pub ucache: CacheDesign,
    /// System cost (area units).
    pub cost: f64,
    /// Execution time (cycles).
    pub time: f64,
}

/// A served frontier: everything a client needs to render output
/// byte-identical to an in-process batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierReport {
    /// Sampling provenance when the evaluation was interval-sampled.
    pub sampling: Option<SamplingMetrics>,
    /// Frontier designs in increasing-cost order.
    pub rows: Vec<FrontierRow>,
    /// Evaluation-cache hits accumulated by the serving session's cache.
    pub hits: u64,
    /// Evaluation-cache computes accumulated by the serving session's
    /// cache.
    pub computes: u64,
}

/// Service counters and server identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Warm evaluation sessions currently held.
    pub sessions: u64,
    /// Metric entries across all shared caches.
    pub entries: u64,
    /// Cache hits across all shared caches.
    pub hits: u64,
    /// Cache computes across all shared caches.
    pub computes: u64,
    /// Sessions evicted so far by the TTL/LRU bound.
    pub evictions: u64,
    /// The server's protocol version (matches the handshake).
    pub version: u32,
    /// The feature bits the server announced on this connection.
    pub features: u32,
    /// Server build identifier (crate version string).
    pub build: String,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// The evaluated frontier.
    Frontier(FrontierReport),
    /// Admission control turned the request away (queue full). The
    /// request was not started; retrying later is safe.
    Rejected {
        /// Human-readable backpressure diagnostic.
        reason: String,
    },
    /// The request ran and failed.
    Error {
        /// The exit code a CLI would have used (see [`mhe_core::error`]).
        code: u8,
        /// The rendered error.
        message: String,
    },
    /// Service counters.
    Stats(StatsReport),
    /// First frame from a token-bearing server (before any request is
    /// answered): prove knowledge of the shared token with
    /// [`Request::Auth`] or be turned away with a code-6 error.
    AuthChallenge {
        /// Fresh per-connection nonce to HMAC the token over.
        nonce: [u8; 16],
    },
}

// --- handshake -----------------------------------------------------------

/// Byte length of the version-2 handshake each side writes on connect.
pub const HANDSHAKE_LEN: usize = 12;

/// A decoded handshake: what the peer announced about itself.
///
/// Wire layout (12 bytes, pinned by a golden test): 4 magic bytes
/// `MHES`, then the protocol version as a little-endian `u32`, then the
/// feature bits as a little-endian `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// The peer's protocol version.
    pub version: u32,
    /// The peer's advertised [`FEATURE_FRONTIER`]/[`FEATURE_FLEET`] bits.
    pub features: u32,
}

impl Handshake {
    /// Encodes this side's announcement.
    pub fn encode(self) -> [u8; HANDSHAKE_LEN] {
        let mut h = [0u8; HANDSHAKE_LEN];
        h[..4].copy_from_slice(&MAGIC);
        h[4..8].copy_from_slice(&self.version.to_le_bytes());
        h[8..].copy_from_slice(&self.features.to_le_bytes());
        h
    }

    /// Decodes a peer's announcement, validating only the magic — the
    /// caller decides how to surface a version skew (structurally, not
    /// as a frame error).
    ///
    /// # Errors
    ///
    /// `InvalidData` when the magic is wrong (not an mhe endpoint).
    pub fn decode(h: &[u8; HANDSHAKE_LEN]) -> io::Result<Self> {
        if h[..4] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad handshake magic {:02x?} (not an mhe endpoint?)", &h[..4]),
            ));
        }
        Ok(Self {
            version: u32::from_le_bytes([h[4], h[5], h[6], h[7]]),
            features: u32::from_le_bytes([h[8], h[9], h[10], h[11]]),
        })
    }

    /// Checks that the peer speaks this build's protocol version.
    ///
    /// # Errors
    ///
    /// `InvalidData` naming both versions on a mismatch.
    pub fn check_version(self) -> io::Result<()> {
        if self.version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("protocol version {} (this side speaks {VERSION})", self.version),
            ));
        }
        Ok(())
    }
}

/// The handshake this build announces, with the given feature bits.
pub fn handshake(features: u32) -> [u8; HANDSHAKE_LEN] {
    Handshake { version: VERSION, features }.encode()
}

/// Client side of the two-way handshake: reads the server's 12 bytes,
/// validates the magic, writes this side's announcement back, and
/// returns the server's (version still unchecked — the caller maps a
/// skew to its own structured error type).
///
/// # Errors
///
/// Read/write errors, or `InvalidData` on a wrong magic.
pub fn client_hello(stream: &mut (impl Read + Write), features: u32) -> io::Result<Handshake> {
    let mut h = [0u8; HANDSHAKE_LEN];
    stream.read_exact(&mut h)?;
    let server = Handshake::decode(&h)?;
    stream.write_all(&handshake(features))?;
    stream.flush()?;
    Ok(server)
}

/// Fills `buf` from a stream whose read timeout doubles as a stop-poll
/// point. Returns `Ok(false)` when `stop()` turned true or the peer
/// closed before sending anything; `Ok(true)` once `buf` is full.
///
/// # Errors
///
/// `UnexpectedEof` when the peer closes mid-buffer; other read errors
/// propagate.
pub fn read_exact_or_stop(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-handshake"))
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop() {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// --- framing -------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// Every call consults the armed chaos plan (if any): a scheduled frame
/// fault may drop the frame, write it twice, write only its first half
/// (a mid-frame connection tear), or sleep before writing. With no plan
/// armed the fate check is a single uncontended mutex lock.
///
/// # Errors
///
/// Propagates write errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds the {MAX_FRAME}-byte cap", payload.len()),
        ));
    }
    use mhe_core::fault::FrameFate;
    match mhe_core::fault::next_frame_fate() {
        FrameFate::Deliver => write_frame_raw(w, payload),
        FrameFate::Drop => Ok(()),
        FrameFate::Duplicate => {
            write_frame_raw(w, payload)?;
            write_frame_raw(w, payload)
        }
        FrameFate::Truncate => {
            let mut whole = Vec::with_capacity(4 + payload.len());
            whole.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            whole.extend_from_slice(payload);
            w.write_all(&whole[..whole.len() / 2])?;
            w.flush()
        }
        FrameFate::Delay(pause) => {
            std::thread::sleep(pause);
            write_frame_raw(w, payload)
        }
    }
}

fn write_frame_raw(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame (blocking until complete).
///
/// # Errors
///
/// Propagates read errors; rejects frames over [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// An incremental frame reader over a stream with a read timeout.
///
/// [`FrameReader::read_frame`] accumulates partial reads in an internal
/// buffer, so a timeout mid-frame loses nothing — the server uses the
/// timeouts as drain poll points, not as deadlines.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream.
    pub fn new(inner: R) -> Self {
        Self { inner, buf: Vec::new() }
    }

    /// Reads the next complete frame. Returns `Ok(None)` on a clean EOF
    /// at a frame boundary, or — when `stop()` turns true — on a timeout
    /// with no frame in progress (graceful drain).
    ///
    /// # Errors
    ///
    /// Propagates read errors; EOF mid-frame is `UnexpectedEof`;
    /// over-long frames are `InvalidData`.
    pub fn read_frame(&mut self, stop: &dyn Fn() -> bool) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 4096];
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
                    ));
                }
                if self.buf.len() >= 4 + len {
                    let payload = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Some(payload));
                }
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    // Only abandon the wait at a frame boundary: a client
                    // that already started a frame gets to finish it.
                    if stop() && self.buf.is_empty() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// --- payload encoding ----------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
}

fn short() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated protocol payload")
}

impl<'a> Dec<'a> {
    fn u8(&mut self) -> io::Result<u8> {
        let (&v, rest) = self.buf.split_first().ok_or_else(short)?;
        self.buf = rest;
        Ok(v)
    }
    fn u32(&mut self) -> io::Result<u32> {
        if self.buf.len() < 4 {
            return Err(short());
        }
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Ok(u32::from_le_bytes([head[0], head[1], head[2], head[3]]))
    }
    fn u64(&mut self) -> io::Result<u64> {
        if self.buf.len() < 8 {
            return Err(short());
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        let mut b = [0u8; 8];
        b.copy_from_slice(head);
        Ok(u64::from_le_bytes(b))
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        if self.buf.len() < len {
            return Err(short());
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        String::from_utf8(head.to_vec())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad utf-8: {e}")))
    }
    fn raw<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        if self.buf.len() < N {
            return Err(short());
        }
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        let mut b = [0u8; N];
        b.copy_from_slice(head);
        Ok(b)
    }
    fn finish(self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} trailing bytes after payload", self.buf.len()),
            ))
        }
    }
}

fn bad(what: &str, v: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad {what}: {v}"))
}

fn enc_policy(e: &mut Enc, p: Policy) {
    let (tag, seed) = match p {
        Policy::Lru => (0u8, 0u64),
        Policy::Fifo => (1, 0),
        Policy::PlruTree => (2, 0),
        Policy::Random(seed) => (3, seed),
    };
    e.u8(tag);
    e.u64(seed);
}

fn dec_policy(d: &mut Dec) -> io::Result<Policy> {
    let tag = d.u8()?;
    let seed = d.u64()?;
    match tag {
        0 => Ok(Policy::Lru),
        1 => Ok(Policy::Fifo),
        2 => Ok(Policy::PlruTree),
        3 => Ok(Policy::Random(seed)),
        other => Err(bad("policy tag", other)),
    }
}

fn enc_design(e: &mut Enc, design: &CacheDesign) {
    e.u32(design.config.sets);
    e.u32(design.config.assoc);
    e.u32(design.config.line_words);
    enc_policy(e, design.config.policy);
    e.u32(design.ports);
}

fn dec_design(d: &mut Dec) -> io::Result<CacheDesign> {
    let sets = d.u32()?;
    let assoc = d.u32()?;
    let line_words = d.u32()?;
    let policy = dec_policy(d)?;
    let ports = d.u32()?;
    Ok(CacheDesign { config: CacheConfig::new(sets, assoc, line_words).with_policy(policy), ports })
}

fn enc_sampling_config(e: &mut Enc, s: &Option<SamplingConfig>) {
    match s {
        None => e.u8(0),
        Some(s) => {
            e.u8(1);
            e.u64(s.interval_accesses as u64);
            e.u64(s.clusters as u64);
            e.u64(s.warmup as u64);
            e.u64(s.seed);
            e.u32(s.histogram_sets);
        }
    }
}

fn dec_sampling_config(d: &mut Dec) -> io::Result<Option<SamplingConfig>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(SamplingConfig {
            interval_accesses: d.u64()? as usize,
            clusters: d.u64()? as usize,
            warmup: d.u64()? as usize,
            seed: d.u64()?,
            histogram_sets: d.u32()?,
        })),
        other => Err(bad("sampling flag", other)),
    }
}

fn enc_sampling_metrics(e: &mut Enc, s: &Option<SamplingMetrics>) {
    match s {
        None => e.u8(0),
        Some(s) => {
            e.u8(1);
            e.u64(s.intervals);
            e.u64(s.clusters);
            e.u64(s.representative_accesses);
            e.u64(s.total_accesses);
            e.f64(s.error_bound);
        }
    }
}

fn dec_sampling_metrics(d: &mut Dec) -> io::Result<Option<SamplingMetrics>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(SamplingMetrics {
            intervals: d.u64()?,
            clusters: d.u64()?,
            representative_accesses: d.u64()?,
            total_accesses: d.u64()?,
            error_bound: d.f64()?,
        })),
        other => Err(bad("sampling-metrics flag", other)),
    }
}

/// Encodes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match req {
        Request::Ping => e.u8(0),
        Request::Frontier(f) => {
            e.u8(1);
            e.str(&f.spec_text);
            e.u8(u8::from(f.heuristic));
            enc_sampling_config(&mut e, &f.sampling);
            match &f.policies {
                None => e.u8(0),
                Some(ps) => {
                    e.u8(1);
                    e.u32(ps.len() as u32);
                    for &p in ps {
                        enc_policy(&mut e, p);
                    }
                }
            }
        }
        Request::Stats => e.u8(2),
        Request::Cancel => e.u8(3),
        Request::Auth { proof } => {
            e.u8(4);
            e.raw(proof);
        }
    }
    e.0
}

/// Decodes a request payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    let mut d = Dec { buf: payload };
    let req = match d.u8()? {
        0 => Request::Ping,
        1 => {
            let spec_text = d.str()?;
            let heuristic = d.u8()? != 0;
            let sampling = dec_sampling_config(&mut d)?;
            let policies = match d.u8()? {
                0 => None,
                1 => {
                    let n = d.u32()? as usize;
                    if n > 64 {
                        return Err(bad("policy-list length", n));
                    }
                    let mut ps = Vec::with_capacity(n);
                    for _ in 0..n {
                        ps.push(dec_policy(&mut d)?);
                    }
                    Some(ps)
                }
                other => return Err(bad("policies flag", other)),
            };
            Request::Frontier(FrontierRequest { spec_text, heuristic, sampling, policies })
        }
        2 => Request::Stats,
        3 => Request::Cancel,
        4 => Request::Auth { proof: d.raw()? },
        other => return Err(bad("request tag", other)),
    };
    d.finish()?;
    Ok(req)
}

/// Encodes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match resp {
        Response::Pong => e.u8(0),
        Response::Frontier(r) => {
            e.u8(1);
            enc_sampling_metrics(&mut e, &r.sampling);
            e.u32(r.rows.len() as u32);
            for row in &r.rows {
                e.str(&row.processor);
                enc_design(&mut e, &row.icache);
                enc_design(&mut e, &row.dcache);
                enc_design(&mut e, &row.ucache);
                e.f64(row.cost);
                e.f64(row.time);
            }
            e.u64(r.hits);
            e.u64(r.computes);
        }
        Response::Rejected { reason } => {
            e.u8(2);
            e.str(reason);
        }
        Response::Error { code, message } => {
            e.u8(3);
            e.u8(*code);
            e.str(message);
        }
        Response::Stats(s) => {
            e.u8(4);
            e.u64(s.sessions);
            e.u64(s.entries);
            e.u64(s.hits);
            e.u64(s.computes);
            e.u64(s.evictions);
            e.u32(s.version);
            e.u32(s.features);
            e.str(&s.build);
        }
        Response::AuthChallenge { nonce } => {
            e.u8(5);
            e.raw(nonce);
        }
    }
    e.0
}

/// Decodes a response payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let mut d = Dec { buf: payload };
    let resp = match d.u8()? {
        0 => Response::Pong,
        1 => {
            let sampling = dec_sampling_metrics(&mut d)?;
            let n = d.u32()? as usize;
            if n > 1 << 20 {
                return Err(bad("row count", n));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let processor = d.str()?;
                let icache = dec_design(&mut d)?;
                let dcache = dec_design(&mut d)?;
                let ucache = dec_design(&mut d)?;
                let cost = d.f64()?;
                let time = d.f64()?;
                rows.push(FrontierRow { processor, icache, dcache, ucache, cost, time });
            }
            let hits = d.u64()?;
            let computes = d.u64()?;
            Response::Frontier(FrontierReport { sampling, rows, hits, computes })
        }
        2 => Response::Rejected { reason: d.str()? },
        3 => Response::Error { code: d.u8()?, message: d.str()? },
        4 => Response::Stats(StatsReport {
            sessions: d.u64()?,
            entries: d.u64()?,
            hits: d.u64()?,
            computes: d.u64()?,
            evictions: d.u64()?,
            version: d.u32()?,
            features: d.u32()?,
            build: d.str()?,
        }),
        5 => Response::AuthChallenge { nonce: d.raw()? },
        other => return Err(bad("response tag", other)),
    };
    d.finish()?;
    Ok(resp)
}

// --- fleet frames (protocol v2) ------------------------------------------

/// Cap on `(MetricKey, f64)` points in one frame; larger lists are split
/// across frames by the sender and rejected as corruption by the reader.
pub const MAX_POINTS: usize = 1 << 20;

/// The job a coordinator hands a worker on attach: everything needed to
/// rebuild the same reference evaluation and enumerate the same work
/// plan the batch walk would, spec-text-only (no paths cross the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct JobOffer {
    /// Coordinator-assigned worker id (dense, from 0, attach order).
    pub worker_id: u32,
    /// The design-space specification, verbatim spec-file text.
    pub spec_text: String,
    /// Interval-sampling override, as in [`FrontierRequest`].
    pub sampling: Option<SamplingConfig>,
    /// Replacement-policy override, as in [`FrontierRequest`].
    pub policies: Option<Vec<Policy>>,
    /// Total shard count the key space is partitioned into.
    pub shard_count: u32,
}

/// Frames a fleet worker sends to its coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerFrame {
    /// First frame after the handshake: request a [`JobOffer`].
    Hello,
    /// Ready for work: lease the next unclaimed shard.
    NeedShard,
    /// A batch of evaluated points from the worker's current shard.
    Points {
        /// The shard these points belong to.
        shard: u32,
        /// Evaluated `(key, value)` pairs, `f64`s bit-exact.
        points: Vec<(MetricKey, f64)>,
    },
    /// Every point of the shard has been streamed.
    ShardDone {
        /// The finished shard.
        shard: u32,
    },
    /// Liveness signal renewing this worker's leases.
    Heartbeat,
    /// Answer to [`CoordFrame::AuthChallenge`]: HMAC proof of the
    /// shared fleet token over the coordinator's nonce.
    Auth {
        /// `HMAC-SHA256(token, nonce)` (see [`mhe_core::auth::proof`]).
        proof: [u8; 32],
    },
}

/// Frames a coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordFrame {
    /// Reply to [`WorkerFrame::Hello`].
    Job(JobOffer),
    /// A shard lease. `prefill` carries points already merged for this
    /// shard (from a checkpoint or a dead worker's partial stream), so
    /// stolen work is never recomputed.
    Assign {
        /// The leased shard.
        shard: u32,
        /// Already-known `(key, value)` pairs within the shard.
        prefill: Vec<(MetricKey, f64)>,
    },
    /// Every shard is done; the worker should disconnect cleanly.
    NoMoreWork,
    /// The sweep is being abandoned; carries the coordinator's error.
    Abort {
        /// Rendered coordinator-side failure.
        message: String,
    },
    /// No shard is free *right now* (all leased, none done) — keep
    /// waiting; sent periodically so the worker's read deadline is a
    /// dead-coordinator detector, not a stall false-positive.
    Wait,
    /// First frame from a token-bearing coordinator: prove knowledge of
    /// the shared fleet token with [`WorkerFrame::Auth`] before any
    /// [`WorkerFrame::Hello`] is answered.
    AuthChallenge {
        /// Fresh per-connection nonce to HMAC the token over.
        nonce: [u8; 16],
    },
    /// Authentication failed; the coordinator closes the connection.
    Denied {
        /// Human-readable rejection (no secrets).
        message: String,
    },
}

fn enc_key(e: &mut Enc, key: &MetricKey) -> io::Result<()> {
    cache_db::write_key(&mut e.0, key)
}

fn enc_points(e: &mut Enc, points: &[(MetricKey, f64)]) -> io::Result<()> {
    if points.len() > MAX_POINTS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} points exceed the {MAX_POINTS}-point frame cap", points.len()),
        ));
    }
    e.u32(points.len() as u32);
    for (key, value) in points {
        enc_key(e, key)?;
        e.f64(*value);
    }
    Ok(())
}

fn dec_points(d: &mut Dec) -> io::Result<Vec<(MetricKey, f64)>> {
    let n = d.u32()? as usize;
    if n > MAX_POINTS {
        return Err(bad("point count", n));
    }
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let key = cache_db::read_key(&mut d.buf)?;
        points.push((key, d.f64()?));
    }
    Ok(points)
}

/// Encodes a worker→coordinator frame payload.
///
/// # Errors
///
/// `InvalidInput` when a point batch exceeds [`MAX_POINTS`].
pub fn encode_worker_frame(frame: &WorkerFrame) -> io::Result<Vec<u8>> {
    let mut e = Enc(Vec::new());
    match frame {
        WorkerFrame::Hello => e.u8(0x10),
        WorkerFrame::NeedShard => e.u8(0x11),
        WorkerFrame::Points { shard, points } => {
            e.u8(0x12);
            e.u32(*shard);
            enc_points(&mut e, points)?;
        }
        WorkerFrame::ShardDone { shard } => {
            e.u8(0x13);
            e.u32(*shard);
        }
        WorkerFrame::Heartbeat => e.u8(0x14),
        WorkerFrame::Auth { proof } => {
            e.u8(0x15);
            e.raw(proof);
        }
    }
    Ok(e.0)
}

/// Decodes a worker→coordinator frame payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_worker_frame(payload: &[u8]) -> io::Result<WorkerFrame> {
    let mut d = Dec { buf: payload };
    let frame = match d.u8()? {
        0x10 => WorkerFrame::Hello,
        0x11 => WorkerFrame::NeedShard,
        0x12 => {
            let shard = d.u32()?;
            let points = dec_points(&mut d)?;
            WorkerFrame::Points { shard, points }
        }
        0x13 => WorkerFrame::ShardDone { shard: d.u32()? },
        0x14 => WorkerFrame::Heartbeat,
        0x15 => WorkerFrame::Auth { proof: d.raw()? },
        other => return Err(bad("worker frame tag", other)),
    };
    d.finish()?;
    Ok(frame)
}

/// Encodes a coordinator→worker frame payload.
///
/// # Errors
///
/// `InvalidInput` when a prefill batch exceeds [`MAX_POINTS`].
pub fn encode_coord_frame(frame: &CoordFrame) -> io::Result<Vec<u8>> {
    let mut e = Enc(Vec::new());
    match frame {
        CoordFrame::Job(job) => {
            e.u8(0x20);
            e.u32(job.worker_id);
            e.str(&job.spec_text);
            enc_sampling_config(&mut e, &job.sampling);
            match &job.policies {
                None => e.u8(0),
                Some(ps) => {
                    e.u8(1);
                    e.u32(ps.len() as u32);
                    for &p in ps {
                        enc_policy(&mut e, p);
                    }
                }
            }
            e.u32(job.shard_count);
        }
        CoordFrame::Assign { shard, prefill } => {
            e.u8(0x21);
            e.u32(*shard);
            enc_points(&mut e, prefill)?;
        }
        CoordFrame::NoMoreWork => e.u8(0x22),
        CoordFrame::Abort { message } => {
            e.u8(0x23);
            e.str(message);
        }
        CoordFrame::Wait => e.u8(0x24),
        CoordFrame::AuthChallenge { nonce } => {
            e.u8(0x25);
            e.raw(nonce);
        }
        CoordFrame::Denied { message } => {
            e.u8(0x26);
            e.str(message);
        }
    }
    Ok(e.0)
}

/// Decodes a coordinator→worker frame payload.
///
/// # Errors
///
/// `InvalidData` on any malformed field, truncation, or trailing bytes.
pub fn decode_coord_frame(payload: &[u8]) -> io::Result<CoordFrame> {
    let mut d = Dec { buf: payload };
    let frame = match d.u8()? {
        0x20 => {
            let worker_id = d.u32()?;
            let spec_text = d.str()?;
            let sampling = dec_sampling_config(&mut d)?;
            let policies = match d.u8()? {
                0 => None,
                1 => {
                    let n = d.u32()? as usize;
                    if n > 64 {
                        return Err(bad("policy-list length", n));
                    }
                    let mut ps = Vec::with_capacity(n);
                    for _ in 0..n {
                        ps.push(dec_policy(&mut d)?);
                    }
                    Some(ps)
                }
                other => return Err(bad("policies flag", other)),
            };
            let shard_count = d.u32()?;
            CoordFrame::Job(JobOffer { worker_id, spec_text, sampling, policies, shard_count })
        }
        0x21 => {
            let shard = d.u32()?;
            let prefill = dec_points(&mut d)?;
            CoordFrame::Assign { shard, prefill }
        }
        0x22 => CoordFrame::NoMoreWork,
        0x23 => CoordFrame::Abort { message: d.str()? },
        0x24 => CoordFrame::Wait,
        0x25 => CoordFrame::AuthChallenge { nonce: d.raw()? },
        0x26 => CoordFrame::Denied { message: d.str()? },
        other => return Err(bad("coord frame tag", other)),
    };
    d.finish()?;
    Ok(frame)
}

/// A generous read timeout for blocking client-side reads — long
/// evaluation requests keep the connection silent while the walk runs.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(600);

#[cfg(test)]
mod tests {
    use super::*;

    fn designs() -> (CacheDesign, CacheDesign, CacheDesign) {
        (
            CacheDesign { config: CacheConfig::from_bytes(1024, 1, 32), ports: 1 },
            CacheDesign {
                config: CacheConfig::from_bytes(4096, 2, 32).with_policy(Policy::Fifo),
                ports: 2,
            },
            CacheDesign {
                config: CacheConfig::from_bytes(16 << 10, 2, 64).with_policy(Policy::Random(7)),
                ports: 1,
            },
        )
    }

    #[test]
    fn requests_round_trip() {
        let (_, _, _) = designs();
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Cancel,
            Request::Auth { proof: [0xA5; 32] },
            Request::Frontier(FrontierRequest {
                spec_text: "[processors]\nkinds = 1111\n".into(),
                heuristic: true,
                sampling: Some(SamplingConfig {
                    interval_accesses: 8192,
                    clusters: 88,
                    warmup: 16384,
                    ..Default::default()
                }),
                policies: Some(vec![Policy::Lru, Policy::Random(0xDEAD)]),
            }),
            Request::Frontier(FrontierRequest {
                spec_text: String::new(),
                heuristic: false,
                sampling: None,
                policies: None,
            }),
        ];
        for req in &reqs {
            let bytes = encode_request(req);
            assert_eq!(&decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let (i, d, u) = designs();
        let resps = [
            Response::Pong,
            Response::Rejected { reason: "queue full".into() },
            Response::Error { code: 4, message: "worker panic in walk".into() },
            Response::Stats(StatsReport {
                sessions: 2,
                entries: 99,
                hits: 5,
                computes: 94,
                evictions: 3,
                version: VERSION,
                features: FEATURE_FRONTIER | FEATURE_AUTH,
                build: env!("CARGO_PKG_VERSION").into(),
            }),
            Response::AuthChallenge { nonce: [0x5A; 16] },
            Response::Frontier(FrontierReport {
                sampling: Some(SamplingMetrics {
                    intervals: 10,
                    clusters: 4,
                    representative_accesses: 4000,
                    total_accesses: 80_000,
                    error_bound: 0.012345,
                }),
                rows: vec![FrontierRow {
                    processor: "3221".into(),
                    icache: i,
                    dcache: d,
                    ucache: u,
                    cost: 123.456_789_f64,
                    time: f64::from_bits(0x40c104563027ee60),
                }],
                hits: 7,
                computes: 13,
            }),
        ];
        for resp in &resps {
            let bytes = encode_response(resp);
            assert_eq!(&decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[9]).is_err());
        assert!(decode_response(&[1, 2]).is_err());
        // Trailing garbage is corruption, not padding.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    /// Golden pin of the v3 handshake byte layout: `MHES`, version 3 LE,
    /// feature bits LE. Changing any of these bytes is a wire break and
    /// must come with a version bump.
    #[test]
    fn handshake_byte_layout_is_pinned() {
        let h = handshake(FEATURE_FRONTIER | FEATURE_FLEET | FEATURE_AUTH);
        assert_eq!(
            h,
            [b'M', b'H', b'E', b'S', 0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00],
            "v3 handshake layout drifted"
        );
        let decoded = Handshake::decode(&h).unwrap();
        assert_eq!(decoded, Handshake { version: 3, features: 7 });
        assert!(decoded.check_version().is_ok());
    }

    #[test]
    fn handshake_checks_magic_and_version() {
        let h = handshake(FEATURE_FRONTIER);
        let mut wrong = h;
        wrong[0] = b'X';
        assert!(Handshake::decode(&wrong).is_err(), "bad magic must be rejected");
        let mut newer = h;
        newer[4] = 99;
        let decoded = Handshake::decode(&newer).unwrap();
        assert_eq!(decoded.version, 99, "magic-valid handshake decodes structurally");
        let err = decoded.check_version().unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn client_hello_exchanges_both_announcements() {
        struct Duplex {
            incoming: std::io::Cursor<Vec<u8>>,
            outgoing: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                self.incoming.read(out)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.outgoing.write(data)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut stream = Duplex {
            incoming: std::io::Cursor::new(handshake(FEATURE_FRONTIER | FEATURE_FLEET).to_vec()),
            outgoing: Vec::new(),
        };
        let server = client_hello(&mut stream, FEATURE_FLEET).unwrap();
        assert_eq!(server.features, FEATURE_FRONTIER | FEATURE_FLEET);
        assert_eq!(stream.outgoing, handshake(FEATURE_FLEET).to_vec());
    }

    fn sample_points() -> Vec<(MetricKey, f64)> {
        let app: std::sync::Arc<str> = std::sync::Arc::from("unepic");
        let (i, d, _) = designs();
        vec![
            (MetricKey::icache(&app, i, 1.25), 1234.5),
            (MetricKey::dcache(&app, d), f64::from_bits(0x3FF8_0000_0000_0001)),
            (MetricKey::proc_cycles(&app, "3221"), 9.9e12),
        ]
    }

    #[test]
    fn worker_frames_round_trip() {
        let frames = [
            WorkerFrame::Hello,
            WorkerFrame::NeedShard,
            WorkerFrame::Points { shard: 7, points: sample_points() },
            WorkerFrame::Points { shard: 0, points: Vec::new() },
            WorkerFrame::ShardDone { shard: 31 },
            WorkerFrame::Heartbeat,
            WorkerFrame::Auth { proof: [0x42; 32] },
        ];
        for frame in &frames {
            let bytes = encode_worker_frame(frame).unwrap();
            assert_eq!(&decode_worker_frame(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn coord_frames_round_trip() {
        let frames = [
            CoordFrame::Job(JobOffer {
                worker_id: 3,
                spec_text: "[processors]\nkinds = 1111\n".into(),
                sampling: Some(SamplingConfig { clusters: 12, ..Default::default() }),
                policies: Some(vec![Policy::Fifo, Policy::Random(0xBEEF)]),
                shard_count: 32,
            }),
            CoordFrame::Job(JobOffer {
                worker_id: 0,
                spec_text: String::new(),
                sampling: None,
                policies: None,
                shard_count: 1,
            }),
            CoordFrame::Assign { shard: 5, prefill: sample_points() },
            CoordFrame::Assign { shard: 0, prefill: Vec::new() },
            CoordFrame::NoMoreWork,
            CoordFrame::Abort { message: "reference build failed".into() },
            CoordFrame::Wait,
            CoordFrame::AuthChallenge { nonce: [0x17; 16] },
            CoordFrame::Denied { message: "authentication failed".into() },
        ];
        for frame in &frames {
            let bytes = encode_coord_frame(frame).unwrap();
            assert_eq!(&decode_coord_frame(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn malformed_fleet_frames_are_rejected() {
        assert!(decode_worker_frame(&[]).is_err());
        assert!(decode_worker_frame(&[0x7F]).is_err());
        assert!(decode_coord_frame(&[0x7F]).is_err());
        let mut bytes = encode_worker_frame(&WorkerFrame::Heartbeat).unwrap();
        bytes.push(0);
        assert!(decode_worker_frame(&bytes).is_err(), "trailing bytes are corruption");
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        struct Dribble(Vec<u8>, usize);
        impl std::io::Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        // `write_frame` consults the process-wide fault plan a sibling
        // test arms, so hold its lock while writing.
        let _lock = mhe_core::fault::injection_lock().lock().unwrap();
        let payload = encode_request(&Request::Ping);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        write_frame(&mut bytes, &payload).unwrap();
        let mut reader = FrameReader::new(Dribble(bytes, 0));
        let stop = || false;
        assert_eq!(reader.read_frame(&stop).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(reader.read_frame(&stop).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(reader.read_frame(&stop).unwrap(), None);
    }

    #[test]
    fn armed_frame_faults_shape_the_byte_stream() {
        use mhe_core::fault::{arm, injection_lock, Fault, FaultPlan};
        let _lock = injection_lock().lock().unwrap();
        let payload = encode_request(&Request::Ping);
        let mut framed = Vec::new();
        write_frame_raw(&mut framed, &payload).unwrap();

        // drop@0, dup@1, trunc@2 against four writes: the stream carries
        // nothing for the first, the second twice, half of the third, and
        // the fourth intact.
        let _guard = arm(FaultPlan::new(vec![
            Fault::DropFrame { frame: 0 },
            Fault::DupFrame { frame: 1 },
            Fault::TruncFrame { frame: 2 },
        ]));
        let mut out = Vec::new();
        for _ in 0..4 {
            write_frame(&mut out, &payload).unwrap();
        }
        let mut expect = Vec::new();
        expect.extend_from_slice(&framed); // dup, first copy
        expect.extend_from_slice(&framed); // dup, second copy
        expect.extend_from_slice(&framed[..framed.len() / 2]); // trunc
        expect.extend_from_slice(&framed); // delivered
        assert_eq!(out, expect);
    }
}
