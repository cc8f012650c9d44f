//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! module's public functions; nothing inside the program is probed. Every
//! span carries its parent and the id of the operation it belongs to, and
//! counts are recorded at the same call sites. Everything stays in memory
//! until [`Tracer::write_jsonl`] writes it out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: the operation it belongs to and its parent span
/// (0 for an operation's root span).
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub op: u64,
    pub parent: u64,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone)]
struct Count {
    op: u64,
    parent: u64,
    name: &'static str,
    value: f64,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    counts: Vec<Count>,
}

/// Thread-safe span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    log: Mutex<Log>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), log: Mutex::default() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("a thread panicked while recording a span")
    }

    /// Starts a new operation; spans created under the returned context
    /// carry its id.
    pub fn op(&self) -> Ctx {
        Ctx { op: self.next_id.fetch_add(1, Ordering::Relaxed), parent: 0 }
    }

    /// Runs `f` inside a span named `name`; `f` gets the context for
    /// child spans.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx { op: ctx.op, parent: id });
        let end_ns = self.now_ns();
        self.log().spans.push(Span { id, parent: ctx.parent, op: ctx.op, name, start_ns, end_ns });
        out
    }

    /// Adds `value` to the count `name` at this call site.
    pub fn count(&self, ctx: Ctx, name: &'static str, value: f64) {
        self.log().counts.push(Count { op: ctx.op, parent: ctx.parent, name, value });
    }

    /// Total self time (seconds) per span name over all recorded spans.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let log = self.log();
        let mut out = BTreeMap::new();
        for (span, self_ns) in log.spans.iter().zip(self_times(&log.spans)) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Total of each count over all recorded operations.
    pub fn count_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for c in &self.log().counts {
            *out.entry(c.name).or_insert(0.0) += c.value;
        }
        out
    }

    /// Durations (seconds) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.log()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span and count as JSON lines, with `header` first.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let log = self.log();
        let mut out = String::with_capacity(96 * (log.spans.len() + log.counts.len()) + 256);
        out.push_str(header);
        out.push('\n');
        for (s, self_ns) in log.spans.iter().zip(self_times(&log.spans)) {
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, self_ns
            );
        }
        for c in &log.counts {
            let _ = writeln!(
                out,
                "{{\"count\":\"{}\",\"parent\":{},\"op\":{},\"value\":{}}}",
                c.name, c.parent, c.op, c.value
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap (they run on
/// several threads), so the covered part is the union of their intervals,
/// clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else { return total };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            total - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two children on different threads overlap on 20..40, and a
            // grandchild must not count against the root.
            span(2, 1, 10, 40),
            span(3, 1, 20, 50),
            span(4, 2, 15, 30),
            // A child that outlives its parent is clipped.
            span(5, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 15, 30, 15, 30]);
    }

    #[test]
    fn spans_nest_and_carry_their_operation() {
        let t = Tracer::default();
        let op = t.op();
        t.span(op, "outer", |ctx| {
            t.span(ctx, "inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.count(ctx, "things", 3.0);
        });
        let log = t.log();
        let inner = log.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = log.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.op, outer.op), (op.op, op.op));
        assert_eq!(log.counts[0].parent, outer.id);
        drop(log);
        assert!(t.self_seconds()["inner"] >= 0.002);
        assert_eq!(t.count_totals()["things"], 3.0);
    }
}
