//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time attribution computed from them.
//!
//! A span's name is `<layer>.<operation>` (`seq.layout`, `core.batch`,
//! `net.gateway`, ...). Spans of one request share a request id, and
//! every span but a round's root names the span that caused it. A
//! span's *self time* is its duration minus the part of it covered by
//! its children, so per-layer self times add up without double
//! counting nested calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: u32,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one (`None` for a round's root).
    pub parent: Option<u32>,
    /// Request id shared by the spans of one request (query index,
    /// pair index, ...).
    pub req: u64,
    /// Small per-process thread number.
    pub thread: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer part of the name (`core` for `core.batch`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

fn thread_no() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    NO.with(|n| *n)
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's
    /// id so it can parent further spans (also on other threads).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
                thread: thread_no(),
            });
            id
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id as usize].end_ns = end_ns;
        out
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Where new spans go: a tracer, the span that causes them, and the
/// request they belong to.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: &'a Tracer,
    parent: Option<u32>,
    req: u64,
}

impl<'a> Scope<'a> {
    /// Top-level scope of request `req`.
    pub fn root(tracer: &'a Tracer, req: u64) -> Self {
        Self {
            tracer,
            parent: None,
            req,
        }
    }

    /// Run `f` in a child span named `name`; `f` gets the child's scope.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> R) -> R {
        self.tracer.span(name, self.parent, self.req, |id| {
            f(Scope {
                parent: Some(id),
                ..self
            })
        })
    }

    /// The same scope, filed under another request id.
    pub fn with_req(self, req: u64) -> Self {
        Self { req, ..self }
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, in seconds, indexed by span id.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p as usize];
            // Clip to the parent: a child on another thread may outlive
            // the parent only by clock granularity.
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(union_ns(c)) as f64 * 1e-9)
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Share of `root`'s wall time during which at least one span of a
/// layer other than `bench` (the benchmark's own glue) was running.
pub fn attributed_share(spans: &[Span], root: &Span) -> f64 {
    let wall = root.end_ns - root.start_ns;
    if wall == 0 {
        return 0.0;
    }
    let covered = union_ns(
        spans
            .iter()
            .filter(|s| s.layer() != "bench")
            .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
            .filter(|(a, b)| a < b)
            .collect(),
    );
    covered as f64 / wall as f64
}

/// Write `spans` as `{"spans": [...]}` with one span object per line.
/// Each object carries `self_us`, its attributed self time.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"spans\": [")?;
    for (i, (s, st)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}, \"parent\": {}, \"req\": {}, \"thread\": {}}}{}",
            s.id,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            st * 1e6,
            parent,
            s.req,
            s.thread,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel partitions) and a gap.
        let spans = vec![
            span(0, "bench.round", 0, 100, None),
            span(1, "runner.pool", 10, 90, Some(0)),
            span(2, "runner.partition", 10, 60, Some(1)),
            span(3, "runner.partition", 20, 80, Some(1)),
        ];
        let st = self_times(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(st[0]), 20);
        assert_eq!(ns(st[1]), 10);
        assert_eq!(ns(st[2]), 50);
        assert_eq!(ns(st[3]), 60);
        let by = self_time_by_name(&spans);
        assert_eq!(ns(by["runner.partition"]), 110);
        let share = attributed_share(&spans, &spans[0]);
        assert!((share - 0.8).abs() < 1e-12, "{share}");
    }

    #[test]
    fn tracer_records_nesting_across_threads() {
        let t = Tracer::default();
        t.span("bench.round", None, 7, |root| {
            std::thread::scope(|s| {
                s.spawn(|| t.span("core.batch", Some(root), 7, |_| ()));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "core");
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans.iter().all(|s| s.req == 7));
    }
}
