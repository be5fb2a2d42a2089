//! In-memory span recorder for the traced run.
//!
//! A span is one timed call from the benchmark into a crate's public
//! function: its name, start, end, parent span and the job it belongs
//! to, plus a small `tag` (policy and contention index) for spans whose
//! name alone does not say which engine configuration ran. Spans are
//! only appended to a vector while the benchmark runs; they are written
//! out as JSON lines after the last measurement.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tag: u16,
    pub job: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (see [`Tracer::begin`]).
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(u32);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    job: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            job: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the job id stamped on spans opened from now on.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin_tagged(&mut self, name: &'static str, tag: u16) -> Open {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_tagged(name, 0)
    }

    /// Closes `open` and any span still open inside it (left open only
    /// when a call panicked).
    pub fn end(&mut self, open: Open) -> &Span {
        let end_ns = self.now_ns();
        while let Some(idx) = self.stack.pop() {
            self.spans[idx as usize].end_ns = end_ns;
            if idx == open.0 {
                break;
            }
        }
        &self.spans[open.0 as usize]
    }

    /// Times one call as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.leaf_tagged(name, 0, f)
    }

    pub fn leaf_tagged<R>(&mut self, name: &'static str, tag: u16, f: impl FnOnce() -> R) -> R {
        let open = self.begin_tagged(name, tag);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-(name, tag) totals over every closed span: call count,
    /// inclusive time, and self time (inclusive time minus the time
    /// covered by direct children; children of one span never overlap,
    /// since every span is opened and closed on one call stack).
    pub fn totals(&self) -> BTreeMap<(&'static str, u16), Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<(&'static str, u16), Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry((s.name, s.tag)).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns() - child.min(s.dur_ns());
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"tag\":{},\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.job, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregate of all spans sharing a (name, tag).
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.calls as f64 / 1e3
    }

    pub fn merge(&mut self, other: &Totals) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// Sum of the totals of `name` over every tag.
pub fn by_name(totals: &BTreeMap<(&'static str, u16), Totals>, name: &str) -> Totals {
    let mut t = Totals::default();
    for ((n, _), v) in totals {
        if *n == name {
            t.merge(v);
        }
    }
    t
}
