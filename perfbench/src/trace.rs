//! In-memory span recording for the traced run.
//!
//! A span covers one call the benchmark makes into a layer: its name, start,
//! end, the span that caused it, and the id every span of one request or
//! run shares.  Spans stay in per-thread buffers while the workload runs and
//! are merged and written out when it ends.  An untraced [`Lane`] records
//! nothing and costs one branch per call.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::common::Samples;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id (never 0; 0 means "no parent").
pub fn next_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The request or run every span of one unit of work shares.
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer; `Lane::off()` records nothing.
#[derive(Debug, Default)]
pub struct Lane(Option<RefCell<Vec<Span>>>);

impl Lane {
    pub fn off() -> Self {
        Lane(None)
    }

    pub fn new(traced: bool) -> Self {
        Lane(traced.then(|| RefCell::new(Vec::with_capacity(4096))))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f`, recording it as span `name` under `parent` when tracing.
    #[inline]
    pub fn span<T>(&self, name: &'static str, trace: u64, parent: u64, f: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => f(),
            Some(buf) => {
                let start = now_ns();
                let out = f();
                let end = now_ns();
                buf.borrow_mut().push(Span {
                    name,
                    trace,
                    id: next_id(),
                    parent,
                    start,
                    end,
                });
                out
            }
        }
    }

    /// Records an already timed span.
    pub fn push(&self, span: Span) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().push(span);
        }
    }

    pub fn take(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map(|buf| std::mem::take(&mut *buf.borrow_mut()))
            .unwrap_or_default()
    }
}

/// Spans one invocation keeps at most; later units still run traced, but
/// their spans are counted and dropped so memory stays bounded.
pub const SPAN_CAP: usize = 500_000;

/// All spans of one invocation, merged from the lanes.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: usize,
}

impl Trace {
    /// Keeps a unit's spans whole, or drops them whole once the cap is hit.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        if self.spans.len() + spans.len() > SPAN_CAP {
            self.dropped += spans.len();
        } else {
            self.spans.extend(spans);
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            out.push(span.ns() as f64);
        }
        out
    }

    /// Summed duration of each span's direct children, by parent id.
    fn child_sums(&self) -> HashMap<u64, u64> {
        let mut sums: HashMap<u64, u64> = HashMap::new();
        for span in self.spans.iter().filter(|s| s.parent != 0) {
            *sums.entry(span.parent).or_default() += span.ns();
        }
        sums
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name, with the span count.
    pub fn self_times(&self) -> Vec<(&'static str, u64, usize)> {
        let sums = self.child_sums();
        let mut by_name: HashMap<&'static str, (u64, usize)> = HashMap::new();
        for span in &self.spans {
            let own = span
                .ns()
                .saturating_sub(sums.get(&span.id).copied().unwrap_or(0));
            let entry = by_name.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        let mut out: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }

    /// Writes every span as tab-separated text to `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\ttrace\tid\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.trace, s.id, s.parent, s.start, s.end
            )?;
        }
        out.flush()
    }
}
