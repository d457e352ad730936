//! Benchmark-side spans: recorded around the benchmark's own calls into
//! each layer, kept in memory, and written out once the run has ended.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One monotonic clock for the whole run; every timestamp is nanoseconds
/// since its epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A recorded span. `id` names the request (or round, or read) the span
/// belongs to; `parent` is the index of the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Request, round or read id shared by the spans of one operation.
    pub id: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<u32>,
    /// Replica the span was observed on, if any.
    pub node: Option<u8>,
    /// Start, ns since the clock epoch.
    pub start_ns: u64,
    /// End, ns since the clock epoch.
    pub end_ns: u64,
}

/// Spans of one run, in recording order, and the time spent recording them.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    cost_ns: u64,
}

impl Spans {
    /// Records a span and returns its index (for use as a parent).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Appends another recorder's spans, keeping their parent links.
    pub fn extend(&mut self, other: Spans) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        self.cost_ns += other.cost_ns;
    }

    /// Nanoseconds spent inside [`record`] so far: what tracing adds to a run.
    pub fn cost_ns(&self) -> u64 {
        self.cost_ns
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"id\":{}",
                span.name, span.id
            )?;
            if let Some(parent) = span.parent {
                write!(out, ",\"parent\":{parent}")?;
            }
            if let Some(node) = span.node {
                write!(out, ",\"node\":{node}")?;
            }
            writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Records a span when tracing is on, timing the call; a no-op returning
/// `None` otherwise.
pub fn record(spans: &mut Option<Spans>, span: Span) -> Option<u32> {
    let spans = spans.as_mut()?;
    let started = Instant::now();
    let index = spans.push(span);
    spans.cost_ns += started.elapsed().as_nanos() as u64;
    Some(index)
}
