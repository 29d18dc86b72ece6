//! Benchmark-side spans. Each span wraps one call the benchmark makes
//! into a layer's public entry point (or one request it sends over TCP):
//! name, start, end, parent span and request id. Spans stay in memory
//! and are written as JSON lines when the run ends.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<usize>,
    /// The request (or set-up step) the span belongs to; shared by every
    /// span of one request.
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store. A disabled tracer records nothing, so untraced
/// runs pay one branch per call site.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span measured elsewhere (e.g. a request's send and
    /// receive instants); returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span that later spans can name as their parent; close it
    /// with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, None, request)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span and returns its result; with the tracer
    /// disabled, `f` runs untimed.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Durations (µs) of every span with this name.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
