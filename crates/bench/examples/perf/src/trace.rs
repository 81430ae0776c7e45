//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the span that caused it, and an optional count (rows, paths,
//! …).  Recording is switched on only for the traced half of a `--trace`
//! run; switched off, every call is one atomic load.  The spans are
//! written to `trace-<workload>-<seed>.json` when the run ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use irs_serve::JsonValue;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Sum of durations and counts of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub calls: u64,
    pub secs: f64,
    pub count: u64,
}

pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { on: AtomicBool::new(false), origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Start or stop recording.  Spans only mark layer boundaries, so the
    /// switch publishes no other data.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; `None` when recording is off.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> Option<SpanId> {
        if !self.is_on() {
            return None;
        }
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, count };
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Open a span that [`Tracer::close`] finishes (for spans that parent
    /// others).
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, now, now, 0)
    }

    pub fn close(&self, id: Option<SpanId>, count: u64) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            let mut spans = self.spans.lock().expect("a tracing thread panicked");
            spans[id].end_ns = end;
            spans[id].count = count;
        }
    }

    /// Totals of every span called `name`.
    pub fn total(&self, name: &str) -> Total {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        spans.iter().filter(|s| s.name == name).fold(Total::default(), |t, s| Total {
            calls: t.calls + 1,
            secs: t.secs + s.secs(),
            count: t.count + s.count,
        })
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> JsonValue {
        let spans = self.spans.lock().expect("a tracing thread panicked");
        let n = |v: u64| JsonValue::Num(v as f64);
        JsonValue::Arr(
            spans
                .iter()
                .map(|s| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str(s.name.into())),
                        ("start_ns".into(), n(s.start_ns)),
                        ("end_ns".into(), n(s.end_ns)),
                        ("parent".into(), s.parent.map_or(JsonValue::Null, |p| n(p as u64))),
                        ("count".into(), n(s.count)),
                    ])
                })
                .collect(),
        )
    }
}
