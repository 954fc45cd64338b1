//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. A disabled tracer reads no clock and stores
//! nothing, so untraced runs pay only a branch per span.

use serde::Serialize;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Index of the span in the recording (its identifier).
    pub id: usize,
    /// Layer-qualified name, e.g. `exact.project_exact`.
    pub name: &'static str,
    /// Microseconds since the tracer started.
    pub start_us: f64,
    /// Microseconds since the tracer started; NaN while open.
    pub end_us: f64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Run-wide slot number (pass-major) the span belongs to, if any.
    pub slot: Option<usize>,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle of no span (a root's parent).
    pub const NONE: SpanId = SpanId(None);
}

/// A span recorder.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_us(epoch: Instant) -> f64 {
        epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, slot: Option<usize>) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId::NONE;
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            start_us: Self::now_us(epoch),
            end_us: f64::NAN,
            parent: parent.0,
            slot,
        });
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: SpanId) {
        if let (Some(epoch), Some(id)) = (self.epoch, span.0) {
            self.spans[id].end_us = Self::now_us(epoch);
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        slot: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, slot);
        let out = f();
        self.close(span);
        out
    }

    /// The duration of a closed span in milliseconds (`None` when tracing
    /// is off).
    pub fn duration_ms(&self, span: SpanId) -> Option<f64> {
        let s = &self.spans[span.0?];
        Some((s.end_us - s.start_us) / 1e3)
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let line = serde_json::to_string(s).expect("spans serialize");
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
