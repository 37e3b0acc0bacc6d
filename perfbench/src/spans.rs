//! In-memory span store for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer, kept in memory while
//! the run measures, and written out as JSON lines when it ends.

use std::io::Write;
use std::time::Instant;

/// One timed layer call. Spans of one app analysis or one request share
/// `unit`; `parent` names the span that caused this one (`""` for the
/// unit's root span).
#[derive(Clone, Debug)]
pub struct Span {
    pub unit: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Bounded span buffer: past `cap` spans only the drop count grows, so a
/// long traced run cannot balloon memory.
pub struct SpanStore {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

/// The default store keeps nothing (untraced runs).
impl Default for SpanStore {
    fn default() -> SpanStore {
        SpanStore::new(Instant::now(), 0)
    }
}

impl SpanStore {
    pub fn new(origin: Instant, cap: usize) -> SpanStore {
        SpanStore { origin, spans: Vec::new(), cap, dropped: 0 }
    }

    pub fn record(
        &mut self,
        unit: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { unit, name, parent, start_ns: ns(start), end_ns: ns(end) });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Moves another store's spans into this one (per-thread stores are
    /// merged after their threads end).
    pub fn absorb(&mut self, other: SpanStore) {
        self.dropped += other.dropped;
        for s in other.spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
            } else {
                self.spans.push(s);
            }
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"unit\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.unit, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
