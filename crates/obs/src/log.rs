//! The structured event log: leveled, key=value / JSON-line records in a
//! fixed-capacity deterministic ring buffer, with an optional streaming
//! file sink.
//!
//! The log complements the span tree: spans answer *where time went*,
//! events answer *what happened* — connection lifecycle, hot-swap state
//! transitions, parse rejections, pipeline phase completions. Each record
//! carries a level, a target (the emitting subsystem), a message, an
//! optional per-request trace id (see the daemon's deterministic
//! trace-id derivation), and typed key/value fields reusing
//! [`AttrValue`].
//!
//! # Determinism contract
//!
//! The ring buffer holds the most recent `capacity` records. Overflow
//! evicts **oldest-first**, one eviction per overflowing record, counted
//! in [`EventLog::dropped`] (and mirrored into an attached
//! `log_records_dropped_total` counter when one is registered). Record
//! sequence numbers are assigned from a single atomic at emit time, so
//! for a single-threaded emitter the retained window after N emissions
//! is exactly records `N-capacity+1 ..= N` — pinned by the
//! capacity+1 / capacity×3 eviction tests.
//!
//! Like the span collector, a disabled [`EventLog`] is a no-op handle:
//! one `Option` check per emission, no timestamps, no allocation — hot
//! paths can thread it unconditionally.
//!
//! # Sink
//!
//! [`EventLog::set_sink`] attaches a streaming writer (the `--log-out`
//! file): every record that passes the level filter is rendered and
//! written immediately, so a crash loses at most the in-flight line. The
//! ring buffer is unaffected by the sink — it always holds the most
//! recent window for live queries.

use crate::metrics::Counter;
use crate::span::AttrValue;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring-buffer capacity: a generous live window without letting
/// a long-running daemon grow without bound.
pub const DEFAULT_EVENT_CAPACITY: usize = 8192;

/// Event severity. Ordered: `Trace < Debug < Info < Warn < Error`; a log
/// configured at level L records events at L and above.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Finest-grained (per-request detail).
    Trace,
    /// Diagnostic detail (connection lifecycle, phase completions).
    Debug,
    /// Normal operational milestones (swap committed, run finished).
    Info,
    /// Recoverable anomalies (parse rejections, drain timeouts).
    Warn,
    /// Failures (refused swaps, sink errors).
    Error,
}

impl Level {
    /// Canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a (case-insensitive) level name — the `--log-level` flag.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Level, String> {
        Level::parse(s).ok_or_else(|| format!("unknown level {s:?}"))
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One emitted event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Global sequence number (1-based, atomic at emit time).
    pub seq: u64,
    /// Microseconds since the log's epoch (wall-clock; excluded from any
    /// deterministic comparison).
    pub elapsed_us: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem (`daemon`, `pipeline`, `eval`, …).
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Per-request trace id, when the event belongs to a request.
    pub trace_id: Option<String>,
    /// Typed key/value fields, in insertion order.
    pub fields: Vec<(String, AttrValue)>,
}

/// Escapes a field value for the key=value line format: values with
/// whitespace, quotes, or `=` are double-quoted with `\"`/`\\`/`\n`/`\t`
/// escapes; bare tokens pass through.
fn escape_value(v: &str) -> String {
    let needs_quoting =
        v.is_empty() || v.chars().any(|c| c.is_whitespace() || c == '"' || c == '=' || c == '\\');
    if !needs_quoting {
        return v.to_string();
    }
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn attr_text(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(i) => i.to_string(),
        AttrValue::Uint(u) => u.to_string(),
        AttrValue::Float(f) => format!("{f}"),
        AttrValue::Str(s) => escape_value(s),
        AttrValue::Bool(b) => b.to_string(),
    }
}

impl EventRecord {
    /// The `key=value` line rendering (no trailing newline):
    /// `seq=… ts_us=… level=… target=… [trace_id=…] msg="…" k=v …`.
    pub fn to_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "seq={} ts_us={} level={} target={}",
            self.seq,
            self.elapsed_us,
            self.level,
            escape_value(&self.target)
        );
        if let Some(id) = &self.trace_id {
            let _ = write!(out, " trace_id={}", escape_value(id));
        }
        let _ = write!(out, " msg={}", escape_value(&self.message));
        for (k, v) in &self.fields {
            let _ = write!(out, " {}={}", k, attr_text(v));
        }
        out
    }

    /// The JSON-line rendering (one JSON object, no trailing newline).
    pub fn to_json_line(&self) -> String {
        use extractocol_http::JsonValue;
        let mut o = JsonValue::object();
        o.insert("seq", JsonValue::num(self.seq as f64));
        o.insert("ts_us", JsonValue::num(self.elapsed_us as f64));
        o.insert("level", JsonValue::str(self.level.as_str()));
        o.insert("target", JsonValue::str(&self.target));
        if let Some(id) = &self.trace_id {
            o.insert("trace_id", JsonValue::str(id));
        }
        o.insert("msg", JsonValue::str(&self.message));
        for (k, v) in &self.fields {
            let jv = match v {
                AttrValue::Int(i) => JsonValue::num(*i as f64),
                AttrValue::Uint(u) => JsonValue::num(*u as f64),
                AttrValue::Float(f) => JsonValue::num(*f),
                AttrValue::Str(s) => JsonValue::str(s),
                AttrValue::Bool(b) => JsonValue::Bool(*b),
            };
            o.insert(k, jv);
        }
        o.to_json()
    }
}

/// Sink line format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkFormat {
    /// `key=value` lines.
    Text,
    /// One JSON object per line.
    Json,
}

struct LogInner {
    epoch: Instant,
    min_level: Level,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<EventRecord>>,
    sink: Mutex<Option<(Box<dyn Write + Send>, SinkFormat)>>,
    dropped_counter: Mutex<Option<Arc<Counter>>>,
}

/// The event-log handle. Cheap to clone; clones share one ring buffer
/// and sink. The default is the disabled log.
#[derive(Clone, Default)]
pub struct EventLog {
    inner: Option<Arc<LogInner>>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(i) => write!(
                f,
                "EventLog(enabled, level={}, {} buffered, {} dropped)",
                i.min_level,
                i.ring.lock().map(|r| r.len()).unwrap_or(0),
                i.dropped.load(Ordering::Relaxed)
            ),
            None => write!(f, "EventLog(disabled)"),
        }
    }
}

impl EventLog {
    /// The no-op log: emissions cost one branch and record nothing.
    pub fn disabled() -> EventLog {
        EventLog { inner: None }
    }

    /// An enabled log recording events at `min_level` and above, with
    /// the default ring capacity.
    pub fn enabled(min_level: Level) -> EventLog {
        EventLog::with_capacity(min_level, DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled log with an explicit ring capacity (`capacity >= 1`).
    pub fn with_capacity(min_level: Level, capacity: usize) -> EventLog {
        assert!(capacity >= 1, "event ring needs at least one slot");
        EventLog {
            inner: Some(Arc::new(LogInner {
                epoch: Instant::now(),
                min_level,
                capacity,
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                ring: Mutex::new(VecDeque::new()),
                sink: Mutex::new(None),
                dropped_counter: Mutex::new(None),
            })),
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when an event at `level` would be recorded.
    pub fn enabled_at(&self, level: Level) -> bool {
        self.inner.as_ref().is_some_and(|i| level >= i.min_level)
    }

    /// Attaches a streaming sink (the `--log-out` file). Every record
    /// that passes the level filter is rendered in `format` and written
    /// (with a trailing newline) at emit time.
    pub fn set_sink(&self, writer: Box<dyn Write + Send>, format: SinkFormat) {
        if let Some(i) = &self.inner {
            *i.sink.lock().unwrap_or_else(|e| e.into_inner()) = Some((writer, format));
        }
    }

    /// Mirrors ring-buffer evictions into a registry counter (the
    /// `log_records_dropped_total` family).
    pub fn set_dropped_counter(&self, counter: Arc<Counter>) {
        if let Some(i) = &self.inner {
            *i.dropped_counter.lock().unwrap_or_else(|e| e.into_inner()) = Some(counter);
        }
    }

    /// Starts an event at `level`. The returned builder records the
    /// event when it drops (or on [`EventBuilder::emit`]); on a disabled
    /// log — or below the level floor — it is a no-op.
    pub fn event(&self, level: Level, target: &str, message: &str) -> EventBuilder<'_> {
        let pass = self.enabled_at(level);
        EventBuilder {
            log: self,
            data: pass.then(|| PendingEvent {
                level,
                target: target.to_string(),
                message: message.to_string(),
                trace_id: None,
                fields: Vec::new(),
            }),
        }
    }

    /// [`EventLog::event`] at `Debug`.
    pub fn debug(&self, target: &str, message: &str) -> EventBuilder<'_> {
        self.event(Level::Debug, target, message)
    }

    /// [`EventLog::event`] at `Info`.
    pub fn info(&self, target: &str, message: &str) -> EventBuilder<'_> {
        self.event(Level::Info, target, message)
    }

    /// [`EventLog::event`] at `Warn`.
    pub fn warn(&self, target: &str, message: &str) -> EventBuilder<'_> {
        self.event(Level::Warn, target, message)
    }

    /// [`EventLog::event`] at `Error`.
    pub fn error(&self, target: &str, message: &str) -> EventBuilder<'_> {
        self.event(Level::Error, target, message)
    }

    fn push(&self, pending: PendingEvent) {
        let Some(inner) = &self.inner else { return };
        let record = EventRecord {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed) + 1,
            elapsed_us: inner.epoch.elapsed().as_micros() as u64,
            level: pending.level,
            target: pending.target,
            message: pending.message,
            trace_id: pending.trace_id,
            fields: pending.fields,
        };
        {
            let mut sink = inner.sink.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((w, format)) = sink.as_mut() {
                let line = match format {
                    SinkFormat::Text => record.to_line(),
                    SinkFormat::Json => record.to_json_line(),
                };
                // A failed sink write must never take the daemon down;
                // the record still lands in the ring.
                let _ = writeln!(w, "{line}");
            }
        }
        let mut ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == inner.capacity {
            // Deterministic overflow: evict exactly the oldest record.
            ring.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            let counter = inner.dropped_counter.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(c) = counter.as_ref() {
                c.inc();
            }
        }
        ring.push_back(record);
    }

    /// Records evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.dropped.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Records emitted over the log's lifetime (evicted or not).
    pub fn total(&self) -> u64 {
        self.inner.as_ref().map(|i| i.seq.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Records currently buffered in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.ring.lock().unwrap_or_else(|e| e.into_inner()).len())
            .unwrap_or(0)
    }

    /// True when nothing is buffered (or the log is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the buffered window, oldest first.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        match &self.inner {
            Some(i) => i.ring.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Takes the buffered window out of the ring, oldest first.
    pub fn drain(&self) -> Vec<EventRecord> {
        match &self.inner {
            Some(i) => {
                std::mem::take(&mut *i.ring.lock().unwrap_or_else(|e| e.into_inner())).into()
            }
            None => Vec::new(),
        }
    }

    /// The buffered window rendered as key=value lines, oldest first.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&r.to_line());
            out.push('\n');
        }
        out
    }
}

struct PendingEvent {
    level: Level,
    target: String,
    message: String,
    trace_id: Option<String>,
    fields: Vec<(String, AttrValue)>,
}

/// Builder for one event; the event is recorded when the builder drops.
/// On a disabled (or level-filtered) log every method is a no-op.
pub struct EventBuilder<'a> {
    log: &'a EventLog,
    data: Option<PendingEvent>,
}

impl EventBuilder<'_> {
    /// Attaches a typed key/value field.
    pub fn field(mut self, key: &str, value: impl Into<AttrValue>) -> Self {
        if let Some(d) = &mut self.data {
            d.fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Stamps the event with a per-request trace id.
    pub fn trace_id(mut self, id: &str) -> Self {
        if let Some(d) = &mut self.data {
            d.trace_id = Some(id.to_string());
        }
        self
    }

    /// Records the event now (equivalent to dropping the builder).
    pub fn emit(self) {}
}

impl Drop for EventBuilder<'_> {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            self.log.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::disabled();
        log.info("t", "hello").field("k", 1u64).emit();
        assert!(!log.is_enabled());
        assert!(!log.enabled_at(Level::Error));
        assert_eq!(log.total(), 0);
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn level_floor_filters_and_orders() {
        assert!(Level::Trace < Level::Debug && Level::Warn < Level::Error);
        let log = EventLog::enabled(Level::Info);
        log.debug("t", "filtered").emit();
        log.info("t", "kept").emit();
        log.warn("t", "also kept").emit();
        assert_eq!(log.total(), 2);
        let recs = log.snapshot();
        assert_eq!(recs[0].message, "kept");
        assert_eq!(recs[0].seq, 1);
        assert_eq!(recs[1].level, Level::Warn);
        assert!(Level::parse("WARN") == Some(Level::Warn) && Level::parse("bogus").is_none());
    }

    #[test]
    fn ring_overflow_is_deterministic_at_capacity_plus_one() {
        let cap = 16usize;
        let log = EventLog::with_capacity(Level::Trace, cap);
        for i in 0..=cap {
            log.info("t", &format!("e{i}")).emit();
        }
        // capacity+1 emissions: exactly one eviction, the oldest record.
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.len(), cap);
        let seqs: Vec<u64> = log.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (2..=cap as u64 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn ring_overflow_is_deterministic_at_three_times_capacity() {
        let cap = 16usize;
        let log = EventLog::with_capacity(Level::Trace, cap);
        for i in 0..cap * 3 {
            log.info("t", &format!("e{i}")).emit();
        }
        // capacity×3 emissions: exactly 2×capacity oldest-first evictions;
        // the retained window is the last `capacity` records in order.
        assert_eq!(log.dropped(), 2 * cap as u64);
        assert_eq!(log.total(), 3 * cap as u64);
        let seqs: Vec<u64> = log.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (2 * cap as u64 + 1..=3 * cap as u64).collect::<Vec<_>>());
    }

    #[test]
    fn eviction_bumps_the_attached_registry_counter() {
        let reg = crate::metrics::Registry::new();
        let c = reg.counter(
            "log_records_dropped_total",
            &[],
            crate::metrics::Volatility::Deterministic,
            "evictions",
        );
        let log = EventLog::with_capacity(Level::Trace, 2);
        log.set_dropped_counter(Arc::clone(&c));
        for i in 0..5 {
            log.info("t", &format!("e{i}")).emit();
        }
        assert_eq!(log.dropped(), 3);
        assert_eq!(c.get(), 3);
        assert!(reg.render().contains("log_records_dropped_total 3"));
    }

    #[test]
    fn line_rendering_escapes_and_carries_fields() {
        let log = EventLog::with_capacity(Level::Trace, 4);
        log.warn("daemon", "parse error: bad \"escape\"")
            .trace_id("00ab12cd34ef5678")
            .field("line", 3u64)
            .field("detail", "tab\there")
            .field("ok", false)
            .emit();
        let rec = &log.snapshot()[0];
        let line = rec.to_line();
        assert!(line.starts_with("seq=1 ts_us="), "{line}");
        assert!(line.contains("level=warn target=daemon trace_id=00ab12cd34ef5678"), "{line}");
        assert!(line.contains("msg=\"parse error: bad \\\"escape\\\"\""), "{line}");
        assert!(line.contains("line=3"), "{line}");
        assert!(line.contains("detail=\"tab\\there\""), "{line}");
        assert!(line.contains("ok=false"), "{line}");
        let json = rec.to_json_line();
        let v = extractocol_http::JsonValue::parse(&json).expect("valid JSON line");
        assert_eq!(v.get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some("00ab12cd34ef5678"));
        assert_eq!(v.get("line").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn sink_receives_every_record_including_evicted_ones() {
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let log = EventLog::with_capacity(Level::Info, 2);
        log.set_sink(Box::new(buf.clone()), SinkFormat::Text);
        for i in 0..4 {
            log.info("t", &format!("e{i}")).emit();
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        // All four records hit the sink even though the ring kept two.
        assert_eq!(text.lines().count(), 4, "{text}");
        assert_eq!(log.len(), 2);
        assert!(text.contains("msg=e0") && text.contains("msg=e3"), "{text}");
    }

    #[test]
    fn drain_empties_the_ring() {
        let log = EventLog::enabled(Level::Debug);
        log.info("t", "a").emit();
        log.debug("t", "b").emit();
        assert_eq!(log.drain().len(), 2);
        assert!(log.is_empty());
        assert_eq!(log.total(), 2, "drain does not reset lifetime counters");
    }
}
