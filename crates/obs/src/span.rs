//! The span tree: RAII timed spans with typed attributes, collected into
//! a thread-safe, capacity-capped buffer.
//!
//! A [`TraceCollector`] is either **enabled** (it owns a shared record
//! buffer) or **disabled** (a no-op handle). The disabled path takes no
//! timestamps and allocates nothing — one `Option` check per call — so
//! instrumented code can thread a collector through hot paths
//! unconditionally and pay only when tracing was requested.
//!
//! [`TraceCollector::span`] returns a [`SpanGuard`]; the span covers the
//! guard's lifetime. Guards nest through a per-thread stack: a span
//! opened while another is open on the same thread becomes its child,
//! which is what turns flat records into the phase → DP → step tree. The
//! `core::par` worker pools interact naturally — each worker thread roots
//! its own stack, and every record carries a stable small thread id, so
//! exporters render one lane per worker.
//!
//! Guards are intentionally `!Send`: a span must end on the thread that
//! started it, otherwise the nesting stack would corrupt.
//!
//! The buffer is capped ([`TraceCollector::with_capacity`]): once full,
//! further spans are counted in [`TraceCollector::dropped`] and
//! discarded, so tracing a heavy-traffic run cannot OOM the collector.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default span-buffer capacity: enough for the whole 34-app corpus with
/// per-DP and per-step spans, small enough (~tens of MB worst case) to
/// stay friendly under heavy serving traffic.
pub const DEFAULT_SPAN_CAPACITY: usize = 262_144;

/// A typed attribute value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counts, ids).
    Uint(u64),
    /// Floating point.
    Float(f64),
    /// Free-form text (method signatures, verdicts).
    Str(String),
    /// Boolean flag (cache hit/miss, matched).
    Bool(bool),
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Uint(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Uint(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name (e.g. `phase:slicing`, `dp:3`).
    pub name: String,
    /// Category lane (e.g. `phase`, `dp`, `classify`).
    pub cat: String,
    /// Start, nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the collector's epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Time spent in this span *excluding* child spans, nanoseconds.
    pub self_ns: u64,
    /// Stable small id of the recording thread.
    pub tid: u64,
    /// Nesting depth on the recording thread (0 = thread root).
    pub depth: usize,
    /// The `;`-joined ancestor path including this span's own name — the
    /// collapsed-stack key.
    pub stack: String,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    epoch: Instant,
    capacity: usize,
    records: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct Frame {
    name: String,
    child_ns: u64,
}

thread_local! {
    /// Stable per-thread id, assigned on first span from this thread.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// The open-span stack of this thread (names + child-time accumulators).
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The span collector handle. Cheap to clone; all clones feed one buffer.
#[derive(Clone)]
pub struct TraceCollector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(
                f,
                "TraceCollector(enabled, {} recorded)",
                i.records.lock().map(|r| r.len()).unwrap_or(0)
            ),
            None => write!(f, "TraceCollector(disabled)"),
        }
    }
}

impl TraceCollector {
    /// An enabled collector with the default span capacity.
    pub fn enabled() -> TraceCollector {
        TraceCollector::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled collector that keeps at most `capacity` spans; further
    /// spans are counted as dropped.
    pub fn with_capacity(capacity: usize) -> TraceCollector {
        TraceCollector {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                capacity,
                records: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op collector: spans cost one branch, record nothing.
    pub fn disabled() -> TraceCollector {
        TraceCollector { inner: None }
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span in the default `task` category.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        self.span_in("task", name)
    }

    /// Opens a span in an explicit category. The span ends (and is
    /// recorded) when the returned guard drops.
    pub fn span_in(&self, cat: &str, name: impl Into<String>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { state: None, _not_send: PhantomData };
        };
        let name = name.into();
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        let (depth, stack) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let mut path = String::new();
            for f in s.iter() {
                path.push_str(&f.name);
                path.push(';');
            }
            path.push_str(&name);
            let depth = s.len();
            s.push(Frame { name: name.clone(), child_ns: 0 });
            (depth, path)
        });
        SpanGuard {
            state: Some(GuardState {
                inner: Arc::clone(inner),
                name,
                cat: cat.to_string(),
                start_ns,
                depth,
                stack,
                attrs: Vec::new(),
            }),
            _not_send: PhantomData,
        }
    }

    /// Spans dropped because the buffer hit its capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.dropped.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map(|i| i.records.lock().expect("span buffer").len()).unwrap_or(0)
    }

    /// True when nothing has been recorded (or the collector is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every recorded span out of the buffer. Records are in
    /// completion order (children before parents); exporters re-sort.
    pub fn drain(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(i) => std::mem::take(&mut *i.records.lock().expect("span buffer")),
            None => Vec::new(),
        }
    }

    /// A copy of every recorded span, leaving the buffer intact.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(i) => i.records.lock().expect("span buffer").clone(),
            None => Vec::new(),
        }
    }
}

struct GuardState {
    inner: Arc<Inner>,
    name: String,
    cat: String,
    start_ns: u64,
    depth: usize,
    stack: String,
    attrs: Vec<(String, AttrValue)>,
}

/// RAII handle for one open span; records the span on drop. `!Send` by
/// construction — the span must end on the thread that opened it.
pub struct SpanGuard {
    state: Option<GuardState>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attaches (or appends) a typed attribute. No-op on disabled spans.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) -> &mut Self {
        if let Some(state) = &mut self.state {
            state.attrs.push((key.to_string(), value.into()));
        }
        self
    }

    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        let end_ns = state.inner.epoch.elapsed().as_nanos() as u64;
        let dur_ns = end_ns.saturating_sub(state.start_ns);
        let child_ns = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let child_ns = s.pop().map(|f| f.child_ns).unwrap_or(0);
            if let Some(parent) = s.last_mut() {
                parent.child_ns += dur_ns;
            }
            child_ns
        });
        let tid = TID.with(|t| *t);
        let record = SpanRecord {
            name: state.name,
            cat: state.cat,
            start_ns: state.start_ns,
            end_ns,
            self_ns: dur_ns.saturating_sub(child_ns),
            tid,
            depth: state.depth,
            stack: state.stack,
            attrs: state.attrs,
        };
        let mut records = state.inner.records.lock().expect("span buffer");
        if records.len() < state.inner.capacity {
            records.push(record);
        } else {
            drop(records);
            state.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Default number of slow-request exemplars a daemon retains.
pub const DEFAULT_EXEMPLAR_CAPACITY: usize = 8;

/// One retained slow request: its trace id, latency, verdict, and the
/// span records that covered it — enough to explain *why* it was slow
/// without replaying traffic.
#[derive(Clone, Debug)]
pub struct Exemplar {
    /// The request's deterministic trace id (16 hex digits).
    pub trace_id: String,
    /// End-to-end request latency in microseconds.
    pub latency_us: u64,
    /// Classification verdict (`match`, `unmatched`, `error`, ...).
    pub verdict: String,
    /// Free-form detail (matched signature, error message).
    pub detail: String,
    /// The spans recorded under this request, completion order.
    pub spans: Vec<SpanRecord>,
}

/// Top-K slowest-request store. `offer` is designed for the classify hot
/// path: once the store is full, a request no slower than the current
/// floor is rejected with a single atomic load — no lock, and the
/// exemplar is never built — so steady-state traffic pays (near) nothing.
///
/// Ties keep the earlier arrival, so replaying identical traffic yields
/// an identical exemplar set.
pub struct ExemplarStore {
    capacity: usize,
    /// Smallest retained latency once full; 0 while filling. Advisory
    /// fast-reject only — the lock re-checks before mutating.
    floor_us: AtomicU64,
    slots: Mutex<Vec<Exemplar>>,
}

impl ExemplarStore {
    /// A store retaining the `capacity` slowest requests.
    pub fn new(capacity: usize) -> ExemplarStore {
        ExemplarStore {
            capacity: capacity.max(1),
            floor_us: AtomicU64::new(0),
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Offers a finished request that took `latency_us`; retained only if
    /// it ranks among the top-K slowest seen so far. `build` makes the
    /// exemplar (given `latency_us`) and runs only when the request gets
    /// past the floor.
    pub fn offer(&self, latency_us: u64, build: impl FnOnce(u64) -> Exemplar) {
        // Fast reject: full store, request not slower than the floor.
        if latency_us <= self.floor_us.load(Ordering::Relaxed) {
            return;
        }
        let exemplar = build(latency_us);
        let mut slots = self.slots.lock().expect("exemplar store");
        slots.push(exemplar);
        // Stable sort: equal latencies keep arrival order, so the
        // eviction below deterministically drops the latest tie.
        slots.sort_by_key(|e| std::cmp::Reverse(e.latency_us));
        slots.truncate(self.capacity);
        if slots.len() == self.capacity {
            let floor = slots.last().map(|e| e.latency_us).unwrap_or(0);
            self.floor_us.store(floor, Ordering::Relaxed);
        }
    }

    /// Retained exemplars, slowest first.
    pub fn snapshot(&self) -> Vec<Exemplar> {
        self.slots.lock().expect("exemplar store").clone()
    }

    /// Retained count.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("exemplar store").len()
    }

    /// True when nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity (K).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders the store as text: one header line per exemplar followed
    /// by one indented line per span — the payload of the daemon's
    /// `SLOW` verb.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.snapshot() {
            let _ = writeln!(
                out,
                "trace_id={} latency_us={} verdict={} detail={} spans={}",
                e.trace_id,
                e.latency_us,
                e.verdict,
                if e.detail.is_empty() { "-" } else { &e.detail },
                e.spans.len()
            );
            for s in &e.spans {
                let _ = writeln!(
                    out,
                    "  span name={} cat={} dur_us={} self_us={}",
                    s.name,
                    s.cat,
                    s.dur_ns() / 1_000,
                    s.self_ns / 1_000
                );
            }
        }
        out
    }
}

impl std::fmt::Debug for ExemplarStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExemplarStore({}/{})", self.len(), self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let t = TraceCollector::disabled();
        assert!(!t.is_enabled());
        {
            let mut g = t.span("work");
            g.attr("k", 1u64);
            assert!(!g.is_recording());
        }
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn spans_nest_and_accumulate_self_time() {
        let t = TraceCollector::enabled();
        {
            let mut outer = t.span_in("phase", "outer");
            outer.attr("app", "demo");
            {
                let _inner = t.span_in("dp", "inner");
            }
        }
        let mut records = t.drain();
        assert_eq!(records.len(), 2);
        // Completion order: inner first.
        let inner = records.remove(0);
        let outer = records.remove(0);
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.stack, "outer;inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.stack, "outer");
        assert_eq!(outer.attrs, vec![("app".to_string(), AttrValue::Str("demo".into()))]);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert!(outer.self_ns <= outer.dur_ns());
        assert_eq!(outer.self_ns, outer.dur_ns() - inner.dur_ns());
    }

    #[test]
    fn capacity_cap_counts_drops() {
        let t = TraceCollector::with_capacity(2);
        for i in 0..5 {
            let _g = t.span(format!("s{i}"));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn worker_threads_get_distinct_tids() {
        let t = TraceCollector::enabled();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let t = t.clone();
                s.spawn(move || {
                    let _g = t.span("worker");
                });
            }
        });
        let records = t.drain();
        assert_eq!(records.len(), 3);
        let tids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 3, "each thread has its own tid");
        // All thread roots.
        assert!(records.iter().all(|r| r.depth == 0));
    }

    #[test]
    fn snapshot_leaves_buffer_intact() {
        let t = TraceCollector::enabled();
        {
            let _g = t.span("a");
        }
        assert_eq!(t.snapshot().len(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.drain().len(), 1);
        assert!(t.is_empty());
    }

    fn ex(id: &str, us: u64) -> Exemplar {
        Exemplar {
            trace_id: id.to_string(),
            latency_us: us,
            verdict: "match".to_string(),
            detail: String::new(),
            spans: Vec::new(),
        }
    }

    fn offer(store: &ExemplarStore, id: &str, us: u64) {
        store.offer(us, |us| ex(id, us));
    }

    #[test]
    fn exemplar_store_keeps_top_k_slowest() {
        let store = ExemplarStore::new(3);
        assert!(store.is_empty());
        for (id, us) in [("a", 10), ("b", 50), ("c", 20), ("d", 5), ("e", 40)] {
            offer(&store, id, us);
        }
        let kept: Vec<(String, u64)> =
            store.snapshot().into_iter().map(|e| (e.trace_id, e.latency_us)).collect();
        assert_eq!(kept, vec![("b".to_string(), 50), ("e".to_string(), 40), ("c".to_string(), 20)]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.capacity(), 3);
    }

    #[test]
    fn exemplar_store_fast_rejects_at_floor_and_breaks_ties_first_wins() {
        let store = ExemplarStore::new(2);
        offer(&store, "a", 30);
        offer(&store, "b", 30); // tie: both fit while filling
        offer(&store, "c", 30); // tie at the floor: fast-rejected
        let kept: Vec<String> = store.snapshot().into_iter().map(|e| e.trace_id).collect();
        assert_eq!(kept, vec!["a".to_string(), "b".to_string()]);
        offer(&store, "d", 31); // strictly slower: evicts the floor tie
        let kept: Vec<String> = store.snapshot().into_iter().map(|e| e.trace_id).collect();
        assert_eq!(kept, vec!["d".to_string(), "a".to_string()]);
    }

    #[test]
    fn exemplar_store_never_builds_a_below_floor_exemplar() {
        let store = ExemplarStore::new(2);
        offer(&store, "a", 30);
        offer(&store, "b", 40);
        for us in [0, 29, 30] {
            store.offer(us, |_| panic!("built an exemplar at {us} us, floor 30 us"));
        }
        let mut built = 0;
        store.offer(31, |us| {
            built += 1;
            ex("c", us)
        });
        assert_eq!(built, 1);
        let kept: Vec<String> = store.snapshot().into_iter().map(|e| e.trace_id).collect();
        assert_eq!(kept, vec!["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn exemplar_render_includes_spans() {
        let t = TraceCollector::enabled();
        {
            let _g = t.span_in("daemon", "daemon_request");
        }
        let store = ExemplarStore::new(1);
        let mut e = ex("00000000deadbeef", 7);
        e.spans = t.drain();
        e.detail = "sig:42".to_string();
        store.offer(7, |_| e);
        let text = store.render();
        assert!(text.contains("trace_id=00000000deadbeef latency_us=7 verdict=match"), "{text}");
        assert!(text.contains("detail=sig:42 spans=1"), "{text}");
        assert!(text.contains("  span name=daemon_request cat=daemon"), "{text}");
    }
}
