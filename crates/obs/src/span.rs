//! Spans and the in-process flight recorder.
//!
//! A [`Span`] is one timed step of a request: id, parent id, name,
//! start, duration, `key=value` attributes, and an error flag. Spans
//! record into a per-process [`FlightRecorder`] — a bounded ring of
//! recently completed traces, **tail-biased**: when the ring wraps,
//! fast-and-fine traces are evicted before slow or erroring ones, so
//! the traces an operator actually wants to look at survive longest.
//!
//! The serving stack is thread-per-request (a handler runs start to
//! finish on one worker thread), which makes span context a
//! thread-local stack instead of a parameter threaded through every
//! signature: the root [`SpanGuard`] pushes `(recorder, trace, span)`
//! onto the stack, [`child`] opens a sub-span under whatever is
//! current, and [`current`] reads the active ids for header
//! propagation. Code deep in the stack (the durable log's append path)
//! records spans without knowing who is serving the request.
//!
//! Across the fleet hop, context travels in the `X-Span-Context`
//! header as `trace:parent` — the router's upstream-leg span id
//! becomes the parent of the backend's root span, so the assembled
//! trace is one tree spanning both processes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::trace::{mint_trace_id, sanitize_trace_id};

/// The header carrying `trace:parent` span context across the fleet
/// hop (both halves sanitized like request ids).
pub const SPAN_CONTEXT_HEADER: &str = "X-Span-Context";

/// Default capacity of the committed-trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 128;

/// Upper bound on spans retained per trace; later spans are dropped
/// (telemetry must stay bounded even for pathological requests).
pub const MAX_SPANS_PER_TRACE: usize = 256;

/// Upper bound on concurrently *open* traces tracked by the recorder;
/// beyond it the oldest open trace is force-committed.
const MAX_ACTIVE_TRACES: usize = 64;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to (the request's `X-Request-Id`).
    pub trace_id: String,
    /// This span's id (16 hex chars, minted like trace ids).
    pub span_id: String,
    /// Parent span id; `None` for a hop-local root with no remote
    /// parent.
    pub parent_id: Option<String>,
    /// Span name, e.g. `serve.characterize` or `stage.view_search`.
    pub name: String,
    /// Wall-clock start (µs since the Unix epoch).
    pub start_unix_us: u64,
    /// Duration, µs.
    pub duration_us: u64,
    /// `key=value` attributes, in recording order.
    pub attrs: Vec<(String, String)>,
    /// Whether the step failed (4xx/5xx, IO error, …).
    pub error: bool,
}

/// One committed trace: its spans plus the summary fields the ring's
/// eviction policy and the `/debug/traces` listing need.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// The trace id.
    pub trace_id: String,
    /// Root span name (e.g. `serve.request`).
    pub root_name: String,
    /// Root span's `route` attribute, if recorded (listing filter key).
    pub route: Option<String>,
    /// Wall-clock start of the root span (µs since the Unix epoch).
    pub start_unix_us: u64,
    /// Root span duration, µs.
    pub duration_us: u64,
    /// Whether any span in the trace errored.
    pub error: bool,
    /// Every span of the trace recorded in this process, root included.
    pub spans: Vec<Span>,
}

impl TraceEntry {
    /// Whether the ring's tail-biased eviction pins this trace (slow
    /// or erroring traces outlive fast-and-fine ones).
    fn pinned(&self, slow_us: u64) -> bool {
        self.error || self.duration_us >= slow_us
    }
}

struct ActiveTrace {
    spans: Vec<Span>,
    opened: Instant,
}

/// A per-process bounded ring of recently completed traces.
///
/// Open traces accumulate spans in a side map; when the root span
/// finishes, the whole trace commits into the ring. When the ring is
/// full, the oldest *non-pinned* (fast and error-free) trace is
/// evicted first; only when every resident trace is pinned does plain
/// FIFO apply.
pub struct FlightRecorder {
    capacity: usize,
    slow_us: u64,
    active: Mutex<HashMap<String, ActiveTrace>>,
    ring: Mutex<VecDeque<TraceEntry>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("slow_us", &self.slow_us)
            .finish_non_exhaustive()
    }
}

fn now_unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` committed traces, pinning
    /// traces at or past `slow_us` against eviction.
    pub fn new(capacity: usize, slow_us: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            slow_us,
            active: Mutex::new(HashMap::new()),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The slow-trace pin threshold, µs.
    pub fn slow_us(&self) -> u64 {
        self.slow_us
    }

    /// Registers `trace_id` in the active-trace map (evicting the
    /// longest-open trace when the map is full, exactly like [`root`]).
    fn ensure_active(&self, trace_id: &str) {
        let mut active = self.active.lock().expect("flight recorder active lock");
        if active.len() >= MAX_ACTIVE_TRACES {
            // Force-commit the longest-open trace (its root guard
            // leaked or is wedged); its spans beat losing them.
            let longest_open = active
                .iter()
                .max_by_key(|(_, t)| t.opened.elapsed())
                .map(|(k, _)| k.clone());
            if let Some(id) = longest_open {
                if let Some(t) = active.remove(&id) {
                    drop(active);
                    self.commit_loose(&id, t.spans);
                    active = self.active.lock().expect("flight recorder active lock");
                }
            }
        }
        active.entry(trace_id.to_string()).or_insert(ActiveTrace {
            spans: Vec::new(),
            opened: Instant::now(),
        });
    }

    /// Opens `trace_id` without touching thread-local span context —
    /// the event-loop entry point. A reactor thread interleaves many
    /// requests, so a per-thread guard stack cannot represent "the
    /// current request"; instead the data plane opens the trace here,
    /// records legs with [`record_finished`], and closes the trace
    /// with [`commit_root`].
    pub fn open_trace(&self, trace_id: &str) {
        self.ensure_active(trace_id);
    }

    /// Appends an already-finished span *preserving its caller-minted
    /// span id* — required when the id was propagated to another
    /// process (the router's upstream-leg span id travels in
    /// `X-Span-Context` and becomes the parent of the backend's root,
    /// so the recorded leg must carry that exact id). Lands in the
    /// open trace when one exists, else in the committed ring entry;
    /// spans for unknown traces are dropped.
    pub fn record_finished(&self, span: Span) {
        {
            let mut active = self.active.lock().expect("flight recorder active lock");
            if let Some(t) = active.get_mut(&span.trace_id) {
                if t.spans.len() < MAX_SPANS_PER_TRACE {
                    t.spans.push(span);
                }
                return;
            }
        }
        let mut ring = self.ring.lock().expect("flight recorder ring lock");
        if let Some(entry) = ring.iter_mut().find(|e| e.trace_id == span.trace_id) {
            if entry.spans.len() < MAX_SPANS_PER_TRACE {
                entry.error |= span.error;
                entry.spans.push(span);
            }
        }
    }

    /// Finishes `root` and commits its whole trace to the ring — the
    /// event-loop counterpart of a root [`SpanGuard`] dropping. Spans
    /// previously recorded under the same trace (via
    /// [`record_finished`] or [`record_span`]) ride along.
    pub fn commit_root(&self, root: Span) {
        self.finish_root(root);
    }

    /// Opens the root span of `trace_id` in this process and makes it
    /// the thread's current span context. `parent` is the remote
    /// parent span id carried by `X-Span-Context`, if any.
    pub fn root(self: &Arc<Self>, trace_id: &str, parent: Option<&str>, name: &str) -> SpanGuard {
        self.ensure_active(trace_id);
        let guard = SpanGuard {
            recorder: Arc::clone(self),
            trace_id: trace_id.to_string(),
            span_id: mint_trace_id(),
            parent_id: parent.map(str::to_string),
            name: name.to_string(),
            start: Instant::now(),
            start_unix_us: now_unix_us(),
            attrs: Vec::new(),
            error: false,
            root: true,
        };
        push_context(Arc::clone(self), &guard.trace_id, &guard.span_id);
        guard
    }

    /// Appends an already-finished span to its trace — the escape
    /// hatch for spans measured outside a guard (stage timings lifted
    /// from a report). Lands in the open
    /// trace when one exists, else in the committed ring entry; spans
    /// for unknown traces are dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        trace_id: &str,
        parent_id: Option<&str>,
        name: &str,
        start_unix_us: u64,
        duration_us: u64,
        attrs: &[(&str, String)],
        error: bool,
    ) {
        self.record_finished(Span {
            trace_id: trace_id.to_string(),
            span_id: mint_trace_id(),
            parent_id: parent_id.map(str::to_string),
            name: name.to_string(),
            start_unix_us,
            duration_us,
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            error,
        });
    }

    fn finish_child(&self, span: Span) {
        let mut active = self.active.lock().expect("flight recorder active lock");
        if let Some(t) = active.get_mut(&span.trace_id) {
            if t.spans.len() < MAX_SPANS_PER_TRACE {
                t.spans.push(span);
            }
        }
    }

    fn finish_root(&self, root: Span) {
        let collected = self
            .active
            .lock()
            .expect("flight recorder active lock")
            .remove(&root.trace_id)
            .map(|t| t.spans)
            .unwrap_or_default();
        let route = root
            .attrs
            .iter()
            .find(|(k, _)| k == "route")
            .map(|(_, v)| v.clone());
        let mut entry = TraceEntry {
            trace_id: root.trace_id.clone(),
            root_name: root.name.clone(),
            route,
            start_unix_us: root.start_unix_us,
            duration_us: root.duration_us,
            error: root.error || collected.iter().any(|s| s.error),
            spans: Vec::with_capacity(collected.len() + 1),
        };
        entry.spans.push(root);
        entry.spans.extend(collected);
        self.commit(entry);
    }

    /// Commits spans whose root guard never closed (forced eviction
    /// from the active map).
    fn commit_loose(&self, trace_id: &str, spans: Vec<Span>) {
        let entry = TraceEntry {
            trace_id: trace_id.to_string(),
            root_name: spans
                .first()
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "unknown".into()),
            route: None,
            start_unix_us: spans.first().map(|s| s.start_unix_us).unwrap_or(0),
            duration_us: spans.iter().map(|s| s.duration_us).max().unwrap_or(0),
            error: spans.iter().any(|s| s.error),
            spans,
        };
        self.commit(entry);
    }

    fn commit(&self, entry: TraceEntry) {
        let mut ring = self.ring.lock().expect("flight recorder ring lock");
        if ring.len() >= self.capacity {
            // Tail-biased eviction: the oldest fast-and-fine trace
            // goes first; FIFO only when everything resident is
            // pinned (slow or erroring).
            let victim = ring
                .iter()
                .position(|e| !e.pinned(self.slow_us))
                .unwrap_or(0);
            ring.remove(victim);
        }
        ring.push_back(entry);
    }

    /// The committed traces, newest first.
    pub fn recent(&self) -> Vec<TraceEntry> {
        let ring = self.ring.lock().expect("flight recorder ring lock");
        ring.iter().rev().cloned().collect()
    }

    /// One trace by id — committed entries first, then still-open ones
    /// (a root that hasn't finished yet shows its spans so far).
    pub fn trace(&self, trace_id: &str) -> Option<TraceEntry> {
        {
            let ring = self.ring.lock().expect("flight recorder ring lock");
            if let Some(entry) = ring.iter().find(|e| e.trace_id == trace_id) {
                return Some(entry.clone());
            }
        }
        let active = self.active.lock().expect("flight recorder active lock");
        active.get(trace_id).map(|t| TraceEntry {
            trace_id: trace_id.to_string(),
            root_name: "(in flight)".into(),
            route: None,
            start_unix_us: t.spans.first().map(|s| s.start_unix_us).unwrap_or(0),
            duration_us: 0,
            error: t.spans.iter().any(|s| s.error),
            spans: t.spans.clone(),
        })
    }
}

/// An open span, closed (and recorded) on drop.
///
/// Root guards (from [`FlightRecorder::root`]) also own the thread's
/// span-context frame; child guards (from [`child`]) nest under it.
pub struct SpanGuard {
    recorder: Arc<FlightRecorder>,
    trace_id: String,
    span_id: String,
    parent_id: Option<String>,
    name: String,
    start: Instant,
    start_unix_us: u64,
    attrs: Vec<(String, String)>,
    error: bool,
    root: bool,
}

impl SpanGuard {
    /// This span's id.
    pub fn span_id(&self) -> &str {
        &self.span_id
    }

    /// The trace this span belongs to.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Attaches a `key=value` attribute.
    pub fn attr(&mut self, key: &str, value: impl Into<String>) {
        self.attrs.push((key.to_string(), value.into()));
    }

    /// Marks the span as failed.
    pub fn set_error(&mut self, error: bool) {
        self.error = error;
    }

    /// Elapsed time since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let span = Span {
            trace_id: std::mem::take(&mut self.trace_id),
            span_id: std::mem::take(&mut self.span_id),
            parent_id: self.parent_id.take(),
            name: std::mem::take(&mut self.name),
            start_unix_us: self.start_unix_us,
            duration_us: self.start.elapsed().as_micros() as u64,
            attrs: std::mem::take(&mut self.attrs),
            error: self.error,
        };
        pop_context();
        if self.root {
            self.recorder.finish_root(span);
        } else {
            self.recorder.finish_child(span);
        }
    }
}

struct CtxFrame {
    recorder: Arc<FlightRecorder>,
    trace_id: String,
    span_id: String,
}

thread_local! {
    static CONTEXT: RefCell<Vec<CtxFrame>> = const { RefCell::new(Vec::new()) };
}

fn push_context(recorder: Arc<FlightRecorder>, trace_id: &str, span_id: &str) {
    CONTEXT.with(|ctx| {
        ctx.borrow_mut().push(CtxFrame {
            recorder,
            trace_id: trace_id.to_string(),
            span_id: span_id.to_string(),
        })
    });
}

fn pop_context() {
    CONTEXT.with(|ctx| {
        ctx.borrow_mut().pop();
    });
}

/// Opens a child span under the thread's current span context, or
/// returns `None` when no root is active on this thread (instrumented
/// code running outside a request records nothing).
pub fn child(name: &str) -> Option<SpanGuard> {
    let (recorder, trace_id, parent_id) = CONTEXT.with(|ctx| {
        ctx.borrow().last().map(|f| {
            (
                Arc::clone(&f.recorder),
                f.trace_id.clone(),
                f.span_id.clone(),
            )
        })
    })?;
    let guard = SpanGuard {
        recorder,
        trace_id,
        span_id: mint_trace_id(),
        parent_id: Some(parent_id),
        name: name.to_string(),
        start: Instant::now(),
        start_unix_us: now_unix_us(),
        attrs: Vec::new(),
        error: false,
        root: false,
    };
    push_context(Arc::clone(&guard.recorder), &guard.trace_id, &guard.span_id);
    Some(guard)
}

/// The thread's current `(trace_id, span_id)`, for header propagation
/// and out-of-band span recording; `None` outside a request.
pub fn current() -> Option<(String, String)> {
    CONTEXT.with(|ctx| {
        ctx.borrow()
            .last()
            .map(|f| (f.trace_id.clone(), f.span_id.clone()))
    })
}

/// Removes an adopted span-context frame when dropped; see [`adopt`].
pub struct AdoptGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        pop_context();
    }
}

/// Installs a span-context frame on *this* thread, so [`child`] spans
/// opened here nest under a root that lives on another thread. Pairs
/// with [`current_recorder`]: a request handler captures its frame,
/// fans work out to scoped threads, and each worker adopts the frame
/// for its lifetime (the guard pops it on drop) — that is how the
/// router's parallel ingest legs end up inside the request's trace.
pub fn adopt(recorder: Arc<FlightRecorder>, trace_id: &str, span_id: &str) -> AdoptGuard {
    push_context(recorder, trace_id, span_id);
    AdoptGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// The thread's current context frame *including its recorder* — for
/// recording spans that did not run under a guard on this thread
/// (pipeline stages tiled back from their timings) or for handing the
/// context to worker threads through [`adopt`].
pub fn current_recorder() -> Option<(Arc<FlightRecorder>, String, String)> {
    CONTEXT.with(|ctx| {
        ctx.borrow().last().map(|f| {
            (
                Arc::clone(&f.recorder),
                f.trace_id.clone(),
                f.span_id.clone(),
            )
        })
    })
}

/// Renders the `X-Span-Context` value: `trace:parent`.
pub fn encode_span_context(trace_id: &str, span_id: &str) -> String {
    format!("{trace_id}:{span_id}")
}

/// Parses and sanitizes an `X-Span-Context` value back into
/// `(trace, parent)`; both halves must pass the request-id alphabet
/// check or the whole header is discarded.
pub fn parse_span_context(raw: &str) -> Option<(&str, &str)> {
    let (trace, parent) = raw.trim().split_once(':')?;
    Some((sanitize_trace_id(trace)?, sanitize_trace_id(parent)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recorder() -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder::new(4, 250_000))
    }

    #[test]
    fn root_and_children_assemble_one_trace() {
        let rec = recorder();
        {
            let mut root = rec.root("trace-1", None, "serve.request");
            root.attr("route", "characterize");
            {
                let mut c = child("serve.handler").expect("context active");
                c.attr("reuse", "3");
                let grandchild = child("stage.prepare").expect("context active");
                drop(grandchild);
                drop(c);
            }
            assert!(current().is_some());
        }
        assert!(current().is_none(), "context must unwind with the root");
        let entry = rec.trace("trace-1").expect("trace committed");
        assert_eq!(entry.root_name, "serve.request");
        assert_eq!(entry.route.as_deref(), Some("characterize"));
        assert_eq!(entry.spans.len(), 3);
        let root_id = &entry.spans[0].span_id;
        let handler = entry
            .spans
            .iter()
            .find(|s| s.name == "serve.handler")
            .unwrap();
        assert_eq!(handler.parent_id.as_ref(), Some(root_id));
        let stage = entry
            .spans
            .iter()
            .find(|s| s.name == "stage.prepare")
            .unwrap();
        assert_eq!(stage.parent_id.as_ref(), Some(&handler.span_id));
        assert!(!entry.error);
    }

    #[test]
    fn no_context_means_no_span() {
        assert!(child("orphan").is_none());
        assert!(current().is_none());
    }

    #[test]
    fn tail_biased_eviction_pins_slow_and_erroring_traces() {
        let rec = Arc::new(FlightRecorder::new(2, 1_000_000));
        {
            let mut g = rec.root("slow", None, "r");
            g.set_error(true); // Pinned via the error flag.
        }
        drop(rec.root("fast-1", None, "r"));
        drop(rec.root("fast-2", None, "r"));
        // Capacity 2: fast-1 must have been evicted, not `slow`.
        assert!(rec.trace("slow").is_some(), "pinned trace evicted");
        assert!(rec.trace("fast-1").is_none());
        assert!(rec.trace("fast-2").is_some());
        // All-pinned ring degrades to FIFO instead of growing.
        {
            let mut g = rec.root("err-1", None, "r");
            g.set_error(true);
        }
        {
            let mut g = rec.root("err-2", None, "r");
            g.set_error(true);
        }
        assert_eq!(rec.recent().len(), 2);
    }

    #[test]
    fn record_span_lands_in_committed_traces() {
        let rec = recorder();
        drop(rec.root("t", None, "serve.request"));
        rec.record_span(
            "t",
            None,
            "durable.fsync",
            now_unix_us(),
            1234,
            &[("batch", "3".to_string())],
            false,
        );
        let entry = rec.trace("t").unwrap();
        assert_eq!(entry.spans.len(), 2);
        let fsync = entry.spans.iter().find(|s| s.name == "durable.fsync");
        assert_eq!(fsync.unwrap().attrs, vec![("batch".into(), "3".into())]);
        // Unknown traces are dropped silently.
        rec.record_span("nope", None, "x", 0, 1, &[], false);
        assert!(rec.trace("nope").is_none());
    }

    #[test]
    fn manual_open_record_commit_assembles_event_loop_trace() {
        // The reactor path: no thread-local guards, caller-minted span
        // ids, interleaved traces on one thread.
        let rec = recorder();
        rec.open_trace("evt-a");
        rec.open_trace("evt-b");
        let start = now_unix_us();
        rec.record_finished(Span {
            trace_id: "evt-a".into(),
            span_id: "leg00000000000a".into(),
            parent_id: Some("root0000000000a".into()),
            name: "fleet.upstream".into(),
            start_unix_us: start,
            duration_us: 7,
            attrs: vec![("backend".into(), "shard-0".into())],
            error: false,
        });
        rec.commit_root(Span {
            trace_id: "evt-b".into(),
            span_id: "root0000000000b".into(),
            parent_id: None,
            name: "fleet.request".into(),
            start_unix_us: start,
            duration_us: 11,
            attrs: vec![("route".into(), "characterize".into())],
            error: false,
        });
        rec.commit_root(Span {
            trace_id: "evt-a".into(),
            span_id: "root0000000000a".into(),
            parent_id: None,
            name: "fleet.request".into(),
            start_unix_us: start,
            duration_us: 13,
            attrs: vec![("route".into(), "characterize".into())],
            error: false,
        });
        let a = rec.trace("evt-a").expect("trace a committed");
        assert_eq!(a.root_name, "fleet.request");
        assert_eq!(a.route.as_deref(), Some("characterize"));
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.spans[0].span_id, "root0000000000a");
        let leg = a.spans.iter().find(|s| s.name == "fleet.upstream").unwrap();
        // The caller-minted leg id survives verbatim (it was already
        // propagated to the backend as the remote parent).
        assert_eq!(leg.span_id, "leg00000000000a");
        assert_eq!(leg.parent_id.as_deref(), Some("root0000000000a"));
        let b = rec.trace("evt-b").expect("trace b committed");
        assert_eq!(b.spans.len(), 1);
        // Late spans for an already-committed trace still land.
        rec.record_finished(Span {
            trace_id: "evt-b".into(),
            span_id: "late0000000000b".into(),
            parent_id: Some("root0000000000b".into()),
            name: "fleet.upstream".into(),
            start_unix_us: start,
            duration_us: 3,
            attrs: Vec::new(),
            error: true,
        });
        let b = rec.trace("evt-b").unwrap();
        assert_eq!(b.spans.len(), 2);
        assert!(b.error, "late erroring span flips the trace error flag");
    }

    #[test]
    fn span_context_round_trips_and_rejects_hostile_values() {
        let v = encode_span_context("abc123", "def456");
        assert_eq!(parse_span_context(&v), Some(("abc123", "def456")));
        assert_eq!(parse_span_context("missing-colon"), None);
        assert_eq!(parse_span_context("bad header:ok"), None);
        assert_eq!(parse_span_context("ok:inject\r\nX-Evil: 1"), None);
        assert_eq!(parse_span_context(" t:p "), Some(("t", "p")));
    }

    #[test]
    fn durations_are_measured() {
        let rec = recorder();
        {
            let _g = rec.root("timed", None, "r");
            std::thread::sleep(Duration::from_millis(5));
        }
        let entry = rec.trace("timed").unwrap();
        assert!(entry.duration_us >= 4_000, "{}", entry.duration_us);
    }
}
