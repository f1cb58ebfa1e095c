#![warn(missing_docs)]

//! `ziggy-serve` — the concurrent characterization service.
//!
//! The paper positions Ziggy "as a library, to be included into external
//! exploration systems" behind an interactive front-end (Figure 5). This
//! crate is that serving layer: a dependency-light, event-driven
//! HTTP/1.1 JSON API over the shared-ownership engine core. One
//! [`ziggy_core::Ziggy`] engine per ingested table is shared across all
//! worker threads and all clients, so whole-table statistics and the
//! column dependency graph are computed **once per table** — the paper's
//! between-query cache promoted to a between-client cache.
//!
//! # API contract
//!
//! All bodies are JSON (`Content-Type: application/json`); errors are
//! `{"error": "<message>"}` with the status codes noted below.
//!
//! | Route | Body | Response |
//! |-------|------|----------|
//! | `GET /healthz` | — | `200` `{"status":"ok","uptime_s":…,"version":"…"}` |
//! | `GET /metrics` | — | `200` request counters, cumulative stage timings (µs), and per-table counters for all three reuse levels (`cache` = whole-table statistics, `prepared` = per-mask `PreparedStats`, `reports` = finished report bytes); `?format=prometheus` switches to text exposition (counters, gauges, and latency histograms) |
//! | `POST /tables` | `{"name": "crime", "csv": "<csv text>"}` | `201` `{"name","n_rows","n_cols"}` — `400` invalid name/JSON, `409` duplicate name or registry full, `422` CSV rejected |
//! | `GET /tables` | — | `200` `{"tables":[{"name","n_rows","n_cols"},…]}` |
//! | `POST /tables/{name}/characterize` | `{"query": "<predicate>", "config": {…}?}` | `200` a full [`ziggy_core::CharacterizationReport`] — `404` unknown table, `422` engine rejection (parse error, degenerate selection). Every response carries an `ETag` (the report-byte fingerprint); a request whose `If-None-Match` matches is answered `304` with no body. A repeated `(query, config)` pair is served memoized bytes from the engine's report cache — no search, no post-processing, no serialization. The optional `config` object overlays [`ZiggyConfig`] fields onto the server default for this request only (`400` on unknown fields); overridden requests share the whole-table statistics and the report cache (entries are keyed by configuration fingerprint, so overrides can neither read nor poison the default configuration's entries) |
//! | `PUT /tables/{name}` | `{"csv": "<csv text>"}` | idempotent ingest (the fleet's replicate path): `201` created, `200` the identical table (by CSV fingerprint) was already resident, `409` the name is taken by different content |
//! | `GET /tables/{name}/csv` | — | `200` `{"name","csv","fingerprint"}` — the original upload bytes, verbatim, so replicating the export elsewhere fingerprints identically (the fleet repair loop's read side); `404` unknown table or no CSV provenance (in-process registrations) |
//! | `DELETE /tables/{name}` | — | `200` `{"deleted": "<name>", "sessions_closed": <n>}` — `404` unknown table. Frees the name and the registry slot immediately and closes the table's sessions (cascade), so the engine's memory is not pinned by abandoned clients; in-flight requests finish normally |
//! | `POST /sessions` | `{"table": "crime", "resume": {"query": "<predicate>", "steps": n}?}` | `201` `{"session_id", "table"}` — `404` unknown table. With `resume`, the session continues a conversation held elsewhere (the fleet's session failover): it has taken `n` steps, and its next step is numbered `n + 1` and diffed against `query`'s report. `400` when `steps` is not a positive integer or `query` not a string, `422` when `query` does not characterize (no session is created) |
//! | `POST /sessions/{id}/step` | `{"query": "<predicate>"}` | `200` `{"step", "report", "diff"}` where `diff` is a [`ziggy_core::ReportDiff`] against the previous step (`null` on the first) — `404` unknown session, `422` engine rejection |
//! | `DELETE /sessions/{id}` | — | `200` `{"deleted": <id>}` — `404` unknown session. Frees the session slot and releases its table pin |
//! | `GET /tombstones` | — | `200` `{"tombstones":[{"table","ts"},…]}` — the HLC-stamped delete set, consumed by the fleet repair loop so backends that missed a delete cannot resurrect the table; stray-GC tombstones (`DELETE …?stray=true`) are withheld |
//!
//! With [`ServeOptions::data_dir`] unset, CSV-ingested tables retain
//! their source text in memory for the export route (the fleet repair
//! loop replicates the *original* bytes so fingerprints match across
//! replicas) — roughly doubling a table's footprint. With the
//! durability tier on, the retained copy is dropped and exports are
//! read back out of the write-ahead log's ingest records instead: the
//! bytes already on disk for crash recovery do double duty. Every
//! mutation (ingest, delete, session create/step/delete) is logged
//! before it is acknowledged, per [`ServeOptions::durability`]
//! (`batch` group commit, alias `fsync` / `async` write-to-OS), and
//! boot replays the newest snapshot plus the log tail — tables,
//! tombstones, and sessions all come back, and replayed reports are
//! byte-identical (same `ETag`s) because wire bytes are a pure function
//! of (table, configuration, query).
//!
//! A session replays as (table, last query, step count): restoring it
//! runs at most one characterization, its last query's, and its next
//! step's diff is the one the lost process would have sent. If the last
//! query no longer characterizes (the server's configuration changed
//! since it was logged), the session is still restored but has no
//! previous report, so its next step answers `"diff": null`.
//!
//! Table and session counts are capped
//! ([`registry::MAX_TABLES`], [`sessions::MAX_SESSIONS`]; `409` beyond
//! them). The caps bound *live* state: the DELETE routes free slots, so
//! long-running servers do not exhaust them from lifetime churn, and
//! sessions idle past [`ServeOptions::session_ttl`] are evicted (counted
//! as `sessions_expired` in `/metrics`).
//!
//! With [`ServeOptions::rate_limit`] set, each client IP gets a token
//! bucket of that many requests/second (equal burst); beyond it requests
//! are answered `429` with a `Retry-After` header. `GET /healthz` is
//! exempt. With [`ServeOptions::access_log`] set, every request emits one
//! structured JSON line to stderr ([`logging::AccessLog`]).
//!
//! Characterize responses are byte-for-byte the engine's serialized
//! report *with stage timings zeroed*: timings describe one build's
//! wall clock, so they ride along as a side channel (the struct form,
//! `/metrics`) instead of the wire bytes. The wire form is therefore a
//! pure function of (table, configuration, query) — any server, any
//! process, any fleet replica produces identical bytes and an identical
//! `ETag`, which is what makes the tag a strong validator that survives
//! replica rotation and failover (a conditional request revalidates
//! `304` against whichever replica answers).
//!
//! Failed session steps (`4xx`/`422`) neither count as a step nor
//! replace the report the next step is diffed against, matching
//! [`ziggy_core::ExplorationSession`] semantics.
//!
//! # Concurrency model
//!
//! * One epoll reactor thread ([`http::Server`]) owns every socket:
//!   it accepts, parses requests as bytes arrive, and writes responses in
//!   request order; a fixed pool of [`ServeOptions::threads`] workers
//!   runs the handler for every route. No async runtime. Requests on one
//!   connection run one at a time, so a pipelined write is visible to
//!   the read behind it.
//! * [`registry::TableRegistry`] and [`sessions::SessionManager`] use
//!   `parking_lot::RwLock` maps of `Arc` entries: lookups take shared
//!   read locks, and the engine itself is only `&self` — concurrent
//!   characterizations of one table proceed in parallel, sharing the
//!   per-table [`ziggy_store::StatsCache`].
//! * Session steps lock only their own session; the engine call happens
//!   outside that lock.
//!
//! # Example
//!
//! ```
//! use ziggy_serve::{serve, ServeOptions};
//! use ziggy_serve::http::request_once;
//!
//! let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
//! let (status, body) =
//!     request_once(server.local_addr(), "GET", "/healthz", None).unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains(r#""status":"ok""#));
//! server.shutdown();
//! ```

pub mod http;
pub mod json;
pub mod limit;
pub mod logging;
pub mod metrics;
pub mod registry;
pub mod router;
pub mod sessions;

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ziggy_core::ZiggyConfig;
use ziggy_durable::{DurableLog, DurableOptions};
use ziggy_obs::span::{self, DEFAULT_TRACE_CAPACITY, SPAN_CONTEXT_HEADER};
use ziggy_obs::trace::{mint_trace_id, sanitize_trace_id, TRACE_HEADER};
use ziggy_obs::FlightRecorder;

pub use http::{Client, Request, Response, Server};
pub use json::ApiError;
pub use limit::RateLimiter;
pub use logging::AccessLog;
pub use metrics::Metrics;
pub use registry::{fnv1a_64, valid_table_name, TableEntry, TableRegistry};
pub use router::{route, ServeState};
pub use sessions::{SessionManager, StepOutcome};
pub use ziggy_durable::DurabilityMode;

/// Options for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads (default: available parallelism, at least 2 so a
    /// slow characterization cannot head-of-line-block health checks).
    pub threads: usize,
    /// Engine configuration applied to every ingested table (a request
    /// may override it per characterization via its `config` field).
    pub config: ZiggyConfig,
    /// Emit one structured JSON access-log line per request to stderr.
    pub access_log: bool,
    /// Append access-log lines to this file instead of stderr (implies
    /// logging even when `access_log` is false). Multi-process tests
    /// read trace ids back out of it.
    pub access_log_path: Option<PathBuf>,
    /// Per-client token-bucket rate limit (sustained requests/second,
    /// equal burst); `None` disables limiting. `GET /healthz` is always
    /// exempt so fleet health probes cannot be throttled.
    pub rate_limit: Option<u32>,
    /// Idle TTL for exploration sessions; `None` keeps them until
    /// explicitly deleted. Defaults to one hour.
    pub session_ttl: Option<Duration>,
    /// Durable-log directory. `Some` turns the durability tier on: boot
    /// replays the newest snapshot plus the log tail (tables, delete
    /// tombstones, sessions), every subsequent mutation is WAL'd before
    /// it is acknowledged, and CSV exports are served from the log
    /// instead of a retained in-memory copy. `None` (the default) keeps
    /// the original all-in-memory behavior.
    pub data_dir: Option<PathBuf>,
    /// How hard an acknowledged write is (`--durability`); only
    /// meaningful with `data_dir` set.
    pub durability: DurabilityMode,
    /// Snapshot after this many log records (0 disables snapshots;
    /// segments then grow until restart). Only meaningful with
    /// `data_dir` set.
    pub snapshot_every: u64,
    /// Slow-query threshold in milliseconds (`--slow-ms`): requests at
    /// or past it are pinned in the flight recorder and emit one
    /// slow-query log line with their span breakdown.
    pub slow_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(2),
            config: ZiggyConfig::default(),
            access_log: false,
            access_log_path: None,
            rate_limit: None,
            session_ttl: Some(Duration::from_secs(3600)),
            data_dir: None,
            durability: DurabilityMode::default(),
            snapshot_every: DurableOptions::default().snapshot_every,
            slow_ms: 250,
        }
    }
}

/// A running characterization service.
pub struct ServerHandle {
    server: Server,
    state: Arc<ServeState>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The shared state, for in-process inspection (tests, benchmarks)
    /// or pre-loading tables before traffic arrives.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Opens the durable log in `dir`, replays snapshot + tail into the
/// registry and session manager, and attaches the log so subsequent
/// mutations are persisted. Replayed state that no longer applies (a
/// table whose CSV the current parser rejects, a session whose table is
/// gone) is skipped with a stderr note, never fatal: a backend must
/// boot with whatever subset of its state is still valid.
fn boot_durable(
    state: &ServeState,
    dir: &std::path::Path,
    mode: DurabilityMode,
    snapshot_every: u64,
) -> io::Result<Arc<DurableLog>> {
    let opts = DurableOptions {
        mode,
        snapshot_every,
        ..DurableOptions::default()
    };
    let (log, replay) = DurableLog::open(dir, opts)?;
    let log = Arc::new(log);
    // Attach before restoring so restored tables serve CSV exports from
    // the log (restore_table requires it).
    state.registry.attach_durable(Arc::clone(&log));
    for t in &replay.state.tables {
        if let Err(e) =
            state
                .registry
                .restore_table(&t.name, &t.csv, t.fingerprint, t.ts, state.config.clone())
        {
            eprintln!("ziggy-serve: replay skipped table `{}`: {e}", t.name);
        }
    }
    for (name, ts, stray) in &replay.state.tombstones {
        state.registry.restore_tombstone(name, *ts, *stray);
    }
    for s in &replay.state.sessions {
        let Ok(entry) = state.registry.get(&s.table) else {
            eprintln!(
                "ziggy-serve: replay skipped session {} (table `{}` gone)",
                s.id, s.table
            );
            continue;
        };
        if let Err(e) = state
            .sessions
            .restore(s.id, entry, s.last_query.as_deref(), s.steps)
        {
            eprintln!(
                "ziggy-serve: session {} resumes with no previous report: {e}",
                s.id
            );
        }
    }
    Ok(log)
}

/// Binds `addr` and starts serving the characterization API.
pub fn serve(addr: impl ToSocketAddrs, options: ServeOptions) -> io::Result<ServerHandle> {
    let mut state = ServeState::with_config(options.config);
    state.recorder = Arc::new(FlightRecorder::new(
        DEFAULT_TRACE_CAPACITY,
        options.slow_ms.saturating_mul(1000),
    ));
    let state = Arc::new(state);
    state.sessions.set_ttl(options.session_ttl);
    if let Some(dir) = &options.data_dir {
        boot_durable(&state, dir, options.durability, options.snapshot_every)?;
    }
    let limiter = options.rate_limit.map(RateLimiter::new);
    let log = Arc::new(match &options.access_log_path {
        Some(path) => AccessLog::to_file(path)?,
        None if options.access_log => AccessLog::stderr(),
        None => AccessLog::disabled(),
    });
    let handler_state = Arc::clone(&state);
    let handler_log = Arc::clone(&log);
    // Rejections written below the handler (over-capacity 503, malformed
    // 400) never reach the closure above, so the HTTP layer reports them
    // here — every response lands in the same access log.
    let edge_log = Arc::clone(&log);
    let edge: http::EdgeObserver = Arc::new(move |status: u16, trace: &str| {
        edge_log.log("-", "-", status, 0.0, Some(trace), None);
    });
    let server = Server::start_observed(
        addr,
        options.threads,
        Arc::new(move |req: &Request| {
            let started = Instant::now();
            let (trace, parent) = trace_context(req);
            let mut root = handler_state
                .recorder
                .root(&trace, parent.as_deref(), "serve.request");
            root.attr("method", req.method.clone());
            root.attr("path", req.path.clone());
            let key = metrics::route_key(&req.method, &req.path);
            root.attr("route", key);
            let response = {
                let _handler = span::child("serve.handler");
                limit::throttle(limiter.as_ref(), req, &handler_state.metrics.rate_limited)
                    .unwrap_or_else(|| route(&handler_state, req))
            };
            root.attr("status", response.status.to_string());
            root.set_error(response.status >= 400);
            drop(root); // Commits the trace to the flight recorder.
            let elapsed = started.elapsed();
            let elapsed_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
            handler_state
                .metrics
                .route_latency
                .record_us_traced(key, elapsed_us, &trace);
            if elapsed_us >= handler_state.recorder.slow_us() {
                if let Some(entry) = handler_state.recorder.trace(&trace) {
                    eprintln!("{}", logging::slow_query_line(&entry));
                }
            }
            handler_log.log(
                &req.method,
                &req.path,
                response.status,
                elapsed.as_secs_f64() * 1e3,
                Some(&trace),
                None,
            );
            response.with_header(TRACE_HEADER, trace)
        }),
        Some(edge),
    )?;
    Ok(ServerHandle { server, state })
}

/// The trace a request belongs to, and the remote parent span when a
/// hop named one. A fleet hop's `X-Span-Context` wins (it names the
/// trace AND the parent span); a well-formed caller-supplied
/// `X-Request-Id` still names the trace, so a client can stitch its own
/// traces; otherwise a fresh id is minted. The id rides every proxied
/// leg and comes back on the response and every access-log line.
pub fn trace_context(req: &Request) -> (String, Option<String>) {
    if let Some((trace, parent)) = req
        .header(SPAN_CONTEXT_HEADER)
        .and_then(span::parse_span_context)
    {
        return (trace.to_string(), Some(parent.to_string()));
    }
    let trace = req
        .header(TRACE_HEADER)
        .and_then(sanitize_trace_id)
        .map_or_else(mint_trace_id, str::to_string);
    (trace, None)
}
