//! Dispatches parsed HTTP requests to the API handlers.

use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::Value;
use ziggy_core::{StageTimings, ZiggyConfig};
use ziggy_durable::Record;
use ziggy_obs::span::{self, DEFAULT_TRACE_CAPACITY};
use ziggy_obs::{FlightRecorder, Span, TraceEntry};

use crate::http::{Request, Response};
use crate::json::{parse_object, required_str, ApiError};
use crate::metrics::{self, Metrics, SERVE_FAMILIES};
use crate::registry::TableRegistry;
use crate::sessions::SessionManager;

/// Default slow-trace threshold (µs): traces at or past it are pinned
/// in the flight recorder and emitted to the slow-query log.
pub const DEFAULT_SLOW_US: u64 = 250_000;

/// Shared server state: registry, sessions, metrics, engine defaults.
pub struct ServeState {
    /// Ingested tables, one shared engine each.
    pub registry: TableRegistry,
    /// Live exploration sessions.
    pub sessions: SessionManager,
    /// Request/timing counters.
    pub metrics: Metrics,
    /// Engine configuration applied to every ingested table.
    pub config: ZiggyConfig,
    /// Process start, for the `/healthz` uptime and the uptime gauge.
    pub started: Instant,
    /// The per-process flight recorder behind `/debug/traces`.
    pub recorder: Arc<FlightRecorder>,
}

impl Default for ServeState {
    fn default() -> Self {
        Self {
            registry: TableRegistry::default(),
            sessions: SessionManager::default(),
            metrics: Metrics::default(),
            config: ZiggyConfig::default(),
            started: Instant::now(),
            recorder: Arc::new(FlightRecorder::new(DEFAULT_TRACE_CAPACITY, DEFAULT_SLOW_US)),
        }
    }
}

impl ServeState {
    /// State with the given engine configuration.
    pub fn with_config(config: ZiggyConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }
}

fn json_response(status: u16, value: &Value) -> Response {
    Response::new(
        status,
        serde_json::to_string(value).expect("value trees always render"),
    )
}

/// Routes one request; this is the server's single entry point.
pub fn route(state: &ServeState, req: &Request) -> Response {
    state.metrics.requests_total.inc();
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let result = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => handle_healthz(state),
        ("GET", ["metrics"]) => handle_metrics(state, req),
        ("POST", ["tables"]) => handle_create_table(state, &req.body),
        ("GET", ["tables"]) => handle_list_tables(state),
        ("POST", ["tables", name, "characterize"]) => handle_characterize(state, name, req),
        ("POST", ["tables", name, "rows"]) => handle_append_rows(state, name, &req.body),
        ("GET", ["tables", name, "csv"]) => handle_export_csv(state, name),
        ("PUT", ["tables", name]) => handle_replicate_table(state, name, &req.body),
        ("DELETE", ["tables", name]) => handle_delete_table(state, name, req),
        ("POST", ["sessions"]) => handle_create_session(state, &req.body),
        ("POST", ["sessions", id, "step"]) => handle_session_step(state, id, &req.body),
        ("DELETE", ["sessions", id]) => handle_delete_session(state, id),
        ("GET", ["tombstones"]) => handle_tombstones(state),
        ("GET", ["debug", "traces"]) => handle_list_traces(state, req),
        ("GET", ["debug", "traces", id]) => handle_get_trace(state, id),
        (
            _,
            ["healthz"]
            | ["metrics"]
            | ["tables"]
            | ["tables", _]
            | ["tables", _, "characterize"]
            | ["tables", _, "rows"]
            | ["tables", _, "csv"]
            | ["sessions"]
            | ["sessions", _]
            | ["sessions", _, "step"]
            | ["tombstones"]
            | ["debug", "traces"]
            | ["debug", "traces", _],
        ) => Err(ApiError::method_not_allowed()),
        _ => Err(ApiError::not_found(format!("no route for {}", req.path))),
    };
    // Mutating requests that succeeded may have pushed the log past its
    // snapshot threshold; snapshotting here (not on a timer) keeps the
    // whole serve layer thread-pool-only.
    if result.is_ok() && req.method != "GET" {
        maybe_snapshot(state);
    }
    match result {
        Ok(response) => response,
        Err(e) => {
            state.metrics.errors_total.inc();
            json_response(e.status, &e.body())
        }
    }
}

/// Writes a snapshot when the attached log wants one. The cover LSN is
/// captured *before* the live state is gathered, so records landing in
/// between are both inside the snapshot and replayed after it — every
/// record type is idempotent under re-application (see `ziggy_durable`).
fn maybe_snapshot(state: &ServeState) {
    let Some(log) = state.registry.durable() else {
        return;
    };
    if !log.wants_snapshot() {
        return;
    }
    let Some(cover) = log.begin_snapshot() else {
        return; // Another thread's snapshot is in flight.
    };
    let snap = ziggy_durable::SnapshotState {
        tables: state.registry.snapshot_tables(),
        tombstones: state.registry.tombstones(),
        sessions: state.sessions.snapshot_sessions(),
    };
    // A failed write is not fatal to the request that triggered it: the
    // log is still intact, segments just don't compact yet.
    let _ = log.write_snapshot(cover, &snap);
}

/// The local delete-tombstone set, consumed by the fleet's repair loop
/// so a backend that missed a delete cannot resurrect the table. Stray
/// garbage-collection tombstones are withheld — they are local
/// clean-ups, not fleet-wide deletes.
fn handle_tombstones(state: &ServeState) -> Result<Response, ApiError> {
    let tombstones = state
        .registry
        .exported_tombstones()
        .into_iter()
        .map(|(table, ts)| {
            Value::Object(vec![
                ("table".into(), Value::String(table)),
                ("ts".into(), Value::Number(serde_json::Number::U(ts))),
            ])
        })
        .collect();
    Ok(json_response(
        200,
        &Value::Object(vec![("tombstones".into(), Value::Array(tombstones))]),
    ))
}

/// One span as JSON, full form (ids, wall-clock, attrs, error flag).
pub fn span_json(s: &Span) -> Value {
    let attrs = s
        .attrs
        .iter()
        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
        .collect();
    Value::Object(vec![
        ("span_id".into(), Value::String(s.span_id.clone())),
        (
            "parent_id".into(),
            match &s.parent_id {
                Some(p) => Value::String(p.clone()),
                None => Value::Null,
            },
        ),
        ("name".into(), Value::String(s.name.clone())),
        (
            "start_unix_us".into(),
            Value::Number(serde_json::Number::U(s.start_unix_us)),
        ),
        (
            "duration_us".into(),
            Value::Number(serde_json::Number::U(s.duration_us)),
        ),
        ("error".into(), Value::Bool(s.error)),
        ("attrs".into(), Value::Object(attrs)),
    ])
}

/// One trace as JSON. The listing form (`with_spans: false`) carries a
/// span *count*; the detail form inlines every span.
pub fn trace_json(entry: &TraceEntry, with_spans: bool) -> Value {
    let mut pairs = vec![
        ("trace_id".into(), Value::String(entry.trace_id.clone())),
        ("root".into(), Value::String(entry.root_name.clone())),
        (
            "route".into(),
            match &entry.route {
                Some(r) => Value::String(r.clone()),
                None => Value::Null,
            },
        ),
        (
            "start_unix_us".into(),
            Value::Number(serde_json::Number::U(entry.start_unix_us)),
        ),
        (
            "duration_us".into(),
            Value::Number(serde_json::Number::U(entry.duration_us)),
        ),
        ("error".into(), Value::Bool(entry.error)),
    ];
    if with_spans {
        pairs.push((
            "spans".into(),
            Value::Array(entry.spans.iter().map(span_json).collect()),
        ));
    } else {
        pairs.push((
            "spans".into(),
            Value::Number(serde_json::Number::U(entry.spans.len() as u64)),
        ));
    }
    Value::Object(pairs)
}

/// `GET /debug/traces` — the flight recorder's committed traces,
/// newest first. `?min_ms=` keeps traces at least that slow, `?route=`
/// keeps one route class, `?errors=1` keeps erroring traces only.
fn handle_list_traces(state: &ServeState, req: &Request) -> Result<Response, ApiError> {
    let min_us = match req.query_param("min_ms") {
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| ApiError::bad_request("`min_ms` must be an integer"))?
            .saturating_mul(1000),
        None => 0,
    };
    let route = req.query_param("route");
    let errors_only = req.query_param("errors") == Some("1");
    let traces: Vec<Value> = state
        .recorder
        .recent()
        .iter()
        .filter(|e| e.duration_us >= min_us)
        .filter(|e| route.is_none_or(|r| e.route.as_deref() == Some(r)))
        .filter(|e| !errors_only || e.error)
        .map(|e| trace_json(e, false))
        .collect();
    Ok(json_response(
        200,
        &Value::Object(vec![("traces".into(), Value::Array(traces))]),
    ))
}

/// `GET /debug/traces/{id}` — one trace, spans inlined (the router's
/// fleet handler overlays backend spans on top of this local form).
fn handle_get_trace(state: &ServeState, id: &str) -> Result<Response, ApiError> {
    let entry = state
        .recorder
        .trace(id)
        .ok_or_else(|| ApiError::not_found(format!("no trace `{id}` in the flight recorder")))?;
    Ok(json_response(200, &trace_json(&entry, true)))
}

/// Records the three characterize pipeline stages as spans under
/// `parent`, tiled back from *now* so they line up end-to-end the way
/// the build ran. Only fresh builds get stage spans — a cached report's
/// timings describe someone else's build.
fn record_stage_spans(t: &StageTimings) {
    let Some((recorder, trace, parent)) = span::current_recorder() else {
        return;
    };
    let total = t.preparation_us + t.view_search_us + t.post_processing_us;
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut start = now.saturating_sub(total);
    for (name, dur) in [
        ("stage.prepare", t.preparation_us),
        ("stage.view_search", t.view_search_us),
        ("stage.post_process", t.post_processing_us),
    ] {
        recorder.record_span(&trace, Some(&parent), name, start, dur, &[], false);
        start += dur;
    }
}

fn handle_healthz(state: &ServeState) -> Result<Response, ApiError> {
    Ok(json_response(
        200,
        &Value::Object(vec![
            ("status".into(), Value::String("ok".into())),
            (
                "uptime_s".into(),
                Value::Number(serde_json::Number::U(state.started.elapsed().as_secs())),
            ),
            (
                "version".into(),
                Value::String(env!("CARGO_PKG_VERSION").into()),
            ),
        ]),
    ))
}

fn handle_metrics(state: &ServeState, req: &Request) -> Result<Response, ApiError> {
    // Sweep first so `sessions_expired` reflects idle sessions even on a
    // server receiving no session traffic.
    sweep_sessions(state);
    if req.query_param("format") == Some("prometheus") {
        let doc = metrics::render_prometheus(SERVE_FAMILIES, state);
        return Ok(Response::new(200, doc.render())
            .with_header("Content-Type", "text/plain; version=0.0.4"));
    }
    Ok(json_response(
        200,
        &metrics::render_json(SERVE_FAMILIES, state),
    ))
}

fn handle_create_table(state: &ServeState, body: &[u8]) -> Result<Response, ApiError> {
    let parsed = parse_object(body)?;
    let name = required_str(&parsed, "name")?;
    let csv = required_str(&parsed, "csv")?;
    let entry = state.registry.insert_csv(name, csv, state.config.clone())?;
    state.metrics.tables_created.inc();
    Ok(json_response(201, &entry.summary()))
}

fn handle_list_tables(state: &ServeState) -> Result<Response, ApiError> {
    state.metrics.tables_listed.inc();
    Ok(json_response(
        200,
        &Value::Object(vec![(
            "tables".into(),
            Value::Array(state.registry.summaries()),
        )]),
    ))
}

/// Overlays the request's `config` object onto the engine's base
/// configuration. Only known `ZiggyConfig` fields may appear — a typo'd
/// key is a 400, not a silently applied default.
fn merged_config(base: &ZiggyConfig, overrides: &Value) -> Result<ZiggyConfig, ApiError> {
    let Some(fields) = overrides.as_object() else {
        return Err(ApiError::bad_request("`config` must be a JSON object"));
    };
    let mut pairs = match serde_json::to_value(base) {
        Ok(Value::Object(pairs)) => pairs,
        _ => unreachable!("configs serialize as objects"),
    };
    for (key, value) in fields {
        match pairs.iter_mut().find(|(base_key, _)| base_key == key) {
            Some(slot) => slot.1 = value.clone(),
            None => {
                return Err(ApiError::bad_request(format!(
                    "unknown config field `{key}`"
                )))
            }
        }
    }
    serde_json::from_value(&Value::Object(pairs))
        .map_err(|e| ApiError::bad_request(format!("invalid config override: {e}")))
}

/// Whether the request's `If-None-Match` header matches `etag` (a quoted
/// strong validator): comma-separated candidate list, `*` matches any
/// entity, and a weak `W/"…"` prefix is ignored for the comparison
/// (revalidating a byte cache with a weak match is safe — the weak form
/// only loses information).
fn if_none_match_matches(req: &Request, etag: &str) -> bool {
    let Some(value) = req.header("if-none-match") else {
        return false;
    };
    value.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate.strip_prefix("W/").unwrap_or(candidate) == etag
    })
}

fn handle_characterize(
    state: &ServeState,
    name: &str,
    req: &Request,
) -> Result<Response, ApiError> {
    let parsed = parse_object(&req.body)?;
    let query = required_str(&parsed, "query")?;
    let entry = state.registry.get(name)?;
    let mut guard = span::child("serve.characterize");
    if let Some(g) = guard.as_mut() {
        g.attr("table", name);
    }
    let outcome = match parsed.get("config").filter(|v| !v.is_null()) {
        None => entry.engine().characterize_cached(query)?,
        Some(overrides) => {
            let config = merged_config(entry.engine().config(), overrides)?;
            if config == *entry.engine().config() {
                // A no-op override keeps the fully-cached fast path.
                entry.engine().characterize_cached(query)?
            } else {
                // A forked engine shares the whole-table statistics and
                // the report cache, but every report entry is keyed by
                // its configuration fingerprint, so cached artifacts
                // built under other parameters can never leak in (and
                // the override can never poison the default's entry).
                entry
                    .engine()
                    .with_config(config)
                    .characterize_cached(query)?
            }
        }
    };
    if let Some(g) = guard.as_mut() {
        g.attr("reuse", outcome.reuse.as_u8().to_string());
    }
    if outcome.fresh {
        record_stage_spans(&outcome.cached.report.timings);
        state
            .metrics
            .record_characterization(&outcome.cached.report.timings);
    } else {
        state.metrics.record_cached_characterization();
    }
    // The ETag is the report-byte fingerprint: stable across requests,
    // processes, and fleet replicas that built the same report.
    let etag = outcome.cached.etag();
    let timing = server_timing(&outcome.cached.report.timings, outcome.reuse.as_u8());
    if if_none_match_matches(req, &etag) {
        state.metrics.not_modified_total.inc();
        return Ok(Response::new(304, "")
            .with_header("ETag", etag)
            .with_header("Server-Timing", timing));
    }
    // The body is the memoized serialized report with this request's
    // query label spliced in — the cached build (and its ETag) is
    // shared by every spelling of the selection, so only the label
    // costs a copy.
    Ok(Response::new(200, outcome.cached.bytes_with_query(query))
        .with_header("ETag", etag)
        .with_header("Server-Timing", timing))
}

/// Renders the `Server-Timing` value for a characterize response: the
/// original build's stage durations (milliseconds, per the header's
/// spec) plus the cache reuse level that answered this request
/// (1 = plan only, 2 = prepared statistics, 3 = finished report bytes).
fn server_timing(t: &StageTimings, reuse_level: u8) -> String {
    format!(
        "prepare;dur={:.3}, view_search;dur={:.3}, post_process;dur={:.3}, reuse;desc=\"level{}\"",
        t.preparation_us as f64 / 1e3,
        t.view_search_us as f64 / 1e3,
        t.post_processing_us as f64 / 1e3,
        reuse_level
    )
}

/// `POST /tables/{name}/rows` — incremental append. The body's `rows`
/// field carries headerless CSV rows that extend the live table; the
/// registry swaps in a new entry whose engine inherits the warm
/// whole-table statistics and zone maps (only the tail chunk's
/// summaries rebuild) and WAL-logs the rows before acknowledging, so a
/// crash replays to the appended table byte for byte. Sessions pinned
/// to the old entry keep reading their snapshot; subsequent requests
/// see the appended table with all derived caches freshly invalidated.
fn handle_append_rows(state: &ServeState, name: &str, body: &[u8]) -> Result<Response, ApiError> {
    let parsed = parse_object(body)?;
    let rows = required_str(&parsed, "rows")?;
    let (entry, appended) = state
        .registry
        .append_rows(name, rows, state.config.clone())?;
    state.metrics.appends.inc();
    state.metrics.rows_appended.add(appended as u64);
    let mut summary = match entry.summary() {
        Value::Object(pairs) => pairs,
        _ => unreachable!("summaries render as objects"),
    };
    summary.push((
        "appended".into(),
        Value::Number(serde_json::Number::U(appended as u64)),
    ));
    Ok(json_response(200, &Value::Object(summary)))
}

/// Exports a table's source CSV so another process can re-materialize
/// the *identical* table (the fleet repair loop's read side). The
/// response carries the original upload bytes verbatim inside JSON, so
/// `PUT /tables/{name}` of the exported text fingerprints identically
/// to the first ingest. Tables registered in-process (demo preloads)
/// have no CSV provenance and answer 404.
fn handle_export_csv(state: &ServeState, name: &str) -> Result<Response, ApiError> {
    let entry = state.registry.get(name)?;
    let Some(csv) = entry.export_csv() else {
        return Err(ApiError::not_found(format!(
            "table `{name}` has no CSV provenance to export"
        )));
    };
    let fingerprint = entry
        .fingerprint()
        .map(|f| format!("{f:016x}"))
        .unwrap_or_default();
    Ok(json_response(
        200,
        &Value::Object(vec![
            ("name".into(), Value::String(name.to_string())),
            ("csv".into(), Value::String(csv)),
            ("fingerprint".into(), Value::String(fingerprint)),
        ]),
    ))
}

fn handle_replicate_table(
    state: &ServeState,
    name: &str,
    body: &[u8],
) -> Result<Response, ApiError> {
    let parsed = parse_object(body)?;
    let csv = required_str(&parsed, "csv")?;
    let (entry, created) = state
        .registry
        .replicate_csv(name, csv, state.config.clone())?;
    if created {
        state.metrics.tables_created.inc();
    }
    let mut summary = match entry.summary() {
        Value::Object(pairs) => pairs,
        _ => unreachable!("summaries render as objects"),
    };
    summary.push(("created".into(), Value::Bool(created)));
    Ok(json_response(
        if created { 201 } else { 200 },
        &Value::Object(summary),
    ))
}

/// Drops a table. With `?stray=true` (the fleet garbage collector's
/// variant) the tombstone is stamped at the copy's own ingest timestamp
/// instead of a fresh one, so collecting a stranded replica can never
/// outrank — and therefore never delete — the live copies elsewhere.
fn handle_delete_table(
    state: &ServeState,
    name: &str,
    req: &Request,
) -> Result<Response, ApiError> {
    let entry = if req.query_param("stray") == Some("true") {
        state.registry.remove_stray(name)?
    } else {
        state.registry.remove(name)?
    };
    // Cascade: close the table's sessions so the dropped engine's memory
    // actually frees instead of staying pinned behind abandoned clients.
    let sessions_closed = state.sessions.remove_for_table(&entry);
    // Invalidate the derived-artifact caches eagerly: even while
    // in-flight requests pin the engine Arc, the memoized per-mask
    // PreparedStats and the finished report bytes (the bulk of the
    // engine's mutable footprint) free now.
    entry.engine().prepared_cache().clear();
    entry.engine().report_cache().clear();
    state.metrics.tables_deleted.inc();
    state.metrics.sessions_deleted.add(sessions_closed as u64);
    Ok(json_response(
        200,
        &Value::Object(vec![
            ("deleted".into(), Value::String(name.to_string())),
            (
                "sessions_closed".into(),
                Value::Number(serde_json::Number::U(sessions_closed as u64)),
            ),
        ]),
    ))
}

/// Evicts idle sessions and logs a `SessionDelete` for each, so replay
/// does not bring an expired session back. Best-effort, like the
/// create-unwind: a failed append leaves the eviction in memory only.
fn sweep_sessions(state: &ServeState) {
    let expired = state.sessions.sweep_expired();
    if let Some(log) = state.registry.durable() {
        for id in expired {
            let _ = log.append(&Record::SessionDelete { id });
        }
    }
}

fn parse_session_id(id: &str) -> Result<u64, ApiError> {
    id.parse()
        .map_err(|_| ApiError::bad_request("session id must be an integer"))
}

fn handle_delete_session(state: &ServeState, id: &str) -> Result<Response, ApiError> {
    let id = parse_session_id(id)?;
    state.sessions.remove(id)?;
    if let Some(log) = state.registry.durable() {
        log.append(&Record::SessionDelete { id })
            .map_err(|e| ApiError::internal(format!("durable log append failed: {e}")))?;
    }
    state.metrics.sessions_deleted.inc();
    Ok(json_response(
        200,
        &Value::Object(vec![(
            "deleted".into(),
            Value::Number(serde_json::Number::U(id)),
        )]),
    ))
}

/// The optional `resume` member of a `POST /sessions` body, `{"query":
/// q, "steps": n}`: the session continues a conversation that has taken
/// `n` steps, the last of them `q`.
fn parse_resume(resume: &Value) -> Result<(&str, u64), ApiError> {
    let query = resume.get("query").and_then(Value::as_str);
    match (query, resume.get("steps").and_then(Value::as_u64)) {
        (Some(query), Some(steps)) if steps > 0 => Ok((query, steps)),
        _ => Err(ApiError::bad_request(
            "`resume` must be {\"query\": <string>, \"steps\": <positive integer>}",
        )),
    }
}

fn handle_create_session(state: &ServeState, body: &[u8]) -> Result<Response, ApiError> {
    let parsed = parse_object(body)?;
    let table = required_str(&parsed, "table")?;
    let resume = parsed.get("resume").map(parse_resume).transpose()?;
    let entry = state.registry.get(table)?;
    let (last_query, steps) = resume.map_or((None, 0), |(q, n)| (Some(q), n));
    sweep_sessions(state);
    let id = state
        .sessions
        .resume(std::sync::Arc::clone(&entry), last_query, steps)?;
    // Count the creation before the re-validation below, so a session
    // the delete cascade closes (counted in sessions_deleted) always
    // has a matching creation and created - deleted stays >= 0.
    state.metrics.sessions_created.inc();
    let unwind = || {
        if state.sessions.remove(id).is_ok() {
            state.metrics.sessions_deleted.inc();
        }
    };
    // Re-validate after the insert: a DELETE /tables/{name} racing
    // between the lookup above and the insert runs its session cascade
    // too early to see this session, which would then pin the dropped
    // engine forever. If the entry is no longer registered, undo.
    match state.registry.get(table) {
        Ok(current) if std::sync::Arc::ptr_eq(&current, &entry) => {}
        _ => {
            // The cascade missed it, so it wasn't counted there.
            unwind();
            return Err(ApiError::not_found(format!("no table named `{table}`")));
        }
    }
    // Log after validation so replay never resurrects a session whose
    // creation this handler went on to undo. A resumed session is
    // logged as its creation plus its last step, which replay restores
    // exactly as it restores a session stepped here. An append failure
    // unwinds the in-memory session: the creation is not acknowledged.
    if let Some(log) = state.registry.durable() {
        let mut records = vec![Record::SessionCreate {
            id,
            table: table.to_string(),
        }];
        if let Some(query) = last_query {
            records.push(Record::SessionStep {
                id,
                seq: steps,
                query: query.to_string(),
            });
        }
        for (i, record) in records.iter().enumerate() {
            if let Err(e) = log.append(record) {
                if i > 0 {
                    // The creation is logged: close it for replay too.
                    let _ = log.append(&Record::SessionDelete { id });
                }
                unwind();
                return Err(ApiError::internal(format!(
                    "durable log append failed: {e}"
                )));
            }
        }
    }
    Ok(json_response(
        201,
        &Value::Object(vec![
            (
                "session_id".into(),
                Value::Number(serde_json::Number::U(id)),
            ),
            ("table".into(), Value::String(table.to_string())),
        ]),
    ))
}

fn handle_session_step(state: &ServeState, id: &str, body: &[u8]) -> Result<Response, ApiError> {
    let id = parse_session_id(id)?;
    let parsed = parse_object(body)?;
    let query = required_str(&parsed, "query")?;
    let mut guard = span::child("serve.session_step");
    if let Some(g) = guard.as_mut() {
        g.attr("session", id.to_string());
    }
    sweep_sessions(state);
    let outcome = state.sessions.step(id, query)?;
    if let Some(g) = guard.as_mut() {
        g.attr("step", outcome.step.to_string());
    }
    if outcome.fresh {
        record_stage_spans(&outcome.report.timings);
    }
    // WAL the accepted step before acknowledging. On append failure the
    // in-memory step stands but the client sees a 500; replay's
    // seq-idempotency makes a client retry of the same step harmless.
    if let Some(log) = state.registry.durable() {
        log.append(&Record::SessionStep {
            id,
            seq: outcome.step,
            query: query.to_string(),
        })
        .map_err(|e| ApiError::internal(format!("durable log append failed: {e}")))?;
    }
    if outcome.fresh {
        state
            .metrics
            .record_characterization(&outcome.report.timings);
    } else {
        state.metrics.record_cached_characterization();
    }
    state.metrics.session_steps.inc();
    let diff = match &outcome.diff {
        Some(d) => serde_json::to_value(d).expect("diffs always render"),
        None => Value::Null,
    };
    Ok(json_response(
        200,
        &Value::Object(vec![
            (
                "step".into(),
                Value::Number(serde_json::Number::U(outcome.step)),
            ),
            (
                "report".into(),
                serde_json::to_value(&outcome.report).expect("reports always render"),
            ),
            ("diff".into(), diff),
        ]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        request_with_headers(method, path, &[], body)
    }

    fn request_with_headers(
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path, ""),
        };
        Request {
            method: method.into(),
            path: path.into(),
            query: query.into(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
            peer: None,
        }
    }

    fn demo_csv() -> String {
        let mut csv = String::from("key,hot,cold\n");
        for i in 0..200 {
            csv.push_str(&format!(
                "{},{},{}\n",
                i,
                if i >= 150 { 25 } else { 0 } + (i * 13) % 7,
                (i * 7919) % 31
            ));
        }
        csv
    }

    fn state_with_table(name: &str) -> ServeState {
        let state = ServeState::default();
        state
            .registry
            .insert_csv(name, &demo_csv(), ZiggyConfig::default())
            .unwrap();
        state
    }

    #[test]
    fn healthz_ok() {
        let state = ServeState::default();
        let r = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        let v = serde_json::from_str_value(&r.body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert!(v.get("uptime_s").unwrap().as_u64().is_some(), "{}", r.body);
        assert_eq!(
            v.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
    }

    #[test]
    fn metrics_prometheus_exposition_parses_and_lints_clean() {
        let state = state_with_table("t");
        route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150"}"#,
            ),
        );
        let r = route(&state, &request("GET", "/metrics?format=prometheus", ""));
        assert_eq!(r.status, 200);
        assert!(
            r.headers
                .iter()
                .any(|(k, v)| k == "Content-Type" && v.starts_with("text/plain")),
            "{:?}",
            r.headers
        );
        let doc = ziggy_obs::PromDoc::parse(&r.body).unwrap();
        assert!(doc.lint().is_empty(), "{:?}", doc.lint());
        assert!(r.body.contains("ziggy_requests_total"), "{}", r.body);
        assert!(r.body.contains("ziggy_build_info{version="), "{}", r.body);
        assert!(r.body.contains("ziggy_uptime_seconds"), "{}", r.body);
        assert!(
            r.body
                .contains("ziggy_stage_duration_seconds_count{stage=\"prepare\"} 1"),
            "{}",
            r.body
        );
        // The JSON body is still the default.
        let r = route(&state, &request("GET", "/metrics", ""));
        assert!(r.body.starts_with('{'), "{}", r.body);
    }

    #[test]
    fn characterize_carries_server_timing_with_reuse_level() {
        let state = state_with_table("t");
        let body = r#"{"query":"key >= 150"}"#;
        let timing_of = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "Server-Timing")
                .map(|(_, v)| v.clone())
                .expect("characterize responses carry Server-Timing")
        };
        let first = route(&state, &request("POST", "/tables/t/characterize", body));
        assert_eq!(first.status, 200, "{}", first.body);
        let t = timing_of(&first);
        assert!(t.contains("prepare;dur="), "{t}");
        assert!(t.contains("view_search;dur="), "{t}");
        assert!(t.contains("post_process;dur="), "{t}");
        // A cold build reuses at most the prepared level.
        assert!(
            t.ends_with("reuse;desc=\"level1\"") || t.ends_with("reuse;desc=\"level2\""),
            "{t}"
        );
        // A repeat is answered from the report cache: level 3.
        let again = route(&state, &request("POST", "/tables/t/characterize", body));
        let t = timing_of(&again);
        assert!(t.ends_with("reuse;desc=\"level3\""), "{t}");
    }

    #[test]
    fn full_table_flow() {
        let state = ServeState::default();
        let body = serde_json::to_string(&serde_json::Value::Object(vec![
            ("name".into(), Value::String("demo".into())),
            ("csv".into(), Value::String(demo_csv())),
        ]))
        .unwrap();
        let r = route(&state, &request("POST", "/tables", &body));
        assert_eq!(r.status, 201, "{}", r.body);
        assert!(r.body.contains("\"n_rows\":200"), "{}", r.body);

        let r = route(&state, &request("GET", "/tables", ""));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"demo\""));

        let r = route(
            &state,
            &request(
                "POST",
                "/tables/demo/characterize",
                r#"{"query": "key >= 150"}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"views\""), "{}", r.body);
        assert_eq!(state.metrics.characterizations.get(), 1);
    }

    #[test]
    fn session_flow_with_diff() {
        let state = state_with_table("t");
        let r = route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#));
        assert_eq!(r.status, 201, "{}", r.body);
        assert!(r.body.contains("\"session_id\":1"), "{}", r.body);

        let r = route(
            &state,
            &request("POST", "/sessions/1/step", r#"{"query":"key >= 150"}"#),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"step\":1"), "{}", r.body);
        assert!(r.body.contains("\"diff\":null"), "{}", r.body);

        let r = route(
            &state,
            &request("POST", "/sessions/1/step", r#"{"query":"key >= 150"}"#),
        );
        assert!(r.body.contains("\"step\":2"), "{}", r.body);
        assert!(r.body.contains("\"persisted\""), "{}", r.body);
    }

    #[test]
    fn errors_map_to_statuses() {
        let state = state_with_table("t");
        for (method, path, body, want) in [
            ("GET", "/nope", "", 404),
            ("DELETE", "/tables", "", 405),
            ("POST", "/tables", "not json", 400),
            ("POST", "/tables", r#"{"name":"t2"}"#, 400),
            (
                "POST",
                "/tables/absent/characterize",
                r#"{"query":"x>1"}"#,
                404,
            ),
            (
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >>> 1"}"#,
                422,
            ),
            (
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key < -5"}"#,
                422,
            ),
            ("POST", "/sessions", r#"{"table":"absent"}"#, 404),
            (
                "POST",
                "/sessions/99/step",
                r#"{"query":"key >= 150"}"#,
                404,
            ),
            (
                "POST",
                "/sessions/zzz/step",
                r#"{"query":"key >= 150"}"#,
                400,
            ),
            ("DELETE", "/tables/absent", "", 404),
            ("PATCH", "/tables/t", "", 405),
            // PUT is the replicate path now, not a 405: bad bodies 400,
            // and replicating different content onto a live name is 409.
            ("PUT", "/tables/t", "", 400),
            ("PUT", "/tables/t", r#"{"csv":"a,b\n1,2\n3,4\n"}"#, 409),
            ("DELETE", "/sessions/99", "", 404),
            ("DELETE", "/sessions/zzz", "", 400),
            ("GET", "/sessions/99", "", 405),
        ] {
            let r = route(&state, &request(method, path, body));
            assert_eq!(r.status, want, "{method} {path}: {}", r.body);
        }
        assert_eq!(state.metrics.errors_total.get(), 17);
    }

    #[test]
    fn delete_table_and_session_lifecycle() {
        let state = state_with_table("t");
        let r = route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#));
        assert_eq!(r.status, 201, "{}", r.body);

        // Drop the table: the name frees immediately and its sessions
        // close with it (the engine's memory must not stay pinned).
        let r = route(&state, &request("DELETE", "/tables/t", ""));
        assert_eq!(r.status, 200);
        assert_eq!(&*r.body, r#"{"deleted":"t","sessions_closed":1}"#);
        assert!(state.registry.is_empty());
        assert!(state.sessions.is_empty());
        let r = route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150"}"#,
            ),
        );
        assert_eq!(r.status, 404, "{}", r.body);
        let r = route(
            &state,
            &request("POST", "/sessions/1/step", r#"{"query":"key >= 150"}"#),
        );
        assert_eq!(r.status, 404, "{}", r.body);

        // The freed name is reusable, and new sessions work on it.
        state
            .registry
            .insert_csv("t", &demo_csv(), ZiggyConfig::default())
            .unwrap();
        let r = route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#));
        assert_eq!(r.status, 201, "{}", r.body);
        assert!(r.body.contains("\"session_id\":2"), "{}", r.body);

        // Deleting a session explicitly frees its slot and forgets the id.
        let r = route(&state, &request("DELETE", "/sessions/2", ""));
        assert_eq!(r.status, 200);
        assert_eq!(&*r.body, r#"{"deleted":2}"#);
        assert!(state.sessions.is_empty());
        let r = route(
            &state,
            &request("POST", "/sessions/2/step", r#"{"query":"key >= 150"}"#),
        );
        assert_eq!(r.status, 404, "{}", r.body);

        assert_eq!(state.metrics.tables_deleted.get(), 1);
        // One cascaded close + one explicit delete.
        assert_eq!(state.metrics.sessions_deleted.get(), 2);
    }

    #[test]
    fn append_rows_route_extends_table_and_matches_full_reingest() {
        let state = state_with_table("t");
        let etag_of = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "ETag")
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let query_body = r#"{"query":"key >= 150"}"#;
        let before = route(
            &state,
            &request("POST", "/tables/t/characterize", query_body),
        );
        assert_eq!(before.status, 200, "{}", before.body);

        let rows = "200,30,1\n201,31,2\n";
        let body = serde_json::to_string(&Value::Object(vec![(
            "rows".into(),
            Value::String(rows.into()),
        )]))
        .unwrap();
        let r = route(&state, &request("POST", "/tables/t/rows", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"n_rows\":202"), "{}", r.body);
        assert!(r.body.contains("\"appended\":2"), "{}", r.body);
        assert_eq!(state.metrics.appends.get(), 1);
        assert_eq!(state.metrics.rows_appended.get(), 2);

        // The appended rows land in the selection, so the report (and
        // its ETag) must change — stale derived caches would be a bug.
        let after = route(
            &state,
            &request("POST", "/tables/t/characterize", query_body),
        );
        assert_eq!(after.status, 200, "{}", after.body);
        assert_ne!(after.body, before.body);
        assert_ne!(etag_of(&after), etag_of(&before));

        // Rebuild equivalence, end to end: a fresh server ingesting the
        // combined CSV serves byte-identical report bytes and the same
        // ETag (cached bytes carry zeroed timings, so this is full byte
        // equality, not modulo-noise).
        let fresh = ServeState::default();
        fresh
            .registry
            .insert_csv(
                "t",
                &format!("{}{}", demo_csv(), rows),
                ZiggyConfig::default(),
            )
            .unwrap();
        let rebuilt = route(
            &fresh,
            &request("POST", "/tables/t/characterize", query_body),
        );
        assert_eq!(rebuilt.status, 200, "{}", rebuilt.body);
        assert_eq!(after.body, rebuilt.body);
        assert_eq!(etag_of(&after), etag_of(&rebuilt));

        // And the export is the combined bytes.
        let exported = route(&state, &request("GET", "/tables/t/csv", ""));
        let v = serde_json::from_str_value(&exported.body).unwrap();
        assert_eq!(
            v.get("csv").unwrap().as_str().unwrap(),
            format!("{}{}", demo_csv(), rows)
        );

        // Guards: type-flipping rows 422, wrong method 405, absent 404.
        let bad = serde_json::to_string(&Value::Object(vec![(
            "rows".into(),
            Value::String("oops,1,2\n".into()),
        )]))
        .unwrap();
        assert_eq!(
            route(&state, &request("POST", "/tables/t/rows", &bad)).status,
            422
        );
        assert_eq!(
            route(&state, &request("GET", "/tables/t/rows", "")).status,
            405
        );
        assert_eq!(
            route(&state, &request("POST", "/tables/nope/rows", &body)).status,
            404
        );
    }

    #[test]
    fn characterize_honors_per_request_config_override() {
        let state = state_with_table("t");
        let base = route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150"}"#,
            ),
        );
        assert_eq!(base.status, 200, "{}", base.body);
        let base_views = serde_json::from_str_value(&base.body)
            .unwrap()
            .get("views")
            .unwrap()
            .as_array()
            .unwrap()
            .len();
        assert!(base_views > 1, "need >1 base views for the override test");

        let r = route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150","config":{"max_views":1}}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let overridden_views = serde_json::from_str_value(&r.body)
            .unwrap()
            .get("views")
            .unwrap()
            .as_array()
            .unwrap()
            .len();
        assert_eq!(overridden_views, 1);

        // The override is per-request: the default config still applies.
        let again = route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150"}"#,
            ),
        );
        assert_eq!(
            serde_json::from_str_value(&again.body)
                .unwrap()
                .get("views")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            base_views
        );

        // Unknown fields and invalid values are client errors.
        for (body, want) in [
            (r#"{"query":"key >= 150","config":{"max_wiews":1}}"#, 400),
            (r#"{"query":"key >= 150","config":7}"#, 400),
            (r#"{"query":"key >= 150","config":{"max_views":0}}"#, 422),
        ] {
            let r = route(&state, &request("POST", "/tables/t/characterize", body));
            assert_eq!(r.status, want, "{body}: {}", r.body);
        }
        // A null config is the same as no config.
        let r = route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150","config":null}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn characterize_carries_etag_and_honors_if_none_match() {
        let state = state_with_table("t");
        let body = r#"{"query":"key >= 150"}"#;
        let first = route(&state, &request("POST", "/tables/t/characterize", body));
        assert_eq!(first.status, 200, "{}", first.body);
        let etag = first
            .headers
            .iter()
            .find(|(k, _)| k == "ETag")
            .map(|(_, v)| v.clone())
            .expect("characterize responses carry an ETag");
        assert!(etag.starts_with('"') && etag.ends_with('"'), "{etag}");

        // A conditional repeat revalidates without a body.
        let not_modified = route(
            &state,
            &request_with_headers(
                "POST",
                "/tables/t/characterize",
                &[("if-none-match", &etag)],
                body,
            ),
        );
        assert_eq!(not_modified.status, 304, "{}", not_modified.body);
        assert!(not_modified.body.is_empty());
        assert!(
            not_modified
                .headers
                .iter()
                .any(|(k, v)| k == "ETag" && *v == etag),
            "304 must re-state the ETag"
        );
        assert_eq!(state.metrics.not_modified_total.get(), 1);

        // List syntax and weak validators match; a stale tag does not.
        let listed = route(
            &state,
            &request_with_headers(
                "POST",
                "/tables/t/characterize",
                &[("if-none-match", &format!("\"stale\", W/{etag}"))],
                body,
            ),
        );
        assert_eq!(listed.status, 304);
        let stale = route(
            &state,
            &request_with_headers(
                "POST",
                "/tables/t/characterize",
                &[("if-none-match", "\"0000000000000000\"")],
                body,
            ),
        );
        assert_eq!(stale.status, 200);
        assert_eq!(stale.body, first.body, "stale tag gets the full bytes");

        // A different query gets a different ETag.
        let other = route(
            &state,
            &request("POST", "/tables/t/characterize", r#"{"query":"key < 50"}"#),
        );
        let other_etag = other
            .headers
            .iter()
            .find(|(k, _)| k == "ETag")
            .map(|(_, v)| v.clone())
            .unwrap();
        assert_ne!(other_etag, etag);
    }

    #[test]
    fn delete_table_clears_report_and_prepared_caches() {
        let state = state_with_table("t");
        let entry = state.registry.get("t").unwrap();
        route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150"}"#,
            ),
        );
        assert_eq!(entry.engine().report_cache().len(), 1);
        assert_eq!(entry.engine().prepared_cache().len(), 1);
        let r = route(&state, &request("DELETE", "/tables/t", ""));
        assert_eq!(r.status, 200, "{}", r.body);
        // The caches empty immediately, even though this test still pins
        // the engine through its Arc.
        assert!(entry.engine().report_cache().is_empty());
        assert!(entry.engine().prepared_cache().is_empty());
    }

    #[test]
    fn override_does_not_poison_default_report_cache() {
        // Regression: the report cache is shared by configuration forks,
        // so an override request must neither be served the default
        // configuration's bytes nor overwrite them.
        let state = state_with_table("t");
        let default_body = r#"{"query":"key >= 150"}"#;
        let base = route(
            &state,
            &request("POST", "/tables/t/characterize", default_body),
        );
        assert_eq!(base.status, 200, "{}", base.body);

        let overridden = route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150","config":{"max_views":1}}"#,
            ),
        );
        assert_eq!(overridden.status, 200, "{}", overridden.body);
        assert_ne!(overridden.body, base.body);
        assert_eq!(
            serde_json::from_str_value(&overridden.body)
                .unwrap()
                .get("views")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1
        );

        // The default entry is intact: byte-identical (timings included)
        // and served from the cache.
        let again = route(
            &state,
            &request("POST", "/tables/t/characterize", default_body),
        );
        assert_eq!(
            again.body, base.body,
            "default entry must survive the override"
        );
        let entry = state.registry.get("t").unwrap();
        let c = entry.engine().report_cache().counters();
        assert_eq!((c.hits, c.misses), (1, 2), "{c:?}");

        // And a repeated override is itself warm: the fork re-keys into
        // the same shared cache.
        let warm = route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150","config":{"max_views":1}}"#,
            ),
        );
        assert_eq!(warm.body, overridden.body);
        let c = entry.engine().report_cache().counters();
        assert_eq!((c.hits, c.misses), (2, 2), "{c:?}");
    }

    #[test]
    fn csv_export_round_trips_through_replicate() {
        let state = state_with_table("t");
        let r = route(&state, &request("GET", "/tables/t/csv", ""));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = serde_json::from_str_value(&r.body).unwrap();
        let csv = v.get("csv").unwrap().as_str().unwrap().to_string();
        assert_eq!(csv, demo_csv(), "export must be the original bytes");
        let fp = v.get("fingerprint").unwrap().as_str().unwrap();
        assert_eq!(fp, format!("{:016x}", crate::fnv1a_64(csv.as_bytes())));

        // The export replicates onto another server as the *same* table:
        // idempotent against the original ingest's fingerprint.
        let other = ServeState::default();
        let put_body = serde_json::to_string(&Value::Object(vec![(
            "csv".into(),
            Value::String(csv.clone()),
        )]))
        .unwrap();
        let r = route(&other, &request("PUT", "/tables/t", &put_body));
        assert_eq!(r.status, 201, "{}", r.body);
        let r = route(&other, &request("GET", "/tables/t/csv", ""));
        assert_eq!(
            serde_json::from_str_value(&r.body)
                .unwrap()
                .get("csv")
                .unwrap()
                .as_str(),
            Some(csv.as_str()),
            "replicated tables re-export the same bytes"
        );

        // Unknown tables and provenance-free registrations are 404; the
        // path only speaks GET.
        let r = route(&state, &request("GET", "/tables/absent/csv", ""));
        assert_eq!(r.status, 404);
        let table =
            ziggy_store::csv::read_csv_str(&demo_csv(), &ziggy_store::csv::CsvOptions::default())
                .unwrap();
        state
            .registry
            .insert_table("inproc", table, ZiggyConfig::default())
            .unwrap();
        let r = route(&state, &request("GET", "/tables/inproc/csv", ""));
        assert_eq!(r.status, 404, "{}", r.body);
        let r = route(&state, &request("POST", "/tables/t/csv", ""));
        assert_eq!(r.status, 405);
    }

    /// Route-level twin of the registry invariant: the exported bytes,
    /// the exported fingerprint and the entry's fingerprint agree, and
    /// re-uploading the export is idempotent (200, not 409).
    fn assert_route_export_consistent(state: &ServeState, name: &str) {
        let r = route(state, &request("GET", &format!("/tables/{name}/csv"), ""));
        assert_eq!(r.status, 200, "{}", r.body);
        let v = serde_json::from_str_value(&r.body).unwrap();
        let csv = v.get("csv").unwrap().as_str().unwrap().to_string();
        let fp = crate::fnv1a_64(csv.as_bytes());
        assert_eq!(
            v.get("fingerprint").unwrap().as_str(),
            Some(format!("{fp:016x}").as_str())
        );
        assert_eq!(state.registry.get(name).unwrap().fingerprint(), Some(fp));
        let put_body =
            serde_json::to_string(&Value::Object(vec![("csv".into(), Value::String(csv))]))
                .unwrap();
        let r = route(
            state,
            &request("PUT", &format!("/tables/{name}"), &put_body),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"created\":false"), "{}", r.body);
    }

    /// Ingests a CSV whose last line is unterminated, then appends to
    /// it, checking the export after each step.
    fn ingest_unterminated_and_append(state: &ServeState) {
        let r = route(
            state,
            &request(
                "POST",
                "/tables",
                r#"{"name":"t","csv":"key,hot,cold\n1,2,3\n4,5,6"}"#,
            ),
        );
        assert_eq!(r.status, 201, "{}", r.body);
        assert_route_export_consistent(state, "t");
        let r = route(
            state,
            &request("POST", "/tables/t/rows", r#"{"rows":"7,8,9\n"}"#),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert_route_export_consistent(state, "t");
    }

    #[test]
    fn unterminated_base_export_is_consistent_in_memory() {
        ingest_unterminated_and_append(&ServeState::default());
    }

    #[test]
    fn unterminated_base_export_is_consistent_across_replay() {
        // snapshot_every = 0 replays from segments; 1 snapshots after
        // every mutating request, so replay starts from a snapshot.
        for snapshot_every in [0, 1] {
            let dir = std::env::temp_dir().join(format!(
                "ziggy-serve-router-{}-unterminated-{snapshot_every}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let boot = |state: &ServeState| {
                crate::boot_durable(state, &dir, crate::DurabilityMode::Batch, snapshot_every)
                    .unwrap()
            };
            {
                let state = ServeState::default();
                boot(&state);
                ingest_unterminated_and_append(&state);
            }
            let state = ServeState::default();
            boot(&state);
            assert_route_export_consistent(&state, "t");
            let r = route(
                &state,
                &request("POST", "/tables/t/rows", r#"{"rows":"10,11,12"}"#),
            );
            assert_eq!(r.status, 200, "{}", r.body);
            assert_route_export_consistent(&state, "t");
            let r = route(&state, &request("GET", "/tables/t/csv", ""));
            assert!(
                r.body
                    .contains(r#""csv":"key,hot,cold\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n""#),
                "{}",
                r.body
            );
            drop(state);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn replicate_route_is_idempotent() {
        let state = ServeState::default();
        let body = serde_json::to_string(&Value::Object(vec![(
            "csv".into(),
            Value::String(demo_csv()),
        )]))
        .unwrap();
        let r = route(&state, &request("PUT", "/tables/rep", &body));
        assert_eq!(r.status, 201, "{}", r.body);
        assert!(r.body.contains("\"created\":true"), "{}", r.body);
        let r = route(&state, &request("PUT", "/tables/rep", &body));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"created\":false"), "{}", r.body);
        assert_eq!(state.metrics.tables_created.get(), 1);
        assert_eq!(state.registry.len(), 1);
    }

    #[test]
    fn metrics_report_expired_sessions() {
        let state = state_with_table("t");
        state
            .sessions
            .set_ttl(Some(std::time::Duration::from_millis(20)));
        let r = route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#));
        assert_eq!(r.status, 201, "{}", r.body);
        std::thread::sleep(std::time::Duration::from_millis(40));
        let r = route(&state, &request("GET", "/metrics", ""));
        let v = serde_json::from_str_value(&r.body).unwrap();
        let requests = v.get("requests").unwrap();
        assert_eq!(requests.get("sessions_expired").unwrap().as_u64(), Some(1));
        assert!(state.sessions.is_empty());
    }

    #[test]
    fn metrics_include_cache_counters() {
        let state = state_with_table("t");
        route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150"}"#,
            ),
        );
        let r = route(&state, &request("GET", "/metrics", ""));
        assert_eq!(r.status, 200);
        let v = serde_json::from_str_value(&r.body).unwrap();
        let tables = v.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let cache = tables[0].get("cache").unwrap();
        assert!(cache.get("misses").unwrap().as_u64().unwrap() > 0);
        // The per-query PreparedStats cache reports alongside: one
        // characterization so far = one build, no hits yet.
        let prepared = tables[0].get("prepared").unwrap();
        assert_eq!(prepared.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(prepared.get("hits").unwrap().as_u64(), Some(0));
        assert_eq!(prepared.get("entries").unwrap().as_u64(), Some(1));
        // One characterization so far: one report build, no hits yet.
        let reports = tables[0].get("reports").unwrap();
        assert_eq!(reports.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(reports.get("hits").unwrap().as_u64(), Some(0));
        assert_eq!(reports.get("entries").unwrap().as_u64(), Some(1));
        // A repeat of the same predicate is absorbed at the *report*
        // level: the prepared cache (and everything below it) is never
        // consulted again.
        route(
            &state,
            &request(
                "POST",
                "/tables/t/characterize",
                r#"{"query":"key >= 150"}"#,
            ),
        );
        let r = route(&state, &request("GET", "/metrics", ""));
        let v = serde_json::from_str_value(&r.body).unwrap();
        let table = &v.get("tables").unwrap().as_array().unwrap()[0];
        let prepared = table.get("prepared").unwrap();
        assert_eq!(prepared.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(prepared.get("hits").unwrap().as_u64(), Some(0));
        let reports = table.get("reports").unwrap();
        assert_eq!(reports.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(reports.get("hits").unwrap().as_u64(), Some(1));
        let requests = v.get("requests").unwrap();
        assert_eq!(requests.get("characterizations").unwrap().as_u64(), Some(2));
        assert_eq!(requests.get("report_cache_hits").unwrap().as_u64(), Some(1));
        assert!(v
            .get("stage_timings_us")
            .unwrap()
            .get("preparation")
            .unwrap()
            .as_u64()
            .is_some());
    }

    fn step_body(query: &str) -> String {
        serde_json::to_string(&Value::Object(vec![(
            "query".into(),
            Value::String(query.into()),
        )]))
        .unwrap()
    }

    /// The `diff` member of a step response, re-rendered.
    fn diff_of(step: &Response) -> String {
        let v = serde_json::from_str_value(&step.body).unwrap();
        serde_json::to_string(v.get("diff").unwrap()).unwrap()
    }

    #[test]
    fn restoring_a_64_step_session_characterizes_once() {
        let queries: Vec<String> = (0..64).map(|i| format!("key >= {}", 100 + i)).collect();
        // snapshot_every = 0 replays the session from segments; 1
        // snapshots after every mutating request, so it comes back out
        // of a snapshot.
        for snapshot_every in [0, 1] {
            let dir = std::env::temp_dir().join(format!(
                "ziggy-serve-router-{}-restore-once-{snapshot_every}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let boot = |state: &ServeState| {
                crate::boot_durable(state, &dir, crate::DurabilityMode::Async, snapshot_every)
                    .unwrap()
            };
            {
                let state = ServeState::default();
                boot(&state);
                let body = serde_json::to_string(&Value::Object(vec![
                    ("name".into(), Value::String("t".into())),
                    ("csv".into(), Value::String(demo_csv())),
                ]))
                .unwrap();
                assert_eq!(
                    route(&state, &request("POST", "/tables", &body)).status,
                    201
                );
                let r = route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#));
                assert_eq!(r.status, 201, "{}", r.body);
                for q in &queries {
                    let r = route(&state, &request("POST", "/sessions/1/step", &step_body(q)));
                    assert_eq!(r.status, 200, "{}", r.body);
                }
                let c = state
                    .registry
                    .get("t")
                    .unwrap()
                    .engine()
                    .report_cache()
                    .counters();
                assert_eq!(c.misses, 64, "64 distinct queries, {c:?}");
            }
            let state = ServeState::default();
            boot(&state);
            let entry = state.registry.get("t").unwrap();
            let engine = entry.engine();
            let c = engine.report_cache().counters();
            assert_eq!(c.misses, 1, "restore must characterize once: {c:?}");

            let next = "key >= 90";
            let r = route(
                &state,
                &request("POST", "/sessions/1/step", &step_body(next)),
            );
            assert_eq!(r.status, 200, "{}", r.body);
            assert!(r.body.contains("\"step\":65"), "{}", r.body);
            let previous = engine.characterize(&queries[63]).unwrap();
            let current = engine.characterize(next).unwrap();
            let expected = ziggy_core::diff_reports(&previous, &current);
            assert_eq!(
                diff_of(&r),
                serde_json::to_string(&serde_json::to_value(&expected).unwrap()).unwrap()
            );
            drop((entry, state));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resumed_sessions_continue_the_count_and_the_diff() {
        let dir =
            std::env::temp_dir().join(format!("ziggy-serve-router-{}-resume", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let boot = |state: &ServeState| {
            crate::boot_durable(state, &dir, crate::DurabilityMode::Async, 0).unwrap()
        };
        let state = ServeState::default();
        boot(&state);
        let body = serde_json::to_string(&Value::Object(vec![
            ("name".into(), Value::String("t".into())),
            ("csv".into(), Value::String(demo_csv())),
        ]))
        .unwrap();
        assert_eq!(
            route(&state, &request("POST", "/tables", &body)).status,
            201
        );

        // The conversation to continue: A then B on session 1.
        let (a, b) = ("key >= 150", "key >= 120");
        assert_eq!(
            route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#)).status,
            201
        );
        for q in [a, b] {
            let r = route(&state, &request("POST", "/sessions/1/step", &step_body(q)));
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let original = route(&state, &request("POST", "/sessions/1/step", &step_body(b)));

        // Malformed resumes are 400s, a query the engine rejects is a
        // 422: none creates a session.
        for (resume, want) in [
            (r#"{"query":"key >= 150","steps":0}"#, 400),
            (r#"{"query":"key >= 150","steps":-3}"#, 400),
            (r#"{"query":"key >= 150","steps":"2"}"#, 400),
            (r#"{"query":"key >= 150","steps":1.5}"#, 400),
            (r#"{"steps":2}"#, 400),
            (r#""key >= 150""#, 400),
            (r#"{"query":"key >>> 1","steps":2}"#, 422),
            (r#"{"query":"key < -5","steps":2}"#, 422),
        ] {
            let body = format!(r#"{{"table":"t","resume":{resume}}}"#);
            let r = route(&state, &request("POST", "/sessions", &body));
            assert_eq!(r.status, want, "{resume}: {}", r.body);
        }
        assert_eq!(state.sessions.len(), 1);
        let steps_before = state.metrics.session_steps.get();

        // Resume after step 2 (A, B): the next step is #3, diffed
        // against B, exactly as session 1's step 3 was.
        let body = format!(r#"{{"table":"t","resume":{{"query":"{b}","steps":2}}}}"#);
        let r = route(&state, &request("POST", "/sessions", &body));
        assert_eq!(r.status, 201, "{}", r.body);
        assert!(r.body.contains("\"session_id\":2"), "{}", r.body);
        assert_eq!(
            state.metrics.session_steps.get(),
            steps_before,
            "no step ran"
        );
        let resumed = route(&state, &request("POST", "/sessions/2/step", &step_body(b)));
        assert_eq!(resumed.status, 200, "{}", resumed.body);
        assert!(resumed.body.contains("\"step\":3"), "{}", resumed.body);
        assert_ne!(diff_of(&resumed), "null", "{}", resumed.body);
        assert_eq!(diff_of(&resumed), diff_of(&original));

        // The WAL holds the resume as a create plus step 2, and nothing
        // of the rejected resumes: replay restores exactly sessions 1
        // and 2, both at step 3.
        drop(state);
        let state = ServeState::default();
        boot(&state);
        assert_eq!(state.sessions.len(), 2);
        for id in [1, 2] {
            let path = format!("/sessions/{id}/step");
            let r = route(&state, &request("POST", &path, &step_body(b)));
            assert_eq!(r.status, 200, "{}", r.body);
            assert!(r.body.contains("\"step\":4"), "{}", r.body);
            assert_eq!(diff_of(&r), diff_of(&original));
        }
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_sessions_stay_closed_across_replay() {
        let dir =
            std::env::temp_dir().join(format!("ziggy-serve-router-{}-expiry", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let boot = |state: &ServeState| {
            crate::boot_durable(state, &dir, crate::DurabilityMode::Batch, 0).unwrap()
        };
        {
            let state = ServeState::default();
            boot(&state);
            state
                .sessions
                .set_ttl(Some(std::time::Duration::from_millis(30)));
            let body = serde_json::to_string(&Value::Object(vec![
                ("name".into(), Value::String("t".into())),
                ("csv".into(), Value::String(demo_csv())),
            ]))
            .unwrap();
            assert_eq!(
                route(&state, &request("POST", "/tables", &body)).status,
                201
            );
            for _ in 0..2 {
                let r = route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#));
                assert_eq!(r.status, 201, "{}", r.body);
            }
            let step = step_body("key >= 150");
            let r = route(&state, &request("POST", "/sessions/1/step", &step));
            assert_eq!(r.status, 200, "{}", r.body);
            // Session 1 idles past the TTL; creating session 3 sweeps it
            // (and the never-stepped session 2) away.
            std::thread::sleep(std::time::Duration::from_millis(60));
            let r = route(&state, &request("POST", "/sessions", r#"{"table":"t"}"#));
            assert!(r.body.contains("\"session_id\":3"), "{}", r.body);
            assert_eq!(state.sessions.len(), 1);
        }
        // Replay must not resurrect the swept sessions.
        let state = ServeState::default();
        boot(&state);
        assert_eq!(state.sessions.len(), 1);
        let step = step_body("key >= 150");
        for id in [1, 2] {
            let path = format!("/sessions/{id}/step");
            let r = route(&state, &request("POST", &path, &step));
            assert_eq!(r.status, 404, "session {id} came back: {}", r.body);
        }
        let r = route(&state, &request("POST", "/sessions/3/step", &step));
        assert!(r.body.contains("\"step\":1"), "{}", r.body);
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
