//! The fleet's request router: placement, replication, failover,
//! scatter-gather, and runtime membership.
//!
//! Every table-addressed request hashes the table name onto the
//! [`HashRing`] to get its replica set (R backends in deterministic
//! failover order). Reads (`characterize`) try replicas healthy-first,
//! rotated per-request so load spreads across the replica set; a connect
//! or IO error marks the backend and fails over to the next replica
//! without the client noticing. Writes (ingest, delete) fan out to the
//! whole replica set. Fleet-wide reads (`GET /tables`, `GET /metrics`)
//! scatter to every backend in parallel and gather one merged document.
//!
//! # Dynamic membership
//!
//! Membership is no longer frozen at startup: the ring, the backend
//! list, and a monotonically increasing **epoch** live together in one
//! immutable [`Membership`] value behind an `RwLock<Arc<_>>`. Admin
//! requests (`POST /admin/backends`, `DELETE /admin/backends/{id}`)
//! build a *new* membership (rebuilding the ring — bounded remapping is
//! the consistent-hash property the ring suite pins) and swap the `Arc`;
//! every data-path request snapshots the `Arc` once on entry and runs
//! entirely against that view, so in-flight requests **drain on the old
//! view** — a backend removed mid-request keeps serving the requests
//! already routed to it (the `Arc<Backend>` keeps its connection pool
//! alive) while no *new* request can route to it. The epoch is reported
//! on every response (`X-Fleet-Epoch`), in `/healthz`, and in
//! `/metrics`, so clients and tests can observe membership changes.
//!
//! Sessions are *sticky first, recoverable second*: a session is
//! created on one replica and its steps route there, because the
//! report its next step is diffed against lives in that backend's
//! memory. The mapping holds the backend by `Arc`, not by ring
//! position, so membership churn never re-points a session; removing a
//! session's home from the ring merely drains it. If the home *process
//! dies*, the router no longer answers a blanket 503: its ledger keeps
//! each session's last query and step count, and it resumes the session
//! on another healthy replica of the table — one `POST /sessions` with
//! `resume`, then the interrupted step (reports are deterministic, so
//! the next diff matches the one the lost home would have sent). Only a
//! session whose table has no other live replica is truly lost, and
//! the 503 says so explicitly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde_json::Value;
use ziggy_obs::span::{self, DEFAULT_TRACE_CAPACITY, SPAN_CONTEXT_HEADER};
use ziggy_obs::trace::TRACE_HEADER;
use ziggy_obs::{FlightRecorder, LoopStats, PromDoc, RouteHistograms};
use ziggy_serve::http::{Request, Response};
use ziggy_serve::json::{body_text, parse_object, required_str};
use ziggy_serve::metrics::{
    by_label, counter, gauge, histogram, info, nonempty, one, put_json, render_json,
    render_prometheus, text, Counter, Digest, Family, Rows, Sample,
};
use ziggy_serve::router::{trace_json, DEFAULT_SLOW_US};

use crate::backend::Backend;
use crate::ring::HashRing;

/// Route-label keys for the router's latency histograms: the single-node
/// keys plus the fleet-only `admin` surface.
pub const FLEET_ROUTE_KEYS: &[&str] = &[
    "healthz",
    "metrics",
    "tables",
    "characterize",
    "csv",
    "sessions",
    "session_step",
    "admin",
    "other",
];

/// Maps a request to its route-label key, always one of
/// [`FLEET_ROUTE_KEYS`] (bounded cardinality; see
/// [`ziggy_serve::metrics::route_key`]). Serve-only keys such as `rows`
/// and `tombstones` name no router route, so they fall into `other`.
pub fn fleet_route_key(method: &str, path: &str) -> &'static str {
    if path == "/admin" || path.starts_with("/admin/") {
        return "admin";
    }
    match ziggy_serve::metrics::route_key(method, path) {
        key if FLEET_ROUTE_KEYS.contains(&key) => key,
        _ => "other",
    }
}

fn num_u(n: u64) -> Value {
    Value::Number(serde_json::Number::U(n))
}

fn error_response(status: u16, message: &str) -> Response {
    Response::new(
        status,
        serde_json::to_string(&Value::Object(vec![(
            "error".into(),
            Value::String(message.into()),
        )]))
        .expect("error bodies always render"),
    )
}

/// Router-level counters (backend `/metrics` are gathered separately).
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Requests that reached the fleet router.
    pub requests_total: Counter,
    /// Requests answered with 4xx/5xx by the router itself.
    pub errors_total: Counter,
    /// Requests forwarded to a backend (including fan-out legs).
    pub proxied_total: Counter,
    /// Failovers: a replica attempt failed at the transport level and
    /// the request moved on to the next replica.
    pub failovers_total: Counter,
    /// Requests refused with 429 by the router's rate limiter.
    pub rate_limited: Counter,
    /// Successful admin membership changes (adds + removes). Equals the
    /// number of epoch bumps beyond the initial membership.
    pub membership_changes: Counter,
    /// Tables re-materialized onto a backend by the repair loop.
    pub repairs_total: Counter,
    /// Repair attempts that failed (source export or replicate leg).
    pub repair_failures_total: Counter,
    /// Stale copies deleted by the repair loop because a strictly newer
    /// tombstone proved the table deleted (resurrections prevented).
    pub deletes_propagated_total: Counter,
    /// Stranded copies garbage-collected from backends outside their
    /// table's desired replica set.
    pub strays_collected_total: Counter,
    /// Sessions transparently rebuilt on another replica after their
    /// home backend died mid-conversation.
    pub session_failovers_total: Counter,
    /// Solely-held tables copied off a backend by the pre-drain safety
    /// check before its removal was allowed.
    pub drain_copyouts_total: Counter,
}

/// Upper bound on live fleet→backend session mappings; creation beyond
/// it is refused (409). Mirrors the single-node `MAX_SESSIONS` so the
/// router cannot be grown without bound by abandoned clients.
pub const MAX_FLEET_SESSIONS: usize = 4096;

/// A fleet session: which backend holds the real session, under what id.
/// The backend is held by `Arc` — not by ring index — so membership
/// changes can neither re-point the session nor dangle it.
struct FleetSession {
    backend: Arc<Backend>,
    backend_session: u64,
    table: String,
    /// The failover ledger: the last query stepped through this session
    /// and its lifetime step count. When the home backend dies, the
    /// session is resumed on another replica from these two (reports
    /// are deterministic, so the next diff matches the lost one).
    last_query: Option<String>,
    steps: u64,
    /// Last create/step activity; mappings idle past the TTL are swept
    /// (their backend sessions expire independently on the backend).
    last_used: Instant,
}

/// One immutable view of fleet membership: the backends, the ring built
/// over them, and the epoch that versions this view. Data-path requests
/// snapshot the enclosing `Arc` once and never observe a membership
/// change mid-flight.
pub struct Membership {
    epoch: u64,
    backends: Vec<Arc<Backend>>,
    ring: HashRing,
}

impl Membership {
    fn build(epoch: u64, backends: Vec<Arc<Backend>>, vnodes: usize) -> Self {
        let ids: Vec<String> = backends.iter().map(|b| b.id().to_string()).collect();
        Self {
            epoch,
            ring: HashRing::build(&ids, vnodes),
            backends,
        }
    }

    /// The membership version; bumps by one per admin add/remove.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The member backends, in membership order.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.backends
    }

    /// The consistent-hash ring over this view's backends.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The replica set for `table` under this view, in ring (failover)
    /// order.
    pub fn replicas_for(&self, table: &str, r: usize) -> Vec<Arc<Backend>> {
        self.ring
            .replicas_for(table, r)
            .into_iter()
            .map(|i| Arc::clone(&self.backends[i]))
            .collect()
    }

    /// The backend with the given id, if it is a member of this view.
    pub fn backend(&self, id: &str) -> Option<&Arc<Backend>> {
        self.backends.iter().find(|b| b.id() == id)
    }
}

/// Shared router state: the versioned membership, the session map, the
/// counters.
pub struct FleetState {
    membership: RwLock<Arc<Membership>>,
    replication: usize,
    vnodes: usize,
    sessions: RwLock<HashMap<u64, FleetSession>>,
    next_session: AtomicU64,
    /// Idle TTL for session mappings; `None` disables sweeping (the
    /// [`MAX_FLEET_SESSIONS`] cap still bounds the map).
    session_ttl: Option<Duration>,
    /// Last sweep time, for throttling (see
    /// [`FleetState::sweep_sessions`]).
    last_session_sweep: Mutex<Option<Instant>>,
    /// Per-request rotation so reads spread over a table's replica set.
    round_robin: AtomicUsize,
    /// Router-level counters.
    pub metrics: FleetMetrics,
    /// Per-route request latency at the router edge, keyed by
    /// [`FLEET_ROUTE_KEYS`].
    pub route_latency: RouteHistograms,
    /// The router's flight recorder: one trace per routed request, its
    /// upstream legs as child spans. `GET /debug/traces/{id}` overlays
    /// the backends' spans for the same trace on top of this local view.
    pub recorder: Arc<FlightRecorder>,
    /// Repair-loop round durations and outcomes.
    pub repair_stats: LoopStats,
    /// Prober round durations and outcomes (shared with the prober
    /// thread).
    pub probe_stats: Arc<LoopStats>,
    /// Consecutive clean repair rounds (the stray-GC grace counter; see
    /// [`crate::repair::GC_GRACE_ROUNDS`]).
    pub(crate) repair_clean_streak: AtomicU64,
    /// Membership epoch the last repair round ran under; a change
    /// resets the clean streak.
    pub(crate) repair_epoch: AtomicU64,
    /// Ingest fan-outs, for repair: table → `u64::MAX` while a `POST
    /// /tables` is placing it, then the `ingest_clock` tick at which it
    /// finished. A repair scan that overlapped an ingest may have caught
    /// the table half-placed; that round leaves it to the ingest.
    pub(crate) ingests: Mutex<HashMap<String, u64>>,
    pub(crate) ingest_clock: AtomicU64,
    /// Event-loop data-plane counters and pool gauges (populated when
    /// the router fronts with [`crate::dataplane::DataPlane`]).
    pub dataplane: Arc<crate::dataplane::DataPlaneStats>,
    /// Router start, for `/healthz` uptime and the uptime gauge.
    pub started: Instant,
}

impl FleetState {
    /// Builds the router state over `backends` with `replication`
    /// replicas per table (capped per lookup to the live fleet size),
    /// `vnodes` virtual nodes per backend, and an idle TTL for session
    /// mappings. The initial membership is epoch 1.
    pub fn new(
        backends: Vec<Arc<Backend>>,
        replication: usize,
        vnodes: usize,
        session_ttl: Option<Duration>,
    ) -> Self {
        let vnodes = vnodes.max(1);
        Self {
            membership: RwLock::new(Arc::new(Membership::build(1, backends, vnodes))),
            replication: replication.max(1),
            vnodes,
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            session_ttl,
            last_session_sweep: Mutex::new(None),
            round_robin: AtomicUsize::new(0),
            metrics: FleetMetrics::default(),
            route_latency: RouteHistograms::new(FLEET_ROUTE_KEYS),
            recorder: Arc::new(FlightRecorder::new(DEFAULT_TRACE_CAPACITY, DEFAULT_SLOW_US)),
            repair_stats: LoopStats::new(),
            probe_stats: Arc::new(LoopStats::new()),
            repair_clean_streak: AtomicU64::new(0),
            repair_epoch: AtomicU64::new(0),
            ingests: Mutex::new(HashMap::new()),
            ingest_clock: AtomicU64::new(0),
            dataplane: Arc::new(crate::dataplane::DataPlaneStats::default()),
            started: Instant::now(),
        }
    }

    /// Snapshots the current membership view. One snapshot per request:
    /// everything the request does (placement, fan-out, failover) runs
    /// against this immutable view, so a concurrent admin change cannot
    /// tear a request between two rings.
    pub fn membership(&self) -> Arc<Membership> {
        Arc::clone(&self.membership.read())
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.membership.read().epoch
    }

    /// Adds a backend to the membership at runtime, bumping the epoch.
    /// Fails when the id is already a member. Returns the backend plus
    /// the epoch of the membership *this* add produced — captured under
    /// the write lock, so a racing admin change cannot make the caller
    /// report someone else's epoch. Tables whose replica set now
    /// includes the newcomer are re-materialized by the repair loop,
    /// not here — the admin call only changes routing.
    pub fn add_backend(
        &self,
        id: impl Into<String>,
        addr: std::net::SocketAddr,
    ) -> Result<(Arc<Backend>, u64), String> {
        let id = id.into();
        let mut slot = self.membership.write();
        if slot.backend(&id).is_some() {
            return Err(format!("backend `{id}` is already a member"));
        }
        let backend = Arc::new(Backend::new(id, addr));
        let mut backends = slot.backends.clone();
        backends.push(Arc::clone(&backend));
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Membership::build(epoch, backends, self.vnodes));
        self.metrics.membership_changes.inc();
        Ok((backend, epoch))
    }

    /// Removes a backend from the membership at runtime, bumping the
    /// epoch; returns the removed backend (its `Arc` — and connection
    /// pool — stays alive for requests already in flight on the old
    /// view, which is what makes removal a *drain*, not a kill) plus the
    /// epoch this removal produced (captured under the write lock, as on
    /// the add path). Returns `None` when the id is not a member.
    pub fn remove_backend(&self, id: &str) -> Option<(Arc<Backend>, u64)> {
        let mut slot = self.membership.write();
        let index = slot.backends.iter().position(|b| b.id() == id)?;
        let mut backends = slot.backends.clone();
        let removed = backends.remove(index);
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Membership::build(epoch, backends, self.vnodes));
        self.metrics.membership_changes.inc();
        Some((removed, epoch))
    }

    /// Drops session mappings idle past the TTL. Abandoned sessions
    /// would otherwise accumulate forever: the backend's own TTL reaps
    /// *its* half, but the router only notices on an explicit DELETE or
    /// a step that happens to see the backend's 404. Throttled to ~8
    /// sweeps per TTL so the step path stays O(1).
    fn sweep_sessions(&self) {
        let Some(ttl) = self.session_ttl else { return };
        let interval = (ttl / 8).max(Duration::from_millis(10));
        {
            let mut last = self.last_session_sweep.lock();
            let now = Instant::now();
            match *last {
                Some(prev) if now.duration_since(prev) < interval => return,
                _ => *last = Some(now),
            }
        }
        let now = Instant::now();
        self.sessions
            .write()
            .retain(|_, s| now.duration_since(s.last_used) < ttl);
    }

    /// A snapshot of the current member backends, in membership order.
    pub fn backends(&self) -> Vec<Arc<Backend>> {
        self.membership.read().backends.clone()
    }

    /// Desired replicas per table (the effective count is capped by the
    /// live membership size at each placement).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The replica set for `table` under the current membership, in ring
    /// (failover) order.
    pub fn replicas_for(&self, table: &str) -> Vec<Arc<Backend>> {
        self.membership().replicas_for(table, self.replication)
    }

    /// The backends to try for a read of `table`, in order:
    ///
    /// 1. the *healthy* nominal replicas, rotated by a per-request
    ///    counter so repeated reads spread across the replica set;
    /// 2. **only when some nominal replica is unhealthy**, the healthy
    ///    backends *beyond* the nominal set, continuing the ring walk —
    ///    exactly where the repair loop re-materializes a table whose
    ///    nominal replica died, so a repaired copy serves reads even
    ///    while the dead member is still on the ring (a backend there
    ///    that never received the table answers 404 and the failover
    ///    loop simply moves on);
    /// 3. the unhealthy nominal replicas, as a last resort (the prober
    ///    may lag reality, and a desperate try beats a guaranteed 503).
    ///
    /// With every nominal replica healthy the order is exactly the
    /// nominal set, so a request for an *unknown* table still costs at
    /// most R hops (each answering 404), never a full-fleet sweep.
    /// The [`crate::dataplane`] relay and session creation walk it.
    pub(crate) fn read_order(&self, view: &Membership, table: &str) -> Vec<Arc<Backend>> {
        let walk = view.replicas_for(table, view.backends().len());
        if walk.is_empty() {
            return walk;
        }
        let nominal = self.replication.min(walk.len());
        let replicas = &walk[..nominal];
        let any_nominal_unhealthy = replicas.iter().any(|b| !b.is_healthy());
        let rotation = self.round_robin.fetch_add(1, Ordering::Relaxed) % nominal;
        let mut ordered: Vec<Arc<Backend>> = Vec::with_capacity(walk.len());
        for offset in 0..nominal {
            let candidate = &replicas[(rotation + offset) % nominal];
            if candidate.is_healthy() {
                ordered.push(Arc::clone(candidate));
            }
        }
        if any_nominal_unhealthy {
            for candidate in &walk[nominal..] {
                if candidate.is_healthy() {
                    ordered.push(Arc::clone(candidate));
                }
            }
            for offset in 0..nominal {
                let candidate = &replicas[(rotation + offset) % nominal];
                if !candidate.is_healthy() {
                    ordered.push(Arc::clone(candidate));
                }
            }
        }
        ordered
    }
}

/// Routes one request, propagating `trace` (the request's
/// `X-Request-Id`) on every proxied leg so backend access logs carry
/// the same id as the router's. Returns the response plus the id of the
/// backend that served it, when exactly one did (for the access log).
pub fn route_fleet_traced(
    state: &FleetState,
    req: &Request,
    trace: Option<&str>,
) -> (Response, Option<String>) {
    state.metrics.requests_total.inc();
    // One membership snapshot per request: the whole request — placement,
    // fan-out, failover — drains on this view even if an admin call swaps
    // the membership mid-flight.
    let view = state.membership();
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let (response, backend) = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (handle_healthz(state, &view), None),
        ("GET", ["metrics"]) => (handle_metrics(state, &view, req), None),
        ("GET", ["tables"]) => (handle_list_tables(state, &view), None),
        ("POST", ["tables"]) => (handle_create_table(state, &view, &req.body), None),
        ("DELETE", ["tables", name]) => (handle_delete_table(state, &view, name), None),
        ("POST", ["sessions"]) => handle_create_session(state, &view, &req.body, trace),
        ("POST", ["sessions", id, "step"]) => handle_session_step(state, id, &req.body, trace),
        ("DELETE", ["sessions", id]) => handle_delete_session(state, id),
        ("GET", ["debug", "traces"]) => (handle_list_traces(state, req), None),
        ("GET", ["debug", "traces", id]) => (handle_get_trace(state, &view, id), None),
        ("GET", ["admin", "backends"]) => (handle_admin_list(&view), None),
        ("POST", ["admin", "backends"]) => (handle_admin_add(state, &req.body), None),
        ("DELETE", ["admin", "backends", id]) => (handle_admin_remove(state, &view, id, req), None),
        (
            _,
            ["healthz"]
            | ["metrics"]
            | ["tables"]
            | ["tables", _]
            | ["tables", _, "characterize"]
            | ["tables", _, "csv"]
            | ["sessions"]
            | ["sessions", _]
            | ["sessions", _, "step"]
            | ["debug", "traces"]
            | ["debug", "traces", _]
            | ["admin", "backends"]
            | ["admin", "backends", _],
        ) => (error_response(405, "method not allowed"), None),
        _ => (
            error_response(404, &format!("no route for {}", req.path)),
            None,
        ),
    };
    if response.status >= 400 {
        state.metrics.errors_total.inc();
    }
    // Every response reports the membership version it was routed under,
    // so clients (and the churn smoke) can correlate responses with
    // membership changes. Successful admin mutations already attached
    // their *post-change* epoch (reporting the pre-change view there
    // would tell a client its own accepted change hadn't happened);
    // don't overwrite it.
    let response = if response.headers.iter().any(|(k, _)| k == "X-Fleet-Epoch") {
        response
    } else {
        response.with_header("X-Fleet-Epoch", view.epoch().to_string())
    };
    (response, backend)
}

/// Whether a forwarded request may be transparently re-sent by the
/// connection pool. GET/PUT/DELETE are idempotent by contract (the
/// replicate path is *designed* to converge on retry), and POST
/// characterize is a pure read; POST session create/step mutate backend
/// state, so a duplicate would orphan a session or double-advance its
/// step count.
fn retry_safe(method: &str, path: &str) -> bool {
    method != "POST" || path.ends_with("/characterize")
}

/// One forwarded request leg, with passive health bookkeeping.
pub(crate) fn forward(
    state: &FleetState,
    backend: &Backend,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    forward_traced(state, backend, method, path, None, body)
}

/// [`forward`] carrying the request's trace id (the session legs), so
/// the backend's access log names the same trace.
///
/// Every leg opens a `fleet.upstream` child span (backend id and path
/// as attributes) and forwards its identity as `X-Span-Context`, so the
/// backend's own root span becomes a *child* of this leg — one trace id
/// then assembles the router's view and the backend's breakdown into a
/// single tree. Legs issued outside a request context (scatter threads,
/// the repair loop's direct [`forward`] calls) simply carry no span.
fn forward_traced(
    state: &FleetState,
    backend: &Backend,
    method: &str,
    path: &str,
    trace: Option<&str>,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    state.metrics.proxied_total.inc();
    let mut leg = span::child("fleet.upstream");
    let span_ctx = leg.as_mut().map(|g| {
        g.attr("backend", backend.id());
        g.attr("path", path);
        span::encode_span_context(g.trace_id(), g.span_id())
    });
    let mut headers: Vec<(&str, &str)> = trace.map(|t| (TRACE_HEADER, t)).into_iter().collect();
    if let Some(ctx) = span_ctx.as_deref() {
        headers.push((SPAN_CONTEXT_HEADER, ctx));
    }
    let started = Instant::now();
    match backend.pool().request_with_headers(
        method,
        path,
        &headers,
        body,
        retry_safe(method, path),
    ) {
        Ok((status, _, body)) => {
            backend.record_upstream(started.elapsed());
            backend.record_success();
            Ok((status, body))
        }
        Err(e) => {
            backend.record_failure();
            if let Some(g) = leg.as_mut() {
                g.set_error(true);
            }
            Err(e)
        }
    }
}

fn backend_summary(b: &Backend) -> Value {
    Value::Object(vec![
        ("id".into(), Value::String(b.id().to_string())),
        ("addr".into(), Value::String(b.addr().to_string())),
        ("healthy".into(), Value::Bool(b.is_healthy())),
    ])
}

fn handle_healthz(state: &FleetState, view: &Membership) -> Response {
    let backends: Vec<Value> = view.backends().iter().map(|b| backend_summary(b)).collect();
    let any_healthy = view.backends().iter().any(|b| b.is_healthy());
    // Age of the last completed repair round; null until one has run
    // (including when the repair loop is disabled).
    let repair_age = state
        .repair_stats
        .last_round_age()
        .map(|age| Value::Number(serde_json::Number::F(age.as_secs_f64())))
        .unwrap_or(Value::Null);
    let body = Value::Object(vec![
        (
            "status".into(),
            Value::String(if any_healthy { "ok" } else { "degraded" }.into()),
        ),
        ("epoch".into(), num_u(view.epoch())),
        ("replication".into(), num_u(state.replication as u64)),
        ("uptime_s".into(), num_u(state.started.elapsed().as_secs())),
        (
            "version".into(),
            Value::String(env!("CARGO_PKG_VERSION").into()),
        ),
        ("last_repair_round_age_s".into(), repair_age),
        ("backends".into(), Value::Array(backends)),
    ]);
    Response::new(
        if any_healthy { 200 } else { 503 },
        serde_json::to_string(&body).expect("health bodies always render"),
    )
}

fn handle_admin_list(view: &Membership) -> Response {
    let backends: Vec<Value> = view.backends().iter().map(|b| backend_summary(b)).collect();
    Response::new(
        200,
        serde_json::to_string(&Value::Object(vec![
            ("epoch".into(), num_u(view.epoch())),
            ("backends".into(), Value::Array(backends)),
        ]))
        .expect("admin listings always render"),
    )
}

/// `POST /admin/backends {"id": "...", "addr": "host:port"}` — grows the
/// ring at runtime. The new backend joins with no tables; the repair
/// loop re-materializes every table whose replica set now includes it
/// (bounded remapping keeps that set small — ~K/N tables for a fleet of
/// N), after which reads rotate onto it like any other replica.
fn handle_admin_add(state: &FleetState, body: &[u8]) -> Response {
    let parsed = match parse_object(body) {
        Ok(v) => v,
        Err(e) => return error_response(e.status, &e.message),
    };
    let id = match required_str(&parsed, "id") {
        Ok(v) => v.to_string(),
        Err(e) => return error_response(e.status, &e.message),
    };
    // Same alphabet as table names: the id is interpolated into log
    // lines and JSON documents, and a whitespace/CRLF-bearing id has no
    // legitimate use.
    if !ziggy_serve::valid_table_name(&id) {
        return error_response(400, "backend id must be 1-64 chars of [A-Za-z0-9_-]");
    }
    let addr = match required_str(&parsed, "addr") {
        Ok(v) => v,
        Err(e) => return error_response(e.status, &e.message),
    };
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(_) => return error_response(400, "addr must be a host:port socket address"),
    };
    match state.add_backend(id.clone(), addr) {
        Ok((backend, epoch)) => {
            Response::new(
                201,
                serde_json::to_string(&Value::Object(vec![
                    ("added".into(), Value::String(id)),
                    ("addr".into(), Value::String(backend.addr().to_string())),
                    ("epoch".into(), num_u(epoch)),
                ]))
                .expect("admin bodies always render"),
            )
            // The *post-change* epoch: this response acknowledges the
            // new membership, not the view the request was routed under.
            .with_header("X-Fleet-Epoch", epoch.to_string())
        }
        Err(message) => error_response(409, &message),
    }
}

/// `DELETE /admin/backends/{id}` — shrinks the ring at runtime. This is
/// a *drain*, not a kill: requests already routed to the backend finish
/// on the old membership view, its sticky sessions keep stepping while
/// the process lives, and only new placement/read decisions exclude it.
/// Tables that drop below R live replicas are re-materialized onto the
/// surviving members by the repair loop.
///
/// **Pre-drain safety**: removing the *only* holder of a table (R=1, or
/// every other replica already lost) would leave the repair loop no
/// source to re-materialize from — silent data loss by admin action. So
/// before the membership changes, the handler finds every table solely
/// held by the leaving backend and copies it out to the next healthy
/// ring holder. Only if a copy-out fails does the request refuse with
/// `409` and the stranded table list; `?force=true` skips the check
/// (the operator accepting the loss, e.g. removing a corrupt member).
fn handle_admin_remove(state: &FleetState, view: &Membership, id: &str, req: &Request) -> Response {
    let force = req.query_param("force") == Some("true");
    let mut copied_out: Vec<Value> = Vec::new();
    if !force {
        if let Some(doomed) = view.backend(id) {
            match copy_out_solely_held(state, view, doomed) {
                Ok(copied) => {
                    copied_out = copied.into_iter().map(Value::String).collect();
                }
                Err(stranded) => {
                    let body = Value::Object(vec![
                        (
                            "error".into(),
                            Value::String(format!(
                                "backend `{id}` solely holds {} table(s) that could not be \
                                 copied out; removing it would lose them (retry, or use \
                                 ?force=true to accept the loss)",
                                stranded.len()
                            )),
                        ),
                        (
                            "solely_held".into(),
                            Value::Array(stranded.into_iter().map(Value::String).collect()),
                        ),
                    ]);
                    return Response::new(
                        409,
                        serde_json::to_string(&body).expect("admin bodies always render"),
                    );
                }
            }
        }
    }
    match state.remove_backend(id) {
        Some((_, epoch)) => {
            Response::new(
                200,
                serde_json::to_string(&Value::Object(vec![
                    ("removed".into(), Value::String(id.to_string())),
                    ("copied_out".into(), Value::Array(copied_out)),
                    ("epoch".into(), num_u(epoch)),
                ]))
                .expect("admin bodies always render"),
            )
            // Post-change epoch, as on the add path.
            .with_header("X-Fleet-Epoch", epoch.to_string())
        }
        None => error_response(404, &format!("no backend `{id}` in the membership")),
    }
}

/// Finds every table held *only* by `doomed` (no other member lists it)
/// and replicates each to the first healthy ring holder that isn't
/// `doomed`. Returns the copied table names, or — when any leg fails —
/// the names still stranded on the backend. A `doomed` that cannot even
/// list its tables is treated as holding nothing: its data is already
/// unreachable, and blocking the drain would not bring it back.
fn copy_out_solely_held(
    state: &FleetState,
    view: &Membership,
    doomed: &Arc<Backend>,
) -> Result<Vec<String>, Vec<String>> {
    let table_names = |body: &str| -> Vec<String> {
        serde_json::from_str_value(body)
            .ok()
            .and_then(|v| {
                v.get("tables").and_then(Value::as_array).map(|tables| {
                    tables
                        .iter()
                        .filter_map(|t| t.get("name").and_then(Value::as_str).map(str::to_string))
                        .collect()
                })
            })
            .unwrap_or_default()
    };
    let held: Vec<String> = match forward(state, doomed, "GET", "/tables", None) {
        Ok((200, body)) => table_names(&body),
        _ => return Ok(Vec::new()),
    };
    if held.is_empty() {
        return Ok(Vec::new());
    }
    // Who else holds what, asked in parallel. A member that fails to
    // answer contributes nothing — conservatively, that makes more
    // tables look solely-held, which errs toward copying.
    let others: Vec<&Arc<Backend>> = view
        .backends()
        .iter()
        .filter(|b| !Arc::ptr_eq(b, doomed))
        .collect();
    let listings: Vec<std::io::Result<(u16, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = others
            .iter()
            .map(|b| s.spawn(move || forward(state, b, "GET", "/tables", None)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("drain scatter thread panicked"))
            .collect()
    });
    let mut elsewhere: std::collections::HashSet<String> = std::collections::HashSet::new();
    for result in listings {
        if let Ok((200, body)) = result {
            elsewhere.extend(table_names(&body));
        }
    }
    let solely_held: Vec<String> = held
        .into_iter()
        .filter(|t| !elsewhere.contains(t))
        .collect();
    let mut copied = Vec::new();
    let mut stranded = Vec::new();
    for table in solely_held {
        let exported = match forward(state, doomed, "GET", &format!("/tables/{table}/csv"), None) {
            Ok((200, body)) => serde_json::from_str_value(&body)
                .ok()
                .and_then(|v| v.get("csv").and_then(Value::as_str).map(str::to_string)),
            _ => None,
        };
        // Target: the first healthy backend walking the ring from the
        // table's hash, skipping the leaving member — exactly where the
        // repair loop and failover reads will look for it afterwards.
        let target = view
            .replicas_for(&table, view.backends().len())
            .into_iter()
            .find(|b| !Arc::ptr_eq(b, doomed) && b.is_healthy());
        let ok = match (exported, target) {
            (Some(csv), Some(target)) => {
                let body =
                    serde_json::to_string(&Value::Object(vec![("csv".into(), Value::String(csv))]))
                        .expect("replicate bodies always render");
                matches!(
                    forward(state, &target, "PUT", &format!("/tables/{table}"), Some(&body)),
                    Ok((status, _)) if (200..300).contains(&status)
                )
            }
            _ => false,
        };
        if ok {
            state.metrics.drain_copyouts_total.inc();
            copied.push(table);
        } else {
            stranded.push(table);
        }
    }
    if stranded.is_empty() {
        Ok(copied)
    } else {
        Err(stranded)
    }
}

/// Scatter one GET to every backend of `view` in parallel; gather
/// `io::Result<(status, body)>` in membership order. Each leg adopts
/// the calling request's span context, so the fan-out shows up as
/// parallel `fleet.upstream` spans in its trace.
fn scatter_get(
    state: &FleetState,
    view: &Membership,
    path: &str,
) -> Vec<std::io::Result<(u16, String)>> {
    let ctx = span::current_recorder();
    std::thread::scope(|s| {
        let handles: Vec<_> = view
            .backends()
            .iter()
            .map(|b| {
                let ctx = ctx.clone();
                s.spawn(move || {
                    let _adopted = ctx
                        .as_ref()
                        .map(|(rec, trace, parent)| span::adopt(Arc::clone(rec), trace, parent));
                    forward(state, b, "GET", path, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scatter thread panicked"))
            .collect()
    })
}

/// `GET /debug/traces` — the router's committed traces, newest first,
/// with the same filters as the single-node server (`?min_ms=`,
/// `?route=`, `?errors=1`). Listing stays local to the router; the
/// detail endpoint is where backend spans are gathered in.
fn handle_list_traces(state: &FleetState, req: &Request) -> Response {
    let min_us = match req.query_param("min_ms") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => ms.saturating_mul(1000),
            Err(_) => return error_response(400, "`min_ms` must be an integer"),
        },
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
    Response::new(
        200,
        serde_json::to_string(&Value::Object(vec![(
            "traces".into(),
            Value::Array(traces),
        )]))
        .expect("trace listings always render"),
    )
}

/// `GET /debug/traces/{id}` — one trace, **fleet-assembled**: the
/// router's local spans (request root + upstream legs) plus every
/// backend's spans for the same trace id, scatter-gathered from their
/// `/debug/traces/{id}` and stamped with a `backend` field. The
/// backends' roots carry the upstream leg's span id as their parent
/// (propagated via `X-Span-Context`), so the merged flat list links
/// into one tree. A backend that fails to answer contributes nothing —
/// assembly degrades rather than 503s — and a trace the router already
/// evicted still renders from whatever the backends retained.
fn handle_get_trace(state: &FleetState, view: &Membership, id: &str) -> Response {
    let local = state.recorder.trace(id);
    let gathered = scatter_get(state, view, &format!("/debug/traces/{id}"));
    let mut remote_spans: Vec<Value> = Vec::new();
    for (backend, result) in view.backends().iter().zip(gathered) {
        let Ok((200, body)) = result else { continue };
        let Ok(v) = serde_json::from_str_value(&body) else {
            continue;
        };
        let Some(spans) = v.get("spans").and_then(Value::as_array) else {
            continue;
        };
        for s in spans {
            if let Value::Object(pairs) = s {
                let mut pairs = pairs.clone();
                pairs.push(("backend".into(), Value::String(backend.id().to_string())));
                remote_spans.push(Value::Object(pairs));
            }
        }
    }
    let mut pairs = match local {
        Some(entry) => match trace_json(&entry, true) {
            Value::Object(pairs) => pairs,
            _ => unreachable!("trace_json renders an object"),
        },
        None if remote_spans.is_empty() => {
            return error_response(404, &format!("no trace `{id}` anywhere in the fleet"));
        }
        // Evicted locally but still held by a backend: serve what
        // remains of the tree.
        None => vec![
            ("trace_id".into(), Value::String(id.to_string())),
            ("spans".into(), Value::Array(Vec::new())),
        ],
    };
    if let Some((_, Value::Array(spans))) = pairs.iter_mut().find(|(k, _)| k == "spans") {
        spans.extend(remote_spans);
    }
    Response::new(
        200,
        serde_json::to_string(&Value::Object(pairs)).expect("trace bodies always render"),
    )
}

fn per_backend(s: &FleetState, read: fn(&Backend) -> Option<Sample>) -> Rows {
    let view = s.membership();
    by_label(view.backends().iter().map(|b| (b.id(), b.as_ref())), read)
}

fn per_loop(s: &FleetState, read: fn(&LoopStats) -> Option<Sample>) -> Rows {
    by_label(
        [("repair", &s.repair_stats), ("probe", &*s.probe_stats)],
        read,
    )
}

/// The router's metric families (`ziggy_fleet_` prefix, so scraping a
/// router and a backend into one job cannot collide family names).
#[rustfmt::skip]
pub static FLEET_FAMILIES: &[Family<FleetState>] = &[
    counter("ziggy_fleet_requests_total", "router.requests_total",
        |s| one(&s.metrics.requests_total)),
    counter("ziggy_fleet_errors_total", "router.errors_total", |s| one(&s.metrics.errors_total)),
    counter("ziggy_fleet_proxied_total", "router.proxied_total",
        |s| one(&s.metrics.proxied_total)),
    counter("ziggy_fleet_failovers_total", "router.failovers_total",
        |s| one(&s.metrics.failovers_total)),
    counter("ziggy_fleet_rate_limited_total", "router.rate_limited",
        |s| one(&s.metrics.rate_limited)),
    counter("ziggy_fleet_membership_changes_total", "router.membership_changes",
        |s| one(&s.metrics.membership_changes)),
    counter("ziggy_fleet_repairs_total", "router.repairs_total",
        |s| one(&s.metrics.repairs_total)),
    counter("ziggy_fleet_repair_failures_total", "router.repair_failures_total",
        |s| one(&s.metrics.repair_failures_total)),
    counter("ziggy_fleet_deletes_propagated_total", "router.deletes_propagated_total",
        |s| one(&s.metrics.deletes_propagated_total)),
    counter("ziggy_fleet_strays_collected_total", "router.strays_collected_total",
        |s| one(&s.metrics.strays_collected_total)),
    counter("ziggy_fleet_session_failovers_total", "router.session_failovers_total",
        |s| one(&s.metrics.session_failovers_total)),
    counter("ziggy_fleet_drain_copyouts_total", "router.drain_copyouts_total",
        |s| one(&s.metrics.drain_copyouts_total)),
    gauge("ziggy_fleet_repair_clean_streak", "router.repair_clean_streak",
        |s| one(&s.repair_clean_streak)),
    counter("ziggy_fleet_reactor_loop_iterations_total", "dataplane.loop_iterations",
        |s| one(&s.dataplane.loop_iterations)),
    counter("ziggy_fleet_reactor_wakeups_total", "dataplane.wakeups",
        |s| one(&s.dataplane.wakeups)),
    counter("ziggy_fleet_reactor_hot_requests_total", "dataplane.hot_requests_total",
        |s| one(&s.dataplane.hot_requests)),
    counter("ziggy_fleet_reactor_offloaded_requests_total", "dataplane.offloaded_requests_total",
        |s| one(&s.dataplane.offloaded_requests)),
    counter("ziggy_fleet_reactor_pool_checkouts_total", "dataplane.pool_checkouts_total",
        |s| one(&s.dataplane.pool_checkouts)),
    counter("ziggy_fleet_reactor_pool_fresh_connects_total", "dataplane.pool_fresh_connects_total",
        |s| one(&s.dataplane.pool_fresh_connects)),
    counter("ziggy_fleet_reactor_pool_retried_reconnects_total",
        "dataplane.pool_retried_reconnects_total", |s| one(&s.dataplane.pool_retried_reconnects)),
    gauge("ziggy_fleet_reactor_pool_connections", "dataplane.pools.{backend}.{state}", |s| {
        let mut rows = Vec::new();
        for (backend, g) in s.dataplane.pool_gauges() {
            for (state, v) in [("idle", g.idle), ("in_flight", g.in_flight)] {
                rows.push((vec![backend.clone(), state.to_string()], v.into()));
            }
        }
        rows
    }),
    histogram("ziggy_fleet_request_duration_seconds", Digest::Exemplars,
        "latency_exemplars.{route}", |s| by_label(s.route_latency.iter(), nonempty)),
    gauge("ziggy_fleet_epoch", "epoch", |s| one(s.epoch())),
    gauge("ziggy_fleet_replication", "replication", |s| one(s.replication as u64)),
    gauge("ziggy_fleet_backends", "backends", |s| one(s.membership().backends().len() as u64)),
    gauge("ziggy_fleet_backends_healthy", "backends_healthy",
        |s| one(s.membership().backends().iter().filter(|b| b.is_healthy()).count() as u64)),
    counter("ziggy_fleet_backend_failures_total", "shards[id={backend}].failures_total",
        |s| per_backend(s, |b| Some(b.failures_total().into()))),
    gauge("ziggy_fleet_backend_pool_idle_connections", "shards[id={backend}].pool.idle",
        |s| per_backend(s, |b| Some(b.pool().stats().idle.into()))),
    counter("ziggy_fleet_backend_pool_checkouts_total", "shards[id={backend}].pool.checkouts_total",
        |s| per_backend(s, |b| Some(b.pool().stats().checkouts.into()))),
    counter("ziggy_fleet_backend_pool_fresh_connects_total",
        "shards[id={backend}].pool.fresh_connects_total",
        |s| per_backend(s, |b| Some(b.pool().stats().fresh_connects.into()))),
    counter("ziggy_fleet_backend_pool_retried_reconnects_total",
        "shards[id={backend}].pool.retried_reconnects_total",
        |s| per_backend(s, |b| Some(b.pool().stats().retried_reconnects.into()))),
    histogram("ziggy_fleet_upstream_duration_seconds", Digest::P99Us,
        "shards[id={backend}].upstream_p99_us",
        |s| per_backend(s, |b| nonempty(b.upstream_latency()))),
    counter("ziggy_fleet_loop_rounds_total", "loops.{loop}.rounds",
        |s| per_loop(s, |l| Some(l.rounds().into()))),
    counter("ziggy_fleet_loop_round_failures_total", "loops.{loop}.round_failures",
        |s| per_loop(s, |l| Some(l.failures().into()))),
    gauge("ziggy_fleet_loop_consecutive_failures", "loops.{loop}.consecutive_failures",
        |s| per_loop(s, |l| Some(l.consecutive_failures().into()))),
    gauge("ziggy_fleet_loop_last_round_age_seconds", "loops.{loop}.last_round_age_seconds",
        |s| per_loop(s, |l| l.last_round_age().map(|a| Sample::F(a.as_secs_f64())))),
    histogram("ziggy_fleet_loop_round_duration_seconds", Digest::P99Us, "loops.{loop}.round_p99_us",
        |s| per_loop(s, |l| nonempty(l.durations()))),
    gauge("ziggy_fleet_uptime_seconds", "uptime_seconds",
        |s| one(Sample::F(s.started.elapsed().as_secs_f64()))),
    info("ziggy_fleet_build_info", "version", |_| text(env!("CARGO_PKG_VERSION"))),
];

/// `GET /metrics`: the router's own families plus every backend's
/// document, scatter-gathered in parallel. In Prometheus form each
/// backend sample is stamped with its `shard` label; in JSON each
/// backend's document sits under `shards[].metrics`. A backend that
/// fails to answer (or answers unparseable text) contributes nothing
/// (`null` in JSON) — the scrape must degrade, not 503.
fn handle_metrics(state: &FleetState, view: &Membership, req: &Request) -> Response {
    if req.query_param("format") == Some("prometheus") {
        let mut doc = render_prometheus(FLEET_FAMILIES, state);
        let gathered = scatter_get(state, view, "/metrics?format=prometheus");
        for (backend, result) in view.backends().iter().zip(gathered) {
            if let Ok((200, body)) = result {
                if let Ok(shard_doc) = PromDoc::parse(&body) {
                    doc.absorb(shard_doc, Some(("shard", backend.id())));
                }
            }
        }
        return Response::new(200, doc.render())
            .with_header("Content-Type", "text/plain; version=0.0.4");
    }
    let gathered = scatter_get(state, view, "/metrics");
    let mut body = render_json(FLEET_FAMILIES, state);
    for (b, result) in view.backends().iter().zip(gathered) {
        let metrics = match result {
            Ok((200, text)) => serde_json::from_str_value(&text).unwrap_or(Value::Null),
            _ => Value::Null,
        };
        let shard = [("backend", b.id())];
        for (path, value) in [
            (
                "shards[id={backend}].addr",
                Value::String(b.addr().to_string()),
            ),
            ("shards[id={backend}].healthy", Value::Bool(b.is_healthy())),
            ("shards[id={backend}].metrics", metrics),
        ] {
            put_json(&mut body, path, &shard, value);
        }
    }
    Response::new(
        200,
        serde_json::to_string(&body).expect("metrics bodies always render"),
    )
}

fn handle_list_tables(state: &FleetState, view: &Membership) -> Response {
    let gathered = scatter_get(state, view, "/tables");
    // name -> (n_rows, n_cols, live replica count)
    let mut merged: HashMap<String, (u64, u64, u64)> = HashMap::new();
    for result in gathered {
        let Ok((200, body)) = result else { continue };
        let Ok(v) = serde_json::from_str_value(&body) else {
            continue;
        };
        let Some(tables) = v.get("tables").and_then(Value::as_array) else {
            continue;
        };
        for t in tables {
            let (Some(name), Some(rows), Some(cols)) = (
                t.get("name").and_then(Value::as_str),
                t.get("n_rows").and_then(Value::as_u64),
                t.get("n_cols").and_then(Value::as_u64),
            ) else {
                continue;
            };
            let entry = merged.entry(name.to_string()).or_insert((rows, cols, 0));
            entry.2 += 1;
        }
    }
    let mut names: Vec<&String> = merged.keys().collect();
    names.sort();
    let tables: Vec<Value> = names
        .iter()
        .map(|name| {
            let (rows, cols, replicas) = merged[*name];
            Value::Object(vec![
                ("name".into(), Value::String((*name).clone())),
                ("n_rows".into(), num_u(rows)),
                ("n_cols".into(), num_u(cols)),
                ("replicas".into(), num_u(replicas)),
            ])
        })
        .collect();
    Response::new(
        200,
        serde_json::to_string(&Value::Object(vec![(
            "tables".into(),
            Value::Array(tables),
        )]))
        .expect("table listings always render"),
    )
}

/// Marks a table's ingest fan-out finished when dropped (see
/// [`FleetState::ingests`]).
struct IngestMark<'a> {
    state: &'a FleetState,
    table: String,
}

impl Drop for IngestMark<'_> {
    fn drop(&mut self) {
        let tick = self.state.ingest_clock.fetch_add(1, Ordering::SeqCst) + 1;
        let table = std::mem::take(&mut self.table);
        self.state.ingests.lock().insert(table, tick);
    }
}

fn handle_create_table(state: &FleetState, view: &Membership, body: &[u8]) -> Response {
    let parsed = match parse_object(body) {
        Ok(v) => v,
        Err(e) => return error_response(e.status, &e.message),
    };
    let name = match required_str(&parsed, "name") {
        Ok(n) => n.to_string(),
        Err(e) => return error_response(e.status, &e.message),
    };
    // Validate *here*, not just on the backend: this name is about to be
    // interpolated into proxied request lines, where whitespace or CRLF
    // from a hostile JSON body would corrupt the framing of (or smuggle
    // a second request onto) a pooled backend connection.
    if !ziggy_serve::valid_table_name(&name) {
        return error_response(400, "table name must be 1-64 chars of [A-Za-z0-9_-]");
    }
    if required_str(&parsed, "csv").is_err() {
        return error_response(400, "missing string field `csv`");
    }
    let replicas = view.replicas_for(&name, state.replication);
    if replicas.is_empty() {
        return error_response(503, "fleet has no backends");
    }
    // Re-frame the upload as the idempotent replicate body so a retried
    // ingest (or a racing duplicate from another client) converges
    // instead of flapping 409.
    let replicate_body = serde_json::to_string(&Value::Object(vec![(
        "csv".into(),
        parsed.get("csv").expect("checked above").clone(),
    )]))
    .expect("replicate bodies always render");
    let path = format!("/tables/{name}");
    state.ingests.lock().insert(name.clone(), u64::MAX);
    let _placing = IngestMark {
        state,
        table: name.clone(),
    };

    // Each replicate leg adopts the request's span context: the ingest
    // trace shows one parallel `fleet.upstream` per replica, with the
    // backend's own spans (durable append/fsync included) as children.
    let ctx = span::current_recorder();
    let results: Vec<std::io::Result<(u16, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = replicas
            .iter()
            .map(|b| {
                let replicate_body = replicate_body.as_str();
                let path = path.as_str();
                let ctx = ctx.clone();
                s.spawn(move || {
                    let _adopted = ctx
                        .as_ref()
                        .map(|(rec, trace, parent)| span::adopt(Arc::clone(rec), trace, parent));
                    forward(state, b, "PUT", path, Some(replicate_body))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest fan-out thread panicked"))
            .collect()
    });

    let mut placement: Vec<Value> = Vec::with_capacity(replicas.len());
    let mut first_success: Option<String> = None;
    let mut first_client_error: Option<(u16, String)> = None;
    let mut placed = 0u64;
    for (backend, result) in replicas.iter().zip(&results) {
        let status = match result {
            Ok((status, body)) => {
                if (200..300).contains(status) {
                    placed += 1;
                    if first_success.is_none() {
                        first_success = Some(body.clone());
                    }
                } else if (400..500).contains(status) && first_client_error.is_none() {
                    first_client_error = Some((*status, body.clone()));
                }
                num_u(u64::from(*status))
            }
            Err(_) => Value::Null,
        };
        placement.push(Value::Object(vec![
            ("backend".into(), Value::String(backend.id().to_string())),
            ("status".into(), status),
        ]));
    }

    let Some(success_body) = first_success else {
        // Nothing materialized. A deterministic client error (bad CSV,
        // name conflict) beats a vague 503.
        return match first_client_error {
            Some((status, body)) => Response::new(status, body),
            None => error_response(503, "no replica accepted the table"),
        };
    };
    let summary = serde_json::from_str_value(&success_body).unwrap_or(Value::Null);
    let body = Value::Object(vec![
        ("name".into(), Value::String(name)),
        (
            "n_rows".into(),
            summary.get("n_rows").cloned().unwrap_or(Value::Null),
        ),
        (
            "n_cols".into(),
            summary.get("n_cols").cloned().unwrap_or(Value::Null),
        ),
        ("placed".into(), num_u(placed)),
        ("replicas".into(), Value::Array(placement)),
    ]);
    Response::new(
        201,
        serde_json::to_string(&body).expect("placements always render"),
    )
}

/// Deletes a table from **every member**, not just its nominal replica
/// set. Membership churn strands copies on backends the ring walked
/// away from; a delete that missed them would leave the repair loop a
/// live "holder" to faithfully re-materialize from — a deleted table
/// resurrecting itself. Sweeping all members makes delete and repair
/// agree. (A backend that is *outside the membership* at delete time
/// and later rejoins can still bring a stale copy back — see ROADMAP.)
fn handle_delete_table(state: &FleetState, view: &Membership, name: &str) -> Response {
    let members = view.backends();
    if members.is_empty() {
        return error_response(503, "fleet has no backends");
    }
    let path = format!("/tables/{name}");
    let mut statuses: Vec<Value> = Vec::with_capacity(members.len());
    let mut any_deleted = false;
    let mut all_404 = true;
    for backend in members {
        match forward(state, backend, "DELETE", &path, None) {
            Ok((status, _)) => {
                any_deleted |= (200..300).contains(&status);
                all_404 &= status == 404;
                statuses.push(Value::Object(vec![
                    ("backend".into(), Value::String(backend.id().to_string())),
                    ("status".into(), num_u(u64::from(status))),
                ]));
            }
            Err(_) => {
                all_404 = false;
                statuses.push(Value::Object(vec![
                    ("backend".into(), Value::String(backend.id().to_string())),
                    ("status".into(), Value::Null),
                ]));
            }
        }
    }
    if any_deleted {
        // Cascade only on an actual delete: a failed fan-out (every
        // replica unreachable) must not wipe live sessions on a table
        // that still exists everywhere.
        state.sessions.write().retain(|_, s| s.table != name);
        Response::new(
            200,
            serde_json::to_string(&Value::Object(vec![
                ("deleted".into(), Value::String(name.to_string())),
                ("replicas".into(), Value::Array(statuses)),
            ]))
            .expect("delete bodies always render"),
        )
    } else if all_404 {
        error_response(404, &format!("no table named `{name}`"))
    } else {
        error_response(503, &format!("no live replica for table `{name}`"))
    }
}

fn handle_create_session(
    state: &FleetState,
    view: &Membership,
    body: &[u8],
    trace: Option<&str>,
) -> (Response, Option<String>) {
    let parsed = match parse_object(body) {
        Ok(v) => v,
        Err(e) => return (error_response(e.status, &e.message), None),
    };
    let table = match required_str(&parsed, "table") {
        Ok(t) => t.to_string(),
        Err(e) => return (error_response(e.status, &e.message), None),
    };
    // A client-sent `resume` seeds the ledger; the backend validates it.
    let resume = |key: &str| parsed.get("resume").and_then(|r| r.get(key));
    let last_query = resume("query").and_then(Value::as_str).map(str::to_string);
    let steps = resume("steps").and_then(Value::as_u64).unwrap_or(0);
    let body = match body_text(body) {
        Ok(b) => b,
        Err(e) => return (error_response(e.status, &e.message), None),
    };
    state.sweep_sessions();
    if state.sessions.read().len() >= MAX_FLEET_SESSIONS {
        return (
            error_response(
                409,
                &format!("session limit reached ({MAX_FLEET_SESSIONS})"),
            ),
            None,
        );
    }
    let order = state.read_order(view, &table);
    if order.is_empty() {
        return (error_response(503, "fleet has no backends"), None);
    }
    let mut fallback: Option<(u16, String)> = None;
    for backend in order {
        let leg = forward_traced(state, &backend, "POST", "/sessions", trace, Some(body));
        match leg {
            Ok((201, resp_body)) => {
                let Some(backend_session) = serde_json::from_str_value(&resp_body)
                    .ok()
                    .as_ref()
                    .and_then(|v| v.get("session_id"))
                    .and_then(Value::as_u64)
                else {
                    fallback = Some((
                        502,
                        r#"{"error":"backend returned a malformed session"}"#.into(),
                    ));
                    continue;
                };
                let id = state.next_session.fetch_add(1, Ordering::Relaxed) + 1;
                {
                    // Authoritative cap check under the write lock: the
                    // read-lock pre-check above races concurrent
                    // creates, and the bound must actually hold.
                    let mut sessions = state.sessions.write();
                    if sessions.len() >= MAX_FLEET_SESSIONS {
                        drop(sessions);
                        // Undo the backend half so it does not linger
                        // until its TTL.
                        let path = format!("/sessions/{backend_session}");
                        let _ = forward(state, &backend, "DELETE", &path, None);
                        return (
                            error_response(
                                409,
                                &format!("session limit reached ({MAX_FLEET_SESSIONS})"),
                            ),
                            None,
                        );
                    }
                    sessions.insert(
                        id,
                        FleetSession {
                            backend: Arc::clone(&backend),
                            backend_session,
                            table: table.clone(),
                            last_query,
                            steps,
                            last_used: Instant::now(),
                        },
                    );
                }
                let backend_id = backend.id().to_string();
                let resp = Value::Object(vec![
                    ("session_id".into(), num_u(id)),
                    ("table".into(), Value::String(table)),
                    ("backend".into(), Value::String(backend_id.clone())),
                ]);
                return (
                    Response::new(
                        201,
                        serde_json::to_string(&resp).expect("session bodies always render"),
                    ),
                    Some(backend_id),
                );
            }
            Ok((status, resp_body)) => {
                if fallback.is_none() || status != 404 {
                    fallback = Some((status, resp_body));
                }
                continue;
            }
            Err(_) => {
                state.metrics.failovers_total.inc();
                continue;
            }
        }
    }
    match fallback {
        Some((status, body)) => (Response::new(status, body), None),
        None => (
            error_response(503, &format!("no live replica for table `{table}`")),
            None,
        ),
    }
}

fn parse_fleet_session_id(id: &str) -> Result<u64, Response> {
    id.parse()
        .map_err(|_| error_response(400, "session id must be an integer"))
}

fn handle_session_step(
    state: &FleetState,
    id: &str,
    body: &[u8],
    trace: Option<&str>,
) -> (Response, Option<String>) {
    let id = match parse_fleet_session_id(id) {
        Ok(id) => id,
        Err(resp) => return (resp, None),
    };
    let body = match body_text(body) {
        Ok(b) => b,
        Err(e) => return (error_response(e.status, &e.message), None),
    };
    state.sweep_sessions();
    let (backend, backend_session) = {
        let sessions = state.sessions.read();
        match sessions.get(&id) {
            Some(s) => (Arc::clone(&s.backend), s.backend_session),
            None => return (error_response(404, &format!("no session {id}")), None),
        }
    };
    // The stepped query, for the failover ledger (a body the backend
    // rejects never enters it).
    let query: Option<String> = parse_object(body.as_bytes())
        .ok()
        .and_then(|v| v.get("query").and_then(Value::as_str).map(str::to_string));
    let path = format!("/sessions/{backend_session}/step");
    let leg = forward_traced(state, &backend, "POST", &path, trace, Some(body));
    match leg {
        Ok((404, resp_body)) => {
            // The backend forgot the session (TTL expiry, table delete):
            // the fleet mapping is stale too.
            state.sessions.write().remove(&id);
            (Response::new(404, resp_body), None)
        }
        Ok((status, resp_body)) => {
            if let Some(s) = state.sessions.write().get_mut(&id) {
                s.last_used = Instant::now();
                if (200..300).contains(&status) {
                    s.last_query = query;
                    s.steps += 1;
                }
            }
            (
                Response::new(status, resp_body),
                Some(backend.id().to_string()),
            )
        }
        // The home backend is gone at the transport level, and the
        // session's previous report with it. The router's ledger holds
        // the last query and the step count: resume the session on
        // another replica of the table and continue there.
        Err(_) => failover_session(state, id, &backend, query.as_deref(), body, trace),
    }
}

/// Resumes a dead-homed session on another healthy replica of its
/// table: one `POST /sessions` carrying `resume` (the ledger's last
/// query and step count), then the interrupted step. On success the
/// fleet mapping is re-pointed and the response carries an
/// `X-Fleet-Session-Failover` header naming the new home. Only when no
/// replica can host the session (the table has no other live copy)
/// does the client see a 503, and that 503 states exactly that.
fn failover_session(
    state: &FleetState,
    id: u64,
    dead: &Arc<Backend>,
    query: Option<&str>,
    step_body: &str,
    trace: Option<&str>,
) -> (Response, Option<String>) {
    let (table, last_query, steps) = {
        let sessions = state.sessions.read();
        match sessions.get(&id) {
            Some(s) => (s.table.clone(), s.last_query.clone(), s.steps),
            None => return (error_response(404, &format!("no session {id}")), None),
        }
    };
    let view = state.membership();
    let candidates: Vec<Arc<Backend>> = state
        .read_order(&view, &table)
        .into_iter()
        .filter(|b| !Arc::ptr_eq(b, dead))
        .collect();
    let mut create = vec![("table".into(), Value::String(table.clone()))];
    if let Some(q) = last_query {
        create.push((
            "resume".into(),
            Value::Object(vec![
                ("query".into(), Value::String(q)),
                ("steps".into(), num_u(steps)),
            ]),
        ));
    }
    let create_body =
        serde_json::to_string(&Value::Object(create)).expect("session bodies always render");
    for backend in candidates {
        // A replica that refuses the resume (its engine rejects the
        // last query) cannot continue the conversation; try the next.
        let created = forward_traced(
            state,
            &backend,
            "POST",
            "/sessions",
            trace,
            Some(&create_body),
        );
        let Ok((201, resp_body)) = created else {
            continue;
        };
        let Some(new_session) = serde_json::from_str_value(&resp_body)
            .ok()
            .as_ref()
            .and_then(|v| v.get("session_id"))
            .and_then(Value::as_u64)
        else {
            continue;
        };
        // The interrupted step itself. A client error (bad query) still
        // counts as a successful failover — the session lives here now
        // and the client sees the same 4xx a healthy home would return.
        let step_path = format!("/sessions/{new_session}/step");
        let stepped = forward_traced(state, &backend, "POST", &step_path, trace, Some(step_body));
        match stepped {
            Ok((status, resp_body)) if status != 404 && !(500..600).contains(&status) => {
                if let Some(s) = state.sessions.write().get_mut(&id) {
                    s.backend = Arc::clone(&backend);
                    s.backend_session = new_session;
                    s.last_used = Instant::now();
                    if (200..300).contains(&status) {
                        s.last_query = query.map(str::to_string);
                        s.steps += 1;
                    }
                }
                state.metrics.session_failovers_total.inc();
                state.metrics.failovers_total.inc();
                let backend_id = backend.id().to_string();
                return (
                    Response::new(status, resp_body)
                        .with_header("X-Fleet-Session-Failover", backend_id.clone()),
                    Some(backend_id),
                );
            }
            _ => {
                let path = format!("/sessions/{new_session}");
                let _ = forward(state, &backend, "DELETE", &path, None);
                continue;
            }
        }
    }
    (
        error_response(
            503,
            &format!(
                "session {id} is unrecoverable: its home backend is unreachable and no other \
                 live replica of table `{table}` could resume it at step {steps}"
            ),
        ),
        None,
    )
}

fn handle_delete_session(state: &FleetState, id: &str) -> (Response, Option<String>) {
    let id = match parse_fleet_session_id(id) {
        Ok(id) => id,
        Err(resp) => return (resp, None),
    };
    let Some(session) = state.sessions.write().remove(&id) else {
        return (error_response(404, &format!("no session {id}")), None);
    };
    // Best effort downstream: if the backend is unreachable its own TTL
    // sweep will reap the session; the fleet id is gone either way.
    let path = format!("/sessions/{}", session.backend_session);
    let _ = forward(state, &session.backend, "DELETE", &path, None);
    (
        Response::new(
            200,
            serde_json::to_string(&Value::Object(vec![("deleted".into(), num_u(id))]))
                .expect("delete bodies always render"),
        ),
        Some(session.backend.id().to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_route_keys_have_bounded_cardinality() {
        for (method, path, want) in [
            ("GET", "/healthz", "healthz"),
            ("GET", "/metrics", "metrics"),
            ("POST", "/tables", "tables"),
            ("DELETE", "/tables/demo", "tables"),
            ("POST", "/tables/demo/characterize", "characterize"),
            ("GET", "/tables/demo/csv", "csv"),
            ("POST", "/sessions", "sessions"),
            ("POST", "/sessions/7/step", "session_step"),
            ("POST", "/admin/backends", "admin"),
            // Serve-only routes the router does not meter by name.
            ("POST", "/tables/demo/rows", "other"),
            ("GET", "/tombstones", "other"),
            ("GET", "/anything/else/at/all", "other"),
        ] {
            let key = fleet_route_key(method, path);
            assert_eq!(key, want, "{method} {path}");
            assert!(FLEET_ROUTE_KEYS.contains(&key), "{method} {path} -> {key}");
        }
    }
}
