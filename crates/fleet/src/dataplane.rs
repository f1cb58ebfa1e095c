//! The router's data plane: the characterize and CSV-export relay.
//!
//! The router runs on the one HTTP plane in [`ziggy_serve::http`]. Its
//! reactor accepts, parses, pipelines and flushes every client
//! connection, and its worker pool runs the router's control-plane
//! handler (admin, sessions, scatter-gather, metrics, …). This module
//! plugs the relay into that reactor as its [`Hook`], so
//! `POST /tables/{t}/characterize` and `GET /tables/{t}/csv` never leave
//! the event loop:
//!
//! ```text
//!            ┌─────────────────────── reactor thread ────────────────────────┐
//!  clients ──▶ http::Plane (accept, parse, slots) ──▶ Hook::claim            │
//!            │        ▲                                  │ relayed  │ other   │
//!            │        │ Plane::deliver                   ▼          ▼         │
//!            │        └──────────── Relay ─▶ UpstreamConn    worker pool      │
//!            │                      (failover walk)  (mux keep-alive pool)    │
//!            └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **Byte relay** — request and response bodies move as byte ranges
//!   between buffers; the relay never re-parses the backend's JSON, and
//!   frames the answer through the plane's one response framer.
//! * **Multiplexed upstream pools** — each backend gets a small set of
//!   keep-alive connections; multiple client requests pipeline onto one
//!   upstream socket (HTTP/1.1 responses come back in order, so a
//!   per-connection FIFO of relay ids reunites them).
//! * **Failover walk** — replicas are tried in [`FleetState`] read
//!   order. A 404 or 5xx is remembered (a non-404 wins) and the next
//!   replica tried; a transport failure marks the backend and moves on;
//!   a stale pooled connection is retried once on a fresh one. With every
//!   replica tried, the remembered answer is returned, else a 503.
//!
//! Each relay records what a handler request records: a `fleet.request`
//! root span with one `fleet.upstream` child per leg, the route
//! histogram, the slow-query line, the access-log line, and the routing
//! counters (throttled requests are traced and logged but not routed).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use serde_json::Value;
use ziggy_obs::span::{self, Span, SPAN_CONTEXT_HEADER};
use ziggy_obs::trace::{mint_trace_id, TRACE_HEADER};
use ziggy_serve::http::{
    apply_interest, encode, try_parse_response_head, EdgeObserver, Handler, Hook, Plane, Request,
    ResponseHead, Server, SlotId,
};
use ziggy_serve::limit::throttle;
use ziggy_serve::{AccessLog, RateLimiter};

use crate::backend::Backend;
use crate::router::{fleet_route_key, FleetState};

/// Max in-flight requests multiplexed onto one upstream connection
/// before the pool opens another.
const UPSTREAM_DEPTH: usize = 32;

/// Max keep-alive connections per backend.
const UPSTREAM_CONNS_PER_BACKEND: usize = 8;

/// An upstream leg that has made no read progress for this long fails
/// the connection (and the relays on it fail over / retry).
const UPSTREAM_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Idle upstream connections are closed before the backend's 60s
/// keep-alive timeout would close them under us mid-request.
const UPSTREAM_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-backend connection-pool gauge: how many reactor-owned upstream
/// connections exist and whether they are busy.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolGauge {
    /// Established connections with no request in flight.
    pub idle: u64,
    /// Connections carrying at least one in-flight request (including
    /// connections still completing their nonblocking connect).
    pub in_flight: u64,
}

/// Counters and gauges the event loop exports to `/metrics` (both the
/// JSON document's `dataplane` section and the Prometheus families).
#[derive(Debug, Default)]
pub struct DataPlaneStats {
    /// Reactor loop iterations (poll returns).
    pub loop_iterations: AtomicU64,
    /// Waker-driven wakeups (offload completions ready).
    pub wakeups: AtomicU64,
    /// Requests answered by the relay on the event loop.
    pub hot_requests: AtomicU64,
    /// Requests offloaded to the control-plane worker pool.
    pub offloaded_requests: AtomicU64,
    /// Relay legs that rode an existing upstream connection.
    pub pool_checkouts: AtomicU64,
    /// Relay legs that opened a fresh upstream connection.
    pub pool_fresh_connects: AtomicU64,
    /// Relay legs transparently re-sent after a stale keep-alive
    /// connection died under them (same retry-once contract as
    /// [`crate::proxy::BackendPool`]).
    pub pool_retried_reconnects: AtomicU64,
    /// Per-backend connection gauges, refreshed by the reactor.
    pools: Mutex<HashMap<String, PoolGauge>>,
}

impl DataPlaneStats {
    /// Per-backend pool gauges, sorted by backend id.
    pub fn pool_gauges(&self) -> Vec<(String, PoolGauge)> {
        let mut v: Vec<(String, PoolGauge)> = self
            .pools
            .lock()
            .iter()
            .map(|(k, g)| (k.clone(), *g))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn set_pool_gauges(&self, gauges: HashMap<String, PoolGauge>) {
        *self.pools.lock() = gauges;
    }
}

/// Configuration for [`DataPlane::start`].
pub struct DataPlaneConfig {
    /// Control-plane worker threads (for offloaded routes).
    pub threads: usize,
    /// Router-edge rate limiter, shared with the offload handler.
    pub limiter: Option<Arc<RateLimiter>>,
    /// Access log (the relay writes its own lines).
    pub log: Arc<AccessLog>,
    /// Observer for edge rejections (over-capacity 503, malformed 400).
    pub edge: Option<EdgeObserver>,
}

/// A running router front-end: the HTTP plane with the relay hooked in.
pub struct DataPlane {
    server: Server,
}

impl DataPlane {
    /// Binds `addr` and starts the plane. `handler` serves every route
    /// the relay does not claim, on the worker pool.
    pub fn start(
        addr: impl ToSocketAddrs,
        state: Arc<FleetState>,
        handler: Handler,
        config: DataPlaneConfig,
    ) -> io::Result<DataPlane> {
        let relays = Relays {
            stats: Arc::clone(&state.dataplane),
            state,
            limiter: config.limiter,
            log: config.log,
            relays: HashMap::new(),
            next_relay: 0,
            upstreams: HashMap::new(),
            next_upstream: 0,
            pools: HashMap::new(),
        };
        let server =
            Server::start_with_hook(addr, config.threads, handler, config.edge, Box::new(relays))?;
        Ok(DataPlane { server })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the reactor and the worker pool, joining all threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// One keep-alive upstream connection, multiplexing relays.
struct UpstreamConn {
    stream: TcpStream,
    backend_id: String,
    addr: SocketAddr,
    connected: bool,
    /// At least one response completed on this connection — only then
    /// is a later failure "stale keep-alive" (retryable) rather than a
    /// backend refusing work.
    used: bool,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// Relay ids in send order; HTTP/1.1 answers in order, so the front
    /// id owns the next response.
    inflight: VecDeque<u64>,
    interest: u8,
    last_activity: Instant,
}

/// The telemetry context a relayed request carries from its claim to
/// its answer (relayed or local).
struct HotCtx {
    slot: SlotId,
    method: &'static str,
    path: String,
    trace: String,
    remote_parent: Option<String>,
    root_span_id: String,
    started: Instant,
    start_unix_us: u64,
}

/// One relayed request in flight: the replica candidates left to try
/// and the current leg.
struct Relay {
    ctx: HotCtx,
    table: String,
    body: Vec<u8>,
    if_none_match: Option<String>,
    epoch: u64,
    candidates: Vec<Arc<Backend>>,
    next_candidate: usize,
    attempts: u64,
    reconnect_budget: u32,
    fallback: Option<(u16, Vec<u8>)>,
    backend: Option<Arc<Backend>>,
    leg_span_id: String,
    leg_started: Instant,
    leg_start_unix_us: u64,
}

impl Relay {
    /// The finished `fleet.upstream` span of the current leg.
    fn leg_span(&self, backend: &Backend, error: bool) -> Span {
        Span {
            trace_id: self.ctx.trace.clone(),
            span_id: self.leg_span_id.clone(),
            parent_id: Some(self.ctx.root_span_id.clone()),
            name: "fleet.upstream".into(),
            start_unix_us: self.leg_start_unix_us,
            duration_us: self.leg_started.elapsed().as_micros() as u64,
            attrs: vec![
                ("backend".into(), backend.id().to_string()),
                ("path".into(), self.ctx.path.clone()),
            ],
            error,
        }
    }
}

fn now_unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// The relayed routes, as `(method, table)`: `POST
/// /tables/{t}/characterize` with any body (the backend answers a bad
/// one with its own 400) and `GET /tables/{t}/csv`. Both are pure
/// reads, so legs may fail over and retry.
fn relay_target(req: &Request) -> Option<(&'static str, String)> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["tables", table, "characterize"]) => Some(("POST", table.to_string())),
        ("GET", ["tables", table, "csv"]) => Some(("GET", table.to_string())),
        _ => None,
    }
}

/// The relay: the fleet's [`Hook`] on the HTTP plane.
struct Relays {
    state: Arc<FleetState>,
    stats: Arc<DataPlaneStats>,
    limiter: Option<Arc<RateLimiter>>,
    log: Arc<AccessLog>,
    relays: HashMap<u64, Relay>,
    next_relay: u64,
    upstreams: HashMap<u64, UpstreamConn>,
    next_upstream: u64,
    /// Upstream connection ids per backend address.
    pools: HashMap<SocketAddr, Vec<u64>>,
}

impl Hook for Relays {
    fn claim(&mut self, plane: &mut Plane, slot: SlotId, req: Request) -> Option<Request> {
        let Some((method, table)) = relay_target(&req) else {
            self.stats
                .offloaded_requests
                .fetch_add(1, Ordering::Relaxed);
            return Some(req);
        };
        self.stats.hot_requests.fetch_add(1, Ordering::Relaxed);
        self.start(plane, slot, method, table, req);
        None
    }

    fn event(&mut self, plane: &mut Plane, id: u64, readable: bool, writable: bool, error: bool) {
        {
            let Some(up) = self.upstreams.get_mut(&id) else {
                return;
            };
            if !up.connected && (writable || error) {
                // Nonblocking connect resolved: take_error distinguishes
                // established from refused.
                match up.stream.take_error() {
                    Ok(None) if !error => up.connected = true,
                    _ => {
                        self.fail_upstream(plane, id);
                        return;
                    }
                }
            } else if error {
                self.fail_upstream(plane, id);
                return;
            }
        }
        if writable {
            self.flush_upstream(plane, id);
        }
        if readable {
            self.read_upstream(plane, id);
        }
        self.update_upstream_interest(plane, id);
    }

    fn tick(&mut self, _plane: &mut Plane, woken: bool) {
        self.stats.loop_iterations.fetch_add(1, Ordering::Relaxed);
        if woken {
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        }
        let mut gauges: HashMap<String, PoolGauge> = HashMap::new();
        for up in self.upstreams.values() {
            let g = gauges.entry(up.backend_id.clone()).or_default();
            if up.inflight.is_empty() {
                g.idle += 1;
            } else {
                g.in_flight += 1;
            }
        }
        self.stats.set_pool_gauges(gauges);
    }

    fn sweep(&mut self, plane: &mut Plane, now: Instant) {
        let stalled: Vec<u64> = self
            .upstreams
            .iter()
            .filter(|(_, u)| {
                let idle_for = now.saturating_duration_since(u.last_activity);
                if u.inflight.is_empty() {
                    idle_for >= UPSTREAM_IDLE_TIMEOUT
                } else {
                    idle_for >= UPSTREAM_STALL_TIMEOUT
                }
            })
            .map(|(&id, _)| id)
            .collect();
        for id in stalled {
            self.fail_upstream(plane, id);
        }
    }
}

impl Relays {
    fn start(
        &mut self,
        plane: &mut Plane,
        slot: SlotId,
        method: &'static str,
        table: String,
        req: Request,
    ) {
        let started = Instant::now();
        let (trace, remote_parent) = ziggy_serve::trace_context(&req);
        self.state.recorder.open_trace(&trace);
        let ctx = HotCtx {
            slot,
            method,
            path: format!(
                "/tables/{table}/{}",
                if method == "GET" {
                    "csv"
                } else {
                    "characterize"
                }
            ),
            trace,
            remote_parent,
            root_span_id: mint_trace_id(),
            started,
            start_unix_us: now_unix_us(),
        };
        if let Some(resp) = throttle(
            self.limiter.as_deref(),
            &req,
            &self.state.metrics.rate_limited,
        ) {
            self.finish(
                plane,
                ctx,
                resp.status,
                resp.body.as_bytes(),
                resp.headers,
                None,
                None,
            );
            return;
        }
        self.state.metrics.requests_total.inc();
        let view = self.state.membership();
        let epoch = view.epoch();
        let candidates = self.state.read_order(&view, &table);
        if candidates.is_empty() {
            self.state.metrics.errors_total.inc();
            let body = br#"{"error":"fleet has no backends"}"#;
            self.finish(plane, ctx, 503, body, Vec::new(), Some(epoch), None);
            return;
        }
        let relay_id = self.next_relay;
        self.next_relay += 1;
        let if_none_match = req.header("if-none-match").map(str::to_string);
        let leg_start_unix_us = ctx.start_unix_us;
        self.relays.insert(
            relay_id,
            Relay {
                ctx,
                table,
                body: req.body,
                if_none_match,
                epoch,
                candidates,
                next_candidate: 0,
                attempts: 0,
                reconnect_budget: 0,
                fallback: None,
                backend: None,
                leg_span_id: String::new(),
                leg_started: started,
                leg_start_unix_us,
            },
        );
        self.start_attempt(plane, relay_id, true);
    }

    /// Starts (or, with `fresh_leg == false`, transparently re-sends)
    /// the current candidate attempt for a relay.
    fn start_attempt(&mut self, plane: &mut Plane, relay_id: u64, fresh_leg: bool) {
        let (bytes, backend) = {
            let Some(relay) = self.relays.get_mut(&relay_id) else {
                return;
            };
            if fresh_leg {
                if relay.next_candidate >= relay.candidates.len() {
                    self.finish_exhausted(plane, relay_id);
                    return;
                }
                let backend = Arc::clone(&relay.candidates[relay.next_candidate]);
                if relay.attempts > 0 {
                    self.state.metrics.failovers_total.inc();
                }
                relay.attempts += 1;
                self.state.metrics.proxied_total.inc();
                relay.backend = Some(backend);
                relay.reconnect_budget = 1;
                relay.leg_span_id = mint_trace_id();
                relay.leg_started = Instant::now();
                relay.leg_start_unix_us = now_unix_us();
            }
            let backend = Arc::clone(relay.backend.as_ref().expect("attempt has a backend"));
            let span_ctx = span::encode_span_context(&relay.ctx.trace, &relay.leg_span_id);
            let mut head = format!(
                "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
                relay.ctx.method,
                relay.ctx.path,
                backend.addr(),
                relay.body.len()
            );
            if let Some(inm) = &relay.if_none_match {
                head.push_str("If-None-Match: ");
                head.push_str(inm);
                head.push_str("\r\n");
            }
            head.push_str(SPAN_CONTEXT_HEADER);
            head.push_str(": ");
            head.push_str(&span_ctx);
            head.push_str("\r\n\r\n");
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(&relay.body);
            (bytes, backend)
        };
        match self.acquire_upstream(plane, &backend) {
            Some(up_id) => {
                if let Some(up) = self.upstreams.get_mut(&up_id) {
                    up.wbuf.extend_from_slice(&bytes);
                    up.inflight.push_back(relay_id);
                }
                self.flush_upstream(plane, up_id);
            }
            None => self.abandon_candidate(plane, relay_id),
        }
    }

    /// The current candidate failed for real (connect error, transport
    /// error with no retry budget, or the retry itself failed): record
    /// the failed leg, mark the backend, and move to the next replica.
    fn abandon_candidate(&mut self, plane: &mut Plane, relay_id: u64) {
        let Some(relay) = self.relays.get_mut(&relay_id) else {
            return;
        };
        if let Some(backend) = relay.backend.take() {
            backend.record_failure();
            self.state
                .recorder
                .record_finished(relay.leg_span(&backend, true));
        }
        relay.next_candidate += 1;
        self.start_attempt(plane, relay_id, true);
    }

    /// Every candidate tried: answer with the best remembered non-404
    /// error (or the 404), else the no-live-replica 503.
    fn finish_exhausted(&mut self, plane: &mut Plane, relay_id: u64) {
        let Some(relay) = self.relays.remove(&relay_id) else {
            return;
        };
        let (status, body) = relay.fallback.unwrap_or_else(|| {
            let message = format!("no live replica for table `{}`", relay.table);
            let body = Value::Object(vec![("error".into(), Value::String(message))]);
            let body = serde_json::to_string(&body).expect("error bodies always render");
            (503, body.into_bytes())
        });
        if status >= 400 {
            self.state.metrics.errors_total.inc();
        }
        let epoch = Some(relay.epoch);
        self.finish(plane, relay.ctx, status, &body, Vec::new(), epoch, None);
    }

    /// A complete response arrived for relay `relay_id`.
    fn upstream_response(
        &mut self,
        plane: &mut Plane,
        relay_id: u64,
        head: ResponseHead,
        body: &[u8],
    ) {
        let backend = {
            let Some(relay) = self.relays.get_mut(&relay_id) else {
                return;
            };
            let Some(backend) = relay.backend.take() else {
                return;
            };
            backend.record_upstream(relay.leg_started.elapsed());
            backend.record_success();
            self.state
                .recorder
                .record_finished(relay.leg_span(&backend, false));
            backend
        };
        let status = head.status;
        if status == 404 || status >= 500 {
            // Remember it (a non-404 error wins over a 404) and try the
            // next replica.
            let Some(relay) = self.relays.get_mut(&relay_id) else {
                return;
            };
            if relay.fallback.is_none() || status != 404 {
                relay.fallback = Some((status, body.to_vec()));
            }
            relay.next_candidate += 1;
            self.start_attempt(plane, relay_id, true);
            return;
        }
        let Some(relay) = self.relays.remove(&relay_id) else {
            return;
        };
        if status >= 400 {
            self.state.metrics.errors_total.inc();
        }
        // Relay the validator and timing headers verbatim; everything
        // else is re-framed by the router.
        let extra: Vec<(String, String)> = [("etag", "ETag"), ("server-timing", "Server-Timing")]
            .into_iter()
            .filter_map(|(name, canonical)| {
                head.header(name)
                    .map(|v| (canonical.to_string(), v.to_string()))
            })
            .collect();
        let epoch = Some(relay.epoch);
        self.finish(
            plane,
            relay.ctx,
            status,
            body,
            extra,
            epoch,
            Some(backend.id()),
        );
    }

    /// Completes a relayed request: commits the root span, records edge
    /// latency (with exemplar), writes the slow-query and access-log
    /// lines, frames the response, and delivers it to the client slot.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        plane: &mut Plane,
        ctx: HotCtx,
        status: u16,
        body: &[u8],
        mut extra: Vec<(String, String)>,
        epoch: Option<u64>,
        backend: Option<&str>,
    ) {
        let key = fleet_route_key(ctx.method, &ctx.path);
        let elapsed = ctx.started.elapsed();
        let elapsed_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.state.recorder.commit_root(Span {
            trace_id: ctx.trace.clone(),
            span_id: ctx.root_span_id,
            parent_id: ctx.remote_parent,
            name: "fleet.request".into(),
            start_unix_us: ctx.start_unix_us,
            duration_us: elapsed_us,
            attrs: vec![
                ("method".into(), ctx.method.into()),
                ("path".into(), ctx.path.clone()),
                ("route".into(), key.into()),
                ("status".into(), status.to_string()),
            ],
            error: status >= 400,
        });
        self.state
            .route_latency
            .record_us_traced(key, elapsed_us, &ctx.trace);
        if elapsed_us >= self.state.recorder.slow_us() {
            if let Some(entry) = self.state.recorder.trace(&ctx.trace) {
                eprintln!("{}", ziggy_serve::logging::slow_query_line(&entry));
            }
        }
        self.log.log(
            ctx.method,
            &ctx.path,
            status,
            elapsed.as_secs_f64() * 1e3,
            Some(&ctx.trace),
            backend,
        );
        if let Some(epoch) = epoch {
            extra.push(("X-Fleet-Epoch".into(), epoch.to_string()));
        }
        extra.push((TRACE_HEADER.into(), ctx.trace));
        plane.deliver(ctx.slot, encode(status, &extra, body, ctx.slot.close()));
    }

    // ---- upstream pool --------------------------------------------

    /// Picks the least-loaded existing connection to `backend` with
    /// depth headroom, else opens a new one (up to the per-backend
    /// cap), else overloads the least-loaded connection.
    fn acquire_upstream(&mut self, plane: &Plane, backend: &Arc<Backend>) -> Option<u64> {
        let addr = backend.addr();
        let pool = self.pools.entry(addr).or_default();
        pool.retain(|id| self.upstreams.contains_key(id));
        let mut best: Option<(u64, usize)> = None;
        for &uid in pool.iter() {
            if let Some(up) = self.upstreams.get(&uid) {
                let load = up.inflight.len();
                if best.is_none_or(|(_, b)| load < b) {
                    best = Some((uid, load));
                }
            }
        }
        if let Some((uid, load)) = best {
            if load < UPSTREAM_DEPTH || pool.len() >= UPSTREAM_CONNS_PER_BACKEND {
                self.stats.pool_checkouts.fetch_add(1, Ordering::Relaxed);
                return Some(uid);
            }
        }
        match mio::net::connect_nonblocking(addr) {
            Ok(stream) => {
                // No-Nagle upstream too: each relay is one write.
                let _ = stream.set_nodelay(true);
                let id = self.next_upstream;
                self.next_upstream += 1;
                let mut interest = 0;
                apply_interest(
                    &plane.registry(),
                    &stream,
                    Plane::hook_token(id),
                    &mut interest,
                    0b11,
                );
                if interest == 0 {
                    return best.map(|(uid, _)| uid);
                }
                self.upstreams.insert(
                    id,
                    UpstreamConn {
                        stream,
                        backend_id: backend.id().to_string(),
                        addr,
                        connected: false,
                        used: false,
                        wbuf: Vec::new(),
                        wpos: 0,
                        rbuf: Vec::new(),
                        inflight: VecDeque::new(),
                        interest,
                        last_activity: Instant::now(),
                    },
                );
                self.pools.entry(addr).or_default().push(id);
                self.stats
                    .pool_fresh_connects
                    .fetch_add(1, Ordering::Relaxed);
                Some(id)
            }
            Err(_) => best.map(|(uid, _)| {
                self.stats.pool_checkouts.fetch_add(1, Ordering::Relaxed);
                uid
            }),
        }
    }

    fn flush_upstream(&mut self, plane: &mut Plane, id: u64) {
        loop {
            let Some(up) = self.upstreams.get_mut(&id) else {
                return;
            };
            if !up.connected || up.wpos >= up.wbuf.len() {
                break;
            }
            match up.stream.write(&up.wbuf[up.wpos..]) {
                Ok(0) => {
                    self.fail_upstream(plane, id);
                    return;
                }
                Ok(n) => {
                    up.wpos += n;
                    up.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail_upstream(plane, id);
                    return;
                }
            }
        }
        if let Some(up) = self.upstreams.get_mut(&id) {
            if up.wpos >= up.wbuf.len() {
                up.wbuf.clear();
                up.wpos = 0;
            }
        }
        self.update_upstream_interest(plane, id);
    }

    fn read_upstream(&mut self, plane: &mut Plane, id: u64) {
        let mut buf = [0u8; 16 * 1024];
        let mut closed = false;
        loop {
            let Some(up) = self.upstreams.get_mut(&id) else {
                return;
            };
            match up.stream.read(&mut buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    up.rbuf.extend_from_slice(&buf[..n]);
                    up.last_activity = Instant::now();
                    // Short read ⇒ drained; level-triggered epoll
                    // re-arms if more arrives before we loop again.
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail_upstream(plane, id);
                    return;
                }
            }
        }
        // Parse as many complete responses as arrived; HTTP/1.1 answers
        // in order, so each one pops the front in-flight relay.
        loop {
            let Some(up) = self.upstreams.get_mut(&id) else {
                return;
            };
            let head = match try_parse_response_head(&up.rbuf) {
                Ok(None) => break,
                Ok(Some(head)) if up.rbuf.len() >= head.head_len + head.content_length => head,
                Ok(Some(_)) => break,
                Err(_) => {
                    self.fail_upstream(plane, id);
                    return;
                }
            };
            // A response with no request outstanding is a protocol
            // violation: drop the connection.
            let Some(relay_id) = up.inflight.pop_front() else {
                self.fail_upstream(plane, id);
                return;
            };
            up.used = true;
            let total = head.head_len + head.content_length;
            let rbuf = std::mem::take(&mut up.rbuf);
            let backend_close = head.close;
            let body_range = head.head_len..total;
            self.upstream_response(plane, relay_id, head, &rbuf[body_range]);
            if backend_close {
                self.fail_upstream(plane, id);
                return;
            }
            if let Some(up) = self.upstreams.get_mut(&id) {
                // Nothing reads this socket meanwhile: put the buffer back.
                up.rbuf = rbuf;
                up.rbuf.drain(..total);
            }
        }
        if closed {
            self.fail_upstream(plane, id);
        }
    }

    /// Tears down an upstream connection. In-flight relays either
    /// retry once on a fresh connection (the stale-keep-alive case:
    /// the connection had served a response before) or abandon their
    /// candidate and fail over.
    fn fail_upstream(&mut self, plane: &mut Plane, id: u64) {
        let Some(up) = self.upstreams.remove(&id) else {
            return;
        };
        if let Some(pool) = self.pools.get_mut(&up.addr) {
            pool.retain(|&uid| uid != id);
        }
        let _ = plane.registry().deregister(&up.stream);
        for relay_id in up.inflight {
            let retry = up.used
                && self
                    .relays
                    .get(&relay_id)
                    .is_some_and(|r| r.reconnect_budget > 0);
            if retry {
                if let Some(relay) = self.relays.get_mut(&relay_id) {
                    relay.reconnect_budget -= 1;
                }
                self.stats
                    .pool_retried_reconnects
                    .fetch_add(1, Ordering::Relaxed);
                self.start_attempt(plane, relay_id, false);
            } else {
                self.abandon_candidate(plane, relay_id);
            }
        }
    }

    fn update_upstream_interest(&mut self, plane: &Plane, id: u64) {
        let Some(up) = self.upstreams.get_mut(&id) else {
            return;
        };
        // Always reading (response data or backend close); writing only
        // while the connect or a send is outstanding.
        let mut desired = 0b01u8;
        if !up.connected || up.wpos < up.wbuf.len() {
            desired |= 0b10;
        }
        apply_interest(
            &plane.registry(),
            &up.stream,
            Plane::hook_token(id),
            &mut up.interest,
            desired,
        );
    }
}
