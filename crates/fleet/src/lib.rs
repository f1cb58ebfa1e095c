#![warn(missing_docs)]

//! `ziggy-fleet` — consistent-hash sharding and read-replica routing
//! across multiple `ziggy-serve` processes.
//!
//! The characterization workload is embarrassingly partitionable: every
//! table is an independent read-mostly engine. This crate exploits that
//! with the classic storage/serving decomposition — a thin routing
//! front-end over N independent single-node backends:
//!
//! ```text
//!                        ┌──────────────┐
//!             clients ──▶│ fleet router │   consistent-hash ring,
//!                        └──┬───┬───┬───┘   R-way replication
//!              ┌────────────┘   │   └────────────┐
//!              ▼                ▼                ▼
//!        ┌───────────┐   ┌───────────┐   ┌───────────┐
//!        │ serve #0  │   │ serve #1  │   │ serve #2  │  …
//!        └───────────┘   └───────────┘   └───────────┘
//! ```
//!
//! * **Placement** — a table's name hashes onto a [`ring::HashRing`]
//!   (virtual nodes, deterministic across routers); its R replicas are
//!   the next R distinct backends in ring order.
//! * **Ingest** — one client upload fans out as the idempotent
//!   `PUT /tables/{name}` replicate path to all R replicas.
//! * **Reads** — characterize traffic rotates across the healthy
//!   replicas; transport failures mark the backend and fail over to the
//!   next replica transparently (the [`dataplane`] relay's failover
//!   walk, plus an active `/healthz` prober).
//! * **Scatter-gather** — `GET /tables` and `GET /metrics` query every
//!   backend in parallel and merge per-shard sections into one
//!   document.
//! * **Sessions** — sticky to the backend that created them (their
//!   previous report lives in that process); if that process dies, the
//!   router resumes the session on another replica of the table from
//!   its ledger of (last query, step count), and the conversation
//!   continues there ([`router`] session failover). A 503 is reserved
//!   for the genuinely unrecoverable case: no other live replica of the
//!   table.
//! * **Dynamic membership** — `POST /admin/backends` and `DELETE
//!   /admin/backends/{id}` grow/shrink the ring at runtime under a
//!   versioned epoch ([`router::Membership`]); in-flight requests drain
//!   on the view they started with, and remapping is bounded by the
//!   consistent-hash properties the ring suite pins.
//! * **Self-healing** — a background [`repair::Repairer`] watches live
//!   replica counts and re-materializes under-replicated tables onto
//!   healthy backends via the idempotent replicate path; the `ziggy
//!   fleet` supervisor restarts dead children and rejoins them
//!   ([`spawn::restart_dead_children`]), after which repair re-ingests
//!   their shard. Repair is tombstone-aware: a rejoiner whose WAL
//!   replays a table that was deleted while it was away gets the delete
//!   propagated to it instead of resurrecting the table fleet-wide, and
//!   copies stranded outside their replica set are garbage-collected
//!   after a grace period ([`repair::GC_GRACE_ROUNDS`]).
//!
//! The fleet speaks exactly the single-node API, so a client cannot
//! tell a router from a lone `ziggy serve` — characterize responses are
//! byte-identical (the router forwards backend bytes verbatim).
//!
//! Use [`start_fleet`] over running backends, or `ziggy fleet` from the
//! CLI to spawn N local backends plus the router in one command
//! ([`spawn::BackendProcess`] supervises the children).

pub mod backend;
pub mod dataplane;
pub mod proxy;
pub mod repair;
pub mod ring;
pub mod router;
pub mod spawn;

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ziggy_obs::span::DEFAULT_TRACE_CAPACITY;
use ziggy_obs::trace::TRACE_HEADER;
use ziggy_obs::FlightRecorder;
use ziggy_serve::http::{EdgeObserver, Request};
use ziggy_serve::limit::throttle;
use ziggy_serve::{AccessLog, RateLimiter};

pub use backend::{Backend, BackendsProvider, Prober};
pub use dataplane::{DataPlane, DataPlaneConfig, DataPlaneStats};
pub use repair::{repair_round, RepairReport, Repairer};
pub use ring::HashRing;
pub use router::{
    fleet_route_key, route_fleet_traced, FleetState, Membership, FLEET_FAMILIES, FLEET_ROUTE_KEYS,
};
pub use spawn::{restart_dead_children, restart_dead_children_with, BackendProcess};

/// Options for [`start_fleet`].
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Replicas per table (clamped to the fleet size). Default 2.
    pub replication: usize,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Router worker threads.
    pub threads: usize,
    /// Emit one structured JSON access-log line per request (with the
    /// backend id for proxied requests) to stderr.
    pub access_log: bool,
    /// Append access-log lines to this file instead of stderr (implies
    /// logging even when `access_log` is false).
    pub access_log_path: Option<PathBuf>,
    /// Per-client token-bucket rate limit at the router edge;
    /// `None` disables. `GET /healthz` is exempt.
    pub rate_limit: Option<u32>,
    /// How often the prober polls each backend's `/healthz`.
    pub probe_interval: Duration,
    /// Idle TTL for the router's session mappings (backends expire
    /// their own halves independently); `None` disables sweeping.
    /// Defaults to one hour, matching the single-node server.
    pub session_ttl: Option<Duration>,
    /// How often the repair loop re-materializes under-replicated
    /// tables onto healthy backends; `None` disables self-healing.
    pub repair_interval: Option<Duration>,
    /// Slow-query threshold in milliseconds (`--slow-ms`): requests at
    /// or past it are pinned in the router's flight recorder and emit
    /// one slow-query log line with their span breakdown.
    pub slow_ms: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            replication: 2,
            vnodes: ring::DEFAULT_VNODES,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(2),
            access_log: false,
            access_log_path: None,
            rate_limit: None,
            probe_interval: backend::DEFAULT_PROBE_INTERVAL,
            session_ttl: Some(Duration::from_secs(3600)),
            repair_interval: Some(repair::DEFAULT_REPAIR_INTERVAL),
            slow_ms: ziggy_serve::router::DEFAULT_SLOW_US / 1000,
        }
    }
}

/// A running fleet router (plus its health prober and repair loop).
pub struct FleetHandle {
    dataplane: DataPlane,
    state: Arc<FleetState>,
    prober: Option<Prober>,
    repairer: Option<Repairer>,
}

impl FleetHandle {
    /// The router's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.dataplane.local_addr()
    }

    /// The shared router state, for inspection (tests, benchmarks).
    pub fn state(&self) -> &Arc<FleetState> {
        &self.state
    }

    /// Stops the repair loop, the prober, and the router, joining all
    /// threads. Backend processes are not touched — the router does not
    /// own them.
    pub fn shutdown(mut self) {
        if let Some(r) = self.repairer.take() {
            r.stop();
        }
        if let Some(p) = self.prober.take() {
            p.stop();
        }
        self.dataplane.shutdown();
    }
}

/// Binds `addr` and starts routing over `backends`
/// (`(id, address)` pairs of already-running `ziggy-serve` processes).
pub fn start_fleet(
    addr: impl ToSocketAddrs,
    backends: Vec<(String, SocketAddr)>,
    options: FleetOptions,
) -> io::Result<FleetHandle> {
    let backends: Vec<Arc<Backend>> = backends
        .into_iter()
        .map(|(id, addr)| Arc::new(Backend::new(id, addr)))
        .collect();
    let mut state = FleetState::new(
        backends,
        options.replication,
        options.vnodes,
        options.session_ttl,
    );
    state.recorder = Arc::new(FlightRecorder::new(
        DEFAULT_TRACE_CAPACITY,
        options.slow_ms.saturating_mul(1000),
    ));
    let state = Arc::new(state);
    // The prober reads membership through the state each round, so
    // backends added or removed at runtime are picked up within one
    // interval. It shares the state's LoopStats so `/metrics` sees its
    // round durations and failure streaks.
    let prober = {
        let provider_state = Arc::clone(&state);
        Prober::start_observed(
            Arc::new(move || provider_state.backends()),
            options.probe_interval,
            Some(Arc::clone(&state.probe_stats)),
        )
    };
    let repairer = options
        .repair_interval
        .map(|interval| Repairer::start(Arc::clone(&state), interval));
    let limiter = options.rate_limit.map(|r| Arc::new(RateLimiter::new(r)));
    let log = Arc::new(match &options.access_log_path {
        Some(path) => AccessLog::to_file(path)?,
        None if options.access_log => AccessLog::stderr(),
        None => AccessLog::disabled(),
    });
    let handler_state = Arc::clone(&state);
    let handler_log = Arc::clone(&log);
    // Edge rejections (over-capacity 503, malformed 400) are written
    // below the handler; the observer gets them into the same log.
    let edge_log = Arc::clone(&log);
    let edge: EdgeObserver = Arc::new(move |status: u16, trace: &str| {
        edge_log.log("-", "-", status, 0.0, Some(trace), None);
    });
    // The control-plane handler: every route the relay does not claim
    // (admin, sessions, scatter-gather, metrics, …) runs here, on the
    // data plane's worker pool.
    let handler_limiter = limiter.clone();
    let handler = Arc::new(move |req: &Request| {
        let started = Instant::now();
        let (trace, parent) = ziggy_serve::trace_context(req);
        let mut root = handler_state
            .recorder
            .root(&trace, parent.as_deref(), "fleet.request");
        root.attr("method", req.method.clone());
        root.attr("path", req.path.clone());
        let key = fleet_route_key(&req.method, &req.path);
        root.attr("route", key);
        let throttled = throttle(
            handler_limiter.as_deref(),
            req,
            &handler_state.metrics.rate_limited,
        );
        let (response, backend) = match throttled {
            Some(resp) => (resp, None),
            None => route_fleet_traced(&handler_state, req, Some(&trace)),
        };
        root.attr("status", response.status.to_string());
        root.set_error(response.status >= 400);
        drop(root); // Commits the trace to the flight recorder.
        let elapsed = started.elapsed();
        let elapsed_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        handler_state
            .route_latency
            .record_us_traced(key, elapsed_us, &trace);
        if elapsed_us >= handler_state.recorder.slow_us() {
            if let Some(entry) = handler_state.recorder.trace(&trace) {
                eprintln!("{}", ziggy_serve::logging::slow_query_line(&entry));
            }
        }
        handler_log.log(
            &req.method,
            &req.path,
            response.status,
            elapsed.as_secs_f64() * 1e3,
            Some(&trace),
            backend.as_deref(),
        );
        response.with_header(TRACE_HEADER, trace)
    });
    let dataplane = DataPlane::start(
        addr,
        Arc::clone(&state),
        handler,
        DataPlaneConfig {
            threads: options.threads,
            limiter,
            log,
            edge: Some(edge),
        },
    )?;
    Ok(FleetHandle {
        dataplane,
        state,
        prober: Some(prober),
        repairer,
    })
}
