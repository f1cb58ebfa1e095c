//! The HTTP/1.1 plane: one epoll reactor thread drives every client
//! socket, a fixed worker pool runs the application handler, and a
//! small blocking [`Client`] talks to it.
//!
//! ```text
//!            ┌──────────────────────── reactor thread ──────────────────────┐
//!  clients ──▶ accept ─▶ Conn {rbuf ─▶ parse ─▶ pipeline slots ─▶ wbuf}      │
//!            │                          │ a Hook claims it │ otherwise      │
//!            │                          ▼                  ▼                │
//!            │                   Hook (fleet relay)   jobs ─▶ worker pool   │
//!            │                                        (handler, waker back) │
//!            └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Scope: exactly what a JSON API needs — request line, headers,
//! `Content-Length` bodies, keep-alive with pipelining, bounded sizes and
//! times, and clean shutdown. No TLS, chunked encoding, or HTTP/2; the
//! service sits behind whatever terminates those.
//!
//! * **One request at a time per connection.** Requests parse as bytes
//!   arrive, take a slot in their connection's pipeline, and start in
//!   order; at most one offloaded request per connection runs at a time,
//!   so a pipelined write is visible to the read behind it. Responses
//!   flush strictly in request order.
//! * **Hooks.** A front-end that answers some requests without a worker
//!   (the fleet router's characterize relay) passes a [`Hook`]: it is
//!   offered each request when it is due to start, owns the sockets it
//!   registers under [`Plane::hook_token`], and answers through
//!   [`Plane::deliver`]. Claimed requests do not hold up the ones behind
//!   them. `serve` passes no hook.
//! * **Bounds.** Heads are capped at [`MAX_HEAD_BYTES`] and bodies at
//!   [`MAX_BODY_BYTES`]; a request must arrive within 120 s of its first
//!   byte; keep-alive connections idle for 60 s close; a client that
//!   stops reading its responses is cut off after 30 s without progress;
//!   a handler panic becomes a 500; beyond 1024 connections new ones get
//!   a 503. The 400 and 503 rejections drain the peer's input before
//!   closing, so a client that is mid-upload still reads its error.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Registry, Token, Waker};

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body (CSV ingest needs room).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Client read timeout, and how long a server connection with queued
/// output may go without write progress before it is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Wall-clock ceiling on receiving one request (head + body), from its
/// first byte, so a peer trickling bytes cannot hold a slot forever.
/// Generous enough for a [`MAX_BODY_BYTES`] upload on a slow link.
const REQUEST_DEADLINE: Duration = Duration::from_secs(120);
/// How long a keep-alive connection may sit idle between requests
/// before it is closed (half-open peers never send a FIN).
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(60);
/// Maximum connections served; beyond it new ones are refused with 503.
const MAX_CONNS: usize = 1024;
/// Over-capacity connections held at once to be told 503; beyond this a
/// refusal flood is dropped silently.
const MAX_REFUSING: usize = 32;
/// Requests one connection may have queued or in flight before the
/// reactor stops reading from it. Bounds per-connection memory.
const PIPELINE_CAP: usize = 32;
/// Hard bound on draining a rejected connection's input before close.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);
/// A drain also ends once the peer has been quiet this long.
const DRAIN_QUIET: Duration = Duration::from_millis(250);
/// The reactor wakes at least this often; sweeps run every
/// [`SWEEP_INTERVAL`] (every wakeup while a connection drains).
const POLL_TIMEOUT: Duration = Duration::from_millis(500);
const SWEEP_INTERVAL: Duration = Duration::from_secs(1);
const DRAIN_TICK: Duration = Duration::from_millis(50);

const TOKEN_LISTENER: Token = Token(0);
const TOKEN_WAKER: Token = Token(1);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Raw query string (text after `?`, empty when absent).
    pub query: String,
    /// Lower-cased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Peer address, when served over a socket (`None` for requests
    /// built in-process, e.g. unit tests). Rate limiting keys on it.
    pub peer: Option<SocketAddr>,
}

impl Request {
    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `key` (`?key=value&…`); no
    /// percent-decoding (the API's parameters are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// An HTTP response (`application/json` unless a handler overrides the
/// content type — the Prometheus exposition route serves plain text).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text. Shared, not owned: handlers serving memoized bytes
    /// (the report cache's warm path) hand over an `Arc` clone instead
    /// of copying the whole body per request.
    pub body: Arc<str>,
    /// Extra response headers (e.g. `Retry-After` on 429). The framing
    /// headers (`Content-Length`, `Connection`) are always emitted by
    /// the server and must not appear here; a `Content-Type` here
    /// replaces the JSON default.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A response with the given status and JSON body text (`String`,
    /// `&str`, or a shared `Arc<str>` — cached bodies pass the latter
    /// for a zero-copy send).
    pub fn new(status: u16, body: impl Into<Arc<str>>) -> Self {
        Self {
            status,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// Adds an extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// The standard reason phrase for a status code.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The application callback invoked per request.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Observer for responses written *below* the handler — the
/// over-capacity 503 and the malformed-request 400, which never reach
/// the router. Called with `(status, trace_id)` so those edge
/// rejections still make it into the access log with a trace id
/// instead of silently bypassing it.
pub type EdgeObserver = Arc<dyn Fn(u16, &str) + Send + Sync>;

/// Frames one response: status line, `Content-Length`, `Connection`,
/// `Content-Type` (JSON unless `headers` names one), `headers`, blank
/// line, body. The only response framer: handler responses and the
/// fleet relay both go through it.
pub fn encode(status: u16, headers: &[(String, String)], body: &[u8], close: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    if !headers
        .iter()
        .any(|(k, _)| k.eq_ignore_ascii_case("content-type"))
    {
        head.push_str("Content-Type: application/json\r\n");
    }
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.reserve_exact(body.len());
    out.extend_from_slice(body);
    out
}

/// [`encode`] for a handler's [`Response`].
pub fn encode_response(response: &Response, close: bool) -> Vec<u8> {
    encode(
        response.status,
        &response.headers,
        response.body.as_bytes(),
        close,
    )
}

/// A pipeline position a [`Hook`] answers: its connection, its place on
/// it, and whether the client asked to close after it.
#[derive(Debug, Clone, Copy)]
pub struct SlotId {
    conn: u64,
    seq: u64,
    close: bool,
}

impl SlotId {
    /// Whether the response must say `Connection: close`.
    pub fn close(self) -> bool {
        self.close
    }
}

/// A front-end extension answering some requests on the reactor thread.
pub trait Hook: Send {
    /// Offered each request when it is due to start. Returning the
    /// request hands it to the worker pool; `None` takes it, and the
    /// hook must later answer it with [`Plane::deliver`].
    fn claim(&mut self, plane: &mut Plane, slot: SlotId, req: Request) -> Option<Request>;
    /// Readiness on a socket the hook registered as [`Plane::hook_token`]`(id)`.
    fn event(&mut self, plane: &mut Plane, id: u64, readable: bool, writable: bool, error: bool);
    /// Called once per reactor iteration; `woken` when a worker
    /// completion woke the loop.
    fn tick(&mut self, plane: &mut Plane, woken: bool);
    /// Called about once a second, to close idle or stalled sockets.
    fn sweep(&mut self, plane: &mut Plane, now: Instant);
}

/// A running server; shuts down when dropped (or via
/// [`Server::shutdown`]).
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the reactor plus `threads` handler workers.
    pub fn start(addr: impl ToSocketAddrs, threads: usize, handler: Handler) -> io::Result<Self> {
        Self::launch(addr, threads, handler, None, None)
    }

    /// Like [`Server::start`], with an [`EdgeObserver`] notified of the
    /// rejections written below the handler (503 over-capacity, 400
    /// malformed) so the caller's access log sees every response.
    pub fn start_observed(
        addr: impl ToSocketAddrs,
        threads: usize,
        handler: Handler,
        observer: Option<EdgeObserver>,
    ) -> io::Result<Self> {
        Self::launch(addr, threads, handler, observer, None)
    }

    /// Like [`Server::start_observed`], offering every request to `hook`
    /// before the worker pool.
    pub fn start_with_hook(
        addr: impl ToSocketAddrs,
        threads: usize,
        handler: Handler,
        observer: Option<EdgeObserver>,
        hook: Box<dyn Hook>,
    ) -> io::Result<Self> {
        Self::launch(addr, threads, handler, observer, Some(hook))
    }

    fn launch(
        addr: impl ToSocketAddrs,
        threads: usize,
        handler: Handler,
        edge: Option<EdgeObserver>,
        hook: Option<Box<dyn Hook>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poll = Poll::new()?;
        let registry = poll.registry();
        registry.register(&listener, TOKEN_LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&registry, TOKEN_WAKER)?);
        let stop = Arc::new(AtomicBool::new(false));
        let completions: Arc<Completions> = Arc::default();
        let (jobs, jobs_rx) = channel::<(SlotId, Request)>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let jobs = Arc::clone(&jobs_rx);
                let handler = Arc::clone(&handler);
                let completions = Arc::clone(&completions);
                let waker = Arc::clone(&waker);
                std::thread::Builder::new()
                    .name(format!("ziggy-http-worker-{i}"))
                    .spawn(move || worker(&jobs, &handler, &completions, &waker))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let reactor = {
            let stop = Arc::clone(&stop);
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name("ziggy-http-reactor".into())
                .spawn(move || {
                    Reactor {
                        poll,
                        plane: Plane {
                            registry,
                            listener,
                            conns: HashMap::new(),
                            next_conn: 0,
                            jobs,
                            edge,
                            ready: Vec::new(),
                            draining: 0,
                        },
                        hook,
                        waker,
                        completions,
                        stop,
                    }
                    .run()
                })?
        };
        Ok(Self {
            local_addr,
            stop,
            waker,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes every connection, and joins all threads
    /// (workers finish the request they are running).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // The reactor dropped the job queue's sender: idle workers exit.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.stop_and_join();
        }
    }
}

/// Framed responses finished by workers, for the reactor to deliver.
type Completions = Mutex<Vec<(SlotId, Vec<u8>)>>;

/// Runs offloaded requests until the job queue closes. A handler panic
/// becomes a 500 and the worker lives on.
fn worker(
    jobs: &Mutex<Receiver<(SlotId, Request)>>,
    handler: &Handler,
    completions: &Completions,
    waker: &Waker,
) {
    loop {
        let job = jobs
            .lock()
            .map_err(|_| ())
            .and_then(|rx| rx.recv().map_err(|_| ()));
        let Ok((slot, req)) = job else {
            return;
        };
        let response = catch_unwind(AssertUnwindSafe(|| handler(&req)))
            .unwrap_or_else(|_| Response::new(500, r#"{"error":"internal server error"}"#));
        let bytes = encode_response(&response, slot.close);
        drop(req);
        completions
            .lock()
            .expect("completion queue")
            .push((slot, bytes));
        let _ = waker.wake();
    }
}

/// Where one request stands in its connection's pipeline.
enum SlotState {
    /// Parsed; waits for the offloaded request ahead of it.
    Waiting(Request),
    /// With a worker or a hook.
    Running,
    /// Framed response bytes, flushed when every earlier slot has been.
    Ready(Vec<u8>),
}

struct Slot {
    seq: u64,
    close: bool,
    state: SlotState,
}

/// The timestamps the sweep judges a connection by.
#[derive(Debug, Clone, Copy)]
struct Clocks {
    /// Last byte read or written.
    last_io: Instant,
    /// First byte of the request still being received.
    request_started: Option<Instant>,
    /// Last write progress while output is queued in `wbuf`.
    write_waiting_since: Option<Instant>,
    /// When the post-rejection drain began.
    drain_started: Option<Instant>,
}

/// What the sweep does with a connection.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
    /// Answer 400: the request did not arrive within its deadline.
    RequestTimeout,
}

impl Clocks {
    fn new(now: Instant) -> Self {
        Self {
            last_io: now,
            request_started: None,
            write_waiting_since: None,
            drain_started: None,
        }
    }

    /// The sweep's decision at `now`; `idle` means nothing is queued,
    /// running, or partly received on the connection.
    fn verdict(&self, now: Instant, idle: bool) -> Verdict {
        let since = |t: Instant| now.saturating_duration_since(t);
        if let Some(t) = self.drain_started {
            return if since(t) >= DRAIN_DEADLINE || since(self.last_io) >= DRAIN_QUIET {
                Verdict::Close
            } else {
                Verdict::Keep
            };
        }
        if self
            .write_waiting_since
            .is_some_and(|t| since(t) >= IO_TIMEOUT)
        {
            return Verdict::Close;
        }
        if self
            .request_started
            .is_some_and(|t| since(t) >= REQUEST_DEADLINE)
        {
            return Verdict::RequestTimeout;
        }
        if idle && since(self.last_io) >= KEEP_ALIVE_TIMEOUT {
            return Verdict::Close;
        }
        Verdict::Keep
    }
}

/// One accepted client connection as a state machine.
struct Conn {
    stream: TcpStream,
    peer: Option<SocketAddr>,
    rbuf: Vec<u8>,
    /// A request whose head is parsed and whose body is read straight
    /// into `body[filled..]` (sized from `Content-Length`, no copy).
    partial: Option<(Request, usize)>,
    pipeline: VecDeque<Slot>,
    next_seq: u64,
    wbuf: Vec<u8>,
    wpos: usize,
    /// An offloaded request of this connection is on a worker.
    busy: bool,
    /// A response carrying `Connection: close` is queued: parse nothing
    /// more, and close (or drain) once it is written.
    closing: bool,
    /// The closing response is a 400/503 rejection: drain input before
    /// the close so the peer does not get a reset instead.
    drain_on_close: bool,
    /// The closing response has left the pipeline.
    final_sent: bool,
    peer_closed: bool,
    /// Registered interest (bit 0 read, bit 1 write); 0 = deregistered.
    interest: u8,
    clocks: Clocks,
}

impl Conn {
    fn idle(&self) -> bool {
        self.pipeline.is_empty()
            && self.wpos >= self.wbuf.len()
            && self.rbuf.is_empty()
            && self.partial.is_none()
    }
}

/// The reactor's connection side, lent to a [`Hook`] on every call.
pub struct Plane {
    registry: Registry,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    jobs: Sender<(SlotId, Request)>,
    edge: Option<EdgeObserver>,
    /// Connections that may have a `Waiting` slot ready to start.
    ready: Vec<u64>,
    /// Connections currently draining (the sweep runs every tick then).
    draining: usize,
}

fn client_token(id: u64) -> Token {
    Token(2 + 2 * id as usize)
}

impl Plane {
    /// The poll registry, for a hook's own sockets.
    pub fn registry(&self) -> Registry {
        self.registry
    }

    /// The token under which a hook registers its socket `id`; the
    /// reactor routes that socket's readiness to [`Hook::event`].
    pub fn hook_token(id: u64) -> Token {
        Token(3 + 2 * id as usize)
    }

    /// Answers a claimed request with framed response bytes (see
    /// [`encode`]). A slot whose client has gone is silently dropped.
    pub fn deliver(&mut self, slot: SlotId, bytes: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&slot.conn) else {
            return;
        };
        if let Some(s) = conn.pipeline.iter_mut().find(|s| s.seq == slot.seq) {
            s.state = SlotState::Ready(bytes);
        }
        self.flush(slot.conn);
    }

    // ---- accept ----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => self.accept_one(stream, peer),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock, or a transient accept error.
            }
        }
    }

    fn accept_one(&mut self, stream: TcpStream, peer: SocketAddr) {
        if self.conns.len() >= MAX_CONNS + MAX_REFUSING || stream.set_nonblocking(true).is_err() {
            return;
        }
        // No-Nagle: responses are single writes and must not wait out a
        // delayed-ACK window.
        let _ = stream.set_nodelay(true);
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                stream,
                peer: Some(peer),
                rbuf: Vec::new(),
                partial: None,
                pipeline: VecDeque::new(),
                next_seq: 0,
                wbuf: Vec::new(),
                wpos: 0,
                busy: false,
                closing: false,
                drain_on_close: false,
                final_sent: false,
                peer_closed: false,
                interest: 0,
                clocks: Clocks::new(Instant::now()),
            },
        );
        if self.conns.len() > MAX_CONNS {
            self.reject(id, 503, "server at connection capacity");
        } else {
            self.update_interest(id);
        }
    }

    // ---- reading and parsing --------------------------------------

    fn read(&mut self, id: u64) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let draining = conn.clocks.drain_started.is_some();
            if !draining && !wants_read(conn) {
                break;
            }
            let (result, asked) = match (&mut conn.partial, draining) {
                (Some((req, filled)), false) => {
                    let asked = req.body.len() - *filled;
                    let r = conn.stream.read(&mut req.body[*filled..]);
                    if let Ok(n) = r {
                        *filled += n;
                    }
                    (r, asked)
                }
                _ => {
                    let r = conn.stream.read(&mut buf);
                    if let (Ok(n), false) = (&r, draining) {
                        conn.rbuf.extend_from_slice(&buf[..*n]);
                    }
                    (r, buf.len())
                }
            };
            match result {
                Ok(0) => {
                    conn.peer_closed = true;
                    if draining {
                        self.close(id);
                        return;
                    }
                    break;
                }
                Ok(n) => {
                    conn.clocks.last_io = Instant::now();
                    if !draining {
                        self.parse(id);
                    }
                    // A short read means the socket is (almost surely)
                    // drained; level-triggered epoll re-arms if not.
                    if n < asked {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
        if let Some(conn) = self.conns.get(&id) {
            if conn.peer_closed && conn.pipeline.is_empty() && conn.wpos >= conn.wbuf.len() {
                self.close(id); // EOF with nothing owed.
            }
        }
    }

    /// Turns buffered bytes into pipeline slots.
    fn parse(&mut self, id: u64) {
        let mut enqueued = false;
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.closing {
                break;
            }
            let req = if let Some((req, filled)) = &conn.partial {
                if *filled < req.body.len() {
                    break;
                }
                conn.partial.take().expect("checked above").0
            } else {
                if conn.pipeline.len() >= PIPELINE_CAP || conn.rbuf.is_empty() {
                    break;
                }
                match parse_head(&conn.rbuf) {
                    Ok(None) => break,
                    Err(message) => {
                        self.reject(id, 400, &message);
                        return;
                    }
                    Ok(Some((mut req, head_len, body_len))) => {
                        req.peer = conn.peer;
                        let have = conn.rbuf.len() - head_len;
                        if have < body_len {
                            // Size the body once from Content-Length; the
                            // rest of it is read straight into place.
                            let mut body = vec![0u8; body_len];
                            body[..have].copy_from_slice(&conn.rbuf[head_len..]);
                            conn.rbuf.clear();
                            req.body = body;
                            conn.partial = Some((req, have));
                            break;
                        }
                        req.body = conn.rbuf[head_len..head_len + body_len].to_vec();
                        conn.rbuf.drain(..head_len + body_len);
                        req
                    }
                }
            };
            let close = req
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"));
            conn.clocks.request_started = None;
            conn.closing = close;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.pipeline.push_back(Slot {
                seq,
                close,
                state: SlotState::Waiting(req),
            });
            enqueued = true;
        }
        if let Some(conn) = self.conns.get_mut(&id) {
            // The request deadline runs only while a request is partly
            // received and the connection is reading.
            let receiving = !conn.closing
                && conn.pipeline.len() < PIPELINE_CAP
                && (conn.partial.is_some() || !conn.rbuf.is_empty());
            if !receiving {
                conn.clocks.request_started = None;
            } else if conn.clocks.request_started.is_none() {
                conn.clocks.request_started = Some(Instant::now());
            }
        }
        if enqueued {
            self.ready.push(id);
        }
    }

    /// Queues a final 400/503 with a minted trace id behind whatever the
    /// connection already owes, then drains and closes it.
    fn reject(&mut self, id: u64, status: u16, message: &str) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let trace = ziggy_obs::trace::mint_trace_id();
        let resp = Response::new(status, format!("{{\"error\":\"{message}\"}}"))
            .with_header(ziggy_obs::trace::TRACE_HEADER, trace.clone());
        conn.rbuf = Vec::new();
        conn.partial = None;
        conn.clocks.request_started = None;
        conn.closing = true;
        conn.drain_on_close = true;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pipeline.push_back(Slot {
            seq,
            close: true,
            state: SlotState::Ready(encode_response(&resp, true)),
        });
        if let Some(observe) = &self.edge {
            observe(status, &trace);
        }
        self.flush(id);
    }

    // ---- writing ---------------------------------------------------

    /// Writes whatever is now in order: earlier buffered bytes first,
    /// then ready slots straight from their buffers (only what the
    /// kernel refuses is copied into `wbuf`).
    fn flush(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let now = Instant::now();
        let mut dead = false;
        while !dead {
            if conn.wpos < conn.wbuf.len() {
                match write_some(&mut conn.stream, &conn.wbuf[conn.wpos..]) {
                    Ok(0) => {}
                    Ok(n) => {
                        conn.wpos += n;
                        conn.clocks.last_io = now;
                        conn.clocks.write_waiting_since = Some(now);
                    }
                    Err(_) => dead = true,
                }
                if conn.wpos < conn.wbuf.len() {
                    break; // Kernel buffer full: keep order, wait for WRITABLE.
                }
                conn.wbuf.clear();
                conn.wpos = 0;
                conn.clocks.write_waiting_since = None;
            }
            if !matches!(
                conn.pipeline.front(),
                Some(Slot {
                    state: SlotState::Ready(_),
                    ..
                })
            ) {
                break;
            }
            let slot = conn.pipeline.pop_front().expect("front exists");
            let SlotState::Ready(bytes) = slot.state else {
                unreachable!("front slot is ready")
            };
            match write_some(&mut conn.stream, &bytes) {
                Ok(n) => {
                    conn.clocks.last_io = now;
                    if n < bytes.len() {
                        conn.wbuf.extend_from_slice(&bytes[n..]);
                        conn.clocks.write_waiting_since = Some(now);
                    }
                }
                Err(_) => dead = true,
            }
            if slot.close {
                conn.final_sent = true;
                conn.pipeline.clear();
            }
        }
        if dead {
            self.close(id);
            return;
        }
        let owed = conn.wpos < conn.wbuf.len();
        if conn.final_sent && !owed {
            if !conn.drain_on_close {
                self.close(id);
                return;
            }
            if conn.clocks.drain_started.is_none() {
                let _ = conn.stream.shutdown(Shutdown::Write);
                conn.clocks.drain_started = Some(now);
                conn.clocks.last_io = now;
                self.draining += 1;
            }
        } else if !owed {
            if !conn.closing && !conn.rbuf.is_empty() && conn.pipeline.len() < PIPELINE_CAP {
                // Slots freed up with requests already buffered: epoll
                // does not report bytes read before the pipeline filled.
                self.parse(id);
            }
            if let Some(conn) = self.conns.get(&id) {
                if conn.peer_closed && conn.pipeline.is_empty() {
                    self.close(id); // EOF with nothing owed.
                    return;
                }
            }
        }
        self.update_interest(id);
    }

    fn update_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut desired = 0u8;
        if conn.clocks.drain_started.is_some() || wants_read(conn) {
            desired |= 0b01;
        }
        if conn.wpos < conn.wbuf.len() {
            desired |= 0b10;
        }
        apply_interest(
            &self.registry,
            &conn.stream,
            client_token(id),
            &mut conn.interest,
            desired,
        );
    }

    fn close(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            if conn.interest != 0 {
                let _ = self.registry.deregister(&conn.stream);
            }
            if conn.clocks.drain_started.is_some() {
                self.draining -= 1;
            }
        }
    }

    fn client_event(&mut self, id: u64, readable: bool, writable: bool, error: bool) {
        if error {
            self.close(id); // Reset or failed socket: nothing more to say.
            return;
        }
        if readable {
            self.read(id);
        }
        if writable {
            self.flush(id);
        }
        self.update_interest(id);
    }

    fn sweep(&mut self, now: Instant) {
        let verdicts: Vec<(u64, Verdict)> = self
            .conns
            .iter()
            .map(|(&id, c)| (id, c.clocks.verdict(now, c.idle())))
            .filter(|(_, v)| *v != Verdict::Keep)
            .collect();
        for (id, verdict) in verdicts {
            match verdict {
                Verdict::RequestTimeout => self.reject(id, 400, "request deadline exceeded"),
                _ => self.close(id),
            }
        }
    }
}

/// Whether the connection should read more requests now.
fn wants_read(conn: &Conn) -> bool {
    !conn.peer_closed && !conn.closing && conn.pipeline.len() < PIPELINE_CAP
}

/// Writes as much of `bytes` as the socket takes without blocking.
fn write_some(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<usize> {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// Moves `stream`'s registration from interest bits `current` to
/// `desired` (bit 0 read, bit 1 write; 0 = deregistered). Touching epoll
/// only on change is what keeps level-triggered polling from busy
/// looping on permanently writable sockets.
pub fn apply_interest(
    registry: &Registry,
    stream: &TcpStream,
    token: Token,
    current: &mut u8,
    desired: u8,
) {
    if desired == *current {
        return;
    }
    let interest = match desired {
        0b01 => Interest::READABLE,
        0b10 => Interest::WRITABLE,
        _ => Interest::READABLE.add(Interest::WRITABLE),
    };
    let result = match (*current, desired) {
        (_, 0) => registry.deregister(stream),
        (0, _) => registry.register(stream, token, interest),
        _ => registry.reregister(stream, token, interest),
    };
    if result.is_ok() {
        *current = desired;
    }
}

struct Reactor {
    poll: Poll,
    plane: Plane,
    hook: Option<Box<dyn Hook>>,
    waker: Arc<Waker>,
    completions: Arc<Completions>,
    stop: Arc<AtomicBool>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut last_sweep = Instant::now();
        let mut last_drain_check = last_sweep;
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = if self.plane.draining > 0 {
                DRAIN_TICK
            } else {
                POLL_TIMEOUT
            };
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                continue;
            }
            let mut woken = false;
            for event in &events {
                match event.token() {
                    TOKEN_LISTENER => self.plane.accept_ready(),
                    TOKEN_WAKER => {
                        woken = true;
                        self.waker.drain();
                    }
                    Token(raw) => {
                        let id = ((raw - 2) / 2) as u64;
                        if raw % 2 == 0 {
                            self.plane.client_event(
                                id,
                                event.is_readable(),
                                event.is_writable(),
                                event.is_error(),
                            );
                        } else if let Some(hook) = self.hook.as_mut() {
                            hook.event(
                                &mut self.plane,
                                id,
                                event.is_readable(),
                                event.is_writable(),
                                event.is_error(),
                            );
                        }
                    }
                }
                self.start_ready();
            }
            let done = std::mem::take(&mut *self.completions.lock().expect("completion queue"));
            for (slot, bytes) in done {
                if let Some(conn) = self.plane.conns.get_mut(&slot.conn) {
                    conn.busy = false;
                    self.plane.ready.push(slot.conn);
                }
                self.plane.deliver(slot, bytes);
            }
            self.start_ready();
            let now = Instant::now();
            let sweep_due = now.duration_since(last_sweep) >= SWEEP_INTERVAL;
            let drains_due =
                self.plane.draining > 0 && now.duration_since(last_drain_check) >= DRAIN_TICK;
            if sweep_due || drains_due {
                self.plane.sweep(now);
                last_drain_check = now;
            }
            if let Some(hook) = self.hook.as_mut() {
                if sweep_due {
                    hook.sweep(&mut self.plane, now);
                }
                hook.tick(&mut self.plane, woken);
            }
            if sweep_due {
                last_sweep = now;
            }
            self.start_ready();
        }
    }

    /// Starts every request that is due: in order per connection, the
    /// hook first, and no offload while one from the same connection
    /// is still running.
    fn start_ready(&mut self) {
        while let Some(id) = self.plane.ready.pop() {
            while let Some(conn) = self.plane.conns.get_mut(&id) {
                if conn.busy {
                    break;
                }
                let Some(slot) = conn
                    .pipeline
                    .iter_mut()
                    .find(|s| matches!(s.state, SlotState::Waiting(_)))
                else {
                    break;
                };
                let SlotState::Waiting(req) =
                    std::mem::replace(&mut slot.state, SlotState::Running)
                else {
                    unreachable!("found a waiting slot")
                };
                let slot = SlotId {
                    conn: id,
                    seq: slot.seq,
                    close: slot.close,
                };
                let req = match self.hook.as_mut() {
                    Some(hook) => match hook.claim(&mut self.plane, slot, req) {
                        Some(req) => req,
                        None => continue,
                    },
                    None => req,
                };
                if let Some(conn) = self.plane.conns.get_mut(&id) {
                    conn.busy = true;
                }
                let _ = self.plane.jobs.send((slot, req));
            }
        }
    }
}

// --------------------------------------------------------------------
// Parsing
// --------------------------------------------------------------------

/// Locates the end of an HTTP head in `buf`: the index one past the
/// blank line. Accepts CRLF and bare-LF line endings.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // "\n\r\n" (CRLF blank line) or "\n\n" (bare-LF blank line).
            if buf[i + 1..].starts_with(b"\r\n") {
                return Some(i + 3);
            }
            if buf[i + 1..].starts_with(b"\n") {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

/// Parses one request head from the front of `buf`: `Ok(Some((request,
/// head_len, body_len)))` once the head is complete (the body, still
/// empty in `request`, is the next `body_len` bytes), `Ok(None)` when
/// more bytes are needed, `Err` on a malformed head. Enforces the head
/// and body caps and accepts only `Content-Length` framing with
/// digit-only, agreeing lengths.
fn parse_head(buf: &[u8]) -> Result<Option<(Request, usize, usize)>, String> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err("request head too large".into());
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err("request head too large".into());
    }
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 request head")?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1") => (m.to_ascii_uppercase(), t),
        _ => return Err("malformed request line".into()),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for h in lines {
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    // Silently ignoring a chunked body would desync the connection: the
    // chunk stream would parse as the next request line. Reject instead.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err("transfer-encoding is not supported".into());
    }
    let mut content_length: Option<usize> = None;
    for (k, v) in &headers {
        if k == "content-length" {
            // RFC 9110: DIGITs only. usize::parse alone would also
            // accept "+5", which intermediaries may frame differently.
            if !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err("bad content-length".into());
            }
            let n = v.parse::<usize>().map_err(|_| "bad content-length")?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err("conflicting content-length headers".into());
            }
            content_length = Some(n);
        }
    }
    let body_len = content_length.unwrap_or(0);
    if body_len > MAX_BODY_BYTES {
        return Err("request body too large".into());
    }
    let request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        peer: None,
    };
    Ok(Some((request, head_end, body_len)))
}

/// A parsed response head (the body follows at `head_len` and runs for
/// `content_length` bytes).
#[derive(Debug)]
pub struct ResponseHead {
    /// Status code from the status line.
    pub status: u16,
    /// Lower-cased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Body length (Content-Length framing only; absent means 0).
    pub content_length: usize,
    /// Bytes consumed by the head, including the blank line.
    pub head_len: usize,
    /// Whether the peer signalled `Connection: close`.
    pub close: bool,
}

impl ResponseHead {
    /// First value of a (case-insensitive, stored lower-cased) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses one response head from the front of `buf`: `Ok(Some(head))`
/// when the head is complete (the body may still be in flight),
/// `Ok(None)` when more bytes are needed, `Err` on garbage.
pub fn try_parse_response_head(buf: &[u8]) -> Result<Option<ResponseHead>, String> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err("response head too large".into());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().unwrap_or("");
    if !status_line.starts_with("HTTP/1") {
        return Err("malformed status line".into());
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    let mut close = false;
    for h in lines {
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            let k = k.trim().to_ascii_lowercase();
            let v = v.trim().to_string();
            if k == "content-length" {
                content_length = v.parse().map_err(|_| "bad content-length")?;
            }
            if k == "connection" && v.eq_ignore_ascii_case("close") {
                close = true;
            }
            headers.push((k, v));
        }
    }
    Ok(Some(ResponseHead {
        status,
        headers,
        content_length,
        head_len: head_end,
        close,
    }))
}

// --------------------------------------------------------------------
// Client
// --------------------------------------------------------------------

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A full client-side response: status, headers (lower-cased names),
/// body.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// A keep-alive HTTP/1.1 client for one server, used by integration
/// tests, benchmarks and the `ziggy` CLI's smoke checks.
pub struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
        })
    }

    /// Connects with a bounded connect timeout (health probes and proxy
    /// hops must fail fast when a backend is down, not after the OS
    /// connect timeout).
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream: BufReader::new(stream),
        })
    }

    /// Overrides the read timeout (default [`IO_TIMEOUT`]).
    pub fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(Some(timeout))
    }

    /// (Re)asserts `TCP_NODELAY` on the underlying socket. `connect`
    /// already sets it; pool owners call this so the no-Nagle contract
    /// on upstream hops is explicit at the call site.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.stream.get_ref().set_nodelay(nodelay)
    }

    /// Sends one request and reads the `(status, body)` response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let (status, _, body) = self.request_with_headers(method, path, &[], body)?;
        Ok((status, body))
    }

    /// Sends one request carrying `extra_headers` (e.g. `If-None-Match`)
    /// and reads the full `(status, headers, body)` response — header
    /// names come back lower-cased. This is the proxy's entry point: the
    /// fleet router forwards conditional headers to backends and relays
    /// `ETag`s (and `304`s) to the client. Header values must be single
    /// CRLF-free lines; the caller only forwards values that were parsed
    /// out of a request head, which cannot contain line breaks.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> io::Result<FullResponse> {
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: ziggy\r\nContent-Length: {}\r\n",
            body.len(),
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let stream = self.stream.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<FullResponse> {
        let mut line = String::new();
        if self.stream.read_line(&mut line)? == 0 {
            return Err(bad("server closed connection"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            let mut h = String::new();
            if self.stream.read_line(&mut h)? == 0 {
                return Err(bad("eof in response headers"));
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
                headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let mut body = vec![0u8; content_length];
        self.stream.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, headers, b))
            .map_err(|_| bad("non-UTF-8 response body"))
    }
}

/// One-shot convenience: connect, send, read, close.
pub fn request_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    Client::connect(addr)?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> Server {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::new(
                200,
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"len\":{}}}",
                    req.method,
                    req.path,
                    req.body.len()
                ),
            )
        });
        Server::start("127.0.0.1:0", 2, handler).unwrap()
    }

    #[test]
    fn round_trip_and_keep_alive() {
        let server = echo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for i in 0..3 {
            let (status, body) = client
                .request("POST", "/echo", Some(&"x".repeat(i * 10)))
                .unwrap();
            assert_eq!(status, 200);
            assert!(body.contains(&format!("\"len\":{}", i * 10)), "{body}");
        }
        server.shutdown();
    }

    #[test]
    fn query_strings_are_stripped() {
        let server = echo_server();
        let (_, body) = request_once(server.local_addr(), "GET", "/a/b?x=1", None).unwrap();
        assert!(body.contains("\"path\":\"/a/b\""), "{body}");
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    }

    #[test]
    fn sweep_deadlines_at_an_explicit_now() {
        let t0 = Instant::now();
        let at = |d: Duration| t0 + d;
        let fresh = Clocks::new(t0);
        assert_eq!(
            fresh.verdict(at(Duration::from_secs(59)), true),
            Verdict::Keep
        );
        assert_eq!(fresh.verdict(at(KEEP_ALIVE_TIMEOUT), true), Verdict::Close);
        // A connection with work in flight is never idle-closed.
        assert_eq!(
            fresh.verdict(at(KEEP_ALIVE_TIMEOUT * 10), false),
            Verdict::Keep
        );

        // A trickling client: bytes keep arriving, yet the request as a
        // whole must land within the deadline.
        let trickling = Clocks {
            last_io: at(REQUEST_DEADLINE),
            request_started: Some(t0),
            ..fresh
        };
        let just_before = at(REQUEST_DEADLINE - Duration::from_millis(1));
        assert_eq!(trickling.verdict(just_before, false), Verdict::Keep);
        assert_eq!(
            trickling.verdict(at(REQUEST_DEADLINE), false),
            Verdict::RequestTimeout
        );

        // A client that never reads its responses.
        let stalled = Clocks {
            last_io: at(IO_TIMEOUT),
            write_waiting_since: Some(t0),
            ..fresh
        };
        assert_eq!(stalled.verdict(at(IO_TIMEOUT), false), Verdict::Close);

        // A drain ends at its deadline, or sooner once the peer is quiet.
        let draining = Clocks {
            drain_started: Some(t0),
            ..fresh
        };
        assert_eq!(
            draining.verdict(at(Duration::from_millis(100)), false),
            Verdict::Keep
        );
        assert_eq!(draining.verdict(at(DRAIN_QUIET), false), Verdict::Close);
        let chatty = Clocks {
            last_io: at(DRAIN_DEADLINE - Duration::from_millis(1)),
            ..draining
        };
        assert_eq!(
            chatty.verdict(at(Duration::from_secs(1)), false),
            Verdict::Keep
        );
        assert_eq!(chatty.verdict(at(DRAIN_DEADLINE), false), Verdict::Close);
    }

    #[test]
    fn unsupported_framing_is_rejected() {
        let server = echo_server();
        for head in [
            // Chunked framing: the body would desync the connection.
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            // Smuggling-style conflicting lengths.
            "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 7\r\n\r\nabc",
            // Non-canonical length (sign accepted by usize::parse).
            "POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi",
        ] {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.write_all(head.as_bytes()).unwrap();
            let mut out = String::new();
            let _ = stream.read_to_string(&mut out);
            assert!(out.starts_with("HTTP/1.1 400"), "{head:?} -> {out}");
        }
        // Duplicate but *agreeing* lengths are fine.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(
                b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\
                  Connection: close\r\n\r\nhi",
            )
            .unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        server.shutdown();
    }

    #[test]
    fn endless_header_line_is_cut_off() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        // A single header "line" growing far past the head cap, never
        // terminated: the server must reject it instead of buffering.
        let chunk = [b'A'; 4096];
        let mut sent = 0usize;
        while sent < MAX_HEAD_BYTES * 4 {
            if stream.write_all(&chunk).is_err() {
                break; // Server already hung up: that's the point.
            }
            sent += chunk.len();
        }
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(
            out.starts_with("HTTP/1.1 400") || out.is_empty(),
            "expected rejection, got: {}",
            &out[..out.len().min(80)]
        );
        server.shutdown();
    }

    #[test]
    fn oversized_body_in_flight_still_reads_its_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let head = format!(
            "POST /tables HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        // About 1 MB of the body is on its way when the server decides:
        // it drains the upload instead of resetting the connection, so
        // the client finishes sending and then reads its error.
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..16 {
            stream
                .write_all(&chunk)
                .expect("the rejected upload is drained, not reset");
        }
        let mut out = Vec::new();
        stream
            .read_to_end(&mut out)
            .expect("an orderly close after the 400, not a reset");
        let out = String::from_utf8_lossy(&out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("request body too large"), "{out}");
        server.shutdown();
    }

    #[test]
    fn handler_panic_becomes_500() {
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::new(200, "{}")
        });
        let server = Server::start("127.0.0.1:0", 2, handler).unwrap();
        let (status, body) = request_once(server.local_addr(), "GET", "/boom", None).unwrap();
        assert_eq!(status, 500);
        assert!(body.contains("internal server error"));
        // The worker survives for the next request.
        let (status, _) = request_once(server.local_addr(), "GET", "/fine", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn parse_head_is_incremental_and_strict() {
        let full = b"POST /tables/t/characterize?k=1 HTTP/1.1\r\nHost: z\r\nContent-Length: 5\r\n\r\nhello";
        let head_len = full.len() - 5;
        // Every prefix short of the blank line asks for more bytes.
        for cut in 0..head_len {
            assert!(
                parse_head(&full[..cut]).unwrap().is_none(),
                "cut at {cut} should be incomplete"
            );
        }
        let (req, consumed, body_len) = parse_head(full).unwrap().unwrap();
        assert_eq!((consumed, body_len), (head_len, 5));
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/tables/t/characterize");
        assert_eq!(req.query, "k=1");
        assert_eq!(req.header("host"), Some("z"));

        // Pipelined second request: only the first head is consumed.
        let mut two = full.to_vec();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let (second, c2, len2) = parse_head(&two[full.len()..]).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert_eq!(full.len() + c2 + len2, two.len());

        for bad_head in [
            &b"NOT A REQUEST\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 7\r\n\r\nabc"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi"[..],
        ] {
            assert!(parse_head(bad_head).is_err(), "{bad_head:?}");
        }
        // An endless head is rejected rather than buffered forever.
        let endless = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(parse_head(&endless).is_err());
        // Bare-LF line endings are tolerated.
        let lf = b"GET /x HTTP/1.1\nHost: z\n\n";
        let (req, consumed, _) = parse_head(lf).unwrap().unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(consumed, lf.len());
    }

    #[test]
    fn try_parse_response_head_reads_framing() {
        let raw = b"HTTP/1.1 304 Not Modified\r\nContent-Length: 0\r\nETag: \"abc\"\r\nConnection: keep-alive\r\n\r\n";
        for cut in 0..raw.len() {
            assert!(try_parse_response_head(&raw[..cut]).unwrap().is_none());
        }
        let head = try_parse_response_head(raw).unwrap().unwrap();
        assert_eq!(head.status, 304);
        assert_eq!(head.content_length, 0);
        assert_eq!(head.head_len, raw.len());
        assert_eq!(head.header("etag"), Some("\"abc\""));
        assert!(!head.close);

        let closing = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
        let head = try_parse_response_head(closing).unwrap().unwrap();
        assert!(head.close);
        assert_eq!(head.content_length, 2);
        assert_eq!(&closing[head.head_len..], b"ok");

        assert!(try_parse_response_head(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn encode_response_matches_relay_framing() {
        let resp = Response::new(200, "{\"ok\":true}").with_header("ETag", "\"e1\"");
        let encoded = encode_response(&resp, false);
        // The fleet relay frames a backend's bytes and relayed headers
        // through `encode` directly; both must produce the same bytes.
        let relayed = encode(
            200,
            &[("ETag".to_string(), "\"e1\"".to_string())],
            b"{\"ok\":true}",
            false,
        );
        assert_eq!(encoded, relayed);
        let head = try_parse_response_head(&encoded).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 11);
        assert_eq!(head.header("etag"), Some("\"e1\""));
        assert_eq!(head.header("content-type"), Some("application/json"));
        // A handler-chosen content type replaces the JSON default.
        let text = Response::new(200, "x").with_header("Content-Type", "text/plain");
        let head = try_parse_response_head(&encode_response(&text, true))
            .unwrap()
            .unwrap();
        assert_eq!(head.header("content-type"), Some("text/plain"));
        assert!(head.close);
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let server = echo_server();
        let addr = server.local_addr();
        request_once(addr, "GET", "/x", None).unwrap();
        server.shutdown();
        // New connections are no longer served.
        let refused = request_once(addr, "GET", "/x", None).is_err();
        assert!(refused);
    }
}
