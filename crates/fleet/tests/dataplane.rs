//! Event-loop data-plane tests: client-side keep-alive + pipelining,
//! reactor failover, the offload path, and the reactor's observability
//! surface. Everything here talks to the router over real TCP; the
//! backends are in-process servers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ziggy_fleet::{start_fleet, FleetOptions};
use ziggy_serve::http::{request_once, Client};
use ziggy_serve::{serve, ServeOptions, ServerHandle};

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

fn json_body(fields: &[(&str, &str)]) -> String {
    serde_json::to_string(&serde_json::Value::Object(
        fields
            .iter()
            .map(|(k, v)| {
                (
                    (*k).to_string(),
                    serde_json::Value::String((*v).to_string()),
                )
            })
            .collect(),
    ))
    .unwrap()
}

fn spawn_backends(n: usize) -> (Vec<ServerHandle>, Vec<(String, std::net::SocketAddr)>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|_| serve("127.0.0.1:0", ServeOptions::default()).unwrap())
        .collect();
    let addrs = handles
        .iter()
        .enumerate()
        .map(|(i, h)| (format!("shard-{i}"), h.local_addr()))
        .collect();
    (handles, addrs)
}

fn ingest_demo(router: std::net::SocketAddr) {
    let body = json_body(&[("name", "demo"), ("csv", &demo_csv())]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
}

/// Reads exactly one HTTP/1.1 response off a raw socket (head +
/// `Content-Length` body), returning `(status, head, body)`. Bytes of
/// a following pipelined response stay in `buf` for the next call.
fn read_raw_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String, Vec<u8>) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("response head");
        assert!(n > 0, "EOF before response head: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("response body");
        assert!(n > 0, "EOF mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let rest = buf.split_off(head_end + content_length);
    let body = buf[head_end..].to_vec();
    *buf = rest;
    (status, head, body)
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let router = fleet.local_addr();
    ingest_demo(router);

    // Three characterize requests written back-to-back without reading:
    // the reactor must answer all three, in order, on one socket.
    let query = json_body(&[("query", "key >= 150")]);
    let mut stream = TcpStream::connect(router).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut batch = Vec::new();
    for i in 0..3 {
        batch.extend_from_slice(
            format!(
                "POST /tables/demo/characterize HTTP/1.1\r\nX-Request-Id: pipeline-{i}\r\nContent-Length: {}\r\n\r\n{query}",
                query.len()
            )
            .as_bytes(),
        );
    }
    stream.write_all(&batch).unwrap();
    let mut leftover = Vec::new();
    let mut first_body = Vec::new();
    for i in 0..3 {
        let (status, head, body) = read_raw_response(&mut stream, &mut leftover);
        assert_eq!(status, 200, "response {i}: {head}");
        assert!(
            head.contains(&format!("X-Request-Id: pipeline-{i}")),
            "responses must come back in request order: {head}"
        );
        assert!(head.contains("X-Fleet-Epoch: "), "{head}");
        if i == 0 {
            first_body = body;
        } else {
            assert_eq!(body, first_body, "warm repeats must be byte-identical");
        }
    }

    // The connection is still usable afterwards (keep-alive held).
    stream
        .write_all(
            format!(
                "POST /tables/demo/characterize HTTP/1.1\r\nContent-Length: {}\r\n\r\n{query}",
                query.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, _, _) = read_raw_response(&mut stream, &mut leftover);
    assert_eq!(status, 200);

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn hot_and_control_routes_share_one_keepalive_connection() {
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let router = fleet.local_addr();
    ingest_demo(router);

    // Interleave offloaded control-plane routes and hot relays on the
    // same client connection.
    let query = json_body(&[("query", "key >= 150")]);
    let mut client = Client::connect(router).unwrap();
    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .request("POST", "/tables/demo/characterize", Some(&query))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, metrics) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{metrics}");

    // The JSON metrics document reports the split and the pools.
    let v = serde_json::from_str_value(&metrics).unwrap();
    let dp = v.get("dataplane").expect("dataplane section: {metrics}");
    assert!(dp.get("hot_requests_total").unwrap().as_u64().unwrap() >= 1);
    assert!(
        dp.get("offloaded_requests_total")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 2,
        "healthz and metrics offload: {metrics}"
    );
    assert!(
        dp.get("pool_fresh_connects_total")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    assert!(dp.get("loop_iterations").unwrap().as_u64().unwrap() >= 1);
    let pools = dp.get("pools").unwrap();
    let busy: u64 = ["shard-0", "shard-1"]
        .iter()
        .filter_map(|s| pools.get(s))
        .map(|g| {
            g.get("idle").unwrap().as_u64().unwrap() + g.get("in_flight").unwrap().as_u64().unwrap()
        })
        .sum();
    assert!(busy >= 1, "reactor keeps upstream conns pooled: {metrics}");
    // Per-shard threaded-pool counters ride the shard entries.
    let shards = v.get("shards").unwrap().as_array().unwrap();
    assert!(shards.iter().all(|s| s
        .get("pool")
        .and_then(|p| p.get("checkouts_total"))
        .is_some()));

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn hot_path_fails_over_and_assembles_traces() {
    let (mut backends, addrs) = spawn_backends(3);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            // Passive failure detection only: the reactor's relay must
            // mark the dead replica and fail over mid-request.
            probe_interval: Duration::from_secs(60),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();
    ingest_demo(router);

    // Find one holder of the table and kill it.
    let holder = backends
        .iter()
        .position(|b| {
            request_once(b.local_addr(), "GET", "/tables", None)
                .map(|(_, body)| body.contains("demo"))
                .unwrap_or(false)
        })
        .expect("a backend holds the table");
    backends.remove(holder).shutdown();

    // Every read must still succeed (failover to the live replica).
    let query = json_body(&[("query", "key >= 150")]);
    for i in 0..6 {
        let (status, _, body) = Client::connect(router)
            .unwrap()
            .request_with_headers(
                "POST",
                "/tables/demo/characterize",
                &[("X-Request-Id", &format!("failover-{i}"))],
                Some(&query),
            )
            .unwrap();
        assert_eq!(status, 200, "read {i}: {body}");
    }

    // The router's flight recorder assembled the trace: a fleet.request
    // root with at least one fleet.upstream child parented under it.
    let (status, trace) = request_once(router, "GET", "/debug/traces/failover-0", None).unwrap();
    assert_eq!(status, 200, "{trace}");
    let v = serde_json::from_str_value(&trace).unwrap();
    let spans = v.get("spans").unwrap().as_array().unwrap();
    let root = spans
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("fleet.request"))
        .expect("root span: {trace}");
    assert_eq!(root.get("parent_id"), Some(&serde_json::Value::Null));
    let root_id = root.get("span_id").unwrap().as_str().unwrap();
    assert!(
        spans.iter().any(|s| {
            s.get("name").unwrap().as_str() == Some("fleet.upstream")
                && s.get("parent_id").unwrap().as_str() == Some(root_id)
        }),
        "upstream leg parents under the root: {trace}"
    );

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn unknown_tables_404_through_the_relay() {
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let router = fleet.local_addr();
    let query = json_body(&[("query", "key >= 150")]);
    let (status, body) =
        request_once(router, "POST", "/tables/nosuch/characterize", Some(&query)).unwrap();
    assert_eq!(status, 404, "{body}");
    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn malformed_requests_get_400_then_close() {
    let (backends, addrs) = spawn_backends(1);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let mut stream = TcpStream::connect(fleet.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let (status, head, _) = read_raw_response(&mut stream, &mut Vec::new());
    assert_eq!(status, 400, "{head}");
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    let closed = stream
        .read_to_end(&mut rest)
        .map(|n| n == 0)
        .unwrap_or(true);
    assert!(closed, "connection must close after a 400");
    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn reactor_counters_appear_in_prometheus() {
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let router = fleet.local_addr();
    ingest_demo(router);
    let query = json_body(&[("query", "key >= 150")]);
    let (status, _) =
        request_once(router, "POST", "/tables/demo/characterize", Some(&query)).unwrap();
    assert_eq!(status, 200);
    let (status, text) = request_once(router, "GET", "/metrics?format=prometheus", None).unwrap();
    assert_eq!(status, 200);
    for family in [
        "ziggy_fleet_reactor_loop_iterations_total",
        "ziggy_fleet_reactor_hot_requests_total",
        "ziggy_fleet_reactor_offloaded_requests_total",
        "ziggy_fleet_reactor_pool_fresh_connects_total",
        "ziggy_fleet_backend_pool_checkouts_total",
    ] {
        assert!(text.contains(family), "missing {family}");
    }
    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A `POST /tables` and a `GET /tables` pipelined on one socket: the
/// listing must see the table, because requests on one connection run
/// in order. Checked against a lone server and through the router.
#[test]
fn pipelined_ingest_is_visible_to_the_listing_behind_it() {
    let mut csv = String::from("a,b,c\n");
    for i in 0..200_000u64 {
        csv.push_str(&format!("{},{},{}\n", i, (i * 7919) % 1009, i % 13));
    }
    let ingest = json_body(&[("name", "big"), ("csv", &csv)]);
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let direct = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    for addr in [direct.local_addr(), fleet.local_addr()] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut batch = format!(
            "POST /tables HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            ingest.len()
        )
        .into_bytes();
        batch.extend_from_slice(ingest.as_bytes());
        batch.extend_from_slice(b"GET /tables HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        stream.write_all(&batch).unwrap();
        let mut leftover = Vec::new();
        let (status, head, body) = read_raw_response(&mut stream, &mut leftover);
        assert_eq!(status, 201, "{addr}: {head}");
        let (status, _, body_list) = read_raw_response(&mut stream, &mut leftover);
        let listing = String::from_utf8(body_list).unwrap();
        assert_eq!(status, 200, "{addr}: {listing}");
        assert!(
            listing.contains("\"big\""),
            "{addr}: the listing ran before the ingest ahead of it: {listing} (ingest: {})",
            String::from_utf8_lossy(&body)
        );
    }
    direct.shutdown();
    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A characterize body that is not UTF-8 gets the same status and body
/// through the router as from a lone server: the relay forwards any
/// body and the backend answers it.
#[test]
fn non_utf8_characterize_body_matches_single_node() {
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let router = fleet.local_addr();
    ingest_demo(router);
    let direct = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    ingest_demo(direct.local_addr());
    let mut answers = Vec::new();
    for addr in [direct.local_addr(), router] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let body = [b'{', 0xff, 0xfe, b'}'];
        let mut raw = format!(
            "POST /tables/demo/characterize HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        stream.write_all(&raw).unwrap();
        let (status, _, body) = read_raw_response(&mut stream, &mut Vec::new());
        answers.push((status, String::from_utf8(body).unwrap()));
    }
    assert_eq!(answers[0].0, 400, "{answers:?}");
    assert!(answers[0].1.contains("not UTF-8"), "{answers:?}");
    assert_eq!(answers[0], answers[1], "router must answer like serve");
    direct.shutdown();
    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}
