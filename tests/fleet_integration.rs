//! Multi-process fleet integration: real `ziggy serve` child processes
//! (2 shards × 2 replicas = 4 backends, replication 2) behind an
//! in-process router, exercising the acceptance criteria end to end:
//!
//! 1. characterize reports through the router are byte-identical to a
//!    single-node serve (modulo wall-clock stage timings, zeroed the
//!    same way `serve_integration` does);
//! 2. requests keep succeeding after one replica *process* is killed;
//! 3. scatter-gather (`GET /tables`, `GET /metrics`) merges per-shard
//!    sections into one document;
//! 4. membership churn (a join and a drain mid-traffic) is invisible to
//!    clients, and the router keeps a warm-read throughput floor.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ziggy::core::{CharacterizationReport, StageTimings, Ziggy, ZiggyConfig};
use ziggy::fleet::{start_fleet, BackendProcess, FleetOptions};
use ziggy::serve::http::{request_once, Client};
use ziggy::store::csv::{read_csv_str, write_csv_string, CsvOptions};

/// The number of backend processes (2 shards × 2 replicas).
const BACKENDS: usize = 4;
const REPLICATION: usize = 2;

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

/// Serializes a report with timings zeroed — the canonical form for
/// byte-identity comparisons across processes.
fn canonical(report_json: &str) -> String {
    let mut report: CharacterizationReport =
        serde_json::from_str(report_json).expect("response must parse as a report");
    report.timings = StageTimings::default();
    serde_json::to_string(&report).unwrap()
}

#[test]
fn fleet_of_processes_matches_single_node_and_survives_a_kill() {
    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let query = twin.predicate.clone();

    // Single-node reference: the same CSV bytes through the same
    // reader, characterized in-process.
    let reference = {
        let table = read_csv_str(&csv, &CsvOptions::default()).unwrap();
        let engine = Ziggy::new(&table, ZiggyConfig::default());
        let mut r = engine.characterize(&query).unwrap();
        r.timings = StageTimings::default();
        serde_json::to_string(&r).unwrap()
    };

    // 4 real ziggy-serve processes.
    let (mut children, addrs) = spawn_backends(BACKENDS);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: REPLICATION,
            probe_interval: Duration::from_millis(100),
            // This test pins the *failover* semantics in isolation: a
            // dead replica stays lost (`replicas` drops to 1). The
            // self-healing path has its own chaos test below.
            repair_interval: None,
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    // One upload materializes the table on R backends.
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    let placed = serde_json::from_str_value(&resp)
        .unwrap()
        .get("placed")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(placed, REPLICATION as u64, "{resp}");

    // Which processes actually hold it?
    let holders: Vec<usize> = children
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            let (s, body) = request_once(c.addr(), "GET", "/tables", None).unwrap();
            assert_eq!(s, 200);
            body.contains("\"boxoffice\"")
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(holders.len(), REPLICATION);

    // Byte-identity through the router (and across both replicas, since
    // reads rotate).
    let query_body = json_body(&[("query", &query)]);
    for _ in 0..4 {
        let (status, via_router) = request_once(
            router,
            "POST",
            "/tables/boxoffice/characterize",
            Some(&query_body),
        )
        .unwrap();
        assert_eq!(status, 200, "{via_router}");
        assert_eq!(
            canonical(&via_router),
            reference,
            "router responses must be byte-identical to single-node serve"
        );
    }

    // Kill one replica *process*; traffic keeps flowing (failover may
    // retry, but the client only ever sees 200s).
    children[holders[0]].kill();
    assert!(!children[holders[0]].is_alive());
    let mut client = Client::connect(router).unwrap();
    for _ in 0..8 {
        let (status, body) = client
            .request("POST", "/tables/boxoffice/characterize", Some(&query_body))
            .unwrap();
        assert_eq!(status, 200, "must survive a dead replica: {body}");
        assert_eq!(canonical(&body), reference);
    }

    // The prober (or the passive failures above) reports the dead
    // process within a few intervals.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, health) = request_once(router, "GET", "/healthz", None).unwrap();
        let v = serde_json::from_str_value(&health).unwrap();
        let down = v
            .get("backends")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|b| b.get("healthy").unwrap().as_bool() == Some(false))
            .count();
        if down == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dead process never reported: {health}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Scatter-gather: /tables still lists the table once (now with one
    // live replica), /metrics aggregates one section per shard with the
    // dead one nulled out.
    let (status, listing) = request_once(router, "GET", "/tables", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str_value(&listing).unwrap();
    let tables = v.get("tables").unwrap().as_array().unwrap();
    assert_eq!(tables.len(), 1, "{listing}");
    assert_eq!(tables[0].get("name").unwrap().as_str(), Some("boxoffice"));
    assert_eq!(tables[0].get("replicas").unwrap().as_u64(), Some(1));

    let (status, metrics) = request_once(router, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str_value(&metrics).unwrap();
    let shards = v.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), BACKENDS, "{metrics}");
    let nulled = shards
        .iter()
        .filter(|s| s.get("metrics").unwrap().is_null())
        .count();
    assert_eq!(nulled, 1, "exactly the dead shard has no metrics");
    let live_chars: u64 = shards
        .iter()
        .filter_map(|s| {
            s.get("metrics")
                .unwrap()
                .get("requests")
                .and_then(|r| r.get("characterizations"))
                .and_then(|c| c.as_u64())
        })
        .sum();
    assert!(
        live_chars >= 8,
        "surviving replicas served the characterize traffic: {metrics}"
    );

    // Sessions ride the same processes: create, step twice, delete.
    let (status, created) = request_once(
        router,
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "boxoffice")])),
    )
    .unwrap();
    assert_eq!(status, 201, "{created}");
    let sid = serde_json::from_str_value(&created)
        .unwrap()
        .get("session_id")
        .unwrap()
        .as_u64()
        .unwrap();
    let step_path = format!("/sessions/{sid}/step");
    let (status, step1) = request_once(router, "POST", &step_path, Some(&query_body)).unwrap();
    assert_eq!(status, 200, "{step1}");
    assert!(step1.contains("\"diff\":null"), "{step1}");
    let (status, step2) = request_once(router, "POST", &step_path, Some(&query_body)).unwrap();
    assert_eq!(status, 200, "{step2}");
    assert!(step2.contains("\"step\":2"), "{step2}");
    let (status, _) = request_once(router, "DELETE", &format!("/sessions/{sid}"), None).unwrap();
    assert_eq!(status, 200);

    fleet.shutdown();
    // Children are killed on drop; make it explicit for the log.
    for mut c in children {
        c.kill();
    }
}

/// Chaos: kill a replica *process* under live traffic, and assert the
/// fleet self-heals — the repair loop restores `replicas` to R on every
/// affected table, clients see zero non-200 responses and byte-identical
/// reports throughout (wire bytes are timing-free, so even a freshly
/// repaired replica's build revalidates the old ETag with a 304), and
/// the supervisor's restart-with-rejoin brings the dead member back with
/// its shard re-ingested.
#[test]
fn chaos_kill_mid_traffic_repairs_and_rejoins() {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let query_body = json_body(&[("query", &twin.predicate)]);

    let (mut children, addrs) = spawn_backends(4);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: REPLICATION,
            probe_interval: Duration::from_millis(50),
            repair_interval: Some(Duration::from_millis(150)),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // Baseline bytes + validator. Deterministic across every replica
    // that will ever build this report, repaired copies included.
    let mut client = Client::connect(router).unwrap();
    let (status, headers, baseline) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{baseline}");
    let etag = headers
        .iter()
        .find(|(k, _)| k == "etag")
        .map(|(_, v)| v.clone())
        .expect("characterize must carry an ETag");

    let holders: Vec<usize> = children
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            let (s, body) = request_once(c.addr(), "GET", "/tables", None).unwrap();
            assert_eq!(s, 200);
            body.contains("\"boxoffice\"")
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(holders.len(), REPLICATION);

    // Traffic threads hammer the table while the victim dies.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let victim = holders[0];
    let bad: Vec<(u16, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut bad = Vec::new();
                    let mut client = Client::connect(router).unwrap();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let (status, body) = client
                            .request("POST", "/tables/boxoffice/characterize", Some(&query_body))
                            .unwrap();
                        if status != 200 || body != baseline {
                            bad.push((status, body));
                        }
                    }
                    bad
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        // SIGKILL mid-traffic.
        children[victim].kill();
        // Keep the load on until repair has had time to re-materialize.
        std::thread::sleep(Duration::from_millis(600));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(
        bad.is_empty(),
        "a dying replica must be invisible: {} bad responses, first: {:?}",
        bad.len(),
        bad.first()
    );

    // The repair loop restores R *live* replicas (the dead process's
    // copy no longer answers; a healthy backend received a new one).
    wait_for_replicas(
        router,
        "boxoffice",
        REPLICATION as u64,
        Duration::from_secs(20),
    );
    assert!(fleet.state().metrics.repairs_total.get() >= 1);

    // Byte identity and revalidation across the repaired copy: every
    // surviving read — wherever it routes — serves the baseline bytes,
    // and the pre-kill validator still answers 304.
    for _ in 0..4 {
        let (status, body) = client
            .request("POST", "/tables/boxoffice/characterize", Some(&query_body))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, baseline,
            "repaired replicas must serve identical bytes"
        );
        let (status, _, empty) = client
            .request_with_headers(
                "POST",
                "/tables/boxoffice/characterize",
                &[("If-None-Match", &etag)],
                Some(&query_body),
            )
            .unwrap();
        assert_eq!(status, 304, "{empty}");
    }

    // Supervisor restart-with-rejoin: the dead child respawns under its
    // old id, rejoins the ring (two epoch bumps), and repair re-ingests
    // its shard from the survivors.
    let epoch_before = fleet.state().epoch();
    let restarted = ziggy::fleet::restart_dead_children(binary, &mut children, fleet.state(), &[]);
    assert_eq!(restarted, vec![format!("shard-{victim}")]);
    assert_eq!(fleet.state().epoch(), epoch_before + 2);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let (s, body) = request_once(children[victim].addr(), "GET", "/tables", None).unwrap();
        if s == 200 && body.contains("\"boxoffice\"") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "repair never re-ingested the rejoined member's shard: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // And the rejoined member's own build answers the old validator.
    let (status, body) = client
        .request("POST", "/tables/boxoffice/characterize", Some(&query_body))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, baseline);

    fleet.shutdown();
    for mut c in children {
        c.kill();
    }
}

/// Polls the router's scatter-gathered listing until `table` reports at
/// least `want` live replicas, failing after `timeout`.
fn wait_for_replicas(router: SocketAddr, table: &str, want: u64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, listing) = request_once(router, "GET", "/tables", None).unwrap();
        assert_eq!(status, 200);
        let v = serde_json::from_str_value(&listing).unwrap();
        let replicas = v
            .get("tables")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|t| t.get("name").unwrap().as_str() == Some(table))
            .and_then(|t| t.get("replicas").unwrap().as_u64())
            .unwrap_or(0);
        if replicas >= want {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replication never converged: {listing}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Observability e2e: one `X-Request-Id` stitches the whole request
/// path. The router honors a caller-supplied id, echoes it on the
/// response, writes it on its own access-log line (with the backend it
/// proxied to), and the backend *process* writes the same id on its
/// line — asserted across real process boundaries via file log sinks.
#[test]
fn trace_id_spans_router_and_backend_processes() {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let dir = std::env::temp_dir().join(format!("ziggy-trace-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let backend_logs: Vec<std::path::PathBuf> = (0..2)
        .map(|i| dir.join(format!("backend-{i}.log")))
        .collect();
    let children: Vec<BackendProcess> = (0..2)
        .map(|i| {
            BackendProcess::spawn(
                binary,
                format!("shard-{i}"),
                &["--access-log-file", &backend_logs[i].to_string_lossy()],
            )
            .unwrap()
        })
        .collect();
    let addrs = children
        .iter()
        .map(|c| (c.id().to_string(), c.addr()))
        .collect();
    let router_log = dir.join("router.log");
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            access_log_path: Some(router_log.clone()),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // A client-supplied id must survive the proxy hop verbatim.
    let trace = "e2e-trace-0042";
    let query_body = json_body(&[("query", &twin.predicate)]);
    let mut client = Client::connect(router).unwrap();
    let (status, headers, resp_body) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[("X-Request-Id", trace)],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{resp_body}");
    let echoed = headers
        .iter()
        .find(|(k, _)| k == "x-request-id")
        .map(|(_, v)| v.as_str());
    assert_eq!(echoed, Some(trace), "response must echo the request id");

    // The router's log line for the characterize carries the id plus
    // the backend it proxied to...
    let router_line = wait_for_trace_line(&router_log, trace);
    assert_eq!(
        router_line.get("path").unwrap().as_str(),
        Some("/tables/boxoffice/characterize")
    );
    let backend_id = router_line
        .get("backend")
        .expect("router line names the backend")
        .as_str()
        .unwrap()
        .to_string();

    // ...and that backend process logged the same id on its own line.
    let shard_index: usize = backend_id.strip_prefix("shard-").unwrap().parse().unwrap();
    let backend_line = wait_for_trace_line(&backend_logs[shard_index], trace);
    assert_eq!(
        backend_line.get("path").unwrap().as_str(),
        Some("/tables/boxoffice/characterize")
    );
    assert_eq!(backend_line.get("status").unwrap().as_u64(), Some(200));

    // Without a caller-supplied id the router mints one (16 hex chars)
    // and the same stitching holds.
    let (status, headers, resp_body) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{resp_body}");
    let minted = headers
        .iter()
        .find(|(k, _)| k == "x-request-id")
        .map(|(_, v)| v.clone())
        .expect("router must mint an id when the caller sends none");
    assert_eq!(minted.len(), 16, "minted ids are 16 hex chars: {minted}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "{minted}");
    let minted_line = wait_for_trace_line(&router_log, &minted);
    let minted_backend = minted_line.get("backend").unwrap().as_str().unwrap();
    let shard_index: usize = minted_backend
        .strip_prefix("shard-")
        .unwrap()
        .parse()
        .unwrap();
    wait_for_trace_line(&backend_logs[shard_index], &minted);

    fleet.shutdown();
    for mut c in children {
        c.kill();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls `path` until a JSON access-log line with `trace_id` appears
/// (file sinks are unbuffered, but the write races the response).
fn wait_for_trace_line(path: &Path, trace: &str) -> serde_json::Value {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        for line in text.lines() {
            let Ok(v) = serde_json::from_str_value(line) else {
                panic!("unparseable access-log line in {path:?}: {line:?}");
            };
            if v.get("trace_id").and_then(serde_json::Value::as_str) == Some(trace) {
                return v;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no line with trace_id {trace:?} in {path:?}:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Span-tier e2e: one trace id yields a *fleet-assembled* tree — the
/// router's `fleet.request` root and `fleet.upstream` leg, plus the
/// backend process's `serve.request`/`serve.handler`/stage spans parented
/// under that leg via the propagated `X-Span-Context` header — all from
/// one `GET /debug/traces/{id}` on the router. Also pins the
/// `/debug/traces` listing schema and its filters.
#[test]
fn one_trace_id_assembles_router_and_backend_spans() {
    let (children, addrs) = spawn_backends(2);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let twin = ziggy::synth::box_office(7);
    let csv = write_csv_string(&twin.table, ',');
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // A cold characterize under a caller-chosen trace id.
    let trace = "span-e2e-0042";
    let query_body = json_body(&[("query", &twin.predicate)]);
    let mut client = Client::connect(router).unwrap();
    let (status, _, resp_body) = client
        .request_with_headers(
            "POST",
            "/tables/boxoffice/characterize",
            &[("X-Request-Id", trace)],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 200, "{resp_body}");

    // The fleet-assembled detail: local router spans + the backend's.
    let (status, detail) =
        request_once(router, "GET", &format!("/debug/traces/{trace}"), None).unwrap();
    assert_eq!(status, 200, "{detail}");
    let v = serde_json::from_str_value(&detail).unwrap();
    assert_eq!(v.get("trace_id").unwrap().as_str(), Some(trace));
    assert_eq!(v.get("root").unwrap().as_str(), Some("fleet.request"));
    assert_eq!(v.get("route").unwrap().as_str(), Some("characterize"));
    let spans = v.get("spans").unwrap().as_array().unwrap();
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some(name))
            .unwrap_or_else(|| panic!("no span `{name}` in the assembled trace: {detail}"))
    };
    // Every span carries the full schema.
    for s in spans {
        for key in [
            "span_id",
            "parent_id",
            "name",
            "start_unix_us",
            "duration_us",
            "error",
        ] {
            assert!(s.get(key).is_some(), "span missing `{key}`: {detail}");
        }
    }
    // Router half: the request root and its upstream leg.
    let root = find("fleet.request");
    assert!(root.get("parent_id").unwrap().is_null(), "{detail}");
    let root_id = root.get("span_id").unwrap().as_str().unwrap();
    let leg = find("fleet.upstream");
    assert_eq!(
        leg.get("parent_id").unwrap().as_str(),
        Some(root_id),
        "the upstream leg hangs off the request root: {detail}"
    );
    let leg_backend = leg
        .get("attrs")
        .unwrap()
        .get("backend")
        .expect("upstream leg names its backend")
        .as_str()
        .unwrap();
    let leg_id = leg.get("span_id").unwrap().as_str().unwrap();
    // Backend half, gathered across the process boundary and stamped
    // with the shard id: its root is a *child* of the router's leg,
    // which is exactly what X-Span-Context propagation buys.
    let serve_root = find("serve.request");
    assert_eq!(
        serve_root.get("parent_id").unwrap().as_str(),
        Some(leg_id),
        "the backend root must parent under the router's upstream leg: {detail}"
    );
    assert_eq!(
        serve_root.get("backend").unwrap().as_str(),
        Some(leg_backend),
        "gathered spans are stamped with their shard: {detail}"
    );
    // The cold build's full breakdown rode along.
    for name in [
        "serve.handler",
        "serve.characterize",
        "stage.prepare",
        "stage.view_search",
        "stage.post_process",
    ] {
        find(name);
    }

    // Listing schema + filters on the router.
    let (status, listing) =
        request_once(router, "GET", "/debug/traces?route=characterize", None).unwrap();
    assert_eq!(status, 200, "{listing}");
    let v = serde_json::from_str_value(&listing).unwrap();
    let traces = v.get("traces").unwrap().as_array().unwrap();
    assert!(
        traces
            .iter()
            .any(|t| t.get("trace_id").unwrap().as_str() == Some(trace)),
        "{listing}"
    );
    for t in traces {
        for key in [
            "trace_id",
            "root",
            "route",
            "start_unix_us",
            "duration_us",
            "error",
            "spans",
        ] {
            assert!(
                t.get(key).is_some(),
                "listing entry missing `{key}`: {listing}"
            );
        }
        // The listing form carries a span *count*, not the spans.
        assert!(t.get("spans").unwrap().as_u64().is_some(), "{listing}");
    }
    let (status, none) = request_once(router, "GET", "/debug/traces?route=sessions", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        serde_json::from_str_value(&none)
            .unwrap()
            .get("traces")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .all(|t| t.get("route").unwrap().as_str() == Some("sessions")),
        "{none}"
    );
    let (status, _) = request_once(router, "GET", "/debug/traces?min_ms=abc", None).unwrap();
    assert_eq!(status, 400, "non-integer min_ms must be refused");
    let (status, _) = request_once(router, "GET", "/debug/traces/nosuchtrace", None).unwrap();
    assert_eq!(status, 404, "an unknown trace 404s fleet-wide");

    fleet.shutdown();
    for mut c in children {
        c.kill();
    }
}

#[test]
fn replicated_ingest_is_idempotent_across_retries() {
    let (_children, addrs) = spawn_backends(2);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let csv = "x,y\n1,2\n3,4\n5,6\n7,8\n9,10\n11,12\n13,14\n15,16\n17,18\n19,20\n";
    let body = json_body(&[("name", "tiny"), ("csv", csv)]);
    // A client retrying its upload (timeout, crash, …) must converge,
    // not flap 409: the router re-frames ingest as the idempotent
    // replicate path.
    for round in 0..3 {
        let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
        assert_eq!(status, 201, "round {round}: {resp}");
        assert_eq!(
            serde_json::from_str_value(&resp)
                .unwrap()
                .get("placed")
                .unwrap()
                .as_u64(),
            Some(2),
            "round {round}: {resp}"
        );
    }
    // Different content under the same name is still refused.
    let conflicting = json_body(&[("name", "tiny"), ("csv", "x,y\n9,9\n8,8\n7,7\n")]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&conflicting)).unwrap();
    assert_eq!(status, 409, "{resp}");

    fleet.shutdown();
}

/// Spawns `n` `ziggy serve` processes with ids `shard-0..n`, returning
/// them with their `(id, addr)` membership list.
fn spawn_backends(n: usize) -> (Vec<BackendProcess>, Vec<(String, SocketAddr)>) {
    let binary = Path::new(env!("CARGO_BIN_EXE_ziggy"));
    let children: Vec<BackendProcess> = (0..n)
        .map(|i| BackendProcess::spawn(binary, format!("shard-{i}"), &[]).unwrap())
        .collect();
    let addrs = children
        .iter()
        .map(|c| (c.id().to_string(), c.addr()))
        .collect();
    (children, addrs)
}

/// The crime twin (1994×128) as a `POST /tables` body named `crime`,
/// plus the body of its suggested characterize query.
fn crime_bodies() -> (String, String) {
    let twin = ziggy::synth::us_crime(7);
    let csv = write_csv_string(&twin.table, ',');
    (
        json_body(&[("name", "crime"), ("csv", &csv)]),
        json_body(&[("query", &twin.predicate)]),
    )
}

/// Membership churn is invisible to clients: with live traffic from 4
/// clients over 2 backends (R = 2), a spare backend joins the ring
/// (`POST /admin/backends`) and then an original holder is drained out
/// (`DELETE /admin/backends/{id}`). Every response must be a 200 (a
/// rate-limit 429 would be client pushback, not a failure), and the
/// repair loop must restore R live replicas among the post-churn
/// members within 30 s.
#[test]
fn membership_churn_mid_traffic_fails_no_request_and_converges() {
    let (_children, mut addrs) = spawn_backends(3);
    let (spare_id, spare_addr) = addrs.pop().unwrap();
    let replication = 2;
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs.clone(),
        FleetOptions {
            replication,
            probe_interval: Duration::from_millis(100),
            repair_interval: Some(Duration::from_millis(150)),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let (ingest_body, query_body) = crime_bodies();
    let (status, resp) = request_once(router, "POST", "/tables", Some(&ingest_body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    // The churn drains a member that holds the table.
    let holder = addrs
        .iter()
        .find(|(_, addr)| {
            let (s, listing) = request_once(*addr, "GET", "/tables", None).unwrap();
            s == 200 && listing.contains("\"crime\"")
        })
        .expect("a member holds the table")
        .0
        .clone();

    let spare_join = json_body(&[("id", &spare_id), ("addr", &spare_addr.to_string())]);
    let stop = AtomicBool::new(false);
    let (requests, failed) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let (mut requests, mut failed) = (0usize, Vec::new());
                    let mut client = Client::connect(router).unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        let (status, body) = client
                            .request("POST", "/tables/crime/characterize", Some(&query_body))
                            .unwrap();
                        requests += 1;
                        if status != 200 && status != 429 {
                            failed.push((status, body));
                        }
                    }
                    (requests, failed)
                })
            })
            .collect();
        // Mid-traffic: grow the ring, then drain a holder out of it.
        std::thread::sleep(Duration::from_millis(200));
        let (status, resp) =
            request_once(router, "POST", "/admin/backends", Some(&spare_join)).unwrap();
        assert_eq!(status, 201, "join mid-traffic: {resp}");
        std::thread::sleep(Duration::from_millis(400));
        let (status, resp) =
            request_once(router, "DELETE", &format!("/admin/backends/{holder}"), None).unwrap();
        assert_eq!(status, 200, "drain mid-traffic: {resp}");
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        let (mut requests, mut failed) = (0, Vec::new());
        for w in workers {
            let (r, f) = w.join().unwrap();
            requests += r;
            failed.extend(f);
        }
        (requests, failed)
    });
    assert!(
        failed.is_empty(),
        "membership churn must be invisible to clients: {}/{requests} failed, first: {:?}",
        failed.len(),
        failed.first()
    );

    // Convergence: the repair loop restores R live replicas.
    wait_for_replicas(router, "crime", replication as u64, Duration::from_secs(30));

    fleet.shutdown();
}

/// A router-throughput floor: the crime twin fully replicated over sets
/// of 1 and 2 backend processes, 4 clients × 4 warm characterize
/// requests each, and the best set must reach 300 req/s. The floor is
/// deliberately conservative (shared CI hosts, a tiny request count,
/// debug builds reach it more than tenfold): it exists to catch a
/// regression back to a blocking data plane or a Nagle-delayed hop,
/// both of which land orders of magnitude below it, not to benchmark
/// the runner.
#[test]
fn router_sustains_a_warm_throughput_floor() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 4;
    const MIN_RPS: f64 = 300.0;
    let (ingest_body, query_body) = crime_bodies();
    let rates: Vec<f64> = [1, 2]
        .into_iter()
        .map(|n| {
            let (_children, addrs) = spawn_backends(n);
            let fleet = start_fleet(
                "127.0.0.1:0",
                addrs,
                FleetOptions {
                    // Full replication: every backend serves the table.
                    replication: n,
                    probe_interval: Duration::from_millis(500),
                    ..FleetOptions::default()
                },
            )
            .unwrap();
            let router = fleet.local_addr();
            let (status, resp) =
                request_once(router, "POST", "/tables", Some(&ingest_body)).unwrap();
            assert_eq!(status, 201, "{resp}");
            // Reads rotate over the replicas, so 2N requests warm each
            // backend's caches off the clock.
            let mut warm = Client::connect(router).unwrap();
            for _ in 0..2 * n {
                let (status, body) = warm
                    .request("POST", "/tables/crime/characterize", Some(&query_body))
                    .unwrap();
                assert_eq!(status, 200, "{body}");
            }
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..CLIENTS {
                    s.spawn(|| {
                        let mut client = Client::connect(router).unwrap();
                        for _ in 0..REQUESTS_PER_CLIENT {
                            let (status, body) = client
                                .request("POST", "/tables/crime/characterize", Some(&query_body))
                                .unwrap();
                            assert_eq!(status, 200, "{body}");
                        }
                    });
                }
            });
            let rps = (CLIENTS * REQUESTS_PER_CLIENT) as f64 / t.elapsed().as_secs_f64();
            fleet.shutdown();
            rps
        })
        .collect();
    let best = rates.iter().copied().fold(0.0, f64::max);
    assert!(
        best >= MIN_RPS,
        "router warm throughput {best:.1} req/s (per set {rates:?}) is below {MIN_RPS} req/s"
    );
}
