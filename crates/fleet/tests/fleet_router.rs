//! In-process fleet tests: real TCP between router and backends, but
//! backends as in-process servers so the suite stays fast. The
//! multi-process supervision path is covered by the workspace-level
//! `tests/fleet_integration.rs`.

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

#[test]
fn ingest_replicates_and_reads_fail_over() {
    let (mut backends, addrs) = spawn_backends(3);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            // Deliberately glacial: this test exercises the *passive*
            // failure path (transport errors during real traffic mark
            // the backend and retry the next replica). Active probing
            // has its own unit test.
            probe_interval: Duration::from_secs(60),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    // Ingest through the router: placed on exactly R=2 backends.
    let body = json_body(&[("name", "demo"), ("csv", &demo_csv())]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    let v = serde_json::from_str_value(&resp).unwrap();
    assert_eq!(v.get("placed").unwrap().as_u64(), Some(2), "{resp}");
    assert_eq!(v.get("n_rows").unwrap().as_u64(), Some(200), "{resp}");

    // The backends really hold it: exactly 2 of the 3 list the table.
    let holders: Vec<usize> = backends
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            let (s, body) = request_once(b.local_addr(), "GET", "/tables", None).unwrap();
            assert_eq!(s, 200);
            body.contains("\"demo\"")
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(holders.len(), 2, "replication factor must be honored");

    // Scatter-gather listing dedups replicas into one entry.
    let (status, listing) = request_once(router, "GET", "/tables", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str_value(&listing).unwrap();
    let tables = v.get("tables").unwrap().as_array().unwrap();
    assert_eq!(tables.len(), 1, "{listing}");
    assert_eq!(tables[0].get("replicas").unwrap().as_u64(), Some(2));

    // Characterize through the router; responses must be byte-identical
    // to asking a holding backend directly.
    let query_body = json_body(&[("query", "key >= 150")]);
    let (status, via_router) = request_once(
        router,
        "POST",
        "/tables/demo/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{via_router}");
    let (_, direct) = request_once(
        backends[holders[0]].local_addr(),
        "POST",
        "/tables/demo/characterize",
        Some(&query_body),
    )
    .unwrap();
    let zero_timings = |s: &str| {
        let mut r: ziggy_core::CharacterizationReport = serde_json::from_str(s).unwrap();
        r.timings = ziggy_core::StageTimings::default();
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(zero_timings(&via_router), zero_timings(&direct));

    // Kill one replica; reads keep succeeding through failover.
    let victim = holders[0];
    backends.remove(victim).shutdown();
    let mut client = Client::connect(router).unwrap();
    for _ in 0..6 {
        let (status, body) = client
            .request("POST", "/tables/demo/characterize", Some(&query_body))
            .unwrap();
        assert_eq!(status, 200, "failover must hide a dead replica: {body}");
        assert_eq!(zero_timings(&body), zero_timings(&direct));
    }
    // Passive health: the transport failures observed while failing
    // over marked the victim unhealthy without any probe's help.
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
    assert_eq!(down, 1, "proxy failures must mark the backend: {health}");

    let failovers = fleet.state().metrics.failovers_total.get();
    assert!(failovers > 0, "failover counter must move");
    fleet.shutdown();
}

#[test]
fn sessions_are_sticky_and_survive_other_replicas_dying() {
    let (mut backends, addrs) = spawn_backends(3);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 3,
            probe_interval: Duration::from_millis(50),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let body = json_body(&[("name", "t"), ("csv", &demo_csv())]);
    let (status, _) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201);

    let (status, created) = request_once(
        router,
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "t")])),
    )
    .unwrap();
    assert_eq!(status, 201, "{created}");
    let v = serde_json::from_str_value(&created).unwrap();
    let sid = v.get("session_id").unwrap().as_u64().unwrap();
    let home = v.get("backend").unwrap().as_str().unwrap().to_string();

    let step_body = json_body(&[("query", "key >= 150")]);
    let step_path = format!("/sessions/{sid}/step");
    let (status, step1) = request_once(router, "POST", &step_path, Some(&step_body)).unwrap();
    assert_eq!(status, 200, "{step1}");
    assert!(step1.contains("\"step\":1"), "{step1}");

    // Kill a *different* replica: the sticky session keeps stepping.
    let victim = backends
        .iter()
        .position(|b| {
            let idx = home
                .strip_prefix("shard-")
                .unwrap()
                .parse::<usize>()
                .unwrap();
            b.local_addr() != fleet.state().backends()[idx].addr()
        })
        .unwrap();
    backends.remove(victim).shutdown();
    let (status, step2) = request_once(router, "POST", &step_path, Some(&step_body)).unwrap();
    assert_eq!(status, 200, "{step2}");
    assert!(step2.contains("\"step\":2"), "{step2}");

    // Kill the session's home backend: the router replays the query
    // ledger onto the surviving replica and the interrupted step
    // succeeds *there* — same step counter, failover header set.
    let home_idx = home
        .strip_prefix("shard-")
        .unwrap()
        .parse::<usize>()
        .unwrap();
    let home_addr = fleet.state().backends()[home_idx].addr();
    let victim = backends
        .iter()
        .position(|b| b.local_addr() == home_addr)
        .unwrap();
    backends.remove(victim).shutdown();
    let mut client = Client::connect(router).unwrap();
    let (status, headers, step3) = client
        .request_with_headers("POST", &step_path, &[], Some(&step_body))
        .unwrap();
    assert_eq!(status, 200, "{step3}");
    assert!(step3.contains("\"step\":3"), "{step3}");
    let new_home = headers
        .iter()
        .find(|(k, _)| k == "x-fleet-session-failover")
        .map(|(_, v)| v.clone())
        .expect("failed-over step must carry X-Fleet-Session-Failover");
    assert_ne!(new_home, home);
    assert_eq!(fleet.state().metrics.session_failovers_total.get(), 1);
    // The mapping is re-pointed: the next step runs on the new home
    // without another failover.
    let (status, headers, step4) = client
        .request_with_headers("POST", &step_path, &[], Some(&step_body))
        .unwrap();
    assert_eq!(status, 200, "{step4}");
    assert!(step4.contains("\"step\":4"), "{step4}");
    assert!(!headers.iter().any(|(k, _)| k == "x-fleet-session-failover"));
    assert_eq!(fleet.state().metrics.session_failovers_total.get(), 1);

    // Kill the last replica too: now the session is *genuinely*
    // unrecoverable, and the 503 says exactly why.
    backends.remove(0).shutdown();
    assert!(backends.is_empty());
    let (status, dead_step) = request_once(router, "POST", &step_path, Some(&step_body)).unwrap();
    assert_eq!(status, 503, "{dead_step}");
    assert!(dead_step.contains("unrecoverable"), "{dead_step}");
    fleet.shutdown();
}

/// The `diff` member of a step response, re-rendered.
fn diff_of(step: &str) -> String {
    let v = serde_json::from_str_value(step).unwrap();
    serde_json::to_string(v.get("diff").unwrap()).unwrap()
}

#[test]
fn long_sessions_fail_over_at_their_own_step_without_replays() {
    let (mut backends, addrs) = spawn_backends(2);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            probe_interval: Duration::from_millis(50),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();
    let body = json_body(&[("name", "t"), ("csv", &demo_csv())]);
    let (status, _) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201);
    let (status, created) = request_once(
        router,
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "t")])),
    )
    .unwrap();
    assert_eq!(status, 201, "{created}");
    let v = serde_json::from_str_value(&created).unwrap();
    let sid = v.get("session_id").unwrap().as_u64().unwrap();
    let home = v.get("backend").unwrap().as_str().unwrap().to_string();

    // 70 steps of one query: every step after the first is a
    // report-cache hit, so the long session stays cheap.
    let step_body = json_body(&[("query", "key >= 150")]);
    let step_path = format!("/sessions/{sid}/step");
    let mut client = Client::connect(router).unwrap();
    let mut step70 = String::new();
    for step in 1..=70 {
        let (status, resp) = client
            .request("POST", &step_path, Some(&step_body))
            .unwrap();
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains(&format!("\"step\":{step},")), "{resp}");
        step70 = resp;
    }

    let addr_of = |id: &str| {
        let idx: usize = id.strip_prefix("shard-").unwrap().parse().unwrap();
        fleet.state().backends()[idx].addr()
    };
    let home_addr = addr_of(&home);
    let victim = backends
        .iter()
        .position(|b| b.local_addr() == home_addr)
        .unwrap();
    backends.remove(victim).shutdown();

    let (status, headers, step71) = client
        .request_with_headers("POST", &step_path, &[], Some(&step_body))
        .unwrap();
    assert_eq!(status, 200, "{step71}");
    assert!(step71.contains("\"step\":71,"), "{step71}");
    assert_eq!(
        diff_of(&step71),
        diff_of(&step70),
        "the diff survives failover"
    );
    let new_home = headers
        .iter()
        .find(|(k, _)| k == "x-fleet-session-failover")
        .map(|(_, v)| v.clone())
        .expect("failed-over step must carry X-Fleet-Session-Failover");
    assert_ne!(new_home, home);

    // Only the interrupted step ran on the new home: no replays.
    let (status, metrics) = request_once(addr_of(&new_home), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str_value(&metrics).unwrap();
    let steps = v.get("requests").unwrap().get("session_steps").unwrap();
    assert_eq!(steps.as_u64(), Some(1), "{metrics}");

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn metrics_scatter_gather_and_router_edge_limits() {
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 1,
            rate_limit: Some(3),
            probe_interval: Duration::from_millis(100),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    // /metrics aggregates one section per shard.
    let mut client = Client::connect(router).unwrap();
    let (status, metrics) = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str_value(&metrics).unwrap();
    let shards = v.get("shards").unwrap().as_array().unwrap();
    assert_eq!(shards.len(), 2, "{metrics}");
    for shard in shards {
        assert!(shard.get("metrics").unwrap().get("requests").is_some());
        assert_eq!(shard.get("healthy").unwrap().as_bool(), Some(true));
    }
    assert!(v.get("router").unwrap().get("requests_total").is_some());

    // The router edge throttles like a single node; /healthz is exempt.
    let mut saw_429 = false;
    for _ in 0..10 {
        let (status, _) = client.request("GET", "/tables", None).unwrap();
        if status == 429 {
            saw_429 = true;
            break;
        }
    }
    assert!(saw_429, "router edge must rate limit");
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(fleet.state().metrics.rate_limited.get() >= 1);

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn admin_membership_lifecycle() {
    // Fast repair/probe so the test observes self-healing promptly.
    let (backends, addrs) = spawn_backends(3);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            probe_interval: Duration::from_millis(50),
            repair_interval: Some(Duration::from_millis(75)),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    // Initial membership is epoch 1 and is reported on every response.
    let mut client = Client::connect(router).unwrap();
    let (status, headers, listing) = client
        .request_with_headers("GET", "/admin/backends", &[], None)
        .unwrap();
    assert_eq!(status, 200, "{listing}");
    let v = serde_json::from_str_value(&listing).unwrap();
    assert_eq!(v.get("epoch").unwrap().as_u64(), Some(1), "{listing}");
    assert_eq!(
        v.get("backends").unwrap().as_array().unwrap().len(),
        3,
        "{listing}"
    );
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "x-fleet-epoch" && v == "1"),
        "every response must carry the epoch: {headers:?}"
    );

    // Ingest a table on R=2 of the 3 members.
    let body = json_body(&[("name", "demo"), ("csv", &demo_csv())]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // Find a holder and remove it from the membership. This is a drain,
    // not a kill: the process stays up, only routing changes.
    let holder = backends
        .iter()
        .position(|b| {
            let (_, listing) = request_once(b.local_addr(), "GET", "/tables", None).unwrap();
            listing.contains("\"demo\"")
        })
        .expect("someone holds the table");
    let holder_id = format!("shard-{holder}");
    let (status, resp) = request_once(
        router,
        "DELETE",
        &format!("/admin/backends/{holder_id}"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = serde_json::from_str_value(&resp).unwrap();
    assert_eq!(v.get("epoch").unwrap().as_u64(), Some(2), "{resp}");

    // Reads keep working off the surviving replica, and the repair loop
    // restores R=2 live copies on the remaining members.
    let query_body = json_body(&[("query", "key >= 150")]);
    let (status, body_after) = request_once(
        router,
        "POST",
        "/tables/demo/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{body_after}");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, listing) = request_once(router, "GET", "/tables", None).unwrap();
        let v = serde_json::from_str_value(&listing).unwrap();
        let replicas = v.get("tables").unwrap().as_array().unwrap()[0]
            .get("replicas")
            .unwrap()
            .as_u64()
            .unwrap();
        if replicas >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "repair never restored replication: {listing}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(
        fleet.state().metrics.repairs_total.get() >= 1,
        "the repair counter must move"
    );

    // Rejoin: the drained backend re-enters under its old id (its copy
    // is intact, CSV-fingerprint matched — over-replication is
    // harmless).
    let rejoin_body = json_body(&[
        ("id", holder_id.as_str()),
        ("addr", &backends[holder].local_addr().to_string()),
    ]);
    let (status, headers, resp) = client
        .request_with_headers("POST", "/admin/backends", &[], Some(&rejoin_body))
        .unwrap();
    assert_eq!(status, 201, "{resp}");
    let v = serde_json::from_str_value(&resp).unwrap();
    assert_eq!(v.get("epoch").unwrap().as_u64(), Some(3), "{resp}");
    // A successful admin mutation reports its *post-change* epoch in the
    // header (not the pre-change view it was routed under).
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "x-fleet-epoch" && v == "3"),
        "admin responses must carry the new epoch: {headers:?}"
    );
    let (_, health) = request_once(router, "GET", "/healthz", None).unwrap();
    let v = serde_json::from_str_value(&health).unwrap();
    assert_eq!(
        v.get("backends").unwrap().as_array().unwrap().len(),
        3,
        "{health}"
    );

    // Validation: duplicate id, hostile id, bad addr, unknown removal.
    for (body, want) in [
        (
            json_body(&[("id", "shard-0"), ("addr", "127.0.0.1:1")]),
            409,
        ),
        (
            json_body(&[("id", "has space"), ("addr", "127.0.0.1:1")]),
            400,
        ),
        (json_body(&[("id", "fresh"), ("addr", "not-an-addr")]), 400),
        (json_body(&[("id", "fresh")]), 400),
    ] {
        let (status, resp) = request_once(router, "POST", "/admin/backends", Some(&body)).unwrap();
        assert_eq!(status, want, "{body} -> {resp}");
    }
    let (status, _) = request_once(router, "DELETE", "/admin/backends/nobody", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = request_once(router, "PUT", "/admin/backends", None).unwrap();
    assert_eq!(status, 405);

    fleet.shutdown();
    backends.into_iter().for_each(|b| b.shutdown());
}

#[test]
fn removal_and_rejoin_under_load_sees_zero_5xx() {
    // The acceptance criterion: an in-flight workload survives
    // `DELETE /admin/backends/{id}` followed by a rejoin with zero 5xx
    // responses, and the table converges back to R live replicas.
    let (backends, addrs) = spawn_backends(3);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            probe_interval: Duration::from_millis(50),
            repair_interval: Some(Duration::from_millis(75)),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();
    let body = json_body(&[("name", "demo"), ("csv", &demo_csv())]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    let holder = backends
        .iter()
        .position(|b| {
            let (_, listing) = request_once(b.local_addr(), "GET", "/tables", None).unwrap();
            listing.contains("\"demo\"")
        })
        .unwrap();
    let holder_id = format!("shard-{holder}");
    let holder_addr = backends[holder].local_addr().to_string();

    // Reference bytes: deterministic across replicas (timings are out of
    // the wire form), so every response during churn must equal them.
    let query_body = json_body(&[("query", "key >= 150")]);
    let (_, reference) = request_once(
        router,
        "POST",
        "/tables/demo/characterize",
        Some(&query_body),
    )
    .unwrap();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let bad: Vec<(u16, String)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    let mut bad = Vec::new();
                    let mut client = Client::connect(router).unwrap();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let (status, body) = client
                            .request("POST", "/tables/demo/characterize", Some(&query_body))
                            .unwrap();
                        if status != 200 || body != reference {
                            bad.push((status, body));
                        }
                    }
                    bad
                })
            })
            .collect();
        // Mid-traffic: drain the holder, give repair a beat, rejoin it.
        std::thread::sleep(Duration::from_millis(100));
        let (status, resp) = request_once(
            router,
            "DELETE",
            &format!("/admin/backends/{holder_id}"),
            None,
        )
        .unwrap();
        assert_eq!(status, 200, "{resp}");
        std::thread::sleep(Duration::from_millis(300));
        let rejoin = json_body(&[("id", holder_id.as_str()), ("addr", &holder_addr)]);
        let (status, resp) =
            request_once(router, "POST", "/admin/backends", Some(&rejoin)).unwrap();
        assert_eq!(status, 201, "{resp}");
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(
        bad.is_empty(),
        "churn must be invisible to clients; saw {} bad responses, first: {:?}",
        bad.len(),
        bad.first()
    );

    // Convergence: the table ends with at least R live replicas.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, listing) = request_once(router, "GET", "/tables", None).unwrap();
        let v = serde_json::from_str_value(&listing).unwrap();
        let replicas = v.get("tables").unwrap().as_array().unwrap()[0]
            .get("replicas")
            .unwrap()
            .as_u64()
            .unwrap();
        if replicas >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replication never converged: {listing}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    fleet.shutdown();
    backends.into_iter().for_each(|b| b.shutdown());
}

#[test]
fn delete_sweeps_stranded_copies_so_repair_cannot_resurrect() {
    // Membership churn can strand a table copy on a member outside the
    // table's nominal replica set. DELETE must sweep *every member* —
    // a stranded survivor would be a live "holder" the repair loop
    // faithfully re-materializes from, resurrecting the deleted table.
    let (backends, addrs) = spawn_backends(3);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            probe_interval: Duration::from_millis(50),
            repair_interval: Some(Duration::from_millis(75)),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();
    let csv = demo_csv();
    let body = json_body(&[("name", "demo"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // Simulate the stranded copy: replicate the table directly onto the
    // member that is NOT in the nominal set.
    let outsider = backends
        .iter()
        .position(|b| {
            let (_, listing) = request_once(b.local_addr(), "GET", "/tables", None).unwrap();
            !listing.contains("\"demo\"")
        })
        .expect("R=2 of 3 leaves one non-holder");
    let put_body = json_body(&[("csv", &csv)]);
    let (status, resp) = request_once(
        backends[outsider].local_addr(),
        "PUT",
        "/tables/demo",
        Some(&put_body),
    )
    .unwrap();
    assert_eq!(status, 201, "{resp}");

    // Delete through the router: the sweep must reach the outsider too.
    let (status, resp) = request_once(router, "DELETE", "/tables/demo", None).unwrap();
    assert_eq!(status, 200, "{resp}");
    let (_, listing) =
        request_once(backends[outsider].local_addr(), "GET", "/tables", None).unwrap();
    assert_eq!(
        listing, r#"{"tables":[]}"#,
        "the stranded copy must be swept"
    );

    // And the table stays dead across several repair rounds.
    std::thread::sleep(Duration::from_millis(300));
    let (_, listing) = request_once(router, "GET", "/tables", None).unwrap();
    assert_eq!(
        listing, r#"{"tables":[]}"#,
        "repair must not resurrect a deleted table"
    );
    assert_eq!(fleet.state().metrics.repairs_total.get(), 0);

    fleet.shutdown();
    backends.into_iter().for_each(|b| b.shutdown());
}

#[test]
fn etag_revalidates_across_replica_rotation() {
    // Two backends, R=2: reads rotate, so consecutive requests land on
    // *different* replicas, each having built its own copy of the
    // report. The wire bytes are timing-free, so both builds fingerprint
    // identically and every conditional repeat must be answered 304 —
    // the PR 4 caveat (rotation re-transferred a 200) is closed.
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            probe_interval: Duration::from_millis(100),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();
    let body = json_body(&[("name", "demo"), ("csv", &demo_csv())]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // Warm both replicas (rotation alternates) and pin byte identity
    // across them.
    let query = json_body(&[("query", "key >= 150")]);
    let mut client = Client::connect(router).unwrap();
    let mut first_etag: Option<String> = None;
    for round in 0..4 {
        let (status, headers, body) = client
            .request_with_headers("POST", "/tables/demo/characterize", &[], Some(&query))
            .unwrap();
        assert_eq!(status, 200, "round {round}: {body}");
        let etag = headers
            .iter()
            .find(|(k, _)| k == "etag")
            .map(|(_, v)| v.clone())
            .expect("characterize must carry an ETag");
        match &first_etag {
            None => first_etag = Some(etag),
            Some(expected) => assert_eq!(
                &etag, expected,
                "round {round}: replicas must agree on the validator"
            ),
        }
    }
    let etag = first_etag.unwrap();

    // Every conditional repeat is a 304, whichever replica rotation
    // picks — and still after a failover (kill one replica).
    for round in 0..4 {
        let (status, _, empty) = client
            .request_with_headers(
                "POST",
                "/tables/demo/characterize",
                &[("If-None-Match", &etag)],
                Some(&query),
            )
            .unwrap();
        assert_eq!(status, 304, "round {round}: {empty}");
        assert!(empty.is_empty());
    }
    let mut backends = backends;
    backends.remove(0).shutdown();
    for round in 0..3 {
        let (status, _, empty) = client
            .request_with_headers(
                "POST",
                "/tables/demo/characterize",
                &[("If-None-Match", &etag)],
                Some(&query),
            )
            .unwrap();
        assert_eq!(status, 304, "post-failover round {round}: {empty}");
    }

    fleet.shutdown();
    backends.into_iter().for_each(|b| b.shutdown());
}

#[test]
fn etag_revalidation_passes_through_the_router() {
    // Replication 1 over two backends: the table lives on exactly one
    // replica, so every read routes there; this pins the ETag relay
    // through the proxy hop (the R > 1 rotation case is
    // `etag_revalidates_across_replica_rotation`).
    let (backends, addrs) = spawn_backends(2);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 1,
            probe_interval: Duration::from_millis(100),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let body = json_body(&[("name", "demo"), ("csv", &demo_csv())]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // First characterize: full body plus an ETag relayed from the
    // backend.
    let query = json_body(&[("query", "key >= 150")]);
    let mut client = Client::connect(router).unwrap();
    let (status, headers, first) = client
        .request_with_headers("POST", "/tables/demo/characterize", &[], Some(&query))
        .unwrap();
    assert_eq!(status, 200, "{first}");
    let etag = headers
        .iter()
        .find(|(k, _)| k == "etag")
        .map(|(_, v)| v.clone())
        .expect("router must relay the backend ETag");

    // Conditional repeat: 304 through both hops, no body on either.
    let (status, headers, empty) = client
        .request_with_headers(
            "POST",
            "/tables/demo/characterize",
            &[("If-None-Match", &etag)],
            Some(&query),
        )
        .unwrap();
    assert_eq!(status, 304, "{empty}");
    assert!(empty.is_empty());
    assert!(headers.iter().any(|(k, v)| k == "etag" && *v == etag));

    // A stale validator still gets the full (byte-identical) report.
    let (status, _, full) = client
        .request_with_headers(
            "POST",
            "/tables/demo/characterize",
            &[("If-None-Match", "\"0000000000000000\"")],
            Some(&query),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(full, first, "warm repeats must be byte-identical");

    // The scatter-gathered /metrics picks up the per-table `reports`
    // section from whichever shard holds the table.
    let (status, metrics) = request_once(router, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str_value(&metrics).unwrap();
    let report_hits: u64 = v
        .get("shards")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|s| s.get("metrics")?.get("tables")?.as_array())
        .flatten()
        .filter_map(|t| t.get("reports")?.get("hits")?.as_u64())
        .sum();
    assert!(
        report_hits >= 2,
        "both repeats must be report-cache hits: {metrics}"
    );

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn hostile_table_names_are_rejected_at_the_router() {
    let (backends, addrs) = spawn_backends(1);
    let fleet = start_fleet("127.0.0.1:0", addrs, FleetOptions::default()).unwrap();
    let router = fleet.local_addr();
    // A body-supplied name reaches proxied request lines; CRLF or
    // whitespace there would corrupt (or smuggle a request onto) the
    // pooled backend connection, so the router must refuse it outright.
    for hostile in [
        "x HTTP/1.1\r\nContent-Length: 0\r\n\r\nDELETE /tables/y",
        "has space",
        "new\nline",
        "",
        "way-too-long-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    ] {
        let body = json_body(&[("name", hostile), ("csv", "a,b\n1,2\n")]);
        let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
        assert_eq!(status, 400, "{hostile:?} -> {resp}");
    }
    // Nothing leaked through to the backend.
    let (_, listing) = request_once(backends[0].local_addr(), "GET", "/tables", None).unwrap();
    assert_eq!(listing, r#"{"tables":[]}"#);
    fleet.shutdown();
    backends.into_iter().for_each(|b| b.shutdown());
}

#[test]
fn stale_fleet_session_mappings_are_swept() {
    let (backends, addrs) = spawn_backends(1);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 1,
            session_ttl: Some(Duration::from_millis(40)),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();
    let body = json_body(&[("name", "t"), ("csv", &demo_csv())]);
    let (status, _) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201);

    let (status, created) = request_once(
        router,
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "t")])),
    )
    .unwrap();
    assert_eq!(status, 201, "{created}");
    let sid = serde_json::from_str_value(&created)
        .unwrap()
        .get("session_id")
        .unwrap()
        .as_u64()
        .unwrap();

    // Abandon the session past the TTL: the next session op sweeps the
    // stale router mapping, so a later step 404s at the router (not via
    // a backend round trip — the mapping itself is gone).
    std::thread::sleep(Duration::from_millis(80));
    let (status, _) = request_once(
        router,
        "POST",
        "/sessions",
        Some(&json_body(&[("table", "t")])),
    )
    .unwrap();
    assert_eq!(status, 201);
    let step_body = json_body(&[("query", "key >= 150")]);
    let (status, resp) = request_once(
        router,
        "POST",
        &format!("/sessions/{sid}/step"),
        Some(&step_body),
    )
    .unwrap();
    assert_eq!(status, 404, "{resp}");
    fleet.shutdown();
    backends.into_iter().for_each(|b| b.shutdown());
}

/// Stray-copy GC: a replica the ring no longer assigns is collected —
/// but only after the grace period, and *without* the clean-up ever
/// reading as a fleet-wide delete. The stray here is deliberately
/// *newer* (higher local ingest timestamp) than the nominal copy, the
/// exact shape that would poison last-writer-wins if the GC tombstone
/// were exported.
#[test]
fn stray_copies_are_collected_after_grace_and_never_poison_the_fleet() {
    let (backends, addrs) = spawn_backends(3);
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 1,
            probe_interval: Duration::from_millis(50),
            repair_interval: None, // rounds driven by hand below
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let csv = demo_csv();
    let body = json_body(&[("name", "demo"), ("csv", &csv)]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    let lists = |i: usize| {
        let (s, body) = request_once(backends[i].local_addr(), "GET", "/tables", None).unwrap();
        assert_eq!(s, 200);
        body.contains("\"demo\"")
    };
    let holder = (0..3).find(|&i| lists(i)).unwrap();
    // Plant a stray on some non-holder, via the same replicate path a
    // ring shift would have used. Its local HLC stamp is necessarily
    // newer than the holder's.
    let stray = (0..3).find(|&i| i != holder).unwrap();
    let put = json_body(&[("csv", &csv)]);
    let (status, resp) = request_once(
        backends[stray].local_addr(),
        "PUT",
        "/tables/demo",
        Some(&put),
    )
    .unwrap();
    assert!((200..300).contains(&status), "{resp}");

    // Grace period: the first GC_GRACE_ROUNDS clean rounds arm the
    // collector but must not fire it.
    for round in 0..ziggy_fleet::repair::GC_GRACE_ROUNDS {
        let report = ziggy_fleet::repair_round(fleet.state());
        assert_eq!(report.under_replicated, 0, "round {round}: {report:?}");
        assert_eq!(report.strays_collected, 0, "round {round}: {report:?}");
        assert_eq!(report.deletes_propagated, 0, "round {round}: {report:?}");
    }
    assert!(lists(stray), "grace period must leave the stray alone");

    // The armed round collects exactly the stray.
    let report = ziggy_fleet::repair_round(fleet.state());
    assert_eq!(report.strays_collected, 1, "{report:?}");
    assert_eq!(report.deletes_propagated, 0, "{report:?}");
    assert!(!lists(stray), "stray copy must be gone");
    assert!(lists(holder), "nominal copy must survive GC");
    assert_eq!(fleet.state().metrics.strays_collected_total.get(), 1);

    // The regression this design exists for: the GC tombstone (stamped
    // on the *newer* copy) must be invisible to the fleet. No follow-up
    // round may read it as "demo was deleted" and cascade.
    let (status, stones) =
        request_once(backends[stray].local_addr(), "GET", "/tombstones", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        !stones.contains("\"demo\""),
        "stray tombstones must not be exported: {stones}"
    );
    for round in 0..3 {
        let report = ziggy_fleet::repair_round(fleet.state());
        assert_eq!(report.deletes_propagated, 0, "round {round}: {report:?}");
        assert_eq!(report.strays_collected, 0, "round {round}: {report:?}");
    }
    assert!(lists(holder), "the live table must never be collected");
    let query_body = json_body(&[("query", "key >= 150")]);
    let (status, resp) = request_once(
        router,
        "POST",
        "/tables/demo/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");

    fleet.shutdown();
    backends.into_iter().for_each(|b| b.shutdown());
}

/// Drain safety at R=1: removing the sole holder of a table copies the
/// data out first; when no healthy target exists the removal is refused
/// with the solely-held list, and `?force=true` remains the explicit
/// data-losing override.
#[test]
fn drain_copies_out_solely_held_tables_or_refuses() {
    let (backends, addrs) = spawn_backends(3);
    let backend_addrs: Vec<std::net::SocketAddr> =
        backends.iter().map(|b| b.local_addr()).collect();
    let mut backends: Vec<Option<ServerHandle>> = backends.into_iter().map(Some).collect();
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 1,
            probe_interval: Duration::from_millis(50),
            repair_interval: None,
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let body = json_body(&[("name", "solo"), ("csv", &demo_csv())]);
    let (status, resp) = request_once(router, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    let lists = |addr: std::net::SocketAddr| {
        let (s, body) = request_once(addr, "GET", "/tables", None).unwrap();
        assert_eq!(s, 200);
        body.contains("\"solo\"")
    };
    let holder = (0..3).find(|&i| lists(backend_addrs[i])).unwrap();

    // Draining the sole holder copies the table out instead of losing it.
    let (status, resp) = request_once(
        router,
        "DELETE",
        &format!("/admin/backends/shard-{holder}"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"copied_out\""), "{resp}");
    assert!(resp.contains("\"solo\""), "{resp}");
    assert_eq!(fleet.state().metrics.drain_copyouts_total.get(), 1);
    let new_holder = (0..3)
        .find(|&i| i != holder && lists(backend_addrs[i]))
        .expect("the drained table must land on a surviving member");
    let query_body = json_body(&[("query", "key >= 150")]);
    let (status, resp) = request_once(
        router,
        "POST",
        "/tables/solo/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(
        status, 200,
        "the fleet must keep serving after a drain: {resp}"
    );

    // Kill the only *other* member: now there is nowhere to copy to,
    // and the drain must refuse rather than silently lose the table.
    let bystander = (0..3).find(|&i| i != holder && i != new_holder).unwrap();
    backends[bystander].take().unwrap().shutdown();
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
            "prober never noticed: {health}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, resp) = request_once(
        router,
        "DELETE",
        &format!("/admin/backends/shard-{new_holder}"),
        None,
    )
    .unwrap();
    assert_eq!(status, 409, "{resp}");
    assert!(resp.contains("\"solely_held\""), "{resp}");
    assert!(resp.contains("\"solo\""), "{resp}");
    assert!(resp.contains("force=true"), "{resp}");
    // The refused removal changed nothing: the member still serves.
    let (status, resp) = request_once(
        router,
        "POST",
        "/tables/solo/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");

    // The operator accepts the loss explicitly.
    let (status, resp) = request_once(
        router,
        "DELETE",
        &format!("/admin/backends/shard-{new_holder}?force=true"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");

    fleet.shutdown();
    backends.into_iter().flatten().for_each(|b| b.shutdown());
}
