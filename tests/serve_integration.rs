//! End-to-end tests of `ziggy serve`: a real server on an ephemeral
//! port, real TCP clients, and ≥8 concurrent characterizations whose
//! responses must match the in-process engine byte for byte (modulo
//! wall-clock stage timings, which are zeroed before comparison).

use std::sync::Arc;

use ziggy::core::{CharacterizationReport, StageTimings, Ziggy, ZiggyConfig};
use ziggy::serve::http::{request_once, Client};
use ziggy::serve::{serve, ServeOptions};
use ziggy::store::csv::{read_csv_str, write_csv_string, CsvOptions};
use ziggy::store::{Table, TableBuilder, CHUNK_ROWS};

const CONCURRENT_CLIENTS: usize = 8;

/// The box-office synthetic twin (900×12) rendered to CSV, exactly as a
/// client would upload it.
fn twin_csv_and_query() -> (String, String) {
    let twin = ziggy::synth::box_office(7);
    (write_csv_string(&twin.table, ','), twin.predicate)
}

/// Builds a JSON object body from string fields via the same serializer
/// the server uses — no hand-rolled (and inevitably incomplete)
/// escaping.
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

/// Serializes a report with timings zeroed, the canonical form for
/// byte-identity comparisons.
fn canonical(report_json: &str) -> String {
    let mut report: CharacterizationReport =
        serde_json::from_str(report_json).expect("response must parse as a report");
    report.timings = StageTimings::default();
    serde_json::to_string(&report).unwrap()
}

#[test]
fn concurrent_clients_get_identical_reports_and_stats_compute_once() {
    let (csv, query) = twin_csv_and_query();

    // In-process reference: an engine over the table as the server will
    // parse it (same CSV bytes through the same reader).
    let table = read_csv_str(&csv, &CsvOptions::default()).unwrap();
    let reference_engine = Ziggy::new(&table, ZiggyConfig::default());
    let reference = {
        let mut r = reference_engine.characterize(&query).unwrap();
        r.timings = StageTimings::default();
        serde_json::to_string(&r).unwrap()
    };
    let reference_misses = reference_engine.cache().counters().misses;

    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();

    // Ingest.
    let body = json_body(&[("name", "boxoffice"), ("csv", &csv)]);
    let (status, resp) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");
    assert!(resp.contains("\"n_rows\":900"), "{resp}");

    // ≥8 concurrent clients characterize the same selection.
    let query_body = json_body(&[("query", &query)]);
    let responses: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONCURRENT_CLIENTS)
            .map(|_| {
                let query_body = query_body.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .request("POST", "/tables/boxoffice/characterize", Some(&query_body))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(
            canonical(body),
            reference,
            "server report must be byte-identical to the in-process engine"
        );
        // Stronger: the report cache collapses the concurrent burst to
        // one build, so the raw responses are byte-identical with *no*
        // canonicalization — stage timings included.
        assert_eq!(
            *body, responses[0].1,
            "cache hits must serve the build's exact bytes"
        );
    }

    // The shared engine computed whole-table statistics once per table:
    // the server's miss count equals a single in-process engine's, no
    // matter how many clients asked.
    let (status, metrics) = request_once(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let m = serde_json::from_str::<serde_json::Value>(&metrics).unwrap();
    let tables = m.get("tables").unwrap().as_array().unwrap();
    assert_eq!(tables.len(), 1);
    let cache = tables[0].get("cache").unwrap();
    let misses = cache.get("misses").unwrap().as_u64().unwrap();
    assert_eq!(
        misses, reference_misses,
        "whole-table stats must be computed once per table, not per request"
    );
    // Repeat clients are absorbed at the *top* level: the report cache
    // serves every client after the first, so the prepared cache sees
    // exactly one lookup and the whole-table cache one engine's worth
    // of traffic.
    let prepared = tables[0].get("prepared").unwrap();
    assert_eq!(prepared.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(prepared.get("hits").unwrap().as_u64(), Some(0));
    let reports = tables[0].get("reports").unwrap();
    assert_eq!(reports.get("misses").unwrap().as_u64(), Some(1));
    assert_eq!(
        reports.get("hits").unwrap().as_u64(),
        Some(CONCURRENT_CLIENTS as u64 - 1)
    );
    let characterizations = m
        .get("requests")
        .unwrap()
        .get("characterizations")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(characterizations, CONCURRENT_CLIENTS as u64);

    // Nothing is poisoned or blocked: the server still answers promptly.
    let (status, body) = request_once(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""status":"ok""#), "{body}");
    let (status, _) = request_once(
        addr,
        "POST",
        "/tables/boxoffice/characterize",
        Some(&query_body),
    )
    .unwrap();
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn concurrent_ingest_and_sessions() {
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();

    // 8 clients each ingest their own table concurrently.
    std::thread::scope(|s| {
        for i in 0..CONCURRENT_CLIENTS {
            s.spawn(move || {
                let mut csv = String::from("key,val\n");
                for r in 0..120 {
                    csv.push_str(&format!("{r},{}\n", (r * (i + 3)) % 17));
                }
                let body = json_body(&[("name", &format!("t{i}")), ("csv", &csv)]);
                let (status, resp) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
                assert_eq!(status, 201, "{resp}");
            });
        }
    });
    let (_, listing) = request_once(addr, "GET", "/tables", None).unwrap();
    for i in 0..CONCURRENT_CLIENTS {
        assert!(listing.contains(&format!("\"t{i}\"")), "{listing}");
    }

    // One session per client, stepped concurrently; identical consecutive
    // steps must be stable diffs.
    let session_ids: Vec<u64> = (0..CONCURRENT_CLIENTS)
        .map(|i| {
            let (status, resp) = request_once(
                addr,
                "POST",
                "/sessions",
                Some(&format!(r#"{{"table":"t{i}"}}"#)),
            )
            .unwrap();
            assert_eq!(status, 201, "{resp}");
            let v = serde_json::from_str::<serde_json::Value>(&resp).unwrap();
            v.get("session_id").unwrap().as_u64().unwrap()
        })
        .collect();

    std::thread::scope(|s| {
        for &id in &session_ids {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let step = |c: &mut Client| {
                    c.request(
                        "POST",
                        &format!("/sessions/{id}/step"),
                        Some(r#"{"query":"key >= 90"}"#),
                    )
                    .unwrap()
                };
                let (status, first) = step(&mut client);
                assert_eq!(status, 200, "{first}");
                assert!(first.contains("\"step\":1"), "{first}");
                assert!(first.contains("\"diff\":null"), "{first}");
                let (status, second) = step(&mut client);
                assert_eq!(status, 200, "{second}");
                assert!(second.contains("\"step\":2"), "{second}");
                assert!(second.contains("\"persisted\""), "{second}");
            });
        }
    });

    // Clean up over the wire: sessions first, then their tables. The
    // caps bound live state, so every slot frees.
    for &id in &session_ids {
        let (status, resp) =
            request_once(addr, "DELETE", &format!("/sessions/{id}"), None).unwrap();
        assert_eq!(status, 200, "{resp}");
    }
    for i in 0..CONCURRENT_CLIENTS {
        let (status, resp) = request_once(addr, "DELETE", &format!("/tables/t{i}"), None).unwrap();
        assert_eq!(status, 200, "{resp}");
    }
    let (_, listing) = request_once(addr, "GET", "/tables", None).unwrap();
    assert_eq!(listing, r#"{"tables":[]}"#);
    let (status, _) = request_once(addr, "DELETE", "/tables/t0", None).unwrap();
    assert_eq!(status, 404);

    server.shutdown();
}

/// Table `name`'s section of the `/metrics` JSON document.
fn table_metrics(addr: std::net::SocketAddr, name: &str) -> serde_json::Value {
    let (status, metrics) = request_once(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let m = serde_json::from_str::<serde_json::Value>(&metrics).unwrap();
    m.get("tables")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|t| t.get("name").unwrap().as_str() == Some(name))
        .expect("table present in /metrics")
        .clone()
}

/// Reads a cache-level counter object (`prepared` or `reports`) for
/// table `name` out of a `/metrics` body as `(hits, misses, entries)`.
fn level_counters(addr: std::net::SocketAddr, name: &str, level: &str) -> (u64, u64, u64) {
    let table = table_metrics(addr, name);
    let p = table.get(level).unwrap();
    (
        p.get("hits").unwrap().as_u64().unwrap(),
        p.get("misses").unwrap().as_u64().unwrap(),
        p.get("entries").unwrap().as_u64().unwrap(),
    )
}

fn prepared_counters(addr: std::net::SocketAddr, name: &str) -> (u64, u64, u64) {
    level_counters(addr, name, "prepared")
}

fn report_counters(addr: std::net::SocketAddr, name: &str) -> (u64, u64, u64) {
    level_counters(addr, name, "reports")
}

fn mask_counters(addr: std::net::SocketAddr, name: &str) -> (u64, u64, u64) {
    level_counters(addr, name, "masks")
}

#[test]
fn prepared_stats_build_once_per_predicate_across_clients() {
    // A table whose selections we control exactly: key = 0..400.
    let mut csv = String::from("key,a,b\n");
    for i in 0..400 {
        csv.push_str(&format!(
            "{i},{},{}\n",
            if i < 100 { 50 } else { 0 } + (i * 13) % 7,
            (i * 7919) % 31
        ));
    }
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let body = json_body(&[("name", "p"), ("csv", &csv)]);
    let (status, resp) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    // N clients issue the *same* predicate concurrently. The per-query
    // cache must collapse them to exactly one PreparedStats build, and
    // every client must get byte-identical reports.
    let query_body = json_body(&[("query", "key < 100")]);
    let responses: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONCURRENT_CLIENTS)
            .map(|_| {
                let query_body = query_body.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client
                        .request("POST", "/tables/p/characterize", Some(&query_body))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let first = canonical(&responses[0].1);
    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(canonical(body), first, "reports must be byte-identical");
        assert_eq!(
            *body, responses[0].1,
            "collapsed requests share the build's exact bytes"
        );
    }
    // The burst collapses at the report level to ONE pipeline run — one
    // search, one post-processing, one serialization — which in turn
    // did exactly one PreparedStats build.
    let (hits, misses, entries) = report_counters(addr, "p");
    assert_eq!(
        misses, 1,
        "N concurrent clients, one predicate => exactly one pipeline run"
    );
    assert_eq!(hits, CONCURRENT_CLIENTS as u64 - 1);
    assert_eq!(entries, 1);
    let (hits, misses, entries) = prepared_counters(addr, "p");
    assert_eq!(misses, 1, "the single run built PreparedStats once");
    assert_eq!(hits, 0);
    assert_eq!(entries, 1);

    // A *distinct* predicate with the same popcount (100 rows selected,
    // different rows) must not collide with the cached entry: masks are
    // compared by content, not by size or fingerprint alone.
    let other_body = json_body(&[("query", "key >= 300")]);
    let (status, other) =
        request_once(addr, "POST", "/tables/p/characterize", Some(&other_body)).unwrap();
    assert_eq!(status, 200, "{other}");
    assert!(other.contains("\"n_inside\":100"), "{other}");
    let (_, misses, entries) = prepared_counters(addr, "p");
    assert_eq!(
        misses, 2,
        "equal-popcount distinct mask must build its own entry"
    );
    assert_eq!(entries, 2);
    assert_ne!(
        canonical(&other),
        first,
        "distinct selections must not serve each other's reports"
    );

    // And a re-spelling of the first predicate that selects the same
    // rows answers from the *report* level: the cache keys on the mask,
    // not the query text, so no pipeline stage runs at all — only the
    // requested label is spliced into the response at render time.
    let respelled = json_body(&[("query", "NOT key >= 100")]);
    let (status, body) =
        request_once(addr, "POST", "/tables/p/characterize", Some(&respelled)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"query\":\"NOT key >= 100\""), "{body}");
    let (hits, misses, _) = prepared_counters(addr, "p");
    assert_eq!(misses, 2);
    assert_eq!(
        hits, 0,
        "re-spelled predicate never reaches the prepared level"
    );
    let (hits, misses, entries) = report_counters(addr, "p");
    assert_eq!(misses, 2, "re-spelling is not a rebuild");
    assert_eq!(hits, CONCURRENT_CLIENTS as u64, "it is a report-cache hit");
    assert_eq!(entries, 2, "and adds no entry");
    // Same characterization: the respelled body differs from `first`
    // only in the query label.
    let mut relabeled: CharacterizationReport = serde_json::from_str(&body).unwrap();
    relabeled.timings = StageTimings::default();
    relabeled.query = "key < 100".to_string();
    assert_eq!(
        serde_json::to_string(&relabeled).unwrap(),
        first,
        "respelled predicate shares the cached build's bytes"
    );

    server.shutdown();
}

#[test]
fn respelled_predicates_share_one_cached_build_and_etag() {
    // The cache-miss bug this pins: `"x > 5"` and `"x>5.0"` select the
    // same rows, but the level-3 report cache used to key on the query
    // text, so the respelling paid a second pipeline run and got a
    // different ETag. Both spellings must now answer from one cached
    // build, carry the same ETag, and revalidate against each other.
    let mut csv = String::from("x,y\n");
    for i in 0..400 {
        csv.push_str(&format!("{},{}\n", i % 11, (i * 7919) % 31));
    }
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let body = json_body(&[("name", "r"), ("csv", &csv)]);
    let (status, resp) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    let mut client = Client::connect(addr).unwrap();
    let spelled = json_body(&[("query", "x > 5")]);
    let (status, headers_a, body_a) = client
        .request_with_headers("POST", "/tables/r/characterize", &[], Some(&spelled))
        .unwrap();
    assert_eq!(status, 200, "{body_a}");
    let etag_a = headers_a
        .iter()
        .find(|(k, _)| k == "etag")
        .map(|(_, v)| v.clone())
        .unwrap();

    let respelled = json_body(&[("query", "x>5.0")]);
    let (status, headers_b, body_b) = client
        .request_with_headers("POST", "/tables/r/characterize", &[], Some(&respelled))
        .unwrap();
    assert_eq!(status, 200, "{body_b}");
    let etag_b = headers_b
        .iter()
        .find(|(k, _)| k == "etag")
        .map(|(_, v)| v.clone())
        .unwrap();
    assert_eq!(etag_a, etag_b, "one selection, one ETag");
    assert!(body_a.contains("\"query\":\"x > 5\""), "{body_a}");
    assert!(body_b.contains("\"query\":\"x>5.0\""), "{body_b}");

    // One build total: the respelling was a report-cache hit.
    let (hits, misses, entries) = report_counters(addr, "r");
    assert_eq!((hits, misses, entries), (1, 1, 1));
    let (_, prepared_misses, _) = prepared_counters(addr, "r");
    assert_eq!(prepared_misses, 1, "one prepared build for both spellings");
    // The mask memo keys on the text: each spelling evaluated once.
    assert_eq!(mask_counters(addr, "r"), (0, 2, 2));

    // A conditional respelled request revalidates against the other
    // spelling's tag.
    let (status, _, not_modified) = client
        .request_with_headers(
            "POST",
            "/tables/r/characterize",
            &[("If-None-Match", &etag_a)],
            Some(&respelled),
        )
        .unwrap();
    assert_eq!(status, 304, "{not_modified}");
    assert!(not_modified.is_empty());
    assert_eq!(
        mask_counters(addr, "r"),
        (1, 2, 2),
        "the repeat hit the memo"
    );

    server.shutdown();
}

#[test]
fn append_starts_a_fresh_mask_memo() {
    // A memo entry describes the table it was evaluated on: after an
    // append, the same predicate text must select the new rows too.
    let mut csv = String::from("x,y\n");
    for i in 0..400 {
        csv.push_str(&format!("{},{}\n", i % 11, (i * 7919) % 31));
    }
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let body = json_body(&[("name", "m"), ("csv", &csv)]);
    let (status, resp) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201, "{resp}");

    let mut client = Client::connect(addr).unwrap();
    let query = json_body(&[("query", "x > 5")]);
    let characterize = |client: &mut Client| {
        let (status, headers, body) = client
            .request_with_headers("POST", "/tables/m/characterize", &[], Some(&query))
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let etag = headers
            .iter()
            .find(|(k, _)| k == "etag")
            .map(|(_, v)| v.clone())
            .unwrap();
        let report: CharacterizationReport = serde_json::from_str(&body).unwrap();
        (report.n_inside, etag)
    };
    let (before, etag_before) = characterize(&mut client);
    assert_eq!(characterize(&mut client), (before, etag_before.clone()));
    assert_eq!(mask_counters(addr, "m"), (1, 1, 1));

    let mut rows = String::new();
    for i in 0..40 {
        rows.push_str(&format!("{},{}\n", 6 + i % 5, i));
    }
    let append = json_body(&[("rows", &rows)]);
    let (status, resp) = request_once(addr, "POST", "/tables/m/rows", Some(&append)).unwrap();
    assert_eq!(status, 200, "{resp}");

    let (after, etag_after) = characterize(&mut client);
    assert_eq!(after, before + 40, "the appended rows are selected");
    assert_ne!(etag_after, etag_before);
    assert_eq!(
        mask_counters(addr, "m"),
        (0, 1, 1),
        "a new engine, a new memo"
    );

    server.shutdown();
}

/// Pins the warm fast path: a repeated query is answered from the
/// report cache (`(hits, misses) == (2, 1)` after one cold request, one
/// unconditional repeat and one `If-None-Match` repeat), with the same
/// bytes and ETag every time.
#[test]
fn warm_repeats_are_byte_identical_with_etag_revalidation() {
    let (csv, query) = twin_csv_and_query();
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let body = json_body(&[("name", "w"), ("csv", &csv)]);
    let (status, _) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201);

    // Cold request: 200 with an ETag.
    let query_body = json_body(&[("query", &query)]);
    let mut client = Client::connect(addr).unwrap();
    let (status, headers, first) = client
        .request_with_headers("POST", "/tables/w/characterize", &[], Some(&query_body))
        .unwrap();
    assert_eq!(status, 200, "{first}");
    let etag = headers
        .iter()
        .find(|(k, _)| k == "etag")
        .map(|(_, v)| v.clone())
        .expect("characterize must carry an ETag");

    // Unconditional warm repeat: the exact same bytes (timings and all)
    // under the exact same ETag.
    let (status, headers, second) = client
        .request_with_headers("POST", "/tables/w/characterize", &[], Some(&query_body))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(second, first, "cache hits must be byte-identical");
    assert!(headers.iter().any(|(k, v)| k == "etag" && *v == etag));

    // Conditional warm repeat: 304, no body at all.
    let (status, headers, empty) = client
        .request_with_headers(
            "POST",
            "/tables/w/characterize",
            &[("If-None-Match", &etag)],
            Some(&query_body),
        )
        .unwrap();
    assert_eq!(status, 304, "{empty}");
    assert!(empty.is_empty());
    assert!(headers.iter().any(|(k, v)| k == "etag" && *v == etag));
    let (hits, misses, _) = report_counters(addr, "w");
    assert_eq!((hits, misses), (2, 1));

    // DELETE clears the report cache; the engine object is observed
    // directly because the registry entry (and its metrics section) is
    // gone after the delete.
    let entry = server.state().registry.get("w").unwrap();
    assert_eq!(entry.engine().report_cache().len(), 1);
    let (status, _) = request_once(addr, "DELETE", "/tables/w", None).unwrap();
    assert_eq!(status, 200);
    assert!(entry.engine().report_cache().is_empty());
    assert!(entry.engine().prepared_cache().is_empty());

    // A re-ingest under the same name starts cold again and still
    // answers — no stale artifact survives the delete.
    let (status, _) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201);
    let (status, fresh) =
        request_once(addr, "POST", "/tables/w/characterize", Some(&query_body)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(canonical(&fresh), canonical(&first));
    let (hits, misses, _) = report_counters(addr, "w");
    assert_eq!((hits, misses), (0, 1), "fresh engine, fresh cache");

    server.shutdown();
}

/// The scaling twin plus a clustered `event_time` column (the row
/// index): real tables almost always carry an ingest-ordered timestamp,
/// and it is exactly the shape zone maps exploit.
fn with_event_time(twin: &Table) -> Table {
    let mut b = TableBuilder::new();
    b.add_numeric("event_time", (0..twin.n_rows()).map(|i| i as f64).collect());
    for c in 0..twin.n_cols() {
        b.add_numeric(
            twin.name(c),
            twin.numeric(c).expect("scaling twins are numeric").to_vec(),
        );
    }
    b.build().unwrap()
}

/// Pins the chunked data plane through the served path: on a two-chunk
/// table a clustered, chunk-aligned predicate must fill the first chunk
/// (every `event_time` in it is below the cut) and skip the second
/// (every value is at or above it) from the per-chunk summaries alone,
/// and `/metrics` must show both.
#[test]
fn clustered_zone_query_skips_and_fills_chunks_through_the_server() {
    let twin = ziggy::synth::scaling_dataset(100_000, 16, 7);
    let table = with_event_time(&twin.table);
    assert!(
        table.n_rows() > CHUNK_ROWS,
        "the table must span two chunks"
    );
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    server
        .state()
        .registry
        .insert_table("zone", table, server.state().config.clone())
        .unwrap();

    let query_body = json_body(&[("query", &format!("event_time < {CHUNK_ROWS}"))]);
    let (status, resp) =
        request_once(addr, "POST", "/tables/zone/characterize", Some(&query_body)).unwrap();
    assert_eq!(status, 200, "{resp}");

    let table = table_metrics(addr, "zone");
    let zone_maps = table.get("zone_maps").unwrap();
    let chunks = |outcome: &str| zone_maps.get(outcome).unwrap().as_u64().unwrap();
    assert!(
        chunks("chunks_skipped") > 0 && chunks("chunks_filled") > 0,
        "the clustered query must both skip and fill chunks: {zone_maps:?}"
    );

    server.shutdown();
}

#[test]
fn shared_engine_outperforms_per_request_engines() {
    // Not a wall-clock benchmark (too flaky for CI) — a work-count
    // assertion: N sequential server requests trigger exactly one
    // engine's worth of whole-table scans, where N per-request engines
    // would pay N times that.
    let (csv, query) = twin_csv_and_query();
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let body = json_body(&[("name", "b"), ("csv", &csv)]);
    let (status, _) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201);

    let query_body = json_body(&[("query", &query)]);
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..4 {
        let (status, _) = client
            .request("POST", "/tables/b/characterize", Some(&query_body))
            .unwrap();
        assert_eq!(status, 200);
    }

    let entry = Arc::clone(server.state()).registry.get("b").unwrap();
    let counters = entry.cache().counters();
    let per_request_cost = counters.misses * 4;
    assert!(
        counters.total() < per_request_cost * 2,
        "cache should amortize scans: {counters:?}"
    );
    assert!(counters.hits > 0, "{counters:?}");
    server.shutdown();
}

#[test]
fn rate_limited_clients_get_429_with_retry_after() {
    use std::io::{Read, Write};

    let server = serve(
        "127.0.0.1:0",
        ServeOptions {
            rate_limit: Some(3),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Burn the burst through the keep-alive client, then expect a 429.
    let mut client = Client::connect(addr).unwrap();
    let mut saw_429 = false;
    for _ in 0..10 {
        let (status, body) = client.request("GET", "/tables", None).unwrap();
        if status == 429 {
            assert!(body.contains("rate limit"), "{body}");
            saw_429 = true;
            break;
        }
        assert_eq!(status, 200, "{body}");
    }
    assert!(saw_429, "burst of 3 must not survive 10 rapid requests");

    // Health checks are exempt even for a throttled client.
    let (status, _) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    // The 429 carries a whole-second Retry-After header (raw socket:
    // the convenience client only exposes status and body).
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut out = String::new();
    let mut throttled_response = String::new();
    for _ in 0..10 {
        raw.write_all(b"GET /tables HTTP/1.1\r\nHost: z\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        out.clear();
        let mut buf = [0u8; 4096];
        let n = raw.read(&mut buf).unwrap();
        out.push_str(std::str::from_utf8(&buf[..n]).unwrap());
        if out.starts_with("HTTP/1.1 429") {
            throttled_response = out.clone();
            break;
        }
    }
    let retry_after = throttled_response
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .expect("429 must carry Retry-After");
    assert!(retry_after.trim().parse::<u64>().unwrap() >= 1);

    let rate_limited = server.state().metrics.rate_limited.get();
    assert!(rate_limited >= 2, "metrics must count 429s: {rate_limited}");
    server.shutdown();
}

#[test]
fn per_request_config_override_round_trips_over_http() {
    let (csv, query) = twin_csv_and_query();
    let server = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let body = json_body(&[("name", "cfg"), ("csv", &csv)]);
    let (status, _) = request_once(addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 201);

    let override_body = format!(
        "{{\"query\":{},\"config\":{{\"max_views\":1}}}}",
        serde_json::to_string(&serde_json::Value::String(query.clone())).unwrap()
    );
    let (status, overridden) = request_once(
        addr,
        "POST",
        "/tables/cfg/characterize",
        Some(&override_body),
    )
    .unwrap();
    assert_eq!(status, 200, "{overridden}");
    let views = serde_json::from_str_value(&overridden)
        .unwrap()
        .get("views")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    assert_eq!(views, 1);

    // The default-config path is untouched by the fork.
    let (status, default_resp) = request_once(
        addr,
        "POST",
        "/tables/cfg/characterize",
        Some(&json_body(&[("query", &query)])),
    )
    .unwrap();
    assert_eq!(status, 200);
    let default_views = serde_json::from_str_value(&default_resp)
        .unwrap()
        .get("views")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    assert!(
        default_views > 1,
        "default config should keep several views"
    );
    server.shutdown();
}
