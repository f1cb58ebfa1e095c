//! CI metrics-lint smoke: scrape `/metrics?format=prometheus` from a
//! *live* single-node server and a *live* fleet router over real
//! sockets, parse the exposition with the in-repo parser, and fail on
//! any lint problem (invalid names, duplicate series, histogram
//! bucket/count inconsistencies). This is the job that keeps the
//! exposition scrapeable: a malformed line here is exactly what a real
//! Prometheus server would reject. Each test also scrapes the JSON
//! document and checks that every family in the process's list is in
//! both formats (see [`assert_formats_agree`]).

use std::time::{Duration, Instant};

use serde_json::Value;
use ziggy::fleet::{start_fleet, FleetOptions, FLEET_FAMILIES};
use ziggy::obs::{PromDoc, PromKind};
use ziggy::serve::http::request_once;
use ziggy::serve::metrics::{Family, Kind, SERVE_FAMILIES};
use ziggy::serve::{serve, ServeOptions};

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

/// A table big enough to characterize (the engine wants at least 8
/// rows on each side of the selection).
fn toy_csv() -> String {
    let mut csv = String::from("x,y\n");
    for i in 0..24 {
        csv.push_str(&format!("{},{}\n", i, (i * 7) % 24));
    }
    csv
}

/// Scrapes `addr` and returns the parsed document, failing the test on
/// parse errors or lint problems.
fn scrape_clean(addr: std::net::SocketAddr) -> PromDoc {
    let (status, text) = request_once(addr, "GET", "/metrics?format=prometheus", None).unwrap();
    assert_eq!(status, 200, "{text}");
    let doc =
        PromDoc::parse(&text).unwrap_or_else(|e| panic!("exposition must parse: {e}\n{text}"));
    let problems = doc.lint();
    assert!(problems.is_empty(), "lint problems: {problems:?}\n{text}");
    doc
}

/// Scrapes the JSON `/metrics` document from `addr`.
fn scrape_json(addr: std::net::SocketAddr) -> Value {
    let (status, body) = request_once(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200, "{body}");
    serde_json::from_str_value(&body).unwrap()
}

/// The JSON value of `f`'s sample with label `values`, found by walking
/// the family's path (see the path syntax in `ziggy_serve::metrics`).
fn json_at<'a, S>(f: &Family<S>, doc: &'a Value, values: &[&str]) -> Option<&'a Value> {
    let fill = |template: &str| {
        let mut out = template.to_string();
        for (name, value) in f.labels().iter().zip(values) {
            let key = f.json_keys.iter().find(|(from, _)| from == value);
            out = out.replace(&format!("{{{name}}}"), key.map_or(*value, |(_, to)| to));
        }
        out
    };
    let mut node = doc;
    for segment in f.json.split('.') {
        node = match segment.split_once('[') {
            None => node.get(&fill(segment))?,
            Some((key, selector)) => {
                let (field, id) = selector.trim_end_matches(']').split_once('=')?;
                let id = fill(id);
                node.get(&fill(key))?
                    .as_array()?
                    .iter()
                    .find(|v| v.get(field).and_then(Value::as_str) == Some(id.as_str()))?
            }
        };
    }
    Some(node)
}

/// Asserts the two formats agree on one process's family list: names
/// are unique; every family is in the Prometheus scrape with its
/// declared kind; and each
/// of its series (the process's own, not ones absorbed with a `shard`
/// label) has a value at its path in the JSON document.
fn assert_formats_agree<S>(families: &[Family<S>], prom: &PromDoc, json: &Value) {
    let mut names: Vec<&str> = families.iter().map(|f| f.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), families.len(), "a family is declared twice");
    for f in families {
        let family = prom
            .families
            .iter()
            .find(|p| p.name == f.name)
            .unwrap_or_else(|| panic!("{} missing from the Prometheus scrape", f.name));
        let kind = match f.kind {
            Kind::Counter => PromKind::Counter,
            Kind::Gauge | Kind::Info => PromKind::Gauge,
            Kind::Histogram(_) => PromKind::Histogram,
        };
        assert_eq!(family.kind, kind, "{}", f.name);
        let series: Vec<_> = family
            .samples
            .iter()
            .filter(|s| s.label("shard").is_none())
            .filter(|s| !matches!(f.kind, Kind::Histogram(_)) || s.name.ends_with("_count"))
            .collect();
        assert!(!series.is_empty(), "{} has no local series", f.name);
        for sample in series {
            let values: Vec<&str> = f
                .labels()
                .iter()
                .map(|l| sample.label(l).expect("declared label present"))
                .collect();
            assert!(
                json_at(f, json, &values).is_some(),
                "{}{values:?} is not at {} in the JSON document: {}",
                f.name,
                f.json,
                serde_json::to_string(json).unwrap()
            );
        }
    }
}

/// Asserts every *populated* bucket of `family` (a cumulative count
/// strictly above the previous bucket's, i.e. the slot itself took a
/// sample) carries an OpenMetrics `trace_id` exemplar, and returns one
/// of the trace ids for resolvability checks.
fn assert_bucket_exemplars(doc: &PromDoc, family: &str) -> String {
    let bucket_name = format!("{family}_bucket");
    let mut series: std::collections::BTreeMap<String, Vec<(f64, f64, Option<String>)>> =
        std::collections::BTreeMap::new();
    for f in doc.families.iter().filter(|f| f.name == family) {
        for s in f.samples.iter().filter(|s| s.name == bucket_name) {
            let le = match s.label("le") {
                Some("+Inf") => f64::INFINITY,
                Some(raw) => raw.parse().unwrap(),
                None => panic!("bucket sample without le: {s:?}"),
            };
            let key: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            series.entry(key.join(",")).or_default().push((
                le,
                s.value,
                s.exemplar
                    .as_ref()
                    .and_then(|e| e.label("trace_id"))
                    .map(str::to_string),
            ));
        }
    }
    assert!(!series.is_empty(), "no {bucket_name} samples in the scrape");
    let mut witness = None;
    for (labels, mut buckets) in series {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        for (le, cumulative, trace_id) in buckets {
            if cumulative > prev {
                let trace_id = trace_id.unwrap_or_else(|| {
                    panic!(
                        "populated bucket le={le} of {family}{{{labels}}} has no trace_id exemplar"
                    )
                });
                witness = Some(trace_id);
            }
            prev = cumulative;
        }
    }
    witness.expect("at least one populated bucket")
}

/// Asserts the trace id behind an exemplar resolves to a full span tree
/// at `/debug/traces/{id}` on the same server.
fn assert_trace_resolves(addr: std::net::SocketAddr, trace_id: &str) {
    let (status, body) =
        request_once(addr, "GET", &format!("/debug/traces/{trace_id}"), None).unwrap();
    assert_eq!(
        status, 200,
        "exemplar trace {trace_id} must resolve: {body}"
    );
    let v = serde_json::from_str_value(&body).unwrap();
    assert_eq!(v.get("trace_id").unwrap().as_str(), Some(trace_id));
    assert!(
        !v.get("spans").unwrap().as_array().unwrap().is_empty(),
        "{body}"
    );
}

#[test]
fn serve_prometheus_exposition_is_lint_clean() {
    // A data directory, so the WAL families are live too.
    let dir = std::env::temp_dir().join(format!("ziggy_metrics_lint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = serve(
        "127.0.0.1:0",
        ServeOptions {
            data_dir: Some(dir.clone()),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Drive some traffic so counters and histograms carry real values.
    let csv = toy_csv();
    let (status, resp) = request_once(
        addr,
        "POST",
        "/tables",
        Some(&json_body(&[("name", "t"), ("csv", &csv)])),
    )
    .unwrap();
    assert_eq!(status, 201, "{resp}");
    let query = json_body(&[("query", "x >= 12")]);
    for _ in 0..3 {
        let (status, resp) =
            request_once(addr, "POST", "/tables/t/characterize", Some(&query)).unwrap();
        assert_eq!(status, 200, "{resp}");
    }
    let _ = request_once(addr, "GET", "/healthz", None).unwrap();

    let doc = scrape_clean(addr);
    for family in [
        "ziggy_requests_total",
        "ziggy_characterizations_total",
        "ziggy_request_duration_seconds",
        "ziggy_stage_duration_seconds",
        "ziggy_uptime_seconds",
        "ziggy_build_info",
    ] {
        assert!(
            doc.families.iter().any(|f| f.name == family),
            "missing family {family}"
        );
    }
    // Every populated latency bucket carries a trace-id exemplar, and
    // the id resolves to a span tree in the flight recorder.
    let trace = assert_bucket_exemplars(&doc, "ziggy_request_duration_seconds");
    assert_trace_resolves(addr, &trace);
    assert_formats_agree(SERVE_FAMILIES, &doc, &scrape_json(addr));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_prometheus_exposition_is_lint_clean_with_shard_labels() {
    // In-process backends are enough: the router scrapes them over real
    // HTTP either way, which is the path this smoke pins.
    let backends: Vec<_> = (0..2)
        .map(|_| serve("127.0.0.1:0", ServeOptions::default()).unwrap())
        .collect();
    let addrs = backends
        .iter()
        .enumerate()
        .map(|(i, b)| (format!("shard-{i}"), b.local_addr()))
        .collect();
    let fleet = start_fleet(
        "127.0.0.1:0",
        addrs,
        FleetOptions {
            replication: 2,
            probe_interval: Duration::from_millis(100),
            repair_interval: Some(Duration::from_millis(100)),
            ..FleetOptions::default()
        },
    )
    .unwrap();
    let router = fleet.local_addr();

    let csv = toy_csv();
    let (status, resp) = request_once(
        router,
        "POST",
        "/tables",
        Some(&json_body(&[("name", "t"), ("csv", &csv)])),
    )
    .unwrap();
    assert_eq!(status, 201, "{resp}");
    let query = json_body(&[("query", "x >= 12")]);
    for _ in 0..4 {
        let (status, resp) =
            request_once(router, "POST", "/tables/t/characterize", Some(&query)).unwrap();
        assert_eq!(status, 200, "{resp}");
    }

    // Both background loops have finished a round, so their age and
    // duration families carry samples.
    let deadline = Instant::now() + Duration::from_secs(10);
    let state = fleet.state();
    while state.repair_stats.rounds() == 0 || state.probe_stats.rounds() == 0 {
        assert!(Instant::now() < deadline, "loops never ran a round");
        std::thread::sleep(Duration::from_millis(20));
    }

    let doc = scrape_clean(router);
    // Router-local families...
    for family in [
        "ziggy_fleet_requests_total",
        "ziggy_fleet_proxied_total",
        "ziggy_fleet_epoch",
        "ziggy_fleet_backends",
        "ziggy_fleet_request_duration_seconds",
    ] {
        assert!(
            doc.families.iter().any(|f| f.name == family),
            "missing family {family}"
        );
    }
    // ...plus each backend's own series, scatter-gathered and stamped
    // with the shard label.
    let shards: std::collections::BTreeSet<&str> = doc
        .families
        .iter()
        .filter(|f| f.name == "ziggy_requests_total")
        .flat_map(|f| f.samples.iter())
        .filter_map(|s| s.label("shard"))
        .collect();
    assert_eq!(
        shards.into_iter().collect::<Vec<_>>(),
        vec!["shard-0", "shard-1"],
        "per-shard series must carry the shard label"
    );
    // Router-edge exemplars resolve at the router's own recorder; the
    // backends' exemplars (absorbed with their shard stamp) resolve
    // fleet-assembled through the same endpoint.
    let trace = assert_bucket_exemplars(&doc, "ziggy_fleet_request_duration_seconds");
    assert_trace_resolves(router, &trace);
    let backend_trace = assert_bucket_exemplars(&doc, "ziggy_request_duration_seconds");
    assert_trace_resolves(router, &backend_trace);
    assert_formats_agree(FLEET_FAMILIES, &doc, &scrape_json(router));

    fleet.shutdown();
    for b in backends {
        b.shutdown();
    }
}
