//! The untraced run: each workload's seeded request stream sent over
//! HTTP to in-process servers by closed-loop clients (each waits for its
//! reply before sending the next request, as an explorer does), with the
//! correctness gate applied to what came back.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;
use ziggy_core::{Ziggy, ZiggyConfig};
use ziggy_durable::combine_csv;
use ziggy_fleet::{start_fleet, FleetHandle, FleetOptions};
use ziggy_serve::http::Client;
use ziggy_serve::{serve, DurabilityMode, ServeOptions, ServerHandle};
use ziggy_store::csv::{read_csv_str, CsvOptions};

use crate::gen::{self, Batches, Pred, Shape, Step};
use crate::util::{self, header, ms_since, query_body};
use crate::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Hot-set size of `hot_fleet`.
pub const HOT_SET: usize = 8;
/// Upper end of the uniform think time between `hot_fleet` requests.
const THINK_MAX_US: usize = 2_000;
/// Responses checked byte-for-byte against the reference engine.
const BODY_SAMPLES: usize = 12;
/// Repeats per block of four steps on `explore_tall`: the configured
/// repeat share is one half.
pub const TALL_REPEATS_PER_4: usize = 2;

/// Latency samples (ms) of one request class.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

#[derive(Default)]
pub struct LoadResult {
    pub setup_s: Vec<f64>,
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Characterize responses answered from the report cache
    /// (`Server-Timing` reuse level 3), and all characterize responses.
    pub reuse3: (u64, u64),
    /// Correctness-gate findings; any entry fails the run.
    pub mismatches: Vec<String>,
}

impl LoadResult {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(why);
        }
    }

    /// Folds one client thread's tally into the run's.
    fn absorb(&mut self, t: Tally) {
        for (class, xs) in t.samples {
            self.samples.entry(class).or_default().extend(xs);
        }
        self.attempted += t.attempted;
        self.elapsed_s = self.elapsed_s.max(t.elapsed_s);
        self.reuse3.0 += t.reuse3.0;
        self.reuse3.1 += t.reuse3.1;
        for why in t.failures {
            self.fail(why);
        }
    }
}

/// What one client thread saw.
#[derive(Default)]
struct Tally {
    samples: Samples,
    attempted: u64,
    reuse3: (u64, u64),
    failures: Vec<String>,
    /// (predicate index, body, ETag) of sampled 200 responses.
    kept: Vec<(usize, String, String)>,
    /// Wall time of the client's loop.
    elapsed_s: f64,
}

impl Tally {
    /// Times one characterize request and checks its status.
    fn characterize(
        &mut self,
        client: &mut Client,
        path: &str,
        body: &str,
        if_none_match: Option<&str>,
        class: &'static str,
    ) -> Option<(Vec<(String, String)>, String)> {
        let headers: Vec<(&str, &str)> = if_none_match
            .map(|tag| vec![("If-None-Match", tag)])
            .unwrap_or_default();
        self.attempted += 1;
        let t = Instant::now();
        match client.request_with_headers("POST", path, &headers, Some(body)) {
            Ok((status, h, b)) => {
                let ms = ms_since(t);
                let want = if if_none_match.is_some() { 304 } else { 200 };
                if status != want {
                    self.failures
                        .push(format!("{class}: status {status}, wanted {want}: {b:.200}"));
                    return None;
                }
                self.samples.entry(class).or_default().push(ms);
                if let Some(level) = util::reuse_level(&h) {
                    self.reuse3.0 += u64::from(level == 3);
                    self.reuse3.1 += 1;
                }
                Some((h, b))
            }
            Err(e) => {
                self.failures.push(format!("{class}: {e}"));
                None
            }
        }
    }
}

/// Distinct predicates to generate for a run: enough for `per_s`
/// distinct queries a second, far above today's rates, so a faster
/// engine does not run the stream dry.
fn distinct_budget(seconds: f64, per_s: f64) -> usize {
    (seconds * per_s) as usize + 16
}

/// Whether step `i` of a seeded stream is one of the sampled checks.
fn sampled(seed: u64, i: usize) -> bool {
    let mut r = gen::Rng::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
    r.below(8) == 0
}

fn connect(addr: SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect to an in-process server");
    c.set_read_timeout(Duration::from_secs(60))
        .expect("set read timeout");
    c
}

/// `POST /tables` with a CSV upload; returns the status.
fn ingest(client: &mut Client, body: &str) -> u16 {
    client
        .request("POST", "/tables", Some(body))
        .map(|(s, _)| s)
        .unwrap_or(0)
}

fn ingest_body(name: &str, csv: &str) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("name".into(), util::string(name)),
        ("csv".into(), util::string(csv)),
    ]))
    .expect("strings serialize")
}

/// Byte-for-byte check of a response against an independent engine.
fn check_against(reference: &Ziggy, text: &str, body: &str, etag: &str, out: &mut LoadResult) {
    match reference.characterize_cached(text) {
        Ok(o) => {
            if *o.cached.bytes_with_query(text) != *body {
                out.fail(format!("body differs from the reference for `{text}`"));
            }
            if o.cached.etag() != etag {
                out.fail(format!("ETag differs from the reference for `{text}`"));
            }
        }
        Err(e) => out.fail(format!("reference rejected `{text}`: {e}")),
    }
}

fn etag_of(h: &[(String, String)]) -> String {
    header(h, "etag").unwrap_or("").to_string()
}

/// A distinct-predicate (plus repeats) explorer against one table.
/// `before_step(i, tally)` runs before step `i` and ends the loop by
/// returning false.
fn explore(
    addr: SocketAddr,
    table: &str,
    preds: &[Pred],
    steps: &[Step],
    seed: u64,
    deadline: Instant,
    mut before_step: impl FnMut(usize, &mut Tally) -> bool,
) -> Tally {
    let path = format!("/tables/{table}/characterize");
    let mut client = connect(addr);
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut exhausted = true;
    for (i, step) in steps.iter().enumerate() {
        if Instant::now() >= deadline || !before_step(i, &mut tally) {
            exhausted = false;
            break;
        }
        let pred = &preds[step.pred];
        let class = match (step.repeat, pred.shape) {
            (true, _) => "repeat",
            (false, Shape::Conjunction) => "query_conj",
            (false, _) => "query_plain",
        };
        let body = query_body(&pred.text);
        if let Some((h, b)) = tally.characterize(&mut client, &path, &body, None, class) {
            if sampled(seed, i) && tally.kept.len() < BODY_SAMPLES {
                tally.kept.push((step.pred, b, etag_of(&h)));
            }
        }
    }
    if exhausted {
        tally
            .failures
            .push("op stream exhausted before the deadline".into());
    }
    tally.elapsed_s = start.elapsed().as_secs_f64();
    tally
}

/// Runs set-up `SETUPS` times, keeping the last instance for traffic.
fn timed_setups<T>(out: &mut LoadResult, mut setup: impl FnMut(&mut LoadResult, usize) -> T) -> T {
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let v = setup(out, k);
        out.setup_s.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    last.expect("at least one set-up")
}

/// A server that shuts down (joining its threads) when dropped.
struct Served(Option<ServerHandle>);

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            s.shutdown();
        }
    }
}

impl Served {
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running").local_addr()
    }
}

fn first_report(out: &mut LoadResult, addr: SocketAddr, table: &str, text: &str) {
    let mut c = connect(addr);
    let path = format!("/tables/{table}/characterize");
    match c.request("POST", &path, Some(&query_body(text))) {
        Ok((200, _)) => {}
        Ok((s, b)) => out.fail(format!("set-up report: status {s}: {b:.200}")),
        Err(e) => out.fail(format!("set-up report: {e}")),
    }
}

pub fn run(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> LoadResult {
    match w {
        Workload::ExploreWide => explore_wide(seed, seconds),
        Workload::ExploreTall => explore_tall(seed, seconds),
        Workload::AppendExplore => append_explore(seed, seconds, scratch),
        Workload::HotFleet => hot_fleet(seed, seconds),
    }
}

fn explore_wide(seed: u64, seconds: f64) -> LoadResult {
    let mut out = LoadResult::default();
    let csv = gen::crime_csv();
    let table = Arc::new(read_csv_str(&csv, &CsvOptions::default()).expect("crime CSV"));
    let preds = gen::predicates(&table, seed, distinct_budget(seconds, 500.0));
    let steps = gen::explore_stream(seed, &preds, 0);
    let body = ingest_body("crime", &csv);
    let server = timed_setups(&mut out, |out, _| {
        let s = Served(Some(
            serve("127.0.0.1:0", ServeOptions::default()).expect("bind"),
        ));
        let status = ingest(&mut connect(s.addr()), &body);
        assert_eq!(status, 201, "crime ingest");
        first_report(out, s.addr(), "crime", &preds[0].text);
        s
    });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tally = explore(
        server.addr(),
        "crime",
        &preds,
        &steps,
        seed,
        deadline,
        |_, _| true,
    );
    let kept = std::mem::take(&mut tally.kept);
    out.absorb(tally);
    drop(server);
    let reference = Ziggy::shared(table, ZiggyConfig::default());
    for (p, b, e) in &kept {
        check_against(&reference, &preds[*p].text, b, e, &mut out);
    }
    out
}

fn explore_tall(seed: u64, seconds: f64) -> LoadResult {
    let mut out = LoadResult::default();
    let table = Arc::new(gen::tall_table());
    let preds = gen::predicates(&table, seed, distinct_budget(seconds, 20.0));
    let steps = gen::explore_stream(seed, &preds, TALL_REPEATS_PER_4);
    let server = timed_setups(&mut out, |out, _| {
        let s = Served(Some(
            serve("127.0.0.1:0", ServeOptions::default()).expect("bind"),
        ));
        let state = s.0.as_ref().expect("running").state();
        state
            .registry
            .insert_table("tall", (*table).clone(), state.config.clone())
            .expect("register the tall table");
        first_report(out, s.addr(), "tall", &preds[0].text);
        s
    });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut tally = explore(
        server.addr(),
        "tall",
        &preds,
        &steps,
        seed,
        deadline,
        |_, _| true,
    );
    let kept = std::mem::take(&mut tally.kept);
    out.absorb(tally);
    drop(server);
    let reference = Ziggy::shared(table, ZiggyConfig::default());
    for (p, b, e) in &kept {
        check_against(&reference, &preds[*p].text, b, e, &mut out);
    }
    out
}

/// Rows a characterize body says its table had (`n_inside + n_outside`).
fn rows_of(body: &str) -> Option<usize> {
    let v = serde_json::from_str_value(body).ok()?;
    let n = |k| util::field(&v, k).and_then(util::as_f64);
    Some((n("n_inside")? + n("n_outside")?) as usize)
}

fn append_explore(seed: u64, seconds: f64, scratch: &Path) -> LoadResult {
    let mut out = LoadResult::default();
    let base_csv = gen::append_base_csv();
    let base = Arc::new(read_csv_str(&base_csv, &CsvOptions::default()).expect("base CSV"));
    let preds = gen::predicates(&base, seed, distinct_budget(seconds, 200.0));
    let steps = gen::explore_stream(seed, &preds[..preds.len() - 1], 0);
    let batches = Batches::new(seed);
    let body = ingest_body("events", &base_csv);
    drop(base);
    let server = timed_setups(&mut out, |out, k| {
        let options = ServeOptions {
            data_dir: Some(scratch.join(format!("setup-{k}"))),
            durability: DurabilityMode::Batch,
            ..ServeOptions::default()
        };
        let s = Served(Some(serve("127.0.0.1:0", options).expect("bind")));
        let status = ingest(&mut connect(s.addr()), &body);
        assert_eq!(status, 201, "events ingest");
        first_report(out, s.addr(), "events", &preds[0].text);
        s
    });
    drop(body);
    let addr = server.addr();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Two clients taking turns: the appender's connection sends one batch
    // after every `QUERIES_PER_APPEND` queries of the explorer's. Side by
    // side on two vCPUs the two would contend for the cores, and the query
    // median would measure the host's scheduler more than the engine.
    let mut appender = connect(addr);
    let mut acked: Vec<String> = Vec::new();
    let append = |i: usize, tally: &mut Tally| {
        if i == 0 || !i.is_multiple_of(gen::QUERIES_PER_APPEND) {
            return true;
        }
        let rows = batches.batch(acked.len());
        let body =
            serde_json::to_string(&Value::Object(vec![("rows".into(), util::string(&rows))]))
                .expect("strings serialize");
        tally.attempted += 1;
        let t = Instant::now();
        match appender.request("POST", "/tables/events/rows", Some(&body)) {
            Ok((200, _)) => {
                tally.samples.entry("append").or_default().push(ms_since(t));
                acked.push(rows);
                true
            }
            Ok((s, b)) => {
                tally.failures.push(format!("append: status {s}: {b:.200}"));
                false
            }
            Err(e) => {
                tally.failures.push(format!("append: {e}"));
                false
            }
        }
    };
    let mut tally = explore(addr, "events", &preds, &steps, seed, deadline, append);
    let kept = std::mem::take(&mut tally.kept);
    out.absorb(tally);

    // Every acknowledged append is in the export, in order.
    let version_csv = |k: usize| {
        acked[..k]
            .iter()
            .fold(base_csv.clone(), |csv, rows| combine_csv(&csv, rows))
    };
    let final_csv = version_csv(acked.len());
    let exported = connect(addr)
        .request("GET", "/tables/events/csv", None)
        .ok()
        .and_then(|(s, b)| (s == 200).then_some(b))
        .and_then(|b| serde_json::from_str_value(&b).ok())
        .and_then(|v| match util::field(&v, "csv") {
            Some(Value::String(s)) => Some(s.clone()),
            _ => None,
        });
    if exported.as_deref() != Some(final_csv.as_str()) {
        out.fail("exported CSV is not the base plus every acknowledged append".into());
    }
    drop(exported);

    // Sampled query bodies, each against a cold engine over the table
    // version that answered it.
    for (p, b, e) in kept.iter().take(1) {
        let version = rows_of(b)
            .map(|rows| (rows - gen::APPEND_BASE_ROWS) / gen::APPEND_BATCH_ROWS)
            .filter(|&v| v <= acked.len());
        match version {
            Some(v) => check_against(
                &cold_engine(&version_csv(v)),
                &preds[*p].text,
                b,
                e,
                &mut out,
            ),
            None => out.fail("sampled body names an unknown table version".into()),
        }
    }

    // A cold ingest of the final CSV reproduces the final report.
    let last = &preds[preds.len() - 1].text;
    match connect(addr).request_with_headers(
        "POST",
        "/tables/events/characterize",
        &[],
        Some(&query_body(last)),
    ) {
        Ok((200, h, b)) => {
            check_against(&cold_engine(&final_csv), last, &b, &etag_of(&h), &mut out)
        }
        other => out.fail(format!("final report failed: {:?}", other.map(|r| r.0))),
    }
    out
}

fn cold_engine(csv: &str) -> Ziggy {
    let table = read_csv_str(csv, &CsvOptions::default()).expect("exported CSV parses");
    Ziggy::shared(Arc::new(table), ZiggyConfig::default())
}

/// A router over two backends; shuts the router down, then the
/// backends, when dropped.
struct Fleet {
    router: Option<FleetHandle>,
    backends: Vec<Served>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(r) = self.router.take() {
            r.shutdown();
        }
    }
}

impl Fleet {
    fn addr(&self) -> SocketAddr {
        self.router.as_ref().expect("running").local_addr()
    }
}

fn hot_fleet(seed: u64, seconds: f64) -> LoadResult {
    let mut out = LoadResult::default();
    let csv = gen::crime_csv();
    let table = Arc::new(read_csv_str(&csv, &CsvOptions::default()).expect("crime CSV"));
    let preds = gen::predicates(&table, seed, HOT_SET);
    let bodies: Vec<String> = preds.iter().map(|p| query_body(&p.text)).collect();
    let body = ingest_body("crime", &csv);
    let fleet = timed_setups(&mut out, |out, _| {
        let backends: Vec<Served> = (0..2)
            .map(|_| {
                Served(Some(
                    serve("127.0.0.1:0", ServeOptions::default()).expect("bind"),
                ))
            })
            .collect();
        let ids = backends
            .iter()
            .enumerate()
            .map(|(i, b)| (format!("b{i}"), b.addr()))
            .collect();
        let options = FleetOptions {
            replication: 2,
            ..FleetOptions::default()
        };
        let router = start_fleet("127.0.0.1:0", ids, options).expect("bind router");
        let fleet = Fleet {
            router: Some(router),
            backends,
        };
        let status = ingest(&mut connect(fleet.addr()), &body);
        assert_eq!(status, 201, "crime ingest via the router");
        first_report(out, fleet.addr(), "crime", &preds[0].text);
        fleet
    });

    // Warm the hot set on both replicas; router and direct bodies must
    // agree byte for byte, and with the reference engine.
    let path = "/tables/crime/characterize";
    let reference = Ziggy::shared(table, ZiggyConfig::default());
    let mut expected: Vec<(String, String)> = Vec::new();
    for (i, p) in preds.iter().enumerate() {
        let mut seen: Vec<(String, String)> = Vec::new();
        for addr in fleet
            .backends
            .iter()
            .map(Served::addr)
            .chain([fleet.addr()])
        {
            match connect(addr).request_with_headers("POST", path, &[], Some(&bodies[i])) {
                Ok((200, h, b)) => seen.push((b, etag_of(&h))),
                other => out.fail(format!("warm-up failed: {:?}", other.map(|r| r.0))),
            }
        }
        if seen.windows(2).any(|w| w[0] != w[1]) {
            out.fail(format!("replica or router bodies differ for `{}`", p.text));
        }
        let (b, e) = seen.into_iter().next().unwrap_or_default();
        check_against(&reference, &p.text, &b, &e, &mut out);
        expected.push((b, e));
    }

    let steps = gen::hot_stream(seed, HOT_SET, 1 << 16);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let addr = fleet.addr();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let (steps, bodies, expected) = (&steps, &bodies, &expected);
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut tally = Tally::default();
                    let mut think = gen::Rng::new(seed ^ (c as u64 + 1));
                    let start = Instant::now();
                    let mut i = c * steps.len() / 2;
                    while Instant::now() < deadline {
                        // Seeded think time, so requests arrive at random
                        // phases of the servers' idle-poll cycle instead
                        // of locking onto it.
                        std::thread::sleep(Duration::from_micros(think.below(THINK_MAX_US) as u64));
                        let step = steps[i % steps.len()];
                        i += 1;
                        let (want_body, tag) = &expected[step.pred];
                        let body = &bodies[step.pred];
                        if step.revalidate {
                            tally.characterize(&mut client, path, body, Some(tag), "revalidate");
                        } else if let Some((h, b)) =
                            tally.characterize(&mut client, path, body, None, "repeat")
                        {
                            if b != *want_body || etag_of(&h) != *tag {
                                tally.failures.push("repeat: wrong bytes".into());
                            }
                        }
                    }
                    tally.elapsed_s = start.elapsed().as_secs_f64();
                    tally
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    for t in tallies {
        out.absorb(t);
    }

    // A 304 answers only a matching tag: a stale tag gets the body.
    let mut client = connect(addr);
    for (i, (want_body, _)) in expected.iter().enumerate() {
        let stale = [("If-None-Match", "\"0000000000000000\"")];
        match client.request_with_headers("POST", path, &stale, Some(&bodies[i])) {
            Ok((200, _, b)) if b == *want_body => {}
            other => out.fail(format!(
                "stale tag not answered in full: {:?}",
                other.map(|r| r.0)
            )),
        }
    }
    out
}

/// Scratch directory for one run, inside the checkout; removed on drop.
pub struct Scratch(pub PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
