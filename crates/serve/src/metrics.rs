//! Request counters, latency histograms, and the one list of metric
//! families per process behind both `/metrics` formats.
//!
//! A [`Family`] declares one metric: its Prometheus name and kind, where
//! it sits in the JSON document (the path's placeholders are its
//! labels), and a read function that yields its samples from the process
//! state. [`render_prometheus`] and [`render_json`] walk the same list,
//! so every family appears in both formats. The serve node's list is
//! [`SERVE_FAMILIES`]; the fleet router declares its own over its state.
//!
//! # JSON paths
//!
//! A path is a dotted list of keys. `{label}` inside a key is replaced
//! by that label's value, so `dataplane.pools.{backend}.{state}` nests
//! objects keyed by label. `key[field={label}]` makes `key` an array of
//! objects and picks the element whose `field` equals the label value,
//! appending it if absent: `tables[name={table}].cache.hits`. A family
//! with no samples renders nothing, except that the container above a
//! path's first placeholder still renders empty (`"tables": []` on a
//! server with no tables). So the WAL families vanish from both formats
//! when no data directory is set.

use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{Number, Value};
use ziggy_core::StageTimings;
use ziggy_durable::DurableLog;
use ziggy_obs::hist::{BUCKET_BOUNDS_US, FINITE_BUCKETS};
use ziggy_obs::{Histogram, HistogramSnapshot, PromDoc, RouteHistograms};

use crate::registry::TableEntry;
use crate::router::ServeState;

/// Route-label keys for the per-route latency histograms. Every request
/// maps onto exactly one of these (bounded cardinality by construction —
/// table and session names never become labels).
pub const ROUTE_KEYS: &[&str] = &[
    "healthz",
    "metrics",
    "tables",
    "characterize",
    "rows",
    "csv",
    "sessions",
    "session_step",
    "tombstones",
    "other",
];

/// Maps a request to its route-label key. Unknown paths all collapse
/// into `other` so hostile traffic cannot inflate label cardinality.
pub fn route_key(method: &str, path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        (_, ["healthz"]) => "healthz",
        (_, ["metrics"]) => "metrics",
        (_, ["tables"]) | (_, ["tables", _]) => "tables",
        (_, ["tables", _, "characterize"]) => "characterize",
        (_, ["tables", _, "rows"]) => "rows",
        (_, ["tables", _, "csv"]) => "csv",
        (_, ["sessions"]) | (_, ["sessions", _]) => "sessions",
        (_, ["sessions", _, "step"]) => "session_step",
        (_, ["tombstones"]) => "tombstones",
        _ => "other",
    }
}

fn num(n: u64) -> Value {
    Value::Number(Number::U(n))
}

/// One monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Server-wide metrics, shared by all worker threads.
///
/// Everything is a relaxed atomic: the numbers are operational telemetry,
/// not synchronization.
#[derive(Debug)]
pub struct Metrics {
    /// HTTP requests that parsed and reached the router. (Requests so
    /// malformed the HTTP layer rejected them with 400 never get here.)
    pub requests_total: Counter,
    /// Routed requests answered with a 4xx/5xx status.
    pub errors_total: Counter,
    /// `POST /tables` requests that created a table.
    pub tables_created: Counter,
    /// `GET /tables` listings served.
    pub tables_listed: Counter,
    /// `DELETE /tables/{name}` requests that dropped a table.
    pub tables_deleted: Counter,
    /// `POST /tables/{name}/rows` requests that appended rows.
    pub appends: Counter,
    /// Total rows appended across all append requests.
    pub rows_appended: Counter,
    /// Characterizations served (direct and via session steps),
    /// including ones answered from the report cache.
    pub characterizations: Counter,
    /// Characterizations answered from the report cache — no search, no
    /// post-processing, no serialization (and no stage timings recorded,
    /// since those only meter pipeline runs).
    pub report_cache_hits: Counter,
    /// Characterize requests answered `304 Not Modified` because the
    /// client's `If-None-Match` matched the report's `ETag` (a subset of
    /// `report_cache_hits` plus revalidations of fresh builds).
    pub not_modified_total: Counter,
    /// Sessions created.
    pub sessions_created: Counter,
    /// Session steps served.
    pub session_steps: Counter,
    /// Sessions closed — explicitly via `DELETE /sessions/{id}` or
    /// cascaded from `DELETE /tables/{name}`.
    pub sessions_deleted: Counter,
    /// Requests refused with 429 by the per-client rate limiter (these
    /// never reach the router, so they are not in `requests_total`).
    pub rate_limited: Counter,
    /// Per-route request latency, keyed by [`ROUTE_KEYS`].
    pub route_latency: RouteHistograms,
    /// Distribution of the preparation stage over pipeline runs; its
    /// sum is the JSON `stage_timings_us.preparation`.
    pub preparation_hist: Histogram,
    /// Distribution of the view-search stage over pipeline runs.
    pub view_search_hist: Histogram,
    /// Distribution of the post-processing stage over pipeline runs.
    pub post_processing_hist: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            requests_total: Counter::default(),
            errors_total: Counter::default(),
            tables_created: Counter::default(),
            tables_listed: Counter::default(),
            tables_deleted: Counter::default(),
            appends: Counter::default(),
            rows_appended: Counter::default(),
            characterizations: Counter::default(),
            report_cache_hits: Counter::default(),
            not_modified_total: Counter::default(),
            sessions_created: Counter::default(),
            session_steps: Counter::default(),
            sessions_deleted: Counter::default(),
            rate_limited: Counter::default(),
            route_latency: RouteHistograms::new(ROUTE_KEYS),
            preparation_hist: Histogram::new(),
            view_search_hist: Histogram::new(),
            post_processing_hist: Histogram::new(),
        }
    }
}

impl Metrics {
    /// Folds one characterization's stage timings into the per-stage
    /// distributions.
    pub fn record_characterization(&self, t: &StageTimings) {
        self.characterizations.inc();
        self.preparation_hist.record_us(t.preparation_us);
        self.view_search_hist.record_us(t.view_search_us);
        self.post_processing_hist.record_us(t.post_processing_us);
    }

    /// Records a characterization served from the report cache. The
    /// stage distributions are left alone on purpose: a cached report's
    /// embedded timings describe the original build, and re-adding them
    /// would misreport work the server never did.
    pub fn record_cached_characterization(&self) {
        self.characterizations.inc();
        self.report_cache_hits.inc();
    }
}

/// How a family renders in each format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count: a Prometheus counter, a JSON integer.
    Counter,
    /// A point-in-time value: a Prometheus gauge, a JSON number.
    Gauge,
    /// A constant-1 gauge whose one label carries the information
    /// (`ziggy_build_info{version}`); JSON holds the label's value.
    Info,
    /// A latency distribution: a Prometheus histogram in seconds; JSON
    /// holds the given digest of it.
    Histogram(Digest),
}

/// What a histogram family puts in the JSON document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Digest {
    /// The sum of all observations, µs.
    SumUs,
    /// The estimated 99th percentile, µs (0 when empty).
    P99Us,
    /// The retained trace exemplars, one `{le_us, trace_id, value_us}`
    /// per bucket that saw a traced sample (`le_us` is `"+Inf"` for the
    /// overflow bucket); nothing when no bucket holds one. These are the
    /// trace links Prometheus carries as `# {trace_id="…"}` trailers.
    Exemplars,
}

impl Digest {
    fn json(self, h: &HistogramSnapshot) -> Option<Value> {
        match self {
            Digest::SumUs => Some(num(h.sum_us)),
            Digest::P99Us => Some(num(h.quantile_us(0.99).unwrap_or(0))),
            Digest::Exemplars => {
                let entries: Vec<Value> = h
                    .exemplars
                    .iter()
                    .enumerate()
                    .filter_map(|(i, slot)| slot.as_ref().map(|e| (i, e)))
                    .map(|(i, e)| {
                        let le = if i < FINITE_BUCKETS {
                            num(BUCKET_BOUNDS_US[i])
                        } else {
                            Value::String("+Inf".into())
                        };
                        Value::Object(vec![
                            ("le_us".into(), le),
                            ("trace_id".into(), Value::String(e.trace_id.clone())),
                            ("value_us".into(), num(e.value_us)),
                        ])
                    })
                    .collect();
                (!entries.is_empty()).then_some(Value::Array(entries))
            }
        }
    }
}

/// One sample's value.
#[derive(Debug, Clone)]
pub enum Sample {
    /// A count or size: an integer in both formats.
    U(u64),
    /// A real number.
    F(f64),
    /// A duration: integer µs in JSON, seconds in Prometheus.
    Us(u64),
    /// A histogram snapshot on the µs ladder.
    Hist(HistogramSnapshot),
}

impl From<u64> for Sample {
    fn from(v: u64) -> Self {
        Sample::U(v)
    }
}

impl From<&AtomicU64> for Sample {
    fn from(v: &AtomicU64) -> Self {
        Sample::U(v.load(Ordering::Relaxed))
    }
}

impl From<&Counter> for Sample {
    fn from(c: &Counter) -> Self {
        Sample::U(c.get())
    }
}

/// A family's samples: label values, in the family's label order, and
/// the value.
pub type Rows = Vec<(Vec<String>, Sample)>;

/// One metric family, declared once for both formats (see the module
/// docs for the JSON path syntax). Its Prometheus labels are the path's
/// placeholders, in order; a [`Kind::Info`] family's one label is named
/// after the last key of its path.
pub struct Family<S: 'static> {
    /// Prometheus family name.
    pub name: &'static str,
    /// Prometheus type and JSON rendering.
    pub kind: Kind,
    /// Where each sample sits in the JSON document.
    pub json: &'static str,
    /// Label values renamed where they become JSON keys, as
    /// `(label value, JSON key)`.
    pub json_keys: &'static [(&'static str, &'static str)],
    /// Yields the samples; none when the source is missing.
    pub read: fn(&S) -> Rows,
}

const fn family<S>(
    name: &'static str,
    kind: Kind,
    json: &'static str,
    read: fn(&S) -> Rows,
) -> Family<S> {
    Family {
        name,
        kind,
        json,
        json_keys: &[],
        read,
    }
}

/// A [`Kind::Counter`] family.
pub const fn counter<S>(name: &'static str, json: &'static str, read: fn(&S) -> Rows) -> Family<S> {
    family(name, Kind::Counter, json, read)
}

/// A [`Kind::Gauge`] family.
pub const fn gauge<S>(name: &'static str, json: &'static str, read: fn(&S) -> Rows) -> Family<S> {
    family(name, Kind::Gauge, json, read)
}

/// A [`Kind::Info`] family; `read` yields its label value with [`text`].
pub const fn info<S>(name: &'static str, json: &'static str, read: fn(&S) -> Rows) -> Family<S> {
    family(name, Kind::Info, json, read)
}

/// A [`Kind::Histogram`] family with the given JSON digest.
pub const fn histogram<S>(
    name: &'static str,
    digest: Digest,
    json: &'static str,
    read: fn(&S) -> Rows,
) -> Family<S> {
    family(name, Kind::Histogram(digest), json, read)
}

impl<S> Family<S> {
    /// Renames label values where they become JSON keys.
    pub const fn with_json_keys(self, json_keys: &'static [(&'static str, &'static str)]) -> Self {
        Self { json_keys, ..self }
    }

    /// The Prometheus label names, in the order [`Family::read`] yields
    /// their values.
    pub fn labels(&self) -> Vec<&'static str> {
        if self.kind == Kind::Info {
            return self.json.rsplit('.').take(1).collect();
        }
        let placeholders = self.json.split('{').skip(1);
        placeholders
            .filter_map(|p| p.split_once('}'))
            .map(|(name, _)| name)
            .collect()
    }

    fn json_key<'a>(&self, value: &'a str) -> &'a str {
        self.json_keys
            .iter()
            .find(|(from, _)| *from == value)
            .map_or(value, |(_, to)| to)
    }

    fn json_value(&self, values: &[String], sample: &Sample) -> Option<Value> {
        match (self.kind, sample) {
            (Kind::Info, _) => values.first().map(|v| Value::String(v.clone())),
            (Kind::Histogram(digest), Sample::Hist(h)) => digest.json(h),
            (_, Sample::U(v) | Sample::Us(v)) => Some(num(*v)),
            (_, Sample::F(v)) => Some(Value::Number(Number::F(*v))),
            (_, Sample::Hist(_)) => None,
        }
    }
}

/// One unlabelled sample.
pub fn one(value: impl Into<Sample>) -> Rows {
    vec![(Vec::new(), value.into())]
}

/// The one sample of an [`info`] family: its label's value.
pub fn text(value: &str) -> Rows {
    vec![(vec![value.to_string()], Sample::U(1))]
}

/// Rows for a one-label family: one per item whose value is present.
pub fn by_label<'a, T>(
    items: impl IntoIterator<Item = (&'a str, T)>,
    read: impl Fn(T) -> Option<Sample>,
) -> Rows {
    items
        .into_iter()
        .filter_map(|(label, item)| read(item).map(|v| (vec![label.to_string()], v)))
        .collect()
}

/// A histogram's snapshot, or `None` while it has no observations.
pub fn nonempty(h: &Histogram) -> Option<Sample> {
    (h.count() > 0).then(|| Sample::Hist(h.snapshot()))
}

/// Renders `families` as a Prometheus document. Histogram buckets are
/// cumulative and expressed in seconds.
pub fn render_prometheus<S>(families: &[Family<S>], state: &S) -> PromDoc {
    let mut doc = PromDoc::new();
    for f in families {
        let names = f.labels();
        for (values, sample) in (f.read)(state) {
            let labels: Vec<(&str, &str)> = names
                .iter()
                .copied()
                .zip(values.iter().map(String::as_str))
                .collect();
            match (f.kind, &sample) {
                (Kind::Counter, Sample::U(v)) => doc.counter(f.name, &labels, *v),
                (Kind::Info, _) => doc.gauge(f.name, &labels, 1.0),
                (Kind::Histogram(_), Sample::Hist(h)) => doc.histogram_us(f.name, &labels, h),
                (_, Sample::U(v)) => doc.gauge(f.name, &labels, *v as f64),
                (_, Sample::F(v)) => doc.gauge(f.name, &labels, *v),
                (_, Sample::Us(v)) => doc.gauge(f.name, &labels, *v as f64 / 1e6),
                (_, Sample::Hist(_)) => {}
            }
        }
    }
    doc
}

/// Renders `families` as the JSON `/metrics` document.
pub fn render_json<S>(families: &[Family<S>], state: &S) -> Value {
    let mut doc = Value::Object(Vec::new());
    for f in families {
        ensure_container(&mut doc, f.json);
        let names = f.labels();
        for (values, sample) in (f.read)(state) {
            let Some(value) = f.json_value(&values, &sample) else {
                continue;
            };
            let labels: Vec<(&str, &str)> = names
                .iter()
                .zip(&values)
                .map(|(&name, v)| (name, f.json_key(v)))
                .collect();
            put_json(&mut doc, f.json, &labels, value);
        }
    }
    doc
}

/// Sets `value` at `path` in `doc`, filling the path's placeholders
/// from `labels` and creating the objects and array elements on the
/// way. A key that is already set keeps its value.
pub fn put_json(doc: &mut Value, path: &str, labels: &[(&str, &str)], value: Value) {
    let segments: Vec<&str> = path.split('.').collect();
    let (last, parents) = segments.split_last().expect("split yields one segment");
    let mut node = doc;
    for segment in parents {
        let Value::Object(pairs) = node else { return };
        node = match segment.split_once('[') {
            None => slot(pairs, &fill(segment, labels), Value::Object(Vec::new())),
            Some((key, selector)) => {
                let (field, id) = selector
                    .trim_end_matches(']')
                    .split_once('=')
                    .expect("field=value");
                let Value::Array(items) = slot(pairs, &fill(key, labels), Value::Array(Vec::new()))
                else {
                    return;
                };
                let id = fill(id, labels);
                let i = find_or_push(
                    items,
                    |v| v.get(field).and_then(Value::as_str) == Some(&id),
                    || Value::Object(vec![(field.to_string(), Value::String(id.clone()))]),
                );
                &mut items[i]
            }
        };
    }
    if let Value::Object(pairs) = node {
        slot(pairs, &fill(last, labels), value);
    }
}

/// Creates the (empty) container above `path`'s first placeholder.
fn ensure_container(doc: &mut Value, path: &str) {
    let segments: Vec<&str> = path.split('.').collect();
    let Some(first) = segments.iter().position(|s| s.contains('{')) else {
        return;
    };
    let mut prefix = segments[..first].to_vec();
    let empty = match segments[first].split_once('[') {
        Some((key, _)) if !key.contains('{') => {
            prefix.push(key);
            Value::Array(Vec::new())
        }
        _ => Value::Object(Vec::new()),
    };
    if !prefix.is_empty() {
        put_json(doc, &prefix.join("."), &[], empty);
    }
}

fn fill(template: &str, labels: &[(&str, &str)]) -> String {
    let mut out = template.to_string();
    for (name, value) in labels {
        out = out.replace(&format!("{{{name}}}"), value);
    }
    out
}

fn slot<'a>(pairs: &'a mut Vec<(String, Value)>, key: &str, empty: Value) -> &'a mut Value {
    let i = find_or_push(pairs, |(k, _)| k == key, || (key.to_string(), empty));
    &mut pairs[i].1
}

/// The index of the first item that `matches`, appending `new()` when
/// none does.
fn find_or_push<T>(
    items: &mut Vec<T>,
    matches: impl Fn(&T) -> bool,
    new: impl FnOnce() -> T,
) -> usize {
    items.iter().position(matches).unwrap_or_else(|| {
        items.push(new());
        items.len() - 1
    })
}

/// One table's values of a family with a second label, as `(label
/// value, value)`; `None` values are left out.
type TableValues<const N: usize> = [(&'static str, Option<u64>); N];

/// Rows for a per-table family with a second label.
fn per_table<const N: usize>(s: &ServeState, read: fn(&TableEntry) -> TableValues<N>) -> Rows {
    let mut rows = Vec::new();
    for e in s.registry.entries() {
        for (label, value) in read(&e) {
            if let Some(v) = value {
                rows.push((vec![e.name().to_string(), label.to_string()], v.into()));
            }
        }
    }
    rows
}

/// One column of a table's caches: the three reuse levels — `stats`
/// is the whole-table moment/frequency cache, `prepared` the per-query
/// `PreparedStats` cache (its misses count how often preparation ran),
/// `report` the finished-report cache (its hits skipped search,
/// post-processing and serialization) — and `mask`, the predicate →
/// mask memo in front of the report cache (its misses count predicate
/// evaluations). Columns: hits, misses, evictions (none for `stats`),
/// entries.
fn level(e: &TableEntry, column: usize) -> TableValues<4> {
    let engine = e.engine();
    let (prepared, reports, masks) = (
        engine.prepared_cache(),
        engine.report_cache(),
        engine.mask_memo(),
    );
    let (s, p, r, m) = (
        e.cache().counters(),
        prepared.counters(),
        reports.counters(),
        masks.counters(),
    );
    let (uni, pair, freq) = e.cache().sizes();
    let stats = [s.hits, s.misses, 0, (uni + pair + freq) as u64];
    let p = [p.hits, p.misses, p.evictions, prepared.len() as u64];
    let r = [r.hits, r.misses, r.evictions, reports.len() as u64];
    let m = [m.hits, m.misses, m.evictions, masks.len() as u64];
    let stats = (column != EVICTIONS).then_some(stats[column]);
    [
        ("stats", stats),
        ("prepared", Some(p[column])),
        ("report", Some(r[column])),
        ("mask", Some(m[column])),
    ]
}

const HITS: usize = 0;
const MISSES: usize = 1;
const EVICTIONS: usize = 2;
const ENTRIES: usize = 3;

/// JSON keys of the reuse levels.
const LEVEL_KEYS: &[(&str, &str)] = &[("stats", "cache"), ("report", "reports"), ("mask", "masks")];

fn wal(s: &ServeState, read: fn(&DurableLog) -> Sample) -> Rows {
    s.registry
        .durable()
        .map(|log| one(read(&log)))
        .unwrap_or_default()
}

/// The serve node's metric families.
#[rustfmt::skip]
pub static SERVE_FAMILIES: &[Family<ServeState>] = &[
    counter("ziggy_requests_total", "requests.total", |s| one(&s.metrics.requests_total)),
    counter("ziggy_errors_total", "requests.errors", |s| one(&s.metrics.errors_total)),
    counter("ziggy_tables_created_total", "requests.tables_created",
        |s| one(&s.metrics.tables_created)),
    counter("ziggy_tables_listed_total", "requests.tables_listed",
        |s| one(&s.metrics.tables_listed)),
    counter("ziggy_tables_deleted_total", "requests.tables_deleted",
        |s| one(&s.metrics.tables_deleted)),
    counter("ziggy_appends_total", "requests.appends", |s| one(&s.metrics.appends)),
    counter("ziggy_rows_appended_total", "requests.rows_appended",
        |s| one(&s.metrics.rows_appended)),
    counter("ziggy_characterizations_total", "requests.characterizations",
        |s| one(&s.metrics.characterizations)),
    counter("ziggy_report_cache_hits_total", "requests.report_cache_hits",
        |s| one(&s.metrics.report_cache_hits)),
    counter("ziggy_not_modified_total", "requests.not_modified",
        |s| one(&s.metrics.not_modified_total)),
    counter("ziggy_sessions_created_total", "requests.sessions_created",
        |s| one(&s.metrics.sessions_created)),
    counter("ziggy_session_steps_total", "requests.session_steps",
        |s| one(&s.metrics.session_steps)),
    counter("ziggy_sessions_deleted_total", "requests.sessions_deleted",
        |s| one(&s.metrics.sessions_deleted)),
    counter("ziggy_rate_limited_total", "requests.rate_limited",
        |s| one(&s.metrics.rate_limited)),
    counter("ziggy_sessions_expired_total", "requests.sessions_expired",
        |s| one(s.sessions.expired_total())),
    histogram("ziggy_stage_duration_seconds", Digest::SumUs, "stage_timings_us.{stage}",
        |s: &ServeState| {
            let m = &s.metrics;
            let stages = [("prepare", &m.preparation_hist), ("view_search", &m.view_search_hist),
                ("post_process", &m.post_processing_hist)];
            by_label(stages, |h| Some(Sample::Hist(h.snapshot())))
        })
        .with_json_keys(&[("prepare", "preparation"), ("post_process", "post_processing")]),
    counter("ziggy_table_zone_chunks_total", "tables[name={table}].zone_maps.chunks_{outcome}",
        |s| per_table(s, |e| {
            let (skipped, filled, scanned) = e.cache().zone_maps().counters();
            [("skipped", Some(skipped)), ("filled", Some(filled)), ("scanned", Some(scanned))]
        })),
    counter("ziggy_table_cache_hits_total", "tables[name={table}].{level}.hits",
        |s| per_table(s, |e| level(e, HITS))).with_json_keys(LEVEL_KEYS),
    counter("ziggy_table_cache_misses_total", "tables[name={table}].{level}.misses",
        |s| per_table(s, |e| level(e, MISSES))).with_json_keys(LEVEL_KEYS),
    counter("ziggy_table_cache_evictions_total", "tables[name={table}].{level}.evictions",
        |s| per_table(s, |e| level(e, EVICTIONS))).with_json_keys(LEVEL_KEYS),
    gauge("ziggy_table_cache_entries", "tables[name={table}].{level}.entries",
        |s| per_table(s, |e| level(e, ENTRIES))).with_json_keys(LEVEL_KEYS),
    histogram("ziggy_request_duration_seconds", Digest::Exemplars, "latency_exemplars.{route}",
        |s| by_label(s.metrics.route_latency.iter(), nonempty)),
    gauge("ziggy_uptime_seconds", "uptime_seconds",
        |s| one(Sample::F(s.started.elapsed().as_secs_f64()))),
    info("ziggy_build_info", "version", |_| text(env!("CARGO_PKG_VERSION"))),
    info("ziggy_durable_mode_info", "durable.mode",
        |s| s.registry.durable().map(|log| text(log.mode().as_str())).unwrap_or_default()),
    counter("ziggy_durable_records_total", "durable.records",
        |s| wal(s, |l| (&l.metrics().records).into())),
    counter("ziggy_durable_fsyncs_total", "durable.fsyncs",
        |s| wal(s, |l| (&l.metrics().fsyncs).into())),
    counter("ziggy_durable_group_commits_total", "durable.group_commits",
        |s| wal(s, |l| (&l.metrics().group_commits).into())),
    counter("ziggy_durable_snapshots_total", "durable.snapshots",
        |s| wal(s, |l| (&l.metrics().snapshots).into())),
    counter("ziggy_durable_segments_compacted_total", "durable.segments_compacted",
        |s| wal(s, |l| (&l.metrics().segments_compacted).into())),
    counter("ziggy_durable_torn_records_total", "durable.torn_records",
        |s| wal(s, |l| (&l.metrics().torn_records).into())),
    counter("ziggy_durable_snapshot_checksum_failures_total", "durable.snapshot_checksum_failures",
        |s| wal(s, |l| (&l.metrics().snapshot_checksum_failures).into())),
    gauge("ziggy_durable_async_lag_ms", "durable.async_lag_ms",
        |s| wal(s, |l| l.async_lag_ms().into())),
    gauge("ziggy_durable_replay_records", "durable.replay_records",
        |s| wal(s, |l| (&l.metrics().replay_records).into())),
    gauge("ziggy_durable_replay_seconds", "durable.replay_us",
        |s| wal(s, |l| Sample::Us(l.metrics().replay_us.load(Ordering::Relaxed)))),
    gauge("ziggy_durable_segments", "durable.segments",
        |s| wal(s, |l| (l.segment_count() as u64).into())),
    gauge("ziggy_durable_snapshot_lsn", "durable.snapshot_lsn",
        |s| wal(s, |l| l.snapshot_lsn().into())),
    histogram("ziggy_durable_append_duration_seconds", Digest::P99Us, "durable.append_p99_us",
        |s| wal(s, |l| Sample::Hist(l.metrics().append_latency.snapshot()))),
    histogram("ziggy_durable_fsync_duration_seconds", Digest::P99Us, "durable.fsync_p99_us",
        |s| wal(s, |l| Sample::Hist(l.metrics().fsync_latency.snapshot()))),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn timings() -> StageTimings {
        StageTimings {
            preparation_us: 10,
            view_search_us: 20,
            post_processing_us: 30,
        }
    }

    #[test]
    fn counters_accumulate() {
        let state = ServeState::default();
        let m = &state.metrics;
        m.requests_total.inc();
        m.requests_total.inc();
        m.record_characterization(&timings());
        assert_eq!(m.requests_total.get(), 2);
        assert_eq!(m.characterizations.get(), 1);
        assert_eq!(m.preparation_hist.sum_us(), 10);
        let json = serde_json::to_string(&render_json(SERVE_FAMILIES, &state)).unwrap();
        assert!(json.contains("\"total\":2"), "{json}");
        assert!(json.contains("\"preparation\":10"), "{json}");
        assert!(json.contains("\"post_processing\":30"), "{json}");
    }

    #[test]
    fn route_keys_have_bounded_cardinality() {
        for (method, path, want) in [
            ("GET", "/healthz", "healthz"),
            ("GET", "/metrics", "metrics"),
            ("POST", "/tables", "tables"),
            ("DELETE", "/tables/demo", "tables"),
            ("POST", "/tables/demo/characterize", "characterize"),
            ("POST", "/tables/demo/rows", "rows"),
            ("GET", "/tables/demo/csv", "csv"),
            ("POST", "/sessions", "sessions"),
            ("POST", "/sessions/7/step", "session_step"),
            ("GET", "/anything/else/at/all", "other"),
        ] {
            assert_eq!(route_key(method, path), want, "{method} {path}");
            assert!(ROUTE_KEYS.contains(&route_key(method, path)));
        }
    }

    #[test]
    fn prometheus_document_is_lint_clean() {
        let state = ServeState::default();
        let m = &state.metrics;
        m.requests_total.inc();
        m.route_latency.record_us("healthz", 1_250);
        m.record_characterization(&timings());
        let text = render_prometheus(SERVE_FAMILIES, &state).render();
        assert!(text.contains("ziggy_requests_total 1"), "{text}");
        assert!(
            text.contains("ziggy_request_duration_seconds_bucket{route=\"healthz\""),
            "{text}"
        );
        assert!(
            text.contains("ziggy_stage_duration_seconds_count{stage=\"prepare\"} 1"),
            "{text}"
        );
        let reparsed = PromDoc::parse(&text).unwrap();
        assert!(reparsed.lint().is_empty(), "{:?}", reparsed.lint());
    }

    #[test]
    fn json_paths_nest_by_label_and_select_array_elements() {
        let mut doc = Value::Object(Vec::new());
        ensure_container(&mut doc, "tables[name={table}].cache.hits");
        ensure_container(&mut doc, "pools.{backend}.{state}");
        ensure_container(&mut doc, "durable.records");
        assert_eq!(
            serde_json::to_string(&doc).unwrap(),
            r#"{"tables":[],"pools":{}}"#
        );
        let path = "tables[name={table}].cache.hits";
        put_json(&mut doc, path, &[("table", "a")], num(1));
        put_json(
            &mut doc,
            "tables[name={table}].cache.misses",
            &[("table", "a")],
            num(2),
        );
        put_json(&mut doc, path, &[("table", "b")], num(3));
        put_json(&mut doc, path, &[("table", "b")], num(9));
        let pool = [("backend", "s0"), ("state", "idle")];
        put_json(&mut doc, "pools.{backend}.{state}", &pool, num(4));
        assert_eq!(
            serde_json::to_string(&doc).unwrap(),
            r#"{"tables":[{"name":"a","cache":{"hits":1,"misses":2}},{"name":"b","cache":{"hits":3}}],"pools":{"s0":{"idle":4}}}"#
        );
    }
}
