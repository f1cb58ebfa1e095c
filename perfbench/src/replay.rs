//! The traced run: the workload's seeded op stream replayed in-process
//! through each layer's public functions, every call wrapped in a span
//! recorded by the benchmark itself (the program gains no spans).
//!
//! Each characterize op runs twice back to back, once traced and once
//! untraced, in alternating order; `trace.overhead_frac` compares their
//! medians. After the traced copy of a distinct op, the engine answers
//! the same mask and its report must match the replay's views, scores
//! and bytes (the replay fidelity check). The serve, fleet and durable
//! layers are timed by probes at the end: a prebuilt request through
//! `ziggy_serve::route`, the same request over HTTP direct and through
//! an in-process router, and the workload's append records through a
//! batch-mode `DurableLog`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ziggy_core::candidates::generate_candidates;
use ziggy_core::graph::{usable_columns, DependencyGraph};
use ziggy_core::prepare::prepare;
use ziggy_core::report::{CharacterizationReport, StageTimings, View, ViewReport};
use ziggy_core::robust::view_robustness;
use ziggy_core::search::search;
use ziggy_core::{explain, ReuseLevel, Ziggy, ZiggyConfig};
use ziggy_durable::{DurableLog, DurableOptions, Record};
use ziggy_fleet::{start_fleet, FleetOptions};
use ziggy_serve::http::{Client, Request};
use ziggy_serve::{route, serve, DurabilityMode, ServeOptions};
use ziggy_stats::{PairMoments, UniMoments};
use ziggy_store::csv::{read_csv_str, CsvOptions};
use ziggy_store::{
    append_rows_csv, eval, fnv1a_64, parse_predicate, run_indexed, Bitmask, ColumnType, StatsCache,
    Table, CHUNK_ROWS,
};

use crate::gen::{self, Batches, Pred, Step};
use crate::load::{HOT_SET, TALL_REPEATS_PER_4};
use crate::util::{self, query_body};
use crate::{Metric, Outcome, Workload};

/// Iterations of each serve/fleet probe.
const PROBE_ITERS: usize = 300;
/// Append records in the durable probe (and append probes elsewhere).
const PROBE_RECORDS: usize = 32;
/// Row budget of the standalone stats kernels per op.
const KERNEL_ROWS: usize = 4_000_000;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    /// Rows a kernel span processed (0 elsewhere).
    rows: u64,
}

/// In-memory span recorder; `on == false` makes every call a no-op so
/// the same replay code runs untraced.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    on: bool,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            on: true,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            rows: 0,
        };
        self.spans.push(span);
        self.stack.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.stack.pop().expect("balanced spans");
        self.spans[i].end_ns = self.now();
    }

    fn exit_rows(&mut self, rows: u64) {
        if let Some(&i) = self.stack.last().filter(|_| self.on) {
            self.spans[i].rows = rows;
        }
        self.exit();
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Nanoseconds per row over every span named `name`.
    fn ns_per_row(&self, name: &str) -> f64 {
        let (ns, rows) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, rows), s| {
                (ns + s.end_ns - s.start_ns, rows + s.rows)
            });
        ns as f64 / rows as f64
    }

    /// Self time (duration minus time covered by child spans) summed
    /// per layer, the part of a span name before its first dot; with
    /// `stream_only`, over the measured stream's ops alone.
    fn self_us_by_layer(&self, stream_only: bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            if stream_only && s.op == 0 {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e3;
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"rows\":{}}}",
                s.op,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.rows
            )
            .expect("write to a String");
        }
        std::fs::File::create(path)?.write_all(text.as_bytes())
    }
}

/// The engine state the replay runs against; replaced on every append.
struct Ctx {
    config: ZiggyConfig,
    table: Arc<Table>,
    cache: Arc<StatsCache>,
    graph: DependencyGraph,
    candidates: Vec<Vec<usize>>,
    /// The engine the replay is checked against, sharing `cache`.
    engine: Ziggy,
    /// Fixed sample of numeric column pairs for the pair kernel.
    kernel_pairs: Vec<(usize, usize)>,
    numeric: Vec<usize>,
}

impl Ctx {
    fn build(
        table: Arc<Table>,
        cache: Arc<StatsCache>,
        config: &ZiggyConfig,
        tr: &mut Tracer,
    ) -> Self {
        let usable = usable_columns(&table);
        tr.enter("core.graph");
        let graph = DependencyGraph::build(&cache, usable, config.dependence, config.mi_bins)
            .expect("dependency graph");
        tr.exit();
        tr.enter("core.candidates");
        let candidates = generate_candidates(&graph, config).expect("candidate views");
        tr.exit();
        let numeric: Vec<usize> = graph
            .columns()
            .iter()
            .copied()
            .filter(|&c| table.schema().column(c).map(|m| m.ctype) == Some(ColumnType::Numeric))
            .collect();
        let budget = (KERNEL_ROWS / table.n_rows()).max(1);
        let kernel_pairs = numeric
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| numeric[i + 1..].iter().map(move |&b| (a, b)))
            .take(budget)
            .collect();
        Ctx {
            config: config.clone(),
            engine: Ziggy::from_stats(Arc::clone(&cache), config.clone()),
            table,
            cache,
            graph,
            candidates,
            kernel_pairs,
            numeric,
        }
    }
}

/// The first whole-table statistics pass: univariate moments and
/// frequencies of every usable column, moments of every numeric pair.
fn whole_stats(cache: &StatsCache, table: &Table, tr: &mut Tracer) {
    tr.enter("store.whole_stats");
    let usable = usable_columns(table);
    let mut numeric = Vec::new();
    for &c in &usable {
        match table.schema().column(c).map(|m| m.ctype) {
            Some(ColumnType::Numeric) => {
                black_box(cache.uni(c).expect("uni"));
                numeric.push(c);
            }
            _ => {
                black_box(cache.freq(c).expect("freq"));
            }
        }
    }
    for (i, &a) in numeric.iter().enumerate() {
        for &b in &numeric[i + 1..] {
            black_box(cache.pair(a, b).expect("pair"));
        }
    }
    tr.exit();
}

/// The selected views of a report: `(columns, score)` per view.
type Views = Vec<(Vec<usize>, f64)>;

/// What one replayed characterize op produced.
struct Replayed {
    mask: Bitmask,
    /// `(columns, score)` of the selected views and the label-free
    /// report bytes, for distinct ops.
    built: Option<(Views, String)>,
    reuse: Option<ReuseLevel>,
}

/// One characterize op through the layers' public functions, in the
/// order the engine runs them.
fn replay_query(ctx: &Ctx, pred: &str, repeat: bool, tr: &mut Tracer) -> Replayed {
    tr.enter("op");
    tr.enter("store.parse");
    let expr = parse_predicate(pred).expect("generated predicates parse");
    tr.exit();
    tr.enter("store.eval");
    let mask = eval::evaluate_with(&expr, &ctx.table, Some(ctx.cache.zone_maps().as_ref()))
        .expect("generated predicates evaluate");
    tr.exit();
    if repeat {
        tr.enter("core.report_probe");
        let outcome = ctx
            .engine
            .characterize_mask_cached(&mask, pred)
            .expect("repeat");
        black_box(outcome.cached.bytes_with_query(pred));
        tr.exit();
        tr.exit();
        return Replayed {
            mask,
            built: None,
            reuse: Some(outcome.reuse),
        };
    }
    let config = &ctx.config;
    let table = &ctx.table;
    let n_inside = mask.count_ones();
    let n_outside = table.n_rows() - n_inside;

    tr.enter("stats.uni_moments");
    for &c in &ctx.numeric {
        let data = table.numeric(c).expect("numeric");
        black_box(UniMoments::from_mask_words(data, mask.words()));
    }
    tr.exit_rows((ctx.numeric.len() * table.n_rows()) as u64);
    tr.enter("stats.pair_moments");
    for &(a, b) in &ctx.kernel_pairs {
        let (xs, ys) = (
            table.numeric(a).expect("numeric"),
            table.numeric(b).expect("numeric"),
        );
        black_box(PairMoments::from_mask_words(xs, ys, mask.words()).expect("equal columns"));
    }
    tr.exit_rows((ctx.kernel_pairs.len() * table.n_rows()) as u64);

    tr.enter("core.prepare");
    let prepared = prepare(&ctx.cache, &mask, ctx.graph.columns(), config).expect("prepare");
    tr.exit_rows(prepared.components().len() as u64);
    tr.enter("core.search");
    let selected = search(&ctx.candidates, &prepared, config);
    tr.exit_rows(ctx.candidates.len() as u64);
    tr.enter("core.post");
    let score_parallel = config.parallel && selected.len() >= 2 && table.n_rows() >= 4096;
    let scored: Vec<Option<ViewReport>> = run_indexed(selected.len(), score_parallel, |i| {
        let sv = &selected[i];
        let comp_refs = prepared.components_for_view(&sv.columns);
        let robustness_p = view_robustness(&comp_refs, config.aggregation);
        if config.filter_insignificant && robustness_p >= config.alpha {
            return None;
        }
        let explanation = explain::generate(table, &mask, &sv.columns, &comp_refs, config.alpha);
        let positions: Vec<usize> = sv
            .columns
            .iter()
            .filter_map(|c| ctx.graph.columns().iter().position(|x| x == c))
            .collect();
        Some(ViewReport {
            view: View {
                columns: sv.columns.clone(),
                names: sv
                    .columns
                    .iter()
                    .map(|&c| table.name(c).to_string())
                    .collect(),
            },
            score: sv.score,
            robustness_p,
            tightness: ctx.graph.tightness(&positions),
            components: comp_refs.into_iter().copied().collect(),
            explanation,
        })
    });
    let views: Vec<ViewReport> = scored.into_iter().flatten().collect();
    tr.exit();
    tr.enter("core.serialize");
    let report = CharacterizationReport {
        query: String::new(),
        n_inside,
        n_outside,
        views,
        timings: StageTimings::default(),
    };
    let bytes = serde_json::to_string(&report).expect("reports render");
    black_box(fnv1a_64(bytes.as_bytes()));
    tr.exit();
    tr.exit();
    let views = report
        .views
        .iter()
        .map(|v| (v.view.columns.clone(), v.score))
        .collect();
    Replayed {
        mask,
        built: Some((views, bytes)),
        reuse: None,
    }
}

/// The engine's answer for the replayed mask must be the replay's.
fn fidelity(ctx: &Ctx, pred: &str, r: &Replayed) -> Result<(), String> {
    let outcome = ctx
        .engine
        .characterize_mask_cached(&r.mask, pred)
        .map_err(|e| format!("engine rejected `{pred}`: {e}"))?;
    if let Some((views, bytes)) = &r.built {
        let engine_views: Views = outcome
            .cached
            .report
            .views
            .iter()
            .map(|v| (v.view.columns.clone(), v.score))
            .collect();
        if *views != engine_views {
            return Err(format!(
                "replayed views differ from the engine's for `{pred}`"
            ));
        }
        if **bytes != *outcome.cached.bytes {
            return Err(format!(
                "replayed bytes differ from the engine's for `{pred}`"
            ));
        }
    }
    Ok(())
}

/// An op of the replayed stream.
enum Op<'a> {
    Query(&'a Pred, bool),
    Append(usize),
}

struct Counters {
    report: (u64, u64),
    prepared: (u64, u64),
    stats_misses: u64,
}

fn engine_counters(ctx: &Ctx) -> (u64, u64, u64, u64, u64) {
    let r = ctx.engine.report_cache().counters();
    let p = ctx.engine.prepared_cache().counters();
    (
        r.hits,
        r.misses,
        p.hits,
        p.misses,
        ctx.cache.counters().misses,
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

pub fn run(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let config = ZiggyConfig::default();
    let mut tr = Tracer::new();
    let mut failures: Vec<String> = Vec::new();
    let mut lines = Vec::new();

    // Inputs, exactly as the untraced run makes them.
    let csv = match w {
        Workload::ExploreWide | Workload::HotFleet => Some(gen::crime_csv()),
        Workload::AppendExplore => Some(gen::append_base_csv()),
        Workload::ExploreTall => None,
    };
    let table = match &csv {
        Some(text) => {
            tr.enter("store.csv_ingest");
            let t = read_csv_str(text, &CsvOptions::default()).expect("workload CSV");
            tr.exit();
            Arc::new(t)
        }
        None => {
            let t = Arc::new(gen::tall_table());
            // The tall table is registered in-process, not uploaded;
            // time the CSV layer on its first chunk instead.
            let head = gen::numeric_csv(&t, 0..CHUNK_ROWS);
            tr.enter("store.csv_ingest");
            black_box(read_csv_str(&head, &CsvOptions::default()).expect("head CSV"));
            tr.exit();
            t
        }
    };
    let budget = (seconds * 4.0) as usize + 64;
    let (preds, steps): (Vec<Pred>, Vec<Step>) = match w {
        Workload::HotFleet => (
            gen::predicates(&table, seed, HOT_SET),
            gen::hot_stream(seed, HOT_SET, budget * 4),
        ),
        Workload::ExploreTall => {
            let p = gen::predicates(&table, seed, budget);
            let s = gen::explore_stream(seed, &p, TALL_REPEATS_PER_4);
            (p, s)
        }
        _ => {
            let p = gen::predicates(&table, seed, budget);
            let s = gen::explore_stream(seed, &p, 0);
            (p, s)
        }
    };
    let batch_rows: Vec<String> = match w {
        Workload::AppendExplore | Workload::ExploreTall => {
            let b = Batches::new(seed);
            (0..PROBE_RECORDS).map(|k| b.batch(k)).collect()
        }
        _ => {
            // Crime rows re-sent in 50-row batches.
            let body: Vec<&str> = csv.as_deref().expect("crime CSV").lines().skip(1).collect();
            (0..PROBE_RECORDS)
                .map(|k| {
                    let start = (k * 50) % (body.len() - 50);
                    body[start..start + 50]
                        .iter()
                        .map(|l| format!("{l}\n"))
                        .collect()
                })
                .collect()
        }
    };

    // Set-up layers: whole-table statistics, then the search plan.
    let cache = Arc::new(StatsCache::shared(Arc::clone(&table)));
    whole_stats(&cache, &table, &mut tr);
    let mut ctx = Ctx::build(Arc::clone(&table), cache, &config, &mut tr);
    let mut ops: Vec<Op> = Vec::new();
    if w == Workload::HotFleet {
        // The hot set is pre-warmed, as in the untraced run.
        ops.extend(preds[1..].iter().map(|p| Op::Query(p, false)));
    }
    let mut queries = 0;
    for s in &steps {
        ops.push(Op::Query(&preds[s.pred], s.repeat));
        queries += 1;
        if w == Workload::AppendExplore && queries % gen::QUERIES_PER_APPEND == 0 {
            ops.push(Op::Append(queries / gen::QUERIES_PER_APPEND - 1));
        }
    }
    // The set-up report, outside the measured stream.
    let warm = replay_query(
        &ctx,
        &preds[0].text,
        false,
        &mut Tracer {
            on: false,
            ..Tracer::new()
        },
    );
    if let Err(e) = fidelity(&ctx, &preds[0].text, &warm) {
        failures.push(e);
    }

    // The measured stream, until its share of the run is used up; the
    // replay stops only at a block boundary of four steps so the repeat
    // share is exact.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds * 0.6);
    let mut untraced = Tracer {
        on: false,
        ..Tracer::new()
    };
    let (mut traced_us, mut untraced_us) = (Vec::new(), Vec::new());
    let mut counts = Counters {
        report: (0, 0),
        prepared: (0, 0),
        stats_misses: 0,
    };
    let mut attempted = 0u64;
    let mut steps_done = 0usize;
    let hot_warm = if w == Workload::HotFleet {
        HOT_SET - 1
    } else {
        0
    };
    let mut zone_acc = (0u64, 0u64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let measured = i >= hot_warm;
        if measured && steps_done.is_multiple_of(4) && Instant::now() >= deadline {
            break;
        }
        match *op {
            Op::Query(pred, repeat) => {
                tr.op = if measured { i as u64 + 1 } else { 0 };
                let before = engine_counters(&ctx);
                let zones = ctx.cache.zone_maps().counters();
                let traced_first = i % 2 == 0;
                let mut result = None;
                for traced in [traced_first, !traced_first] {
                    let t = Instant::now();
                    if traced {
                        let r = replay_query(&ctx, &pred.text, repeat, &mut tr);
                        traced_us.push(util::us_since(t));
                        result = Some(r);
                    } else {
                        black_box(replay_query(&ctx, &pred.text, repeat, &mut untraced));
                        untraced_us.push(util::us_since(t));
                    }
                }
                let r = result.expect("traced copy ran");
                tr.op = 0;
                // Zone counters of the traced copy's evaluation only.
                let z = ctx.cache.zone_maps().counters();
                zone_acc.0 += (z.0 - zones.0) / 2;
                zone_acc.1 += (z.1 - zones.1) / 2;
                zone_acc.2 += (z.2 - zones.2) / 2;
                if repeat {
                    // The replay's answer is the engine's cached report.
                    if r.reuse != Some(ReuseLevel::Report) {
                        failures.push(format!("repeat of `{}` missed the report cache", pred.text));
                    }
                } else if let Err(e) = fidelity(&ctx, &pred.text, &r) {
                    failures.push(e);
                }
                if measured {
                    attempted += 1;
                    steps_done += 1;
                    // The untraced copy of a repeat probes the report
                    // cache too; count the traced copy's probe alone.
                    let after = engine_counters(&ctx);
                    let extra = u64::from(repeat);
                    counts.report.0 += after.0 - before.0 - extra;
                    counts.report.1 += after.1 - before.1;
                    counts.prepared.0 += after.2 - before.2;
                    counts.prepared.1 += after.3 - before.3;
                    counts.stats_misses += after.4 - before.4;
                }
            }
            Op::Append(k) => {
                tr.op = i as u64 + 1;
                attempted += 1;
                tr.enter("op");
                tr.enter("store.append_rows");
                let grown = append_rows_csv(
                    &ctx.table,
                    &batch_rows[k % batch_rows.len()],
                    &CsvOptions::default(),
                )
                .expect("append batch");
                tr.exit();
                tr.enter("store.for_appended");
                let grown = Arc::new(grown);
                let cache = Arc::new(ctx.cache.for_appended(Arc::clone(&grown)));
                tr.exit();
                ctx = Ctx::build(grown, cache, &config, &mut tr);
                tr.exit();
                tr.op = 0;
            }
        }
    }
    let replayed_ops = attempted;

    // Append layers on workloads without appends: the same functions on
    // batches of the workload's own rows, off the replayed state.
    if w != Workload::AppendExplore {
        for rows in batch_rows.iter().take(3) {
            tr.enter("store.append_rows");
            let grown = append_rows_csv(&table, rows, &CsvOptions::default()).expect("probe batch");
            tr.exit();
            tr.enter("store.for_appended");
            black_box(ctx.cache.for_appended(Arc::new(grown)));
            tr.exit();
        }
    }

    let probe = serve_probe(
        w,
        &table,
        csv.as_deref(),
        &preds,
        &steps,
        &mut tr,
        &mut failures,
    );
    let durable = durable_probe(&batch_rows, &scratch.join("wal"), &mut tr, &mut failures);

    // Metrics, from the spans and counter deltas.
    let med = |name: &str| util::median(&tr.durations_us(name));
    let q90 = |name: &str| util::quantile(&tr.durations_us(name), 0.9);
    let components = util::median(
        &tr.spans
            .iter()
            .filter(|s| s.name == "core.prepare")
            .map(|s| s.rows as f64)
            .collect::<Vec<_>>(),
    );
    let stream_self_us = tr.self_us_by_layer(true);
    let per_op = |layer: &str| {
        stream_self_us.get(layer).copied().unwrap_or(0.0) / replayed_ops.max(1) as f64
    };
    let self_us = tr.self_us_by_layer(false);
    let zone_total = zone_acc.0 + zone_acc.1 + zone_acc.2;
    let overhead = util::median(&traced_us) / util::median(&untraced_us) - 1.0;
    let m =
        |name: &str, value: f64, unit: &'static str| -> Metric { (name.to_string(), value, unit) };
    let metrics = vec![
        m("store.parse_us", med("store.parse"), "us"),
        m("store.eval_us", med("store.eval"), "us"),
        m(
            "store.eval_pruned_frac",
            ratio(zone_acc.0 + zone_acc.1, zone_total),
            "frac",
        ),
        m("store.whole_stats_ms", med("store.whole_stats") / 1e3, "ms"),
        m("store.csv_ingest_ms", med("store.csv_ingest") / 1e3, "ms"),
        m("store.append_rows_ms", med("store.append_rows") / 1e3, "ms"),
        m(
            "store.for_appended_ms",
            med("store.for_appended") / 1e3,
            "ms",
        ),
        m("store.self_us_per_op", per_op("store"), "us"),
        m(
            "stats.uni_moments_ns_per_row",
            tr.ns_per_row("stats.uni_moments"),
            "ns",
        ),
        m(
            "stats.pair_moments_ns_per_row",
            tr.ns_per_row("stats.pair_moments"),
            "ns",
        ),
        m("stats.self_us_per_op", per_op("stats"), "us"),
        m("core.graph_ms", med("core.graph") / 1e3, "ms"),
        m("core.candidates_ms", med("core.candidates") / 1e3, "ms"),
        m("core.prepare_us_p50", med("core.prepare"), "us"),
        m("core.prepare_us_p90", q90("core.prepare"), "us"),
        m("core.prepare_components", components, "count"),
        m("core.search_us", med("core.search"), "us"),
        m(
            "core.search_candidates",
            ctx.candidates.len() as f64,
            "count",
        ),
        m("core.post_us", med("core.post"), "us"),
        m("core.serialize_us", med("core.serialize"), "us"),
        m(
            "core.report_hit_frac",
            ratio(counts.report.0, counts.report.0 + counts.report.1),
            "frac",
        ),
        m(
            "core.prepared_hit_frac",
            ratio(counts.prepared.0, counts.prepared.0 + counts.prepared.1),
            "frac",
        ),
        m("core.stats_misses", counts.stats_misses as f64, "count"),
        m("core.self_us_per_op", per_op("core"), "us"),
        m("serve.route_us", probe.route_us, "us"),
        m("serve.http_us", probe.direct_us - probe.route_us, "us"),
        m("serve.reuse_level3_frac", probe.reuse3, "frac"),
        m("fleet.hop_us", probe.router_us - probe.direct_us, "us"),
        m("fleet.upstream_retries", probe.retries as f64, "count"),
        m("durable.append_us_p50", durable.p50_us, "us"),
        m("durable.append_us_p90", durable.p90_us, "us"),
        m(
            "durable.fsyncs_per_record",
            durable.fsyncs_per_record,
            "count",
        ),
        m(
            "durable.wal_bytes_per_user_byte",
            durable.wal_per_user,
            "ratio",
        ),
        m("trace.overhead_frac", overhead, "frac"),
    ];

    std::fs::create_dir_all("perfbench-out").expect("create perfbench-out");
    let spans_path = Path::new("perfbench-out").join(format!("spans-{}-{seed}.jsonl", w.name()));
    if let Err(e) = tr.write_jsonl(&spans_path) {
        failures.push(format!("writing spans: {e}"));
    }
    lines.push(format!(
        "# {}: replayed {replayed_ops} ops ({} spans in {}), self time per layer (ms): {}",
        w.name(),
        tr.spans.len(),
        spans_path.display(),
        self_us
            .iter()
            .map(|(l, us)| format!("{l} {:.1}", us / 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for (name, value, unit) in &metrics {
        lines.push(format!("metric {name} {value:.4} {unit}"));
    }
    for f in failures.iter().take(20) {
        lines.push(format!("MISMATCH {f}"));
    }
    Outcome {
        attempted: attempted.max(1),
        failed: failures.len() as u64,
        metrics,
        lines,
    }
}

struct ServeProbe {
    route_us: f64,
    direct_us: f64,
    router_us: f64,
    retries: u64,
    reuse3: f64,
}

/// Times one warm repeat through `route`, over HTTP direct, and through
/// an in-process router; then sends the stream's first characterize
/// steps over HTTP and reads each response's reuse level.
fn serve_probe(
    w: Workload,
    table: &Arc<Table>,
    csv: Option<&str>,
    preds: &[Pred],
    steps: &[Step],
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> ServeProbe {
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let state = server.state();
    let registered = match csv {
        Some(text) => state.registry.insert_csv("t", text, state.config.clone()),
        None => state
            .registry
            .insert_table("t", (**table).clone(), state.config.clone()),
    };
    registered.expect("register the probe table");
    let path = "/tables/t/characterize";
    let body = query_body(&preds[0].text);
    let mut direct = Client::connect(server.local_addr()).expect("connect");
    let warm = |c: &mut Client, text: &str| {
        c.request("POST", path, Some(&query_body(text)))
            .map(|r| r.0)
    };
    if warm(&mut direct, &preds[0].text).ok() != Some(200) {
        failures.push("probe warm-up failed".into());
    }
    let req = Request {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.clone().into_bytes(),
        peer: None,
    };
    for _ in 0..PROBE_ITERS {
        tr.enter("serve.route");
        let resp = route(state, &req);
        tr.exit();
        if resp.status != 200 {
            failures.push(format!("route answered {}", resp.status));
            break;
        }
    }
    let rtt = |c: &mut Client, name: &'static str, tr: &mut Tracer, failures: &mut Vec<String>| {
        for _ in 0..PROBE_ITERS {
            tr.enter(name);
            let r = c.request("POST", path, Some(&body));
            tr.exit();
            if !matches!(r, Ok((200, _))) {
                failures.push(format!("{name} request failed"));
                break;
            }
        }
    };
    rtt(&mut direct, "serve.http", tr, failures);
    let options = FleetOptions {
        replication: 1,
        ..FleetOptions::default()
    };
    let router = start_fleet(
        "127.0.0.1:0",
        vec![("b0".into(), server.local_addr())],
        options,
    )
    .expect("bind router");
    let retried = &router.state().dataplane.pool_retried_reconnects;
    let retries_before = retried.load(Ordering::Relaxed);
    let mut via = Client::connect(router.local_addr()).expect("connect router");
    if warm(&mut via, &preds[0].text).ok() != Some(200) {
        failures.push("router warm-up failed".into());
    }
    rtt(&mut via, "fleet.hop", tr, failures);
    let retries = retried.load(Ordering::Relaxed) - retries_before;
    drop(via);
    router.shutdown();

    // Reuse levels over the stream's first characterize steps (the hot
    // set pre-warmed first on hot_fleet, as in the untraced run).
    if w == Workload::HotFleet {
        for p in &preds[1..] {
            let _ = warm(&mut direct, &p.text);
        }
    }
    let (mut level3, mut total) = (0u64, 0u64);
    for s in steps.iter().take(16) {
        let text = &preds[s.pred].text;
        match direct.request_with_headers("POST", path, &[], Some(&query_body(text))) {
            Ok((200, h, _)) => {
                total += 1;
                level3 += u64::from(util::reuse_level(&h) == Some(3));
            }
            other => failures.push(format!("reuse pass: {:?}", other.map(|r| r.0))),
        }
    }
    drop(direct);
    server.shutdown();
    let med = |name: &str| util::median(&tr.durations_us(name));
    ServeProbe {
        route_us: med("serve.route"),
        direct_us: med("serve.http"),
        router_us: med("fleet.hop"),
        retries,
        reuse3: ratio(level3, total),
    }
}

struct DurableProbe {
    p50_us: f64,
    p90_us: f64,
    fsyncs_per_record: f64,
    wal_per_user: f64,
}

/// Appends the workload's append records to a fresh batch-mode log.
fn durable_probe(
    batches: &[String],
    dir: &Path,
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> DurableProbe {
    let options = DurableOptions {
        mode: DurabilityMode::Batch,
        ..DurableOptions::default()
    };
    let (log, _) = DurableLog::open(dir, options).expect("open the probe log");
    let fsyncs = log.metrics().fsyncs.load(Ordering::Relaxed);
    let mut user_bytes = 0u64;
    for (k, rows) in batches.iter().enumerate() {
        let rec = Record::Append {
            table: "t".into(),
            fingerprint: fnv1a_64(rows.as_bytes()),
            ts: k as u64 + 1,
            rows: rows.clone(),
        };
        user_bytes += rows.len() as u64;
        tr.enter("durable.append");
        let r = log.append(&rec);
        tr.exit();
        if let Err(e) = r {
            failures.push(format!("durable append: {e}"));
        }
    }
    let fsyncs = log.metrics().fsyncs.load(Ordering::Relaxed) - fsyncs;
    drop(log);
    let wal_bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(dir);
    let us = tr.durations_us("durable.append");
    DurableProbe {
        p50_us: util::median(&us),
        p90_us: util::quantile(&us, 0.9),
        fsyncs_per_record: ratio(fsyncs, batches.len() as u64),
        wal_per_user: wal_bytes as f64 / user_bytes.max(1) as f64,
    }
}
