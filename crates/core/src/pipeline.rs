//! The three-stage pipeline (paper Figure 4): preparation → view search →
//! post-processing — staged behind three levels of reuse.
//!
//! A characterization is decomposed into an explicit *plan* whose
//! query-independent stages are memoized per engine:
//!
//! 1. the [`DependencyGraph`] **and** the candidate views generated from
//!    it ([`generate_candidates`] over the usable columns) depend only on
//!    the table and the configuration, so both are computed once per
//!    engine and reused by every query;
//! 2. [`PreparedStats`] are memoized per selection mask (the
//!    [`PreparedCache`]), so a repeated predicate skips the masked scans;
//! 3. the finished [`CharacterizationReport`] *and its serialized JSON
//!    bytes* are memoized per `(mask, configuration)` (the report
//!    cache), so a repeated query — under *any* spelling of the same
//!    selection — skips view search, post-processing, and serde
//!    entirely; the serving layer answers it with memoized bytes and an
//!    `ETag`, splicing the client's query label in at render time.
//!
//! In front of level 3, the [`MaskMemo`] maps the raw query text to its
//! selection mask, so a repeated text skips predicate evaluation and
//! goes straight to the report-cache probe. It is a lookup that finds
//! level 3's key, not a [`ReuseLevel`] of its own.

use std::sync::Arc;
use std::time::Instant;

use ziggy_store::{
    eval, parse_predicate, run_indexed, Bitmask, KeyedCache, PreparedCache, StatsCache, Table,
};

use crate::candidates::generate_candidates;
use crate::config::ZiggyConfig;
use crate::error::{Result, ZiggyError};
use crate::explain;
use crate::graph::{usable_columns, DependencyGraph};
use crate::prepare::{prepare, PreparedStats};
use crate::report::{CharacterizationReport, StageTimings, View, ViewReport};
use crate::robust::view_robustness;
use crate::search::search;

/// Key of one report-cache entry: the selection mask (hashed by
/// fingerprint, confirmed by full word equality) and the configuration's
/// canonical JSON ([`ZiggyConfig::canonical_json`] — forked engines
/// share one cache, so artifacts built under an override must key apart
/// from the default configuration's; the full string, compared by
/// equality, because clients choose override configurations and a mere
/// hash could be made to collide). The query label is deliberately *not*
/// part of the key: two spellings of the same selection (`"x > 5"`,
/// `"x>5.0"`, `"NOT x <= 5"`) are the same characterization, so they
/// share one cached build. The label is spliced into the serialized
/// bytes at render time ([`CachedReport::bytes_with_query`]) instead of
/// being baked into the cached artifact.
pub type ReportKey = (Bitmask, Arc<str>);

/// The report cache: finished reports plus their serialized bytes,
/// shared by all configuration forks of one engine.
pub type ReportCache = KeyedCache<ReportKey, Arc<CachedReport>>;

/// The predicate → mask memo: selection masks keyed by the *raw* query
/// text, shared by all configuration forks of one engine (a mask does
/// not depend on the configuration). Raw text is the key because it is
/// collision-free by construction: two texts share an entry only when
/// they are the same text. Different spellings of one selection get one
/// entry each here and still meet in the report cache, whose key is the
/// mask itself.
pub type MaskMemo = KeyedCache<String, Arc<Bitmask>>;

/// A finished characterization in both forms the system serves: the
/// structured report and its canonical JSON bytes. The bytes are
/// `serde_json::to_string` of the report *with stage timings and the
/// query label zeroed*: timings are wall-clock measurements of one
/// build, and the label is presentation — both would make two artifacts
/// that computed the identical characterization disagree byte-for-byte
/// (and therefore tag-for-tag) across replicas or across spellings of
/// the same predicate. They ride along as side channels instead —
/// [`CachedReport::report`] keeps the real timings for struct-level
/// consumers, and the requested label is attached at render time by
/// [`CachedReport::bytes_with_query`] / [`CachedReport::report_with_query`]
/// — excluded from the fingerprint, so the `ETag` is a pure function of
/// (table, configuration, mask) and replicas revalidate each other's
/// tags with `304`s no matter how the client spelled the predicate.
#[derive(Debug, Clone)]
pub struct CachedReport {
    /// The structured report, timings included (this build's wall-clock
    /// cost) and query label empty (attach one with
    /// [`CachedReport::report_with_query`]).
    pub report: CharacterizationReport,
    /// Its serialized JSON (timings zeroed, query label empty) — the
    /// canonical label-free wire form. Behind an `Arc` so the serving
    /// layer's warm path shares one allocation; responses carrying a
    /// label are spliced per request by
    /// [`CachedReport::bytes_with_query`].
    pub bytes: Arc<str>,
    /// FNV-1a fingerprint of `bytes` — the `ETag` source. Deterministic
    /// across processes and fleet replicas: any engine that computes the
    /// same report under the same configuration produces the same tag.
    pub fingerprint: u64,
}

/// Byte offset in [`CachedReport::bytes`] where the query label is
/// spliced in: the length of `{"query":"` — `query` is the first field
/// of [`CharacterizationReport`]'s serialized form.
const QUERY_SPLICE_AT: usize = 10;

impl CachedReport {
    fn build(mut report: CharacterizationReport) -> Self {
        // Zero the timings and the label only for serialization; the
        // timings stay on the struct (real values), the label is
        // dropped entirely (one cached build serves every spelling of
        // the selection, so no single label is canonical).
        let timings = std::mem::take(&mut report.timings);
        report.query.clear();
        let bytes: Arc<str> =
            Arc::from(serde_json::to_string(&report).expect("reports always render"));
        report.timings = timings;
        debug_assert!(
            bytes.starts_with(r#"{"query":"""#),
            "query must serialize first for the render-time splice"
        );
        let fingerprint = ziggy_store::fnv1a_64(bytes.as_bytes());
        Self {
            report,
            bytes,
            fingerprint,
        }
    }

    /// The serialized report with `query_label` spliced into the
    /// (empty) `query` field — what a response body carries. The label
    /// is JSON-escaped; everything after it is the shared label-free
    /// allocation's tail, so this is one copy, no re-serialization.
    pub fn bytes_with_query(&self, query_label: &str) -> Arc<str> {
        if query_label.is_empty() {
            return Arc::clone(&self.bytes);
        }
        let escaped = serde_json::to_string(query_label).expect("strings serialize");
        let escaped = &escaped[1..escaped.len() - 1];
        let mut out = String::with_capacity(self.bytes.len() + escaped.len());
        out.push_str(&self.bytes[..QUERY_SPLICE_AT]);
        out.push_str(escaped);
        out.push_str(&self.bytes[QUERY_SPLICE_AT..]);
        Arc::from(out)
    }

    /// A clone of the structured report with `query_label` attached —
    /// the struct-level counterpart of [`CachedReport::bytes_with_query`]
    /// (sessions, the REPL, and `characterize_mask` use this so the
    /// caller sees their own spelling, whichever spelling built the
    /// cached artifact).
    pub fn report_with_query(&self, query_label: &str) -> CharacterizationReport {
        let mut report = self.report.clone();
        report.query = query_label.to_string();
        report
    }

    /// The strong HTTP entity tag for this report (quoted hex
    /// fingerprint), used for `ETag` / `If-None-Match` revalidation.
    /// A pure function of (table, configuration, mask): every spelling
    /// of the same selection revalidates against the same tag.
    pub fn etag(&self) -> String {
        format!("\"{:016x}\"", self.fingerprint)
    }
}

/// The deepest reuse level that answered a characterization — the
/// engine's three-tier cache hierarchy, numbered shallow to deep. The
/// serving layer surfaces it per response in the `Server-Timing`
/// header so clients can see *why* a request was fast or slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReuseLevel {
    /// Level 1: the pipeline ran end to end; only the memoized search
    /// plan (dependency graph + candidate views) and the whole-table
    /// statistics were reused.
    Plan = 1,
    /// Level 2: the pipeline ran, but the per-mask [`PreparedStats`]
    /// came from the prepared cache — the masked scans were skipped.
    Prepared = 2,
    /// Level 3: the finished report bytes came from the report cache;
    /// no pipeline stage ran at all.
    Report = 3,
}

impl ReuseLevel {
    /// The numeric level (1..=3).
    pub fn as_u8(self) -> u8 {
        self as u8
    }
}

/// What a cache-aware characterization returns: the (possibly shared)
/// cached artifact plus whether this call actually ran the pipeline.
/// Callers that meter work (the serving layer's stage-timing metrics)
/// must only count `fresh` outcomes — a cached report's embedded
/// timings describe the original build, not this request.
pub struct CharacterizeOutcome {
    /// The report and its bytes.
    pub cached: Arc<CachedReport>,
    /// True when this call built the report; false when it was served
    /// from the report cache.
    pub fresh: bool,
    /// The deepest cache level that answered this call.
    pub reuse: ReuseLevel,
}

/// The Ziggy engine bound to one table.
///
/// Holds every level of the reuse strategy: the whole-table statistics
/// cache (successive queries share the expensive moment computations —
/// the paper's between-query optimization), the memoized search plan
/// (dependency graph + candidate views, query-independent), the
/// per-query [`PreparedCache`] of finished [`PreparedStats`] keyed by
/// the selection mask, and the report cache of finished
/// [`CachedReport`]s keyed by `(mask, config)` so *repeated*
/// queries skip the entire pipeline.
///
/// The engine owns its table through an `Arc` and all interior state is
/// lock-protected, so a single `Ziggy` is `Send + Sync`: one engine per
/// table can serve many threads (and, through `ziggy-serve`, many
/// clients) concurrently, extending the paper's between-*query* sharing
/// to between-*client* sharing.
pub struct Ziggy {
    table: Arc<Table>,
    /// Shared so [`Ziggy::with_config`] forks reuse the whole-table
    /// statistics instead of recomputing them per configuration.
    cache: Arc<StatsCache>,
    config: ZiggyConfig,
    /// Memoized [`ZiggyConfig::canonical_json`] — part of every report
    /// key (shared, not re-rendered, per lookup).
    config_key: Arc<str>,
    /// Dependency graph is query-independent; memoized after first use.
    graph: parking_lot::Mutex<Option<DependencyGraph>>,
    /// Candidate views are query-independent too (they derive from the
    /// graph and the search parameters alone); memoized alongside it.
    candidates: parking_lot::Mutex<Option<Arc<Vec<Vec<usize>>>>>,
    /// Per-query `PreparedStats`, memoized against the selection mask.
    prepared: PreparedCache<Arc<PreparedStats>>,
    /// Finished reports + serialized bytes, shared across configuration
    /// forks (the `Arc`), keyed by `(mask, canonical config)`.
    reports: Arc<ReportCache>,
    /// Predicate text → mask, shared across configuration forks like
    /// the report cache and sized and disabled by the same capacity.
    masks: Arc<MaskMemo>,
}

// parking_lot re-export via ziggy-store's dependency is not public; the
// engine takes its own direct dependency (see Cargo.toml).

impl Ziggy {
    /// Creates an engine over a copy of `table` with the given
    /// configuration. Configuration problems surface on the first
    /// characterization. When the table is already behind an `Arc` (the
    /// serving path), use [`Ziggy::shared`] to avoid the deep copy.
    pub fn new(table: &Table, config: ZiggyConfig) -> Self {
        Self::shared(Arc::new(table.clone()), config)
    }

    /// Creates an engine sharing ownership of `table` (no copy).
    pub fn shared(table: Arc<Table>, config: ZiggyConfig) -> Self {
        Self::from_stats(Arc::new(StatsCache::shared(table)), config)
    }

    /// Creates an engine over a pre-built [`StatsCache`] (and the table
    /// it serves). This is the incremental-append path: the new table's
    /// cache is derived from the old one with `StatsCache::for_appended`
    /// — full chunks keep their frozen partials, only the grown tail is
    /// rescanned — and the engine is rebuilt around it, so everything a
    /// longer table invalidates (masks, prepared stats, reports, the
    /// search plan) starts cold while the whole-table statistics stay
    /// warm.
    pub fn from_stats(cache: Arc<StatsCache>, config: ZiggyConfig) -> Self {
        Self {
            table: cache.table_arc(),
            cache,
            // Capacity 0 disables a cache at lookup time; the clamp to 1
            // inside `KeyedCache::new` only keeps the structs well-formed.
            prepared: PreparedCache::new(config.prepared_cache_capacity),
            reports: Arc::new(ReportCache::new(config.report_cache_capacity)),
            masks: Arc::new(MaskMemo::new(config.report_cache_capacity)),
            config_key: Arc::from(config.canonical_json()),
            config,
            graph: parking_lot::Mutex::new(None),
            candidates: parking_lot::Mutex::new(None),
        }
    }

    /// An engine over the same table — and the same whole-table
    /// [`StatsCache`] and report cache — but a different configuration.
    /// This is the per-request override path: the expensive table-level
    /// moments and frequencies stay shared, while everything the new
    /// configuration could change is either re-keyed (report entries
    /// carry the configuration fingerprint, so a fork can never be
    /// served — or poison — another configuration's reports) or fresh
    /// (the per-mask [`PreparedCache`]). The memoized search plan
    /// carries over piecewise: the dependency graph when the dependence
    /// measure and binning match, the candidate views only when the
    /// search parameters (`min_tightness`, `max_view_size`) match too —
    /// a search-relevant change invalidates the candidate memo.
    pub fn with_config(&self, config: ZiggyConfig) -> Ziggy {
        let graph_compatible =
            config.dependence == self.config.dependence && config.mi_bins == self.config.mi_bins;
        let graph = if graph_compatible {
            self.graph.lock().clone()
        } else {
            None
        };
        let candidates = if graph_compatible
            && config.min_tightness == self.config.min_tightness
            && config.max_view_size == self.config.max_view_size
        {
            self.candidates.lock().clone()
        } else {
            None
        };
        // One report cache serves all forks (entries key on the config
        // fingerprint), so a repeated override request is as warm as a
        // repeated default one; the mask memo rides along (masks do not
        // depend on the configuration at all). A changed capacity opts
        // the fork out into caches of its own — capacity is a property
        // of the instance, not of an entry.
        let (reports, masks) = if config.report_cache_capacity == self.config.report_cache_capacity
        {
            (Arc::clone(&self.reports), Arc::clone(&self.masks))
        } else {
            (
                Arc::new(ReportCache::new(config.report_cache_capacity)),
                Arc::new(MaskMemo::new(config.report_cache_capacity)),
            )
        };
        Ziggy {
            table: Arc::clone(&self.table),
            cache: Arc::clone(&self.cache),
            prepared: PreparedCache::new(config.prepared_cache_capacity),
            reports,
            masks,
            config_key: Arc::from(config.canonical_json()),
            config,
            graph: parking_lot::Mutex::new(graph),
            candidates: parking_lot::Mutex::new(candidates),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ZiggyConfig {
        &self.config
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Shared handle to the underlying table.
    pub fn table_arc(&self) -> Arc<Table> {
        Arc::clone(&self.table)
    }

    /// The whole-table statistics cache (shared across queries).
    pub fn cache(&self) -> &StatsCache {
        &self.cache
    }

    /// The per-query `PreparedStats` cache (shared across queries,
    /// sessions, and clients of this engine; inspect its counters for
    /// the once-per-predicate guarantee).
    pub fn prepared_cache(&self) -> &PreparedCache<Arc<PreparedStats>> {
        &self.prepared
    }

    /// The finished-report cache (shared across queries, clients, *and*
    /// configuration forks of this engine; its hit counter is exactly
    /// the number of characterizations that skipped the pipeline).
    pub fn report_cache(&self) -> &ReportCache {
        &self.reports
    }

    /// The predicate → mask memo (shared across queries, clients, and
    /// configuration forks of this engine; its misses count predicate
    /// evaluations).
    pub fn mask_memo(&self) -> &MaskMemo {
        &self.masks
    }

    /// Whether the dependency graph is memoized (instrumentation).
    pub fn graph_memoized(&self) -> bool {
        self.graph.lock().is_some()
    }

    /// Whether the candidate views are memoized (instrumentation; a
    /// `with_config` fork that changed a search-relevant parameter
    /// starts with this false).
    pub fn candidates_memoized(&self) -> bool {
        self.candidates.lock().is_some()
    }

    fn graph(&self) -> Result<DependencyGraph> {
        let mut slot = self.graph.lock();
        if let Some(g) = slot.as_ref() {
            return Ok(g.clone());
        }
        let usable = usable_columns(&self.table);
        if usable.is_empty() {
            return Err(ZiggyError::NoUsableColumns);
        }
        let g = DependencyGraph::build(
            &self.cache,
            usable,
            self.config.dependence,
            self.config.mi_bins,
        )?;
        *slot = Some(g.clone());
        Ok(g)
    }

    /// The memoized candidate views for `graph` (query-independent:
    /// they derive from the graph and the search parameters alone, so
    /// they are generated once per engine, not once per request).
    fn candidates(&self, graph: &DependencyGraph) -> Result<Arc<Vec<Vec<usize>>>> {
        let mut slot = self.candidates.lock();
        if let Some(c) = slot.as_ref() {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(generate_candidates(graph, &self.config)?);
        *slot = Some(Arc::clone(&c));
        Ok(c)
    }

    /// ASCII dendrogram of the column dependency graph — the "visual
    /// support to help setting the parameter MIN_tight".
    pub fn dependency_dendrogram(&self) -> Result<String> {
        let g = self.graph()?;
        if g.len() < 2 {
            return Ok("<fewer than two usable columns>".to_string());
        }
        let dend = ziggy_cluster::hierarchical(
            &g.to_distance_matrix()?,
            ziggy_cluster::Linkage::Complete,
        )?;
        let labels: Vec<String> = g
            .columns()
            .iter()
            .map(|&c| self.table.name(c).to_string())
            .collect();
        Ok(dend.render_ascii(&labels))
    }

    /// Characterizes the result of a predicate query (parse + evaluate +
    /// [`Ziggy::characterize_mask`]).
    pub fn characterize(&self, query: &str) -> Result<CharacterizationReport> {
        let mask = self.mask_for(query)?;
        self.characterize_mask(&mask, query)
    }

    /// Cache-aware characterization of a predicate query: returns the
    /// shared [`CachedReport`] (report + serialized bytes + fingerprint)
    /// and whether this call actually ran the pipeline. The serving
    /// layer's fast path — a repeated query text costs one parse, a mask
    /// memo probe, and a report cache probe.
    pub fn characterize_cached(&self, query: &str) -> Result<CharacterizeOutcome> {
        let mask = self.mask_for(query)?;
        self.characterize_mask_cached(&mask, query)
    }

    /// The selection mask of predicate `query`. The text is parsed on
    /// every call, so a malformed query fails before it reaches the
    /// memo; evaluation runs once per distinct text on this engine.
    fn mask_for(&self, query: &str) -> Result<Arc<Bitmask>> {
        let expr = parse_predicate(query)?;
        let evaluate = || {
            eval::evaluate_with(&expr, &self.table, Some(self.cache.zone_maps().as_ref()))
                .map(Arc::new)
        };
        if self.config.report_cache_capacity == 0 {
            return Ok(evaluate()?);
        }
        Ok(self.masks.get_or_build(&query.to_string(), evaluate)?)
    }

    /// Validation + degeneracy checks shared by every characterize entry
    /// point; returns `(n_inside, n_outside)`. These always run, so an
    /// invalid request can never be masked by a cached artifact.
    fn validated_sides(&self, mask: &Bitmask) -> Result<(usize, usize)> {
        self.config.validate()?;
        // The word-wise kernels index columns by mask word; a mask built
        // for a different table must fail up front as an Err, not as a
        // kernel panic (or an n_outside underflow) deep in preparation.
        if mask.len() != self.table.n_rows() {
            return Err(ZiggyError::Store(ziggy_store::StoreError::LengthMismatch {
                column: "<mask>".to_string(),
                got: mask.len(),
                expected: self.table.n_rows(),
            }));
        }
        let n_inside = mask.count_ones();
        let n_outside = self.table.n_rows() - n_inside;
        if n_inside < self.config.min_side_rows || n_outside < self.config.min_side_rows {
            return Err(ZiggyError::DegenerateSelection {
                inside: n_inside,
                outside: n_outside,
                needed: self.config.min_side_rows,
            });
        }
        Ok((n_inside, n_outside))
    }

    /// Characterizes an arbitrary selection mask (`query_label` is used
    /// for reporting only).
    pub fn characterize_mask(
        &self,
        mask: &Bitmask,
        query_label: &str,
    ) -> Result<CharacterizationReport> {
        if self.config.report_cache_capacity == 0 {
            // Struct-only caller with the report cache disabled: run the
            // pipeline directly, paying no serialization at all.
            let (n_inside, n_outside) = self.validated_sides(mask)?;
            return self
                .run_pipeline(mask, query_label, n_inside, n_outside)
                .map(|(report, _)| report);
        }
        Ok(self
            .characterize_mask_cached(mask, query_label)?
            .cached
            .report_with_query(query_label))
    }

    /// Cache-aware characterization of an arbitrary selection mask: the
    /// report cache is probed with `(mask, canonical config)`,
    /// and only a miss runs the staged pipeline (concurrent identical
    /// requests collapse to exactly one run — the losers block on the
    /// winner's slot and share its artifact). Failed runs are never
    /// cached.
    pub fn characterize_mask_cached(
        &self,
        mask: &Bitmask,
        query_label: &str,
    ) -> Result<CharacterizeOutcome> {
        let (n_inside, n_outside) = self.validated_sides(mask)?;
        if self.config.report_cache_capacity == 0 {
            let (report, prepared_hit) =
                self.run_pipeline(mask, query_label, n_inside, n_outside)?;
            return Ok(CharacterizeOutcome {
                cached: Arc::new(CachedReport::build(report)),
                fresh: true,
                reuse: if prepared_hit {
                    ReuseLevel::Prepared
                } else {
                    ReuseLevel::Plan
                },
            });
        }
        let key: ReportKey = (mask.clone(), Arc::clone(&self.config_key));
        let mut fresh = false;
        let mut prepared_hit = false;
        let cached = self.reports.get_or_build(&key, || {
            fresh = true;
            self.run_pipeline(mask, query_label, n_inside, n_outside)
                .map(|(report, hit)| {
                    prepared_hit = hit;
                    Arc::new(CachedReport::build(report))
                })
        })?;
        // Losers of a concurrent collapse share the winner's artifact,
        // which from their perspective is a report-cache hit.
        let reuse = match (fresh, prepared_hit) {
            (false, _) => ReuseLevel::Report,
            (true, true) => ReuseLevel::Prepared,
            (true, false) => ReuseLevel::Plan,
        };
        Ok(CharacterizeOutcome {
            cached,
            fresh,
            reuse,
        })
    }

    /// Runs the three pipeline stages for one genuinely new request.
    /// Also reports whether stage 1 was answered by the prepared cache
    /// (the reuse-level-2 signal).
    fn run_pipeline(
        &self,
        mask: &Bitmask,
        query_label: &str,
        n_inside: usize,
        n_outside: usize,
    ) -> Result<(CharacterizationReport, bool)> {
        // --- Stage 1: preparation. --------------------------------------
        // Reuse on top of reuse: a mask already prepared on this engine
        // (by any thread, session, or client) is served from the
        // PreparedCache in O(mask words); only genuinely new selections
        // pay the masked scans, which themselves run word-wise and derive
        // complement statistics from the whole-table StatsCache by
        // subtraction.
        let t0 = Instant::now();
        let graph = self.graph()?;
        let mut prepared_hit = true;
        let prepared: Arc<PreparedStats> = if self.config.prepared_cache_capacity == 0 {
            prepared_hit = false;
            Arc::new(prepare(&self.cache, mask, graph.columns(), &self.config)?)
        } else {
            self.prepared.get_or_build(mask, || {
                prepared_hit = false;
                prepare(&self.cache, mask, graph.columns(), &self.config).map(Arc::new)
            })?
        };
        let preparation_us = t0.elapsed().as_micros() as u64;

        // --- Stage 2: view search. --------------------------------------
        // Candidate views are part of the memoized plan: they depend on
        // the graph and the search parameters, not on the query, so only
        // the first request on this engine generates them.
        let t1 = Instant::now();
        let candidates = self.candidates(&graph)?;
        let selected = search(&candidates, &prepared, &self.config);
        let view_search_us = t1.elapsed().as_micros() as u64;

        // --- Stage 3: post-processing. ----------------------------------
        // Each selected view is scored independently (robustness,
        // explanation, tightness), so candidates fan out on the worker
        // pool; results come back in selection order, keeping the
        // report's view ranking — and its bytes — identical to the
        // serial path.
        let t2 = Instant::now();
        let score_parallel =
            self.config.parallel && selected.len() >= 2 && self.table.n_rows() >= 4096;
        let scored: Vec<Option<ViewReport>> = run_indexed(selected.len(), score_parallel, |i| {
            let sv = &selected[i];
            let comp_refs = prepared.components_for_view(&sv.columns);
            let robustness_p = view_robustness(&comp_refs, self.config.aggregation);
            if self.config.filter_insignificant && robustness_p >= self.config.alpha {
                return None;
            }
            let explanation = explain::generate(
                &self.table,
                mask,
                &sv.columns,
                &comp_refs,
                self.config.alpha,
            );
            let positions: Vec<usize> = sv
                .columns
                .iter()
                .filter_map(|c| graph.columns().iter().position(|x| x == c))
                .collect();
            let tightness = graph.tightness(&positions);
            let names = sv
                .columns
                .iter()
                .map(|&c| self.table.name(c).to_string())
                .collect();
            Some(ViewReport {
                view: View {
                    columns: sv.columns.clone(),
                    names,
                },
                score: sv.score,
                robustness_p,
                tightness,
                components: comp_refs.into_iter().copied().collect(),
                explanation,
            })
        });
        let views: Vec<ViewReport> = scored.into_iter().flatten().collect();
        let post_processing_us = t2.elapsed().as_micros() as u64;

        Ok((
            CharacterizationReport {
                query: query_label.to_string(),
                n_inside,
                n_outside,
                views,
                timings: StageTimings {
                    preparation_us,
                    view_search_us,
                    post_processing_us,
                },
            },
            prepared_hit,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziggy_store::TableBuilder;

    /// A table with a planted 2-column characteristic view:
    /// (pop, density) correlated and shifted inside the selection.
    fn crime_like() -> Table {
        let n = 600usize;
        let sel = |i: usize| i >= 450;
        let noise = |i: usize, k: usize| ((i * (31 + 7 * k)) % 17) as f64 * 0.3;
        let mut b = TableBuilder::new();
        b.add_numeric(
            "crime",
            (0..n)
                .map(|i| if sel(i) { 90.0 } else { 10.0 } + noise(i, 0))
                .collect(),
        );
        b.add_numeric(
            "pop",
            (0..n)
                .map(|i| if sel(i) { 80.0 } else { 20.0 } + noise(i, 1) * 4.0)
                .collect(),
        );
        b.add_numeric(
            "density",
            (0..n)
                .map(|i| {
                    let pop = if sel(i) { 80.0 } else { 20.0 } + noise(i, 1) * 4.0;
                    pop * 1.5 + noise(i, 2)
                })
                .collect(),
        );
        b.add_numeric("rain", (0..n).map(|i| ((i * 7919) % 100) as f64).collect());
        b.add_categorical(
            "coast",
            (0..n)
                .map(|i| Some(if i % 3 == 0 { "yes" } else { "no" }))
                .collect(),
        );
        b.build().unwrap()
    }

    #[test]
    fn end_to_end_finds_planted_view() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let report = z.characterize("crime >= 50").unwrap();
        assert_eq!(report.n_inside, 150);
        assert!(!report.views.is_empty());
        let top = report.best_view().unwrap();
        // The top view should involve pop and/or density (excluding the
        // selection column itself is not required by the paper).
        let names: Vec<&str> = top.view.names.iter().map(|s| s.as_str()).collect();
        assert!(
            names.contains(&"pop") || names.contains(&"density") || names.contains(&"crime"),
            "unexpected top view {names:?}"
        );
        assert!(top.score > 0.0);
        assert!(top.robustness_p < 0.05);
        assert!(!top.explanation.sentences.is_empty());
    }

    #[test]
    fn views_are_disjoint_and_tight() {
        let t = crime_like();
        let config = ZiggyConfig {
            min_tightness: 0.3,
            ..Default::default()
        };
        let z = Ziggy::new(&t, config.clone());
        let report = z.characterize("crime >= 50").unwrap();
        let mut seen: Vec<usize> = Vec::new();
        for v in &report.views {
            for c in &v.view.columns {
                assert!(!seen.contains(c), "column {c} appears in two views");
                seen.push(*c);
            }
            assert!(v.view.len() <= config.max_view_size);
            assert!(v.tightness >= config.min_tightness - 1e-9);
        }
    }

    #[test]
    fn ranking_is_descending() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let report = z.characterize("crime >= 50").unwrap();
        for w in report.views.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn degenerate_selections_rejected() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        assert!(matches!(
            z.characterize("crime < 0"),
            Err(ZiggyError::DegenerateSelection { .. })
        ));
        assert!(matches!(
            z.characterize("crime >= 0"),
            Err(ZiggyError::DegenerateSelection { .. })
        ));
    }

    #[test]
    fn bad_query_propagates_parse_error() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        assert!(matches!(
            z.characterize("crime >>> 1"),
            Err(ZiggyError::Store(_))
        ));
        assert!(matches!(
            z.characterize("nope > 1"),
            Err(ZiggyError::Store(_))
        ));
    }

    #[test]
    fn invalid_config_rejected_at_characterize() {
        let t = crime_like();
        let z = Ziggy::new(
            &t,
            ZiggyConfig {
                max_views: 0,
                ..Default::default()
            },
        );
        assert!(matches!(
            z.characterize("crime >= 50"),
            Err(ZiggyError::InvalidConfig(_))
        ));
    }

    #[test]
    fn with_config_shares_stats_but_honors_overrides() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let base = z.characterize("crime >= 50").unwrap();
        let misses_after_base = z.cache().counters().misses;

        // A fork asking for fewer views sees the override...
        let fork = z.with_config(ZiggyConfig {
            max_views: 1,
            ..ZiggyConfig::default()
        });
        let overridden = fork.characterize("crime >= 50").unwrap();
        assert!(overridden.views.len() <= 1);
        assert!(base.views.len() > overridden.views.len());
        // ...while the whole-table statistics stay shared: the fork's
        // preparation re-ran (fresh PreparedCache) but added no new
        // whole-table scans.
        assert_eq!(z.cache().counters().misses, misses_after_base);
        assert_eq!(fork.prepared_cache().counters().misses, 1);

        // The base engine's own config is untouched.
        let again = z.characterize("crime >= 50").unwrap();
        assert_eq!(again.views.len(), base.views.len());
    }

    #[test]
    fn preparation_dominates_timings() {
        // Paper: "This is often the most time consuming step."
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let report = z.characterize("crime >= 50").unwrap();
        assert!(report.timings.total_us() > 0);
        // Don't assert dominance strictly (tiny table), just coherence.
        assert_eq!(
            report.timings.total_us(),
            report.timings.preparation_us
                + report.timings.view_search_us
                + report.timings.post_processing_us
        );
    }

    #[test]
    fn cache_makes_second_query_cheaper_or_equal() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let first = z.characterize("crime >= 50").unwrap();
        let second = z.characterize("pop >= 50").unwrap();
        // Both succeed and share the cache; the graph is only built once.
        assert!(first.timings.total_us() > 0 && second.timings.total_us() > 0);
        let (uni, pair, freq) = z.cache().sizes();
        assert!(uni >= 4 && pair >= 6 && freq >= 1);
    }

    #[test]
    fn filter_insignificant_drops_noise_views() {
        let t = crime_like();
        let config = ZiggyConfig {
            filter_insignificant: true,
            ..Default::default()
        };
        let z = Ziggy::new(&t, config);
        let report = z.characterize("crime >= 50").unwrap();
        for v in &report.views {
            assert!(v.robustness_p < 0.05);
        }
    }

    #[test]
    fn dendrogram_rendering() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let art = z.dependency_dendrogram().unwrap();
        assert!(art.contains("pop"));
        assert!(art.contains("height"));
    }

    #[test]
    fn repeated_query_served_from_prepared_cache() {
        let t = crime_like();
        // Disable the report level so this test observes the prepared
        // level in isolation (with reports on, a repeated identical
        // query never reaches the prepared cache at all).
        let z = Ziggy::new(
            &t,
            ZiggyConfig {
                report_cache_capacity: 0,
                ..Default::default()
            },
        );
        let first = z.characterize("crime >= 50").unwrap();
        let c = z.prepared_cache().counters();
        assert_eq!((c.hits, c.misses), (0, 1), "{c:?}");
        // Same predicate again: preparation is skipped entirely…
        let second = z.characterize("crime >= 50").unwrap();
        let c = z.prepared_cache().counters();
        assert_eq!((c.hits, c.misses), (1, 1), "{c:?}");
        // …and the report is identical.
        assert_eq!(first.views.len(), second.views.len());
        for (a, b) in first.views.iter().zip(&second.views) {
            assert_eq!(a.view, b.view);
            assert!((a.score - b.score).abs() < 1e-15);
        }
        // A *semantically* equal predicate spelled differently also hits:
        // the cache keys on the selection mask, not the query text.
        z.characterize("NOT crime < 50").unwrap();
        let c = z.prepared_cache().counters();
        assert_eq!((c.hits, c.misses), (2, 1), "{c:?}");
        // A different selection builds its own entry. (Note "pop >= 50"
        // would *hit*: it selects the same rows as "crime >= 50" in this
        // fixture, and the cache keys on rows, not query text.)
        z.characterize("rain >= 50").unwrap();
        let c = z.prepared_cache().counters();
        assert_eq!((c.hits, c.misses), (2, 2), "{c:?}");
        assert_eq!(z.prepared_cache().len(), 2);
    }

    #[test]
    fn prepared_cache_capacity_zero_disables() {
        let t = crime_like();
        let z = Ziggy::new(
            &t,
            ZiggyConfig {
                prepared_cache_capacity: 0,
                ..Default::default()
            },
        );
        z.characterize("crime >= 50").unwrap();
        z.characterize("crime >= 50").unwrap();
        let c = z.prepared_cache().counters();
        assert_eq!(
            (c.hits, c.misses),
            (0, 0),
            "disabled cache must not be touched"
        );
        assert!(z.prepared_cache().is_empty());
    }

    #[test]
    fn wrong_length_mask_is_an_error_not_a_panic() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        for bad_len in [10usize, t.n_rows() + 64] {
            let mask = ziggy_store::Bitmask::ones(bad_len);
            assert!(
                matches!(
                    z.characterize_mask(&mask, "bad"),
                    Err(ZiggyError::Store(
                        ziggy_store::StoreError::LengthMismatch { .. }
                    ))
                ),
                "len {bad_len}"
            );
        }
        // Direct prepare() callers get the same contract.
        let usable = crate::graph::usable_columns(&t);
        assert!(crate::prepare::prepare(
            z.cache(),
            &ziggy_store::Bitmask::ones(10),
            &usable,
            z.config()
        )
        .is_err());
    }

    #[test]
    fn report_cache_serves_repeated_queries_byte_identically() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let first = z.characterize_cached("crime >= 50").unwrap();
        assert!(first.fresh);
        let c = z.report_cache().counters();
        assert_eq!((c.hits, c.misses), (0, 1), "{c:?}");

        // The repeat is the same artifact — same Arc, same bytes, same
        // ETag — with no pipeline work at all: neither the prepared
        // cache nor the stats cache sees another lookup.
        let stats_before = z.cache().counters();
        let prepared_before = z.prepared_cache().counters();
        let second = z.characterize_cached("crime >= 50").unwrap();
        assert!(!second.fresh);
        assert!(Arc::ptr_eq(&first.cached, &second.cached));
        assert_eq!(first.cached.bytes, second.cached.bytes);
        assert_eq!(first.cached.etag(), second.cached.etag());
        assert_eq!(z.cache().counters(), stats_before);
        assert_eq!(z.prepared_cache().counters(), prepared_before);
        let c = z.report_cache().counters();
        assert_eq!((c.hits, c.misses), (1, 1), "{c:?}");

        // The bytes are the canonical serialization of the report with
        // timings zeroed and the label empty (the wire form is
        // timing-free and label-free so it is deterministic across
        // replicas and spellings); the struct keeps the real build cost
        // as a side channel.
        let mut wire = first.cached.report.clone();
        wire.timings = StageTimings::default();
        wire.query.clear();
        assert_eq!(&*first.cached.bytes, serde_json::to_string(&wire).unwrap());

        // A different spelling of the same selection is the same
        // characterization: it answers from the report cache (no
        // pipeline, no new entry), and only the render-time label
        // differs.
        let respelled = z.characterize_cached("NOT crime < 50").unwrap();
        assert!(!respelled.fresh, "respelled predicate must hit level 3");
        assert!(Arc::ptr_eq(&respelled.cached, &first.cached));
        assert_eq!(respelled.cached.etag(), first.cached.etag());
        assert_eq!(z.report_cache().len(), 1);
        assert_eq!(
            respelled.cached.report_with_query("NOT crime < 50").query,
            "NOT crime < 50"
        );

        // A different selection is its own entry with different bytes.
        let other = z.characterize_cached("rain >= 50").unwrap();
        assert!(other.fresh);
        assert_ne!(other.cached.fingerprint, first.cached.fingerprint);
    }

    #[test]
    fn respelled_predicates_share_one_cached_build() {
        // The regression this pins: the level-3 cache used to key on the
        // query *text*, so "x > 5" and "x>5.0" — the same selection —
        // each paid a full pipeline run. The key is now (mask, config)
        // only; the label is spliced into the bytes at render time.
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let a = z.characterize_cached("crime > 50").unwrap();
        assert!(a.fresh);
        let b = z.characterize_cached("crime>50.0").unwrap();
        assert!(!b.fresh, "respelling must not rebuild");
        assert_eq!(b.reuse, ReuseLevel::Report);
        assert!(Arc::ptr_eq(&a.cached, &b.cached));
        assert_eq!(z.report_cache().len(), 1);
        let c = z.report_cache().counters();
        assert_eq!((c.hits, c.misses), (1, 1), "{c:?}");

        // One shared ETag — a client that revalidates the respelled
        // request against the first response's tag gets a 304.
        assert_eq!(a.cached.etag(), b.cached.etag());

        // Render-time labels: the spliced bodies differ only in the
        // query field and parse back to the requested spelling.
        let body_a = a.cached.bytes_with_query("crime > 50");
        let body_b = b.cached.bytes_with_query("crime>50.0");
        assert_ne!(body_a, body_b);
        let ra: CharacterizationReport = serde_json::from_str(&body_a).unwrap();
        let rb: CharacterizationReport = serde_json::from_str(&body_b).unwrap();
        assert_eq!(ra.query, "crime > 50");
        assert_eq!(rb.query, "crime>50.0");
        let mut ra = ra;
        ra.query = rb.query.clone();
        assert_eq!(
            serde_json::to_string(&ra).unwrap(),
            serde_json::to_string(&rb).unwrap(),
            "bodies differ only in the query label"
        );

        // Labels needing JSON escapes splice correctly.
        let hostile = "crime > 50 AND coast IN ('\"quoted\\')";
        let spliced = a.cached.bytes_with_query(hostile);
        let v: CharacterizationReport = serde_json::from_str(&spliced).unwrap();
        assert_eq!(v.query, hostile);

        // The struct path carries the caller's spelling too.
        let via_mask = z.characterize("crime>50.0").unwrap();
        assert_eq!(via_mask.query, "crime>50.0");
    }

    #[test]
    fn etags_are_deterministic_across_independent_engines() {
        // Two engines built independently over the same table and
        // configuration — the fleet's "two replicas of one shard" —
        // must produce byte-identical wire reports and therefore the
        // same fingerprint/ETag, even though their wall-clock stage
        // timings differ. This is what lets a conditional request
        // revalidate (304) against whichever replica rotation picks.
        let t = crime_like();
        let a = Ziggy::new(&t, ZiggyConfig::default());
        let b = Ziggy::new(&t, ZiggyConfig::default());
        let ra = a.characterize_cached("crime >= 50").unwrap();
        let rb = b.characterize_cached("crime >= 50").unwrap();
        assert_eq!(ra.cached.bytes, rb.cached.bytes);
        assert_eq!(ra.cached.fingerprint, rb.cached.fingerprint);
        assert_eq!(ra.cached.etag(), rb.cached.etag());
        // The side-channel timings still describe each build (they are
        // just not fingerprinted). At least one stage of a real build
        // takes measurable time.
        assert!(ra.cached.report.timings.total_us() > 0);
        // And the wire form really is timing-free.
        assert!(
            ra.cached.bytes.contains(r#""preparation_us":0"#),
            "{}",
            ra.cached.bytes
        );
    }

    #[test]
    fn report_cache_capacity_zero_disables() {
        let t = crime_like();
        let z = Ziggy::new(
            &t,
            ZiggyConfig {
                report_cache_capacity: 0,
                ..Default::default()
            },
        );
        let first = z.characterize_cached("crime >= 50").unwrap();
        let second = z.characterize_cached("crime >= 50").unwrap();
        assert!(first.fresh && second.fresh, "disabled cache never serves");
        let c = z.report_cache().counters();
        assert_eq!((c.hits, c.misses), (0, 0), "disabled cache is untouched");
        assert!(z.report_cache().is_empty());
        // The prepared level still absorbs the repeat.
        let p = z.prepared_cache().counters();
        assert_eq!((p.hits, p.misses), (1, 1), "{p:?}");
        // The mask memo shares the report cache's capacity, so it is
        // disabled too: every call evaluates, nothing is kept.
        z.characterize("crime >= 50").unwrap();
        let m = z.mask_memo().counters();
        assert_eq!((m.hits, m.misses), (0, 0), "disabled memo is untouched");
        assert!(z.mask_memo().is_empty());
    }

    #[test]
    fn mask_memo_evaluates_each_query_text_once() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        z.characterize_cached("crime >= 50").unwrap();
        let zones = z.cache().zone_maps().counters();
        z.characterize_cached("crime >= 50").unwrap();
        z.characterize("crime >= 50").unwrap();
        let m = z.mask_memo().counters();
        assert_eq!((m.hits, m.misses), (2, 1), "{m:?}");
        // A hit does not evaluate: the zone maps see no new chunk.
        assert_eq!(z.cache().zone_maps().counters(), zones);
        // The memo keys on the raw text, so a respelling is a miss of
        // its own — and still a report-cache hit through its mask.
        let respelled = z.characterize_cached("NOT crime < 50").unwrap();
        assert_eq!(respelled.reuse, ReuseLevel::Report);
        assert_eq!(z.mask_memo().counters().misses, 2);
        assert_eq!(z.mask_memo().len(), 2);
        // Parse errors fail before the memo; evaluation errors are not
        // kept.
        assert!(z.characterize_cached("crime >>> 1").is_err());
        assert_eq!(z.mask_memo().counters().misses, 2);
        assert!(z.characterize_cached("nope > 1").is_err());
        assert!(z.characterize_cached("nope > 1").is_err());
        assert_eq!(z.mask_memo().counters().misses, 4);
        assert_eq!(z.mask_memo().len(), 2);
    }

    #[test]
    fn config_forks_share_the_mask_memo() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        z.characterize_cached("crime >= 50").unwrap();
        let fork = z.with_config(ZiggyConfig {
            max_views: 2,
            ..Default::default()
        });
        let forked = fork.characterize_cached("crime >= 50").unwrap();
        assert!(forked.fresh, "a new configuration builds its own report");
        let m = z.mask_memo().counters();
        assert_eq!((m.hits, m.misses), (1, 1), "the fork hit the parent's mask");
        assert!(std::ptr::eq(z.mask_memo(), fork.mask_memo()));
        // A fork with its own capacity gets its own memo, like its own
        // report cache.
        let sized = z.with_config(ZiggyConfig {
            report_cache_capacity: 4,
            ..Default::default()
        });
        assert!(sized.mask_memo().is_empty());
    }

    #[test]
    fn config_forks_share_report_cache_without_poisoning() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let base = z.characterize_cached("crime >= 50").unwrap();
        assert!(base.cached.report.views.len() > 1);

        // An override fork builds its own entry (distinct configuration
        // fingerprint) in the *shared* cache…
        let fork = z.with_config(ZiggyConfig {
            max_views: 1,
            ..ZiggyConfig::default()
        });
        let overridden = fork.characterize_cached("crime >= 50").unwrap();
        assert!(overridden.fresh, "override must not be served base bytes");
        assert_eq!(overridden.cached.report.views.len(), 1);
        assert_eq!(fork.report_cache().len(), 2, "one shared cache, two keys");

        // …and the base entry is intact: the default-config repeat is a
        // hit with the full view list — the regression this test pins is
        // an override poisoning the default entry.
        let again = z.characterize_cached("crime >= 50").unwrap();
        assert!(!again.fresh);
        assert_eq!(
            again.cached.report.views.len(),
            base.cached.report.views.len()
        );
        assert!(Arc::ptr_eq(&again.cached, &base.cached));

        // A second identical override fork re-uses the first's entry:
        // repeated override requests are as warm as default ones.
        let fork2 = z.with_config(ZiggyConfig {
            max_views: 1,
            ..ZiggyConfig::default()
        });
        let warm = fork2.characterize_cached("crime >= 50").unwrap();
        assert!(!warm.fresh);
        assert!(Arc::ptr_eq(&warm.cached, &overridden.cached));
    }

    #[test]
    fn search_plan_memoized_and_selectively_carried_by_forks() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        assert!(!z.graph_memoized() && !z.candidates_memoized());
        z.characterize("crime >= 50").unwrap();
        assert!(z.graph_memoized() && z.candidates_memoized());

        // A fork that changes nothing search-relevant inherits the whole
        // plan…
        let same_plan = z.with_config(ZiggyConfig {
            alpha: 0.01,
            ..ZiggyConfig::default()
        });
        assert!(same_plan.graph_memoized() && same_plan.candidates_memoized());

        // …a search-parameter change keeps the graph but invalidates the
        // candidate memo…
        let new_search = z.with_config(ZiggyConfig {
            min_tightness: 0.5,
            ..ZiggyConfig::default()
        });
        assert!(new_search.graph_memoized());
        assert!(!new_search.candidates_memoized());
        let report = new_search.characterize("crime >= 50").unwrap();
        assert!(new_search.candidates_memoized());
        assert!(!report.views.is_empty());

        // …and a dependence-measure change drops both.
        let new_graph = z.with_config(ZiggyConfig {
            dependence: crate::config::DependenceKind::Spearman,
            ..ZiggyConfig::default()
        });
        assert!(!new_graph.graph_memoized());
        assert!(!new_graph.candidates_memoized());
    }

    #[test]
    fn concurrent_identical_requests_collapse_to_one_pipeline_run() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let outcomes: Vec<CharacterizeOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| z.characterize_cached("crime >= 50").unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let fresh = outcomes.iter().filter(|o| o.fresh).count();
        assert_eq!(fresh, 1, "exactly one thread runs the pipeline");
        for o in &outcomes {
            assert!(Arc::ptr_eq(&o.cached, &outcomes[0].cached));
        }
        let c = z.report_cache().counters();
        assert_eq!((c.hits, c.misses), (7, 1), "{c:?}");
        // The single run did a single preparation.
        let p = z.prepared_cache().counters();
        assert_eq!((p.hits, p.misses), (0, 1), "{p:?}");
    }

    #[test]
    fn characterize_mask_matches_query_path() {
        let t = crime_like();
        let z = Ziggy::new(&t, ZiggyConfig::default());
        let mask = ziggy_store::eval::select(&t, "crime >= 50").unwrap();
        let via_mask = z.characterize_mask(&mask, "crime >= 50").unwrap();
        let via_query = z.characterize("crime >= 50").unwrap();
        assert_eq!(via_mask.n_inside, via_query.n_inside);
        assert_eq!(via_mask.views.len(), via_query.views.len());
        for (a, b) in via_mask.views.iter().zip(&via_query.views) {
            assert_eq!(a.view, b.view);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }
}
