//! Preparation stage: execute the query and compute all Zig-Components.
//!
//! "During the preparation step, Ziggy executes the user's query, loads
//! the results, and computes the Zig-Components associated to each column
//! and each couple of columns. This is often the most time consuming
//! step." (§3.) Costs are kept down three ways — a two-level reuse
//! strategy plus fast kernels for whatever still has to be scanned:
//!
//! * **whole-table complement cache** ([`StatsCache`]): complement
//!   statistics come from the memoized whole-table moments by
//!   subtraction (one masked scan per query instead of two full scans) —
//!   the reproduction of the full paper's shared-computation strategy;
//! * **per-query `PreparedStats` cache** (`ziggy_store::PreparedCache`,
//!   threaded through [`crate::pipeline::Ziggy`]): the finished
//!   [`PreparedStats`] is memoized against the selection mask, so a
//!   repeated or shared predicate — REPL refinement loops, exploration
//!   sessions, concurrent HTTP clients — skips this stage entirely;
//! * **word-wise masked kernels** (`UniMoments::from_mask_words` and
//!   friends): the selection-side scans that do run process 64 rows per
//!   packed mask word with per-word accumulation, instead of paying a
//!   branch and an indirection per selected row. Scans are split along
//!   the store's 64 Ki-row chunk boundaries and merged in ascending
//!   chunk order, so large tables fan out across the worker pool
//!   (columns in parallel, or chunks within a column — never both at
//!   once) while staying bit-identical to the serial single-pass path.
//!   Pairwise components additionally fan out over worker threads via
//!   `std::thread::scope` when [`ZiggyConfig::parallel`] is set.

use std::collections::HashMap;

use ziggy_stats::{PairMoments, UniMoments};
use ziggy_store::{
    chunk_bounds, chunk_count, run_indexed, Bitmask, ColumnType, StatsCache, CHUNK_ROWS,
    WORDS_PER_CHUNK,
};

use crate::component::{normalize_components, ComponentKind, ZigComponent};
use crate::config::ZiggyConfig;
use crate::error::Result;

/// All Zig-Components of one query, normalized and indexed.
#[derive(Debug, Clone)]
pub struct PreparedStats {
    /// Rows matched by the query.
    pub n_inside: usize,
    /// Rows outside the selection.
    pub n_outside: usize,
    /// Every successfully computed component (normalized).
    components: Vec<ZigComponent>,
    /// Index from `(kind, column_a, column_b)` into `components`.
    index: HashMap<(ComponentKind, usize, usize), usize>,
}

const NO_COLUMN: usize = usize::MAX;

impl PreparedStats {
    /// All components.
    pub fn components(&self) -> &[ZigComponent] {
        &self.components
    }

    /// Looks up a univariate component for a column.
    pub fn uni_component(&self, kind: ComponentKind, column: usize) -> Option<&ZigComponent> {
        self.index
            .get(&(kind, column, NO_COLUMN))
            .map(|&i| &self.components[i])
    }

    /// Looks up the correlation component for an unordered column pair.
    pub fn pair_component(&self, a: usize, b: usize) -> Option<&ZigComponent> {
        let key = (ComponentKind::CorrelationShift, a.min(b), a.max(b));
        self.index.get(&key).map(|&i| &self.components[i])
    }

    /// Components whose columns all lie inside `view` (the inputs to the
    /// view's Zig-Dissimilarity), in component order.
    ///
    /// Looked up in the index — each view column's one-column families
    /// and each unordered pair's correlation — rather than scanning every
    /// component, so the cost is O(|view|²) lookups however many
    /// components the table has. Hits are returned in ascending component
    /// position, which is exactly the order of filtering `components()`
    /// with [`ZigComponent::within`]: the floating-point sums over them
    /// and the report bytes built from them do not depend on the lookup.
    pub fn components_for_view(&self, view: &[usize]) -> Vec<&ZigComponent> {
        let mut hits: Vec<usize> = Vec::new();
        for (i, &a) in view.iter().enumerate() {
            for kind in ComponentKind::UNIVARIATE {
                hits.extend(self.index.get(&(kind, a, NO_COLUMN)));
            }
            for &b in &view[i + 1..] {
                let key = (ComponentKind::CorrelationShift, a.min(b), a.max(b));
                hits.extend(self.index.get(&key));
            }
        }
        hits.sort_unstable();
        // A view that repeats a column would look its components up twice.
        hits.dedup();
        hits.into_iter().map(|i| &self.components[i]).collect()
    }
}

/// Runs the preparation stage over the selection `mask`. `usable` lists
/// distinct columns (the dependency graph's), so every component has its
/// own index key.
pub fn prepare(
    cache: &StatsCache,
    mask: &Bitmask,
    usable: &[usize],
    config: &ZiggyConfig,
) -> Result<PreparedStats> {
    let table = cache.table();
    // Guard the kernels' packed-word contract: a wrong-length mask must
    // be an Err for direct callers too, not an assertion or underflow.
    if mask.len() != table.n_rows() {
        return Err(ziggy_store::StoreError::LengthMismatch {
            column: "<mask>".to_string(),
            got: mask.len(),
            expected: table.n_rows(),
        }
        .into());
    }
    let n_inside = mask.count_ones();
    let n_outside = table.n_rows() - n_inside;

    let mut components: Vec<ZigComponent> = Vec::new();

    // --- Univariate components, one chunked word-wise pass per usable
    // column. Columns fan out on the worker pool; within a column the
    // masked scan itself splits per chunk (only when the column loop is
    // serial, so the two axes never multiply into oversubscription).
    // Results are placed back in `usable` order, so component order —
    // and therefore normalization and report bytes — is identical to
    // the serial path.
    let col_parallel = config.parallel && usable.len() >= 2 && table.n_rows() >= 4096;
    let chunk_parallel = config.parallel && !col_parallel && table.n_rows() > CHUNK_ROWS;
    let per_column: Vec<Result<Vec<ZigComponent>>> = run_indexed(usable.len(), col_parallel, |i| {
        let col = usable[i];
        let mut out: Vec<ZigComponent> = Vec::new();
        match table.schema().column(col).map(|c| c.ctype) {
            Some(ColumnType::Numeric) => {
                let data = table.numeric(col)?;
                let inside = masked_uni_chunked(data, mask, chunk_parallel);
                let outside = cache.uni_complement(col, &inside)?;
                if let Ok(c) = ZigComponent::mean_shift(col, &inside, &outside) {
                    out.push(c);
                }
                if let Ok(c) = ZigComponent::dispersion_shift(col, &inside, &outside) {
                    out.push(c);
                }
                if config.extended_components {
                    // Raw-sample component: needs the actual values, not
                    // just moments (hence the extra per-query cost the
                    // paper warns about).
                    let inside_vals: Vec<f64> = mask
                        .iter_ones()
                        .map(|r| data[r])
                        .filter(|v| v.is_finite())
                        .collect();
                    let outside_vals: Vec<f64> = data
                        .iter()
                        .enumerate()
                        .filter(|(i, v)| !mask.get(*i) && v.is_finite())
                        .map(|(_, &v)| v)
                        .collect();
                    if let Ok(c) = ZigComponent::shape_shift(col, &inside_vals, &outside_vals) {
                        out.push(c);
                    }
                }
            }
            Some(ColumnType::Categorical) => {
                let inside = ziggy_store::masked_freq(table, col, mask)?;
                let outside = cache.freq_complement(col, &inside)?;
                if let Ok(c) = ZigComponent::frequency_shift(col, &inside, &outside) {
                    out.push(c);
                }
            }
            None => {}
        }
        Ok(out)
    });
    for per_col in per_column {
        components.extend(per_col?);
    }
    let numeric_cols: Vec<usize> = usable
        .iter()
        .copied()
        .filter(|&col| {
            matches!(
                table.schema().column(col).map(|c| c.ctype),
                Some(ColumnType::Numeric)
            )
        })
        .collect();

    // --- Pairwise (correlation) components. ----------------------------
    if config.pairwise_components && numeric_cols.len() >= 2 {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (i, &a) in numeric_cols.iter().enumerate() {
            for &b in &numeric_cols[i + 1..] {
                pairs.push((a, b));
            }
        }
        // Many pairs: fan out across pairs, scan each pair serially.
        // Few pairs: scan each pair's chunks in parallel instead.
        let pair_parallel = config.parallel && pairs.len() >= 64;
        let chunk_parallel = config.parallel && !pair_parallel && table.n_rows() > CHUNK_ROWS;
        let pair_components = run_indexed(pairs.len(), pair_parallel, |i| {
            let (a, b) = pairs[i];
            compute_pair(cache, mask, a, b, chunk_parallel)
        });
        components.extend(pair_components.into_iter().flatten());
    }

    normalize_components(&mut components);

    let mut index = HashMap::with_capacity(components.len());
    for (i, c) in components.iter().enumerate() {
        index.insert((c.kind, c.column_a, c.column_b.unwrap_or(NO_COLUMN)), i);
    }
    Ok(PreparedStats {
        n_inside,
        n_outside,
        components,
        index,
    })
}

/// Masked univariate moments computed chunk-at-a-time and merged in
/// ascending chunk order. Merging one chunk's partial into an empty
/// accumulator reproduces it bit-for-bit, and the merge order is fixed,
/// so this is byte-identical to the single-pass kernel on single-chunk
/// tables and identical between serial and parallel execution.
pub(crate) fn masked_uni_chunked(data: &[f64], mask: &Bitmask, parallel: bool) -> UniMoments {
    let n_chunks = chunk_count(data.len());
    if n_chunks <= 1 {
        return UniMoments::from_mask_words(data, mask.words());
    }
    let words = mask.words();
    let partials = run_indexed(n_chunks, parallel, |ci| {
        let (start, end) = chunk_bounds(ci, data.len());
        let w0 = ci * WORDS_PER_CHUNK;
        let w1 = w0 + (end - start).div_ceil(64);
        UniMoments::from_mask_words(&data[start..end], &words[w0..w1])
    });
    let mut whole = UniMoments::new();
    for p in &partials {
        whole.merge(p);
    }
    whole
}

/// Chunked counterpart of `PairMoments::from_mask_words`; same merge
/// discipline as [`masked_uni_chunked`].
fn masked_pair_chunked(xs: &[f64], ys: &[f64], mask: &Bitmask, parallel: bool) -> PairMoments {
    let n_chunks = chunk_count(xs.len());
    if n_chunks <= 1 {
        return PairMoments::from_mask_words(xs, ys, mask.words())
            .expect("equal-length slices by construction");
    }
    let words = mask.words();
    let partials = run_indexed(n_chunks, parallel, |ci| {
        let (start, end) = chunk_bounds(ci, xs.len());
        let w0 = ci * WORDS_PER_CHUNK;
        let w1 = w0 + (end - start).div_ceil(64);
        PairMoments::from_mask_words(&xs[start..end], &ys[start..end], &words[w0..w1])
            .expect("equal-length slices by construction")
    });
    let mut whole = PairMoments::new();
    for p in &partials {
        whole.merge(p);
    }
    whole
}

fn compute_pair(
    cache: &StatsCache,
    mask: &Bitmask,
    a: usize,
    b: usize,
    chunk_parallel: bool,
) -> Option<ZigComponent> {
    let table = cache.table();
    let xs = table.numeric(a).ok()?;
    let ys = table.numeric(b).ok()?;
    let inside = masked_pair_chunked(xs, ys, mask, chunk_parallel);
    let outside = cache.pair_complement(a, b, &inside).ok()?;
    ZigComponent::correlation_shift(a, b, &inside, &outside).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziggy_store::{eval::select, Table, TableBuilder};

    /// 400 rows; selection = rows 300.. (shifted mean on `shifted`,
    /// changed correlation on (`cx`, `cy`), different category mix on
    /// `cat`).
    fn sample() -> Table {
        sample_builder().build().unwrap()
    }

    fn sample_builder() -> TableBuilder {
        let n = 400usize;
        let sel = |i: usize| i >= 300;
        let mut b = TableBuilder::new();
        b.add_numeric("key", (0..n).map(|i| i as f64).collect());
        b.add_numeric(
            "shifted",
            (0..n)
                .map(|i| {
                    let noise = ((i * 37) % 11) as f64 * 0.1;
                    if sel(i) {
                        10.0 + noise
                    } else {
                        0.0 + noise
                    }
                })
                .collect(),
        );
        b.add_numeric("cx", (0..n).map(|i| ((i * 17) % 101) as f64).collect());
        b.add_numeric(
            "cy",
            (0..n)
                .map(|i| {
                    let x = ((i * 17) % 101) as f64;
                    if sel(i) {
                        x * 2.0 // strong correlation inside.
                    } else {
                        ((i * 7919) % 97) as f64 // noise outside.
                    }
                })
                .collect(),
        );
        b.add_categorical(
            "cat",
            (0..n)
                .map(|i| {
                    Some(if sel(i) {
                        "rare"
                    } else {
                        ["common_a", "common_b"][i % 2]
                    })
                })
                .collect(),
        );
        b
    }

    fn prep(table: &Table, query: &str, config: &ZiggyConfig) -> PreparedStats {
        let cache = StatsCache::new(table);
        let mask = select(table, query).unwrap();
        let usable = crate::graph::usable_columns(table);
        prepare(&cache, &mask, &usable, config).unwrap()
    }

    #[test]
    fn counts_split() {
        let t = sample();
        let p = prep(&t, "key >= 300", &ZiggyConfig::default());
        assert_eq!(p.n_inside, 100);
        assert_eq!(p.n_outside, 300);
    }

    #[test]
    fn mean_shift_detected_on_shifted_column() {
        let t = sample();
        let p = prep(&t, "key >= 300", &ZiggyConfig::default());
        let col = t.index_of("shifted").unwrap();
        let c = p
            .uni_component(ComponentKind::MeanShift, col)
            .expect("component exists");
        assert!(
            c.effect.value > 2.0,
            "huge shift expected, got {}",
            c.effect.value
        );
        assert!(c.effect.p_value < 1e-6);
        // It should dominate its family after normalization.
        assert!((c.normalized - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_shift_detected_on_planted_pair() {
        let t = sample();
        let p = prep(&t, "key >= 300", &ZiggyConfig::default());
        let (cx, cy) = (t.index_of("cx").unwrap(), t.index_of("cy").unwrap());
        let c = p.pair_component(cx, cy).expect("pair component exists");
        assert!(c.effect.value.abs() > 1.0);
        assert!(c.effect.p_value < 1e-4);
        // Symmetric lookup.
        assert_eq!(
            p.pair_component(cy, cx).unwrap().effect.value,
            c.effect.value
        );
    }

    #[test]
    fn frequency_shift_detected_on_categorical() {
        let t = sample();
        let p = prep(&t, "key >= 300", &ZiggyConfig::default());
        let col = t.index_of("cat").unwrap();
        let c = p
            .uni_component(ComponentKind::FrequencyShift, col)
            .expect("component exists");
        assert!(
            c.effect.value > 1.0,
            "selection is all-'rare': big Cohen's w"
        );
        assert!(c.effect.p_value < 1e-6);
    }

    #[test]
    fn extended_components_add_shape_shift() {
        let t = sample();
        let base = prep(&t, "key >= 300", &ZiggyConfig::default());
        assert!(base
            .components()
            .iter()
            .all(|c| c.kind != ComponentKind::ShapeShift));
        let config = ZiggyConfig {
            extended_components: true,
            ..ZiggyConfig::default()
        };
        let p = prep(&t, "key >= 300", &config);
        let col = t.index_of("shifted").unwrap();
        let c = p
            .uni_component(ComponentKind::ShapeShift, col)
            .expect("shape component");
        assert!(c.effect.value > 0.9, "disjoint distributions: KS D near 1");
        assert!(c.effect.p_value < 1e-6);
    }

    #[test]
    fn disabling_pairwise_removes_correlation_components() {
        let t = sample();
        let config = ZiggyConfig {
            pairwise_components: false,
            ..ZiggyConfig::default()
        };
        let p = prep(&t, "key >= 300", &config);
        assert!(p
            .components()
            .iter()
            .all(|c| c.kind != ComponentKind::CorrelationShift));
    }

    #[test]
    fn parallel_matches_serial() {
        let t = sample();
        let serial = prep(
            &t,
            "key >= 300",
            &ZiggyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let parallel = prep(
            &t,
            "key >= 300",
            &ZiggyConfig {
                parallel: true,
                ..Default::default()
            },
        );
        assert_eq!(serial.components().len(), parallel.components().len());
        let (cx, cy) = (t.index_of("cx").unwrap(), t.index_of("cy").unwrap());
        let a = serial.pair_component(cx, cy).unwrap().effect.value;
        let b = parallel.pair_component(cx, cy).unwrap().effect.value;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn components_for_view_filters_by_coverage() {
        let t = sample();
        let p = prep(&t, "key >= 300", &ZiggyConfig::default());
        let (cx, cy) = (t.index_of("cx").unwrap(), t.index_of("cy").unwrap());
        let view = vec![cx, cy];
        let comps = p.components_for_view(&view);
        // 2 mean + 2 dispersion + 1 correlation = 5 components at most.
        assert!(comps.len() <= 5 && comps.len() >= 3);
        assert!(comps.iter().all(|c| c.within(&view)));
    }

    /// Every view of one to three columns over `n_cols` columns, each in
    /// sorted and in reversed order, plus the empty view and views that
    /// repeat a column.
    fn all_small_views(n_cols: usize) -> Vec<Vec<usize>> {
        let mut views = vec![vec![], vec![0, 0], vec![1, 2, 1]];
        for a in 0..n_cols {
            views.push(vec![a]);
            for b in a + 1..n_cols {
                views.push(vec![a, b]);
                views.push(vec![b, a]);
                for c in b + 1..n_cols {
                    views.push(vec![a, b, c]);
                    views.push(vec![c, a, b]);
                    views.push(vec![c, b, a]);
                }
            }
        }
        views
    }

    #[test]
    fn components_for_view_lookup_matches_the_scan() {
        // The index lookup must return exactly what filtering every
        // component with `within` returns — the same components, in the
        // same order — so scores and report bytes cannot move.
        let mut b = sample_builder();
        // A second categorical column and a numeric column with NULLs.
        b.add_categorical(
            "region",
            (0..400).map(|i| Some(["n", "s"][(i / 7) % 2])).collect(),
        );
        b.add_numeric(
            "gappy",
            (0..400)
                .map(|i| {
                    if i % 5 == 0 {
                        f64::NAN
                    } else {
                        ((i * 13) % 29) as f64
                    }
                })
                .collect(),
        );
        let t = b.build().unwrap();
        let configs = [
            ZiggyConfig::default(),
            ZiggyConfig {
                extended_components: true,
                ..ZiggyConfig::default()
            },
            ZiggyConfig {
                max_view_size: 3,
                ..ZiggyConfig::default()
            },
        ];
        for config in &configs {
            let p = prep(&t, "key >= 300", config);
            let kinds: std::collections::HashSet<_> =
                p.components().iter().map(|c| c.kind).collect();
            assert!(kinds.contains(&ComponentKind::FrequencyShift));
            assert!(kinds.contains(&ComponentKind::CorrelationShift));
            assert_eq!(
                kinds.contains(&ComponentKind::ShapeShift),
                config.extended_components
            );
            for view in all_small_views(t.n_cols()) {
                let scan: Vec<&ZigComponent> =
                    p.components().iter().filter(|c| c.within(&view)).collect();
                let lookup = p.components_for_view(&view);
                assert_eq!(lookup.len(), scan.len(), "view {view:?}");
                for (l, s) in lookup.iter().zip(&scan) {
                    assert!(
                        std::ptr::eq(*l, *s),
                        "view {view:?}: order or identity drift"
                    );
                }
                let scan_score: f64 = scan
                    .iter()
                    .map(|c| config.weights.for_kind(c.kind) * c.normalized)
                    .sum();
                let score = crate::dissimilarity::view_score(&view, &p, &config.weights);
                assert_eq!(score.to_bits(), scan_score.to_bits(), "view {view:?}");
            }
        }
    }

    #[test]
    fn chunked_masked_kernels_match_single_pass() {
        // Multi-chunk column with NULLs: the chunked merge must agree
        // with the single-pass kernel, and serial/parallel chunk
        // schedules must agree bit-for-bit with each other.
        let n = 2 * ziggy_store::CHUNK_ROWS + 777;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                if i % 89 == 0 {
                    f64::NAN
                } else {
                    ((i * 31) % 1009) as f64 * 0.25 - 100.0
                }
            })
            .collect();
        let ys: Vec<f64> = (0..n).map(|i| ((i * 13) % 503) as f64).collect();
        let mask = Bitmask::from_fn(n, |i| (i * 7) % 3 == 0);
        let single = UniMoments::from_mask_words(&data, mask.words());
        let serial = masked_uni_chunked(&data, &mask, false);
        let parallel = masked_uni_chunked(&data, &mask, true);
        assert_eq!(serial.count(), parallel.count());
        assert_eq!(serial.mean(), parallel.mean());
        assert_eq!(serial.variance().unwrap(), parallel.variance().unwrap());
        assert_eq!(single.count(), serial.count());
        assert!((single.mean() - serial.mean()).abs() < 1e-9);
        assert!((single.variance().unwrap() - serial.variance().unwrap()).abs() < 1e-6);

        let pair_single = PairMoments::from_mask_words(&data, &ys, mask.words()).unwrap();
        let pair_serial = masked_pair_chunked(&data, &ys, &mask, false);
        let pair_parallel = masked_pair_chunked(&data, &ys, &mask, true);
        assert_eq!(
            pair_serial.correlation().unwrap(),
            pair_parallel.correlation().unwrap()
        );
        assert!(
            (pair_single.correlation().unwrap() - pair_serial.correlation().unwrap()).abs() < 1e-9
        );

        // Single-chunk tables take the exact single-pass code path.
        let small = &data[..1994];
        let small_mask = Bitmask::from_fn(1994, |i| i % 2 == 0);
        let a = UniMoments::from_mask_words(small, small_mask.words());
        let b = masked_uni_chunked(small, &small_mask, true);
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.variance().unwrap(), b.variance().unwrap());
    }

    #[test]
    fn column_parallel_prepare_matches_serial_exactly() {
        // Table big enough to trip the column fan-out gate (>= 4096
        // rows, >= 2 usable columns) with 12 numeric columns, so the 66
        // pairs also take the pair fan-out (>= 64 pairs): every
        // component must be bit-identical to the serial path.
        let n = 5000usize;
        let mut b = TableBuilder::new();
        b.add_numeric("key", (0..n).map(|i| i as f64).collect());
        for c in 1..12usize {
            let (mul, modulus) = (37 + 14 * c, 997 - 31 * c);
            b.add_numeric(
                format!("n{c}"),
                (0..n)
                    .map(|i| ((i * mul) % modulus) as f64 * 0.5 - c as f64)
                    .collect(),
            );
        }
        b.add_categorical(
            "cat",
            (0..n).map(|i| Some(["x", "y", "z"][(i * 7) % 3])).collect(),
        );
        let t = b.build().unwrap();
        let serial = prep(
            &t,
            "key >= 2500",
            &ZiggyConfig {
                parallel: false,
                ..Default::default()
            },
        );
        let parallel = prep(
            &t,
            "key >= 2500",
            &ZiggyConfig {
                parallel: true,
                ..Default::default()
            },
        );
        let pairs = serial
            .components()
            .iter()
            .filter(|c| c.column_b.is_some())
            .count();
        assert!(pairs >= 64, "only {pairs} pair components");
        assert_eq!(serial.components().len(), parallel.components().len());
        for (s, p) in serial.components().iter().zip(parallel.components()) {
            assert_eq!(s.kind, p.kind);
            assert_eq!(s.column_a, p.column_a);
            assert_eq!(s.column_b, p.column_b);
            assert_eq!(
                s.effect.value.to_bits(),
                p.effect.value.to_bits(),
                "component order/value drift"
            );
            assert_eq!(s.effect.se.to_bits(), p.effect.se.to_bits());
            assert_eq!(s.effect.p_value.to_bits(), p.effect.p_value.to_bits());
            assert_eq!(s.normalized.to_bits(), p.normalized.to_bits());
        }
    }

    #[test]
    fn empty_selection_yields_no_components_but_no_panic() {
        let t = sample();
        let cache = StatsCache::new(&t);
        let mask = select(&t, "key < 0").unwrap();
        let usable = crate::graph::usable_columns(&t);
        let p = prepare(&cache, &mask, &usable, &ZiggyConfig::default()).unwrap();
        assert_eq!(p.n_inside, 0);
        // Every effect needs >= 2 rows per side; nothing is computable.
        assert!(p.components().is_empty());
    }
}
