//! Whole-table statistics cache — Ziggy's shared-computation optimization.
//!
//! The preparation stage is "often the most time consuming step" (paper,
//! §3); the full paper shares computation between queries. The enabling
//! observation: whole-table moments are query-independent, so they can be
//! computed once and reused. For any selection mask, the complement's
//! statistics follow algebraically:
//!
//! ```text
//! outside = whole − inside
//! ```
//!
//! so each query pays only one masked scan (over the selection, typically
//! small) instead of two full scans.
//!
//! [`StatsCache`] memoizes whole-table [`UniMoments`], [`PairMoments`] and
//! [`FrequencyTable`]s in per-key once-cells behind `parking_lot`
//! RwLocks, making it shareable across threads and across successive
//! queries: each key is scanned exactly once no matter how many threads
//! ask, and distinct keys never serialize on each other.
//!
//! The cache *owns* its table through an [`Arc`], so engines built on it
//! have no borrowed lifetime and can be shared freely between worker
//! threads (the serving layer shares one cache per table between
//! clients). Hit/miss counters expose the shared-computation win to
//! instrumentation such as `ziggy-serve`'s `/metrics` endpoint.
//!
//! [`StatsCache`] is the *whole-table* level of a two-level reuse
//! strategy. The second level is [`PreparedCache`]: a bounded LRU keyed
//! by the selection mask itself, memoizing whatever per-query artifact
//! the engine derives from a mask (in `ziggy-core`, the full
//! `PreparedStats`), so a repeated or shared predicate skips the masked
//! scans entirely. The masked scans that remain run word-wise
//! ([`masked_uni`], [`masked_pair`], [`masked_freq`]): 64 rows per mask
//! word instead of one `iter_ones` round trip per row.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use ziggy_stats::{FrequencyTable, PairMoments, UniMoments};

use crate::chunk::{chunk_bounds, chunk_count, run_indexed, ZoneMaps, CHUNK_ROWS};
use crate::error::{Result, StoreError};
use crate::mask::Bitmask;
use crate::table::Table;

/// Snapshot of a cache's hit/miss counters (see
/// [`StatsCache::counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from a memoized entry.
    pub hits: u64,
    /// Lookups that had to scan the table.
    pub misses: u64,
}

impl CacheCounters {
    /// Total lookups observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One per-key memoization slot. The map's RwLock guards only slot
/// *lookup*; the scan itself runs under the slot's `OnceLock`, so a
/// cold key is computed exactly once without blocking other keys.
type Slot<T> = Arc<OnceLock<T>>;

/// Finds or creates the slot for `key`, holding the map lock only for
/// the lookup — never during a table scan.
fn slot_for<K: Eq + Hash + Copy, V>(map: &RwLock<HashMap<K, Slot<V>>>, key: K) -> Slot<V> {
    if let Some(s) = map.read().get(&key) {
        return Arc::clone(s);
    }
    Arc::clone(map.write().entry(key).or_default())
}

/// Memoized entries (slots whose computation completed).
fn initialized<K, V>(map: &RwLock<HashMap<K, Slot<V>>>) -> usize {
    map.read().values().filter(|s| s.get().is_some()).count()
}

/// Inserts an already-computed value into a slot map (the
/// [`StatsCache::for_appended`] seeding path).
fn seed<K: Eq + Hash + Copy, V>(map: &RwLock<HashMap<K, Slot<V>>>, key: K, value: V) {
    let slot: Slot<V> = Arc::default();
    let _ = slot.set(value);
    map.write().insert(key, slot);
}

/// New per-chunk partial vector for an appended column: the first
/// `inherited` entries (chunks full before the append, hence
/// unchanged) are copied from `old`, the rest recomputed.
fn extend_partials<T: Clone>(
    old: &[T],
    inherited: usize,
    n_chunks: usize,
    compute: impl Fn(usize) -> T,
) -> Arc<Vec<T>> {
    let mut v = Vec::with_capacity(n_chunks);
    v.extend_from_slice(&old[..inherited.min(old.len()).min(n_chunks)]);
    for ci in v.len()..n_chunks {
        v.push(compute(ci));
    }
    Arc::new(v)
}

/// Frequency partial of one chunk of dictionary codes.
fn chunk_freq(codes: &[u32], cardinality: usize) -> FrequencyTable {
    FrequencyTable::from_codes(
        codes.iter().map(|&c| {
            if c == crate::column::NULL_CODE {
                None
            } else {
                Some(c)
            }
        }),
        cardinality,
    )
}

/// Keyed map of frozen per-chunk partials (one `Vec` entry per chunk).
type ChunkSlots<K, V> = RwLock<HashMap<K, Slot<Arc<Vec<V>>>>>;

/// Memoized whole-table statistics for one [`Table`].
///
/// The cache holds the table via `Arc`, guaranteeing the statistics
/// always refer to the data they were computed from while remaining
/// shareable across threads without a borrowed lifetime.
///
/// Concurrency: each key memoizes into its own [`OnceLock`] slot, so
/// concurrent cold lookups of the *same* key collapse to one scan (the
/// losers block on that slot and record hits), while cold scans of
/// *different* keys — e.g. the preparation stage's parallel pair sweep —
/// proceed fully in parallel. Hit/miss counters are exact, not
/// best-effort: one miss per computed key, everything else a hit.
pub struct StatsCache {
    table: Arc<Table>,
    uni: RwLock<HashMap<usize, Slot<UniMoments>>>,
    pair: RwLock<HashMap<(usize, usize), Slot<PairMoments>>>,
    freq: RwLock<HashMap<usize, Slot<FrequencyTable>>>,
    /// Frozen per-chunk partials beneath the whole-value slots. Every
    /// whole-table value above is the *ascending-order merge* of these
    /// (the canonical arithmetic — serial, parallel, and incremental
    /// paths all merge in the same order, so they are bit-identical).
    /// Each partial is a pure function of one chunk's data, which is
    /// what makes appends incremental: [`StatsCache::for_appended`]
    /// inherits every full-chunk partial unchanged and rescans only
    /// from the old tail chunk onward.
    uni_chunks: ChunkSlots<usize, UniMoments>,
    pair_chunks: ChunkSlots<(usize, usize), PairMoments>,
    freq_chunks: ChunkSlots<usize, FrequencyTable>,
    /// Per-column chunk summaries for predicate-time chunk skipping,
    /// shared with the evaluator (see [`crate::eval::evaluate_with`]).
    zones: Arc<ZoneMaps>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StatsCache {
    /// Creates an empty cache over a copy of `table`. When the table is
    /// already behind an `Arc` (the serving path), use
    /// [`StatsCache::shared`] to avoid the deep copy.
    pub fn new(table: &Table) -> Self {
        Self::shared(Arc::new(table.clone()))
    }

    /// Creates an empty cache sharing ownership of `table` (no copy).
    pub fn shared(table: Arc<Table>) -> Self {
        let zones = Arc::new(ZoneMaps::new(Arc::clone(&table)));
        Self {
            table,
            uni: RwLock::new(HashMap::new()),
            pair: RwLock::new(HashMap::new()),
            freq: RwLock::new(HashMap::new()),
            uni_chunks: RwLock::new(HashMap::new()),
            pair_chunks: RwLock::new(HashMap::new()),
            freq_chunks: RwLock::new(HashMap::new()),
            zones,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache for `table`, which must be the cached table plus
    /// appended rows (all old rows unchanged, columns identical). The
    /// incremental-ingest path: every statistic this cache already
    /// computed is carried over by reusing the frozen partials of
    /// chunks the append did not touch and rescanning only the old
    /// tail chunk onward — O(appended rows) per statistic instead of
    /// O(table). Carried-over whole values are *seeded* (the first
    /// lookup is a hit), and because the merge order is canonical, they
    /// are bit-identical to what a cold cache over the same table would
    /// compute. Statistics the old cache never computed stay lazy.
    pub fn for_appended(&self, table: Arc<Table>) -> Self {
        let old_rows = self.table.n_rows();
        assert!(
            table.n_rows() >= old_rows && table.n_cols() == self.table.n_cols(),
            "for_appended requires the old table plus appended rows"
        );
        let fresh = Self {
            zones: Arc::new(ZoneMaps::for_appended(&self.zones, Arc::clone(&table))),
            ..Self::shared(table)
        };
        // Full chunks of the old table are unchanged in the new one.
        let inherited = old_rows / CHUNK_ROWS;

        for (&col, slot) in self.uni_chunks.read().iter() {
            let Some(old) = slot.get() else { continue };
            let Ok(data) = fresh.table.numeric(col) else {
                continue;
            };
            let partials = extend_partials(old, inherited, chunk_count(data.len()), |ci| {
                let (s, e) = chunk_bounds(ci, data.len());
                UniMoments::from_slice(&data[s..e])
            });
            let mut whole = UniMoments::new();
            for p in partials.iter() {
                whole.merge(p);
            }
            seed(&fresh.uni_chunks, col, partials);
            seed(&fresh.uni, col, whole);
        }

        for (&key, slot) in self.pair_chunks.read().iter() {
            let Some(old) = slot.get() else { continue };
            let (Ok(xs), Ok(ys)) = (fresh.table.numeric(key.0), fresh.table.numeric(key.1)) else {
                continue;
            };
            let partials = extend_partials(old, inherited, chunk_count(xs.len()), |ci| {
                let (s, e) = chunk_bounds(ci, xs.len());
                PairMoments::from_slices(&xs[s..e], &ys[s..e]).expect("equal chunk slices")
            });
            let mut whole = PairMoments::new();
            for p in partials.iter() {
                whole.merge(p);
            }
            seed(&fresh.pair_chunks, key, partials);
            seed(&fresh.pair, key, whole);
        }

        for (&col, slot) in self.freq_chunks.read().iter() {
            let Some(old) = slot.get() else { continue };
            let Ok((codes, labels)) = fresh.table.categorical(col) else {
                continue;
            };
            // An append may have grown the dictionary; old partials
            // count over the old cardinality and cannot merge with new
            // ones — recompute that column lazily instead.
            if old.first().is_some_and(|f| f.cardinality() != labels.len()) {
                continue;
            }
            let partials = extend_partials(old, inherited, chunk_count(codes.len()), |ci| {
                let (s, e) = chunk_bounds(ci, codes.len());
                chunk_freq(&codes[s..e], labels.len())
            });
            let mut whole = FrequencyTable::new(labels.len());
            for p in partials.iter() {
                whole.merge(p).expect("equal cardinalities");
            }
            seed(&fresh.freq_chunks, col, partials);
            seed(&fresh.freq, col, whole);
        }
        fresh
    }

    /// The table this cache serves.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Shared handle to the table this cache serves.
    pub fn table_arc(&self) -> Arc<Table> {
        Arc::clone(&self.table)
    }

    /// Hit/miss counters accumulated since construction. A miss is a
    /// lookup that paid a full-table scan; everything else was shared
    /// computation.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Zone maps over this cache's table (per-column chunk summaries),
    /// shared with the predicate evaluator for chunk skipping.
    pub fn zone_maps(&self) -> &Arc<ZoneMaps> {
        &self.zones
    }

    /// Per-chunk univariate partials of numeric column `col`, computed
    /// once (chunks scanned in parallel on the worker pool when the
    /// column spans several) and frozen — the unit of reuse for
    /// incremental appends.
    fn uni_partials(&self, col: usize, data: &[f64]) -> Arc<Vec<UniMoments>> {
        let slot = slot_for(&self.uni_chunks, col);
        Arc::clone(slot.get_or_init(|| {
            let n_chunks = chunk_count(data.len());
            Arc::new(run_indexed(n_chunks, n_chunks >= 2, |ci| {
                let (s, e) = chunk_bounds(ci, data.len());
                UniMoments::from_slice(&data[s..e])
            }))
        }))
    }

    /// Whole-table univariate moments of numeric column `col` (cached;
    /// the ascending merge of the per-chunk partials).
    pub fn uni(&self, col: usize) -> Result<UniMoments> {
        let slot = slot_for(&self.uni, col);
        if let Some(m) = slot.get() {
            self.record(true);
            return Ok(*m);
        }
        let data = self.table.numeric(col)?;
        let mut scanned = false;
        let m = *slot.get_or_init(|| {
            scanned = true;
            let mut whole = UniMoments::new();
            for p in self.uni_partials(col, data).iter() {
                whole.merge(p);
            }
            whole
        });
        self.record(!scanned);
        Ok(m)
    }

    /// Whole-table pair moments of numeric columns `(a, b)` (cached;
    /// symmetric — `(b, a)` hits the same entry).
    pub fn pair(&self, a: usize, b: usize) -> Result<PairMoments> {
        let key = (a.min(b), a.max(b));
        let slot = slot_for(&self.pair, key);
        if let Some(m) = slot.get() {
            self.record(true);
            return Ok(*m);
        }
        let xs = self.table.numeric(key.0)?;
        let ys = self.table.numeric(key.1)?;
        // TableBuilder enforces equal column lengths, but a deserialized
        // table may not have passed through it — keep the Err contract.
        if xs.len() != ys.len() {
            return Err(ziggy_stats::StatsError::LengthMismatch {
                left: xs.len(),
                right: ys.len(),
            }
            .into());
        }
        let mut scanned = false;
        let m = *slot.get_or_init(|| {
            scanned = true;
            let chunk_slot = slot_for(&self.pair_chunks, key);
            let partials = Arc::clone(chunk_slot.get_or_init(|| {
                let n_chunks = chunk_count(xs.len());
                Arc::new(run_indexed(n_chunks, n_chunks >= 2, |ci| {
                    let (s, e) = chunk_bounds(ci, xs.len());
                    PairMoments::from_slices(&xs[s..e], &ys[s..e]).expect("lengths checked above")
                }))
            }));
            let mut whole = PairMoments::new();
            for p in partials.iter() {
                whole.merge(p);
            }
            whole
        });
        self.record(!scanned);
        Ok(m)
    }

    /// Whole-table frequency table of categorical column `col` (cached).
    pub fn freq(&self, col: usize) -> Result<FrequencyTable> {
        let slot = slot_for(&self.freq, col);
        if let Some(t) = slot.get() {
            self.record(true);
            return Ok(t.clone());
        }
        let (codes, labels) = self.table.categorical(col)?;
        let mut scanned = false;
        let t = slot
            .get_or_init(|| {
                scanned = true;
                let chunk_slot = slot_for(&self.freq_chunks, col);
                let partials = Arc::clone(chunk_slot.get_or_init(|| {
                    let n_chunks = chunk_count(codes.len());
                    Arc::new(run_indexed(n_chunks, n_chunks >= 2, |ci| {
                        let (s, e) = chunk_bounds(ci, codes.len());
                        chunk_freq(&codes[s..e], labels.len())
                    }))
                }));
                let mut whole = FrequencyTable::new(labels.len());
                for p in partials.iter() {
                    whole.merge(p).expect("equal cardinalities");
                }
                whole
            })
            .clone();
        self.record(!scanned);
        Ok(t)
    }

    /// Number of memoized entries `(uni, pair, freq)` — mostly for tests
    /// and instrumentation. Counts completed computations only, not
    /// slots whose lookup errored (wrong column type) before scanning.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (
            initialized(&self.uni),
            initialized(&self.pair),
            initialized(&self.freq),
        )
    }

    /// Derives the complement moments `whole − inside` for a numeric
    /// column, given the selection-side moments.
    pub fn uni_complement(&self, col: usize, inside: &UniMoments) -> Result<UniMoments> {
        Ok(self.uni(col)?.subtract(inside)?)
    }

    /// Derives the complement pair moments for a numeric column pair.
    pub fn pair_complement(&self, a: usize, b: usize, inside: &PairMoments) -> Result<PairMoments> {
        Ok(self.pair(a, b)?.subtract(inside)?)
    }

    /// Derives the complement frequency table for a categorical column.
    pub fn freq_complement(&self, col: usize, inside: &FrequencyTable) -> Result<FrequencyTable> {
        Ok(self.freq(col)?.subtract(inside)?)
    }
}

/// Univariate moments of a numeric column restricted to the mask's set
/// rows (the selection side `Cᴵ`). Runs the word-wise kernel: 64 rows per
/// mask word, zero words skipped in one compare.
pub fn masked_uni(table: &Table, col: usize, mask: &Bitmask) -> Result<UniMoments> {
    let data = table.numeric(col)?;
    check_mask(table, mask)?;
    Ok(UniMoments::from_mask_words(data, mask.words()))
}

/// Pair moments of two numeric columns restricted to the mask's set rows
/// (word-wise kernel).
pub fn masked_pair(table: &Table, a: usize, b: usize, mask: &Bitmask) -> Result<PairMoments> {
    let xs = table.numeric(a)?;
    let ys = table.numeric(b)?;
    check_mask(table, mask)?;
    Ok(PairMoments::from_mask_words(xs, ys, mask.words())?)
}

/// Frequency table of a categorical column restricted to the mask,
/// counted block-wise over the mask's non-empty words.
pub fn masked_freq(table: &Table, col: usize, mask: &Bitmask) -> Result<FrequencyTable> {
    let (codes, labels) = table.categorical(col)?;
    check_mask(table, mask)?;
    let mut t = FrequencyTable::new(labels.len());
    for (base, word) in mask.blocks() {
        let chunk = &codes[base..codes.len().min(base + 64)];
        let mut bits = word;
        while bits != 0 {
            let tz = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let c = chunk[tz];
            if c != crate::column::NULL_CODE {
                t.push(c);
            }
        }
    }
    Ok(t)
}

/// Frequency table of a categorical column restricted to the mask via the
/// naive per-row loop — the reference implementation the property tests
/// hold [`masked_freq`]'s block-wise kernel against.
pub fn masked_freq_naive(table: &Table, col: usize, mask: &Bitmask) -> Result<FrequencyTable> {
    let (codes, labels) = table.categorical(col)?;
    check_mask(table, mask)?;
    let mut t = FrequencyTable::new(labels.len());
    for i in mask.iter_ones() {
        let c = codes[i];
        if c != crate::column::NULL_CODE {
            t.push(c);
        }
    }
    Ok(t)
}

/// Snapshot of a [`KeyedCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreparedCounters {
    /// Lookups answered from a memoized per-query artifact.
    pub hits: u64,
    /// Lookups that had to run the builder.
    pub misses: u64,
    /// Entries dropped under capacity pressure (LRU policy).
    pub evictions: u64,
}

/// One memoization slot. The slot's mutex serializes builders of the
/// *same* key — concurrent lookups of one key collapse to exactly one
/// build, with the losers blocking on the winner and recording hits —
/// while distinct keys never contend (the outer map lock is held only
/// for slot lookup, never during a build).
struct KeyedEntry<V> {
    slot: Arc<Mutex<Option<V>>>,
    last_used: u64,
}

/// A bounded, thread-safe LRU once-cache of derived artifacts, generic
/// over the key.
///
/// Three instantiations power the reuse ladder above [`StatsCache`]'s
/// whole-table moments:
///
/// * [`PreparedCache`] (keyed by the selection [`Bitmask`]) removes the
///   *selection* scan from every repeated query — `ziggy-core` stores an
///   `Arc<PreparedStats>` per mask, so REPL refinement loops, exploration
///   sessions, and HTTP clients issuing the same predicate — byte-equal
///   or not, masks are compared by *rows selected* — skip preparation
///   entirely.
/// * `ziggy-core`'s report cache (keyed by mask + canonical
///   configuration) removes *everything* from a repeated query: view
///   search, post-processing, and report serialization are all served
///   from one memoized `CachedReport`.
/// * `ziggy-core`'s mask memo (keyed by the raw query text) removes
///   predicate evaluation from a repeated query text, in front of the
///   report cache.
///
/// Keys hash however the key type hashes ([`Bitmask`] hashes by
/// [`Bitmask::fingerprint`]) but are confirmed by full `Eq`, so hash
/// collisions can cost a probe, never a wrong answer. Entries are
/// evicted least-recently-used when the map reaches `capacity`.
/// Hit/miss/eviction counters are exact, exposed for `/metrics`.
pub struct KeyedCache<K, V> {
    capacity: usize,
    tick: AtomicU64,
    map: Mutex<HashMap<K, KeyedEntry<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The per-query artifact cache, keyed by the selection [`Bitmask`] (the
/// original [`KeyedCache`] instantiation; the name survives at the
/// engine's preparation layer).
pub type PreparedCache<V> = KeyedCache<Bitmask, V>;

impl<K: Eq + Hash + Clone, V: Clone> KeyedCache<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the artifact for `key`, running `build` exactly once per
    /// resident key no matter how many threads ask concurrently. A
    /// failed build caches nothing: the entry is removed and the error
    /// propagates, so the next lookup retries.
    pub fn get_or_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> std::result::Result<V, E>,
    ) -> std::result::Result<V, E> {
        let slot = {
            let mut map = self.map.lock();
            let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(e) = map.get_mut(key) {
                e.last_used = tick;
                Arc::clone(&e.slot)
            } else {
                if map.len() >= self.capacity {
                    let victim = map
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone());
                    if let Some(victim) = victim {
                        map.remove(&victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let slot = Arc::new(Mutex::new(None));
                map.insert(
                    key.clone(),
                    KeyedEntry {
                        slot: Arc::clone(&slot),
                        last_used: tick,
                    },
                );
                slot
            }
        };
        let mut guard = slot.lock();
        if let Some(v) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match build() {
            Ok(v) => {
                *guard = Some(v.clone());
                Ok(v)
            }
            Err(e) => {
                // Drop the placeholder (only if it is still ours — a
                // concurrent eviction plus re-insert may have replaced it).
                let mut map = self.map.lock();
                if map
                    .get(key)
                    .is_some_and(|entry| Arc::ptr_eq(&entry.slot, &slot))
                {
                    map.remove(key);
                }
                Err(e)
            }
        }
    }

    /// Number of resident entries (including ones mid-build).
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every entry (used when the underlying table is deleted, or
    /// when a configuration change invalidates the keyed artifacts);
    /// counters are preserved. In-flight builds finish against their own
    /// slot Arcs but are no longer findable.
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// Exact hit/miss/eviction counters since construction.
    pub fn counters(&self) -> PreparedCounters {
        PreparedCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

fn check_mask(table: &Table, mask: &Bitmask) -> Result<()> {
    if mask.len() != table.n_rows() {
        return Err(StoreError::LengthMismatch {
            column: "<mask>".to_string(),
            got: mask.len(),
            expected: table.n_rows(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::select;
    use crate::table::TableBuilder;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    fn sample() -> Table {
        let n = 300;
        let mut b = TableBuilder::new();
        b.add_numeric("x", (0..n).map(|i| i as f64).collect());
        b.add_numeric(
            "y",
            (0..n)
                .map(|i| (i as f64) * 2.0 + ((i * 13) % 7) as f64)
                .collect(),
        );
        b.add_categorical(
            "cat",
            (0..n)
                .map(|i| {
                    if i % 11 == 0 {
                        None
                    } else {
                        Some(["a", "b", "c"][i % 3])
                    }
                })
                .collect(),
        );
        b.build().unwrap()
    }

    #[test]
    fn uni_cached_once() {
        let t = sample();
        let cache = StatsCache::new(&t);
        let m1 = cache.uni(0).unwrap();
        let m2 = cache.uni(0).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(cache.sizes().0, 1);
    }

    #[test]
    fn pair_symmetric_key() {
        let t = sample();
        let cache = StatsCache::new(&t);
        let ab = cache.pair(0, 1).unwrap();
        let ba = cache.pair(1, 0).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(cache.sizes().1, 1);
    }

    #[test]
    fn complement_identity_uni() {
        let t = sample();
        let cache = StatsCache::new(&t);
        let mask = select(&t, "x < 100").unwrap();
        let inside = masked_uni(&t, 1, &mask).unwrap();
        let derived = cache.uni_complement(1, &inside).unwrap();
        let direct = masked_uni(&t, 1, &mask.complement()).unwrap();
        assert_eq!(derived.count(), direct.count());
        close(derived.mean(), direct.mean(), 1e-9);
        close(
            derived.variance().unwrap(),
            direct.variance().unwrap(),
            1e-9,
        );
    }

    #[test]
    fn complement_identity_pair() {
        let t = sample();
        let cache = StatsCache::new(&t);
        let mask = select(&t, "x BETWEEN 40 AND 220").unwrap();
        let inside = masked_pair(&t, 0, 1, &mask).unwrap();
        let derived = cache.pair_complement(0, 1, &inside).unwrap();
        let direct = masked_pair(&t, 0, 1, &mask.complement()).unwrap();
        close(
            derived.correlation().unwrap(),
            direct.correlation().unwrap(),
            1e-9,
        );
    }

    #[test]
    fn complement_identity_freq() {
        let t = sample();
        let cache = StatsCache::new(&t);
        let mask = select(&t, "x >= 150").unwrap();
        let inside = masked_freq(&t, 2, &mask).unwrap();
        let derived = cache.freq_complement(2, &inside).unwrap();
        let direct = masked_freq(&t, 2, &mask.complement()).unwrap();
        assert_eq!(derived.counts(), direct.counts());
        assert_eq!(derived.total(), direct.total());
    }

    #[test]
    fn masked_respects_nulls() {
        let mut b = TableBuilder::new();
        b.add_numeric("x", vec![1.0, f64::NAN, 3.0, 4.0]);
        let t = b.build().unwrap();
        let mask = Bitmask::from_bools([true, true, false, true]);
        let m = masked_uni(&t, 0, &mask).unwrap();
        assert_eq!(m.count(), 2); // NaN skipped.
        close(m.mean(), 2.5, 1e-12);
    }

    #[test]
    fn mask_length_checked() {
        let t = sample();
        let bad = Bitmask::zeros(7);
        assert!(masked_uni(&t, 0, &bad).is_err());
        assert!(masked_pair(&t, 0, 1, &bad).is_err());
        assert!(masked_freq(&t, 2, &bad).is_err());
    }

    #[test]
    fn type_errors_propagate() {
        let t = sample();
        let cache = StatsCache::new(&t);
        assert!(cache.uni(2).is_err()); // categorical column.
        assert!(cache.freq(0).is_err()); // numeric column.
        assert!(cache.pair(0, 2).is_err());
    }

    #[test]
    fn empty_selection_complement_is_whole() {
        let t = sample();
        let cache = StatsCache::new(&t);
        let empty = Bitmask::zeros(t.n_rows());
        let inside = masked_uni(&t, 0, &empty).unwrap();
        let derived = cache.uni_complement(0, &inside).unwrap();
        assert_eq!(derived.count(), cache.uni(0).unwrap().count());
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let t = sample();
        let cache = StatsCache::new(&t);
        assert_eq!(cache.counters(), CacheCounters::default());
        cache.uni(0).unwrap();
        cache.uni(0).unwrap();
        cache.pair(0, 1).unwrap();
        cache.freq(2).unwrap();
        cache.freq(2).unwrap();
        let c = cache.counters();
        assert_eq!(c.misses, 3, "{c:?}");
        assert_eq!(c.hits, 2, "{c:?}");
        assert_eq!(c.total(), 5);
        // Errors count as neither.
        assert!(cache.uni(2).is_err());
        assert_eq!(cache.counters().total(), 5);
    }

    #[test]
    fn shared_cache_has_no_copy() {
        let t = Arc::new(sample());
        let cache = StatsCache::shared(Arc::clone(&t));
        assert!(Arc::ptr_eq(&t, &cache.table_arc()));
        cache.uni(0).unwrap();
        assert_eq!(cache.sizes().0, 1);
    }

    #[test]
    fn masked_freq_blockwise_matches_naive() {
        let t = sample();
        for query in ["x < 1", "x >= 0", "x BETWEEN 37 AND 240", "x < 0"] {
            let mask = select(&t, query).unwrap();
            let fast = masked_freq(&t, 2, &mask).unwrap();
            let naive = masked_freq_naive(&t, 2, &mask).unwrap();
            assert_eq!(fast.counts(), naive.counts(), "{query}");
            assert_eq!(fast.total(), naive.total(), "{query}");
        }
    }

    #[test]
    fn prepared_cache_memoizes_and_counts() {
        let cache: PreparedCache<Arc<Vec<usize>>> = PreparedCache::new(8);
        let mask = Bitmask::from_fn(100, |i| i % 2 == 0);
        let mut builds = 0usize;
        for _ in 0..3 {
            let v = cache
                .get_or_build(&mask, || {
                    builds += 1;
                    Ok::<_, ()>(Arc::new(mask.iter_ones().collect()))
                })
                .unwrap();
            assert_eq!(v.len(), 50);
        }
        assert_eq!(builds, 1, "same mask must build once");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (2, 1, 0));
        // An equal mask built independently hits the same entry.
        let same = Bitmask::from_fn(100, |i| i % 2 == 0);
        cache
            .get_or_build(&same, || -> std::result::Result<_, ()> {
                panic!("equal mask must not rebuild")
            })
            .unwrap();
        // A different mask with the same popcount gets its own entry.
        let other = Bitmask::from_fn(100, |i| i % 2 == 1);
        cache
            .get_or_build(&other, || {
                Ok::<_, ()>(Arc::new(other.iter_ones().collect()))
            })
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().misses, 2);
    }

    #[test]
    fn prepared_cache_evicts_lru() {
        let cache: PreparedCache<u32> = PreparedCache::new(2);
        let masks: Vec<Bitmask> = (0..3).map(|k| Bitmask::from_fn(64, |i| i == k)).collect();
        cache.get_or_build(&masks[0], || Ok::<_, ()>(0)).unwrap();
        cache.get_or_build(&masks[1], || Ok::<_, ()>(1)).unwrap();
        // Touch mask 0 so mask 1 is the LRU victim.
        cache.get_or_build(&masks[0], || Ok::<_, ()>(99)).unwrap();
        cache.get_or_build(&masks[2], || Ok::<_, ()>(2)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 1);
        // Mask 0 survived; mask 1 was evicted and rebuilds.
        let mut rebuilt = false;
        cache
            .get_or_build(&masks[0], || -> std::result::Result<u32, ()> {
                panic!("mask 0 must still be resident")
            })
            .unwrap();
        cache
            .get_or_build(&masks[1], || {
                rebuilt = true;
                Ok::<_, ()>(1)
            })
            .unwrap();
        assert!(rebuilt);
    }

    #[test]
    fn prepared_cache_does_not_cache_errors() {
        let cache: PreparedCache<u32> = PreparedCache::new(4);
        let mask = Bitmask::ones(10);
        assert_eq!(
            cache.get_or_build(&mask, || Err::<u32, _>("boom")),
            Err("boom")
        );
        assert!(
            cache.is_empty(),
            "failed build must not leave a placeholder"
        );
        // The next lookup retries and succeeds.
        assert_eq!(cache.get_or_build(&mask, || Ok::<_, ()>(7)), Ok(7));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (0, 2));
    }

    #[test]
    fn prepared_cache_concurrent_same_mask_builds_once() {
        let cache: PreparedCache<u64> = PreparedCache::new(4);
        let mask = Bitmask::from_fn(256, |i| i % 7 == 0);
        let builds = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = cache
                        .get_or_build(&mask, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            Ok::<_, ()>(42)
                        })
                        .unwrap();
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (7, 1));
    }

    /// Over a multi-chunk column, the ascending chunk merge must agree
    /// with the single-pass kernel numerically — and on a single-chunk
    /// column (every table ≤ 64Ki rows) it must be *bit-identical*,
    /// because merging one partial into an empty accumulator reproduces
    /// it exactly.
    #[test]
    fn chunked_whole_table_stats_match_single_pass() {
        use crate::chunk::CHUNK_ROWS;
        // Single chunk: exact equality.
        let t = sample();
        let cache = StatsCache::new(&t);
        let data = t.numeric(0).unwrap();
        assert_eq!(cache.uni(0).unwrap(), UniMoments::from_slice(data));
        let (xs, ys) = (t.numeric(0).unwrap(), t.numeric(1).unwrap());
        assert_eq!(
            cache.pair(0, 1).unwrap(),
            PairMoments::from_slices(xs, ys).unwrap()
        );

        // Multi chunk: same count, tight numeric agreement.
        let n = 2 * CHUNK_ROWS + 999;
        let val = |i: usize| {
            if i.is_multiple_of(101) {
                f64::NAN
            } else {
                ((i % 4099) as f64 - 2000.0) * 0.25
            }
        };
        let mut b = TableBuilder::new();
        b.add_numeric("x", (0..n).map(val).collect());
        b.add_numeric("y", (0..n).map(|i| val(i + 7) * 1.5).collect());
        let big = b.build().unwrap();
        let cache = StatsCache::new(&big);
        let whole = cache.uni(0).unwrap();
        let single = UniMoments::from_slice(big.numeric(0).unwrap());
        assert_eq!(whole.count(), single.count());
        close(whole.mean(), single.mean(), 1e-9);
        close(whole.variance().unwrap(), single.variance().unwrap(), 1e-9);
        let wp = cache.pair(0, 1).unwrap();
        let sp =
            PairMoments::from_slices(big.numeric(0).unwrap(), big.numeric(1).unwrap()).unwrap();
        assert_eq!(wp.count(), sp.count());
        close(wp.correlation().unwrap(), sp.correlation().unwrap(), 1e-9);
    }

    /// `for_appended` must hand back *bit-identical* statistics to a
    /// cold cache over the appended table — both are the ascending
    /// merge of identical per-chunk partials, the incremental path just
    /// reuses the frozen ones. Also checks the seeded lookups count as
    /// hits (no rescan) and that a grown dictionary falls back safely.
    #[test]
    fn for_appended_matches_cold_cache_bitwise() {
        use crate::chunk::CHUNK_ROWS;
        let n = CHUNK_ROWS + 500;
        let val = |i: usize| {
            if i.is_multiple_of(97) {
                f64::NAN
            } else {
                (i % 211) as f64 * 0.5 - 50.0
            }
        };
        let cat = |i: usize| {
            if i.is_multiple_of(13) {
                None
            } else {
                Some(["a", "b", "c"][i % 3])
            }
        };
        let build = |rows: usize| {
            let mut b = TableBuilder::new();
            b.add_numeric("x", (0..rows).map(val).collect());
            b.add_numeric("y", (0..rows).map(|i| val(i + 3) * 2.0).collect());
            b.add_categorical("c", (0..rows).map(cat).collect());
            Arc::new(b.build().unwrap())
        };
        let old_cache = StatsCache::shared(build(n));
        old_cache.uni(0).unwrap();
        old_cache.pair(0, 1).unwrap();
        old_cache.freq(2).unwrap();

        let appended = build(n + 37);
        let inc = old_cache.for_appended(Arc::clone(&appended));
        let cold = StatsCache::shared(appended);
        assert_eq!(inc.uni(0).unwrap(), cold.uni(0).unwrap());
        assert_eq!(inc.pair(0, 1).unwrap(), cold.pair(0, 1).unwrap());
        assert_eq!(
            inc.freq(2).unwrap().counts(),
            cold.freq(2).unwrap().counts()
        );
        // Seeded entries answer as hits: no misses for the carried keys.
        let c = inc.counters();
        assert_eq!((c.hits, c.misses), (3, 0), "{c:?}");
        // Column 1 was never computed on the old cache — stays lazy.
        assert_eq!(inc.sizes().0, 1);
        inc.uni(1).unwrap();
        assert_eq!(inc.counters().misses, 1);

        // A grown dictionary cannot inherit frequency partials; the
        // column recomputes cold and still matches.
        let mut b = TableBuilder::new();
        b.add_numeric("x", (0..n + 1).map(val).collect());
        b.add_numeric("y", (0..n + 1).map(|i| val(i + 3) * 2.0).collect());
        b.add_categorical(
            "c",
            (0..n + 1)
                .map(|i| if i == n { Some("NEW") } else { cat(i) })
                .collect(),
        );
        let grown = Arc::new(b.build().unwrap());
        let inc = old_cache.for_appended(Arc::clone(&grown));
        let cold = StatsCache::shared(grown);
        assert_eq!(
            inc.freq(2).unwrap().counts(),
            cold.freq(2).unwrap().counts()
        );
    }

    #[test]
    fn cache_shared_across_threads() {
        let t = sample();
        let cache = StatsCache::new(&t);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for col in 0..2 {
                        cache.uni(col).unwrap();
                    }
                    cache.pair(0, 1).unwrap();
                    cache.freq(2).unwrap();
                });
            }
        });
        let (u, p, f) = cache.sizes();
        assert_eq!(u, 2);
        assert_eq!(p, 1);
        assert_eq!(f, 1);
        // Concurrent cold lookups of the same key must collapse to ONE
        // scan each: exactly one miss per distinct key, every other
        // lookup a hit — the counters are exact, not best-effort.
        let c = cache.counters();
        assert_eq!(c.misses, 4, "{c:?}");
        assert_eq!(c.hits, 4 * 4 - 4, "{c:?}");
    }
}
