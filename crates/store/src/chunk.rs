//! Cache-sized column chunks: per-chunk zone-map summaries and the
//! small self-scheduling worker pool the chunked kernels run on.
//!
//! Columns stay physically contiguous (`Table::numeric` still hands out
//! one `&[f64]` slice — nothing about the storage format changed), but
//! every scan-shaped computation now views a column as a sequence of
//! [`CHUNK_ROWS`]-row windows:
//!
//! * each window carries a [`ChunkSummary`] (min / max / null count),
//!   so predicate evaluation can *skip* a chunk its summary proves cold
//!   (no row can match) or *fill* one it proves hot (every non-null row
//!   matches, and there are no nulls) without touching the data;
//! * whole-table and masked statistics are computed as per-chunk
//!   partials merged in ascending chunk order. The Kahan-compensated
//!   accumulators are additive, so the merge is exact — and because the
//!   merge order is canonical, the serial path, the parallel path, and
//!   the incremental-append path (which reuses frozen partials for
//!   unchanged chunks) all produce bit-identical results.
//!
//! [`CHUNK_ROWS`] is a multiple of 64, so chunk boundaries land on
//! `Bitmask` word boundaries: a chunk's mask words are
//! `words[ci * WORDS_PER_CHUNK ..]` with no bit shifting.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::expr::CmpOp;
use crate::table::Table;

/// Rows per chunk. 64Ki rows × 8 bytes = 512 KiB of column data per
/// chunk — sized so one chunk's working set stays cache-resident while
/// still being coarse enough that per-chunk bookkeeping is noise.
pub const CHUNK_ROWS: usize = 65536;

/// Mask words per full chunk (`CHUNK_ROWS` is a multiple of 64).
pub const WORDS_PER_CHUNK: usize = CHUNK_ROWS / 64;

/// Number of chunks covering `n_rows` rows (0 for an empty table).
pub fn chunk_count(n_rows: usize) -> usize {
    n_rows.div_ceil(CHUNK_ROWS)
}

/// Half-open row range `[start, end)` of chunk `ci`.
pub fn chunk_bounds(ci: usize, n_rows: usize) -> (usize, usize) {
    let start = ci * CHUNK_ROWS;
    (start, (start + CHUNK_ROWS).min(n_rows))
}

/// Zone-map summary of one chunk of a numeric column.
///
/// `min`/`max` range over the chunk's non-NULL values (NULL is NaN);
/// an all-NULL chunk has `min = +∞ > max = -∞`, which every skip rule
/// below treats as "nothing can match". Non-finite data values (±∞)
/// *do* participate in min/max — the evaluator's comparison semantics
/// admit them (`!x.is_nan() && op.eval_f64(..)`), so the summary must
/// bound them too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkSummary {
    /// Smallest non-NULL value (`+∞` when the chunk is all NULL).
    pub min: f64,
    /// Largest non-NULL value (`-∞` when the chunk is all NULL).
    pub max: f64,
    /// Number of NULL (NaN) rows in the chunk.
    pub null_count: u32,
    /// Rows in the chunk (only the last chunk of a column is short).
    pub len: u32,
}

impl ChunkSummary {
    /// Scans one chunk slice.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut null_count = 0u32;
        for &v in values {
            if v.is_nan() {
                null_count += 1;
            } else {
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
        }
        Self {
            min,
            max,
            null_count,
            len: values.len() as u32,
        }
    }

    /// Every row in the chunk is NULL.
    pub fn all_null(&self) -> bool {
        self.null_count as usize == self.len as usize
    }

    /// No row in the chunk is NULL.
    pub fn no_nulls(&self) -> bool {
        self.null_count == 0
    }

    /// True when *no* row of the chunk can satisfy `col <op> rhs`, so
    /// the evaluator may leave the chunk's mask bits zero unscanned.
    /// NULLs fail every comparison, so an all-NULL chunk always skips
    /// (its `min > max` sentinel triggers each rule below). `rhs` must
    /// not be NaN (the caller bypasses zone maps for NaN literals).
    pub fn skips_cmp(&self, op: CmpOp, rhs: f64) -> bool {
        if self.all_null() {
            return true;
        }
        match op {
            CmpOp::Gt => self.max <= rhs,
            CmpOp::Ge => self.max < rhs,
            CmpOp::Lt => self.min >= rhs,
            CmpOp::Le => self.min > rhs,
            CmpOp::Eq => rhs < self.min || rhs > self.max,
            CmpOp::Ne => self.min == self.max && self.min == rhs,
        }
    }

    /// True when *every* row of the chunk satisfies `col <op> rhs`, so
    /// the evaluator may set the chunk's mask bits to one unscanned.
    /// Requires a NULL-free chunk: a NULL row fails every comparison.
    pub fn fills_cmp(&self, op: CmpOp, rhs: f64) -> bool {
        if !self.no_nulls() || self.len == 0 {
            return false;
        }
        match op {
            CmpOp::Gt => self.min > rhs,
            CmpOp::Ge => self.min >= rhs,
            CmpOp::Lt => self.max < rhs,
            CmpOp::Le => self.max <= rhs,
            CmpOp::Eq => self.min == self.max && self.min == rhs,
            CmpOp::Ne => self.max < rhs || self.min > rhs,
        }
    }

    /// Skip rule for `col BETWEEN lo AND hi` (inclusive; `negated`
    /// flips the row predicate, but NULLs fail either way).
    pub fn skips_between(&self, lo: f64, hi: f64, negated: bool) -> bool {
        if self.all_null() {
            return true;
        }
        if negated {
            // All non-null values inside [lo, hi] → none pass NOT BETWEEN.
            self.min >= lo && self.max <= hi
        } else {
            self.max < lo || self.min > hi
        }
    }

    /// Fill rule for `col BETWEEN lo AND hi` — requires a NULL-free
    /// chunk whose whole range sits on the passing side.
    pub fn fills_between(&self, lo: f64, hi: f64, negated: bool) -> bool {
        if !self.no_nulls() || self.len == 0 {
            return false;
        }
        if negated {
            self.max < lo || self.min > hi
        } else {
            self.min >= lo && self.max <= hi
        }
    }
}

/// Builds the summary vector for one numeric column.
pub fn summarize_column(data: &[f64]) -> Vec<ChunkSummary> {
    let n_chunks = chunk_count(data.len());
    run_indexed(n_chunks, n_chunks >= 2, |ci| {
        let (start, end) = chunk_bounds(ci, data.len());
        ChunkSummary::from_slice(&data[start..end])
    })
}

/// Per-column zone maps for one table, built lazily on first use and
/// shared by every predicate evaluation against that table.
///
/// Deliberately *not* part of [`Table`] (which serializes — summaries
/// are derived state, not data) — the engine's statistics cache owns
/// one `ZoneMaps` per table and threads it into the evaluator.
pub struct ZoneMaps {
    table: Arc<Table>,
    /// One lazy slot per column; `None` once initialized means the
    /// column is categorical (no zone map).
    cols: Vec<OnceLock<Option<Arc<Vec<ChunkSummary>>>>>,
    chunks_skipped: AtomicU64,
    chunks_filled: AtomicU64,
    chunks_scanned: AtomicU64,
}

impl ZoneMaps {
    /// Empty zone maps over `table`; summaries build on first use.
    pub fn new(table: Arc<Table>) -> Self {
        let cols = (0..table.n_cols()).map(|_| OnceLock::new()).collect();
        Self {
            table,
            cols,
            chunks_skipped: AtomicU64::new(0),
            chunks_filled: AtomicU64::new(0),
            chunks_scanned: AtomicU64::new(0),
        }
    }

    /// Zone maps for a table extended by an append: summaries for
    /// chunks that were already full before the append are *inherited*
    /// (they are pure functions of unchanged chunk data), and only the
    /// old tail chunk onward is rescanned. Columns the old maps never
    /// summarized stay lazy.
    pub fn for_appended(old: &ZoneMaps, table: Arc<Table>) -> Self {
        let fresh = Self::new(Arc::clone(&table));
        let old_rows = old.table.n_rows();
        let inherited_chunks = old_rows / CHUNK_ROWS; // full chunks only
        for (i, slot) in fresh.cols.iter().enumerate() {
            let Some(Some(old_sums)) = old.cols.get(i).and_then(|s| s.get()) else {
                continue;
            };
            let Ok(data) = table.numeric(i) else { continue };
            let n_chunks = chunk_count(data.len());
            let mut sums = Vec::with_capacity(n_chunks);
            sums.extend_from_slice(&old_sums[..inherited_chunks.min(old_sums.len())]);
            for ci in sums.len()..n_chunks {
                let (start, end) = chunk_bounds(ci, data.len());
                sums.push(ChunkSummary::from_slice(&data[start..end]));
            }
            let _ = slot.set(Some(Arc::new(sums)));
        }
        fresh
    }

    /// Rows in the underlying table (evaluators check this against the
    /// table they were handed before trusting the maps).
    pub fn n_rows(&self) -> usize {
        self.table.n_rows()
    }

    /// The summaries for column `col`, building them on first use.
    /// `None` for categorical columns (or out-of-range indices).
    pub fn column(&self, col: usize) -> Option<Arc<Vec<ChunkSummary>>> {
        let slot = self.cols.get(col)?;
        slot.get_or_init(|| {
            self.table
                .numeric(col)
                .ok()
                .map(|data| Arc::new(summarize_column(data)))
        })
        .clone()
    }

    /// Records zone-map outcomes for one evaluation (metrics).
    pub fn record(&self, skipped: u64, filled: u64, scanned: u64) {
        if skipped > 0 {
            self.chunks_skipped.fetch_add(skipped, Ordering::Relaxed);
        }
        if filled > 0 {
            self.chunks_filled.fetch_add(filled, Ordering::Relaxed);
        }
        if scanned > 0 {
            self.chunks_scanned.fetch_add(scanned, Ordering::Relaxed);
        }
    }

    /// `(skipped, filled, scanned)` chunk counters across all
    /// evaluations so far — the observable proof that summary-based
    /// skipping is engaged (`tests/serve_integration.rs` asserts on it
    /// through the served path).
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.chunks_skipped.load(Ordering::Relaxed),
            self.chunks_filled.load(Ordering::Relaxed),
            self.chunks_scanned.load(Ordering::Relaxed),
        )
    }
}

impl std::fmt::Debug for ZoneMaps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (s, fl, sc) = self.counters();
        f.debug_struct("ZoneMaps")
            .field("n_cols", &self.cols.len())
            .field("chunks_skipped", &s)
            .field("chunks_filled", &fl)
            .field("chunks_scanned", &sc)
            .finish()
    }
}

/// Runs `n_tasks` indexed tasks on a small self-scheduling worker pool
/// and returns the results *in index order*.
///
/// Workers pull the next task index from a shared atomic counter, so
/// load balances dynamically (a slow chunk doesn't stall its
/// neighbors), but results are placed by index — callers that merge
/// partials in ascending order get bit-identical output from the
/// serial and parallel paths. Falls back to a plain serial loop when
/// `parallel` is false, the task count is tiny, or the host has a
/// single core.
pub fn run_indexed<T, F>(n_tasks: usize, parallel: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if parallel {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
            .min(n_tasks)
    } else {
        1
    };
    if threads < 2 || n_tasks < 2 {
        return (0..n_tasks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("chunk worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every task index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table_with(values: Vec<f64>) -> Arc<Table> {
        let mut b = TableBuilder::new();
        b.add_numeric("x", values);
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn summary_scans_nulls_and_extremes() {
        let s = ChunkSummary::from_slice(&[3.0, f64::NAN, -1.5, 7.0, f64::NAN]);
        assert_eq!(s.min, -1.5);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.null_count, 2);
        assert_eq!(s.len, 5);
        assert!(!s.all_null() && !s.no_nulls());
    }

    #[test]
    fn all_null_chunk_skips_every_operator() {
        let s = ChunkSummary::from_slice(&[f64::NAN, f64::NAN]);
        assert!(s.all_null());
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert!(s.skips_cmp(op, 0.0), "{op:?}");
            assert!(!s.fills_cmp(op, 0.0), "{op:?}");
        }
        assert!(s.skips_between(0.0, 1.0, false));
        assert!(s.skips_between(0.0, 1.0, true));
        assert!(!s.fills_between(0.0, 1.0, false));
    }

    /// Skip/fill decisions must agree with brute-force row evaluation:
    /// skip ⇒ no row passes, fill ⇒ every row passes.
    #[test]
    fn skip_and_fill_rules_are_sound_by_brute_force() {
        let chunks: Vec<Vec<f64>> = vec![
            vec![1.0, 2.0, 3.0],
            vec![5.0, 5.0, 5.0],
            vec![f64::NAN, 2.0, 8.0],
            vec![-3.0, f64::NAN, f64::NAN],
            vec![f64::NEG_INFINITY, 0.0, f64::INFINITY],
            vec![f64::NAN],
        ];
        let rhss = [-4.0, -3.0, 0.0, 2.0, 5.0, 8.0, 9.0];
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        for values in &chunks {
            let s = ChunkSummary::from_slice(values);
            for &rhs in &rhss {
                for op in ops {
                    let passes: Vec<bool> = values
                        .iter()
                        .map(|&x| !x.is_nan() && op.eval_f64(x, rhs))
                        .collect();
                    if s.skips_cmp(op, rhs) {
                        assert!(
                            passes.iter().all(|&p| !p),
                            "unsound skip {op:?} rhs={rhs} over {values:?}"
                        );
                    }
                    if s.fills_cmp(op, rhs) {
                        assert!(
                            passes.iter().all(|&p| p),
                            "unsound fill {op:?} rhs={rhs} over {values:?}"
                        );
                    }
                }
                for &hi in &rhss {
                    for negated in [false, true] {
                        let (lo, hi) = (rhs.min(hi), rhs.max(hi));
                        let passes: Vec<bool> = values
                            .iter()
                            .map(|&x| !x.is_nan() && ((lo <= x && x <= hi) != negated))
                            .collect();
                        if s.skips_between(lo, hi, negated) {
                            assert!(passes.iter().all(|&p| !p), "unsound between skip");
                        }
                        if s.fills_between(lo, hi, negated) {
                            assert!(passes.iter().all(|&p| p), "unsound between fill");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_geometry() {
        assert_eq!(chunk_count(0), 0);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(CHUNK_ROWS), 1);
        assert_eq!(chunk_count(CHUNK_ROWS + 1), 2);
        assert_eq!(chunk_bounds(0, 100), (0, 100));
        assert_eq!(
            chunk_bounds(1, CHUNK_ROWS + 10),
            (CHUNK_ROWS, CHUNK_ROWS + 10)
        );
        assert_eq!(CHUNK_ROWS % 64, 0, "chunks must align to mask words");
    }

    #[test]
    fn zone_maps_lazy_and_shared() {
        let t = table_with((0..100).map(|i| i as f64).collect());
        let z = ZoneMaps::new(Arc::clone(&t));
        let a = z.column(0).unwrap();
        let b = z.column(0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "summaries built once");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].min, 0.0);
        assert_eq!(a[0].max, 99.0);
        assert!(z.column(7).is_none(), "out of range is None");
    }

    #[test]
    fn for_appended_matches_fresh_summaries() {
        // Old table spans 2 chunks + change; append grows the tail.
        let old_rows = CHUNK_ROWS * 2 + 17;
        let val = |i: usize| {
            if i.is_multiple_of(97) {
                f64::NAN
            } else {
                (i % 1013) as f64 - 500.0
            }
        };
        let old = table_with((0..old_rows).map(val).collect());
        let new = table_with((0..old_rows + 23).map(val).collect());
        let zo = ZoneMaps::new(Arc::clone(&old));
        zo.column(0).unwrap(); // force the old summaries
        let za = ZoneMaps::for_appended(&zo, Arc::clone(&new));
        let zf = ZoneMaps::new(Arc::clone(&new));
        assert_eq!(&*za.column(0).unwrap(), &*zf.column(0).unwrap());
    }

    #[test]
    fn run_indexed_parallel_matches_serial() {
        let serial = run_indexed(37, false, |i| i * i);
        let parallel = run_indexed(37, true, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 37);
        assert_eq!(serial[36], 36 * 36);
        assert!(run_indexed(0, true, |i| i).is_empty());
    }
}
