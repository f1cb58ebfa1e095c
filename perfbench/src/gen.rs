//! Seeded inputs: the workload tables, the predicate streams the
//! explorers type, and the row batches the appender sends.
//!
//! Tables are fixed (their own generator seed), so two seeds differ only
//! in the predicates and batches they produce; the server receives
//! nothing but these generated requests.

use std::collections::HashSet;
use std::fmt::Write as _;

use ziggy_core::ZiggyConfig;
use ziggy_store::{eval, parse_predicate, ColumnType, Table, TableBuilder};

/// Generator seed of every synthetic table.
const TABLE_SEED: u64 = 7;
/// Rows of the `explore_tall` scaling twin.
pub const TALL_ROWS: usize = 1_000_000;
/// Rows of the `append_explore` base table.
pub const APPEND_BASE_ROWS: usize = 200_000;
/// Rows in one appended batch.
pub const APPEND_BATCH_ROWS: usize = 500;
/// Distinct queries between two appends on `append_explore`, in the
/// untraced run and in the replay alike.
pub const QUERIES_PER_APPEND: usize = 8;
/// Scaling-twin columns before `event_time` is added (17 in total).
const SCALING_COLS: usize = 16;
/// Rows the append batches cycle through (their `event_time` keeps
/// growing, so no two batches are equal).
const BATCH_POOL_ROWS: usize = 20_000;
/// Repeats reach back at most this many distinct predicates, well
/// inside the default report-cache capacity (128), so every repeat is a
/// report-cache hit.
const REPEAT_WINDOW: usize = 64;

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_0F21_661E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The US-crime twin (1,994 × 128) as the CSV an explorer uploads.
pub fn crime_csv() -> String {
    ziggy_store::csv::write_csv_string(&ziggy_synth::us_crime(TABLE_SEED).table, ',')
}

/// The scaling twin with a clustered `event_time` column in front (the
/// row index): an ingest-ordered timestamp, the shape zone maps exploit.
fn scaling_with_time(rows: usize, seed: u64) -> Table {
    let twin = ziggy_synth::scaling_dataset(rows, SCALING_COLS, seed).table;
    let mut b = TableBuilder::new();
    b.add_numeric("event_time", (0..rows).map(|i| i as f64).collect());
    for c in 0..twin.n_cols() {
        b.add_numeric(
            twin.name(c),
            twin.numeric(c).expect("scaling twins are numeric").to_vec(),
        );
    }
    b.build().expect("scaling table with event_time")
}

/// The `explore_tall` table: 1M rows × 17 numeric columns.
pub fn tall_table() -> Table {
    scaling_with_time(TALL_ROWS, TABLE_SEED)
}

/// Renders numeric rows as CSV with four decimals, keeping the 200k-row
/// upload well under the server's 64 MiB body limit.
fn render_rows(table: &Table, out: &mut String, rows: std::ops::Range<usize>) {
    let cols: Vec<&[f64]> = (0..table.n_cols())
        .map(|c| table.numeric(c).expect("numeric table"))
        .collect();
    for r in rows {
        for (i, col) in cols.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if i == 0 {
                write!(out, "{}", col[r] as u64).unwrap();
            } else {
                write!(out, "{:.4}", col[r]).unwrap();
            }
        }
        out.push('\n');
    }
}

/// Numeric rows `rows` of `table` as CSV with a header line.
pub fn numeric_csv(table: &Table, rows: std::ops::Range<usize>) -> String {
    let names: Vec<&str> = (0..table.n_cols()).map(|c| table.name(c)).collect();
    let mut out = names.join(",");
    out.push('\n');
    render_rows(table, &mut out, rows);
    out
}

/// The `append_explore` base table as CSV (200k rows × 17 columns).
pub fn append_base_csv() -> String {
    let t = scaling_with_time(APPEND_BASE_ROWS, TABLE_SEED);
    numeric_csv(&t, 0..t.n_rows())
}

/// Seeded headerless row batches for the 17-column scaling schema:
/// batch `k` continues `event_time` where batch `k - 1` stopped.
pub struct Batches {
    pool: Table,
}

impl Batches {
    pub fn new(seed: u64) -> Self {
        Batches {
            pool: scaling_with_time(BATCH_POOL_ROWS, seed.wrapping_add(1_000)),
        }
    }

    pub fn batch(&self, k: usize) -> String {
        let start = (k * APPEND_BATCH_ROWS) % BATCH_POOL_ROWS;
        let mut out = String::new();
        render_rows(&self.pool, &mut out, start..start + APPEND_BATCH_ROWS);
        // Rewrite event_time so the appended rows stay ingest-ordered.
        let first = APPEND_BASE_ROWS + k * APPEND_BATCH_ROWS;
        out.lines()
            .enumerate()
            .map(|(i, line)| {
                let rest = &line[line.find(',').expect("17 fields")..];
                format!("{}{rest}\n", first + i)
            })
            .collect()
    }
}

/// Shape of a generated predicate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// `col >= q` or `col < q` at a quantile threshold.
    Single,
    /// `a >= qa AND b >= qb`.
    Conjunction,
    /// `event_time BETWEEN lo AND hi` on the clustered column.
    Range,
}

#[derive(Clone, Debug)]
pub struct Pred {
    pub text: String,
    pub shape: Shape,
}

/// Emits predicates whose selections are pairwise distinct *as masks*
/// (by fingerprint, so respellings of one selection never pass as new),
/// hold 5–95% of the rows, and leave at least `min_side_rows` on either
/// side — a degenerate selection is discarded here, never sent.
pub struct PredicateGen<'a> {
    table: &'a Table,
    /// (column index, sorted sample of its values) for quantile cuts.
    numeric: Vec<(usize, Vec<f64>)>,
    clustered: Option<usize>,
    rng: Rng,
    seen: HashSet<u64>,
    min_side: usize,
    emitted: usize,
    /// Start of the golden-ratio sequence of target selectivities.
    phase: f64,
}

impl<'a> PredicateGen<'a> {
    pub fn new(table: &'a Table, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let n = table.n_rows();
        let clustered = (0..table.n_cols()).find(|&c| table.name(c) == "event_time");
        let numeric = (0..table.n_cols())
            .filter(|&c| Some(c) != clustered)
            .filter(|&c| table.schema().column(c).map(|m| m.ctype) == Some(ColumnType::Numeric))
            .filter_map(|c| {
                let data = table.numeric(c).ok()?;
                let mut sample: Vec<f64> = (0..2048)
                    .map(|_| data[rng.below(n)])
                    .filter(|x| x.is_finite())
                    .collect();
                sample.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                sample.dedup();
                (sample.len() >= 16).then_some((c, sample))
            })
            .collect();
        PredicateGen {
            table,
            numeric,
            clustered,
            seen: HashSet::new(),
            min_side: ZiggyConfig::default().min_side_rows,
            emitted: 0,
            phase: rng.unit(),
            rng,
        }
    }

    fn quantile(&self, col: usize, q: f64) -> (&str, f64) {
        let (c, sample) = &self.numeric[col];
        let i = ((q * sample.len() as f64) as usize).min(sample.len() - 1);
        (self.table.name(*c), sample[i])
    }

    fn candidate(&mut self, shape: Shape, target: f64) -> Pred {
        let text = match shape {
            Shape::Single => {
                let col = self.rng.below(self.numeric.len());
                if self.rng.unit() < 0.5 {
                    let (name, v) = self.quantile(col, 1.0 - target);
                    format!("{name} >= {v}")
                } else {
                    let (name, v) = self.quantile(col, target);
                    format!("{name} < {v}")
                }
            }
            Shape::Conjunction => {
                let a = self.rng.below(self.numeric.len());
                let b = (a + 1 + self.rng.below(self.numeric.len() - 1)) % self.numeric.len();
                // Split the target selectivity between the two cuts as
                // if the columns were independent; the mask check below
                // keeps only what lands in range.
                let sa = target.powf(0.3 + 0.4 * self.rng.unit());
                let sb = (target / sa).min(1.0);
                let (na, va) = self.quantile(a, 1.0 - sa);
                let na = na.to_string();
                let (nb, vb) = self.quantile(b, 1.0 - sb);
                format!("{na} >= {va} AND {nb} >= {vb}")
            }
            Shape::Range => {
                let col = self.clustered.expect("range needs event_time");
                let data = self.table.numeric(col).expect("numeric event_time");
                let n = data.len();
                let width = (target * n as f64) as usize;
                let lo = self.rng.below(n - width);
                format!(
                    "event_time BETWEEN {} AND {}",
                    data[lo],
                    data[lo + width - 1]
                )
            }
        };
        Pred { text, shape }
    }

    /// The next fresh predicate. Shapes take turns (predicate `i` has
    /// shape `i % period`), so every seed sends the same mix.
    pub fn next_pred(&mut self) -> Pred {
        let n = self.table.n_rows();
        let cycle: &[Shape] = match self.clustered {
            Some(_) => &[Shape::Single, Shape::Conjunction, Shape::Range],
            None => &[Shape::Single, Shape::Conjunction],
        };
        let shape = cycle[self.emitted % cycle.len()];
        // Target selectivities of one shape follow a golden-ratio
        // sequence over 5-95%: evenly spread for every seed, which only
        // picks where the sequence starts.
        let k = (self.emitted / cycle.len()) as f64;
        let spread = (self.phase + k * 0.618_033_988_749_895).fract();
        self.emitted += 1;
        let mut tries = 0;
        loop {
            let jitter = if tries == 0 {
                0.0
            } else {
                0.05 * (self.rng.unit() - 0.5)
            };
            tries += 1;
            let target = (0.05 + 0.9 * spread + jitter).clamp(0.05, 0.95);
            let p = self.candidate(shape, target);
            let expr = parse_predicate(&p.text).expect("generated predicates parse");
            let mask = eval::evaluate(&expr, self.table).expect("generated predicates evaluate");
            let inside = mask.count_ones();
            let frac = inside as f64 / n as f64;
            if !(0.05..=0.95).contains(&frac)
                || inside < self.min_side
                || n - inside < self.min_side
            {
                continue;
            }
            if self.seen.insert(mask.fingerprint()) {
                return p;
            }
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<Pred> {
        (0..count).map(|_| self.next_pred()).collect()
    }
}

/// One characterize request of a stream: which predicate, and whether
/// it repeats one sent before (`revalidate` adds `If-None-Match`).
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub pred: usize,
    pub repeat: bool,
    pub revalidate: bool,
}

/// A stream over `preds[1..]` (predicate 0 is the set-up request) where
/// every block of four steps holds exactly `repeats_per_4` repeats of
/// recent distinct predicates; the first block leads with its distinct
/// steps so every repeat has something to repeat. Repeats take the
/// predicate shapes in turn too, so the repeated mix is the same for
/// every seed.
pub fn explore_stream(seed: u64, preds: &[Pred], repeats_per_4: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed ^ 0xB10C);
    let period = if preds.iter().take(3).any(|p| p.shape == Shape::Range) {
        3
    } else {
        2
    };
    let mut steps = Vec::new();
    let mut next_fresh: usize = 1;
    let mut repeats = 0;
    loop {
        let mut block: Vec<bool> = (0..4).map(|i| i >= 4 - repeats_per_4).collect();
        if !steps.is_empty() {
            rng.shuffle(&mut block);
        }
        for repeat in block {
            if repeat {
                // One of the last REPEAT_WINDOW distinct predicates
                // (the set-up one included) of this repeat's shape.
                let window: Vec<usize> = (next_fresh.saturating_sub(REPEAT_WINDOW)..next_fresh)
                    .filter(|p| p % period == repeats % period)
                    .collect();
                let pred = match window.len() {
                    0 => next_fresh - 1,
                    n => window[rng.below(n)],
                };
                repeats += 1;
                steps.push(Step {
                    pred,
                    repeat: true,
                    revalidate: false,
                });
            } else {
                if next_fresh >= preds.len() {
                    return steps;
                }
                steps.push(Step {
                    pred: next_fresh,
                    repeat: false,
                    revalidate: false,
                });
                next_fresh += 1;
            }
        }
    }
}

/// The `hot_fleet` stream: repeats over a hot set of `hot` predicates,
/// exactly half of them `If-None-Match` revalidations (one of each per
/// pair of steps, in seeded order).
pub fn hot_stream(seed: u64, hot: usize, len: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed ^ 0x4075);
    let mut steps = Vec::with_capacity(len);
    while steps.len() < len {
        let first_revalidates = rng.unit() < 0.5;
        for revalidate in [first_revalidates, !first_revalidates] {
            steps.push(Step {
                pred: rng.below(hot),
                repeat: true,
                revalidate,
            });
        }
    }
    steps
}

/// The predicates of a table, generated once per run (outside timing).
pub fn predicates(table: &Table, seed: u64, count: usize) -> Vec<Pred> {
    PredicateGen::new(table, seed).take(count)
}
