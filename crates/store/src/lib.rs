#![warn(missing_docs)]

//! In-memory columnar store — the DBMS substrate of the Ziggy
//! reproduction.
//!
//! The original demo sat on MonetDB; this crate provides the slice of a
//! column store that Ziggy actually exercises:
//!
//! * [`schema`] / [`mod@column`] / [`table`] — typed columnar tables (numeric
//!   columns as `f64` with NaN as the NULL encoding, categorical columns
//!   dictionary-encoded).
//! * [`csv`] — a from-scratch CSV reader with quoting and type inference.
//! * [`lex`] / [`parse`] / [`expr`] — a WHERE-clause predicate language
//!   (`crime_rate > 0.8 AND state IN ('CA','NY')`) compiled to an AST.
//! * [`eval`] — vectorized predicate evaluation producing a selection
//!   [`mask::Bitmask`], the paper's split of every column `C` into the
//!   selection part `Cᴵ` and the complement `Cᴼ` (Figure 2).
//! * [`cache`] — whole-table moment/frequency caches enabling Ziggy's
//!   shared-computation optimization: complement statistics are derived
//!   algebraically as `whole − selection` instead of re-scanning.

pub mod append;
pub mod cache;
pub mod chunk;
pub mod column;
pub mod csv;
pub mod error;
pub mod eval;
pub mod expr;
pub mod hash;
pub mod lex;
pub mod mask;
pub mod parse;
pub mod schema;
pub mod table;

pub use append::append_rows_csv;
pub use cache::{
    masked_freq, masked_freq_naive, masked_pair, masked_uni, KeyedCache, PreparedCache,
    PreparedCounters, StatsCache,
};
pub use chunk::{
    chunk_bounds, chunk_count, run_indexed, summarize_column, ChunkSummary, ZoneMaps, CHUNK_ROWS,
    WORDS_PER_CHUNK,
};
pub use column::Column;
pub use error::StoreError;
pub use expr::{CmpOp, Expr, Literal};
pub use hash::{fnv1a_64, Fnv1a64};
pub use mask::Bitmask;
pub use parse::parse_predicate;
pub use schema::{ColumnMeta, ColumnType, Schema};
pub use table::{Table, TableBuilder};
