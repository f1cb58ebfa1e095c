#![warn(missing_docs)]

//! The Ziggy engine — characterizing query results for data explorers.
//!
//! Reproduction of Sellam & Kersten, *Ziggy: Characterizing Query Results
//! for Data Explorers*, PVLDB 9(13), 2016. Given a selection query over a
//! wide table, the engine finds *characteristic views*: small, tight,
//! mutually disjoint sets of columns on which the selected tuples diverge
//! most from the rest of the table — and explains why in plain language.
//!
//! The pipeline mirrors the paper's Figure 4:
//!
//! 1. **Preparation** ([`prepare`]) — execute the query, compute the
//!    Zig-Components ([`component`]) for every column and column pair,
//!    deriving complement statistics from cached whole-table moments.
//! 2. **View search** ([`candidates`], [`search`]) — build the column
//!    dependency graph ([`graph`]), partition it with complete-linkage
//!    clustering under the tightness constraint, score candidates with
//!    the Zig-Dissimilarity ([`dissimilarity`], [`weights`]), rank, and
//!    enforce disjointness.
//! 3. **Post-processing** ([`robust`], [`explain`]) — test each
//!    component's significance, aggregate into a per-view robustness
//!    score (min-p or Bonferroni, paper §3), and generate rule-based
//!    textual explanations.
//!
//! [`pipeline::Ziggy`] ties the stages together; [`report`] holds the
//! result types and [`render`] draws ASCII views and the Figure-5-style
//! interface snapshot.

pub mod candidates;
pub mod component;
pub mod config;
pub mod dissimilarity;
pub mod error;
pub mod explain;
pub mod graph;
pub mod pipeline;
pub mod prepare;
pub mod render;
pub mod report;
pub mod robust;
pub mod search;
pub mod session;
pub mod weights;

pub use component::{ComponentKind, ZigComponent};
pub use config::{DependenceKind, ZiggyConfig};
pub use error::ZiggyError;
pub use explain::Explanation;
pub use pipeline::{
    CachedReport, CharacterizeOutcome, MaskMemo, ReportCache, ReportKey, ReuseLevel, Ziggy,
};
pub use report::{CharacterizationReport, StageTimings, View, ViewReport};
pub use session::{diff_reports, ExplorationSession, ReportDiff};
pub use weights::Weights;
