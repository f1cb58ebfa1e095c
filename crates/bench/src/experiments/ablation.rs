//! Experiment T6 — ablation: which Zig-Components earn their cost?
//!
//! The paper: "In principle, we could design Zig-Components for higher
//! dimensionalities. Nevertheless, those only add marginal accuracy gains
//! in practice, at the cost of significant processing times." (§2.2.)
//! The experiment quantifies that trade on the crime twin: preparation
//! time and recovery quality with (a) univariate components only,
//! (b) + pairwise correlation components (the paper's configuration),
//! (c) + the extended KS shape component.

use std::time::Instant;

use crate::harness::{format_duration_us, MarkdownTable};
use ziggy_core::graph::usable_columns;
use ziggy_core::prepare::prepare;
use ziggy_core::{Ziggy, ZiggyConfig};
use ziggy_store::eval::select;
use ziggy_synth::{evaluate_recovery, us_crime};

/// One ablation configuration's outcome.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: &'static str,
    /// Preparation time (µs).
    pub preparation_us: u64,
    /// Zig-Components preparation computed: the configuration's work
    /// count, immune to timing noise.
    pub components: usize,
    /// End-to-end wall time (µs).
    pub total_us: u64,
    /// Column F1 against planted ground truth.
    pub column_f1: f64,
    /// View recall against planted ground truth.
    pub view_recall: f64,
}

/// Runs the three component configurations on the crime twin.
pub fn sweep(seed: u64) -> Vec<AblationPoint> {
    let d = us_crime(seed);
    let mask = select(&d.table, &d.predicate).expect("the twin's predicate parses");
    let usable = usable_columns(&d.table);
    let configs: [(&'static str, ZiggyConfig); 3] = [
        (
            "univariate only",
            ZiggyConfig {
                pairwise_components: false,
                max_views: 6,
                ..Default::default()
            },
        ),
        (
            "paper (= + pairwise)",
            ZiggyConfig {
                max_views: 6,
                ..Default::default()
            },
        ),
        (
            "extended (= + KS shape)",
            ZiggyConfig {
                extended_components: true,
                max_views: 6,
                ..Default::default()
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, config)| {
            let z = Ziggy::new(&d.table, config);
            let t0 = Instant::now();
            let report = z
                .characterize(&d.predicate)
                .expect("characterization succeeds");
            let total_us = t0.elapsed().as_micros() as u64;
            let discovered: Vec<Vec<String>> =
                report.views.iter().map(|v| v.view.names.clone()).collect();
            let q = evaluate_recovery(&discovered, &d.planted, 0.5);
            let prepared =
                prepare(z.cache(), &mask, &usable, z.config()).expect("preparation succeeds");
            AblationPoint {
                label,
                preparation_us: report.timings.preparation_us,
                components: prepared.components().len(),
                total_us,
                column_f1: q.column_f1,
                view_recall: q.view_recall,
            }
        })
        .collect()
}

/// Runs T6 and renders the table.
pub fn run(seed: u64) -> String {
    let points = sweep(seed);
    let mut out = String::new();
    out.push_str("Table T6 — component-family ablation (crime twin)\n\n");
    let mut t = MarkdownTable::new(&[
        "components",
        "Zig-Components",
        "preparation",
        "end-to-end",
        "column F1",
        "view recall",
    ]);
    for p in &points {
        t.row(&[
            p.label.to_string(),
            p.components.to_string(),
            format_duration_us(p.preparation_us),
            format_duration_us(p.total_us),
            format!("{:.2}", p.column_f1),
            format!("{:.2}", p.view_recall),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nexpected shape (paper §2.2): pairwise components cost most of the\n\
         preparation time; extra components beyond them add little accuracy\n\
         on mean/variance-planted data while costing a per-column sort.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_components_dominate_cost() {
        let points = sweep(7);
        assert_eq!(points.len(), 3);
        let uni = &points[0];
        let paper = &points[1];
        let extended = &points[2];
        // Work counts, not wall time: timings of one run are too noisy
        // to order reliably.
        assert!(
            paper.components > uni.components,
            "pairwise must add components: {uni:?} vs {paper:?}"
        );
        assert!(
            extended.components >= paper.components,
            "KS must not be free: {paper:?} vs {extended:?}"
        );
        // Quality does not collapse in any configuration.
        for p in &points {
            assert!(p.view_recall >= 0.5, "{p:?}");
        }
    }

    #[test]
    fn report_renders() {
        let r = run(7);
        assert!(r.contains("component-family ablation"));
        assert!(r.contains("univariate only"));
        assert!(r.contains("KS shape"));
    }
}
