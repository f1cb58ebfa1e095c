//! Integration tests spanning store → stats → cluster → core: the whole
//! characterization pipeline driven through the public facade.

use ziggy::prelude::*;
use ziggy::store::csv::{read_csv_str, CsvOptions};
use ziggy::store::eval::select;
use ziggy_core::DependenceKind;
use ziggy_stats::Aggregation;

/// A compact CSV with two planted phenomena: `alpha`/`beta` correlated
/// and shifted for large `key`, `kind` flipping category.
fn demo_csv() -> String {
    let mut csv = String::from("key,alpha,beta,gamma,kind\n");
    for i in 0..300 {
        let sel = i >= 240;
        let noise = ((i * 13) % 7) as f64 * 0.3;
        let alpha = if sel { 50.0 } else { 10.0 } + noise;
        let beta = alpha * 1.5 + ((i * 31) % 5) as f64 * 0.2;
        let gamma = ((i * 7919) % 83) as f64;
        let kind = if sel { "hot" } else { ["cold", "mild"][i % 2] };
        csv.push_str(&format!("{i},{alpha},{beta},{gamma},{kind}\n"));
    }
    csv
}

#[test]
fn csv_to_views_end_to_end() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    assert_eq!(table.n_rows(), 300);
    let engine = Ziggy::new(&table, ZiggyConfig::default());
    let report = engine.characterize("key >= 240").unwrap();
    assert_eq!(report.n_inside, 60);
    let top = report.best_view().unwrap();
    assert!(
        top.view.names.contains(&"alpha".to_string())
            || top.view.names.contains(&"beta".to_string()),
        "top view should capture the planted pair: {:?}",
        top.view
    );
    assert!(top.robustness_p < 1e-6);
}

#[test]
fn report_survives_json_round_trip() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    let engine = Ziggy::new(&table, ZiggyConfig::default());
    let report = engine.characterize("key >= 240").unwrap();
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: CharacterizationReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn all_dependence_kinds_agree_on_the_planted_pair() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    for dependence in [
        DependenceKind::Pearson,
        DependenceKind::Spearman,
        DependenceKind::MutualInformation,
    ] {
        let config = ZiggyConfig {
            dependence,
            ..ZiggyConfig::default()
        };
        let engine = Ziggy::new(&table, config);
        let report = engine.characterize("key >= 240").unwrap();
        // The exact pairing can differ per measure (eta may beat the
        // numeric dependence), but the planted columns must surface among
        // the significant views.
        let covered: Vec<String> = report
            .views
            .iter()
            .filter(|v| v.robustness_p < 0.01)
            .flat_map(|v| v.view.names.clone())
            .collect();
        assert!(
            covered.contains(&"alpha".to_string()) && covered.contains(&"beta".to_string()),
            "{dependence:?} missed the planted columns: {covered:?}"
        );
    }
}

#[test]
fn aggregation_schemes_order_correctly() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    let run = |agg: Aggregation| -> f64 {
        let config = ZiggyConfig {
            aggregation: agg,
            ..ZiggyConfig::default()
        };
        let engine = Ziggy::new(&table, config);
        let report = engine.characterize("key >= 240").unwrap();
        report.best_view().unwrap().robustness_p
    };
    let min_p = run(Aggregation::MinP);
    let bonf = run(Aggregation::BonferroniMin);
    assert!(bonf >= min_p, "Bonferroni must be at least as conservative");
}

#[test]
fn weights_redirect_the_ranking() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    // Frequency-only weights: the categorical column must win.
    let config = ZiggyConfig {
        weights: Weights {
            mean: 0.0,
            dispersion: 0.0,
            correlation: 0.0,
            frequency: 1.0,
            shape: 0.0,
        },
        ..ZiggyConfig::default()
    };
    let engine = Ziggy::new(&table, config);
    let report = engine.characterize("key >= 240").unwrap();
    // With frequency-only weights, the only positively scored view is the
    // one containing the categorical column.
    let top = report.best_view().unwrap();
    assert!(
        top.view.names.contains(&"kind".to_string()),
        "{:?}",
        report.views
    );
    assert!(top.score > 0.0);
    for v in report.views.iter().skip(1) {
        assert!(v.score <= top.score);
        if !v.view.names.contains(&"kind".to_string()) {
            assert_eq!(v.score, 0.0, "numeric-only views must score zero");
        }
    }
}

#[test]
fn mask_api_equals_query_api() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    let engine = Ziggy::new(&table, ZiggyConfig::default());
    let mask = select(&table, "key >= 240").unwrap();
    let a = engine.characterize("key >= 240").unwrap();
    let b = engine.characterize_mask(&mask, "key >= 240").unwrap();
    assert_eq!(a.views.len(), b.views.len());
    for (x, y) in a.views.iter().zip(&b.views) {
        assert_eq!(x.view, y.view);
    }
}

#[test]
fn views_respect_all_constraints() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    let config = ZiggyConfig {
        max_view_size: 2,
        min_tightness: 0.3,
        max_views: 3,
        ..Default::default()
    };
    let engine = Ziggy::new(&table, config.clone());
    let report = engine.characterize("key >= 240").unwrap();
    assert!(report.views.len() <= config.max_views);
    let mut used: Vec<usize> = Vec::new();
    for v in &report.views {
        assert!(v.view.len() <= config.max_view_size, "size bound violated");
        assert!(
            v.tightness >= config.min_tightness - 1e-9,
            "tightness violated"
        );
        for c in &v.view.columns {
            assert!(!used.contains(c), "disjointness violated");
            used.push(*c);
        }
    }
}

#[test]
fn explanations_match_component_directions() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    let engine = Ziggy::new(&table, ZiggyConfig::default());
    let report = engine.characterize("key >= 240").unwrap();
    // alpha/beta shift upward: any view containing them must say "high".
    for v in &report.views {
        if v.view.names.contains(&"alpha".to_string()) {
            let text = v.explanation.sentences.join(" ");
            assert!(
                text.contains("particularly high values"),
                "wrong direction in: {text}"
            );
        }
    }
}

#[test]
fn interface_snapshot_renders_from_facade() {
    let table = read_csv_str(&demo_csv(), &CsvOptions::default()).unwrap();
    let engine = Ziggy::new(&table, ZiggyConfig::default());
    let report = engine.characterize("key >= 240").unwrap();
    let mask = select(&table, "key >= 240").unwrap();
    let ui = ziggy::core::render::render_interface(&table, &mask, &report);
    assert!(ui.contains("Input query"));
    assert!(ui.contains("VIEWS"));
    assert!(ui.contains("EXPLANATIONS"));
}

/// Report bytes are a pure function of (table, configuration, mask), so
/// their `ETag`s can be pinned: a change to search, scoring or
/// post-processing that moves one byte of a report fails here. A change
/// that moves report bytes on purpose updates these constants in the
/// same commit and says why.
#[test]
fn crime_twin_etags_are_pinned() {
    let d = ziggy_synth::us_crime(7);
    let base = Ziggy::new(&d.table, ZiggyConfig::default());
    let view3 = base.with_config(ZiggyConfig {
        max_view_size: 3,
        ..ZiggyConfig::default()
    });
    let extended = base.with_config(ZiggyConfig {
        extended_components: true,
        ..ZiggyConfig::default()
    });
    let cases: [(&Ziggy, &str, &str); 6] = [
        (&base, d.predicate.as_str(), "\"a151f388ade2771a\""),
        (
            &base,
            "community_type = 'urban' AND census_region IN ('south', 'west')",
            "\"0514a33c9dd2d4a8\"",
        ),
        (
            &base,
            "population_density > 64 OR pct_boarded_windows > 72",
            "\"16dc6cbefabe45e3\"",
        ),
        (
            &base,
            "NOT census_region = 'midwest' AND average_rent < 188",
            "\"7543cc771f6a090e\"",
        ),
        (&view3, d.predicate.as_str(), "\"9648b3c33ddcd912\""),
        (
            &extended,
            "pct_college_educated BETWEEN 20 AND 30",
            "\"f5862846549839cd\"",
        ),
    ];
    let mut got = Vec::new();
    for (engine, query, _) in &cases {
        let cached = engine.characterize_cached(query).unwrap().cached;
        assert!(!cached.report.views.is_empty(), "{query}: no views to pin");
        got.push(cached.etag());
    }
    let want: Vec<String> = cases.iter().map(|(_, _, tag)| tag.to_string()).collect();
    assert_eq!(got, want, "report bytes moved");
}
