//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! perfbench compare <base.jsonl> <head.jsonl> [--bench BENCHMARK.json]
//! perfbench spread <runs.jsonl> [--bench BENCHMARK.json]
//! ```
//!
//! `--trace 0` drives one workload's seeded request stream over HTTP
//! against in-process servers and prints the end-to-end metrics;
//! `--trace 1` replays the same stream in-process through each layer's
//! public functions, inside spans, and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! nonzero when any output failed its correctness check. `--record`
//! appends that object, tagged with workload, seed and mode, to a JSON
//! lines file that `compare` reads. Workloads, metrics and what each
//! layer metric should move are described in `perfbench/manifest.json`.

mod compare;
mod gen;
mod load;
mod replay;
mod util;

use std::io::Write as _;
use std::path::PathBuf;

use serde_json::Value;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ExploreWide,
    ExploreTall,
    AppendExplore,
    HotFleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "explore_wide" => Workload::ExploreWide,
            "explore_tall" => Workload::ExploreTall,
            "append_explore" => Workload::AppendExplore,
            "hot_fleet" => Workload::HotFleet,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ExploreWide => "explore_wide",
            Workload::ExploreTall => "explore_tall",
            Workload::AppendExplore => "append_explore",
            Workload::HotFleet => "hot_fleet",
        }
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What a run reports, in either mode.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result object.
    pub lines: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && *s <= 120.0)
            .ok_or("--seconds must be in (0, 120]")?,
        trace: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        record: get("--record").ok().map(PathBuf::from),
    })
}

/// The end-to-end metrics of an untraced run, and the lines that print
/// each request class under its own name with its sample count.
fn end_to_end(w: Workload, r: &load::LoadResult) -> Outcome {
    let s = |class: &str| r.samples.get(class).cloned().unwrap_or_default();
    let queries: Vec<f64> = s("query_plain")
        .into_iter()
        .chain(s("query_conj"))
        .collect();
    // Each workload's headline ("main") and second ("side") request
    // class, each reported as p50 and p90. explore_wide has one class,
    // distinct queries, so its side class is the two-column-conjunction
    // subset of them. Tails stop at p90: on hot_fleet, where p99 has
    // the samples, a host hiccup tripled it in 3 of 10 runs.
    let (main, side) = match w {
        Workload::ExploreWide => (("query", queries.clone()), ("query_conj", s("query_conj"))),
        Workload::ExploreTall => (("query", queries.clone()), ("repeat", s("repeat"))),
        Workload::AppendExplore => (("query", queries.clone()), ("append", s("append"))),
        Workload::HotFleet => (("repeat", s("repeat")), ("revalidate", s("revalidate"))),
    };
    let completed: usize = r.samples.values().map(Vec::len).sum();
    let ops_per_s = completed as f64 / r.elapsed_s;
    let rss = util::peak_rss_mb();
    let setup_s = util::median(&r.setup_s);
    let ms = |name: &str, xs: &[f64], q: f64| (name.to_string(), util::quantile(xs, q), "ms");
    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ms("main_p50_ms", &main.1, 0.5),
        ms("main_tail_ms", &main.1, 0.9),
        ms("side_p50_ms", &side.1, 0.5),
        ms("side_tail_ms", &side.1, 0.9),
        ("ops_per_s".to_string(), ops_per_s, "1/s"),
        ("peak_rss_mb".to_string(), rss, "MB"),
    ];

    // The per-class view, under the names the classes go by.
    let mut lines = vec![format!(
        "# {}: main = {} (p50, p90), side = {} (p50, p90)",
        w.name(),
        main.0,
        side.0
    )];
    let mut named = |name: &str, xs: &[f64], q: f64| {
        let need = if q >= 0.99 {
            1000
        } else if q >= 0.9 {
            100
        } else {
            1
        };
        let warn = if xs.len() < need {
            " (too few samples)"
        } else {
            ""
        };
        lines.push(format!(
            "metric {name} {:.4} ms n={}{warn}",
            util::quantile(xs, q),
            xs.len()
        ));
    };
    if !queries.is_empty() {
        named("query_p50_ms", &queries, 0.5);
        named("query_p90_ms", &queries, 0.9);
    }
    let repeats = s("repeat");
    if !repeats.is_empty() {
        named("repeat_p50_ms", &repeats, 0.5);
        named("repeat_p99_ms", &repeats, 0.99);
    }
    if !s("revalidate").is_empty() {
        named("revalidate_p50_ms", &s("revalidate"), 0.5);
    }
    if !s("append").is_empty() {
        named("append_p50_ms", &s("append"), 0.5);
        named("append_p90_ms", &s("append"), 0.9);
    }
    lines.push(format!("metric ops_per_s {ops_per_s:.4} 1/s"));
    lines.push(format!(
        "metric failed_frac {:.6} (failed {} of {})",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    lines.push(format!("metric peak_rss_mb {rss:.2} MB"));
    lines.push(format!(
        "metric setup_s {setup_s:.4} s (median of {:?})",
        r.setup_s
    ));
    lines.push(format!(
        "metric serve.reuse_level3_frac {:.4} ({} of {} characterize responses)",
        r.reuse3.0 as f64 / r.reuse3.1.max(1) as f64,
        r.reuse3.0,
        r.reuse3.1
    ));
    for m in &r.mismatches {
        lines.push(format!("MISMATCH {m}"));
    }
    Outcome {
        attempted: r.attempted.max(1),
        failed: r.failed,
        metrics,
        lines,
    }
}

fn result_json(correct: bool, o: &Outcome) -> Value {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), util::num(*value)),
                    ("unit".into(), util::string(unit)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), util::uint(o.attempted)),
        ("failed".into(), util::uint(o.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => std::process::exit(compare::main(&argv[1..])),
        Some("spread") => std::process::exit(compare::spread(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <explore_wide|explore_tall|append_explore|hot_fleet> \
                 --seed <n> --seconds <s> --trace <0|1> [--record <file>]"
            );
            std::process::exit(2);
        }
    };
    let scratch =
        load::Scratch(PathBuf::from("perfbench-out").join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create the scratch directory");
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, nproc {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = if args.trace {
        replay::run(args.workload, args.seed, args.seconds, &scratch.0)
    } else {
        let r = load::run(args.workload, args.seed, args.seconds, &scratch.0);
        end_to_end(args.workload, &r)
    };
    drop(scratch);
    let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = outcome.failed == 0 && finite;
    for line in &outcome.lines {
        println!("{line}");
    }
    if !finite {
        println!("MISMATCH a metric had no samples");
    }
    let metrics: Vec<Metric> = outcome
        .metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), if v.is_finite() { *v } else { 0.0 }, *u))
        .collect();
    let shown = Outcome {
        metrics,
        lines: Vec::new(),
        ..outcome
    };
    let result = result_json(correct, &shown);
    let rendered = serde_json::to_string(&result).expect("result renders");
    if let Some(path) = &args.record {
        let line = serde_json::to_string(&Value::Object(vec![
            ("workload".into(), util::string(args.workload.name())),
            ("seed".into(), util::uint(args.seed)),
            ("trace".into(), Value::Bool(args.trace)),
            ("result".into(), result),
        ]))
        .expect("record renders");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open the record file");
        writeln!(f, "{line}").expect("append to the record file");
    }
    println!("{rendered}");
    std::process::exit(if correct { 0 } else { 1 });
}
