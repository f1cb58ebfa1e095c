//! `perfbench compare <base.jsonl> <head.jsonl> [--bench BENCHMARK.json]`
//!
//! Reads two result sets written with `--record` (one JSON object per
//! run: workload, seed, trace flag, result) and prints, per workload and
//! metric, each side's median and quartiles and a verdict by the
//! benchmark's own bounds:
//!
//! * `unresolved` — either side's quartile spread exceeds the bound,
//!   unless every head run beats every base run (then `improved`);
//! * `regressed` — head's median is worse than base's by more than the
//!   bound;
//! * `improved` — head wins at least nine tenths of all (base, head)
//!   pairs and the medians differ by more than base's quartile spread;
//! * `unchanged` otherwise; `info` for per-layer metrics, which carry no
//!   bound.
//!
//! Exits 1 when any metric regressed, 0 otherwise.
//!
//! `perfbench spread <runs.jsonl> [--bench BENCHMARK.json]` prints one
//! result set's medians and quartile spreads beside each bound.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::util::{self, field};

/// Direction and bound of one metric, from `BENCHMARK.json`.
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
}

fn read_rules(path: &str) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = serde_json::from_str_value(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        if let Some(Value::Array(items)) = field(&v, section) {
            for item in items {
                let Some(Value::String(name)) = field(item, "name") else {
                    continue;
                };
                let lower = matches!(field(item, "better"), Some(Value::String(b)) if b == "lower");
                let bound = field(item, "bound").and_then(util::as_f64);
                rules.insert(
                    name.clone(),
                    Rule {
                        lower_is_better: lower,
                        bound,
                    },
                );
            }
        }
    }
    Ok(rules)
}

/// (workload, metric) → values, over every recorded run in `path`.
fn read_runs(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = serde_json::from_str_value(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let Some(Value::String(workload)) = field(&v, "workload") else {
            return Err(format!("{path}:{}: no workload", n + 1));
        };
        let Some(Value::Object(metrics)) = field(&v, "result").and_then(|r| field(r, "metrics"))
        else {
            return Err(format!("{path}:{}: no result metrics", n + 1));
        };
        for (name, m) in metrics {
            if let Some(x) = field(m, "value").and_then(util::as_f64) {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

fn verdict(rule: Option<&Rule>, base: &[f64], head: &[f64]) -> &'static str {
    let Some(rule) = rule else {
        return "info";
    };
    let Some(bound) = rule.bound else {
        return "info";
    };
    // Positive = head better.
    let gain = |b: f64, h: f64| if rule.lower_is_better { b - h } else { h - b };
    let (bq1, bmed, bq3) = util::quartiles(base);
    let (hq1, hmed, hq3) = util::quartiles(head);
    let dominates = base.iter().all(|&b| head.iter().all(|&h| gain(b, h) > 0.0));
    if dominates {
        return "improved";
    }
    if (bq3 - bq1) / bmed.abs() > bound || (hq3 - hq1) / hmed.abs() > bound {
        return "unresolved";
    }
    let rel = gain(bmed, hmed) / bmed.abs();
    if rel < -bound {
        return "regressed";
    }
    let pairs = (base.len() * head.len()) as f64;
    let wins = base
        .iter()
        .map(|&b| head.iter().filter(|&&h| gain(b, h) > 0.0).count())
        .sum::<usize>() as f64;
    if wins >= 0.9 * pairs && gain(bmed, hmed) > bq3 - bq1 {
        return "improved";
    }
    "unchanged"
}

pub fn main(args: &[String]) -> i32 {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let bench = args
        .iter()
        .position(|a| a == "--bench")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCHMARK.json", String::as_str);
    let files: Vec<&String> = files.into_iter().filter(|f| f.as_str() != bench).collect();
    let [base_path, head_path] = files[..] else {
        eprintln!("usage: perfbench compare <base.jsonl> <head.jsonl> [--bench BENCHMARK.json]");
        return 2;
    };
    let loaded = read_rules(bench)
        .and_then(|rules| Ok((rules, read_runs(base_path)?, read_runs(head_path)?)));
    let (rules, base, head) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<15} {:<32} {:>4} {:>12} {:>12} {:>12} {:>4} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload",
        "metric",
        "n",
        "base_med",
        "base_q1",
        "base_q3",
        "n",
        "head_med",
        "head_q1",
        "head_q3",
        "delta"
    );
    let mut regressed = false;
    for (key, b) in &base {
        let Some(h) = head.get(key) else {
            continue;
        };
        let (bq1, bmed, bq3) = util::quartiles(b);
        let (hq1, hmed, hq3) = util::quartiles(h);
        let v = verdict(rules.get(&key.1), b, h);
        regressed |= v == "regressed";
        println!(
            "{:<15} {:<32} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>7.1}%  {v}",
            key.0,
            key.1,
            b.len(),
            bmed,
            bq1,
            bq3,
            h.len(),
            hmed,
            hq1,
            hq3,
            (hmed - bmed) / bmed.abs() * 100.0
        );
    }
    i32::from(regressed)
}

pub fn spread(args: &[String]) -> i32 {
    let bench = args
        .iter()
        .position(|a| a == "--bench")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCHMARK.json", String::as_str);
    let Some(path) = args
        .iter()
        .find(|a| !a.starts_with("--") && a.as_str() != bench)
    else {
        eprintln!("usage: perfbench spread <runs.jsonl> [--bench BENCHMARK.json]");
        return 2;
    };
    let (rules, runs) = match read_rules(bench).and_then(|r| Ok((r, read_runs(path)?))) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench spread: {e}");
            return 2;
        }
    };
    println!(
        "{:<15} {:<32} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, metric), xs) in &runs {
        let (q1, med, q3) = util::quartiles(xs);
        let bound = rules.get(metric).and_then(|r| r.bound);
        println!(
            "{workload:<15} {metric:<32} {:>4} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>7.1}% {:>6}",
            xs.len(),
            (q3 - q1) / med.abs() * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    0
}
