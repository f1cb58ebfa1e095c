//! Small shared helpers: quantiles, process memory, JSON plumbing.

use std::time::Instant;

use serde_json::{Number, Value};

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quartiles the way Python's `statistics.quantiles(xs, n=4)` gives
/// them (the default "exclusive" method), so spreads printed here match
/// the ones the benchmark's acceptance rule computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |j: usize| {
        // Position j*(n+1)/4, 1-based; the bracket is clamped to the
        // sample and, as in Python, the weight is not.
        let m = (n + 1) * j;
        let i = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * i) as f64;
        (v[i - 1] * (4.0 - delta) + v[i] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

pub fn num(x: f64) -> Value {
    Value::Number(Number::F(x))
}

pub fn uint(x: u64) -> Value {
    Value::Number(Number::U(x))
}

pub fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

/// `{"query": <text>}` — a characterize request body.
pub fn query_body(text: &str) -> String {
    serde_json::to_string(&Value::Object(vec![("query".into(), string(text))]))
        .expect("strings serialize")
}

pub fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(Number::F(x)) => Some(*x),
        Value::Number(Number::U(x)) => Some(*x as f64),
        Value::Number(Number::I(x)) => Some(*x as f64),
        _ => None,
    }
}

/// A header value from a lower-cased `(name, value)` list.
pub fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The reuse level a characterize response's `Server-Timing` names.
pub fn reuse_level(headers: &[(String, String)]) -> Option<u8> {
    let st = header(headers, "server-timing")?;
    let at = st.find("reuse;desc=\"level")? + "reuse;desc=\"level".len();
    st[at..].chars().next()?.to_digit(10).map(|d| d as u8)
}
