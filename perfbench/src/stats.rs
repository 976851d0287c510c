//! Order statistics and the small JSON writer the result line uses.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of the samples (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]`.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Wall seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median wall seconds of `reps` calls of `f` (after one untimed warm-up
/// call, so lazy allocation and cold caches are not measured).
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let v: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&v)
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Non-finite values are
    /// written as `null` so the line stays valid JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (shortest round-trip form), or `null` if not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn metrics_json_is_valid() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"s\"}}"
        );
    }
}
