//! Result assembly: metrics, order statistics and a minimal JSON writer.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Sessions attempted in the timed part of the run.
    pub attempted: u64,
    /// Attempted sessions that did not complete or failed a check.
    pub failed: u64,
    /// `false` when a run-level property (one that no single session
    /// carries) does not hold.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Extra machine-readable fields (raw JSON values) for the detail file.
    pub detail: Vec<(String, String)>,
    /// Chrome trace-event JSON of the traced run's spans.
    pub spans: Option<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, key: &str, raw_json: String) {
        self.detail.push((key.to_string(), raw_json));
    }

    /// The one-line summary the benchmark prints last.
    pub fn summary_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON object from `(key, raw JSON value)` pairs.
pub fn json_obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// splitmix64: the benchmark's own input generator, independent of the
/// program's PRGs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed derived from the run seed and a stream of indices.
pub fn derive_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut state = seed;
    for &p in parts {
        state ^= p.wrapping_mul(0xA076_1D64_78BD_642F);
        splitmix(&mut state);
    }
    splitmix(&mut state)
}
