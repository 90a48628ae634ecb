//! The result line and the slowest-request report.

use crate::trace::Layer;
use ratest_core::ExplainOutcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics in the order they were put.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The per-layer self-time shares of a traced run.
    pub fn put_shares(&mut self, self_ms: &BTreeMap<Layer, f64>) {
        let total: f64 = self_ms.values().sum();
        for layer in Layer::ALL {
            let own = self_ms.get(&layer).copied().unwrap_or(0.0);
            let share = if total > 0.0 { own / total } else { 0.0 };
            self.put(&format!("self_share.{}", layer.name()), share, "ratio");
        }
    }
}

/// The result object: the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// How a request ended, for the slowest-request report.
pub enum Outcome {
    Failed,
    Agrees,
    Counterexample(usize),
    Verdict(String),
}

impl Outcome {
    pub fn from_pair(outcome: Option<&ExplainOutcome>) -> Outcome {
        match outcome {
            None => Outcome::Failed,
            Some(o) => match &o.counterexample {
                None => Outcome::Agrees,
                Some(c) => Outcome::Counterexample(c.size()),
            },
        }
    }
}

pub struct Slowest {
    pub identity: String,
    pub ms: f64,
    pub outcome: Outcome,
    /// Self time by layer, in milliseconds.
    pub split: BTreeMap<Layer, f64>,
}

impl Slowest {
    pub fn render(&self, workload: &str) -> String {
        let outcome = match &self.outcome {
            Outcome::Failed => "failed".to_owned(),
            Outcome::Agrees => "queries agree".to_owned(),
            Outcome::Counterexample(n) => format!("{n}-tuple counterexample"),
            Outcome::Verdict(v) => v.clone(),
        };
        let mut split: Vec<(&Layer, &f64)> = self.split.iter().filter(|(_, v)| **v > 0.0).collect();
        split.sort_by(|a, b| b.1.total_cmp(a.1));
        let parts: Vec<String> = split
            .iter()
            .map(|(l, v)| format!("{} {:.1} ms", l.name(), v))
            .collect();
        let dominant = split.first().map_or("none", |(l, _)| l.name());
        format!(
            "slowest {workload} request: {} — {:.1} ms, {outcome}; dominant layer {dominant} [{}]",
            self.identity,
            self.ms,
            parts.join(", ")
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        m.put("latency_ms.p50", 1.5, "ms");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"latency_ms.p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
