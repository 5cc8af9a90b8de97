//! What a run prints: one `workload metric value unit` line per metric,
//! then — as the last line of standard output — the one JSON object the
//! driver reads. `--result-out` additionally writes the full record (host
//! shape, world knobs, per-sample arrays) for `run.sh` to collect.

use std::fmt::Write as _;

/// The end-to-end metrics, in `BENCHMARK.json` order: every workload
/// reports every one of them from the untraced binary.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("recall", "ratio"),
    ("precision", "ratio"),
];

/// The eight batch stages that carry `_allocs` / `_peak_mb` metrics.
pub const BATCH_STAGES: [&str; 8] = [
    "rdf.parse",
    "rdf.dataset",
    "blocking.build",
    "blocking.purge",
    "blocking.filter",
    "metablocking.run",
    "core.matcher",
    "core.resolve",
];

/// The per-layer metrics other than the per-stage allocation pairs, in
/// `BENCHMARK.json` order. A workload that does not exercise a layer
/// reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("rdf.parse_s", "s"),
    ("rdf.parse_triples", "count"),
    ("rdf.parse_mb_per_s", "MB/s"),
    ("rdf.dataset_s", "s"),
    ("rdf.descriptions", "count"),
    ("blocking.build_s", "s"),
    ("blocking.blocks_raw", "count"),
    ("blocking.build_ns_per_assignment", "ns"),
    ("blocking.purge_s", "s"),
    ("blocking.filter_s", "s"),
    ("blocking.blocks_clean", "count"),
    ("blocking.comparisons_clean", "count"),
    ("metablocking.run_s", "s"),
    ("metablocking.input_edges", "count"),
    ("metablocking.candidates", "count"),
    ("metablocking.retention", "ratio"),
    ("core.matcher_s", "s"),
    ("core.resolve_s", "s"),
    ("core.comparisons", "count"),
    ("core.matches", "count"),
    ("core.match_yield", "ratio"),
    ("core.discovered", "count"),
    ("cli.unattributed_pct", "%"),
    ("trace.total_s", "s"),
    ("trace.stage_gap_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.alloc_counting_pct", "%"),
    ("server.service_hit_us", "us"),
    ("server.service_miss_us", "us"),
    ("server.allocs_per_hit", "count"),
    ("server.codec_reply_ns", "ns"),
    ("server.reply_bytes", "B"),
    ("server.tcp_self_us", "us"),
    ("metablocking.resolve_entity_us", "us"),
    ("metablocking.pairs_per_resolve", "count"),
    ("metablocking.allocs_per_resolve", "count"),
    ("server.ingest_ms", "ms"),
    ("metablocking.ingest_ms", "ms"),
    ("blocking.delta_ingest_ms", "ms"),
    ("metablocking.swept_per_arrival", "ratio"),
    ("blocking.dirty_per_arrival", "ratio"),
    ("metablocking.delta_share", "ratio"),
    ("server.cache_hit_rate", "ratio"),
    ("server.coalesced", "count"),
    ("server.invalidated_per_ingest", "count"),
    ("server.read_stall_share", "ratio"),
    ("client.resolve_qps", "1/s"),
    ("client.resolve_p50_us", "us"),
    ("client.service_p50_us", "us"),
    ("client.resolve_p99_us", "us"),
    ("client.resolve_late_pct", "%"),
    ("client.ingest_p50_ms", "ms"),
    ("loadgen.max_lag_ms", "ms"),
    ("loadgen.reads_sent", "count"),
];

/// Every per-layer metric name with its unit, stage allocation pairs
/// included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for stage in BATCH_STAGES {
        all.push((format!("{stage}_allocs"), "count"));
        all.push((format!("{stage}_peak_mb"), "MB"));
    }
    all
}

/// One measured value with the context a reader needs beside it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Sample count, quartiles, the percentile actually used … free text
    /// for the human-readable line.
    pub note: String,
}

/// Everything one run found out.
#[derive(Debug, Default)]
pub struct Report {
    /// Measured metrics, in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// Raw samples behind the medians, by name.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Host shape and world knobs, as `(key, JSON value)`.
    pub info: Vec<(String, String)>,
    /// Operations attempted (batch iterations, RESOLVEs, INGESTs).
    pub attempted: u64,
    /// Operations that failed; a failed operation also fails the run.
    pub failed: u64,
    /// Why the run is incorrect; empty when every check passed.
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            note: note.into(),
        });
    }

    /// Records the samples behind a metric.
    pub fn sample(&mut self, name: &str, values: Vec<f64>) {
        self.samples.push((name.to_string(), values));
    }

    /// Records a string-valued fact about the run.
    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info.push((key.to_string(), json_string(value)));
    }

    /// Records a numeric or otherwise pre-rendered JSON fact.
    pub fn info_raw(&mut self, key: &str, json: impl ToString) {
        self.info.push((key.to_string(), json.to_string()));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Checks `ok`, recording `why` as a failure otherwise.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Whether every correctness check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn value_of(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The `name → unit` list a run in this mode must print.
    pub fn contract(traced: bool) -> Vec<(String, &'static str)> {
        if traced {
            per_layer_metrics()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// Closes the report against the contract: an end-to-end metric left
    /// unmeasured or not strictly positive is a failure; a per-layer
    /// metric left unmeasured reads 0 (layer not exercised).
    pub fn finish(&mut self, traced: bool) {
        for (name, _) in Self::contract(traced) {
            match self.value_of(&name) {
                Some(v) if !v.is_finite() => self.fail(format!("{name} is not finite: {v}")),
                Some(v) if !traced && v <= 0.0 => self.fail(format!(
                    "end-to-end metric {name} must be positive, got {v}"
                )),
                Some(_) => {}
                // Read as 0 by `metrics_json`; not listed among the lines.
                None if traced => {}
                None => self.fail(format!("end-to-end metric {name} was not measured")),
            }
        }
    }

    /// The human-readable lines: `workload metric value unit  # note`.
    pub fn lines(&self, workload: &str, traced: bool) -> String {
        let units = Self::contract(traced);
        let mut out = String::new();
        for m in &self.metrics {
            let unit = units
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or("", |(_, u)| u);
            let _ = write!(out, "{workload} {} {} {unit}", m.name, m.value);
            if !m.note.is_empty() {
                let _ = write!(out, "  # {}", m.note);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{workload} ops_attempted {} count", self.attempted);
        let _ = writeln!(out, "{workload} ops_failed {} count", self.failed);
        for f in &self.failures {
            let _ = writeln!(out, "{workload} FAILED: {f}");
        }
        out
    }

    fn metrics_json(&self, traced: bool) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in Self::contract(traced).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.value_of(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn driver_json(&self, traced: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(traced)
        )
    }

    /// The full record for `--result-out`.
    pub fn record_json(&self, workload: &str, traced: bool) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}",
            json_string(workload),
            u8::from(traced),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, v) in &self.info {
            let _ = write!(out, ", {}: {v}", json_string(k));
        }
        let _ = write!(out, ", \"metrics\": {}", self.metrics_json(traced));
        out.push_str(", \"samples\": {");
        for (i, (name, values)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let body: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let _ = write!(out, "{}: [{}]", json_string(name), body.join(", "));
        }
        out.push_str("}, \"failures\": [");
        let fails: Vec<String> = self.failures.iter().map(|f| json_string(f)).collect();
        out.push_str(&fails.join(", "));
        out.push_str("]}");
        out
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_exactly_the_metrics_the_binaries_print() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let named = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section is an array");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(named("end_to_end"), e2e);
        let layers: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(named("per_layer"), layers);
        for (name, unit) in END_TO_END.iter().copied().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must be declared with unit {unit}"
            );
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.metric(name, 1.5, "");
        }
        r.attempted = 12;
        r.finish(false);
        assert!(r.correct());
        let line = r.driver_json(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("setup_s", 1.0, "");
        r.metric("op_p50_ms", 0.0, "");
        r.finish(false);
        assert!(!r.correct());
        assert!(r.failures.iter().any(|f| f.contains("op_p50_ms")));
        assert!(r.failures.iter().any(|f| f.contains("recall")));
    }

    #[test]
    fn unexercised_layers_read_zero_in_a_traced_run() {
        let mut r = Report::default();
        r.metric("rdf.parse_s", 0.25, "");
        r.finish(true);
        assert!(r.correct());
        let line = r.driver_json(true);
        assert!(line.contains("\"rdf.parse_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"server.ingest_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(line.contains("\"core.resolve_peak_mb\""));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        assert!(r.driver_json(true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
