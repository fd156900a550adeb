//! The metric catalogue and the result line. `BENCHMARK.json` at the
//! repository root names the same metrics with the same units; a test
//! keeps the two equal.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_rate", "ratio"),
    ("exact_share", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.quantized_hit_share", "ratio"),
    ("serve.cache.hot_bytes", "bytes"),
    ("serve.cache.cold_bytes", "bytes"),
    ("serve.hit_latency_us_p50", "us"),
    ("serve.miss_latency_us_p50", "us"),
    ("serve.miss_latency_us_p99", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.fused_fill_ratio", "ratio"),
    ("serve.single_flight_hits", "count"),
    ("serve.rejected", "count"),
    ("serve.degraded_served", "count"),
    ("serve.register_ms", "ms"),
    ("xai.tree_shap_us_p50", "us"),
    ("xai.kernel_shap_us_p50", "us"),
    ("xai.sampling_shapley_us_p50", "us"),
    ("xai.permutation_us_p50", "us"),
    ("xai.grouped_shapley_us_p50", "us"),
    ("xai.dedup_rows_saved", "count"),
    ("ml.predict_block_ns_per_row", "ns"),
    ("ml.pack_ms", "ms"),
    ("net.transport_us_p50", "us"),
    ("net.transport_us_p99", "us"),
    ("net.request_encode_ns", "ns"),
    ("net.reply_decode_ns", "ns"),
    ("net.request_bytes", "bytes"),
    ("net.reply_bytes", "bytes"),
    ("net.register_ms", "ms"),
    ("net.register_bytes", "bytes"),
    ("net.net_errors", "count"),
    ("net.spills", "count"),
    ("net.protocol_errors", "count"),
    ("trace.overhead_throughput_rps", "1/s"),
    ("trace.overhead_latency_p50_us", "us"),
    ("trace.overhead_latency_p99_us", "us"),
    ("self_ms.bench", "ms"),
    ("self_ms.nfv-serve", "ms"),
    ("self_ms.nfv-xai", "ms"),
    ("self_ms.nfv-ml", "ms"),
    ("self_ms.nfv-net", "ms"),
];

/// Metric values collected during a run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name` (must be in a catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The JSON object of every metric in `catalogue`, in its order.
    /// Fails when one is missing or not a finite number.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }

    /// Prints every metric of `catalogue` as `name value unit`.
    pub fn print(&self, catalogue: &[(&str, &str)]) {
        for (name, unit) in catalogue {
            if let Some(v) = self.get(name) {
                println!("  {name:<34} {v:>16.4} {unit}");
            }
        }
    }
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared(spec: &Value, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn catalogue(c: &[(&str, &str)]) -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_equal_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let spec: Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        assert_eq!(declared(&spec, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(declared(&spec, "per_layer"), catalogue(PER_LAYER));

        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        let line = result_line(true, 3, 0, &m.to_json(END_TO_END).unwrap());
        let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
        let printed: Vec<&str> = parsed
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(printed, names);
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut m = Metrics::default();
        assert!(m.to_json(&[("a", "s")]).is_err());
        m.set("a", f64::NAN);
        assert!(m.to_json(&[("a", "s")]).is_err());
        m.set("a", 1.25);
        assert_eq!(
            m.to_json(&[("a", "s")]).unwrap(),
            "{\"a\": {\"value\": 1.25, \"unit\": \"s\"}}"
        );
    }
}
