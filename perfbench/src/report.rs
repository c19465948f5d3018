//! Metric tables and the result a workload run reports.
//!
//! The untraced run reports every [`END_TO_END`] metric; the traced run
//! reports every [`PER_LAYER`] metric. Both lists mirror `BENCHMARK.json`
//! at the repository root (a test keeps them in step). Each workload also
//! prints its own user-facing metrics under their workload-specific names
//! (`frame_ms_p50`, `latency_us_p99`, `catalog_s`, ...) — see the README.

use ds_telemetry::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. The same names on every workload;
/// the README maps each to its per-workload meaning.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("cycle_ms_p50", "ms"),
    ("answers_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer the workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("core.specialize_ms_p50", "ms"),
    ("analysis.inline_ms", "ms"),
    ("analysis.normalize_ms", "ms"),
    ("analysis.dependence_ms", "ms"),
    ("analysis.caching_ms", "ms"),
    ("core.limit_ms", "ms"),
    ("core.layout_ms", "ms"),
    ("core.split_ms", "ms"),
    ("core.cache_slots", "count"),
    ("interp.compile_ms", "ms"),
    ("interp.fuse_ms", "ms"),
    ("interp.fused_sites", "count"),
    ("interp.batch_ns_per_lane", "ns"),
    ("interp.batch_fused_dispatches", "count"),
    ("interp.read_ns_p50", "ns"),
    ("interp.load_ns_p50", "ns"),
    ("interp.unspec_ns_p50", "ns"),
    ("interp.read_cost_units", "count"),
    ("interp.ns_per_cost_unit.read", "ns/unit"),
    ("interp.ns_per_cost_unit.load", "ns/unit"),
    ("interp.ns_per_cost_unit.unspec", "ns/unit"),
    ("runtime.store_probe_ns_p50", "ns"),
    ("runtime.store_hit_ratio", "ratio"),
    ("runtime.store_evictions", "count"),
    ("runtime.validate_ns_p50", "ns"),
    ("runtime.loads", "count"),
    ("runtime.fallbacks", "count"),
    ("runtime.submit_ns_p50", "ns"),
    ("runtime.queue_us_p50", "us"),
    ("runtime.queue_us_p99", "us"),
    ("runtime.unattributed_us_p50", "us"),
    ("runtime.unspec_ratio", "ratio"),
    ("runtime.peak_queue_depth", "count"),
    ("runtime.daemon_start_ms", "ms"),
    ("runtime.join_ms", "ms"),
    ("runtime.wal_append_ns_p50", "ns"),
    ("runtime.wal_appends", "count"),
    ("runtime.wal_bytes", "bytes"),
    ("runtime.recover_ms", "ms"),
    ("runtime.recovered_caches", "count"),
    ("bench.gen_late_us_p99", "us"),
    ("bench.trace_overhead", "ratio"),
];

/// Metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every `(name, value)` pair, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Answers the program was asked for (requests, or batch lanes).
    pub attempted: u64,
    /// Failed answers: mismatches, typed errors, shed or drained requests.
    pub failed: u64,
    /// Answers that differed from the reference (a subset of `failed`).
    pub mismatches: u64,
    /// Answers compared against the reference.
    pub checked: u64,
    /// The workload's own metrics under their workload-specific names,
    /// with units.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// [`END_TO_END`] values.
    pub end_to_end: Values,
    /// [`PER_LAYER`] values (traced runs only).
    pub layers: Values,
}

impl RunResult {
    /// Whether every attempted answer arrived, succeeded and matched the
    /// reference where it was compared.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }

    /// Failed over attempted answers.
    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line: `correct`, `attempted`, `failed` and either the
    /// end-to-end or the per-layer metrics, each with its unit.
    pub fn json_line(&self, traced: bool) -> String {
        let (table, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let metrics = Json::Obj(
            table
                .iter()
                .map(|&(name, unit)| {
                    let v = values.get(name).unwrap_or(0.0);
                    (
                        name.to_string(),
                        Json::obj([("value", Json::Num(v)), ("unit", Json::from(unit))]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ])
        .compact()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_the_benchmark_description() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = ds_telemetry::parse(&text).expect("valid JSON");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let mut r = RunResult {
            attempted: 4,
            failed: 1,
            ..RunResult::default()
        };
        r.end_to_end.set("setup_s", 0.125);
        let line = ds_telemetry::parse(&r.json_line(false)).expect("json");
        let m = line.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.125)
        );
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name)
                    .and_then(|v| v.get("unit"))
                    .and_then(Json::as_str),
                Some(*unit)
            );
        }
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let traced = ds_telemetry::parse(&r.json_line(true)).expect("json");
        for (name, _) in PER_LAYER {
            assert!(
                traced.get("metrics").and_then(|m| m.get(name)).is_some(),
                "{name}"
            );
        }
        assert_eq!(r.error_rate(), 0.25);
    }
}
