//! Per-layer samples every workload gathers: the front end, the
//! specializer's passes, the bytecode compiler and the reference
//! (unspecialized, tree-walked) evaluator.

use crate::report::Values;
use crate::stats::{quantile_ns, ratio};
use ds_core::Specialization;
use std::collections::BTreeMap;

/// The specializer passes reported per call, by `PhaseSpan` name, with the
/// per-layer metric each feeds.
const PHASES: &[(&str, &str)] = &[
    ("inline", "analysis.inline_ms"),
    ("normalize", "analysis.normalize_ms"),
    ("dependence", "analysis.dependence_ms"),
    ("caching", "analysis.caching_ms"),
    ("limit", "core.limit_ms"),
    ("layout", "core.layout_ms"),
    ("split", "core.split_ms"),
];

/// Samples (ns) of staging calls timed by the benchmark.
#[derive(Debug, Default)]
pub struct StagingLayers {
    /// One front-end pass (parse and type-check) over the workload's
    /// source text.
    pub parse: Vec<u64>,
    /// One `specialize` call.
    pub specialize: Vec<u64>,
    /// One compilation to bytecode.
    pub compile: Vec<u64>,
    /// One fusion-planning pass.
    pub fuse: Vec<u64>,
    /// Static sites rewritten into superinstructions.
    pub fused_sites: u64,
    phases: BTreeMap<&'static str, Vec<u64>>,
    slots: Vec<u64>,
    unspec: Vec<u64>,
    unspec_cost: u64,
}

impl StagingLayers {
    /// Records one specialization's pass spans and cache size.
    pub fn add_spec(&mut self, spec: &Specialization, specialize_ns: u64) {
        self.specialize.push(specialize_ns);
        self.slots.push(spec.slot_count() as u64);
        for p in &spec.report.phases {
            self.phases.entry(p.name).or_default().push(p.wall_nanos);
        }
    }

    /// Records one reference evaluation and its abstract cost.
    pub fn add_unspec(&mut self, nanos: u64, cost: u64) {
        self.unspec.push(nanos);
        self.unspec_cost += cost;
    }

    /// Writes the staging and reference-evaluator per-layer metrics.
    pub fn write(&self, v: &mut Values) {
        let ms = |s: &[u64]| quantile_ns(s, 0.5) / 1e6;
        v.set("lang.parse_ms", ms(&self.parse));
        v.set("core.specialize_ms_p50", ms(&self.specialize));
        for &(phase, metric) in PHASES {
            v.set(metric, self.phases.get(phase).map_or(0.0, |s| ms(s)));
        }
        v.set("core.cache_slots", quantile_ns(&self.slots, 0.5));
        v.set("interp.compile_ms", ms(&self.compile));
        v.set("interp.fuse_ms", ms(&self.fuse));
        v.set("interp.fused_sites", self.fused_sites as f64);
        v.set("interp.unspec_ns_p50", quantile_ns(&self.unspec, 0.5));
        v.set(
            "interp.ns_per_cost_unit.unspec",
            ratio(
                self.unspec.iter().sum::<u64>() as f64,
                self.unspec_cost as f64,
            ),
        );
    }
}
