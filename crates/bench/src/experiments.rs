//! The experiment implementations behind every table and figure of the
//! paper's evaluation. Each function returns plain data; the `src/bin/*`
//! binaries format it, and `repro_all` writes the consolidated record that
//! backs `EXPERIMENTS.md`.

use ds_codespec::{code_specialize, CodeSpecOptions};
use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_interp::{CacheBuf, Evaluator, Value};
use ds_shaders::{all_shaders, measure_partition, MeasureOptions, Measurement, Shader};
use std::collections::HashMap;
use std::sync::Arc;

/// The sample-grid edge used by the headline experiments. Per-pixel
/// statistics are grid-size independent (§5.2: "truly per-pixel
/// statistics; we are not relying on a large image size").
pub const DEFAULT_GRID: u32 = 8;

fn default_opts() -> MeasureOptions {
    MeasureOptions {
        grid: DEFAULT_GRID,
        spec: SpecializeOptions::new(),
    }
}

// ---------------------------------------------------------------------
// E1 — the §2 dotprod example
// ---------------------------------------------------------------------

/// Source of the paper's Figure 1.
pub const DOTPROD_SRC: &str = "float dotprod(float x1, float y1, float z1,
                                             float x2, float y2, float z2, float scale) {
                                   if (scale != 0.0) {
                                       return (x1*x2 + y1*y2 + z1*z2) / scale;
                                   } else {
                                       return -1.0;
                                   }
                               }";

/// Results of the §2 dotprod experiment.
#[derive(Debug, Clone)]
pub struct DotprodResult {
    /// Pretty-printed loader (compare the paper's Figure 2).
    pub loader_text: String,
    /// Pretty-printed reader.
    pub reader_text: String,
    /// Speedup with `scale != 0` (paper: 11%, i.e. 1.11×).
    pub speedup_nonzero: f64,
    /// Speedup with `scale == 0` (paper: 0%).
    pub speedup_zero: f64,
    /// Loader overhead relative to the original, nonzero path (paper: 5.5%).
    pub startup_overhead_nonzero: f64,
    /// Breakeven use count (paper: 2).
    pub breakeven: Option<u32>,
    /// Cache slots (paper: 1).
    pub slots: usize,
}

/// Reproduces §2: specialize `dotprod` on `{z1, z2}` varying.
pub fn exp_dotprod() -> DotprodResult {
    let spec = ds_core::specialize_source(
        DOTPROD_SRC,
        "dotprod",
        &InputPartition::varying(["z1", "z2"]),
        &SpecializeOptions::new(),
    )
    .expect("dotprod specializes");
    let prog = spec.as_program();
    let ev = Evaluator::new(&prog);

    let args = |z1: f64, z2: f64, scale: f64| -> Vec<Value> {
        [1.0, 2.0, z1, 4.0, 5.0, z2, scale]
            .iter()
            .map(|&x| Value::Float(x))
            .collect()
    };

    let measure = |scale: f64| -> (f64, f64, f64) {
        let mut cache = CacheBuf::new(spec.slot_count());
        let a0 = args(3.0, 6.0, scale);
        let loader = ev
            .run_with_cache("dotprod__loader", &a0, &mut cache)
            .expect("loader");
        let mut orig_total = 0.0;
        let mut reader_total = 0.0;
        let sweeps = [(7.0, -1.0), (2.5, 8.0), (0.5, 0.25)];
        for (z1, z2) in sweeps {
            let a = args(z1, z2, scale);
            let orig = ev.run("dotprod", &a).expect("original");
            let read = ev
                .run_with_cache("dotprod__reader", &a, &mut cache)
                .expect("reader");
            assert_eq!(orig.value, read.value);
            orig_total += orig.cost as f64;
            reader_total += read.cost as f64;
        }
        let n = sweeps.len() as f64;
        (orig_total / n, loader.cost as f64, reader_total / n)
    };

    let (orig_nz, loader_nz, reader_nz) = measure(2.0);
    let (orig_z, _, reader_z) = measure(0.0);
    DotprodResult {
        loader_text: ds_lang::print_proc(&spec.loader),
        reader_text: ds_lang::print_proc(&spec.reader),
        speedup_nonzero: orig_nz / reader_nz,
        speedup_zero: orig_z / reader_z,
        startup_overhead_nonzero: loader_nz / orig_nz - 1.0,
        breakeven: ds_shaders::breakeven(orig_nz, loader_nz, reader_nz),
        slots: spec.slot_count(),
    }
}

// ---------------------------------------------------------------------
// F7 / F8 / T-OH — the 131-partition sweep
// ---------------------------------------------------------------------

/// Measures all 131 partitions (Figures 7 and 8, §5.2 overhead data).
pub fn exp_all_partitions() -> Vec<Measurement> {
    ds_shaders::measure_all(&default_opts())
}

/// Per-shader summary used by the Figure 7 rendering.
#[derive(Debug, Clone)]
pub struct ShaderSummary {
    /// Shader index (1-10).
    pub index: usize,
    /// Shader name.
    pub name: &'static str,
    /// Speedups of all partitions, ascending.
    pub speedups: Vec<f64>,
    /// Median speedup (the paper plots the median alongside the points).
    pub median_speedup: f64,
    /// Cache sizes of all partitions, bytes, ascending.
    pub cache_sizes: Vec<u32>,
    /// Median cache size.
    pub median_cache: u32,
}

/// Groups per-partition measurements into per-shader summaries.
pub fn summarize(measurements: &[Measurement]) -> Vec<ShaderSummary> {
    let mut out: Vec<ShaderSummary> = Vec::new();
    for idx in 1..=10 {
        let rows: Vec<&Measurement> = measurements
            .iter()
            .filter(|m| m.shader_index == idx)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let mut speedups: Vec<f64> = rows.iter().map(|m| m.speedup).collect();
        speedups.sort_by(|a, b| a.partial_cmp(b).expect("speedups are finite"));
        let mut cache_sizes: Vec<u32> = rows.iter().map(|m| m.cache_bytes).collect();
        cache_sizes.sort_unstable();
        out.push(ShaderSummary {
            index: idx,
            name: rows[0].shader,
            median_speedup: speedups[speedups.len() / 2],
            median_cache: cache_sizes[cache_sizes.len() / 2],
            speedups,
            cache_sizes,
        });
    }
    out
}

/// §5.2's headline numbers: the breakeven histogram over all partitions.
pub fn breakeven_histogram(measurements: &[Measurement]) -> Vec<(u32, usize)> {
    let mut hist: HashMap<u32, usize> = HashMap::new();
    for m in measurements {
        let b = m.breakeven.expect("every partition pays off");
        *hist.entry(b).or_default() += 1;
    }
    let mut rows: Vec<(u32, usize)> = hist.into_iter().collect();
    rows.sort_unstable();
    rows
}

/// Mean and median cache size over all partitions (§5.3: "overall mean and
/// median cache sizes were 22 and 20 bytes").
pub fn cache_size_stats(measurements: &[Measurement]) -> (f64, u32) {
    let mut sizes: Vec<u32> = measurements.iter().map(|m| m.cache_bytes).collect();
    sizes.sort_unstable();
    let mean = sizes.iter().map(|&s| f64::from(s)).sum::<f64>() / sizes.len() as f64;
    (mean, sizes[sizes.len() / 2])
}

// ---------------------------------------------------------------------
// F9 / F10 — cache-size limiting on shader 10
// ---------------------------------------------------------------------

/// One point of the Figure 9/10 sweeps.
#[derive(Debug, Clone)]
pub struct LimitPoint {
    /// Varying parameter of the partition.
    pub param: &'static str,
    /// Cache budget in bytes.
    pub bound: u32,
    /// Actual cache bytes used under the budget.
    pub bytes_used: u32,
    /// Absolute speedup at this budget (Figure 9's y-axis).
    pub speedup: f64,
}

/// The cache budgets the paper sweeps (0 to 40 bytes).
pub const LIMIT_BOUNDS: &[u32] = &[0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40];

/// Figure 9/10 data: every partition of shader 10 at every cache budget.
pub fn exp_limit_sweep(grid: u32) -> Vec<LimitPoint> {
    let suite = all_shaders();
    let rings = suite.iter().find(|s| s.index == 10).expect("shader 10");
    let mut out = Vec::new();
    for control in &rings.controls {
        for &bound in LIMIT_BOUNDS {
            let opts = MeasureOptions {
                grid,
                spec: SpecializeOptions::new().with_cache_bound(bound),
            };
            let m = measure_partition(rings, control.name, &opts);
            out.push(LimitPoint {
                param: control.name,
                bound,
                bytes_used: m.cache_bytes,
                speedup: m.speedup,
            });
        }
    }
    out
}

/// Normalizes a limit sweep to percent-of-maximum speedup per partition
/// (Figure 10's y-axis). Returns `(param, bound, percent)` rows plus the
/// mean curve as `("mean", bound, percent)` rows.
pub fn normalize_limit_sweep(points: &[LimitPoint]) -> Vec<(String, u32, f64)> {
    let mut max_by_param: HashMap<&str, f64> = HashMap::new();
    for p in points {
        let e = max_by_param.entry(p.param).or_insert(0.0);
        if p.speedup > *e {
            *e = p.speedup;
        }
    }
    let mut rows: Vec<(String, u32, f64)> = points
        .iter()
        .map(|p| {
            (
                p.param.to_string(),
                p.bound,
                100.0 * p.speedup / max_by_param[p.param],
            )
        })
        .collect();
    // Mean curve across partitions, per bound.
    for &bound in LIMIT_BOUNDS {
        let at: Vec<f64> = rows
            .iter()
            .filter(|(_, b, _)| *b == bound)
            .map(|(_, _, pct)| *pct)
            .collect();
        let mean = at.iter().sum::<f64>() / at.len() as f64;
        rows.push(("mean".to_string(), bound, mean));
    }
    rows
}

// ---------------------------------------------------------------------
// T-SZ — loader+reader code growth (§3.3)
// ---------------------------------------------------------------------

/// One code-growth row.
#[derive(Debug, Clone)]
pub struct GrowthRow {
    /// Shader name.
    pub shader: &'static str,
    /// Varying parameter.
    pub param: &'static str,
    /// Fragment AST nodes.
    pub fragment: usize,
    /// Loader AST nodes.
    pub loader: usize,
    /// Reader AST nodes.
    pub reader: usize,
    /// `(loader + reader) / fragment`.
    pub growth: f64,
}

/// §3.3: "the sum of the loader and reader sizes has been less than twice
/// the size of the fragment" — measured over all 131 partitions.
pub fn exp_code_growth() -> Vec<GrowthRow> {
    let mut rows = Vec::new();
    for shader in all_shaders() {
        for control in &shader.controls {
            let spec = specialize(
                &shader.program,
                "shade",
                &InputPartition::varying([control.name]),
                &SpecializeOptions::new(),
            )
            .expect("specialize");
            let s = &spec.stats;
            rows.push(GrowthRow {
                shader: shader.name,
                param: control.name,
                fragment: s.fragment_nodes,
                loader: s.loader_nodes,
                reader: s.reader_nodes,
                growth: (s.loader_nodes + s.reader_nodes) as f64 / s.fragment_nodes as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// T-CS — data specialization vs code specialization (§6.1 ablation)
// ---------------------------------------------------------------------

/// One comparison row between the two staging techniques.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Shader name.
    pub shader: &'static str,
    /// Varying parameter.
    pub param: &'static str,
    /// Per-use cost of the unstaged original.
    pub orig_cost: f64,
    /// Data specialization: reader cost per use.
    pub ds_reader_cost: f64,
    /// Data specialization: breakeven uses.
    pub ds_breakeven: u32,
    /// Code specialization: residual cost per use.
    pub cs_residual_cost: f64,
    /// Code specialization: modeled dynamic-codegen cost.
    pub cs_codegen_cost: f64,
    /// Code specialization: breakeven uses (codegen amortization).
    pub cs_breakeven: Option<u32>,
}

/// Compares data vs code specialization on representative partitions.
/// Code specialization needs concrete fixed values, so it is evaluated per
/// pixel like the loader would be.
pub fn exp_code_vs_data(shader: &Shader, param: &str, grid: u32) -> CompareRow {
    let opts = MeasureOptions {
        grid,
        spec: SpecializeOptions::new(),
    };
    let m = measure_partition(shader, param, &opts);

    // Code-specialize at each pixel (fixed = pixel inputs + other controls),
    // then run the residual over the sweep values.
    let control = shader.control(param).expect("control exists");
    let sweep = control.sweep();
    let mut residual_cost_total = 0.0;
    let mut codegen_total = 0.0;
    let mut runs = 0u32;
    for pixel in ds_shaders::sample_grid(grid) {
        let mut fixed: HashMap<String, Value> = HashMap::new();
        for (name, value) in ds_shaders::PIXEL_PARAMS.iter().zip(pixel.to_args()) {
            fixed.insert((*name).to_string(), value);
        }
        for c in &shader.controls {
            if c.name != param {
                fixed.insert(c.name.to_string(), Value::Float(c.default));
            }
        }
        let cs = code_specialize(
            &shader.program,
            "shade",
            &fixed,
            &CodeSpecOptions::default(),
        )
        .expect("code specialize");
        codegen_total += cs.codegen_cost as f64;
        let rp = cs.as_program();
        let ev = Evaluator::new(&rp);
        for v in sweep {
            let out = ev
                .run("shade__residual", &[Value::Float(v)])
                .expect("residual run");
            residual_cost_total += out.cost as f64;
            runs += 1;
        }
    }
    let cs_residual_cost = residual_cost_total / f64::from(runs);
    let cs_codegen_cost = codegen_total / f64::from(grid * grid);
    // Code-spec breakeven: codegen + n*residual <= n*orig.
    let cs_breakeven = if m.orig_cost > cs_residual_cost {
        Some((cs_codegen_cost / (m.orig_cost - cs_residual_cost)).ceil() as u32)
    } else {
        None
    };
    CompareRow {
        shader: shader.name,
        param: control.name,
        orig_cost: m.orig_cost,
        ds_reader_cost: m.reader_cost,
        ds_breakeven: m.breakeven.expect("data spec pays off"),
        cs_residual_cost,
        cs_codegen_cost,
        cs_breakeven,
    }
}

// ---------------------------------------------------------------------
// Rebuild overhead — amortized cost of the staged-execution runtime
// ---------------------------------------------------------------------

/// One churn level of the rebuild-overhead experiment.
#[derive(Debug, Clone)]
pub struct RebuildPoint {
    /// Requests between invariant-input changes (1 = stale every request).
    pub churn_interval: usize,
    /// Requests served.
    pub requests: usize,
    /// Loader executions the lifecycle actually performed.
    pub loads: u64,
    /// Total abstract cost through the staged runtime.
    pub staged_cost: u64,
    /// Total abstract cost of direct unspecialized evaluation.
    pub unspec_cost: u64,
    /// `unspec / staged`: above 1.0 the runtime pays off despite rebuilds.
    pub amortized_speedup: f64,
}

/// Measures what cache rebuilds cost end to end: a `Session` serves
/// `requests` dotprod requests whose varying inputs change every request
/// and whose invariant inputs change every `churn_interval` requests —
/// each invariant change forces a staleness reload. The baseline runs the
/// unspecialized fragment directly on the same request stream.
pub fn exp_rebuild_overhead(requests: usize) -> Vec<RebuildPoint> {
    use ds_runtime::{CacheStore, Session};

    let (_, artifact) = dotprod_artifact();
    [1usize, 2, 4, 8, 16, 64]
        .iter()
        .map(|&interval| {
            let ropts = ds_runtime::RunnerOptions {
                rebuild_budget: requests as u32,
                ..ds_runtime::RunnerOptions::default()
            };
            let store = Arc::new(CacheStore::new(16));
            let mut session = Session::new(Arc::clone(&artifact), store, ropts);
            let mut staged_cost = 0u64;
            let mut unspec_cost = 0u64;
            for args in churn_stream(requests, interval) {
                let out = session.run(&args).expect("staged request");
                staged_cost += out.cost;
                unspec_cost += session.reference(&args).expect("reference run").cost;
            }
            RebuildPoint {
                churn_interval: interval,
                requests,
                loads: session.stats().loads,
                staged_cost,
                unspec_cost,
                amortized_speedup: unspec_cost as f64 / staged_cost as f64,
            }
        })
        .collect()
}

/// Dotprod staged on `{z1, z2}`, as the runtime experiments serve it.
fn dotprod_artifact() -> (ds_core::Specialization, Arc<ds_runtime::StagedArtifact>) {
    let part = InputPartition::varying(["z1", "z2"]);
    let spec = ds_core::specialize_source(DOTPROD_SRC, "dotprod", &part, &SpecializeOptions::new())
        .expect("specialize dotprod");
    let artifact = Arc::new(ds_runtime::StagedArtifact::new(&spec, &part));
    (spec, artifact)
}

/// The runtime experiments' dotprod request stream: the varying inputs
/// change every request, the invariant inputs every `interval` requests.
fn churn_stream(requests: usize, interval: usize) -> Vec<Vec<Value>> {
    (0..requests)
        .map(|i| {
            let epoch = (i / interval) as f64;
            vec![
                Value::Float(1.0 + epoch), // x1: invariant within an epoch
                Value::Float(2.0),
                Value::Float(i as f64), // z1: varies every request
                Value::Float(4.0),
                Value::Float(5.0),
                Value::Float(0.5 * i as f64 + 1.0), // z2: varies every request
                Value::Float(2.0),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------
// WAL overhead — durability cost of the write-ahead log
// ---------------------------------------------------------------------

/// One churn level of the WAL-overhead experiment: the same request
/// stream served twice, write-ahead log off and on.
#[derive(Debug, Clone)]
pub struct WalOverheadPoint {
    /// Requests between invariant-input changes (1 = stale every request;
    /// each change appends one install record to the log).
    pub churn_interval: usize,
    /// Requests served per run.
    pub requests: usize,
    /// Wall-clock nanoseconds without a log attached.
    pub wal_off_nanos: u128,
    /// Wall-clock nanoseconds with an in-memory log + periodic checkpoints.
    pub wal_on_nanos: u128,
    /// `wal_on / wal_off` wall-clock ratio (1.0 = the log is free).
    pub overhead: f64,
    /// Wall-clock nanoseconds with the same log under group commit
    /// (records buffered and flushed in 16-record batches, final flush
    /// included in the timing).
    pub grouped_nanos: u128,
    /// `grouped / wal_off` wall-clock ratio — the durability cost once
    /// flushes are batched.
    pub grouped_overhead: f64,
    /// Records the logged run appended.
    pub wal_appends: u64,
    /// Whether both runs' answers matched the tree-walked reference.
    pub answers_match: bool,
}

/// Measures what durability costs end to end: the rebuild-overhead
/// request stream (varying inputs change every request, invariant inputs
/// every `churn_interval`) is served twice by identical `Session`s
/// — one bare, one with an in-memory [`ds_runtime::Wal`] checkpointing
/// every 8 appends. Both answer streams are compared against the
/// reference before any timing is reported.
pub fn exp_wal_overhead(requests: usize) -> Vec<WalOverheadPoint> {
    use ds_runtime::{CacheStore, Session};

    let (spec, artifact) = dotprod_artifact();
    [1usize, 8, 64]
        .iter()
        .map(|&interval| {
            let stream = churn_stream(requests, interval);
            let ropts = ds_runtime::RunnerOptions {
                rebuild_budget: requests as u32,
                ..ds_runtime::RunnerOptions::default()
            };
            let reference: Vec<Option<Value>> = stream
                .iter()
                .map(|args| {
                    artifact
                        .reference(args, ropts.eval)
                        .expect("reference run")
                        .value
                })
                .collect();
            let timed = |wal: Option<Arc<ds_runtime::Wal>>| {
                let store = Arc::new(CacheStore::new(requests.max(1)));
                let mut session = Session::new(Arc::clone(&artifact), store, ropts);
                if let Some(wal) = &wal {
                    session.attach_wal(Arc::clone(wal));
                }
                let started = std::time::Instant::now();
                let answers: Vec<Option<Value>> = stream
                    .iter()
                    .map(|args| session.run(args).expect("staged request").value)
                    .collect();
                // Durability is only real once buffered records hit
                // storage, so a group-commit run pays its final flush
                // inside the timed region.
                if let Some(wal) = &wal {
                    wal.flush().expect("final flush");
                }
                let elapsed = started.elapsed().as_nanos();
                (elapsed, answers == reference, session.stats().wal_appends())
            };
            let (off_nanos, off_ok, _) = timed(None);
            let wal = Arc::new(ds_runtime::Wal::in_memory(
                spec.layout.fingerprint(),
                Some(8),
            ));
            let (on_nanos, on_ok, appends) = timed(Some(wal));
            let grouped_wal = Arc::new(ds_runtime::Wal::in_memory(
                spec.layout.fingerprint(),
                Some(8),
            ));
            grouped_wal.set_group_commit(16);
            let (grouped_nanos, grouped_ok, _) = timed(Some(grouped_wal));
            WalOverheadPoint {
                churn_interval: interval,
                requests,
                wal_off_nanos: off_nanos,
                wal_on_nanos: on_nanos,
                overhead: on_nanos as f64 / off_nanos.max(1) as f64,
                grouped_nanos,
                grouped_overhead: grouped_nanos as f64 / off_nanos.max(1) as f64,
                wal_appends: appends,
                answers_match: off_ok && on_ok && grouped_ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_overhead_improves_with_invariant_stability() {
        let pts = exp_rebuild_overhead(64);
        assert_eq!(pts.len(), 6);
        // Rarer invariant churn -> fewer loads, better amortized speedup.
        for w in pts.windows(2) {
            assert!(w[0].loads >= w[1].loads, "{w:?}");
            assert!(
                w[0].amortized_speedup <= w[1].amortized_speedup + 1e-9,
                "{w:?}"
            );
        }
        // Churn on every request degenerates to pure loader overhead...
        assert_eq!(pts[0].loads, 64);
        assert!(pts[0].amortized_speedup < 1.0, "{:?}", pts[0]);
        // ...while a stable invariant vector amortizes to a net win
        // (the paper's two-use breakeven, lifted to the runtime).
        let last = pts.last().expect("nonempty");
        assert_eq!(last.loads, 1);
        assert!(last.amortized_speedup > 1.0, "{last:?}");
    }

    #[test]
    fn wal_overhead_logs_installs_and_keeps_answers_exact() {
        let pts = exp_wal_overhead(32);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.answers_match, "{p:?}: durability cost a wrong answer");
            assert!(p.wal_appends > 0, "{p:?}: nothing reached the log");
            assert!(p.overhead > 0.0, "{p:?}");
            assert!(p.grouped_overhead > 0.0, "{p:?}");
        }
        // Churn on every request logs one install per request; rarer
        // churn appends (much) less.
        assert_eq!(pts[0].wal_appends, 32);
        assert!(pts[2].wal_appends < pts[0].wal_appends, "{pts:?}");
    }

    #[test]
    fn dotprod_experiment_matches_paper_shape() {
        let r = exp_dotprod();
        assert_eq!(r.slots, 1);
        assert_eq!(r.breakeven, Some(2));
        // Paper: 11% when scale nonzero, 0% when zero. Shape: modest
        // speedup >1 on the nonzero path, ~1 on the zero path.
        assert!(r.speedup_nonzero > 1.05 && r.speedup_nonzero < 2.0);
        assert!((r.speedup_zero - 1.0).abs() < 0.25);
        // Startup overhead is small (paper: 5.5%).
        assert!(r.startup_overhead_nonzero < 0.5);
        assert!(r.loader_text.contains("CACHE[slot0]"));
        assert!(r.reader_text.contains("if (scale != 0.0)"));
    }

    #[test]
    fn summaries_group_all_shaders() {
        // A cheap smoke check on a subset: shader 1, all partitions.
        let suite = all_shaders();
        let opts = MeasureOptions {
            grid: 3,
            spec: SpecializeOptions::new(),
        };
        let ms: Vec<Measurement> = suite[0]
            .controls
            .iter()
            .map(|c| measure_partition(&suite[0], c.name, &opts))
            .collect();
        let sums = summarize(&ms);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].speedups.len(), 12);
        assert!(sums[0].median_speedup >= 1.0);
    }

    #[test]
    fn limit_sweep_monotone_in_budget() {
        // More cache budget never hurts (same victim heuristic, larger
        // keep-set): speedup at 40 bytes >= speedup at 0 bytes.
        let points = {
            let suite = all_shaders();
            let rings = &suite[9];
            let mut out = Vec::new();
            for &bound in &[0u32, 40] {
                let opts = MeasureOptions {
                    grid: 3,
                    spec: SpecializeOptions::new().with_cache_bound(bound),
                };
                let m = measure_partition(rings, "ambient", &opts);
                out.push((bound, m.speedup));
            }
            out
        };
        assert!(points[1].1 >= points[0].1, "{points:?}");
        // Zero budget: no caching, speedup collapses towards 1.
        assert!(points[0].1 < 1.5, "{points:?}");
    }

    #[test]
    fn code_growth_is_under_two() {
        let suite = all_shaders();
        let spec = specialize(
            &suite[0].program,
            "shade",
            &InputPartition::varying(["ambient"]),
            &SpecializeOptions::new(),
        )
        .unwrap();
        let s = &spec.stats;
        let growth = (s.loader_nodes + s.reader_nodes) as f64 / s.fragment_nodes as f64;
        assert!(growth < 2.0, "growth {growth}");
    }

    #[test]
    fn code_spec_faster_reader_slower_amortization() {
        // The paper's qualitative comparison: the residual runs at least as
        // fast as the data-spec reader, but its (modeled) codegen cost
        // yields a far longer amortization interval than breakeven-at-2.
        let suite = all_shaders();
        let row = exp_code_vs_data(&suite[0], "ambient", 2);
        assert!(row.cs_residual_cost <= row.ds_reader_cost * 1.05);
        assert_eq!(row.ds_breakeven, 2);
        if let Some(n) = row.cs_breakeven {
            assert!(n > row.ds_breakeven, "cs breakeven {n}");
        } // None: codegen never amortizes — an even stronger separation
    }
}
