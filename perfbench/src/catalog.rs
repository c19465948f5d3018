//! `catalog`: offline staging of every partition in the shader catalog.
//!
//! One pass takes all 131 (shader, control) partitions in a seeded order.
//! Each is parsed, specialized under a fixed cache byte bound (so the §4.3
//! limiting pass runs), compiled to bytecode and fused; its loader fills one
//! seeded pixel's cache, and the reader then sweeps a seeded slider range
//! through the batch VM. The specializer passes, the compiler and the batch
//! VM do the work here and the serving runtime does none, so a
//! runtime-only change is predicted to leave this workload unchanged.

use crate::gen::{self, stream, Rng};
use crate::report::{peak_rss_mb, RunResult};
use crate::serve::{answer, check_answer, shader_args, Answer};
use crate::spans::Tracer;
use crate::staging::StagingLayers;
use crate::stats::{median, quantile, quantile_ns, ratio};
use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_interp::{
    compile, fuse_hot_pairs, static_op_histogram, BatchVm, CacheBuf, EvalOptions, Value, Vm,
    DEFAULT_FUSION_TOP_K,
};
use ds_runtime::StagedArtifact;
use ds_shaders::{all_shaders, pixel_inputs, Shader};
use std::time::{Duration, Instant};

/// Sizes of one `catalog` run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Distinct slider values swept per partition.
    pub sweep: usize,
    /// Times the sweep is repeated in one batch (lanes = sweep x repeats),
    /// like a user dragging back and forth.
    pub repeats: usize,
    /// The specializer's cache byte bound.
    pub cache_bound: u32,
    /// Passes run even when the time budget is spent sooner.
    pub min_passes: usize,
    /// Only the first this-many partitions of the order (all when `None`).
    pub partitions: Option<usize>,
    /// Set-ups timed; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Config {
    /// The measured configuration.
    pub const FULL: Config = Config {
        sweep: 64,
        repeats: 32,
        cache_bound: 24,
        min_passes: 2,
        partitions: None,
        setup_reps: 11,
    };

    /// A seconds-long smoke configuration for tests.
    pub const SHORT: Config = Config {
        sweep: 4,
        repeats: 2,
        cache_bound: 64,
        min_passes: 1,
        partitions: Some(6),
        setup_reps: 1,
    };
}

/// Frame the seeded pixels are drawn from.
const FRAME: (u32, u32) = (64, 48);

/// One partition's seeded inputs.
struct Plan {
    shader: usize,
    control: usize,
    pixel: Vec<Value>,
    values: Vec<f64>,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    total_ns: u64,
    partition_ns: Vec<u64>,
    staging_ns: u64,
    batch_ns: u64,
    lanes: u64,
}

/// Per-layer samples of the traced half.
#[derive(Default)]
struct Layers {
    staging: StagingLayers,
    load_ns: Vec<u64>,
    load_cost: u64,
    lane_ns: Vec<u64>,
    batch_ns: u64,
    batch_cost: u64,
    lane_cost: Vec<u64>,
    fused_dispatches: u64,
    limited: u64,
}

/// Runs `catalog` for about `seconds`. With `tracer` on, the time is split
/// between an untraced and a traced half, and the result carries the
/// per-layer metrics.
pub fn run(cfg: &Config, seed: u64, seconds: f64, tracer: &mut Tracer) -> RunResult {
    let mut res = RunResult::default();
    let mut setup_ns = Vec::new();
    let mut shaders = Vec::new();
    for _ in 0..cfg.setup_reps.max(1) {
        let t = Instant::now();
        shaders = all_shaders();
        setup_ns.push(t.elapsed().as_nanos() as f64);
    }
    let setup_s = median(&setup_ns) / 1e9;
    let plans = plan(cfg, seed, &shaders);
    if tracer.is_on() {
        let half = seconds / 2.0;
        let (base, _) = session(
            cfg,
            &shaders,
            &plans,
            half,
            &mut res,
            &mut Tracer::new(false),
        );
        let (passes, l) = session(cfg, &shaders, &plans, half, &mut res, tracer);
        report(&mut res, setup_s, &base);
        let v = &mut res.layers;
        l.staging.write(v);
        let passes_run = passes.len().max(1) as u64;
        v.set(
            "interp.fused_sites",
            (l.staging.fused_sites / passes_run) as f64,
        );
        v.set("interp.batch_ns_per_lane", quantile_ns(&l.lane_ns, 0.5));
        v.set(
            "interp.batch_fused_dispatches",
            (l.fused_dispatches / passes_run) as f64,
        );
        v.set("interp.read_ns_p50", quantile_ns(&l.lane_ns, 0.5));
        v.set("interp.load_ns_p50", quantile_ns(&l.load_ns, 0.5));
        v.set("interp.read_cost_units", quantile_ns(&l.lane_cost, 0.5));
        v.set(
            "interp.ns_per_cost_unit.read",
            ratio(l.batch_ns as f64, l.batch_cost as f64),
        );
        v.set(
            "interp.ns_per_cost_unit.load",
            ratio(l.load_ns.iter().sum::<u64>() as f64, l.load_cost as f64),
        );
        let p50 = |p: &[Pass]| quantile(&all_partitions(p), 0.5);
        v.set(
            "bench.trace_overhead",
            ratio(p50(&passes) - p50(&base), p50(&base)),
        );
        res.named.push((
            "limited_partitions",
            (l.limited / passes_run) as f64,
            "count",
        ));
    } else {
        let (passes, _) = session(cfg, &shaders, &plans, seconds, &mut res, tracer);
        report(&mut res, setup_s, &passes);
        res.end_to_end.set("peak_rss_mb", peak_rss_mb());
    }
    res
}

fn all_partitions(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.partition_ns.iter().map(|&x| x as f64))
        .collect()
}

fn report(res: &mut RunResult, setup_s: f64, passes: &[Pass]) {
    let parts = all_partitions(passes);
    let pass_ns: Vec<f64> = passes.iter().map(|p| p.total_ns as f64).collect();
    let busy: f64 = pass_ns.iter().sum();
    let lanes: u64 = passes.iter().map(|p| p.lanes).sum();
    let staging: u64 = passes.iter().map(|p| p.staging_ns).sum();
    let batch: u64 = passes.iter().map(|p| p.batch_ns).sum();
    // One pass, as the sum over partitions of each partition's median
    // time across passes: a stall of the machine during one pass moves
    // the median of that partition's times, not the total.
    let catalog_s = (0..passes.first().map_or(0, |p| p.partition_ns.len()))
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p.partition_ns[i] as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .sum::<f64>()
        / 1e9;
    res.named.extend([
        ("setup_s", setup_s, "s"),
        ("catalog_s", catalog_s, "s"),
        ("partition_ms_p50", quantile(&parts, 0.5) / 1e6, "ms"),
        ("staging_share", ratio(staging as f64, busy), "ratio"),
        ("batch_share", ratio(batch as f64, busy), "ratio"),
        ("passes", passes.len() as f64, "count"),
    ]);
    let e = &mut res.end_to_end;
    e.set("setup_s", setup_s);
    e.set("latency_ms_p50", quantile(&parts, 0.5) / 1e6);
    e.set("latency_ms_tail", quantile(&parts, 0.9) / 1e6);
    e.set("cycle_ms_p50", catalog_s * 1e3);
    e.set("answers_per_s", ratio(lanes as f64, busy / 1e9));
}

/// Seeded order, pixel and slider sweep for every partition.
fn plan(cfg: &Config, seed: u64, shaders: &[Shader]) -> Vec<Plan> {
    let mut rng = Rng::new(seed, stream::CATALOG);
    let mut pairs: Vec<(usize, usize)> = shaders
        .iter()
        .enumerate()
        .flat_map(|(s, sh)| (0..sh.controls.len()).map(move |c| (s, c)))
        .collect();
    rng.shuffle(&mut pairs);
    pairs.truncate(cfg.partitions.unwrap_or(pairs.len()));
    pairs
        .into_iter()
        .map(|(s, c)| {
            let control = shaders[s].controls[c];
            let pixel = pixel_inputs(
                rng.below(FRAME.0 as usize) as u32,
                rng.below(FRAME.1 as usize) as u32,
                FRAME.0,
                FRAME.1,
            )
            .to_args();
            let values = gen::slider_walk(&mut rng, &control.sweep(), control.default, cfg.sweep);
            Plan {
                shader: s,
                control: c,
                pixel,
                values,
            }
        })
        .collect()
}

/// Passes over the plan until `seconds` are spent; returns each pass's
/// timings and, when tracing, the per-layer samples.
fn session(
    cfg: &Config,
    shaders: &[Shader],
    plans: &[Plan],
    seconds: f64,
    res: &mut RunResult,
    tracer: &mut Tracer,
) -> (Vec<Pass>, Layers) {
    let traced = tracer.is_on();
    let opts = SpecializeOptions::new().with_cache_bound(cfg.cache_bound);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut layers = Layers::default();
    // Reference answers per partition: the loader's, then one per distinct
    // slider value; computed on the first pass, outside the timed region.
    let mut reference: Vec<Option<Vec<Answer>>> = vec![None; plans.len()];
    while passes.len() < cfg.min_passes || start.elapsed() < budget {
        let mut pass = Pass::default();
        let pass_id = tracer.open("pass", 0);
        for (pi, p) in plans.iter().enumerate() {
            let shader = &shaders[p.shader];
            let control = shader.controls[p.control];
            let partition = InputPartition::varying([control.name]);
            let loader_args = shader_args(&p.pixel, shader, p.control, control.default);
            let lanes: Vec<Vec<Value>> = (0..cfg.repeats)
                .flat_map(|_| p.values.iter())
                .map(|&v| shader_args(&p.pixel, shader, p.control, v))
                .collect();
            let part_id = tracer.open("partition", pass_id);

            let t0 = Instant::now();
            let program = ds_lang::parse_program(&shader.source).expect("catalog parses");
            ds_lang::typecheck(&program).expect("catalog type-checks");
            let t1 = Instant::now();
            let spec = specialize(&program, "shade", &partition, &opts)
                .expect("catalog partitions specialize");
            let t2 = Instant::now();
            let mut compiled = compile(&spec.as_program());
            let t3 = Instant::now();
            let hist = static_op_histogram(&compiled);
            let fusion = fuse_hot_pairs(&mut compiled, &hist, DEFAULT_FUSION_TOP_K);
            let t4 = Instant::now();
            let mut cache = CacheBuf::new(spec.slot_count());
            let loaded = Vm::new().run(
                &compiled,
                "shade__loader",
                &loader_args,
                Some(&mut cache),
                EvalOptions::default(),
            );
            let t5 = Instant::now();
            let mut bvm = BatchVm::new();
            let outs = bvm.run(
                &compiled,
                "shade__reader",
                &lanes,
                Some(&mut cache),
                EvalOptions::default(),
            );
            let t6 = Instant::now();

            tracer.close(part_id);
            pass.partition_ns.push((t6 - t0).as_nanos() as u64);
            pass.staging_ns += (t5 - t0).as_nanos() as u64;
            pass.batch_ns += (t6 - t5).as_nanos() as u64;
            pass.lanes += lanes.len() as u64;
            if traced {
                for (name, a, b) in [
                    ("parse", t0, t1),
                    ("specialize", t1, t2),
                    ("compile", t2, t3),
                    ("fuse", t3, t4),
                    ("vm.loader", t4, t5),
                    ("batch.reader", t5, t6),
                ] {
                    tracer.record(name, part_id, None, a, b);
                }
                let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
                layers.staging.parse.push(ns(t0, t1));
                layers.staging.add_spec(&spec, ns(t1, t2));
                layers.staging.compile.push(ns(t2, t3));
                layers.staging.fuse.push(ns(t3, t4));
                layers.staging.fused_sites += fusion.fused_sites;
                layers.load_ns.push(ns(t4, t5));
                layers.load_cost += loaded.as_ref().map_or(0, |o| o.cost);
                let batch = ns(t5, t6);
                layers.lane_ns.push(batch / lanes.len().max(1) as u64);
                layers.batch_ns += batch;
                let costs: Vec<u64> = outs.iter().flatten().map(|o| o.cost).collect();
                layers.batch_cost += costs.iter().sum::<u64>();
                layers.lane_cost.push(costs.first().copied().unwrap_or(0));
                layers.fused_dispatches += bvm.fused_dispatches();
                layers.limited += u64::from(!spec.stats.evictions.is_empty());
            }

            // Check every answer, outside the timed region.
            let check_id = tracer.open("check", part_id);
            let want = reference[pi].get_or_insert_with(|| {
                let artifact = StagedArtifact::new(&spec, &partition);
                let mut eval = |a: &[Value]| {
                    let t = Instant::now();
                    let out = artifact.reference(a, EvalOptions::default());
                    if traced {
                        tracer.record("reference", check_id, None, t, Instant::now());
                        if let Ok(o) = &out {
                            layers
                                .staging
                                .add_unspec(t.elapsed().as_nanos() as u64, o.cost);
                        }
                    }
                    answer(&out)
                };
                std::iter::once(eval(&loader_args))
                    .chain(
                        p.values
                            .iter()
                            .map(|&v| eval(&shader_args(&p.pixel, shader, p.control, v))),
                    )
                    .collect()
            });
            tracer.close(check_id);
            // Every submitted lane is scored; one the batch VM dropped has
            // no answer and fails.
            res.attempted += 1 + lanes.len() as u64;
            check_answer(Some(&answer(&loaded)), Some(&want[0]), res);
            for lane in 0..lanes.len() {
                let got = outs.get(lane).map(answer);
                check_answer(got.as_ref(), Some(&want[1 + lane % p.values.len()]), res);
            }
        }
        tracer.close(pass_id);
        pass.total_ns = pass.partition_ns.iter().sum();
        passes.push(pass);
    }
    (passes, layers)
}
