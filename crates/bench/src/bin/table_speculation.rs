//! §7.1 ablation — loader speculation: "We would like to explore the
//! costs/benefits of allowing speculation in the loader. Because the
//! load-time overhead is presently very low, we can probably afford the
//! time overhead of extra, potentially-unused computations in the loader."
//!
//! This binary implements and measures that future-work idea: Rule 3 is
//! weakened so independent terms under dependent control may be cached when
//! the loader can hoist their evaluation ahead of the guard.

use ds_bench::{f, table};
use ds_core::{specialize_source, InputPartition, SpecializeOptions};
use ds_interp::{CacheBuf, Evaluator, Value};
use ds_shaders::{all_shaders, measure_partition, MeasureOptions};

/// Micro-benchmarks with expensive independent work behind a dependent
/// predicate — the shape speculation targets.
const CASES: &[(&str, &str)] = &[
    (
        "guarded-fbm",
        "float f(float k, float v) {
             float r = 0.1 * v;
             if (v > 0.5) { r = r + fbm3(k, k, k, 6); }
             return r;
         }",
    ),
    (
        "guarded-two-arms",
        "float f(float k, float v) {
             float r = 0.0;
             if (v > 0.0) { r = sin(k) * cos(k * 2.0) * v; }
             else { r = sqrt(k * k + 1.0) * v; }
             return r;
         }",
    ),
    (
        "guarded-in-loop",
        "float f(float k, float v, int n) {
             float acc = 0.0;
             int i = 0;
             while (i < n) {
                 if (v > 0.5) { acc = acc + noise3(k, k * 2.0, k * 3.0); }
                 acc = acc + v * 0.1;
                 i = i + 1;
             }
             return acc;
         }",
    ),
];

fn measure_micro(src: &str, speculate: bool) -> (f64, usize) {
    let opts = if speculate {
        SpecializeOptions::new().with_speculation()
    } else {
        SpecializeOptions::new()
    };
    let spec =
        specialize_source(src, "f", &InputPartition::varying(["v"]), &opts).expect("specialize");
    let program = spec.as_program();
    let ev = Evaluator::new(&program);
    let has_n = spec.fragment.params.iter().any(|p| p.name == "n");
    let args = |v: f64| -> Vec<Value> {
        let mut a = vec![Value::Float(1.3), Value::Float(v)];
        if has_n {
            a.push(Value::Int(4));
        }
        a
    };
    let mut cache = CacheBuf::new(spec.slot_count());
    ev.run_with_cache("f__loader", &args(0.9), &mut cache)
        .expect("loader");
    let mut orig_total = 0.0;
    let mut read_total = 0.0;
    for v in [0.2, 0.7, 1.5, 0.6] {
        let orig = ev.run("f", &args(v)).expect("orig");
        let read = ev
            .run_with_cache("f__reader", &args(v), &mut cache)
            .expect("reader");
        assert_eq!(orig.value, read.value, "speculation broke {v}");
        orig_total += orig.cost as f64;
        read_total += read.cost as f64;
    }
    (orig_total / read_total, spec.slot_count())
}

fn main() {
    println!("=== Loader speculation ablation (paper §7.1 future work) ===\n");
    let mut rows = vec![vec![
        "microbenchmark".to_string(),
        "plain speedup".to_string(),
        "plain slots".to_string(),
        "speculative speedup".to_string(),
        "spec slots".to_string(),
    ]];
    for (name, src) in CASES {
        let (plain, plain_slots) = measure_micro(src, false);
        let (spec, spec_slots) = measure_micro(src, true);
        rows.push(vec![
            name.to_string(),
            format!("{}x", f(plain, 2)),
            plain_slots.to_string(),
            format!("{}x", f(spec, 2)),
            spec_slots.to_string(),
        ]);
    }
    println!("{}", table(&rows));

    // And over the shading suite: how often does speculation matter?
    println!("shading suite, all 131 partitions:");
    let suite = all_shaders();
    let mut improved = 0;
    let mut total = 0;
    let mut best: Option<(String, f64, f64)> = None;
    for shader in &suite {
        for control in &shader.controls {
            let base = measure_partition(
                shader,
                control.name,
                &MeasureOptions {
                    grid: 4,
                    spec: SpecializeOptions::new(),
                },
            );
            let spec = measure_partition(
                shader,
                control.name,
                &MeasureOptions {
                    grid: 4,
                    spec: SpecializeOptions::new().with_speculation(),
                },
            );
            total += 1;
            if spec.speedup > base.speedup * 1.02 {
                improved += 1;
                let gain = spec.speedup / base.speedup;
                if best.as_ref().is_none_or(|(_, _, g)| gain > *g) {
                    best = Some((
                        format!("{}/{}", shader.name, control.name),
                        base.speedup,
                        gain,
                    ));
                }
            }
        }
    }
    println!("  partitions improved by >2%: {improved}/{total}");
    match best {
        Some((name, base, gain)) => println!(
            "  largest gain: {name} ({}x -> {}x)",
            f(base, 2),
            f(base * gain, 2)
        ),
        None => println!(
            "  (the shaders compute unconditionally, so dependent-control\n   \
             guards are rare — speculation's value is workload-dependent,\n   \
             as the paper anticipated)"
        ),
    }
}
