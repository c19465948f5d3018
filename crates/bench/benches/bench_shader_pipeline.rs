//! Wall-clock companion to Figures 7/8: per-pixel original vs loader vs
//! reader for a simple shader (plastic/ambient), an expensive-noise shader
//! (marble/kd, where the reader should be dramatically faster), and a
//! noise-defeating partition (marble/veinfreq).
//!
//! Every phase runs on both backends — the reference tree walker and the
//! register-bytecode VM — and each case ends with a `reader-vm-batch`
//! measurement replaying a sweep of varying inputs through
//! [`ds_interp::CompiledProgram::run_batch_soa`] against one warm cache, the
//! shape a renderer would actually use per frame.

use criterion::{criterion_group, criterion_main, Criterion};
use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_interp::{compile, CacheBuf, EvalOptions, Evaluator, Value, Vm};
use ds_shaders::{all_shaders, pixel_inputs, Shader};
use std::hint::black_box;

fn full_args(shader: &Shader, varying: &str, value: f64) -> Vec<Value> {
    let mut a = pixel_inputs(5, 7, 16, 16).to_args();
    for c in &shader.controls {
        a.push(Value::Float(if c.name == varying {
            value
        } else {
            c.default
        }));
    }
    a
}

fn bench_case(c: &mut Criterion, shader: &Shader, param: &str) {
    let spec = specialize(
        &shader.program,
        "shade",
        &InputPartition::varying([param]),
        &SpecializeOptions::new(),
    )
    .expect("specialize");
    let program = spec.as_program();
    let ev = Evaluator::new(&program);
    let compiled = compile(&program);
    let mut vm = Vm::new();
    let sweep_vals = shader.control(param).expect("exists").sweep();
    let a = full_args(shader, param, sweep_vals[0]);

    let mut group = c.benchmark_group(format!("{}-{}", shader.name, param));
    group.bench_function("original", |b| {
        b.iter(|| ev.run("shade", black_box(&a)).expect("run"))
    });
    group.bench_function("original-vm", |b| {
        b.iter(|| {
            vm.run(
                &compiled,
                "shade",
                black_box(&a),
                None,
                EvalOptions::default(),
            )
            .expect("run")
        })
    });
    group.bench_function("loader", |b| {
        b.iter(|| {
            let mut cache = CacheBuf::new(spec.slot_count());
            ev.run_with_cache("shade__loader", black_box(&a), &mut cache)
                .expect("run")
        })
    });
    group.bench_function("loader-vm", |b| {
        b.iter(|| {
            let mut cache = CacheBuf::new(spec.slot_count());
            vm.run(
                &compiled,
                "shade__loader",
                black_box(&a),
                Some(&mut cache),
                EvalOptions::default(),
            )
            .expect("run")
        })
    });
    let mut cache = CacheBuf::new(spec.slot_count());
    ev.run_with_cache("shade__loader", &a, &mut cache)
        .expect("fill");
    group.bench_function("reader", |b| {
        b.iter(|| {
            ev.run_with_cache("shade__reader", black_box(&a), &mut cache)
                .expect("run")
        })
    });
    group.bench_function("reader-vm", |b| {
        b.iter(|| {
            vm.run(
                &compiled,
                "shade__reader",
                black_box(&a),
                Some(&mut cache),
                EvalOptions::default(),
            )
            .expect("run")
        })
    });
    // Replay the shader's whole control sweep through the batch API.
    let sweep: Vec<Vec<Value>> = sweep_vals
        .iter()
        .map(|&v| full_args(shader, param, v))
        .collect();
    let label = format!("reader-vm-batch-{}", sweep.len());
    group.bench_function(label.as_str(), |b| {
        b.iter(|| {
            let outs = compiled.run_batch_soa(
                "shade__reader",
                black_box(&sweep),
                Some(&mut cache),
                EvalOptions::default(),
            );
            assert_eq!(outs.len(), sweep.len());
            outs
        })
    });
    group.finish();
}

fn bench_shaders(c: &mut Criterion) {
    let suite = all_shaders();
    bench_case(c, &suite[0], "ambient"); // simple shader, cheap partition
    bench_case(c, &suite[0], "lightx"); // simple shader, expensive partition
    bench_case(c, &suite[2], "kd"); // noise shader, noise fully cached
    bench_case(c, &suite[2], "veinfreq"); // noise shader, one field recomputed
}

criterion_group!(benches, bench_shaders);
criterion_main!(benches);
