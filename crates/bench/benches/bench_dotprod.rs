//! Wall-clock companion to experiment E1 (§2 dotprod): original vs loader
//! vs reader under the interpreter. The abstract cost meter is the primary
//! metric in this reproduction; these benches confirm wall-clock tracks it.
//!
//! Each phase is measured on both execution backends: the reference tree
//! walker (`Evaluator`) and the register-bytecode VM (`compile` + [`Vm`]).
//! The `reader-vm-batch` case drives the VM through
//! [`ds_interp::CompiledProgram::run_batch_soa`], the intended shape for the
//! paper's workload — one compiled program and one warm cache replayed
//! across a sweep of varying inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use ds_bench::DOTPROD_SRC;
use ds_core::{specialize_source, InputPartition, SpecializeOptions};
use ds_interp::{compile, CacheBuf, EvalOptions, Evaluator, Value, Vm};
use std::hint::black_box;

fn args(z1: f64, z2: f64, scale: f64) -> Vec<Value> {
    [1.0, 2.0, z1, 4.0, 5.0, z2, scale]
        .iter()
        .map(|&x| Value::Float(x))
        .collect()
}

fn bench_dotprod(c: &mut Criterion) {
    let spec = specialize_source(
        DOTPROD_SRC,
        "dotprod",
        &InputPartition::varying(["z1", "z2"]),
        &SpecializeOptions::new(),
    )
    .expect("specialize");
    let program = spec.as_program();
    let ev = Evaluator::new(&program);
    let compiled = compile(&program);
    let mut vm = Vm::new();
    let a = args(3.0, 6.0, 2.0);

    let mut group = c.benchmark_group("dotprod");
    group.bench_function("original", |b| {
        b.iter(|| ev.run("dotprod", black_box(&a)).expect("run"))
    });
    group.bench_function("original-vm", |b| {
        b.iter(|| {
            vm.run(
                &compiled,
                "dotprod",
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
            ev.run_with_cache("dotprod__loader", black_box(&a), &mut cache)
                .expect("run")
        })
    });
    group.bench_function("loader-vm", |b| {
        b.iter(|| {
            let mut cache = CacheBuf::new(spec.slot_count());
            vm.run(
                &compiled,
                "dotprod__loader",
                black_box(&a),
                Some(&mut cache),
                EvalOptions::default(),
            )
            .expect("run")
        })
    });
    let mut cache = CacheBuf::new(spec.slot_count());
    ev.run_with_cache("dotprod__loader", &a, &mut cache)
        .expect("fill cache");
    group.bench_function("reader", |b| {
        b.iter(|| {
            ev.run_with_cache("dotprod__reader", black_box(&a), &mut cache)
                .expect("run")
        })
    });
    group.bench_function("reader-vm", |b| {
        b.iter(|| {
            vm.run(
                &compiled,
                "dotprod__reader",
                black_box(&a),
                Some(&mut cache),
                EvalOptions::default(),
            )
            .expect("run")
        })
    });
    // The batch API: 64 varying inputs replayed against one warm cache.
    let sweep: Vec<Vec<Value>> = (0..64)
        .map(|i| args(f64::from(i), f64::from(i) * 0.5, 2.0))
        .collect();
    group.bench_function("reader-vm-batch-64", |b| {
        b.iter(|| {
            let outs = compiled.run_batch_soa(
                "dotprod__reader",
                black_box(&sweep),
                Some(&mut cache),
                EvalOptions::default(),
            );
            assert_eq!(outs.len(), 64);
            outs
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dotprod);
criterion_main!(benches);
