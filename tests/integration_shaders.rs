//! Cross-crate integration tests over the shading benchmark suite: every
//! one of the 131 partitions specializes successfully and reproduces the
//! original shader bit-for-bit through the loader/reader protocol.

use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_interp::{CacheBuf, Evaluator, Value};
use ds_shaders::{all_shaders, measure_partition, pixel_inputs, MeasureOptions};

/// Every partition of every shader specializes and validates. This runs
/// the complete loader/reader equivalence protocol (which asserts
/// internally) on a small grid — the full-size version is the Figure 7
/// binary.
#[test]
fn all_131_partitions_specialize_and_validate() {
    let opts = MeasureOptions {
        grid: 2,
        spec: SpecializeOptions::new(),
    };
    let mut count = 0;
    for shader in all_shaders() {
        for control in &shader.controls {
            let m = measure_partition(&shader, control.name, &opts);
            assert!(
                m.speedup >= 0.99,
                "{}/{}: speedup below 1 ({})",
                m.shader,
                m.param,
                m.speedup
            );
            assert!(m.slots > 0, "{}/{}: nothing cached?", m.shader, m.param);
            count += 1;
        }
    }
    assert_eq!(count, 131);
}

/// Under reassociation the suite still validates (with the tolerance the
/// harness applies for float reordering).
#[test]
fn suite_validates_under_reassociation() {
    let opts = MeasureOptions {
        grid: 2,
        spec: SpecializeOptions::new().with_reassociation(),
    };
    let suite = all_shaders();
    for shader in [&suite[0], &suite[2], &suite[9]] {
        for control in shader.controls.iter().take(4) {
            let m = measure_partition(shader, control.name, &opts);
            assert!(m.speedup >= 0.99, "{}/{}", m.shader, m.param);
        }
    }
}

/// Under aggressive cache budgets the suite still validates.
#[test]
fn suite_validates_under_cache_budgets() {
    let suite = all_shaders();
    for bound in [0u32, 8, 16] {
        let opts = MeasureOptions {
            grid: 2,
            spec: SpecializeOptions::new().with_cache_bound(bound),
        };
        let m = measure_partition(&suite[9], "ambient", &opts);
        assert!(m.cache_bytes <= bound);
    }
}

/// The per-pixel cache array protocol of §5: one specialization (one
/// loader/reader pair), many simultaneously live caches — caches must not
/// interfere across pixels.
#[test]
fn per_pixel_cache_arrays_are_independent() {
    let suite = all_shaders();
    let shader = &suite[2]; // marble: heavy per-pixel noise in the cache
    let spec = specialize(
        &shader.program,
        "shade",
        &InputPartition::varying(["kd"]),
        &SpecializeOptions::new(),
    )
    .expect("specialize");
    let program = spec.as_program();
    let ev = Evaluator::new(&program);

    let pixels: Vec<_> = (0..4)
        .flat_map(|y| (0..4).map(move |x| pixel_inputs(x, y, 4, 4)))
        .collect();
    let args_for = |p: &ds_shaders::PixelInputs, kd: f64| -> Vec<Value> {
        let mut a = p.to_args();
        for c in &shader.controls {
            a.push(Value::Float(if c.name == "kd" { kd } else { c.default }));
        }
        a
    };

    // Load all pixel caches first (the paper's "array of per-pixel
    // caches"), then replay the reader over all pixels at a new kd.
    let mut caches: Vec<CacheBuf> = pixels
        .iter()
        .map(|p| {
            let mut cache = CacheBuf::new(spec.slot_count());
            ev.run_with_cache("shade__loader", &args_for(p, 0.75), &mut cache)
                .expect("loader");
            cache
        })
        .collect();
    for (p, cache) in pixels.iter().zip(&mut caches) {
        let args = args_for(p, 0.3);
        let orig = ev.run("shade", &args).expect("orig");
        let read = ev
            .run_with_cache("shade__reader", &args, cache)
            .expect("reader");
        assert_eq!(orig.value, read.value, "pixel {:?}", (p.px, p.py));
    }
}

/// Asymptotic speedups survive repeated reader use: the cache is read-only
/// for the reader, so replaying 10 times changes nothing.
#[test]
fn reader_is_idempotent_over_cache() {
    let suite = all_shaders();
    let shader = &suite[4];
    let spec = specialize(
        &shader.program,
        "shade",
        &InputPartition::varying(["kd"]),
        &SpecializeOptions::new(),
    )
    .expect("specialize");
    let program = spec.as_program();
    let ev = Evaluator::new(&program);
    let mut args = pixel_inputs(1, 2, 4, 4).to_args();
    for c in &shader.controls {
        args.push(Value::Float(c.default));
    }
    let mut cache = CacheBuf::new(spec.slot_count());
    ev.run_with_cache("shade__loader", &args, &mut cache)
        .expect("loader");
    let snapshot = cache.clone();
    let first = ev
        .run_with_cache("shade__reader", &args, &mut cache)
        .expect("reader");
    for _ in 0..10 {
        let again = ev
            .run_with_cache("shade__reader", &args, &mut cache)
            .expect("reader");
        assert_eq!(first.value, again.value);
        assert_eq!(first.cost, again.cost);
    }
    assert_eq!(cache, snapshot, "reader must not write the cache");
}
