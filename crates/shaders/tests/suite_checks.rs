//! Suite-level invariants of the shading benchmarks: determinism of the
//! harness, sweep coverage, and the paper's qualitative orderings.

use ds_core::SpecializeOptions;
use ds_shaders::{all_shaders, measure_partition, render_image, MeasureOptions};

fn tiny() -> MeasureOptions {
    MeasureOptions {
        grid: 3,
        spec: SpecializeOptions::new(),
    }
}

#[test]
fn measurements_are_deterministic() {
    let suite = all_shaders();
    let a = measure_partition(&suite[3], "ringfreq", &tiny());
    let b = measure_partition(&suite[3], "ringfreq", &tiny());
    assert_eq!(a, b, "the harness must be bit-deterministic");
}

#[test]
fn grid_size_does_not_change_cache_size() {
    // Cache layout is a static property of the partition, not the image.
    let suite = all_shaders();
    let small = measure_partition(&suite[6], "freq", &tiny());
    let larger = measure_partition(
        &suite[6],
        "freq",
        &MeasureOptions {
            grid: 6,
            spec: SpecializeOptions::new(),
        },
    );
    assert_eq!(small.cache_bytes, larger.cache_bytes);
    assert_eq!(small.slots, larger.slots);
}

#[test]
fn per_pixel_statistics_are_grid_stable() {
    // §5.2: "truly per-pixel statistics; we are not relying on a large
    // image size to amortize costs" — speedups barely move with grid size.
    let suite = all_shaders();
    let s3 = measure_partition(&suite[0], "ambient", &tiny());
    let s6 = measure_partition(
        &suite[0],
        "ambient",
        &MeasureOptions {
            grid: 6,
            spec: SpecializeOptions::new(),
        },
    );
    let ratio = s3.speedup / s6.speedup;
    assert!(
        (0.8..1.25).contains(&ratio),
        "speedup should be grid-stable: {} vs {}",
        s3.speedup,
        s6.speedup
    );
}

#[test]
fn noise_feeding_params_halve_the_benefit() {
    // §5.1's "lowering the achievable speedup by approximately 50%" shape:
    // for each noise shader, the noise-frequency partition does markedly
    // worse than the best color/weight partition.
    let suite = all_shaders();
    for (index, noise_param, cheap_param) in [
        (3usize, "veinfreq", "baser"),
        (4, "ringfreq", "darkr"),
        (5, "freq1", "baser"),
    ] {
        let shader = suite.iter().find(|s| s.index == index).expect("shader");
        let noisy = measure_partition(shader, noise_param, &tiny());
        let cheap = measure_partition(shader, cheap_param, &tiny());
        assert!(
            noisy.speedup < cheap.speedup * 0.6,
            "shader {index}: {noise_param} {:.1}x vs {cheap_param} {:.1}x",
            noisy.speedup,
            cheap.speedup
        );
    }
}

#[test]
fn light_position_params_cost_more_than_color_params() {
    // Light position affects the lighting model; color scales are nearly
    // free. This ordering held for every shader with both kinds.
    let suite = all_shaders();
    let plastic = &suite[0];
    let lightx = measure_partition(plastic, "lightx", &tiny());
    let surfr = measure_partition(plastic, "surfr", &tiny());
    assert!(lightx.reader_cost > surfr.reader_cost);
}

#[test]
fn renders_differ_across_shaders() {
    // The ten shaders are genuinely distinct procedures, not reskins: their
    // default renderings differ pairwise.
    let suite = all_shaders();
    let images: Vec<Vec<f64>> = suite.iter().map(|s| render_image(s, 8)).collect();
    for i in 0..images.len() {
        for j in (i + 1)..images.len() {
            assert_ne!(
                images[i], images[j],
                "shaders {} and {} render identically",
                suite[i].name, suite[j].name
            );
        }
    }
}

#[test]
fn sweep_values_are_deterministic_and_distinct() {
    let suite = all_shaders();
    for shader in &suite {
        for c in &shader.controls {
            let s1 = c.sweep();
            let s2 = c.sweep();
            assert_eq!(s1, s2);
            assert!(s1[0] != s1[1] && s1[1] != s1[2] && s1[0] != s1[2]);
        }
    }
}

#[test]
fn control_names_are_unique_per_shader() {
    for shader in all_shaders() {
        let mut names: Vec<&str> = shader.control_names().collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate control in {}", shader.name);
    }
}
