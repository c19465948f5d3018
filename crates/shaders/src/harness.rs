//! The interactive-rendering measurement harness.
//!
//! Reproduces the paper's §5 protocol: "The graphical interface restricts
//! the user to modifying a single control parameter at a time, allowing us
//! to specialize a shader on all of its inputs except for the control
//! parameter being modified." For each (shader, control parameter)
//! partition the harness:
//!
//! 1. specializes the shader (`ds-core`),
//! 2. runs the **loader** once per pixel of a sample grid, filling that
//!    pixel's cache (the paper's array of per-pixel caches) and checking the
//!    loader's result against the original shader,
//! 3. replays the **reader** per pixel for several new values of the
//!    varying parameter ("successive changes to a single shading
//!    parameter"), checking each result against the original shader run on
//!    the same inputs, and
//! 4. reports per-pixel average costs, asymptotic speedup, cache size and
//!    the breakeven use count.
//!
//! Equivalence checking is built in: a measurement is only produced if the
//! specialized pipeline computed bit-identical results (or, under
//! reassociation, results within a small relative tolerance).

use crate::catalog::Shader;
use crate::scene::sample_grid;
use ds_core::{specialize, InputPartition, Specialization, SpecializeOptions};
use ds_interp::{CacheBuf, Evaluator, Value};

/// The result of measuring one input partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Shader index (1-10).
    pub shader_index: usize,
    /// Shader name.
    pub shader: &'static str,
    /// The varying control parameter.
    pub param: &'static str,
    /// Mean per-pixel cost of the original fragment.
    pub orig_cost: f64,
    /// Mean per-pixel cost of the cache loader.
    pub loader_cost: f64,
    /// Mean per-pixel cost of the cache reader.
    pub reader_cost: f64,
    /// Asymptotic speedup: `orig_cost / reader_cost` (Figure 7's metric).
    pub speedup: f64,
    /// Single-pixel cache size in bytes (Figure 8's metric).
    pub cache_bytes: u32,
    /// Number of cache slots.
    pub slots: usize,
    /// Smallest number of uses at which staging beats rerunning the
    /// original (§5.2); `None` if it never pays off.
    pub breakeven: Option<u32>,
}

/// Knobs for [`measure_partition`].
#[derive(Debug, Clone, Copy)]
pub struct MeasureOptions {
    /// Sample grid edge (the paper uses full 640×480 frames; per-pixel
    /// statistics are grid-size independent, so a small grid suffices).
    pub grid: u32,
    /// Specializer configuration.
    pub spec: SpecializeOptions,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            grid: 8,
            spec: SpecializeOptions::new(),
        }
    }
}

/// Measures one (shader, varying parameter) partition.
///
/// # Panics
///
/// Panics if specialization fails, evaluation fails, or the specialized
/// pipeline does not reproduce the original shader's outputs — all of which
/// indicate bugs, not data.
pub fn measure_partition(shader: &Shader, param: &str, opts: &MeasureOptions) -> Measurement {
    let control = shader
        .control(param)
        .unwrap_or_else(|| panic!("shader {} has no control `{param}`", shader.name));
    let spec = specialize(
        &shader.program,
        "shade",
        &InputPartition::varying([param]),
        &opts.spec,
    )
    .unwrap_or_else(|e| panic!("specializing {}/{param} failed: {e}", shader.name));

    let (orig_cost, loader_cost, reader_cost) = run_partition(shader, param, &spec, opts);
    let speedup = orig_cost / reader_cost;
    Measurement {
        shader_index: shader.index,
        shader: shader.name,
        param: control.name,
        orig_cost,
        loader_cost,
        reader_cost,
        speedup,
        cache_bytes: spec.cache_bytes(),
        slots: spec.slot_count(),
        breakeven: breakeven(orig_cost, loader_cost, reader_cost),
    }
}

/// Executes the loader/reader protocol over the sample grid, returning mean
/// per-pixel `(original, loader, reader)` costs. The reference tree walker
/// runs every phase: abstract costs are engine-invariant, and sweep-shaped
/// wall time lives in ds-bench.
fn run_partition(
    shader: &Shader,
    param: &str,
    spec: &Specialization,
    opts: &MeasureOptions,
) -> (f64, f64, f64) {
    let program = spec.as_program();
    let exec = Evaluator::new(&program);
    let control = shader.control(param).expect("validated by caller");
    let sweep = control.sweep();

    let mut orig_total = 0u64;
    let mut orig_runs = 0u64;
    let mut loader_total = 0u64;
    let mut loader_runs = 0u64;
    let mut reader_total = 0u64;
    let mut reader_runs = 0u64;

    for pixel in sample_grid(opts.grid) {
        let mut cache = CacheBuf::new(spec.slot_count());
        // Initial frame: the loader fills this pixel's cache and must agree
        // with the original.
        let args0 = self::args(shader, pixel.to_args(), param, control.default);
        let orig0 = exec.run("shade", &args0).expect("original shader run");
        let load = exec
            .run_with_cache("shade__loader", &args0, &mut cache)
            .expect("loader run");
        check_equal(shader.name, param, &orig0.value, &load.value, opts);
        assert_eq!(orig0.trace, load.trace, "loader changed effect order");
        loader_total += load.cost;
        loader_runs += 1;

        // The user drags the slider: replay the reader per new value.
        for value in sweep {
            let args = self::args(shader, pixel.to_args(), param, value);
            let orig = exec.run("shade", &args).expect("original shader run");
            let read = exec
                .run_with_cache("shade__reader", &args, &mut cache)
                .expect("reader run");
            check_equal(shader.name, param, &orig.value, &read.value, opts);
            assert_eq!(orig.trace, read.trace, "reader changed effect order");
            orig_total += orig.cost;
            orig_runs += 1;
            reader_total += read.cost;
            reader_runs += 1;
        }
    }
    (
        orig_total as f64 / orig_runs as f64,
        loader_total as f64 / loader_runs as f64,
        reader_total as f64 / reader_runs as f64,
    )
}

/// Builds a full argument vector: pixel inputs, then controls at their
/// defaults with `param` overridden to `value`.
fn args(shader: &Shader, mut pixel: Vec<Value>, param: &str, value: f64) -> Vec<Value> {
    for c in &shader.controls {
        pixel.push(Value::Float(if c.name == param {
            value
        } else {
            c.default
        }));
    }
    pixel
}

fn check_equal(
    shader: &str,
    param: &str,
    expected: &Option<Value>,
    actual: &Option<Value>,
    opts: &MeasureOptions,
) {
    let (Some(e), Some(a)) = (expected, actual) else {
        panic!("{shader}/{param}: missing result");
    };
    if e.bits_eq(a) {
        return;
    }
    if opts.spec.reassociate {
        // Reassociation legally perturbs float results in the last ulps.
        if let (Value::Float(x), Value::Float(y)) = (e, a) {
            let scale = x.abs().max(y.abs()).max(1e-12);
            if (x - y).abs() / scale < 1e-9 {
                return;
            }
        }
    }
    panic!("{shader}/{param}: specialized result {a:?} differs from original {e:?}");
}

/// §5.2's breakeven: the smallest `n` such that `loader + (n-1)·reader ≤
/// n·orig` (the loader produces the first result "for free").
pub fn breakeven(orig: f64, loader: f64, reader: f64) -> Option<u32> {
    if loader <= orig {
        return Some(1);
    }
    if reader >= orig {
        return None;
    }
    let n = (loader - reader) / (orig - reader);
    Some(n.ceil().max(1.0) as u32)
}

/// Measures every partition of every shader: Figure 7/8's full data set
/// (131 rows).
pub fn measure_all(opts: &MeasureOptions) -> Vec<Measurement> {
    let mut out = Vec::new();
    for shader in crate::catalog::all_shaders() {
        for control in &shader.controls {
            out.push(measure_partition(&shader, control.name, opts));
        }
    }
    out
}

/// Renders an `n × n` luminance image with all controls at defaults —
/// used by the examples to produce viewable output.
pub fn render_image(shader: &Shader, n: u32) -> Vec<f64> {
    let ev = Evaluator::new(&shader.program);
    sample_grid(n)
        .map(|pixel| {
            let mut a = pixel.to_args();
            for c in &shader.controls {
                a.push(Value::Float(c.default));
            }
            ev.run("shade", &a)
                .expect("shader run")
                .value
                .and_then(|v| v.as_float())
                .expect("shader returns float")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::all_shaders;

    fn tiny() -> MeasureOptions {
        MeasureOptions {
            grid: 3,
            spec: SpecializeOptions::new(),
        }
    }

    #[test]
    fn ambient_partition_beats_light_position() {
        // §5.1: "a higher speedup is achieved for the ambient light
        // parameter than for the light position parameters".
        let suite = all_shaders();
        let plastic = &suite[0];
        let ambient = measure_partition(plastic, "ambient", &tiny());
        let lightx = measure_partition(plastic, "lightx", &tiny());
        assert!(
            ambient.speedup > lightx.speedup,
            "ambient {:.2}x vs lightx {:.2}x",
            ambient.speedup,
            lightx.speedup
        );
        assert!(ambient.speedup >= 1.0 && lightx.speedup >= 1.0);
    }

    #[test]
    fn noise_shader_has_large_speedup_when_noise_is_fixed() {
        let suite = all_shaders();
        let marble = &suite[2];
        // kd does not feed the fbm inputs: both noise fields cached.
        let kd = measure_partition(marble, "kd", &tiny());
        assert!(
            kd.speedup > 10.0,
            "expected large speedup, got {:.2}",
            kd.speedup
        );
        // veinfreq feeds one of the two noise fields: speedup roughly
        // halves but stays > 1 (the other field is still cached).
        let vf = measure_partition(marble, "veinfreq", &tiny());
        assert!(
            vf.speedup < kd.speedup * 0.7,
            "{} vs {}",
            vf.speedup,
            kd.speedup
        );
        assert!(vf.speedup >= 1.0);
    }

    #[test]
    fn breakeven_is_typically_two() {
        // §5.2: 127 of 131 pairs reach breakeven at two uses.
        let suite = all_shaders();
        let m = measure_partition(&suite[0], "ambient", &tiny());
        assert_eq!(m.breakeven, Some(2));
    }

    #[test]
    fn breakeven_formula() {
        assert_eq!(breakeven(100.0, 90.0, 50.0), Some(1)); // loader cheaper
        assert_eq!(breakeven(100.0, 120.0, 50.0), Some(2));
        assert_eq!(breakeven(100.0, 500.0, 99.0), Some(401));
        assert_eq!(breakeven(100.0, 120.0, 101.0), None); // reader slower
    }

    #[test]
    fn cache_sizes_are_tens_of_bytes() {
        // Figure 8: overall mean 22 bytes, median 20 — ours should land in
        // the same order of magnitude for a typical partition.
        let suite = all_shaders();
        let m = measure_partition(&suite[9], "ambient", &tiny());
        assert!(m.cache_bytes > 0);
        assert!(
            m.cache_bytes <= 120,
            "cache unexpectedly large: {}",
            m.cache_bytes
        );
    }

    #[test]
    fn render_image_is_displayable() {
        let suite = all_shaders();
        let img = render_image(&suite[5], 6);
        assert_eq!(img.len(), 36);
        assert!(img.iter().all(|&l| (0.0..=1.0).contains(&l)));
        // Not a constant image.
        let min = img.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = img.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min);
    }
}
