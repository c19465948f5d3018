//! Golden determinism locks: the whole measurement stack is deterministic
//! (fixed noise tables, fixed scene, abstract cost metering), so headline
//! numbers are locked *exactly*. A diff here means the reproduction's
//! results changed — deliberate changes must update EXPERIMENTS.md too.

use ds_bench::json::{parse, Json};
use ds_bench::{exp_dotprod, exp_rebuild_overhead, DOTPROD_SRC};
use ds_core::{specialize_source, InputPartition, SpecializeOptions};
use ds_shaders::{all_shaders, measure_partition, MeasureOptions};

#[test]
fn dotprod_headline_numbers_locked() {
    let r = exp_dotprod();
    assert_eq!(r.slots, 1);
    assert_eq!(r.breakeven, Some(2));
    assert_eq!(r.speedup_nonzero, 1.1875);
    assert_eq!(r.speedup_zero, 1.0);
    assert!((r.startup_overhead_nonzero - 0.10526315789473695).abs() < 1e-12);
}

#[test]
fn dotprod_generated_code_locked() {
    let spec = specialize_source(
        DOTPROD_SRC,
        "dotprod",
        &InputPartition::varying(["z1", "z2"]),
        &SpecializeOptions::new(),
    )
    .expect("specialize");
    let reader = ds_lang::print_proc(&spec.reader);
    let expected = "\
float dotprod__reader(float x1, float y1, float z1, float x2, float y2, float z2, float scale) {
    if (scale != 0.0) {
        return (CACHE[slot0] + z1 * z2) / scale;
    } else {
        return -1.0;
    }
}
";
    assert_eq!(reader, expected);
}

#[test]
fn marble_kd_partition_locked() {
    let suite = all_shaders();
    let m = measure_partition(
        &suite[2],
        "kd",
        &MeasureOptions {
            grid: 3,
            spec: SpecializeOptions::new(),
            ..Default::default()
        },
    );
    // Exact values from the deterministic pipeline (grid 3).
    assert_eq!(m.cache_bytes, 20);
    assert_eq!(m.slots, 5);
    assert_eq!(m.breakeven, Some(2));
    // Costs are integers under the hood; lock them via their means.
    assert_eq!(m.orig_cost, 2593.0);
    assert_eq!(m.reader_cost, 69.0);
}

#[test]
fn figure9_ks_cliff_locked() {
    // The paper observed a 95% cliff for `ringscale` between 16 and 12
    // bytes; our sharpest analog is `ks`, whose critical turbulence slot
    // fits again at 16 bytes. Lock the cliff's existence: most of the
    // speedup appears across that one 4-byte step.
    let suite = all_shaders();
    let rings = &suite[9];
    let speedup_at = |bound: u32| {
        measure_partition(
            rings,
            "ks",
            &MeasureOptions {
                grid: 3,
                spec: SpecializeOptions::new().with_cache_bound(bound),
                ..Default::default()
            },
        )
        .speedup
    };
    let s12 = speedup_at(12);
    let s16 = speedup_at(16);
    let s40 = speedup_at(40);
    assert!(
        (s16 - s12) > 0.5 * (s40 - s12),
        "expected a cliff between 12B ({s12:.2}x) and 16B ({s16:.2}x), max {s40:.2}x"
    );
}

#[test]
fn rebuild_rows_match_the_committed_envelope() {
    // BENCH_rebuild.json is the only home of these rows, and every one
    // of them is deterministic: regenerating it must reproduce the file.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rebuild.json");
    let text = std::fs::read_to_string(path).expect("BENCH_rebuild.json is committed");
    let doc = parse(&text).expect("BENCH_rebuild.json parses");
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("bench-rebuild")
    );
    assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(64));
    let rows = doc.get("points").and_then(Json::as_arr).expect("points");
    let points = exp_rebuild_overhead(64);
    assert_eq!(rows.len(), points.len());
    for (row, p) in rows.iter().zip(&points) {
        let field = |name: &str| row.get(name).and_then(Json::as_f64);
        let per_req = |cost: u64| cost as f64 / p.requests as f64;
        assert_eq!(field("churn_interval"), Some(p.churn_interval as f64));
        assert_eq!(field("loads"), Some(p.loads as f64));
        assert_eq!(field("staged_cost_per_req"), Some(per_req(p.staged_cost)));
        assert_eq!(field("direct_cost_per_req"), Some(per_req(p.unspec_cost)));
        assert_eq!(field("amortized_speedup"), Some(p.amortized_speedup));
    }
}
