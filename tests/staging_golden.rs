//! Golden-file test for what staging emits over the whole shader catalog.
//!
//! Every one of the 131 (shader, control) partitions is specialized twice:
//! at `catalog`'s cache bound of 24 bytes and unbounded (as `drag` stages
//! it). Each line of `tests/golden/catalog_staging.txt` records, for both,
//! the slot count, the static/cached/dynamic label counts, the loader and
//! reader node counts, the number of §4.3 evictions and one `Hash64` over
//! the printed loader, the printed reader and the cache layout. A change to
//! the specializer's internals that leaves its output alone leaves this
//! file alone.
//!
//! To regenerate after an intentional change to what staging emits:
//!
//! ```text
//! STAGING_GOLDEN_REGEN=1 cargo test --test staging_golden
//! ```

use ds_core::{specialize, InputPartition, Specialization, SpecializeOptions};
use ds_lang::print_proc;
use ds_shaders::all_shaders;
use ds_telemetry::Hash64;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/catalog_staging.txt"
);

/// `catalog`'s cache byte bound.
const CATALOG_BOUND: u32 = 24;

fn summary(spec: &Specialization) -> String {
    let (s, c, d) = spec.stats.label_counts;
    let hash = Hash64::new()
        .str(&print_proc(&spec.loader))
        .str(&print_proc(&spec.reader))
        .str(&spec.layout.to_string())
        .u64(spec.layout.fingerprint())
        .finish();
    format!(
        "slots={} labels={s}/{c}/{d} loader={} reader={} evictions={} hash={hash:016x}",
        spec.slot_count(),
        spec.stats.loader_nodes,
        spec.stats.reader_nodes,
        spec.stats.evictions.len(),
    )
}

fn render() -> String {
    let mut out = String::new();
    for shader in all_shaders() {
        for control in &shader.controls {
            let partition = InputPartition::varying([control.name]);
            let stage = |opts: &SpecializeOptions| {
                let spec = specialize(&shader.program, "shade", &partition, opts)
                    .unwrap_or_else(|e| panic!("{}.{}: {e}", shader.name, control.name));
                summary(&spec)
            };
            let bounded = stage(&SpecializeOptions::new().with_cache_bound(CATALOG_BOUND));
            let unbounded = stage(&SpecializeOptions::new());
            let _ = writeln!(
                out,
                "{}.{} | b{CATALOG_BOUND} {bounded} | unbounded {unbounded}",
                shader.name, control.name
            );
        }
    }
    out
}

#[test]
fn catalog_staging_matches_the_golden_file() {
    let text = render();
    assert_eq!(text.lines().count(), 131, "the catalog has 131 partitions");
    if std::env::var_os("STAGING_GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file exists (regenerate with STAGING_GOLDEN_REGEN=1 \
         cargo test --test staging_golden)",
    );
    for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of tests/golden/catalog_staging.txt drifted; if the change \
             to staging output is intentional, regenerate with STAGING_GOLDEN_REGEN=1",
            i + 1
        );
    }
    assert_eq!(text, golden, "golden file has a different line count");
}
