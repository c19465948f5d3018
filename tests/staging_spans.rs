//! `specialize` names where its time goes: the phase spans of its
//! `SpecReport` cover the whole call, not just the analysis passes.
//!
//! Summed over every catalog partition at `catalog`'s cache bound, the
//! named spans must add up to at least 95% of the wall time measured
//! around the call. Unnamed time is work a profile of staging cannot
//! attribute.

use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_shaders::all_shaders;
use std::time::Instant;

#[test]
fn named_spans_cover_specialize_on_the_catalog() {
    let shaders = all_shaders();
    let opts = SpecializeOptions::new().with_cache_bound(24);
    let mut wall = 0u64;
    let mut named = 0u64;
    let mut partitions = 0;
    let mut names: Vec<&str> = Vec::new();
    for shader in &shaders {
        for control in &shader.controls {
            let partition = InputPartition::varying([control.name]);
            let t0 = Instant::now();
            let spec = specialize(&shader.program, "shade", &partition, &opts)
                .expect("catalog partitions specialize");
            wall += t0.elapsed().as_nanos() as u64;
            named += spec.report.phases.iter().map(|p| p.wall_nanos).sum::<u64>();
            partitions += 1;
            for p in &spec.report.phases {
                if !names.contains(&p.name) {
                    names.push(p.name);
                }
            }
        }
    }
    assert_eq!(partitions, 131);
    for phase in ["typecheck", "retype", "hoist", "split", "teardown"] {
        assert!(names.contains(&phase), "no `{phase}` span in {names:?}");
    }
    let share = named as f64 / wall as f64;
    assert!(
        share >= 0.95,
        "named spans cover {:.1}% of specialize ({named} of {wall} ns); \
         at least 95% must be named",
        share * 100.0
    );
}
