//! Cache budgeting (paper §4.3 / Figures 9-10): specialize shader 10 under
//! shrinking cache-size limits and watch the limiter trade slots for reader
//! computation — including which terms it evicts, cheapest first.
//!
//! Run with: `cargo run --release --example cache_budget [param]`
//! (default varying parameter: `ringscale`)

use data_specialization::shaders::{all_shaders, measure_partition, MeasureOptions};
use data_specialization::{specialize, InputPartition, SpecializeOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let param = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ringscale".to_string());
    let suite = all_shaders();
    let rings = suite.iter().find(|s| s.index == 10).expect("shader 10");
    if rings.control(&param).is_none() {
        eprintln!(
            "unknown parameter `{param}`; available: {}",
            rings.control_names().collect::<Vec<_>>().join(", ")
        );
        std::process::exit(1);
    }

    // First: the unlimited specialization and its slots.
    let unlimited = specialize(
        &rings.program,
        "shade",
        &InputPartition::varying([param.as_str()]),
        &SpecializeOptions::new(),
    )?;
    println!(
        "shader 10 (rings), varying `{param}` — unlimited cache:\n{}",
        unlimited.layout
    );

    // Sweep the budget downward, reporting speedup and evictions.
    println!(
        "{:<8} {:>10} {:>9} {:>10}",
        "budget", "bytes used", "slots", "speedup"
    );
    for &bound in &[40u32, 32, 24, 16, 12, 8, 4, 0] {
        let opts = MeasureOptions {
            grid: 6,
            spec: SpecializeOptions::new().with_cache_bound(bound),
        };
        let m = measure_partition(rings, &param, &opts);
        println!(
            "{:<8} {:>8} B {:>9} {:>9.2}x",
            format!("{bound} B"),
            m.cache_bytes,
            m.slots,
            m.speedup
        );
    }

    // Show the eviction order at a mid budget.
    let bounded = specialize(
        &rings.program,
        "shade",
        &InputPartition::varying([param.as_str()]),
        &SpecializeOptions::new().with_cache_bound(12),
    )?;
    println!("\nevictions at a 12-byte budget (cheapest first):");
    for ev in &bounded.stats.evictions {
        println!(
            "  evicted term {:?} (estimated recompute cost {}, cache was {} B)",
            ev.term, ev.cost, ev.bytes_before
        );
    }
    println!("\nsurviving slots:\n{}", bounded.layout);
    Ok(())
}
