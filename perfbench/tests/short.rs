//! A short mode of every workload: tiny sizes and budgets, with every
//! answer still checked against the reference.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::spans::Tracer;
use perfbench::{catalog, churn, drag};

fn assert_clean(r: &perfbench::report::RunResult) {
    assert!(r.attempted > 0);
    assert!(r.checked > 0, "nothing was checked");
    assert_eq!(r.mismatches, 0);
    assert_eq!(r.failed, 0);
}

fn assert_end_to_end(r: &perfbench::report::RunResult) {
    for (name, _) in END_TO_END {
        let v = r.end_to_end.get(name).unwrap_or(0.0);
        assert!(v > 0.0, "{name} = {v}");
    }
}

#[test]
fn drag_short_mode_checks_answers() {
    let r = drag::run(&drag::Config::SHORT, 1, 0.05, &mut Tracer::new(false));
    assert_clean(&r);
    assert_end_to_end(&r);
}

#[test]
fn churn_short_mode_checks_answers() {
    let r = churn::run(&churn::Config::SHORT, 1, 0.2, &mut Tracer::new(false));
    assert_clean(&r);
    assert_end_to_end(&r);
}

#[test]
fn catalog_short_mode_checks_answers() {
    let r = catalog::run(&catalog::Config::SHORT, 1, 0.05, &mut Tracer::new(false));
    assert_clean(&r);
    assert_end_to_end(&r);
    // Every lane is checked, plus each partition's loader answer.
    assert_eq!(r.checked, r.attempted);
}

#[test]
fn traced_short_runs_report_the_layers_each_workload_exercises() {
    let mut t = Tracer::new(true);
    let churn = churn::run(&churn::Config::SHORT, 2, 0.2, &mut t);
    assert_clean(&churn);
    assert!(!t.spans().is_empty());
    for name in [
        "runtime.wal_appends",
        "runtime.loads",
        "core.specialize_ms_p50",
        "runtime.recover_ms",
    ] {
        assert!(churn.layers.get(name).unwrap_or(0.0) > 0.0, "churn {name}");
    }
    let mut t = Tracer::new(true);
    let cat = catalog::run(&catalog::Config::SHORT, 2, 0.05, &mut t);
    assert_clean(&cat);
    for name in [
        "interp.batch_ns_per_lane",
        "interp.fuse_ms",
        "core.limit_ms",
        "lang.parse_ms",
    ] {
        assert!(cat.layers.get(name).unwrap_or(0.0) > 0.0, "catalog {name}");
    }
    // The runtime does no work in `catalog`.
    assert_eq!(cat.layers.get("runtime.loads").unwrap_or(0.0), 0.0);
    let mut t = Tracer::new(true);
    let d = drag::run(&drag::Config::SHORT, 2, 0.05, &mut t);
    assert_clean(&d);
    for name in [
        "runtime.store_probe_ns_p50",
        "interp.read_ns_p50",
        "runtime.unattributed_us_p50",
    ] {
        assert!(d.layers.get(name).unwrap_or(0.0) > 0.0, "drag {name}");
    }
    for r in [&churn, &cat, &d] {
        let line = r.json_line(true);
        for (name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\"")), "{name}");
        }
    }
}
