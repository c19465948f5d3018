//! Metrics parity between the two execution engines.
//!
//! `differential_vm.rs` already insists the engines agree on outcomes; this
//! suite pins down the *metrics object* itself: for every paper example the
//! tree walker and the VM must produce `Profile`s that are equal as values,
//! serialize to byte-identical JSON, and stay equal under `merge` — so a
//! metrics consumer can never tell which engine produced a document.

#[path = "common/paper.rs"]
#[allow(dead_code)]
mod paper;

use ds_core::{specialize_source, InputPartition, SpecializeOptions};
use ds_interp::{CacheBuf, Engine, EvalOptions, Outcome, Profile};
use paper::paper_examples;

fn popts() -> EvalOptions {
    EvalOptions {
        profile: true,
        ..EvalOptions::default()
    }
}

fn profile_of(out: Result<Outcome, ds_interp::EvalError>, ctx: &str) -> Profile {
    out.unwrap_or_else(|e| panic!("{ctx}: {e:?}"))
        .profile
        .map(|p| *p)
        .unwrap_or_else(|| panic!("{ctx}: profiling was requested"))
}

#[test]
fn engines_produce_identical_profiles_on_every_paper_example() {
    for ex in paper_examples() {
        let prog = ds_lang::parse_program(ex.src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        for (i, args) in ex.arg_sets.iter().enumerate() {
            let ctx = format!("{}[args {i}]", ex.name);
            let t = profile_of(
                Engine::Tree.run_program(&prog, ex.entry, args, None, popts()),
                &ctx,
            );
            let v = profile_of(
                Engine::Vm.run_program(&prog, ex.entry, args, None, popts()),
                &ctx,
            );
            assert_eq!(t, v, "{ctx}: profiles diverge");
            assert_eq!(
                t.to_json().pretty(),
                v.to_json().pretty(),
                "{ctx}: JSON exports diverge"
            );
            // The counters are really being collected, not defaulted.
            assert!(t.steps > 0 && t.cost > 0, "{ctx}: empty profile");
            assert!(!t.op_histogram.is_empty(), "{ctx}: no opcode counts");
        }
    }
}

#[test]
fn merged_profiles_agree_across_engines_and_stages() {
    for ex in paper_examples() {
        let spec = specialize_source(
            ex.src,
            ex.entry,
            &InputPartition::varying(ex.varying.iter().copied()),
            &SpecializeOptions::new(),
        )
        .unwrap_or_else(|e| panic!("{}: specialize: {e}", ex.name));
        let staged = spec.as_program();
        let loader = format!("{}__loader", ex.entry);
        let reader = format!("{}__reader", ex.entry);

        // One merged profile per engine covering the whole staged protocol
        // (loader once, reader for every argument vector).
        let mut merged = [Profile::default(), Profile::default()];
        for (which, engine) in [Engine::Tree, Engine::Vm].into_iter().enumerate() {
            let mut cache = CacheBuf::new(spec.slot_count());
            let args = &ex.arg_sets[0];
            let ctx = format!("{} {engine:?} loader", ex.name);
            let out = engine.run_program(&staged, &loader, args, Some(&mut cache), popts());
            if out.is_err() {
                continue; // e.g. guarded loads; covered by the differential suite
            }
            merged[which].merge(&profile_of(out, &ctx));
            for (j, rargs) in ex.arg_sets.iter().enumerate() {
                let ctx = format!("{} {engine:?} reader[args {j}]", ex.name);
                let out = engine.run_program(&staged, &reader, rargs, Some(&mut cache), popts());
                merged[which].merge(&profile_of(out, &ctx));
            }
        }
        let [t, v] = merged;
        assert_eq!(t, v, "{}: merged profiles diverge", ex.name);
        assert_eq!(
            t.to_json().pretty(),
            v.to_json().pretty(),
            "{}: merged JSON exports diverge",
            ex.name
        );
    }
}

#[test]
fn exported_profile_json_round_trips_and_is_consistent() {
    let ex = &paper_examples()[0]; // s2_dotprod
    let prog = ds_lang::parse_program(ex.src).expect("parse");
    ds_lang::typecheck(&prog).expect("typecheck");
    let p = profile_of(
        Engine::Vm.run_program(&prog, ex.entry, &ex.arg_sets[0], None, popts()),
        "dotprod",
    );
    let doc = ds_telemetry::parse(&p.to_json().pretty()).expect("round trip");
    assert_eq!(doc.get("cost").unwrap().as_u64(), Some(p.cost));
    assert_eq!(doc.get("steps").unwrap().as_u64(), Some(p.steps));
    assert_eq!(
        doc.get("total_dynamic_work").unwrap().as_u64(),
        Some(p.total_dynamic_work())
    );
}

/// The polyvariant store counters are engine-invariant: driving the same
/// deterministic request sequence (context switches, store hits, an
/// eviction at capacity 1) through a staged session on each engine yields
/// byte-identical stats documents — a metrics consumer can never tell
/// which engine served the stream.
#[test]
fn store_counters_are_engine_invariant() {
    use ds_runtime::{RunnerOptions, StagedRunner};

    let ex = &paper_examples()[0]; // s2_dotprod
    let part = InputPartition::varying(ex.varying.iter().copied());
    let spec =
        specialize_source(ex.src, ex.entry, &part, &SpecializeOptions::new()).expect("specialize");
    // Two invariant contexts under a one-entry store: A, A (warm), B
    // (miss + eviction), A (miss + eviction), B... deterministic churn.
    let ctx_a = &ex.arg_sets[0];
    let mut ctx_b = ex.arg_sets[0].clone();
    ctx_b[0] = ds_interp::Value::Float(9.0); // x1 is fixed: new fingerprint
    let sequence = [ctx_a, ctx_a, &ctx_b, ctx_a, &ctx_b, &ctx_b];

    let docs: Vec<String> = [Engine::Tree, Engine::Vm]
        .into_iter()
        .map(|engine| {
            let mut r = StagedRunner::new(
                &spec,
                &part,
                RunnerOptions {
                    engine,
                    store_capacity: 1,
                    eval: popts(),
                    ..RunnerOptions::default()
                },
            );
            for args in sequence {
                r.run(args).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            }
            let doc = r.stats().to_json();
            // The counters themselves must reflect the churn.
            assert!(doc.get("store_misses").unwrap().as_u64().unwrap() >= 3);
            assert!(doc.get("store_evictions").unwrap().as_u64().unwrap() >= 2);
            doc.pretty()
        })
        .collect();
    assert_eq!(docs[0], docs[1], "stats documents diverge between engines");
}
