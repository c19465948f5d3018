//! Concurrency suite: parallel sessions over one shared artifact + store.
//!
//! The guarantee under test (ISSUE 4's acceptance criteria): N worker
//! threads serving a mixed-invariant request stream through their own
//! [`Session`]s — all sharing one `Arc<StagedArtifact>` and one polyvariant
//! [`CacheStore`] — produce exactly the answers the single-threaded
//! reference produces, the merged statistics equal the field-wise sum of
//! the per-worker statistics, and fault injection in one worker can damage
//! *that worker's* requests into typed errors but never tears the shared
//! cache into a silently wrong value anywhere.

#[path = "common/paper.rs"]
#[allow(dead_code)]
mod paper;

use ds_core::{specialize_source, InputPartition, SpecializeOptions};
use ds_interp::{Engine, EvalOptions, Value};
use ds_runtime::{CacheStore, Fault, Policy, RunnerOptions, RunnerStats, Session, StagedArtifact};
use ds_telemetry::Json;
use std::sync::Arc;

const ENGINES: [Engine; 2] = [Engine::Tree, Engine::Vm];

/// Shared fixture: the dotprod artifact plus a request stream interleaving
/// `contexts` invariant contexts (fixed inputs differ per context, varying
/// inputs differ every request).
fn artifact() -> Arc<StagedArtifact> {
    let part = InputPartition::varying(["z1", "z2"]);
    let spec = specialize_source(
        paper::DOTPROD_SRC,
        "dotprod",
        &part,
        &SpecializeOptions::new(),
    )
    .expect("specialize dotprod");
    Arc::new(StagedArtifact::new(&spec, &part))
}

fn mixed_stream(requests: usize, contexts: usize) -> Vec<Vec<Value>> {
    (0..requests)
        .map(|i| {
            let ctx = (i % contexts) as f64;
            vec![
                Value::Float(1.0 + ctx),
                Value::Float(2.0 + ctx),
                Value::Float(i as f64),
                Value::Float(4.0),
                Value::Float(5.0),
                Value::Float(0.5 * i as f64 + 1.0),
                Value::Float(2.0),
            ]
        })
        .collect()
}

fn opts_for(engine: Engine) -> RunnerOptions {
    RunnerOptions {
        engine,
        policy: Policy::RebuildThenFallback,
        eval: EvalOptions {
            profile: true,
            ..EvalOptions::default()
        },
        ..RunnerOptions::default()
    }
}

/// Serves `stream` across `workers` sessions over one shared store,
/// returning per-request answers (in request order) and per-worker stats.
fn serve_parallel(
    art: &Arc<StagedArtifact>,
    store: &Arc<CacheStore>,
    stream: &[Vec<Value>],
    workers: usize,
    opts: RunnerOptions,
    inject: Option<(usize, Fault, u64)>,
) -> (Vec<Option<Value>>, Vec<RunnerStats>) {
    let chunk = stream.len().div_ceil(workers).max(1);
    let per_worker: Vec<(Vec<Option<Value>>, RunnerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .chunks(chunk)
            .enumerate()
            .map(|(w, batch)| {
                let mut session = Session::new(Arc::clone(art), Arc::clone(store), opts);
                if let Some((target, fault, seed)) = inject {
                    if w == target {
                        session.inject(fault, seed).expect("memory fault");
                    }
                }
                scope.spawn(move || {
                    let answers: Vec<Option<Value>> = batch
                        .iter()
                        .map(|args| {
                            let want = session.reference(args).expect("reference oracle").value;
                            match session.run(args) {
                                Ok(out) => {
                                    match (&out.value, &want) {
                                        (Some(got), Some(w)) => assert!(
                                            got.bits_eq(w),
                                            "SILENT WRONG VALUE: got {got}, reference {w}"
                                        ),
                                        (got, w) => {
                                            assert_eq!(got, w, "value presence diverged")
                                        }
                                    }
                                    out.value
                                }
                                // Typed by construction; the caller decides
                                // whether errors were allowed at all.
                                Err(_) => None,
                            }
                        })
                        .collect();
                    (answers, session.stats().clone())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut answers = Vec::with_capacity(stream.len());
    let mut stats = Vec::new();
    for (a, s) in per_worker {
        answers.extend(a);
        stats.push(s);
    }
    (answers, stats)
}

/// Asserts `merged` is the field-wise sum of `parts` for every numeric
/// field, recursing through nested objects (the profile).
fn assert_fieldwise_sum(merged: &Json, parts: &[&Json], path: &str) {
    match merged {
        Json::Num(m) => {
            let sum: f64 = parts.iter().filter_map(|p| p.as_f64()).sum();
            assert_eq!(*m, sum, "{path}: merged {m} != sum {sum}");
        }
        Json::Obj(fields) => {
            for (key, val) in fields {
                let sub: Vec<&Json> = parts
                    .iter()
                    .map(|p| p.get(key).unwrap_or_else(|| panic!("{path}.{key} missing")))
                    .collect();
                assert_fieldwise_sum(val, &sub, &format!("{path}.{key}"));
            }
        }
        _ => {}
    }
}

#[test]
fn parallel_mixed_streams_match_the_single_threaded_reference() {
    let art = artifact();
    let stream = mixed_stream(240, 5);
    for engine in ENGINES {
        let opts = opts_for(engine);
        // Single-threaded reference serving (one session, same store type).
        let solo_store = Arc::new(CacheStore::new(8));
        let mut solo = Session::new(Arc::clone(&art), Arc::clone(&solo_store), opts);
        let expected: Vec<Option<Value>> = stream
            .iter()
            .map(|args| solo.run(args).expect("solo request").value)
            .collect();

        let store = Arc::new(CacheStore::new(8));
        let (answers, stats) = serve_parallel(&art, &store, &stream, 4, opts, None);
        for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
            match (got, want) {
                (Some(g), Some(w)) => {
                    assert!(g.bits_eq(w), "{engine:?} request {i}: {g} != {w}")
                }
                _ => assert_eq!(got, want, "{engine:?} request {i} presence"),
            }
        }
        let mut merged = RunnerStats::default();
        for s in &stats {
            merged.merge(s);
        }
        assert_eq!(merged.requests, 240, "{engine:?}");
        // Polyvariance: each worker loads a context at most once; revisits
        // are store hits or local warm serves.
        assert!(
            merged.loads >= 5 && merged.loads <= 20,
            "{engine:?}: {} loads",
            merged.loads
        );
        assert_eq!(
            merged.store_evictions(),
            0,
            "{engine:?}: capacity covers all contexts"
        );
        // Merged stats are exactly the field-wise sum of per-worker stats.
        let parts: Vec<Json> = stats.iter().map(RunnerStats::to_json).collect();
        let part_refs: Vec<&Json> = parts.iter().collect();
        assert_fieldwise_sum(&merged.to_json(), &part_refs, "stats");
    }
}

#[test]
fn eviction_pressure_at_capacity_one_stays_correct_and_counts() {
    let art = artifact();
    let stream = mixed_stream(160, 4);
    for engine in ENGINES {
        let store = Arc::new(CacheStore::new(1));
        let (answers, stats) = serve_parallel(&art, &store, &stream, 4, opts_for(engine), None);
        assert!(
            answers.iter().all(Option::is_some),
            "{engine:?}: every request answered"
        );
        let mut merged = RunnerStats::default();
        for s in &stats {
            merged.merge(s);
        }
        // Four contexts thrash a one-entry store: the old single-entry
        // rebuild behavior, with the churn counted as evictions.
        assert!(
            merged.store_evictions() > 0,
            "{engine:?}: thrash must be counted"
        );
        assert!(store.len() <= 1, "{engine:?}: capacity bound held");
    }
}

#[test]
fn faults_in_one_worker_never_tear_the_shared_store() {
    let art = artifact();
    let stream = mixed_stream(80, 2);
    for engine in ENGINES {
        for fault in Fault::MEMORY_FAULTS {
            for policy in [Policy::FailFast, Policy::RebuildThenFallback] {
                let opts = RunnerOptions {
                    policy,
                    ..opts_for(engine)
                };
                let store = Arc::new(CacheStore::new(4));
                // Worker 0 carries the fault; workers 1-3 are bystanders
                // that may pull a damaged published entry from the store —
                // validation must catch it (typed error or transparent
                // rebuild), never serve it. serve_parallel asserts every
                // success against the reference oracle.
                let (answers, stats) =
                    serve_parallel(&art, &store, &stream, 4, opts, Some((0, fault, 7)));
                let served = answers.iter().filter(|a| a.is_some()).count();
                match policy {
                    Policy::RebuildThenFallback => assert_eq!(
                        served,
                        stream.len(),
                        "{engine:?} {fault} {policy:?}: rebuild policy must heal every request"
                    ),
                    _ => assert!(
                        served >= stream.len() - 4,
                        "{engine:?} {fault} {policy:?}: at most the faulted request per worker may fail, {served}/{} served",
                        stream.len()
                    ),
                }
                // Afterwards the store only holds entries that validate: a
                // fresh session served from it must agree with the
                // reference on every context.
                let mut probe = Session::new(Arc::clone(&art), Arc::clone(&store), opts);
                for args in stream.iter().take(2) {
                    let want = probe.reference(args).expect("oracle").value;
                    let got = probe.run(args).expect("post-fault probe").value;
                    match (&got, &want) {
                        (Some(g), Some(w)) => assert!(g.bits_eq(w)),
                        _ => assert_eq!(got, want),
                    }
                }
                let _ = stats;
            }
        }
    }
}

/// The acceptance contract of the serve envelope's `latency` section:
/// the published merged `Timing` is the *exact* bucket-wise merge of the
/// per-worker histograms — independent of fold order, and reconstructible
/// from the serialized `worker_latency` parts alone.
#[test]
fn merged_latency_is_the_exact_merge_of_worker_histograms() {
    let art = artifact();
    let stream = mixed_stream(96, 4);
    let opts = opts_for(Engine::Tree);
    let store = Arc::new(CacheStore::new(8));
    let workers = 3;
    let chunk = stream.len().div_ceil(workers);
    let timings: Vec<ds_telemetry::Timing> = std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .chunks(chunk)
            .map(|batch| {
                let mut session = Session::new(Arc::clone(&art), Arc::clone(&store), opts);
                scope.spawn(move || {
                    for args in batch {
                        session.run(args).expect("request");
                    }
                    session.timing().clone()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Merge exactly as `dsc serve` does (worker order)...
    let mut merged = ds_telemetry::Timing::default();
    for t in &timings {
        merged.merge(t);
    }
    // ...and in reverse order: bucket-wise addition must not care.
    let mut reversed = ds_telemetry::Timing::default();
    for t in timings.iter().rev() {
        reversed.merge(t);
    }
    assert_eq!(merged, reversed, "merge must be order-independent");

    // Every request lands in exactly one worker's end-to-end histogram,
    // and the merged counts are the per-worker sums, stage by stage.
    assert_eq!(merged.total.count(), stream.len() as u64);
    assert_eq!(
        merged.total.count(),
        timings.iter().map(|t| t.total.count()).sum::<u64>()
    );
    for (stage, hist) in &merged.stages {
        let sum: u64 = timings
            .iter()
            .filter_map(|t| t.stage(stage))
            .map(|h| h.count())
            .sum();
        assert_eq!(
            hist.count(),
            sum,
            "stage `{stage}` count is not the worker sum"
        );
    }
    assert_eq!(
        merged.total.max(),
        timings.iter().map(|t| t.total.max()).max().unwrap_or(0)
    );

    // The envelope's `latency` section must be reconstructible from its
    // serialized `worker_latency` parts alone — the exact merge, through
    // the JSON round-trip `dsc report` consumes.
    let mut refolded = ds_telemetry::Timing::default();
    for t in &timings {
        let part = ds_telemetry::Timing::from_json(&t.to_json()).expect("worker round trip");
        refolded.merge(&part);
    }
    assert_eq!(
        refolded, merged,
        "latency section is not the exact merge of the serialized worker histograms"
    );
}
