//! Chaos suite: fault injection against the staged-execution runtime.
//!
//! The guarantee under test (ISSUE 3's acceptance criterion): for **every
//! fault class × both engines × every policy**, a [`Session`] returns
//! either the *reference answer* (the uncached tree-walked fragment — the
//! differential oracle) or a **typed `RuntimeError`** — never a silently
//! wrong value. And a corrupted or truncated cache *file* is always
//! rejected at load with a typed checksum/layout error.
//!
//! Faults are one-shot and seeded, so every scenario here is exactly
//! reproducible; a second guarantee piggybacks on that: after the fault
//! has fired and been handled, the runner *heals* — later requests succeed
//! and match the reference again.

#[path = "common/paper.rs"]
#[allow(dead_code)]
mod paper;

#[path = "common/session.rs"]
mod session;

use std::sync::Arc;

use ds_core::{specialize_source, InputPartition, SpecializeOptions};
use ds_interp::CacheBuf;
use ds_interp::{Engine, EvalOptions, Value};
use ds_runtime::{
    decode_snapshot, encode_snapshot, recover, recover_or_degrade, Fault, FaultInjector,
    IntegrityError, Policy, RunnerOptions, RuntimeError, Session, Wal, WalError,
};
use paper::paper_examples;
use session::{solo_session, STORE_CAPACITY};

const ENGINES: [Engine; 2] = [Engine::Tree, Engine::Vm];
const POLICIES: [Policy; 3] = [
    Policy::FailFast,
    Policy::RebuildThenFallback,
    Policy::FallbackToUnspecialized,
];

fn specialized(
    src: &str,
    entry: &str,
    varying: &[&str],
) -> (ds_core::Specialization, InputPartition) {
    let part = InputPartition::varying(varying.iter().copied());
    let spec = specialize_source(src, entry, &part, &SpecializeOptions::new())
        .unwrap_or_else(|e| panic!("specialize {entry}: {e}"));
    (spec, part)
}

fn runner_for(src: &str, entry: &str, varying: &[&str], opts: RunnerOptions) -> Session {
    let (spec, part) = specialized(src, entry, varying);
    solo_session(&spec, &part, opts, STORE_CAPACITY)
}

/// Runs one request and asserts the chaos invariant: a successful outcome
/// must be bit-identical to the reference oracle; a failure must be the
/// typed `RuntimeError` (which the type system already guarantees — we
/// record it for the scenario-level assertions). Returns whether the
/// request succeeded.
fn checked_request(r: &mut Session, args: &[Value], ctx: &str) -> bool {
    let want = r
        .reference(args)
        .unwrap_or_else(|e| panic!("{ctx}: reference oracle failed: {e}"))
        .value;
    match r.run(args) {
        Ok(out) => {
            match (&out.value, &want) {
                (Some(got), Some(want)) => {
                    assert!(
                        got.bits_eq(want),
                        "{ctx}: SILENT WRONG VALUE: got {got}, reference {want}"
                    );
                }
                (got, want) => assert_eq!(got, want, "{ctx}: value presence diverged"),
            }
            true
        }
        Err(_) => false, // typed by construction; callers assert *when* errors may occur
    }
}

/// The full fault × engine × policy × example matrix. Each scenario warms
/// the runner, injects the fault, then drives every argument set twice;
/// every successful response is differentially checked against the
/// uncached reference, and the final request must have healed.
#[test]
fn no_injected_fault_yields_a_silently_wrong_value() {
    for ex in paper_examples() {
        for engine in ENGINES {
            for policy in POLICIES {
                for fault in Fault::MEMORY_FAULTS {
                    for seed in [1u64, 7, 42] {
                        let ctx = format!("{} {engine:?} {policy:?} {fault} seed={seed}", ex.name);
                        let mut r = runner_for(
                            ex.src,
                            ex.entry,
                            ex.varying,
                            RunnerOptions {
                                engine,
                                policy,
                                ..RunnerOptions::default()
                            },
                        );
                        // Warm up on the first argument set.
                        checked_request(&mut r, &ex.arg_sets[0], &format!("{ctx} warmup"));
                        r.inject(fault, seed).expect("memory fault");
                        let mut failures = 0u64;
                        for round in 0..2 {
                            for (i, args) in ex.arg_sets.iter().enumerate() {
                                let ok = checked_request(
                                    &mut r,
                                    args,
                                    &format!("{ctx} round {round} args {i}"),
                                );
                                if !ok {
                                    failures += 1;
                                }
                            }
                        }
                        // Recovery policies absorb every one-shot fault.
                        if policy != Policy::FailFast {
                            assert_eq!(failures, 0, "{ctx}: recovery policy surfaced an error");
                        }
                        // One-shot faults always heal: the last request of
                        // the final round must succeed and match reference.
                        let last = ex.arg_sets.last().unwrap();
                        assert!(
                            checked_request(&mut r, last, &format!("{ctx} healed")),
                            "{ctx}: runner did not heal after the fault"
                        );
                    }
                }
            }
        }
    }
}

/// Pinpoint scenario on dotprod, where the loader deterministically fills
/// every slot: an armed corrupt-store fault MUST fire, MUST be detected by
/// validation before the reader can consume the bad slot, and the policies
/// must take their three distinct paths.
#[test]
fn corrupt_store_is_detected_and_policies_diverge_correctly() {
    let args = &paper_examples()[0].arg_sets[0];
    for engine in ENGINES {
        for fault in [Fault::CorruptSlot, Fault::DropStore] {
            // Fail-fast: the request after the damaged load surfaces a
            // typed integrity error.
            let mut r = runner_for(
                paper::DOTPROD_SRC,
                "dotprod",
                &["z1", "z2"],
                RunnerOptions {
                    engine,
                    policy: Policy::FailFast,
                    ..RunnerOptions::default()
                },
            );
            r.inject(fault, 0).unwrap();
            let first = r.run(args).expect("loader outcome is still correct");
            assert_eq!(first.value, r.reference(args).unwrap().value);
            let err = r.run(args).unwrap_err();
            assert!(
                matches!(
                    err,
                    RuntimeError::Integrity(IntegrityError::TamperedSlot { .. })
                ),
                "{engine:?} {fault}: expected TamperedSlot, got {err}"
            );
            assert_eq!(r.stats().validation_failures(), 1);
            // And it heals: the next request rebuilds cleanly.
            let healed = r.run(args).expect("clean rebuild");
            assert_eq!(healed.value, r.reference(args).unwrap().value);
            assert_eq!(r.stats().rebuilds(), 1);

            // Rebuild policy: the bad cache is rebuilt within the request.
            let mut r = runner_for(
                paper::DOTPROD_SRC,
                "dotprod",
                &["z1", "z2"],
                RunnerOptions {
                    engine,
                    policy: Policy::RebuildThenFallback,
                    ..RunnerOptions::default()
                },
            );
            r.inject(fault, 0).unwrap();
            r.run(args).unwrap();
            let out = r.run(args).expect("transparent rebuild");
            assert_eq!(out.value, r.reference(args).unwrap().value);
            assert_eq!(r.stats().validation_failures(), 1);
            assert_eq!(r.stats().rebuilds(), 1);
            assert_eq!(r.stats().fallbacks(), 0);

            // Fallback policy: the request is served unspecialized.
            let mut r = runner_for(
                paper::DOTPROD_SRC,
                "dotprod",
                &["z1", "z2"],
                RunnerOptions {
                    engine,
                    policy: Policy::FallbackToUnspecialized,
                    ..RunnerOptions::default()
                },
            );
            r.inject(fault, 0).unwrap();
            r.run(args).unwrap();
            let out = r.run(args).expect("unspecialized fallback");
            assert_eq!(out.value, r.reference(args).unwrap().value);
            assert_eq!(r.stats().fallbacks(), 1);
            assert_eq!(r.stats().rebuilds(), 0, "fallback must not rebuild inline");
        }
    }
}

/// A truncated buffer breaks the structural check; an exhausted step limit
/// surfaces as the engine's own typed error under fail-fast.
#[test]
fn truncation_and_fuel_faults_take_their_taxonomy_paths() {
    let args = &paper_examples()[0].arg_sets[0];
    for engine in ENGINES {
        let mut r = runner_for(
            paper::DOTPROD_SRC,
            "dotprod",
            &["z1", "z2"],
            RunnerOptions {
                engine,
                policy: Policy::FailFast,
                ..RunnerOptions::default()
            },
        );
        r.run(args).unwrap();
        r.inject(Fault::TruncateBuffer, 3).unwrap();
        let err = r.run(args).unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Integrity(
                    IntegrityError::LayoutMismatch { .. } | IntegrityError::SealBroken { .. }
                )
            ),
            "{engine:?}: truncation must be a layout/seal violation, got {err}"
        );

        let mut r = runner_for(
            paper::DOTPROD_SRC,
            "dotprod",
            &["z1", "z2"],
            RunnerOptions {
                engine,
                policy: Policy::FailFast,
                ..RunnerOptions::default()
            },
        );
        r.run(args).unwrap();
        r.inject(Fault::ExhaustFuel(3), 0).unwrap();
        let err = r.run(args).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Eval(ds_interp::EvalError::StepLimit),
            "{engine:?}"
        );
        // One-shot: the step limit is restored afterwards.
        let healed = r.run(args).expect("fuel restored");
        assert_eq!(healed.value, r.reference(args).unwrap().value);
    }
}

/// What a decoded cache file means: each entry's fingerprint and content.
fn semantics(entries: &[(u64, CacheBuf)]) -> Vec<(u64, u64)> {
    entries
        .iter()
        .map(|(fp, cache)| (*fp, cache.content_hash()))
        .collect()
}

/// The cache file a `--cache-file` serve writes at exit: a checkpoint of
/// the session's store that covers no log.
fn cache_file_text(r: &Session) -> String {
    encode_snapshot(r.store(), r.artifact().layout_fingerprint(), 0)
}

/// Decodes a cache file the way `--cache-file` adoption does.
fn load(
    text: &str,
    spec: &ds_core::Specialization,
) -> Result<Vec<(u64, CacheBuf)>, IntegrityError> {
    decode_snapshot(text, &spec.layout).map(|(entries, _)| entries)
}

/// Every single-byte corruption and every truncation of a cache file is
/// either rejected with a typed integrity error or — in the rare benign
/// case — decodes to a cache *semantically identical* to the original.
/// There is no third outcome.
#[test]
fn damaged_cache_files_are_always_rejected_or_harmless() {
    let (spec, part) = specialized(paper::DOTPROD_SRC, "dotprod", &["z1", "z2"]);
    let mut r = solo_session(&spec, &part, RunnerOptions::default(), STORE_CAPACITY);
    let args = &paper_examples()[0].arg_sets[0];
    r.run(args).unwrap();
    let text = cache_file_text(&r);
    let pristine = semantics(&load(&text, &spec).expect("pristine loads"));
    assert_eq!(pristine.len(), 1);

    // Exhaustive single-byte flips.
    let bytes = text.as_bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[i] ^= 1; // stays ASCII: still a valid String
        let mutated = String::from_utf8(mutated).unwrap();
        match load(&mutated, &spec) {
            Err(_) => {} // typed rejection: the required outcome
            Ok(loaded) => assert_eq!(
                semantics(&loaded),
                pristine,
                "byte {i}: accepted a semantically different cache"
            ),
        }
    }

    // Every truncation point: a cut either tears a line or drops whole
    // records the header counts, so none may load differently.
    for cut in 0..text.len() {
        match load(&text[..cut], &spec) {
            Err(_) => {}
            Ok(loaded) => assert_eq!(
                semantics(&loaded),
                pristine,
                "truncation at {cut}: accepted a semantically different cache"
            ),
        }
    }

    // Seeded file faults through the injector, as the CLI applies them.
    for seed in 0..32u64 {
        let mut inj = FaultInjector::new(seed);
        let corrupted = inj.corrupt_text(&text);
        if let Ok(loaded) = load(&corrupted, &spec) {
            assert_eq!(semantics(&loaded), pristine);
        }
        assert!(
            load(&inj.truncate_text(&text), &spec).is_err(),
            "seed {seed}: truncated file accepted"
        );
    }
}

/// A cache file saved under one specialization never loads under another
/// (layout fingerprint), and a session adopting a valid file serves
/// requests that match the reference.
#[test]
fn cross_specialization_cache_files_are_rejected() {
    let (spec_a, part_a) = specialized(paper::DOTPROD_SRC, "dotprod", &["z1", "z2"]);
    let mut a = solo_session(&spec_a, &part_a, RunnerOptions::default(), STORE_CAPACITY);
    let args = &paper_examples()[0].arg_sets[0];
    a.run(args).unwrap();
    let text = cache_file_text(&a);

    // Same program, different partition: different layout.
    let (spec_b, _) = specialized(paper::DOTPROD_SRC, "dotprod", &["z1", "z2", "scale"]);
    let err = recover(Some(&text), "", &spec_b.layout).unwrap_err();
    assert!(
        matches!(err, IntegrityError::LayoutMismatch { .. }),
        "{err}"
    );

    // Adoption by a matching session works and is differentially correct.
    for engine in ENGINES {
        let mut fresh = solo_session(
            &spec_a,
            &part_a,
            RunnerOptions {
                engine,
                ..RunnerOptions::default()
            },
            STORE_CAPACITY,
        );
        let rec = recover(Some(&text), "", &spec_a.layout).expect("matching layout");
        fresh.adopt_recovery(&rec);
        assert!(checked_request(&mut fresh, args, "adopted cache"));
        assert_eq!(fresh.stats().loads, 0);
    }
}

/// Robustness counters surface in the exported metrics document.
#[test]
fn robustness_counters_reach_the_metrics_export() {
    let mut r = runner_for(
        paper::DOTPROD_SRC,
        "dotprod",
        &["z1", "z2"],
        RunnerOptions {
            policy: Policy::RebuildThenFallback,
            eval: EvalOptions {
                profile: true,
                ..EvalOptions::default()
            },
            ..RunnerOptions::default()
        },
    );
    let args = &paper_examples()[0].arg_sets[0];
    // Armed before the cold load: the corrupt store fires inside the
    // loader, the second request detects it and transparently rebuilds.
    r.inject(Fault::CorruptSlot, 5).unwrap();
    r.run(args).unwrap();
    r.run(args).unwrap();
    let doc = r.stats().to_json();
    let profile = doc.get("profile").expect("profile");
    assert_eq!(
        profile.get("validation_failures").unwrap().as_u64(),
        Some(1)
    );
    assert_eq!(profile.get("rebuilds").unwrap().as_u64(), Some(1));
    assert_eq!(doc.get("loads").unwrap().as_u64(), Some(2));
    // The same counters round-trip through the JSON parser.
    let back = ds_telemetry::parse(&doc.pretty()).unwrap();
    assert_eq!(
        back.get("profile")
            .unwrap()
            .get("rebuilds")
            .unwrap()
            .as_u64(),
        Some(1)
    );
}

/// The WAL fault × engine × policy × example matrix. Torn writes are
/// silent (the record is lost, never the answer); a crashed writer
/// surfaces as a typed [`WalError::Crashed`] and never a wrong value.
/// Either way, a fresh runner recovering from whatever survived on the
/// log serves every request bit-identical to the reference — the log is
/// always a valid (possibly shorter) prefix of history.
#[test]
fn wal_faults_tear_or_crash_but_never_corrupt_an_answer() {
    for ex in paper_examples() {
        for engine in ENGINES {
            for policy in POLICIES {
                // The value doubles as the torn-write cut and the
                // crash byte threshold; every record is > 80 bytes, so
                // each threshold crashes inside the *first* append.
                for at in [0u64, 17, 80] {
                    for fault in [Fault::TornWrite(at), Fault::CrashAtByte(at)] {
                        let ctx = format!("{} {engine:?} {policy:?} {fault}", ex.name);
                        let mut r = runner_for(
                            ex.src,
                            ex.entry,
                            ex.varying,
                            RunnerOptions {
                                engine,
                                policy,
                                ..RunnerOptions::default()
                            },
                        );
                        let wal =
                            Arc::new(Wal::in_memory(r.artifact().layout_fingerprint(), Some(2)));
                        r.attach_wal(Arc::clone(&wal));
                        r.inject(fault, at).expect("wal fault arms");
                        let mut crashes = 0u64;
                        for round in 0..2 {
                            for (i, args) in ex.arg_sets.iter().enumerate() {
                                let rctx = format!("{ctx} round {round} args {i}");
                                let want = r
                                    .reference(args)
                                    .unwrap_or_else(|e| panic!("{rctx}: reference: {e}"))
                                    .value;
                                match r.run(args) {
                                    Ok(out) => match (&out.value, &want) {
                                        (Some(got), Some(want)) => assert!(
                                            got.bits_eq(want),
                                            "{rctx}: SILENT WRONG VALUE: {got} vs {want}"
                                        ),
                                        (got, want) => {
                                            assert_eq!(got, want, "{rctx}: presence diverged");
                                        }
                                    },
                                    Err(RuntimeError::Wal(WalError::Crashed { .. })) => {
                                        crashes += 1;
                                    }
                                    Err(e) => panic!("{rctx}: unexpected error class: {e}"),
                                }
                            }
                        }
                        match fault {
                            Fault::CrashAtByte(_) => {
                                assert!(crashes > 0, "{ctx}: the crash never fired");
                                assert!(wal.is_crashed(), "{ctx}: writer not marked crashed");
                            }
                            _ => {
                                assert_eq!(crashes, 0, "{ctx}: a torn write must be silent");
                                assert!(!wal.is_crashed(), "{ctx}");
                                assert!(
                                    r.stats().wal_appends() > 0,
                                    "{ctx}: no appends ever reached the log"
                                );
                            }
                        }

                        // Restart: recover from whatever the log holds.
                        // A damaged tail may shorten history, but must
                        // never change it — the recovered store serves
                        // every request bit-exact (re-staging misses).
                        let log = wal.log_text().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        let ckpt = wal
                            .checkpoint_text()
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        let (rec, ckpt_err) =
                            recover_or_degrade(ckpt.as_deref(), &log, r.artifact().layout());
                        assert!(
                            ckpt_err.is_none(),
                            "{ctx}: checkpoint rejected: {ckpt_err:?}"
                        );
                        let mut fresh = runner_for(
                            ex.src,
                            ex.entry,
                            ex.varying,
                            RunnerOptions {
                                engine,
                                policy,
                                ..RunnerOptions::default()
                            },
                        );
                        fresh.adopt_recovery(&rec);
                        assert_eq!(
                            fresh.stats().recovered_caches(),
                            rec.entries.len() as u64,
                            "{ctx}"
                        );
                        for (i, args) in ex.arg_sets.iter().enumerate() {
                            assert!(
                                checked_request(&mut fresh, args, &format!("{ctx} recovered {i}")),
                                "{ctx}: request {i} failed after recovery"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Pinpoint kill-and-restart on dotprod with the canonical WAL fault
/// constants: the crashed writer loses in-flight work only; a restarted
/// runner adopts the recovered caches and serves them *without
/// re-staging* — the whole point of the log.
#[test]
fn crashed_writer_restart_serves_recovered_caches_without_restaging() {
    let ex = &paper_examples()[0];
    let mut r = runner_for(
        ex.src,
        ex.entry,
        ex.varying,
        RunnerOptions {
            policy: Policy::FailFast,
            ..RunnerOptions::default()
        },
    );
    let wal = Arc::new(Wal::in_memory(r.artifact().layout_fingerprint(), None));
    r.attach_wal(Arc::clone(&wal));
    // Stage the first argument set cleanly, then arm a crash far enough
    // out that the *second* install dies mid-record. The second set must
    // differ in a *static* input (scale) — the cache is keyed on the
    // static half of the partition, so a varying-only change is a warm
    // hit and never reaches the log.
    r.run(&ex.arg_sets[0]).expect("clean install");
    let logged = wal.log_text().unwrap().len() as u64;
    assert!(logged > 0, "first install must reach the log");
    for fault in Fault::WAL_FAULTS {
        assert!(fault.is_wal_fault(), "{fault} must classify as a wal fault");
    }
    r.inject(Fault::CrashAtByte(logged + 10), 0).unwrap();
    let err = r.run(&ex.arg_sets[2]).unwrap_err();
    assert!(
        matches!(err, RuntimeError::Wal(WalError::Crashed { .. })),
        "expected a crashed writer, got {err}"
    );

    // Restart. The torn second record is discarded; the first install
    // replays, and serving that argument set is a pure store hit.
    let log = wal.log_text().unwrap();
    let (rec, ckpt_err) = recover_or_degrade(None, &log, r.artifact().layout());
    assert!(ckpt_err.is_none());
    assert!(rec.damaged_tail, "the torn second record must be reported");
    assert_eq!(rec.entries.len(), 1, "exactly the first install survives");
    let mut fresh = runner_for(ex.src, ex.entry, ex.varying, RunnerOptions::default());
    fresh.adopt_recovery(&rec);
    assert!(checked_request(
        &mut fresh,
        &ex.arg_sets[0],
        "recovered serve"
    ));
    assert_eq!(
        fresh.stats().loads,
        0,
        "the recovered cache must be served, not re-staged"
    );
    assert_eq!(fresh.stats().wal_replays(), 1);
}

/// The latency-fault matrix (`stall:N`, `slow-io:N`) × engine × policy ×
/// example. These faults cost wall-clock time only — a stalled stager, a
/// slow disk under the log lock — so the invariant is *stronger* than
/// the memory matrix: every request must succeed bit-exact against the
/// reference, zero typed errors, zero fallbacks, and the injected delay
/// must actually show up on the clock (otherwise the fault never fired
/// and the scenario proved nothing).
#[test]
fn latency_faults_cost_time_but_never_answers() {
    for ex in paper_examples() {
        for engine in ENGINES {
            for policy in POLICIES {
                for fault in Fault::LATENCY_FAULTS {
                    let delay_ms = match fault {
                        Fault::Stall(ms) | Fault::SlowIo(ms) => ms,
                        other => panic!("{other} is not a latency fault"),
                    };
                    let ctx = format!("{} {engine:?} {policy:?} {fault}", ex.name);
                    let mut r = runner_for(
                        ex.src,
                        ex.entry,
                        ex.varying,
                        RunnerOptions {
                            engine,
                            policy,
                            ..RunnerOptions::default()
                        },
                    );
                    // slow-io needs a log to slow down; stall ignores it.
                    let wal = Arc::new(Wal::in_memory(r.artifact().layout_fingerprint(), None));
                    r.attach_wal(Arc::clone(&wal));
                    r.inject(fault, 7).expect("latency fault arms");
                    let started = std::time::Instant::now();
                    for round in 0..2 {
                        for (i, args) in ex.arg_sets.iter().enumerate() {
                            assert!(
                                checked_request(
                                    &mut r,
                                    args,
                                    &format!("{ctx} round {round} args {i}")
                                ),
                                "{ctx}: a latency fault must never surface an error \
                                 (round {round} args {i})"
                            );
                        }
                    }
                    assert!(
                        started.elapsed() >= std::time::Duration::from_millis(delay_ms),
                        "{ctx}: the injected {delay_ms} ms delay never fired"
                    );
                    assert!(!wal.is_crashed(), "{ctx}: a slow disk is not a crashed one");
                    assert_eq!(r.stats().fallbacks(), 0, "{ctx}: no degradation allowed");
                    assert_eq!(r.stats().validation_failures(), 0, "{ctx}");
                }
            }
        }
    }
}

/// The in-memory + latency fault matrix driven through the online daemon
/// (ISSUE 8): per-request injected faults — including the wedge and
/// slow-disk kinds — are absorbed by the default rebuild-then-fallback
/// policy, and every answer is bit-identical to the solo unspecialized
/// reference. The daemon may *never* convert a fault into a silently
/// wrong value.
#[test]
fn daemon_serves_the_fault_matrix_bit_exactly() {
    use ds_runtime::{CacheStore, Daemon, DaemonConfig, StagedArtifact};
    let ex = &paper_examples()[0];
    for engine in ENGINES {
        let (spec, part) = specialized(ex.src, ex.entry, ex.varying);
        let artifact = Arc::new(StagedArtifact::new(&spec, &part));
        let store = Arc::new(CacheStore::new(8));
        let wal = Arc::new(Wal::in_memory(artifact.layout_fingerprint(), None));
        let (daemon, rx) = Daemon::start(
            Arc::clone(&artifact),
            store,
            Some(Arc::clone(&wal)),
            DaemonConfig {
                workers: 4,
                runner: RunnerOptions {
                    engine,
                    ..RunnerOptions::default()
                },
                ..DaemonConfig::default()
            },
        );
        let mut faults: Vec<Fault> = Fault::MEMORY_FAULTS.to_vec();
        faults.extend(Fault::LATENCY_FAULTS);
        let mut want = std::collections::HashMap::new();
        let mut seq = 0u64;
        for fault in &faults {
            for args in ex.arg_sets.iter() {
                let reference = artifact
                    .reference(args, ds_interp::EvalOptions::default())
                    .unwrap_or_else(|e| panic!("{engine:?}: reference: {e}"))
                    .value;
                want.insert(seq, reference);
                daemon
                    .submit(seq, args.clone(), Some((*fault, seq)))
                    .unwrap_or_else(|e| panic!("{engine:?} seq {seq}: submit: {e}"));
                seq += 1;
            }
        }
        daemon.drain();
        let mut served = 0u64;
        while let Ok(resp) = rx.recv_timeout(std::time::Duration::from_secs(30)) {
            served += 1;
            let ctx = format!("{engine:?} seq {}", resp.seq);
            let out = resp
                .result
                .unwrap_or_else(|e| panic!("{ctx}: rebuild-then-fallback leaked an error: {e}"));
            match (&out.value, &want[&resp.seq]) {
                (Some(got), Some(exp)) => assert!(
                    got.bits_eq(exp),
                    "{ctx}: SILENT WRONG VALUE: got {got}, reference {exp}"
                ),
                (got, exp) => assert_eq!(got, exp, "{ctx}: value presence diverged"),
            }
        }
        assert_eq!(served, seq, "{engine:?}: some requests never answered");
        let report = daemon.join();
        assert!(
            !wal.is_crashed(),
            "{engine:?}: latency faults crashed the log"
        );
        assert_eq!(
            report.counters.staged_serves() + report.counters.unspec_serves(),
            seq,
            "{engine:?}: serve counters disagree with the request count"
        );
    }
}
