//! The conformance oracles.
//!
//! Each oracle is a differential or metamorphic property of the pipeline,
//! keyed to the paper section it checks:
//!
//! | oracle      | paper | property                                          |
//! |-------------|-------|---------------------------------------------------|
//! | `semantics` | §3    | loader + reader ≡ unspecialized, on both engines  |
//! | `work`      | §3.2  | reader dynamic work ≤ fragment, < on cache hits   |
//! | `budget`    | §4.3  | every cache budget from 0 to full is semantics-preserving and within bound |
//! | `normalize` | §4.1  | phi insertion is semantics-preserving and idempotent |
//! | `reassoc`   | §4.2  | reassociation preserves semantics (exact for loader/reader vs fragment, ≤1e-6 relative vs source) at equal cost |
//! | `serve`     | §5    | a 3-worker `Daemon` (block dequeue, lockstep store hits) over a shared store ≡ solo serve, bit-exact; under admission `After(2)` each unadmitted answer ≡ the unspecialized reference, cost included |
//! | `recovery`  | —     | crash the WAL at any byte: reopen recovers a prefix of the logged history and re-serves the stream bit-exact |
//! | `batch`     | —     | SoA batch executor ≡ per-lane scalar runs on both engines (values, errors, cost, Profile), fused and unfused, incl. faulting lanes, warm-cache readers, per-lane caches with unfilled slots, and loaders over per-lane writable caches (filled slots and content hash too, incl. divergent blocks and lanes faulting after some writes) |
//!
//! All value and trace comparisons are bit-exact (`f64::to_bits`) unless an
//! oracle says otherwise; typed errors compare field-exact via `PartialEq`.
//! The `serve` and `batch` bodies run under `catch_unwind`: a panic
//! anywhere in them — a daemon worker's included — is a violation.

use crate::case::FuzzCase;
use crate::rng::Rng;
use ds_core::{specialize, InputPartition, Specialization, SpecializeOptions};
use ds_interp::{
    BatchStats, BatchVm, CacheBuf, CompiledProgram, Engine, EvalError, EvalOptions, Outcome, Value,
};
use ds_runtime::{
    recover, recover_or_degrade, scan_log, Admission, CacheStore, Daemon, DaemonConfig,
    FaultInjector, Policy, RunnerOptions, RuntimeError, Session, StagedArtifact, Wal,
};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// The entry procedure of every generated case.
pub const ENTRY: &str = "gen";

/// One conformance property; see the module table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// §3: unspecialized == loader, and reader == unspecialized per request.
    Semantics,
    /// §3.2: the reader never does more dynamic work than the fragment.
    Work,
    /// §4.3: cache-size limiting preserves semantics at every budget.
    Budget,
    /// §4.1: normalization preserves semantics and is idempotent.
    Normalize,
    /// §4.2: reassociation preserves semantics at unchanged cost.
    Reassoc,
    /// Staged serving: parallel workers match a solo run bit-exactly.
    Serve,
    /// Durability: a WAL crash at any byte recovers to a prefix of the
    /// logged history, and a store rebuilt from it serves the whole
    /// stream bit-exactly.
    Recovery,
    /// SoA batch executor: `run_batch_soa` agrees lane-by-lane,
    /// field-exact, with per-lane scalar runs on both engines — with and
    /// without superinstruction fusion, with deliberately faulting lanes
    /// mixed in, and for warm-cache readers.
    Batch,
}

impl Oracle {
    /// Every oracle, in the order `dsc fuzz` runs them by default.
    pub const ALL: [Oracle; 8] = [
        Oracle::Semantics,
        Oracle::Work,
        Oracle::Budget,
        Oracle::Normalize,
        Oracle::Reassoc,
        Oracle::Serve,
        Oracle::Recovery,
        Oracle::Batch,
    ];

    /// The oracle's command-line and reproducer-header name.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Semantics => "semantics",
            Oracle::Work => "work",
            Oracle::Budget => "budget",
            Oracle::Normalize => "normalize",
            Oracle::Reassoc => "reassoc",
            Oracle::Serve => "serve",
            Oracle::Recovery => "recovery",
            Oracle::Batch => "batch",
        }
    }

    /// Checks the property on `case`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check(self, case: &FuzzCase) -> Result<(), String> {
        match self {
            Oracle::Semantics => check_semantics(case),
            Oracle::Work => check_work(case),
            Oracle::Budget => check_budget(case),
            Oracle::Normalize => check_normalize(case),
            Oracle::Reassoc => check_reassoc(case),
            Oracle::Serve => unwinding(|| check_serve(case)),
            Oracle::Recovery => check_recovery(case),
            Oracle::Batch => unwinding(|| check_batch(case)),
        }
    }
}

/// Runs an oracle body, turning a panic into a violation: library code
/// must not panic on any input, so the fuzzer treats one like a wrong
/// answer (and shrinks it the same way).
fn unwinding(body: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Oracle {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Oracle::ALL
            .into_iter()
            .find(|o| o.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown oracle `{s}`; expected one of {}",
                    Oracle::ALL.map(|o| o.name()).join(", ")
                )
            })
    }
}

fn partition(case: &FuzzCase) -> InputPartition {
    InputPartition::varying(case.varying.iter().map(String::as_str))
}

fn specialized(case: &FuzzCase, opts: &SpecializeOptions) -> Result<Specialization, String> {
    specialize(&case.program, ENTRY, &partition(case), opts)
        .map_err(|e| format!("specialize failed: {e}"))
}

fn run(
    engine: Engine,
    program: &ds_lang::Program,
    entry: &str,
    args: &[Value],
    cache: Option<&mut CacheBuf>,
    profile: bool,
) -> Result<Outcome, EvalError> {
    let opts = EvalOptions {
        profile,
        ..EvalOptions::default()
    };
    engine.run_program(program, entry, args, cache, opts)
}

fn describe(r: &Result<Outcome, EvalError>) -> String {
    match r {
        Ok(o) => format!("Ok(value={:?}, trace_len={})", o.value, o.trace.len()),
        Err(e) => format!("Err({e:?})"),
    }
}

/// Bit-exact outcome equality: result value and every trace sample.
fn outcomes_eq(a: &Outcome, b: &Outcome) -> bool {
    let values = match (&a.value, &b.value) {
        (Some(x), Some(y)) => x.bits_eq(y),
        (None, None) => true,
        _ => false,
    };
    values
        && a.trace.len() == b.trace.len()
        && a.trace
            .iter()
            .zip(&b.trace)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Asserts bit-exact agreement of two runs; typed errors compare
/// field-exact.
fn same(
    label: &str,
    expected: &Result<Outcome, EvalError>,
    actual: &Result<Outcome, EvalError>,
) -> Result<(), String> {
    let ok = match (expected, actual) {
        (Ok(a), Ok(b)) => outcomes_eq(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{label}: expected {}, got {}",
            describe(expected),
            describe(actual)
        ))
    }
}

/// §3 differential oracle: on both engines, the fragment and the loader
/// reproduce the unspecialized result on the loader's inputs (field-exact on
/// errors), and the reader reproduces the unspecialized result on every
/// request served from the filled cache.
fn check_semantics(case: &FuzzCase) -> Result<(), String> {
    let spec = specialized(case, &SpecializeOptions::new())?;
    let spec_prog = spec.as_program();
    let loader = format!("{ENTRY}__loader");
    let reader = format!("{ENTRY}__reader");
    for engine in [Engine::Tree, Engine::Vm] {
        let orig: Vec<_> = case
            .requests
            .iter()
            .map(|req| run(engine, &case.program, ENTRY, req, None, false))
            .collect();
        for (i, (req, expected)) in case.requests.iter().zip(&orig).enumerate() {
            let frag = run(engine, &spec_prog, ENTRY, req, None, false);
            same(
                &format!("[{engine:?}] fragment, request {i}"),
                expected,
                &frag,
            )?;
        }
        let mut cache = CacheBuf::new(spec.slot_count());
        let loaded = run(
            engine,
            &spec_prog,
            &loader,
            &case.requests[0],
            Some(&mut cache),
            false,
        );
        same(
            &format!("[{engine:?}] loader vs unspecialized"),
            &orig[0],
            &loaded,
        )?;
        if loaded.is_err() {
            // The loader faithfully reproduced the error; there is no
            // filled cache for a reader to serve from.
            continue;
        }
        for (i, (req, expected)) in case.requests.iter().zip(&orig).enumerate() {
            let got = run(engine, &spec_prog, &reader, req, Some(&mut cache), false);
            same(&format!("[{engine:?}] reader, request {i}"), expected, &got)?;
        }
    }
    Ok(())
}

fn dynamic_work(r: &Result<Outcome, EvalError>) -> Option<(u64, u64)> {
    match r {
        Ok(o) => {
            let p = o.profile.as_ref()?;
            Some((p.total_dynamic_work(), p.cache_reads))
        }
        Err(_) => None,
    }
}

/// §3.2 metamorphic oracle: per request, the reader's dynamic work (ops +
/// branches + builtin calls; cache traffic excluded) never exceeds the
/// fragment's, and is strictly smaller whenever the reader hit the cache.
fn check_work(case: &FuzzCase) -> Result<(), String> {
    let spec = specialized(case, &SpecializeOptions::new())?;
    let spec_prog = spec.as_program();
    let engine = Engine::Tree;
    let mut cache = CacheBuf::new(spec.slot_count());
    let loaded = run(
        engine,
        &spec_prog,
        &format!("{ENTRY}__loader"),
        &case.requests[0],
        Some(&mut cache),
        true,
    );
    if loaded.is_err() {
        // Checked field-exact by the semantics oracle; no cache to measure.
        return Ok(());
    }
    // The loader executes everything the fragment does (plus cache writes,
    // which dynamic work excludes), so it can never do less.
    let frag0 = run(engine, &spec_prog, ENTRY, &case.requests[0], None, true);
    if let (Some((loader_work, _)), Some((frag_work, _))) =
        (dynamic_work(&loaded), dynamic_work(&frag0))
    {
        if loader_work < frag_work {
            return Err(format!(
                "loader did {loader_work} dynamic work, less than the fragment's \
                 {frag_work} (§3.2)"
            ));
        }
    }
    for (i, req) in case.requests.iter().enumerate() {
        let frag = run(engine, &spec_prog, ENTRY, req, None, true);
        let Some((frag_work, _)) = dynamic_work(&frag) else {
            continue; // request errors; nothing to measure
        };
        let got = run(
            engine,
            &spec_prog,
            &format!("{ENTRY}__reader"),
            req,
            Some(&mut cache),
            true,
        );
        let Some((reader_work, _reads)) = dynamic_work(&got) else {
            return Err(format!(
                "request {i}: fragment succeeded but reader failed: {}",
                describe(&got)
            ));
        };
        // The bound is ≤, not <: the fuzzer found that a cached loop-exit
        // phi whose loop survives in the reader (effectful body) replays a
        // zero-cost variable copy, so a cache read need not save work.
        if reader_work > frag_work {
            return Err(format!(
                "request {i}: reader did {reader_work} dynamic work, more than the \
                 fragment's {frag_work} (§3.2)"
            ));
        }
    }
    Ok(())
}

/// §4.3 metamorphic oracle: for every byte budget from 0 to the unlimited
/// cache size, the limited specialization stays within budget and the
/// loader/reader pair still reproduces the unspecialized results.
fn check_budget(case: &FuzzCase) -> Result<(), String> {
    let full = specialized(case, &SpecializeOptions::new())?.cache_bytes();
    let engine = Engine::Tree;
    let orig: Vec<_> = case
        .requests
        .iter()
        .map(|req| run(engine, &case.program, ENTRY, req, None, false))
        .collect();
    for bound in 0..=full {
        let spec = specialized(case, &SpecializeOptions::new().with_cache_bound(bound))?;
        if spec.cache_bytes() > bound {
            return Err(format!(
                "budget {bound}: layout uses {} bytes, over budget (§4.3)",
                spec.cache_bytes()
            ));
        }
        let spec_prog = spec.as_program();
        let mut cache = CacheBuf::new(spec.slot_count());
        let loaded = run(
            engine,
            &spec_prog,
            &format!("{ENTRY}__loader"),
            &case.requests[0],
            Some(&mut cache),
            false,
        );
        same(&format!("budget {bound}: loader"), &orig[0], &loaded)?;
        if loaded.is_err() {
            continue;
        }
        for (i, (req, expected)) in case.requests.iter().zip(&orig).enumerate() {
            let got = run(
                engine,
                &spec_prog,
                &format!("{ENTRY}__reader"),
                req,
                Some(&mut cache),
                false,
            );
            same(
                &format!("budget {bound}: reader, request {i}"),
                expected,
                &got,
            )?;
        }
    }
    Ok(())
}

/// §4.1 metamorphic oracle: inserting join-point phis grows the AST by
/// exactly two nodes per phi, changes no observable behavior on either
/// engine, and a second pass inserts nothing.
fn check_normalize(case: &FuzzCase) -> Result<(), String> {
    let mut prog = ds_analysis::inline_entry(&case.program, ENTRY)
        .map_err(|e| format!("inline failed: {e}"))?;
    let before = prog.procs[0].node_count();
    let added = ds_analysis::insert_phis(&mut prog.procs[0]);
    let after = prog.procs[0].node_count();
    if after != before + 2 * added {
        return Err(format!(
            "phi insertion added {added} phis but grew the AST from {before} to {after} \
             nodes (expected {}) (§4.1)",
            before + 2 * added
        ));
    }
    let again = ds_analysis::insert_phis(&mut prog.procs[0]);
    if again != 0 {
        return Err(format!(
            "phi insertion is not idempotent: second pass added {again} phis (§4.1)"
        ));
    }
    ds_lang::validate(&mut prog).map_err(|e| format!("normalized program is ill-typed: {e}"))?;
    for engine in [Engine::Tree, Engine::Vm] {
        for (i, req) in case.requests.iter().enumerate() {
            let expected = run(engine, &case.program, ENTRY, req, None, false);
            let got = run(engine, &prog, ENTRY, req, None, false);
            same(
                &format!("[{engine:?}] normalized, request {i}"),
                &expected,
                &got,
            )?;
        }
    }
    Ok(())
}

/// Approximate equality for reassociated float results: bit-equal, both
/// NaN, or relative error under 1e-6 (scale clamped at 1).
fn approx(a: f64, b: f64) -> bool {
    if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    ((a - b) / scale).abs() < 1e-6
}

fn outcomes_approx(a: &Outcome, b: &Outcome) -> bool {
    let values = match (&a.value, &b.value) {
        (Some(Value::Float(x)), Some(Value::Float(y))) => approx(*x, *y),
        (Some(x), Some(y)) => x.bits_eq(y),
        (None, None) => true,
        _ => false,
    };
    values
        && a.trace.len() == b.trace.len()
        && a.trace.iter().zip(&b.trace).all(|(x, y)| approx(*x, *y))
}

/// §4.2 metamorphic oracle: with reassociation on, the loader/reader pair
/// is bit-exact against the *reassociated* fragment; the reassociated
/// fragment agrees with the plain one to 1e-6 relative error at exactly
/// equal abstract cost. Programs that call `trace` are skipped: the
/// existing property suite treats reordered traced chains as out of scope.
fn check_reassoc(case: &FuzzCase) -> Result<(), String> {
    if ds_lang::print_program(&case.program).contains("trace(") {
        return Ok(());
    }
    let plain = specialized(case, &SpecializeOptions::new())?;
    let spec = specialized(case, &SpecializeOptions::new().with_reassociation())?;
    let plain_prog = plain.as_program();
    let spec_prog = spec.as_program();
    let engine = Engine::Tree;
    let frag: Vec<_> = case
        .requests
        .iter()
        .map(|req| run(engine, &spec_prog, ENTRY, req, None, false))
        .collect();
    for (i, req) in case.requests.iter().enumerate() {
        let base = run(engine, &plain_prog, ENTRY, req, None, true);
        let got = run(engine, &spec_prog, ENTRY, req, None, true);
        let ok = match (&base, &got) {
            (Ok(a), Ok(b)) => {
                if a.cost != b.cost {
                    return Err(format!(
                        "request {i}: reassociation changed abstract cost {} -> {} (§4.2)",
                        a.cost, b.cost
                    ));
                }
                outcomes_approx(a, b)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !ok {
            return Err(format!(
                "request {i}: reassociated fragment drifted: expected {}, got {} (§4.2)",
                describe(&base),
                describe(&got)
            ));
        }
    }
    let mut cache = CacheBuf::new(spec.slot_count());
    let loaded = run(
        engine,
        &spec_prog,
        &format!("{ENTRY}__loader"),
        &case.requests[0],
        Some(&mut cache),
        false,
    );
    same("reassoc loader vs reassociated fragment", &frag[0], &loaded)?;
    if loaded.is_err() {
        return Ok(());
    }
    for (i, (req, expected)) in case.requests.iter().zip(&frag).enumerate() {
        let got = run(
            engine,
            &spec_prog,
            &format!("{ENTRY}__reader"),
            req,
            Some(&mut cache),
            false,
        );
        same(
            &format!("reassoc reader vs reassociated fragment, request {i}"),
            expected,
            &got,
        )?;
    }
    Ok(())
}

/// The serve oracle's request stream: the case's requests, then one
/// fixed-input variant of each (deterministically perturbed), so the
/// polyvariant store must juggle several invariant contexts.
pub fn serve_stream(case: &FuzzCase) -> Vec<Vec<Value>> {
    let entry = case
        .program
        .proc(ENTRY)
        .expect("case has an entry procedure");
    let mut out = case.requests.clone();
    for (i, base) in case.requests.iter().enumerate() {
        let req = entry
            .params
            .iter()
            .zip(base)
            .map(|(p, v)| {
                if case.varying.contains(&p.name) {
                    v.clone()
                } else {
                    match v {
                        Value::Float(x) => Value::Float(x + (i as f64 + 1.0) * 0.5),
                        Value::Int(n) => Value::Int(n + i as i64 + 1),
                        Value::Bool(b) => Value::Bool(*b == (i % 2 == 0)),
                        Value::Array(_) => unreachable!("parameters are scalar"),
                    }
                }
            })
            .collect();
        out.push(req);
    }
    out
}

fn describe_serve(r: &Result<Outcome, RuntimeError>) -> String {
    match r {
        Ok(o) => format!(
            "Ok(value={:?}, cost={}, trace_len={})",
            o.value,
            o.cost,
            o.trace.len()
        ),
        Err(e) => format!("Err({e})"),
    }
}

/// Staged-serving oracle: on both engines, serving the stream through a
/// three-worker [`Daemon`] over a shared polyvariant store returns
/// bit-identical values and traces (and field-equal errors) to a solo
/// session serving it in order. A second pass admits a fingerprint only
/// from its second arrival (`Admission::After(2)`): each admitted answer
/// still equals the solo session's, and each unadmitted one equals the
/// unspecialized reference, cost included. Responses are matched to
/// requests by their submission sequence number.
fn check_serve(case: &FuzzCase) -> Result<(), String> {
    const WORKERS: usize = 3;
    let part = partition(case);
    let spec = specialized(case, &SpecializeOptions::new())?;
    let artifact = Arc::new(StagedArtifact::new(&spec, &part));
    let stream = serve_stream(case);
    for engine in [Engine::Tree, Engine::Vm] {
        let opts = RunnerOptions {
            engine,
            policy: Policy::FailFast,
            rebuild_budget: 64,
            ..RunnerOptions::default()
        };
        let solo: Vec<_> = {
            let store = Arc::new(CacheStore::new(stream.len().max(1)));
            let mut session = Session::new(artifact.clone(), store, opts);
            stream.iter().map(|req| session.run(req)).collect()
        };
        let reference: Vec<_> = stream
            .iter()
            .map(|req| {
                artifact
                    .reference(req, opts.eval)
                    .map_err(RuntimeError::Eval)
            })
            .collect();
        for admission in [Admission::Always, Admission::After(2)] {
            let label = format!("[{engine:?}, admission {admission}]");
            let store = Arc::new(CacheStore::new(stream.len().max(1)));
            let cfg = DaemonConfig {
                workers: WORKERS,
                max_queue: stream.len().max(1),
                deadline_ms: None,
                admission,
                runner: opts,
                tracing: false,
            };
            let (daemon, rx) = Daemon::start(artifact.clone(), store, None, cfg);
            for (i, req) in stream.iter().enumerate() {
                daemon
                    .submit(i as u64, req.clone(), None)
                    .map_err(|e| format!("{label} request {i}: rejected at submit: {e}"))?;
            }
            daemon.drain();
            let mut served: Vec<Option<(bool, Result<Outcome, RuntimeError>)>> =
                vec![None; stream.len()];
            // The channel disconnects once the drained workers exit.
            for resp in rx {
                served[resp.seq as usize] = Some((resp.specialized, resp.result));
            }
            daemon.join();
            for (i, b) in served.iter().enumerate() {
                let Some((specialized, b)) = b else {
                    return Err(format!("{label} request {i}: never answered"));
                };
                let (a, oracle) = if *specialized {
                    (&solo[i], "solo")
                } else {
                    (&reference[i], "unspecialized reference")
                };
                let ok = match (a, b) {
                    (Ok(x), Ok(y)) => outcomes_eq(x, y) && (*specialized || x.cost == y.cost),
                    (Err(x), Err(y)) => x == y,
                    _ => false,
                };
                if !ok {
                    return Err(format!(
                        "{label} request {i}: {oracle} {} vs {WORKERS}-worker daemon {}",
                        describe_serve(a),
                        describe_serve(b)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Field-exact comparison of two staged-serving results (bit-exact values
/// and traces on success).
fn served_same(
    label: &str,
    expected: &Result<Outcome, RuntimeError>,
    actual: &Result<Outcome, RuntimeError>,
) -> Result<(), String> {
    let ok = match (expected, actual) {
        (Ok(a), Ok(b)) => outcomes_eq(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{label}: expected {}, got {}",
            describe_serve(expected),
            describe_serve(actual)
        ))
    }
}

/// Crash-recovery oracle: serve the stream through a WAL-attached session
/// (periodic in-memory checkpoints every 3 appends, so crash offsets land
/// in checkpoint-chained logs too), then model crashes three ways —
///
/// 1. **cut the log** at seeded byte offsets (plus both endpoints): the
///    surviving records must be an exact *prefix* of the full history, and
///    a store recovered from checkpoint + cut log must serve the whole
///    stream bit-exactly vs the no-WAL reference;
/// 2. **flip a log byte** at seeded offsets: the per-record checksum must
///    confine the damage — still a prefix, still bit-exact answers;
/// 3. **tear the checkpoint** at seeded offsets: recovery must degrade to
///    a log-only replay and still serve bit-exactly.
///
/// The invariant throughout: a crash can shorten history, never rewrite
/// it — zero wrong answers from any recovered store.
fn check_recovery(case: &FuzzCase) -> Result<(), String> {
    let part = partition(case);
    let spec = specialized(case, &SpecializeOptions::new())?;
    let artifact = Arc::new(StagedArtifact::new(&spec, &part));
    let stream = serve_stream(case);
    let opts = RunnerOptions {
        engine: Engine::Tree,
        policy: Policy::FailFast,
        rebuild_budget: 64,
        ..RunnerOptions::default()
    };
    // The uncrashed reference: a solo session with no WAL.
    let reference: Vec<_> = {
        let store = Arc::new(CacheStore::new(stream.len().max(1)));
        let mut session = Session::new(artifact.clone(), store, opts);
        stream.iter().map(|req| session.run(req)).collect()
    };
    // The logged run: attaching a WAL must not change any answer.
    let wal = Arc::new(Wal::in_memory(artifact.layout_fingerprint(), Some(3)));
    {
        let store = Arc::new(CacheStore::new(stream.len().max(1)));
        let mut session = Session::new(artifact.clone(), store, opts);
        session.attach_wal(wal.clone());
        for (i, req) in stream.iter().enumerate() {
            served_same(
                &format!("wal-attached request {i}"),
                &reference[i],
                &session.run(req),
            )?;
        }
    }
    let full_log = wal.log_text().map_err(|e| e.to_string())?;
    let ckpt = wal.checkpoint_text().map_err(|e| e.to_string())?;
    let full_scan = scan_log(&full_log, artifact.layout());

    // Re-serves the whole stream from a store recovered out of
    // (checkpoint, log) and demands bit-exact agreement with the
    // reference.
    let serve_recovered = |label: &str, rec: &ds_runtime::Recovery| -> Result<(), String> {
        let store = Arc::new(CacheStore::new(stream.len().max(1)));
        let mut session = Session::new(artifact.clone(), store, opts);
        session.adopt_recovery(rec);
        for (i, req) in stream.iter().enumerate() {
            served_same(
                &format!("{label}, request {i}"),
                &reference[i],
                &session.run(req),
            )?;
        }
        Ok(())
    };

    // Everything below is ASCII, so any byte offset is a char boundary.
    let mut inj = FaultInjector::new(full_log.len() as u64 ^ (stream.len() as u64) << 32);
    let mut cuts = vec![0usize, full_log.len()];
    cuts.extend((0..12).map(|_| inj.pick(full_log.len() as u64 + 1) as usize));
    for off in cuts {
        let cut = &full_log[..off];
        let scan = scan_log(cut, artifact.layout());
        if !full_scan.records.starts_with(&scan.records) {
            return Err(format!(
                "crash at log byte {off}: recovered {} record(s) that are not a prefix \
                 of the {} logged",
                scan.records.len(),
                full_scan.records.len()
            ));
        }
        let rec = recover(ckpt.as_deref(), cut, artifact.layout())
            .map_err(|e| format!("crash at log byte {off}: checkpoint rejected: {e}"))?;
        serve_recovered(&format!("crash at log byte {off}"), &rec)?;
    }
    if !full_log.is_empty() {
        for _ in 0..6 {
            let off = inj.pick(full_log.len() as u64) as usize;
            let mut bytes = full_log.clone().into_bytes();
            // The log is ASCII, so flipping bit 0 of byte `off` keeps it
            // ASCII: the flip `FaultInjector::corrupt_text` makes there.
            bytes[off] ^= 1;
            let flipped = String::from_utf8(bytes).expect("ascii flip");
            let scan = scan_log(&flipped, artifact.layout());
            if !full_scan.records.starts_with(&scan.records) {
                return Err(format!(
                    "flip at log byte {off}: surviving records are not a prefix of the \
                     logged history"
                ));
            }
            let rec = recover(ckpt.as_deref(), &flipped, artifact.layout())
                .map_err(|e| format!("flip at log byte {off}: checkpoint rejected: {e}"))?;
            serve_recovered(&format!("flip at log byte {off}"), &rec)?;
        }
    }
    if let Some(ck) = &ckpt {
        for _ in 0..4 {
            let off = inj.pick(ck.len() as u64) as usize;
            let (rec, _ckpt_err) =
                recover_or_degrade(Some(&ck[..off]), &full_log, artifact.layout());
            serve_recovered(&format!("checkpoint torn at byte {off}"), &rec)?;
        }
    }
    Ok(())
}

/// The batch oracle's lane sweep: the serve stream, then deliberately
/// faulting lanes — an empty argument vector (arity fault), a lane with
/// every argument's type flipped, an all-zeros lane (divide-by-zero bait)
/// and a NaN-flood lane. The batch executor must reproduce each lane's
/// scalar outcome — typed error included — without perturbing neighbors.
pub fn batch_lanes(case: &FuzzCase) -> Vec<Vec<Value>> {
    let mut lanes = serve_stream(case);
    let base = &case.requests[0];
    if !base.is_empty() {
        lanes.push(Vec::new());
        lanes.push(
            base.iter()
                .map(|v| match v {
                    Value::Float(_) => Value::Bool(true),
                    Value::Int(n) => Value::Float(*n as f64),
                    Value::Bool(b) => Value::Int(i64::from(*b)),
                    Value::Array(_) => unreachable!("parameters are scalar"),
                })
                .collect(),
        );
    }
    lanes.push(
        base.iter()
            .map(|v| match v {
                Value::Float(_) => Value::Float(0.0),
                Value::Int(_) => Value::Int(0),
                Value::Bool(_) => Value::Bool(false),
                Value::Array(_) => unreachable!("parameters are scalar"),
            })
            .collect(),
    );
    lanes.push(
        base.iter()
            .map(|v| match v {
                Value::Float(_) => Value::Float(f64::NAN),
                other => other.clone(),
            })
            .collect(),
    );
    lanes
}

/// Field-exact agreement of a batch lane with its scalar run: bit-exact
/// value and trace, equal abstract cost, equal [`ds_interp::Profile`];
/// typed errors compare field-exact.
fn lane_same(
    label: &str,
    expected: &Result<Outcome, EvalError>,
    actual: &Result<Outcome, EvalError>,
) -> Result<(), String> {
    let ok = match (expected, actual) {
        (Ok(a), Ok(b)) => outcomes_eq(a, b) && a.cost == b.cost && a.profile == b.profile,
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{label}: expected {}, got {}",
            describe(expected),
            describe(actual)
        ))
    }
}

/// Batch-parity oracle: `run_batch_soa` over the lane sweep agrees
/// lane-by-lane, field-exact (value, trace, error, abstract cost, Profile
/// counters), with per-lane scalar runs on *both* scalar engines; a
/// profile-guided fused recompile agrees identically (fusion is
/// observationally invisible); and a warm-cache reader batch matches
/// scalar reader runs over the same sealed cache.
fn check_batch(case: &FuzzCase) -> Result<(), String> {
    let opts = EvalOptions {
        profile: true,
        ..EvalOptions::default()
    };
    let lanes = batch_lanes(case);
    let compiled = ds_interp::compile(&case.program);
    let batch = compiled.run_batch_soa(ENTRY, &lanes, None, opts);
    if batch.len() != lanes.len() {
        return Err(format!(
            "batch returned {} outcomes for {} lanes",
            batch.len(),
            lanes.len()
        ));
    }
    for engine in [Engine::Tree, Engine::Vm] {
        for (i, (lane, got)) in lanes.iter().zip(&batch).enumerate() {
            let expected = run(engine, &case.program, ENTRY, lane, None, true);
            lane_same(&format!("[{engine:?}] lane {i}"), &expected, got)?;
        }
    }
    // Fuse the hottest pairs under the batch's own merged profile; the
    // rewritten program must be observationally indistinguishable.
    let mut hist: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    for o in batch.iter().flatten() {
        if let Some(p) = &o.profile {
            for (k, v) in &p.op_histogram {
                *hist.entry(k).or_default() += v;
            }
        }
    }
    let mut fused = ds_interp::compile(&case.program);
    let stats = ds_interp::fuse_hot_pairs(&mut fused, &hist, ds_interp::DEFAULT_FUSION_TOP_K);
    let fused_batch = fused.run_batch_soa(ENTRY, &lanes, None, opts);
    for (i, (unfused, got)) in batch.iter().zip(&fused_batch).enumerate() {
        lane_same(
            &format!("fused ({} sites) lane {i}", stats.fused_sites),
            unfused,
            got,
        )?;
    }
    let spec = specialized(case, &SpecializeOptions::new())?;
    let spec_prog = spec.as_program();
    let spec_compiled = ds_interp::compile(&spec_prog);
    check_own_caches(&lanes, &spec_prog, &spec_compiled, spec.slot_count(), opts)?;
    check_own_loaders(&lanes, &spec_prog, &spec_compiled, spec.slot_count(), opts)?;
    // Warm-cache readers: fill a cache once through the loader, then the
    // batch reader must match scalar readers over the same sealed cache.
    let reader = format!("{ENTRY}__reader");
    let mut cache = CacheBuf::new(spec.slot_count());
    let loaded = run(
        Engine::Vm,
        &spec_prog,
        &format!("{ENTRY}__loader"),
        &case.requests[0],
        Some(&mut cache),
        false,
    );
    if loaded.is_err() {
        // Checked field-exact by the semantics oracle; no cache to read.
        return Ok(());
    }
    let reader_batch = spec_compiled.run_batch_soa(&reader, &lanes, Some(&mut cache), opts);
    for engine in [Engine::Tree, Engine::Vm] {
        for (i, (lane, got)) in lanes.iter().zip(&reader_batch).enumerate() {
            let expected = run(engine, &spec_prog, &reader, lane, Some(&mut cache), true);
            lane_same(&format!("[{engine:?}] reader lane {i}"), &expected, got)?;
        }
    }
    Ok(())
}

/// A seed drawn from the program text, so a reproducer replays the same
/// seeded choices.
fn text_seed(prog: &ds_lang::Program) -> u64 {
    ds_telemetry::hash64(ds_lang::print_program(prog).as_bytes())
}

/// The per-lane half of the batch oracle: every lane's cache is filled by
/// the loader from that lane's own request (a lane whose loader fails
/// keeps what it filled). Two tampered copies of the caches are then read:
/// in one, a seeded quarter of the lanes loses one slot; in the other, a
/// seeded quarter has one filled slot replaced by a scalar of another
/// type. Each lane of [`BatchVm::run_lanes`] must match a scalar reader
/// over a copy of its own cache on both engines — a read of the emptied
/// slot raising the exact `UnfilledSlot` error, a read of the retyped one
/// whatever the scalar run makes of it — and neither kind of tampering
/// may push a block out of lockstep: an emptied slot only ever masks its
/// lane, and a retyped one makes lanes leave lockstep alone.
fn check_own_caches(
    lanes: &[Vec<Value>],
    spec_prog: &ds_lang::Program,
    spec_compiled: &CompiledProgram,
    slots: usize,
    opts: EvalOptions,
) -> Result<(), String> {
    let loader = format!("{ENTRY}__loader");
    let reader = format!("{ENTRY}__reader");
    let filled: Vec<CacheBuf> = lanes
        .iter()
        .map(|lane| {
            let mut cache = CacheBuf::new(slots);
            let _ = run(
                Engine::Vm,
                spec_prog,
                &loader,
                lane,
                Some(&mut cache),
                false,
            );
            cache
        })
        .collect();
    let mut rng = Rng::new(text_seed(spec_prog));
    let mut holed = filled.clone();
    if slots > 0 {
        for cache in &mut holed {
            if rng.chance(25) {
                cache.tamper(rng.below(slots), None);
            }
        }
    }
    let mut rng = Rng::new(text_seed(spec_prog).rotate_left(32));
    let mut retyped = filled.clone();
    if slots > 0 {
        for cache in &mut retyped {
            let slot = rng.below(slots);
            if rng.chance(25) {
                let other = match cache.get(slot) {
                    Some(Value::Float(x)) => Value::Int(x as i64),
                    Some(Value::Int(i)) => Value::Bool(i != 0),
                    Some(Value::Bool(b)) => Value::Float(f64::from(u8::from(b))),
                    _ => continue,
                };
                cache.tamper(slot, Some(other));
            }
        }
    }
    // Runs the reader over `caches` and checks every lane field-exact
    // against both scalar engines; returns the batch VM's stats and how
    // many lanes the scalar VM failed with `UnfilledSlot`.
    let check = |what: &str, caches: &[CacheBuf]| -> Result<(BatchStats, usize), String> {
        let own: Vec<(&[Value], &CacheBuf)> = lanes.iter().map(Vec::as_slice).zip(caches).collect();
        let mut bvm = BatchVm::new();
        let outs = bvm.run_lanes(spec_compiled, &reader, &own, opts);
        let mut unfilled = 0;
        for engine in [Engine::Tree, Engine::Vm] {
            for (i, ((lane, cache), got)) in lanes.iter().zip(caches).zip(&outs).enumerate() {
                let expected = run(
                    engine,
                    spec_prog,
                    &reader,
                    lane,
                    Some(&mut cache.clone()),
                    true,
                );
                if engine == Engine::Vm && matches!(expected, Err(EvalError::UnfilledSlot { .. })) {
                    unfilled += 1;
                }
                lane_same(
                    &format!("[{engine:?}] {what} own-cache reader lane {i}"),
                    &expected,
                    got,
                )?;
            }
        }
        Ok((bvm.stats(), unfilled))
    };
    let (whole, _) = check("filled", &filled)?;
    let (holes, unfilled) = check("holed", &holed)?;
    if holes.divergent_blocks > whole.divergent_blocks {
        return Err(format!(
            "unfilled slots pushed per-lane blocks out of lockstep: {} divergent with holes, \
             {} without",
            holes.divergent_blocks, whole.divergent_blocks
        ));
    }
    if holes.divergent_blocks == 0 && holes.masked_lanes < unfilled as u64 {
        return Err(format!(
            "{unfilled} lane(s) read an unfilled slot but only {} were masked in lockstep",
            holes.masked_lanes
        ));
    }
    let (types, _) = check("retyped", &retyped)?;
    if types.divergent_blocks > whole.divergent_blocks || types.resumed_lanes > whole.resumed_lanes
    {
        return Err(format!(
            "retyped slots pushed per-lane blocks out of lockstep: {types:?} with them, \
             {whole:?} without"
        ));
    }
    Ok(())
}

/// The loader half of the per-lane batch oracle: the loader runs over the
/// lane sweep through [`BatchVm::run_lanes_mut`], each lane writing a
/// fresh cache of its own, and a seeded third of the lanes gets a cache
/// one slot short, so its last write faults after its earlier ones
/// landed. Each lane must match a scalar loader run over the same fresh
/// cache on both engines — outcome or typed error, cost and Profile —
/// and must leave the same slots filled with the same content. The sweep
/// mixes fixed inputs, so blocks whose lanes split at a branch take the
/// resume path.
fn check_own_loaders(
    lanes: &[Vec<Value>],
    spec_prog: &ds_lang::Program,
    spec_compiled: &CompiledProgram,
    slots: usize,
    opts: EvalOptions,
) -> Result<(), String> {
    let loader = format!("{ENTRY}__loader");
    let mut rng = Rng::new(!text_seed(spec_prog));
    let fresh: Vec<CacheBuf> = lanes
        .iter()
        .map(|_| {
            let short = slots > 0 && rng.chance(33);
            CacheBuf::new(slots - usize::from(short))
        })
        .collect();
    let mut filled = fresh.clone();
    let mut own: Vec<(&[Value], &mut CacheBuf)> = lanes
        .iter()
        .map(Vec::as_slice)
        .zip(filled.iter_mut())
        .collect();
    let mut bvm = BatchVm::new();
    let outs = bvm.run_lanes_mut(spec_compiled, &loader, &mut own, opts);
    drop(own);
    if outs.len() != lanes.len() {
        return Err(format!(
            "loader batch returned {} outcomes for {} lanes",
            outs.len(),
            lanes.len()
        ));
    }
    for engine in [Engine::Tree, Engine::Vm] {
        for (i, (lane, got)) in lanes.iter().zip(&outs).enumerate() {
            let mut want = fresh[i].clone();
            let expected = run(engine, spec_prog, &loader, lane, Some(&mut want), true);
            let label = format!("[{engine:?}] own-cache loader lane {i}");
            lane_same(&label, &expected, got)?;
            let cache = &filled[i];
            if cache.filled() != want.filled() || cache.content_hash() != want.content_hash() {
                return Err(format!(
                    "{label}: filled {} slot(s) (hash {:016x}), the scalar loader {} (hash {:016x})",
                    cache.filled(),
                    cache.content_hash(),
                    want.filled(),
                    want.content_hash()
                ));
            }
        }
    }
    let stats = bvm.stats();
    if stats.sequential_runs > 0 || (stats.divergent_blocks == 0 && stats.resumed_lanes > 0) {
        return Err(format!(
            "writable lane caches left lockstep other than at a divergent branch: {stats:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gen_case;

    #[test]
    fn oracle_names_round_trip() {
        for o in Oracle::ALL {
            assert_eq!(o.name().parse::<Oracle>().unwrap(), o);
        }
        assert!("bogus".parse::<Oracle>().is_err());
    }

    #[test]
    fn a_panicking_oracle_body_is_a_violation() {
        assert_eq!(unwinding(|| Ok(())), Ok(()));
        assert_eq!(unwinding(|| Err("wrong".into())), Err("wrong".to_string()));
        assert_eq!(
            unwinding(|| panic!("boom")),
            Err("panicked: boom".to_string())
        );
        let n = 7;
        assert_eq!(
            unwinding(|| panic!("lane {n}")),
            Err("panicked: lane 7".to_string())
        );
    }

    #[test]
    fn all_oracles_pass_on_a_spread_of_seeds() {
        for seed in 0..24u64 {
            let case = gen_case(seed);
            for oracle in Oracle::ALL {
                if let Err(msg) = oracle.check(&case) {
                    panic!(
                        "seed {seed}, oracle {oracle}: {msg}\n{}",
                        ds_lang::print_program(&case.program)
                    );
                }
            }
        }
    }

    #[test]
    fn serve_stream_doubles_and_perturbs_only_fixed_params() {
        let case = gen_case(3);
        let stream = serve_stream(&case);
        assert_eq!(stream.len(), case.requests.len() * 2);
        let entry = case.program.proc(ENTRY).unwrap();
        for (i, req) in stream[case.requests.len()..].iter().enumerate() {
            for (p, (v, b)) in entry.params.iter().zip(req.iter().zip(&case.requests[i])) {
                if case.varying.contains(&p.name) {
                    assert!(v.bits_eq(b), "varying param {} changed", p.name);
                }
            }
        }
    }
}
