//! `dsc` — the data specializer command line.
//!
//! ```text
//! dsc show FILE [--entry NAME]
//!     parse, type-check and pretty-print a MiniC program
//! dsc labels FILE --vary a,b [--entry NAME] [--speculate]
//!     run the analyses and print every term's static/cached/dynamic label
//! dsc specialize FILE --vary a,b [--entry NAME] [--bound BYTES]
//!                [--reassociate] [--speculate] [--loader] [--reader]
//!     emit the cache layout plus loader and reader code
//! dsc run FILE --args 1.0,2,true [--entry NAME]
//!     evaluate a procedure and report its result and abstract cost
//! dsc measure FILE --vary a,b --args ... [--entry NAME] [specialize flags]
//!     specialize, then run original vs loader vs reader on the given
//!     arguments and report costs, speedup and breakeven
//! dsc explain FILE --vary a,b [--entry NAME] [specialize flags]
//!     specialize with decision tracing and print an annotated report in
//!     which every cached/dynamic verdict cites its Figure-3 rule
//! dsc serve FILE --vary a,b --requests PATH [--policy P] [--cache-file PATH]
//!           [--workers N] [--store-capacity N] [--wal PATH]
//!           [--checkpoint-every N] [--trace-out PATH] [--stats-every N]
//!     specialize once, then serve a file of argument vectors through the
//!     serving daemon (cache lifecycle, integrity validation, graceful
//!     degradation, optional fault injection) and print the answers in file
//!     order; `--workers` threads share one artifact and one polyvariant
//!     cache store; `--wal` makes sealed-cache installs durable
//!     (recovered crash-consistently on the next start); `--trace-out`
//!     streams per-request trace events as JSONL and `--stats-every`
//!     heartbeats progress to stderr
//! dsc report FILE.. [--compare OLD NEW] [--threshold F]
//!     summarize metrics/trace/bench telemetry files as human-readable
//!     tables; `--compare` diffs two envelopes and exits 7 when a
//!     performance metric regresses beyond the threshold
//! dsc fuzz [--seed N] [--cases N] [--oracle NAME,..] [--out PATH]
//!          [--array-weight PCT] [--replay PATH]
//!     generate random typed programs and check the pipeline's conformance
//!     oracles; shrink and write a reproducer on the first violation
//! dsc help
//! ```
//!
//! `run`, `measure`, `explain` and `serve` accept `--metrics-out PATH` to
//! export the run's metrics (execution profiles, the specialization report
//! and/or runtime robustness counters) as a versioned `ds-telemetry` JSON
//! document.
//!
//! Both serve modes run on the same daemon. `dsc serve --listen` feeds it
//! online: requests stream in over stdin (one argument vector per line),
//! answers stream out as they complete, and the serving loop adds §4.3
//! cost-model admission (`--admission`), per-request deadlines
//! (`--deadline-ms`), a bounded queue with load shedding (`--max-queue`)
//! and graceful drain on EOF or SIGTERM (finish in-flight work, checkpoint
//! the WAL, flush telemetry). A requests file is served with admission
//! `always`, no deadline and a queue as long as the file, then drained at
//! end of file.
//!
//! Exit codes are classified so scripts can tell failure modes apart (see
//! [`exit`]): `2` usage error, `3` frontend/specialization error, `4`
//! evaluation error, `5` cache-integrity violation, `6` write-ahead-log
//! writer crashed (restart with the same `--wal` to recover), `7`
//! performance regression (`report --compare`), `8` requests shed on a
//! full queue, `9` requests exceeded their deadline, `10` requests
//! rejected during drain.

mod args;
mod exit;

use args::{parse, parse_value_list, Args, UsageError};
use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_interp::Value;
use ds_lang::Program;
use ds_runtime::{
    Admission, CacheStore, Daemon, DaemonConfig, DaemonResponse, Fault, FaultInjector, RunnerStats,
    RuntimeError, Session, StagedArtifact,
};
use ds_telemetry::{format_nanos, Json, LatencyHist, Timing};
use std::fmt;
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A classified CLI failure; the class decides the process exit code, so
/// scripts can tell misuse from bad input from runtime trouble.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command/option, unreadable file (exit 2).
    Usage(String),
    /// The program or partition is invalid: parse, type-check or
    /// specialization failure (exit 3).
    Frontend(String),
    /// Execution failed: evaluation error or exhausted rebuild budget
    /// (exit 4).
    Eval(String),
    /// Cache integrity violation: corrupted, truncated or mismatched
    /// cache data (exit 5).
    Integrity(String),
    /// The write-ahead-log writer crashed (an injected `crash-at-byte`
    /// fault fired); restart with the same `--wal` to recover (exit 6).
    Crashed(String),
    /// `report --compare` found a performance regression beyond the
    /// threshold (exit 7).
    Regression(String),
    /// The serving daemon shed at least one request on a full queue
    /// (exit 8).
    Overload(String),
    /// At least one request exceeded its `--deadline-ms` deadline
    /// (exit 9).
    Deadline(String),
    /// At least one request was rejected while the daemon was draining;
    /// the drain itself completed cleanly (exit 10).
    Drain(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => exit::USAGE,
            CliError::Frontend(_) => exit::FRONTEND,
            CliError::Eval(_) => exit::EVAL,
            CliError::Integrity(_) => exit::INTEGRITY,
            CliError::Crashed(_) => exit::CRASHED,
            CliError::Regression(_) => exit::REGRESSION,
            CliError::Overload(_) => exit::OVERLOAD,
            CliError::Deadline(_) => exit::DEADLINE,
            CliError::Drain(_) => exit::DRAIN,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Frontend(m)
            | CliError::Eval(m)
            | CliError::Integrity(m)
            | CliError::Crashed(m)
            | CliError::Regression(m)
            | CliError::Overload(m)
            | CliError::Deadline(m)
            | CliError::Drain(m) => write!(f, "{m}"),
        }
    }
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> CliError {
        CliError::Usage(e.0)
    }
}

const HELP: &str = "dsc - data specialization driver (Knoblock & Ruf, PLDI 1996)

USAGE:
    dsc show FILE [--entry NAME] [--sexpr]
    dsc labels FILE --vary a,b [--entry NAME] [--speculate] [--explain]
    dsc specialize FILE --vary a,b [--entry NAME] [--bound BYTES]
                   [--reassociate] [--speculate] [--loader] [--reader]
    dsc run FILE --args 1.0,2,true [--entry NAME] [--engine tree|vm]
                [--metrics-out PATH]
    dsc measure FILE --vary a,b --args ... [--entry NAME]
                [--bound BYTES] [--reassociate] [--speculate]
                [--engine tree|vm] [--metrics-out PATH]
    dsc explain FILE --vary a,b [--entry NAME] [--bound BYTES]
                [--reassociate] [--speculate] [--engine tree|vm]
                [--metrics-out PATH]
    dsc serve FILE --vary a,b --requests PATH [--entry NAME]
              [--engine tree|vm] [--policy fail-fast|rebuild|fallback]
              [--rebuild-budget N] [--workers N] [--store-capacity N]
              [--cache-file PATH] [--wal PATH] [--checkpoint-every N]
              [--group-commit N] [--inject FAULT] [--seed N]
              [--metrics-out PATH] [--trace-out PATH] [--stats-every N]
    dsc serve FILE --vary a,b --listen [--workers N] [--max-queue N]
              [--deadline-ms N] [--admission always|auto|N]
              [and every batch serve option except --requests]
    dsc report FILE.json [FILE.json ..]
    dsc report --compare OLD.json NEW.json [--threshold F]
    dsc fuzz [--seed N] [--cases N] [--oracle NAME[,NAME..]] [--out PATH]
             [--array-weight PCT] [--replay PATH]
    dsc help

The input is a MiniC source file (a subset of C without pointers or goto).
`--vary` names the procedure parameters that vary across executions; all
other parameters are held fixed. `specialize` prints the cache layout and
both generated phases unless --loader/--reader select one. `--engine`
picks the execution backend: the reference tree walker (default) or the
register-bytecode VM (`vm`, which serve also runs in lockstep blocks on
the batch VM); both charge identical abstract costs. `explain`
reruns the specializer with decision tracing: every cached or dynamic
term is printed with the caching rule (Figure 3 / §4.3) that labeled it;
with `--engine vm` it also previews the profile-guided superinstruction
plan (the hot adjacent opcode pairs fusion rewrites in the bytecode).
`serve` replays a requests file (one `--args`-style vector per line,
`#` comments allowed) through the serving daemon and prints the answers
in file order: caches are fingerprinted, validated and rebuilt as inputs
change, `--policy` decides how failures degrade, `--cache-file` persists
the cache store between runs, and `--inject` plants one deterministic
fault (corrupt-slot, drop-store, truncate-buffer, fuel:N, corrupt-file,
truncate-file, torn-write:N, crash-at-byte:N) placed by `--seed`; an
in-memory fault strikes the first request.
`--workers N` serves on N threads, each with its own session over the
shared artifact and a polyvariant cache store (one sealed cache per
invariant fingerprint, LRU-bounded by `--store-capacity`, default 16);
per-worker stats are merged in worker order. A requests file runs with
admission `always`, no deadline and a queue as long as the file.
`--wal PATH` write-ahead-logs every sealed-cache install before the
request is acknowledged and recovers the store crash-consistently on the
next start (checkpointing into the `--cache-file` bundle — or
`PATH.checkpoint` — every `--checkpoint-every N` appends and at clean
exit); a crashed writer exits 6 and the restart serves every sealed
cache logged before the crash without re-staging it. `--group-commit N`
batches up to N log appends into one buffered flush (window 1 = flush
every append); a crash loses at most the buffered suffix, never a
flushed record.
`--listen` switches serve to online mode: argument vectors stream in on
stdin (one per line, `#` comments allowed) and are answered as they
complete, tagged `[n]` in arrival order. In both modes concurrent first
requests for one fingerprint coalesce onto a single stager
(per-fingerprint latches). Online only: `--admission` decides when a
fingerprint is worth specializing (`auto` = the paper's §4.3 breakeven
from calibrated costs, `always`, or a fixed rate) — a fingerprint
specializes once its exponentially-decaying arrival rate reaches
breakeven, so one-shot and thinly-spread fingerprints are served by the
unspecialized fragment, bit-identically; `--max-queue N` bounds the
request queue (overflow is shed with a typed error, exit 8),
`--deadline-ms N` fails requests that cannot be answered in time (never
partially, exit 9), and EOF or SIGTERM drains gracefully: no new admissions (late arrivals exit
10), in-flight and queued requests finish, the WAL is checkpointed and
the telemetry envelope flushed before exit.
`--metrics-out PATH` writes a versioned ds-telemetry JSON document with
the run's execution profiles and/or specialization report; for `serve` it
includes a `latency` section (end-to-end and per-stage p50/p90/p99 from
mergeable log2-bucket histograms). `--trace-out PATH` additionally
streams one JSONL trace event per request (outcome, stage timings);
`--stats-every N` prints a progress/throughput heartbeat to stderr.
`report` renders any ds-telemetry file — serve metrics, trace JSONL,
BENCH_*.json — as a human-readable summary; `report --compare OLD NEW`
diffs the performance metrics of two envelopes and exits 7 when one
regresses more than `--threshold` (default 0.10 = 10%).
`fuzz` generates `--cases` random typed programs from `--seed` and checks
the conformance oracles (semantics, work, budget, normalize, reassoc,
serve, recovery; `--oracle` selects a subset) over the whole pipeline on
both engines. `--array-weight PCT` tunes how often the generator emits
fixed-size-array constructs (0 disables them). The first violation is
shrunk to a minimal program and written to `--out` as a reproducer file,
which `--replay` re-checks.

Exit codes: 0 success, 2 usage error, 3 frontend/specialization error,
4 evaluation error, 5 cache-integrity violation, 6 write-ahead-log
writer crashed (restart with the same --wal to recover), 7 performance
regression (report --compare), 8 requests shed on a full queue, 9
requests exceeded their deadline, 10 requests rejected during drain.";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.code())
        }
    }
}

fn dispatch(raw: Vec<String>) -> Result<(), CliError> {
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" || raw[0] == "-h" {
        println!("{HELP}");
        return Ok(());
    }
    let args = parse(raw)?;
    match args.command.as_str() {
        "show" => cmd_show(&args),
        "labels" => cmd_labels(&args),
        "specialize" => cmd_specialize(&args),
        "run" => cmd_run(&args),
        "measure" => cmd_measure(&args),
        "explain" => cmd_explain(&args),
        "serve" => cmd_serve(&args),
        "report" => cmd_report(&args),
        "fuzz" => cmd_fuzz(&args),
        other => Err(CliError::Usage(format!(
            "unknown subcommand `{other}`; try `dsc help`"
        ))),
    }
}

fn load(args: &Args) -> Result<(Program, String), CliError> {
    let path = args.file()?;
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?;
    let program =
        ds_lang::parse_program(&source).map_err(|e| CliError::Frontend(e.render(&source)))?;
    ds_lang::typecheck(&program).map_err(|e| CliError::Frontend(e.render(&source)))?;
    Ok((program, source))
}

fn spec_options(args: &Args) -> Result<SpecializeOptions, UsageError> {
    let mut opts = SpecializeOptions::new();
    opts.reassociate = args.flag("reassociate");
    opts.speculate = args.flag("speculate");
    opts.cache_bound_bytes = args.bound()?;
    Ok(opts)
}

/// Writes `doc` (a versioned metrics envelope) to `path`, pretty-printed.
fn write_metrics(path: &str, doc: &Json) -> Result<(), UsageError> {
    std::fs::write(path, doc.pretty() + "\n")
        .map_err(|e| UsageError(format!("cannot write `{path}`: {e}")))
}

/// `profile` object pairs for an outcome, used by run/measure export.
fn profile_json(out: &ds_interp::Outcome) -> Json {
    out.profile
        .as_deref()
        .map(ds_interp::Profile::to_json)
        .unwrap_or(Json::Null)
}

fn cmd_show(args: &Args) -> Result<(), CliError> {
    let (program, _) = load(args)?;
    let entry = args.entry(&program)?;
    let proc = program
        .proc(entry)
        .ok_or_else(|| UsageError(format!("no procedure `{entry}`")))?;
    if args.flag("sexpr") {
        print!(
            "{}",
            ds_lang::sexpr::to_sexpr(proc, ds_lang::sexpr::SexprOptions { with_ids: true })
        );
    } else {
        print!("{}", ds_lang::print_proc(proc));
    }
    println!(
        "\n// {} parameter(s), {} AST node(s)",
        proc.params.len(),
        proc.node_count()
    );
    Ok(())
}

fn cmd_labels(args: &Args) -> Result<(), CliError> {
    let (program, _) = load(args)?;
    let entry = args.entry(&program)?.to_string();
    let vary = args.vary();
    if vary.is_empty() {
        return Err(CliError::Usage(
            "labels needs --vary (possibly with a dummy name)".into(),
        ));
    }

    // Mirror the specializer's pipeline so the labels match what
    // `specialize` would use.
    let mut prog = ds_analysis::inline_entry(&program, &entry)
        .map_err(|e| CliError::Frontend(e.to_string()))?;
    ds_analysis::insert_phis(&mut prog.procs[0]);
    prog.renumber();
    let types = ds_lang::typecheck(&prog).map_err(|e| CliError::Frontend(e.to_string()))?;
    let proc = &prog.procs[0];
    let ix = ds_analysis::TermIndex::build(proc);
    let rd = ds_analysis::reaching_defs(proc);
    let varying = vary.iter().cloned().collect();
    let dep = ds_analysis::analyze_dependence(proc, &varying);
    let solver = ds_analysis::CacheSolver::solve_with(
        &ix,
        &rd,
        &dep,
        &types,
        ds_analysis::CachingOptions {
            speculate: args.flag("speculate"),
        },
    );

    println!(
        "// labels for `{entry}` with varying {{{}}}\n",
        vary.join(", ")
    );
    let explain = args.flag("explain");
    proc.walk_exprs(&mut |e| {
        let label = solver.label(e.id);
        let dep_mark = if dep.is_dependent(e.id) {
            " (dependent)"
        } else {
            ""
        };
        println!("{label:>8}{dep_mark}  {}", ds_lang::print_expr(e));
        if explain && label != ds_analysis::Label::Static {
            for (term, reason) in solver.explain(e.id) {
                println!("              {term}: {reason}");
            }
        }
    });
    let (s, c, d) = solver.counts();
    println!("\n// {s} static, {c} cached, {d} dynamic");
    Ok(())
}

fn cmd_specialize(args: &Args) -> Result<(), CliError> {
    let (program, _) = load(args)?;
    let entry = args.entry(&program)?.to_string();
    let vary = args.vary();
    let opts = spec_options(args)?;
    let spec = specialize(
        &program,
        &entry,
        &InputPartition::varying(vary.iter().map(String::as_str)),
        &opts,
    )
    .map_err(|e| CliError::Frontend(e.to_string()))?;

    println!("// varying: {{{}}}", vary.join(", "));
    print!("{}", spec.layout);
    let s = &spec.stats;
    println!(
        "// fragment {} nodes -> loader {} + reader {} ({}x)",
        s.fragment_nodes,
        s.loader_nodes,
        s.reader_nodes,
        (s.loader_nodes + s.reader_nodes) as f64 / s.fragment_nodes as f64
    );
    if !s.evictions.is_empty() {
        println!("// cache limiting evicted {} term(s)", s.evictions.len());
    }
    println!();
    let show_all = !args.flag("loader") && !args.flag("reader");
    if show_all || args.flag("loader") {
        print!("{}", ds_lang::print_proc(&spec.loader));
        println!();
    }
    if show_all || args.flag("reader") {
        print!("{}", ds_lang::print_proc(&spec.reader));
    }
    Ok(())
}

fn cmd_measure(args: &Args) -> Result<(), CliError> {
    let (program, _) = load(args)?;
    let entry = args.entry(&program)?.to_string();
    let vary = args.vary();
    let values = args.values()?;
    let opts = spec_options(args)?;
    let spec = specialize(
        &program,
        &entry,
        &InputPartition::varying(vary.iter().map(String::as_str)),
        &opts,
    )
    .map_err(|e| CliError::Frontend(e.to_string()))?;

    let staged = spec.as_program();
    let engine = args.engine()?;
    let eval_opts = ds_interp::EvalOptions {
        profile: args.metrics_out().is_some(),
        ..ds_interp::EvalOptions::default()
    };
    let run = |what: &str, cache: Option<&mut ds_interp::CacheBuf>| {
        engine
            .run_program(&staged, what, &values, cache, eval_opts)
            .map_err(|e| CliError::Eval(format!("{what}: {e}")))
    };
    let orig = run(&entry, None)?;
    let mut cache = ds_interp::CacheBuf::new(spec.slot_count());
    let loader = run(&format!("{entry}__loader"), Some(&mut cache))?;
    let reader = run(&format!("{entry}__reader"), Some(&mut cache))?;
    if let (Some(a), Some(b)) = (&orig.value, &reader.value) {
        if !a.bits_eq(b) {
            return Err(CliError::Eval(format!(
                "reader result {b} differs from original {a} — this is a bug"
            )));
        }
    }

    println!("// varying: {{{}}}", vary.join(", "));
    println!("original cost:  {}", orig.cost);
    println!(
        "loader cost:    {}  ({:+.1}% overhead)",
        loader.cost,
        (loader.cost as f64 / orig.cost as f64 - 1.0) * 100.0
    );
    println!(
        "reader cost:    {}  ({:.2}x speedup)",
        reader.cost,
        orig.cost as f64 / reader.cost as f64
    );
    println!(
        "cache:          {} byte(s) in {} slot(s)",
        spec.cache_bytes(),
        spec.slot_count()
    );
    let breakeven = if reader.cost >= orig.cost {
        "never".to_string()
    } else {
        let n = (loader.cost as f64 - reader.cost as f64) / (orig.cost as f64 - reader.cost as f64);
        format!("{} uses", n.ceil().max(1.0) as u64)
    };
    println!("breakeven:      {breakeven}");
    match &orig.value {
        Some(v) => println!("result:         {v}"),
        None => println!("result:         (void)"),
    }
    if let Some(path) = args.metrics_out() {
        let doc = ds_telemetry::envelope(
            "measure",
            vec![
                ("entry".to_string(), Json::from(entry.as_str())),
                (
                    "varying".to_string(),
                    Json::Arr(vary.iter().map(|v| Json::from(v.as_str())).collect()),
                ),
                ("engine".to_string(), Json::from(engine.to_string())),
                (
                    "costs".to_string(),
                    Json::obj([
                        ("original", Json::from(orig.cost)),
                        ("loader", Json::from(loader.cost)),
                        ("reader", Json::from(reader.cost)),
                    ]),
                ),
                (
                    "profiles".to_string(),
                    Json::obj([
                        ("original", profile_json(&orig)),
                        ("loader", profile_json(&loader)),
                        ("reader", profile_json(&reader)),
                    ]),
                ),
                ("cache_bytes".to_string(), Json::from(spec.cache_bytes())),
                ("slots".to_string(), Json::from(spec.slot_count())),
                ("report".to_string(), spec.report.to_json()),
            ],
        );
        write_metrics(path, &doc)?;
        println!("metrics:        wrote {path}");
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), CliError> {
    let (program, _) = load(args)?;
    let entry = args.entry(&program)?.to_string();
    let vary = args.vary();
    if vary.is_empty() {
        return Err(CliError::Usage(
            "explain needs --vary (possibly with a dummy name)".into(),
        ));
    }
    let opts = spec_options(args)?.with_event_collection();
    let spec = specialize(
        &program,
        &entry,
        &InputPartition::varying(vary.iter().map(String::as_str)),
        &opts,
    )
    .map_err(|e| CliError::Frontend(e.to_string()))?;

    println!("// varying: {{{}}}", vary.join(", "));
    print!("{}", ds_core::explain_specialization(&spec));
    // Fusion rewrites the compiled bytecode, so the superinstruction
    // preview prints only under --engine vm; the golden test (which never
    // passes --engine) stays byte-exact.
    if args.engine()? == ds_interp::Engine::Vm {
        let mut compiled = ds_interp::compile(&spec.as_program());
        let hist = ds_interp::static_op_histogram(&compiled);
        let stats =
            ds_interp::fuse_hot_pairs(&mut compiled, &hist, ds_interp::DEFAULT_FUSION_TOP_K);
        println!(
            "// superinstructions: {} of {} candidate sites fused",
            stats.fused_sites, stats.candidate_sites
        );
        for pair in &stats.selected {
            println!(
                "//   fuse {}+{}  sites {}  score {}",
                pair.first, pair.second, pair.sites, pair.score
            );
        }
    }
    // Per-phase wall time goes to stderr: explain's stdout is pinned
    // byte-for-byte by the golden test, and the clock is nondeterministic.
    for p in &spec.report.phases {
        eprintln!(
            "phase {:<13} {}",
            format!("{}:", p.name),
            format_nanos(p.wall_nanos)
        );
    }
    eprintln!(
        "phase {:<13} {}",
        "total:",
        format_nanos(spec.report.total_wall_nanos())
    );
    if let Some(path) = args.metrics_out() {
        let (s, c, d) = spec.stats.label_counts;
        let doc = ds_telemetry::envelope(
            "explain",
            vec![
                ("entry".to_string(), Json::from(entry.as_str())),
                (
                    "varying".to_string(),
                    Json::Arr(vary.iter().map(|v| Json::from(v.as_str())).collect()),
                ),
                (
                    "labels".to_string(),
                    Json::obj([
                        ("static", Json::from(s)),
                        ("cached", Json::from(c)),
                        ("dynamic", Json::from(d)),
                    ]),
                ),
                ("cache_bytes".to_string(), Json::from(spec.cache_bytes())),
                ("slots".to_string(), Json::from(spec.slot_count())),
                ("report".to_string(), spec.report.to_json()),
            ],
        );
        write_metrics(path, &doc)?;
        println!("metrics: wrote {path}");
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let (program, _) = load(args)?;
    let entry = args.entry(&program)?;
    let values = args.values()?;
    let engine = args.engine()?;
    let opts = ds_interp::EvalOptions {
        profile: args.metrics_out().is_some(),
        ..ds_interp::EvalOptions::default()
    };
    let out = engine
        .run_program(&program, entry, &values, None, opts)
        .map_err(|e| CliError::Eval(e.to_string()))?;
    match &out.value {
        Some(v) => println!("result: {v}"),
        None => println!("result: (void)"),
    }
    println!("cost:   {}", out.cost);
    if !out.trace.is_empty() {
        println!("trace:  {:?}", out.trace);
    }
    if let Some(path) = args.metrics_out() {
        let doc = ds_telemetry::envelope(
            "run",
            vec![
                ("entry".to_string(), Json::from(entry)),
                ("engine".to_string(), Json::from(engine.to_string())),
                ("cost".to_string(), Json::from(out.cost)),
                ("profile".to_string(), profile_json(&out)),
            ],
        );
        write_metrics(path, &doc)?;
        println!("metrics: wrote {path}");
    }
    Ok(())
}

/// What both serve modes set up before the daemon starts: the specialized
/// artifact, the shared polyvariant store, WAL recovery (with group
/// commit), cache-file adoption and deterministic fault arming.
struct ServeSetup {
    entry: String,
    vary: Vec<String>,
    engine: ds_interp::Engine,
    policy: ds_runtime::Policy,
    ropts: ds_runtime::RunnerOptions,
    artifact: Arc<StagedArtifact>,
    store: Arc<CacheStore>,
    wal: Option<Arc<ds_runtime::Wal>>,
    bootstrap: Session,
    mem_fault: Option<Fault>,
    seed: u64,
    /// Integrity violations found during setup (rejected cache file or
    /// checkpoint), already counted toward the exit classification.
    integrity_errors: u64,
}

/// Maps the serve outcome counters onto the classified exit codes, most
/// severe first: crashed writer > integrity > evaluation > shed requests
/// > missed deadlines > drain rejections > success.
fn serve_exit(
    crashed: bool,
    integrity_errors: u64,
    eval_errors: u64,
    shed: u64,
    deadline_missed: u64,
    drain_rejected: u64,
) -> Result<(), CliError> {
    if crashed {
        Err(CliError::Crashed(
            "write-ahead-log writer crashed; restart with the same --wal to recover".into(),
        ))
    } else if integrity_errors > 0 {
        Err(CliError::Integrity(format!(
            "{integrity_errors} cache-integrity violation(s) during serve"
        )))
    } else if eval_errors > 0 {
        Err(CliError::Eval(format!(
            "{eval_errors} request(s) failed during serve"
        )))
    } else if shed > 0 {
        Err(CliError::Overload(format!(
            "{shed} request(s) shed on a full queue"
        )))
    } else if deadline_missed > 0 {
        Err(CliError::Deadline(format!(
            "{deadline_missed} request(s) exceeded their deadline"
        )))
    } else if drain_rejected > 0 {
        Err(CliError::Drain(format!(
            "{drain_rejected} request(s) rejected during drain"
        )))
    } else {
        Ok(())
    }
}

/// Store capacity when `--store-capacity` is not given.
const DEFAULT_STORE_CAPACITY: usize = 16;

/// Applies an injected file fault (`corrupt-file`, `truncate-file`) to
/// the persisted `text` read from `path`; any other fault leaves it as is.
fn inject_file_fault(inject: Option<Fault>, seed: u64, path: &str, text: String) -> String {
    let Some(fault) = inject.filter(Fault::is_file_fault) else {
        return text;
    };
    let mut inj = FaultInjector::new(seed);
    let text = match fault {
        Fault::TruncateFile => inj.truncate_text(&text),
        _ => inj.corrupt_text(&text),
    };
    println!("inject: applied {fault} to `{path}` (seed {seed})");
    text
}

fn serve_setup(args: &Args) -> Result<ServeSetup, CliError> {
    let (program, _) = load(args)?;
    let entry = args.entry(&program)?.to_string();
    let vary = args.vary();
    if vary.is_empty() {
        return Err(CliError::Usage("serve needs --vary".into()));
    }
    let opts = spec_options(args)?;
    let partition = InputPartition::varying(vary.iter().map(String::as_str));
    let spec = specialize(&program, &entry, &partition, &opts)
        .map_err(|e| CliError::Frontend(e.to_string()))?;

    let engine = args.engine()?;
    let policy = args.policy()?;
    let mut ropts = ds_runtime::RunnerOptions {
        engine,
        policy,
        ..ds_runtime::RunnerOptions::default()
    };
    if let Some(budget) = args.rebuild_budget()? {
        ropts.rebuild_budget = budget;
    }
    ropts.eval.profile = args.metrics_out().is_some();

    // The immutable artifact and the polyvariant store are shared by every
    // session; each worker owns only its VM and working buffer.
    let artifact = Arc::new(StagedArtifact::new(&spec, &partition));
    let store = Arc::new(CacheStore::new(
        args.store_capacity()?.unwrap_or(DEFAULT_STORE_CAPACITY),
    ));

    let inject = args.inject()?;
    let seed = args.seed()?;
    let mut integrity_errors = 0u64;

    // A bootstrap session adopts a persisted cache into the shared store;
    // file faults damage its text before validation, which must then
    // reject it.
    let mut bootstrap = Session::new(Arc::clone(&artifact), Arc::clone(&store), ropts);

    // With `--wal` the durable state is checkpoint + log: recover it
    // (degrading past a damaged checkpoint to a log-only replay), install
    // the result, and reopen the log at the recovered LSN. The plain
    // `--cache-file` adoption below is skipped — the checkpoint *is* the
    // cache file in this mode.
    let wal: Option<Arc<ds_runtime::Wal>> = match args.wal() {
        None => {
            if let Some(f) = inject.filter(Fault::is_wal_fault) {
                return Err(CliError::Usage(format!(
                    "fault `{f}` strikes the write-ahead log; pass --wal PATH"
                )));
            }
            if args.group_commit()?.is_some() {
                return Err(CliError::Usage(
                    "--group-commit batches write-ahead-log flushes; pass --wal PATH".into(),
                ));
            }
            None
        }
        Some(wal_path) => {
            let ckpt_path = args
                .cache_file()
                .map(String::from)
                .unwrap_or_else(|| format!("{wal_path}.checkpoint"));
            let log_text = std::fs::read_to_string(wal_path).unwrap_or_default();
            let ckpt_text = std::fs::read_to_string(&ckpt_path)
                .ok()
                .map(|text| inject_file_fault(inject, seed, &ckpt_path, text));
            let (rec, ckpt_err) =
                ds_runtime::recover_or_degrade(ckpt_text.as_deref(), &log_text, artifact.layout());
            if let Some(e) = ckpt_err {
                integrity_errors += 1;
                println!("wal: rejected checkpoint `{ckpt_path}`: {e}");
            }
            bootstrap.adopt_recovery(&rec);
            println!("wal: {}", rec.summary());
            let storage = ds_runtime::FileWalStorage::new(wal_path, &ckpt_path);
            let wal = Arc::new(ds_runtime::Wal::open(
                Box::new(storage),
                artifact.layout_fingerprint(),
                rec.next_lsn,
                args.checkpoint_every()?,
            ));
            if let Some(window) = args.group_commit()? {
                wal.set_group_commit(window);
                println!("wal: group-commit window of {window} append(s)");
            }
            if rec.damaged_tail {
                // Drop the torn tail now, so new appends extend the valid
                // history instead of hiding behind garbage.
                wal.reset_log(&log_text[..rec.valid_log_bytes])
                    .map_err(|e| CliError::Usage(format!("cannot rewrite `{wal_path}`: {e}")))?;
            }
            if let Some(fault) = inject.filter(Fault::is_wal_fault) {
                wal.arm(fault).map_err(CliError::Usage)?;
                println!("inject: armed {fault} on the write-ahead log");
            }
            bootstrap.attach_wal(Arc::clone(&wal));
            Some(wal)
        }
    };

    if wal.is_none() {
        if let Some(path) = args.cache_file() {
            if let Ok(text) = std::fs::read_to_string(path) {
                let text = inject_file_fault(inject, seed, path, text);
                match bootstrap.load_cache_text(&text) {
                    Ok(()) => println!("cache: adopted `{path}` (warm start)"),
                    Err(e) => {
                        integrity_errors += 1;
                        println!("cache: rejected `{path}`: {e}");
                    }
                }
            }
        }
    }
    let mem_fault = inject.filter(|f| !f.is_file_fault() && !f.is_wal_fault());
    if let Some(fault) = mem_fault {
        println!("inject: armed {fault} (seed {seed})");
    }

    Ok(ServeSetup {
        entry,
        vary,
        engine,
        policy,
        ropts,
        artifact,
        store,
        wal,
        bootstrap,
        mem_fault,
        seed,
        integrity_errors,
    })
}

/// Flushes stdout after every response line: the daemon's consumers read
/// a pipe (block-buffered by default), and an answer that sits in a
/// buffer is an answer not yet served.
fn flush_stdout() {
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// Registers a dependency-free SIGTERM handler flipping a static flag: a
/// raw `signal(2)` registration against libc, which is always linked.
/// glibc installs handlers with `SA_RESTART`, so the stdin read resumes
/// rather than failing with EINTR — the serve loop therefore polls this
/// flag from its response loop instead of relying on an interrupted read.
#[cfg(unix)]
fn install_term_flag() -> &'static std::sync::atomic::AtomicBool {
    use std::sync::atomic::AtomicBool;
    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_term(_sig: i32) {
        // Only an atomic store: the one async-signal-safe thing we need.
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
    &TERM
}

#[cfg(not(unix))]
fn install_term_flag() -> &'static std::sync::atomic::AtomicBool {
    use std::sync::atomic::AtomicBool;
    static TERM: AtomicBool = AtomicBool::new(false);
    &TERM
}

/// `dsc serve`: specialize once, then serve requests through the
/// [`Daemon`] — the full cache lifecycle (staleness detection, integrity
/// validation, policy-driven degradation, optional injected fault) on
/// `--workers` threads, each running its own [`Session`] over the shared
/// artifact and polyvariant store. The two modes differ only in where
/// requests come from and in print order:
///
/// * `--requests PATH` parses the whole file first (a bad line is a usage
///   error, never a half-served stream), submits each request with its
///   0-based index as sequence number, drains at end of file and prints
///   the answers in file order. The mode fixes the daemon's settings:
///   admission `always`, no deadline, and a queue as long as the file, so
///   nothing is shed.
/// * `--listen` reads requests from stdin on its own thread and prints
///   answers in completion order, tagged with their arrival number; EOF
///   or SIGTERM drains gracefully.
///
/// Both end the same way: one stats block, the trace file, the `serve`
/// envelope, checkpoint or cache-file persistence, and an exit code for
/// the worst thing that happened (see [`serve_exit`]).
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let listen = args.flag("listen");
    let requests_file = match (listen, args.requests()) {
        (true, Some(_)) => {
            return Err(CliError::Usage(
                "--listen reads requests from stdin; drop --requests".into(),
            ))
        }
        (true, None) => None,
        (false, None) => {
            return Err(CliError::Usage(
                "serve needs --requests PATH (or --listen)".into(),
            ))
        }
        (false, Some(path)) => Some((
            path,
            std::fs::read_to_string(path)
                .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?,
        )),
    };
    let ServeSetup {
        entry,
        vary,
        engine,
        policy,
        ropts,
        artifact,
        store,
        wal,
        bootstrap,
        mem_fault,
        seed,
        mut integrity_errors,
    } = serve_setup(args)?;
    let requests = requests_file
        .map(|(path, text)| parse_requests(path, &text))
        .transpose()?;
    let workers = args.workers()?;
    let tracing = args.trace_out().is_some();
    let cfg = match &requests {
        Some(reqs) => DaemonConfig {
            workers,
            max_queue: reqs.len().max(1),
            deadline_ms: None,
            admission: Admission::Always,
            runner: ropts,
            tracing,
        },
        None => DaemonConfig {
            workers,
            max_queue: args.max_queue()?,
            deadline_ms: args.deadline_ms()?,
            admission: args.admission()?,
            runner: ropts,
            tracing,
        },
    };
    let stats_every = args.stats_every()?;
    // The bootstrap session only contributed recovery/adoption
    // bookkeeping; the daemon's workers own their sessions.
    let bootstrap_stats = bootstrap.stats().clone();
    drop(bootstrap);

    let varying = vary.join(", ");
    if requests.is_some() {
        println!(
            "serving `{entry}` (engine {engine}, policy {policy}, varying {{{varying}}}, \
             workers {workers}, store capacity {})",
            store.capacity(),
        );
    } else {
        println!(
            "listening: `{entry}` (engine {engine}, policy {policy}, varying {{{varying}}}, \
             workers {workers}, queue {}, deadline {}, admission {})",
            cfg.max_queue,
            cfg.deadline_ms
                .map_or("none".to_string(), |d| format!("{d} ms")),
            cfg.admission,
        );
    }
    flush_stdout();

    // SIGTERM drains an online serve. A file serve keeps the default
    // action: every request is already queued before the first answer.
    let term = listen.then(install_term_flag);
    let terminated = || term.is_some_and(|t| t.load(Ordering::SeqCst));
    let serve_started = Instant::now();
    let (daemon, rx) = Daemon::start(Arc::clone(&artifact), Arc::clone(&store), wal.clone(), cfg);
    let daemon = Arc::new(daemon);
    // An armed in-memory fault strikes the first request.
    let first_fault = mem_fault.map(|f| (f, seed));
    let total = requests.as_ref().map(|r| r.len() as u64);
    // File mode keeps each answer line until the drain, to print them in
    // file order; listen mode prints each as it completes.
    let mut in_file_order: Vec<Option<String>> = vec![None; total.unwrap_or(0) as usize];
    match requests {
        Some(requests) => {
            for (i, values) in requests.into_iter().enumerate() {
                let fault = if i == 0 { first_fault } else { None };
                if let Err(e) = daemon.submit(i as u64, values, fault) {
                    in_file_order[i] = Some(format!("[{}] error: {e}", i + 1));
                }
            }
            daemon.drain();
        }
        None => read_stdin_requests(Arc::clone(&daemon), first_fault),
    }

    // Response loop, watching the SIGTERM flag between messages. The
    // channel disconnects when the last worker exits after the drain —
    // the natural end of the serve.
    let mut served = 0u64;
    let mut eval_errors = 0u64;
    let mut crashed = false;
    loop {
        if terminated() {
            daemon.drain();
        }
        let resp = match rx.recv_timeout(std::time::Duration::from_millis(50)) {
            Ok(resp) => resp,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        };
        served += 1;
        match &resp.result {
            Err(RuntimeError::Integrity(_)) => integrity_errors += 1,
            Err(RuntimeError::Eval(_) | RuntimeError::RebuildBudgetExhausted { .. }) => {
                eval_errors += 1
            }
            Err(RuntimeError::Wal(_)) => crashed = true,
            // Deadline misses and admission rejections are counted by the
            // daemon's counters.
            _ => {}
        }
        if listen {
            println!("{}", response_line(resp.seq, &resp));
            flush_stdout();
        } else {
            in_file_order[resp.seq as usize] = Some(response_line(resp.seq + 1, &resp));
        }
        if let Some(every) = stats_every {
            if served.is_multiple_of(every) || Some(served) == total {
                let rate = served as f64 / serve_started.elapsed().as_secs_f64().max(1e-9);
                match total {
                    Some(total) => eprintln!("serve: {served}/{total} requests ({rate:.0} req/s)"),
                    None => eprintln!("serve: {served} response(s) ({rate:.0} req/s)"),
                }
            }
        }
    }
    let report = daemon.join();
    let wall = serve_started.elapsed();
    for line in in_file_order.into_iter().flatten() {
        println!("{line}");
    }
    if wal.as_ref().is_some_and(|w| w.is_crashed()) {
        crashed = true;
    }

    let mut st = bootstrap_stats;
    st.merge(&report.stats);
    let timing = &report.timing;
    let counters = &report.counters;
    let throughput = st.requests as f64 / wall.as_secs_f64().max(1e-9);

    println!("---");
    println!(
        "drained: {} ({served} response(s) in {:.1} ms)",
        if terminated() {
            "SIGTERM"
        } else {
            "end of input"
        },
        wall.as_secs_f64() * 1e3,
    );
    println!("requests:            {}", st.requests);
    println!("loads:               {}", st.loads);
    println!("stale reloads:       {}", st.stale_reloads);
    println!("reader failures:     {}", st.reader_failures);
    println!("rebuilds:            {}", st.rebuilds());
    println!("fallbacks:           {}", st.fallbacks());
    println!("validation failures: {}", st.validation_failures());
    println!("store hits:          {}", st.store_hits());
    println!("store misses:        {}", st.store_misses());
    println!("store evictions:     {}", st.store_evictions());
    if wal.is_some() {
        println!("wal appends:         {}", st.wal_appends());
        println!("wal replays:         {}", st.wal_replays());
        println!("recovered caches:    {}", st.recovered_caches());
    }
    println!("admitted:            {}", counters.admitted());
    println!("shed (overload):     {}", counters.shed());
    println!("drain rejections:    {}", counters.drain_rejected());
    println!("deadline misses:     {}", counters.deadline_missed());
    println!("peak queue depth:    {}", counters.peak_queue_depth());
    println!("staged serves:       {}", counters.staged_serves());
    println!("unspecialized:       {}", counters.unspec_serves());
    let blocks = &report.blocks;
    if blocks.blocks > 0 {
        println!(
            "lockstep:            {} request(s) read, {} loaded in {} block(s); sent back: {} \
             miss, {} latched, {} seal, {} reader error, {} fault, {} unadmitted; {} lane(s) \
             resumed at a branch, {} left on a type disagreement",
            blocks.lockstep_lanes,
            blocks.lockstep_loads,
            blocks.blocks,
            blocks.miss,
            blocks.latched,
            blocks.seal,
            blocks.reader_error,
            blocks.fault,
            blocks.unadmitted,
            blocks.engine.resumed_lanes,
            blocks.engine.type_exits,
        );
    }
    match report.breakeven {
        None => {}
        Some(None) => println!("breakeven:           never (specialization does not pay)"),
        Some(Some(b)) => println!("breakeven:           {b} use(s)"),
    }
    // Latency is a side-channel beside the stats: the numbers are
    // wall-clock and therefore nondeterministic, so they never enter the
    // `stats` document the parity suites compare.
    if !timing.total.is_empty() {
        println!("latency end-to-end:  {}", timing.total);
        for (stage, hist) in &timing.stages {
            println!("latency {:<12} {hist}", format!("{stage}:"));
        }
        println!(
            "throughput:          {throughput:.0} req/s ({} requests in {:.1} ms)",
            st.requests,
            wall.as_secs_f64() * 1e3,
        );
    }

    if let Some(path) = args.trace_out() {
        let header = ds_telemetry::envelope(
            "trace",
            vec![
                ("entry".to_string(), Json::from(entry.as_str())),
                ("engine".to_string(), Json::from(engine.to_string())),
                ("policy".to_string(), Json::from(policy.to_string())),
                ("workers".to_string(), Json::from(workers as u64)),
                ("events".to_string(), Json::from(report.traces.len())),
            ],
        );
        let mut text = header.compact();
        text.push('\n');
        for t in &report.traces {
            text.push_str(&t.to_json().compact());
            text.push('\n');
        }
        std::fs::write(path, text)
            .map_err(|e| CliError::Usage(format!("cannot write `{path}`: {e}")))?;
        println!("trace: wrote {path} ({} event(s))", report.traces.len());
    }

    if let Some(path) = args.metrics_out() {
        let breakeven_json = match report.breakeven {
            None => Json::Null,
            Some(None) => Json::from("never"),
            Some(Some(b)) => Json::from(u64::from(b)),
        };
        let doc = ds_telemetry::envelope(
            "serve",
            vec![
                ("entry".to_string(), Json::from(entry.as_str())),
                (
                    "varying".to_string(),
                    Json::Arr(vary.iter().map(|v| Json::from(v.as_str())).collect()),
                ),
                ("engine".to_string(), Json::from(engine.to_string())),
                ("policy".to_string(), Json::from(policy.to_string())),
                ("workers".to_string(), Json::from(workers as u64)),
                (
                    "store_capacity".to_string(),
                    Json::from(store.capacity() as u64),
                ),
                ("stats".to_string(), st.to_json()),
                (
                    "worker_stats".to_string(),
                    Json::Arr(
                        report
                            .worker_stats
                            .iter()
                            .map(RunnerStats::to_json)
                            .collect(),
                    ),
                ),
                ("wall_ms".to_string(), Json::from(wall.as_secs_f64() * 1e3)),
                ("throughput_rps".to_string(), Json::from(throughput)),
                ("latency".to_string(), timing.to_json()),
                (
                    "worker_latency".to_string(),
                    Json::Arr(report.worker_timing.iter().map(Timing::to_json).collect()),
                ),
                (
                    "daemon".to_string(),
                    Json::obj(
                        [
                            ("admission", Json::from(cfg.admission.to_string())),
                            ("max_queue", Json::from(cfg.max_queue as u64)),
                            (
                                "deadline_ms",
                                cfg.deadline_ms.map_or(Json::Null, Json::from),
                            ),
                            ("breakeven", breakeven_json),
                            ("counters", counters.to_json()),
                        ]
                        .into_iter()
                        .chain(report.blocks.json_fields()),
                    ),
                ),
            ],
        );
        write_metrics(path, &doc)?;
        println!("metrics: wrote {path}");
    }

    // Persist every validated store entry for the next invocation. In WAL
    // mode a clean exit compacts everything into a checkpoint; a crashed
    // writer leaves its log exactly as the crash left it, for recovery.
    if let Some(w) = &wal {
        if w.is_crashed() {
            println!("wal: writer crashed; log left on disk for recovery on restart");
        } else {
            w.checkpoint(&store)
                .map_err(|e| CliError::Usage(format!("cannot checkpoint at exit: {e}")))?;
            println!("wal: checkpointed store at exit");
        }
    } else if let Some(path) = args.cache_file() {
        let snapshot = store.snapshot();
        if snapshot.is_empty() {
            println!("cache: cold at exit; `{path}` not written");
        } else {
            let entries: Vec<(u64, ds_interp::CacheBuf)> = snapshot
                .into_iter()
                .map(|(fp, entry)| (fp, entry.cache))
                .collect();
            let text = ds_runtime::save_store(&entries, artifact.layout_fingerprint());
            std::fs::write(path, text)
                .map_err(|e| CliError::Usage(format!("cannot write `{path}`: {e}")))?;
            println!("cache: wrote `{path}`");
        }
    }
    flush_stdout();

    serve_exit(
        crashed,
        integrity_errors,
        eval_errors,
        counters.shed(),
        counters.deadline_missed(),
        counters.drain_rejected(),
    )
}

/// Parses a requests file: one `--args`-style vector per line, blank lines
/// and `#` comments skipped.
fn parse_requests(path: &str, text: &str) -> Result<Vec<Vec<Value>>, CliError> {
    let mut requests = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        requests.push(
            parse_value_list(line)
                .map_err(|e| CliError::Usage(format!("`{path}` line {}: {e}", lineno + 1)))?,
        );
    }
    Ok(requests)
}

/// One answer line, `[n] result: ...` or `[n] error: ...`; requests the
/// admission policy served unspecialized are marked as such.
fn response_line(n: u64, resp: &DaemonResponse) -> String {
    match &resp.result {
        Ok(out) => {
            let suffix = if resp.specialized {
                ""
            } else {
                "  (unspecialized)"
            };
            match &out.value {
                Some(v) => format!("[{n}] result: {v}  (cost {}){suffix}", out.cost),
                None => format!("[{n}] result: (void)  (cost {}){suffix}", out.cost),
            }
        }
        Err(e) => format!("[{n}] error: {e}"),
    }
}

/// Starts the `--listen` reader thread: it parses stdin and submits each
/// request under its 1-based arrival number. Parse errors and admission
/// rejections (shed, draining) are printed here, so the response channel
/// only ever carries executed requests. On EOF it starts the drain. It is
/// deliberately never joined: after SIGTERM it may still be parked in a
/// (restarted) stdin read, and process exit reaps it.
fn read_stdin_requests(daemon: Arc<Daemon>, mut fault: Option<(Fault, u64)>) {
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut line = String::new();
        let mut n = 0u64;
        loop {
            line.clear();
            match stdin.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            n += 1;
            let submitted = parse_value_list(trimmed)
                .map_err(|e| e.to_string())
                .and_then(|values| {
                    daemon
                        .submit(n, values, fault.take())
                        .map_err(|e| e.to_string())
                });
            if let Err(e) = submitted {
                println!("[{n}] error: {e}");
                flush_stdout();
            }
        }
        daemon.drain();
    });
}

/// `dsc report`: render ds-telemetry files (serve metrics, trace JSONL,
/// BENCH_*.json) as human-readable summaries, or `--compare OLD NEW` to
/// diff two envelopes and gate on performance regressions (exit 7).
fn cmd_report(args: &Args) -> Result<(), CliError> {
    let mut out = Report(None);
    let rendered = report(&mut out, args);
    match out.0 {
        Some(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::Usage(format!("cannot write the report: {e}")))
        }
        _ => rendered,
    }
}

/// `dsc report`'s stdout. `println!` panics once the reader closes the
/// pipe (`dsc report FILE | head`); this writer keeps the first write
/// error and drops the rest of the report quietly.
struct Report(Option<std::io::Error>);

impl Report {
    fn line(&mut self, line: fmt::Arguments<'_>) {
        if self.0.is_none() {
            self.0 = writeln!(std::io::stdout(), "{line}").err();
        }
    }
}

/// Writes one line of a report, like `println!`.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        $out.line(format_args!($($arg)*))
    };
}

fn report(out: &mut Report, args: &Args) -> Result<(), CliError> {
    if args.flag("compare") {
        let threshold = args.threshold()?;
        if args.positional.len() != 2 {
            return Err(CliError::Usage(
                "report --compare needs exactly two files: OLD NEW".into(),
            ));
        }
        return report_compare(out, &args.positional[0], &args.positional[1], threshold);
    }
    if args.positional.is_empty() {
        return Err(CliError::Usage(
            "report needs at least one telemetry file; see `dsc help`".into(),
        ));
    }
    for (i, path) in args.positional.iter().enumerate() {
        if i > 0 {
            outln!(out, "");
        }
        report_file(out, path)?;
    }
    Ok(())
}

/// Summarizes one telemetry file: a single-document envelope, or a JSONL
/// trace stream (header envelope line + one event per line).
fn report_file(out: &mut Report, path: &str) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?;
    outln!(out, "== {path} ==");
    match ds_telemetry::parse(&text) {
        Ok(doc) => report_doc(out, path, &doc),
        Err(_) => report_trace_jsonl(out, path, &text),
    }
}

fn report_doc(out: &mut Report, path: &str, doc: &Json) -> Result<(), CliError> {
    let kind = ds_telemetry::validate_envelope(doc)
        .map_err(|e| CliError::Usage(format!("`{path}` is not a valid envelope: {e}")))?;
    outln!(out, "kind: {kind}");
    if kind == "serve" {
        report_serve_summary(out, doc);
    }
    let mut leaves = Vec::new();
    collect_numeric_leaves(doc, "", &mut leaves);
    let width = leaves.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
    for (p, v) in &leaves {
        outln!(out, "  {p:<width$}  {}", render_metric(p, *v));
    }
    Ok(())
}

/// The derived serve headline: throughput, hit rate, WAL overhead and
/// end-to-end/per-stage percentiles, ahead of the raw leaf table.
fn report_serve_summary(out: &mut Report, doc: &Json) {
    let stat = |name: &str| -> f64 {
        doc.get("stats")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let requests = stat("requests");
    if let (Some(wall), Some(rps)) = (
        doc.get("wall_ms").and_then(Json::as_f64),
        doc.get("throughput_rps").and_then(Json::as_f64),
    ) {
        outln!(
            out,
            "  {requests:.0} request(s) in {wall:.1} ms ({rps:.0} req/s)"
        );
    }
    let hits = stat("store_hits");
    let probes = hits + stat("store_misses");
    if probes > 0.0 {
        outln!(out,
            "  store hit rate: {:.1}% ({hits:.0}/{probes:.0} probes), {:.0} load(s), {:.0} fallback(s)",
            100.0 * hits / probes,
            stat("loads"),
            stat("fallbacks"),
        );
    }
    if stat("wal_appends") > 0.0 {
        outln!(
            out,
            "  wal: {:.0} append(s), {:.0} replay(s), {:.0} recovered cache(s)",
            stat("wal_appends"),
            stat("wal_replays"),
            stat("recovered_caches"),
        );
    }
    if let Some(latency) = doc.get("latency") {
        if let Ok(timing) = Timing::from_json(latency) {
            if !timing.total.is_empty() {
                outln!(out, "  latency end-to-end:  {}", timing.total);
                for (stage, hist) in &timing.stages {
                    outln!(out, "  latency {:<12} {hist}", format!("{stage}:"));
                }
            }
        }
    }
}

/// Summarizes a `--trace-out` JSONL stream: outcome counts plus an
/// end-to-end latency histogram rebuilt from the per-event totals.
fn report_trace_jsonl(out: &mut Report, path: &str, text: &str) -> Result<(), CliError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| CliError::Usage(format!("`{path}` is empty")))
        .and_then(|line| {
            ds_telemetry::parse(line)
                .map_err(|e| CliError::Usage(format!("`{path}` has no envelope header: {e}")))
        })?;
    let kind = ds_telemetry::validate_envelope(&header)
        .map_err(|e| CliError::Usage(format!("`{path}` is not a valid envelope: {e}")))?;
    if kind != "trace" {
        return Err(CliError::Usage(format!(
            "`{path}` is neither a JSON document nor a trace stream (kind `{kind}`)"
        )));
    }
    outln!(out, "kind: trace");
    let mut hist = LatencyHist::new();
    let mut outcomes: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = ds_telemetry::parse(line).map_err(|e| {
            CliError::Usage(format!("`{path}` line {}: bad trace event: {e}", i + 2))
        })?;
        if let Some(n) = ev.get("total_nanos").and_then(Json::as_u64) {
            hist.record(n);
        }
        events.push(ev);
    }
    for ev in &events {
        if let Some(o) = ev.get("outcome").and_then(Json::as_str) {
            *outcomes.entry(o).or_default() += 1;
        }
    }
    outln!(out, "  {} event(s)", events.len());
    for (outcome, n) in &outcomes {
        outln!(out, "  outcome {outcome:<10} {n}");
    }
    if !hist.is_empty() {
        outln!(out, "  latency end-to-end:  {hist}");
    }
    Ok(())
}

/// Flattens every numeric field of `doc` into `(dotted.path, value)`
/// pairs, in document order. Histogram buckets, decision-event arrays
/// and the per-worker subtrees are skipped — the former are raw
/// payloads, and the latter depend on how the stream was partitioned.
fn collect_numeric_leaves(doc: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    match doc {
        Json::Num(n) => out.push((prefix.to_string(), *n)),
        Json::Obj(fields) => {
            for (k, v) in fields {
                if k == "hist" || k == "events" || k == "worker_stats" || k == "worker_latency" {
                    continue;
                }
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                collect_numeric_leaves(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                collect_numeric_leaves(v, &format!("{prefix}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Renders one leaf value, humanizing durations named `*_nanos`.
fn render_metric(path: &str, v: f64) -> String {
    if path.rsplit('.').next().unwrap_or(path).contains("nanos") && v >= 0.0 {
        format!("{v} ({})", format_nanos(v as u64))
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// How to judge a metric's movement between two envelopes.
#[derive(Clone, Copy, PartialEq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
}

/// Infers the improvement direction from the metric's path, or `None`
/// for counters and identifiers that `--compare` should not judge.
fn direction_of(path: &str) -> Option<Direction> {
    let lower = ["nanos", "elapsed", "overhead", "_ms", "wall_ms", "latency"];
    let higher = ["speedup", "throughput", "rps"];
    let p = path.to_ascii_lowercase();
    if lower.iter().any(|k| p.contains(k)) {
        Some(Direction::LowerIsBetter)
    } else if higher.iter().any(|k| p.contains(k)) {
        Some(Direction::HigherIsBetter)
    } else {
        None
    }
}

/// `dsc report --compare OLD NEW`: diff the performance metrics of two
/// envelopes; any metric moving the wrong way by more than `threshold`
/// (relative) is a regression and the process exits 7.
fn report_compare(
    out: &mut Report,
    old_path: &str,
    new_path: &str,
    threshold: f64,
) -> Result<(), CliError> {
    let load_doc = |path: &str| -> Result<Json, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?;
        // A JSONL trace compares by its header envelope only.
        let first = text.lines().next().unwrap_or("");
        let doc = ds_telemetry::parse(&text)
            .or_else(|_| ds_telemetry::parse(first))
            .map_err(|e| CliError::Usage(format!("cannot parse `{path}`: {e}")))?;
        ds_telemetry::validate_envelope(&doc)
            .map_err(|e| CliError::Usage(format!("`{path}` is not a valid envelope: {e}")))?;
        Ok(doc)
    };
    let old = load_doc(old_path)?;
    let new = load_doc(new_path)?;
    let old_kind = old.get("kind").and_then(Json::as_str).unwrap_or("?");
    let new_kind = new.get("kind").and_then(Json::as_str).unwrap_or("?");
    if old_kind != new_kind {
        eprintln!("warning: comparing kind `{old_kind}` against kind `{new_kind}`");
    }

    let mut old_leaves = Vec::new();
    let mut new_leaves = Vec::new();
    collect_numeric_leaves(&old, "", &mut old_leaves);
    collect_numeric_leaves(&new, "", &mut new_leaves);
    let old_map: std::collections::BTreeMap<&str, f64> =
        old_leaves.iter().map(|(p, v)| (p.as_str(), *v)).collect();

    outln!(
        out,
        "== compare {old_path} -> {new_path} (threshold {:.0}%) ==",
        threshold * 100.0
    );
    let mut regressions: Vec<String> = Vec::new();
    let mut compared = 0usize;
    for (path, new_v) in &new_leaves {
        let Some(dir) = direction_of(path) else {
            continue;
        };
        let Some(&old_v) = old_map.get(path.as_str()) else {
            continue;
        };
        // Sub-resolution timings make ratios meaningless; skip them.
        if old_v <= 0.0 {
            continue;
        }
        compared += 1;
        let change = new_v / old_v - 1.0;
        let regressed = match dir {
            Direction::LowerIsBetter => change > threshold,
            Direction::HigherIsBetter => change < -threshold,
        };
        let improved = match dir {
            Direction::LowerIsBetter => change < -threshold,
            Direction::HigherIsBetter => change > threshold,
        };
        if regressed {
            let line = format!(
                "REGRESSION  {path}: {} -> {} ({:+.1}%)",
                render_metric(path, old_v),
                render_metric(path, *new_v),
                change * 100.0
            );
            outln!(out, "{line}");
            regressions.push(line);
        } else if improved {
            outln!(
                out,
                "improved    {path}: {} -> {} ({:+.1}%)",
                render_metric(path, old_v),
                render_metric(path, *new_v),
                change * 100.0
            );
        }
    }
    if regressions.is_empty() {
        outln!(
            out,
            "ok: no regression beyond {:.0}% across {compared} metric(s)",
            threshold * 100.0
        );
        Ok(())
    } else {
        Err(CliError::Regression(format!(
            "{} metric(s) regressed beyond {:.0}%",
            regressions.len(),
            threshold * 100.0
        )))
    }
}

/// `dsc fuzz`: run a conformance-fuzzing campaign, or `--replay` a
/// reproducer file.
fn cmd_fuzz(args: &Args) -> Result<(), CliError> {
    if !args.positional.is_empty() {
        return Err(CliError::Usage(
            "fuzz takes no positional arguments; see `dsc help`".into(),
        ));
    }
    if let Some(path) = args.replay() {
        return replay_reproducer(args, path);
    }
    let config = ds_gen::FuzzConfig {
        seed: args.seed()?,
        cases: args.cases()?,
        oracles: args.oracles()?,
        profile: ds_gen::GenProfile {
            array_weight: args.array_weight()?,
        },
    };
    let oracle_names: Vec<&str> = config.oracles.iter().map(|o| o.name()).collect();
    println!(
        "fuzz: seed {}, {} case(s), oracles: {}, array weight {}%",
        config.seed,
        config.cases,
        oracle_names.join(", "),
        config.profile.array_weight
    );
    let every = (config.cases / 10).max(1);
    match ds_gen::run_fuzz(&config, |done, total| {
        if done % every == 0 || done == total {
            println!("fuzz: {done}/{total} cases clean");
        }
    }) {
        Ok(summary) => {
            println!(
                "fuzz: PASS — {} case(s), {} oracle check(s), no violations",
                summary.cases, summary.checks
            );
            Ok(())
        }
        Err(failure) => {
            let out = args.out();
            std::fs::write(out, failure.reproducer())
                .map_err(|e| CliError::Usage(format!("cannot write `{out}`: {e}")))?;
            println!(
                "fuzz: FAIL — oracle `{}` on case {} (seed {}), shrunk {} -> {} AST nodes",
                failure.oracle,
                failure.index,
                failure.seed,
                failure.original_nodes,
                failure.case.node_count()
            );
            println!("fuzz: reproducer written to `{out}`; re-check with:");
            println!("    dsc fuzz --replay {out}");
            Err(CliError::Eval(format!(
                "oracle `{}` violated: {}",
                failure.oracle, failure.message
            )))
        }
    }
}

/// Re-checks a reproducer file against its recorded oracle (or the
/// `--oracle` override).
fn replay_reproducer(args: &Args, path: &str) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?;
    let (recorded, case) = ds_gen::FuzzCase::from_text(&text)
        .map_err(|e| CliError::Frontend(format!("`{path}`: {e}")))?;
    let oracles = if args.options.contains_key("oracle") {
        args.oracles()?
    } else {
        let oracle = recorded
            .parse::<ds_gen::Oracle>()
            .map_err(|e| CliError::Frontend(format!("`{path}`: {e}")))?;
        vec![oracle]
    };
    for oracle in oracles {
        print!("replay: oracle `{oracle}` ... ");
        match oracle.check(&case) {
            Ok(()) => println!("pass"),
            Err(msg) => {
                println!("FAIL");
                return Err(CliError::Eval(format!(
                    "`{path}`: oracle `{oracle}` still violated: {msg}"
                )));
            }
        }
    }
    Ok(())
}
