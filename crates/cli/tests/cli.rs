//! End-to-end tests of the `dsc` binary, exercising every subcommand
//! through a real process.

use std::io::Write;
use std::process::{Command, Output};

fn dsc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsc"))
        .args(args)
        .output()
        .expect("spawn dsc")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("dsc-test-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp source");
    f.write_all(contents.as_bytes()).expect("write temp source");
    path
}

const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
                                     float x2, float y2, float z2, float scale) {
                           if (scale != 0.0) {
                               return (x1*x2 + y1*y2 + z1*z2) / scale;
                           } else {
                               return -1.0;
                           }
                       }";

#[test]
fn help_prints_usage() {
    let out = dsc(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("specialize"));
    // No arguments behaves like help.
    let out = dsc(&[]);
    assert!(out.status.success());
}

#[test]
fn show_pretty_prints() {
    let path = write_temp("show.mc", DOTPROD);
    let out = dsc(&["show", path.to_str().expect("utf8 path")]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("float dotprod("), "{text}");
    assert!(text.contains("AST node(s)"), "{text}");
}

#[test]
fn specialize_emits_figure_2() {
    let path = write_temp("spec.mc", DOTPROD);
    let out = dsc(&[
        "specialize",
        path.to_str().expect("utf8 path"),
        "--vary",
        "z1,z2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dotprod__loader"), "{text}");
    assert!(text.contains("dotprod__reader"), "{text}");
    assert!(text.contains("CACHE[slot0]"), "{text}");
    assert!(text.contains("x1 * x2 + y1 * y2"), "{text}");
}

#[test]
fn specialize_reader_only_with_bound() {
    let path = write_temp("bound.mc", DOTPROD);
    let out = dsc(&[
        "specialize",
        path.to_str().expect("utf8 path"),
        "--vary",
        "z1,z2",
        "--bound",
        "0",
        "--reader",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("dotprod__loader"), "{text}");
    assert!(text.contains("dotprod__reader"), "{text}");
    assert!(text.contains("0 slot(s)"), "{text}");
}

#[test]
fn labels_show_the_frontier() {
    let path = write_temp("labels.mc", DOTPROD);
    let out = dsc(&[
        "labels",
        path.to_str().expect("utf8 path"),
        "--vary",
        "z1,z2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cached  x1 * x2 + y1 * y2"), "{text}");
    assert!(text.contains("dynamic (dependent)  z1 * z2"), "{text}");
}

#[test]
fn run_reports_result_and_cost() {
    let path = write_temp("run.mc", DOTPROD);
    let out = dsc(&[
        "run",
        path.to_str().expect("utf8 path"),
        "--args",
        "1.0,2.0,3.0,4.0,5.0,6.0,2.0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("result: 16"), "{text}");
    assert!(text.contains("cost:   19"), "{text}");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    // Missing file.
    let out = dsc(&["show", "/nonexistent/nope.mc"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Parse error with location.
    let path = write_temp("bad.mc", "float f( { }");
    let out = dsc(&["show", path.to_str().expect("utf8 path")]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // Unknown varying parameter.
    let path = write_temp("vary.mc", DOTPROD);
    let out = dsc(&[
        "specialize",
        path.to_str().expect("utf8 path"),
        "--vary",
        "zeta",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("zeta"));

    // Unknown subcommand.
    let out = dsc(&["frobnicate"]);
    assert!(!out.status.success());
}

/// Exit codes are classified: 2 usage, 3 frontend, 4 evaluation,
/// 5 cache integrity.
#[test]
fn exit_codes_classify_the_failure() {
    // Usage errors: unknown subcommand, unknown option, missing file.
    assert_eq!(dsc(&["frobnicate"]).status.code(), Some(2));
    let path = write_temp("codes.mc", DOTPROD);
    let p = path.to_str().expect("utf8 path");
    assert_eq!(dsc(&["run", p, "--frobnicate"]).status.code(), Some(2));
    assert_eq!(
        dsc(&["show", "/nonexistent/nope.mc"]).status.code(),
        Some(2)
    );

    // Frontend errors: parse, type-check, specialization.
    let bad = write_temp("codes-bad.mc", "float f( { }");
    assert_eq!(
        dsc(&["show", bad.to_str().expect("utf8")]).status.code(),
        Some(3)
    );
    let ill = write_temp("codes-ill.mc", "float f(float x) { return x && 1.0; }");
    assert_eq!(
        dsc(&["show", ill.to_str().expect("utf8")]).status.code(),
        Some(3)
    );
    assert_eq!(
        dsc(&["specialize", p, "--vary", "zeta"]).status.code(),
        Some(3)
    );

    // Evaluation errors.
    let div = write_temp("codes-div.mc", "int f(int a, int b) { return a / b; }");
    let out = dsc(&["run", div.to_str().expect("utf8"), "--args", "1,0"]);
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("division by zero"));

    // Integrity errors: serve rejecting a damaged cache file (below, in
    // the serve tests) is asserted to exit 5.
}

const REQUESTS: &str = "# two warm-path requests after the cold load\n\
                        1.0,2.0,3.0,4.0,5.0,6.0,2.0\n\
                        1.0,2.0,9.0,4.0,5.0,9.0,2.0\n\
                        1.0,2.0,3.5,4.0,5.0,6.5,2.0\n";

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dsc-test-{}-{name}", std::process::id()))
}

/// The `[n] result: VALUE` prefix of every answer line, cost dropped:
/// which request of a fingerprint pays the loader (and so its cost)
/// depends on the race for the staging latch and on what a log
/// recovered, never the value.
fn answers(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with('[') && l.contains("] result: "))
        .map(|l| {
            let (head, value) = l.split_once("] result: ").expect("answer line");
            let value = value.split_whitespace().next().unwrap_or("");
            format!("{head}] result: {value}")
        })
        .collect()
}

#[test]
fn serve_replays_requests_and_persists_the_cache() {
    let src = write_temp("serve.mc", DOTPROD);
    let reqs = write_temp("serve-reqs.txt", REQUESTS);
    let cache = temp_path("serve-cache.json");
    let _ = std::fs::remove_file(&cache);

    let base = [
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--requests",
        reqs.to_str().expect("utf8"),
        "--cache-file",
        cache.to_str().expect("utf8"),
    ];

    // First run: cold load, then warm reads; writes the cache file.
    let out = dsc(&base);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[1] result: 16"), "{text}");
    assert!(text.contains("requests:            3"), "{text}");
    assert!(text.contains("loads:               1"), "{text}");
    assert!(text.contains("cache: wrote"), "{text}");
    assert!(cache.exists());

    // Second run adopts the persisted cache: zero loader executions.
    let out = dsc(&base);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("warm start"), "{text}");
    assert!(text.contains("loads:               0"), "{text}");
    assert!(text.contains("[1] result: 16"), "{text}");

    // A damaged cache file is rejected: the serve still answers every
    // request (the runner falls back to a cold load) but exits 5.
    let saved = std::fs::read_to_string(&cache).expect("cache file");
    std::fs::write(&cache, &saved[..saved.len() / 2]).expect("truncate cache");
    let out = dsc(&base);
    assert_eq!(out.status.code(), Some(5));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cache: rejected"), "{text}");
    assert!(text.contains("[1] result: 16"), "{text}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("integrity"),
        "stderr should name the violation"
    );
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn serve_surfaces_injected_faults_per_policy() {
    let src = write_temp("serve-chaos.mc", DOTPROD);
    let reqs = write_temp("serve-chaos-reqs.txt", REQUESTS);
    let base = |policy: &str, inject: &str| {
        dsc(&[
            "serve",
            src.to_str().expect("utf8"),
            "--vary",
            "z1,z2",
            "--requests",
            reqs.to_str().expect("utf8"),
            "--policy",
            policy,
            "--inject",
            inject,
            "--seed",
            "7",
        ])
    };

    // A corrupted store fires inside the cold load; fail-fast surfaces the
    // tamper as an integrity violation on the next request (exit 5).
    let out = base("fail-fast", "corrupt-slot");
    assert_eq!(out.status.code(), Some(5));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error: integrity violation"), "{text}");
    assert!(text.contains("validation failures: 1"), "{text}");

    // The rebuild policy heals the same fault transparently: every
    // request is answered, the rebuild is counted, exit 0.
    let out = base("rebuild", "corrupt-slot");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rebuilds:            1"), "{text}");
    assert!(!text.contains("error:"), "{text}");

    // Fuel exhaustion under the fallback policy degrades to unspecialized
    // evaluation instead of failing.
    let out = base("fallback", "fuel:1");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fallbacks:           1"), "{text}");

    // serve without --requests is a usage error.
    let out = dsc(&["serve", src.to_str().expect("utf8"), "--vary", "z1,z2"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn speculate_flag_changes_the_outcome() {
    let src = "float f(float k, float v) {
                   float r = 0.1 * v;
                   if (v > 0.5) { r = r + fbm3(k, k, k, 6); }
                   return r;
               }";
    let path = write_temp("spec-flag.mc", src);
    let plain = dsc(&["specialize", path.to_str().expect("utf8"), "--vary", "v"]);
    let spec = dsc(&[
        "specialize",
        path.to_str().expect("utf8"),
        "--vary",
        "v",
        "--speculate",
    ]);
    assert!(plain.status.success() && spec.status.success());
    let plain_text = String::from_utf8_lossy(&plain.stdout);
    let spec_text = String::from_utf8_lossy(&spec.stdout);
    assert!(plain_text.contains("0 slot(s)"), "{plain_text}");
    assert!(spec_text.contains("1 slot(s)"), "{spec_text}");
}

#[test]
fn explain_attributes_every_verdict_to_a_rule() {
    let path = write_temp("explain.mc", DOTPROD);
    let out = dsc(&[
        "explain",
        path.to_str().expect("utf8 path"),
        "--vary",
        "z1,z2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Figure 2's cached frontier, with its producing rule.
    assert!(text.contains("x1 * x2 + y1 * y2"), "{text}");
    assert!(text.contains("(Rule 6)"), "{text}");
    assert!(
        text.contains("depends on a varying input (Rule 1)"),
        "{text}"
    );
    assert!(text.contains("phases"), "{text}");
    // Deterministic: a second invocation prints the same bytes.
    let again = dsc(&[
        "explain",
        path.to_str().expect("utf8 path"),
        "--vary",
        "z1,z2",
    ]);
    assert_eq!(out.stdout, again.stdout);
    // Without --vary the subcommand refuses.
    let out = dsc(&["explain", path.to_str().expect("utf8 path")]);
    assert!(!out.status.success());
}

/// `--engine vm` adds the superinstruction preview to `explain` (fusion
/// rewrites the compiled bytecode); the default engine prints none, and
/// the retired batch engine name is an unknown engine.
#[test]
fn explain_previews_superinstructions_under_the_vm_engine() {
    let path = write_temp("explain-vm.mc", DOTPROD);
    let path = path.to_str().expect("utf8 path");
    let preview = |text: &str| {
        text.lines()
            .filter(|l| l.starts_with("// superinstructions: "))
            .count()
    };
    let out = dsc(&["explain", path, "--vary", "z1,z2", "--engine", "vm"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(preview(&text), 1, "{text}");
    assert!(text.contains("//   fuse mul+add"), "{text}");

    let out = dsc(&["explain", path, "--vary", "z1,z2"]);
    assert_eq!(preview(&String::from_utf8_lossy(&out.stdout)), 0);

    let out = dsc(&["explain", path, "--vary", "z1,z2", "--engine", "vm-batch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr)
            .contains("unknown engine `vm-batch` (expected `tree` or `vm`)"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Acceptance: `dsc explain` on shader-catalog programs prints per-term
/// labels, each citing a Figure-3 rule.
#[test]
fn explain_covers_shader_catalog_programs() {
    let shaders = ds_shaders::all_shaders();
    for shader in shaders.iter().take(2) {
        let path = write_temp(&format!("shader-{}.mc", shader.name), &shader.source);
        let vary = shader
            .control_names()
            .next()
            .expect("every catalog shader has a control parameter");
        let out = dsc(&[
            "explain",
            path.to_str().expect("utf8 path"),
            "--entry",
            "shade",
            "--vary",
            vary,
        ]);
        assert!(
            out.status.success(),
            "{}: {}",
            shader.name,
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("decisions"), "{}: {text}", shader.name);
        // Each non-static verdict in the decisions section cites a rule
        // (terms may also be dynamic as "produces the fragment's result",
        // which is the split invariant rather than a Figure-3 rule).
        let verdicts = text
            .lines()
            .skip_while(|l| *l != "decisions")
            .filter(|l| l.contains("(Rule "))
            .count();
        assert!(
            verdicts >= 5,
            "{}: expected rule-cited verdicts, got {verdicts}:\n{text}",
            shader.name
        );
    }
}

#[test]
fn metrics_out_writes_versioned_json() {
    let path = write_temp("metrics.mc", DOTPROD);
    let metrics =
        std::env::temp_dir().join(format!("dsc-test-{}-metrics.json", std::process::id()));
    let metrics_s = metrics.to_str().expect("utf8 path");

    for (kind, extra) in [
        ("run", vec!["--args", "1.0,2.0,3.0,4.0,5.0,6.0,2.0"]),
        (
            "measure",
            vec!["--vary", "z1,z2", "--args", "1.0,2.0,3.0,4.0,5.0,6.0,2.0"],
        ),
        ("explain", vec!["--vary", "z1,z2"]),
    ] {
        let mut args = vec![kind, path.to_str().expect("utf8 path")];
        args.extend(extra);
        args.extend(["--metrics-out", metrics_s]);
        let out = dsc(&args);
        assert!(
            out.status.success(),
            "{kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&metrics).expect("metrics file written");
        let doc = ds_telemetry::parse(&text).expect("metrics JSON parses");
        assert_eq!(
            ds_telemetry::validate_envelope(&doc).expect("valid envelope"),
            kind
        );
    }

    // The run profile is present and self-consistent.
    let out = dsc(&[
        "run",
        path.to_str().expect("utf8 path"),
        "--args",
        "1.0,2.0,3.0,4.0,5.0,6.0,2.0",
        "--metrics-out",
        metrics_s,
    ]);
    assert!(out.status.success());
    let doc = ds_telemetry::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc.get("cost").unwrap().as_u64(), Some(19));
    let profile = doc.get("profile").expect("profile exported");
    assert_eq!(
        profile.get("cost").unwrap().as_u64(),
        doc.get("cost").unwrap().as_u64()
    );
    assert!(profile.get("op_histogram").is_some());
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn measure_reports_staging_economics() {
    let path = write_temp("measure.mc", DOTPROD);
    let out = dsc(&[
        "measure",
        path.to_str().expect("utf8 path"),
        "--vary",
        "z1,z2",
        "--args",
        "1.0,2.0,3.0,4.0,5.0,6.0,2.0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("original cost:  19"), "{text}");
    assert!(text.contains("speedup"), "{text}");
    assert!(text.contains("breakeven:      2 uses"), "{text}");
    assert!(text.contains("result:         16"), "{text}");
}

// The CLI's exit-code contract, shared with main.rs.
#[path = "../src/exit.rs"]
mod exit;

/// The consolidated exit-code table in the README must list exactly the
/// codes `crates/cli/src/exit.rs` defines, row for row.
#[test]
fn readme_exit_code_table_matches_the_constants() {
    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme_path).expect("read README.md");
    for (code, description) in exit::ALL {
        let row = format!("| `{code}` | {description} |");
        assert!(
            readme.contains(&row),
            "README exit-code table is missing the row `{row}`"
        );
    }
    // Reserved/unclassified codes must not be advertised.
    for code in [1u8, 11] {
        assert!(
            !readme.contains(&format!("| `{code}` |")),
            "README advertises unclassified exit code {code}"
        );
    }
}

#[test]
fn explain_prints_phase_wall_times_to_stderr_only() {
    let path = write_temp("explain-timing.mc", DOTPROD);
    let out = dsc(&[
        "explain",
        path.to_str().expect("utf8 path"),
        "--vary",
        "z1,z2",
    ]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("phase caching:"), "{err}");
    assert!(err.contains("phase total:"), "{err}");
    // stdout stays byte-deterministic: no wall times leak into it.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("phase total:"), "{text}");
}

#[test]
fn serve_publishes_latency_and_streams_traces() {
    let src = write_temp("serve-obs.mc", DOTPROD);
    let reqs = write_temp("serve-obs-reqs.txt", REQUESTS);
    let trace = temp_path("serve-obs-trace.jsonl");
    let metrics = temp_path("serve-obs-metrics.json");

    let out = dsc(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--requests",
        reqs.to_str().expect("utf8"),
        "--workers",
        "2",
        "--stats-every",
        "1",
        "--trace-out",
        trace.to_str().expect("utf8"),
        "--metrics-out",
        metrics.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("latency end-to-end:"), "{text}");
    assert!(text.contains("throughput:"), "{text}");
    assert!(text.contains("trace: wrote"), "{text}");
    // --stats-every heartbeats go to stderr, not stdout.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("serve: 3/3 requests"), "{err}");
    assert!(!text.contains("serve: 3/3 requests"), "{text}");

    // The trace stream: a versioned envelope header, then one compact
    // event per request, globally ordered by sequence number.
    let stream = std::fs::read_to_string(&trace).expect("trace file written");
    let mut lines = stream.lines();
    let header = ds_telemetry::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        ds_telemetry::validate_envelope(&header).expect("valid envelope"),
        "trace"
    );
    assert_eq!(header.get("events").unwrap().as_u64(), Some(3));
    let events: Vec<ds_telemetry::Json> = lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| ds_telemetry::parse(l).expect("event parses"))
        .collect();
    assert_eq!(events.len(), 3);
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(
            ev.get("seq").unwrap().as_u64(),
            Some(i as u64),
            "global order"
        );
        let outcome = ev.get("outcome").unwrap().as_str().unwrap();
        assert!(
            ["warm", "store_hit", "load", "fallback", "error"].contains(&outcome),
            "unknown outcome `{outcome}`"
        );
        assert!(ev.get("total_nanos").unwrap().as_u64().is_some());
        assert!(ev.get("stages").unwrap().as_arr().is_some());
        // Fingerprints travel as 16-digit hex strings (u64 > f64).
        let fp = ev
            .get("inputs_fp")
            .unwrap()
            .as_str()
            .expect("hex fingerprint");
        assert_eq!(fp.len(), 16, "{fp}");
        assert!(u64::from_str_radix(fp, 16).is_ok(), "{fp}");
    }

    // Acceptance: the envelope's `latency` section is the exact merge of
    // the per-worker histograms it publishes alongside.
    let doc = ds_telemetry::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        ds_telemetry::validate_envelope(&doc).expect("valid envelope"),
        "serve"
    );
    let latency = ds_telemetry::Timing::from_json(doc.get("latency").expect("latency section"))
        .expect("latency parses");
    let workers = doc
        .get("worker_latency")
        .and_then(|j| j.as_arr())
        .expect("worker_latency array");
    assert_eq!(workers.len(), 2);
    let mut refolded = ds_telemetry::Timing::default();
    for w in workers {
        refolded.merge(&ds_telemetry::Timing::from_json(w).expect("worker timing parses"));
    }
    assert_eq!(
        refolded, latency,
        "latency section must be the exact merge of worker_latency"
    );
    assert_eq!(latency.total.count(), 3);

    // File mode runs on the daemon: every request is admitted, each worker
    // reports its own stats, and the answers print in file order exactly
    // as a single worker prints them.
    let admitted = doc
        .get("daemon")
        .and_then(|d| d.get("counters"))
        .and_then(|c| c.get("admitted"))
        .and_then(ds_telemetry::Json::as_u64);
    assert_eq!(admitted, Some(3));
    let worker_stats = doc
        .get("worker_stats")
        .and_then(|j| j.as_arr())
        .expect("worker_stats array");
    assert_eq!(worker_stats.len(), 2);
    let solo = dsc(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--requests",
        reqs.to_str().expect("utf8"),
        "--workers",
        "1",
    ]);
    assert_eq!(solo.status.code(), Some(0));
    let solo_answers = answers(&String::from_utf8_lossy(&solo.stdout));
    assert_eq!(solo_answers.len(), 3);
    assert_eq!(answers(&text), solo_answers);

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

/// A file-mode serve whose log writer crashes mid-record exits 6; a
/// restart on the same log recovers the sealed caches logged before the
/// crash and answers exactly as a WAL-less run does.
#[test]
fn serve_wal_crash_exits_6_and_the_restart_recovers() {
    let src = write_temp("serve-crash.mc", DOTPROD);
    // Contexts A, A, B (the crash strikes B's install), A again (served
    // from the store) and C (an install after the crash).
    let reqs = write_temp(
        "serve-crash-reqs.txt",
        "1.0,2.0,3.0,4.0,5.0,6.0,2.0\n\
         1.0,2.0,9.0,4.0,5.0,9.0,2.0\n\
         1.0,2.0,3.0,4.0,5.0,6.0,0.0\n\
         1.0,2.0,7.0,4.0,5.0,7.0,2.0\n\
         3.0,2.0,3.0,4.0,5.0,6.0,2.0\n",
    );
    let wal = temp_path("serve-crash.wal");
    let checkpoint = temp_path("serve-crash.wal.checkpoint");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&checkpoint);
    let serve = |extra: &[&str]| {
        let mut argv = vec![
            "serve",
            src.to_str().expect("utf8"),
            "--vary",
            "z1,z2",
            "--requests",
            reqs.to_str().expect("utf8"),
        ];
        argv.extend_from_slice(extra);
        dsc(&argv)
    };

    let reference = serve(&[]);
    assert_eq!(reference.status.code(), Some(0));
    let reference = answers(&String::from_utf8_lossy(&reference.stdout));
    assert_eq!(reference.len(), 5);

    let wal_arg = wal.to_str().expect("utf8");
    let crashed = serve(&["--wal", wal_arg, "--inject", "crash-at-byte:150"]);
    assert_eq!(crashed.status.code(), Some(6));
    let text = String::from_utf8_lossy(&crashed.stdout);
    // Requests queued after the crash are still served: each is answered
    // or fails with the typed log error — none is silently dropped.
    let crash_error = "error: durability failure: write-ahead log writer crashed";
    let line = |n: u32| {
        text.lines()
            .find(|l| l.starts_with(&format!("[{n}] ")))
            .unwrap_or_else(|| panic!("no line for request {n}: {text}"))
    };
    assert_eq!(answers(&text)[..2], reference[..2], "{text}");
    assert!(line(3).contains(crash_error), "{text}");
    assert_eq!(
        answers(line(4))[0],
        reference[3],
        "a store hit needs no log"
    );
    assert!(line(5).contains(crash_error), "{text}");
    assert!(!text.contains("not served"), "{text}");
    assert!(text.contains("log left on disk for recovery"), "{text}");

    let restart = serve(&["--wal", wal_arg]);
    assert_eq!(restart.status.code(), Some(0));
    let text = String::from_utf8_lossy(&restart.stdout);
    let recovered: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("wal: recovered "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no recovery line: {text}"));
    assert!(recovered >= 1, "{text}");
    assert_eq!(answers(&text), reference, "{text}");

    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn report_summarizes_and_compare_gates_regressions() {
    let src = write_temp("report.mc", DOTPROD);
    let reqs = write_temp("report-reqs.txt", REQUESTS);
    let metrics = temp_path("report-metrics.json");
    let trace = temp_path("report-trace.jsonl");

    let out = dsc(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--requests",
        reqs.to_str().expect("utf8"),
        "--trace-out",
        trace.to_str().expect("utf8"),
        "--metrics-out",
        metrics.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());

    // Summaries: serve envelope and trace JSONL both render.
    let out = dsc(&[
        "report",
        metrics.to_str().expect("utf8"),
        trace.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kind: serve"), "{text}");
    assert!(text.contains("kind: trace"), "{text}");
    assert!(text.contains("store hit rate"), "{text}");
    assert!(text.contains("latency.end_to_end.p99_nanos"), "{text}");
    assert!(text.contains("outcome load"), "{text}");

    // Comparing a run against itself never regresses.
    let m = metrics.to_str().expect("utf8");
    let out = dsc(&["report", "--compare", m, m]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok: no regression"));

    // An injected slowdown beyond the threshold exits 7 and names the
    // regressed metric.
    let slowed = std::fs::read_to_string(&metrics)
        .unwrap()
        .replace("\"p99_nanos\": ", "\"p99_nanos\": 9");
    let regressed = temp_path("report-regressed.json");
    std::fs::write(&regressed, slowed).unwrap();
    let out = dsc(&["report", "--compare", m, regressed.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(7), "regression must exit 7");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("p99_nanos"), "{text}");

    // ...but a loosened threshold lets the same diff pass.
    let out = dsc(&[
        "report",
        "--compare",
        m,
        regressed.to_str().expect("utf8"),
        "--threshold",
        "1000",
    ]);
    assert_eq!(out.status.code(), Some(0));

    // Misuse is a usage error, not a crash.
    assert_eq!(dsc(&["report"]).status.code(), Some(2));
    assert_eq!(dsc(&["report", "--compare", m]).status.code(), Some(2));
    assert_eq!(dsc(&["report", "/nonexistent.json"]).status.code(), Some(2));

    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&regressed);
}

/// A reader that closes the pipe early (`dsc report FILE | head`) ends the
/// report quietly: exit 0, no panic. Four copies of the repro envelope
/// make the report larger than any pipe buffer, so `dsc` is still writing
/// when the pipe closes.
#[test]
fn report_stops_quietly_when_the_reader_closes_the_pipe() {
    use std::io::BufRead;
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsc"))
        .args(["report", bench, bench, bench, bench])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn dsc");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("read one line");
    assert!(first.starts_with("== "), "{first}");
    let out = child.wait_with_output().expect("wait for dsc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

// --- serve --listen: the online daemon through a real process ---------

fn spawn_listen(args: &[&str]) -> std::process::Child {
    use std::process::Stdio;
    Command::new(env!("CARGO_BIN_EXE_dsc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dsc serve --listen")
}

/// Finds the printed value of a `label:   value` stats line.
fn stats_line<'a>(text: &'a str, label: &str) -> Option<&'a str> {
    text.lines()
        .find(|l| l.trim_start().starts_with(label))
        .map(|l| l.rsplit(' ').next().unwrap_or(""))
}

#[test]
fn listen_serves_stdin_and_drains_on_eof() {
    let src = write_temp("listen.mc", DOTPROD);
    let metrics = temp_path("listen-metrics.json");
    let _ = std::fs::remove_file(&metrics);
    let mut child = spawn_listen(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--listen",
        "--workers",
        "2",
        "--admission",
        "always",
        "--metrics-out",
        metrics.to_str().expect("utf8"),
    ]);
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(REQUESTS.as_bytes())
        .expect("write requests");
    // stdin dropped above: EOF starts the graceful drain.
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("listening: `dotprod`"), "{text}");
    assert!(text.contains("[1] result: 16"), "{text}");
    assert!(text.contains("drained: end of input"), "{text}");
    assert_eq!(stats_line(&text, "admitted:"), Some("3"), "{text}");
    assert_eq!(stats_line(&text, "shed (overload):"), Some("0"), "{text}");

    // The metrics envelope parses and renders under `dsc report`.
    let report = dsc(&["report", metrics.to_str().expect("utf8")]);
    assert_eq!(report.status.code(), Some(0));
    let rendered = String::from_utf8_lossy(&report.stdout);
    assert!(rendered.contains("daemon.counters.admitted"), "{rendered}");
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn listen_sheds_on_overload_with_a_typed_rejection_and_exit_8() {
    let src = write_temp("listen-shed.mc", DOTPROD);
    let mut child = spawn_listen(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--listen",
        "--workers",
        "1",
        "--max-queue",
        "2",
        "--admission",
        "always",
        "--inject",
        "stall:400",
    ]);
    // The injected stall wedges the single worker on request 1; the
    // reader floods the 2-slot queue far faster than it drains.
    let flood = "1.0,2.0,3.0,4.0,5.0,6.0,2.0\n".repeat(40);
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(flood.as_bytes())
        .expect("write flood");
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(
        out.status.code(),
        Some(8),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("request queue of 2 is full"), "{text}");
    let shed: u64 = stats_line(&text, "shed (overload):")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no shed line in {text}"));
    assert!(shed > 0, "{text}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("shed"),
        "the exit reason should name the overload"
    );
}

#[test]
fn listen_fails_a_missed_deadline_with_exit_9_and_no_partial_answer() {
    let src = write_temp("listen-deadline.mc", DOTPROD);
    let mut child = spawn_listen(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--listen",
        "--workers",
        "1",
        "--deadline-ms",
        "50",
        "--admission",
        "always",
        "--inject",
        "stall:300",
    ]);
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"1.0,2.0,3.0,4.0,5.0,6.0,2.0\n")
        .expect("write request");
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(
        out.status.code(),
        Some(9),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("[1] error: deadline of 50 ms exceeded"),
        "{text}"
    );
    assert!(
        !text.contains("[1] result:"),
        "a timed-out request must never be answered: {text}"
    );
    assert_eq!(stats_line(&text, "deadline misses:"), Some("1"), "{text}");
}

#[cfg(unix)]
#[test]
fn listen_drains_cleanly_on_sigterm_with_exit_0() {
    let src = write_temp("listen-term.mc", DOTPROD);
    let mut child = spawn_listen(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--listen",
        "--workers",
        "2",
        "--admission",
        "always",
    ]);
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin
        .write_all(REQUESTS.as_bytes())
        .expect("write requests");
    stdin.flush().expect("flush requests");
    // Keep stdin open: only the signal can end this serve. Give the
    // daemon time to answer everything first.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = child.wait_with_output().expect("daemon exits");
    drop(stdin);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a drained daemon exits cleanly: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("drained: SIGTERM"), "{text}");
    assert!(text.contains("[1] result: 16"), "{text}");
    assert_eq!(stats_line(&text, "admitted:"), Some("3"), "{text}");
}

/// ISSUE 8's kill-under-load acceptance: SIGKILL a daemon mid-traffic,
/// restart it on the same write-ahead log, and the recovered caches
/// serve immediately — zero loader re-runs.
#[cfg(unix)]
#[test]
fn sigkill_under_load_then_restart_recovers_from_the_wal_without_restaging() {
    use std::io::{BufRead, BufReader};
    let src = write_temp("listen-kill.mc", DOTPROD);
    let wal = temp_path("listen-kill.wal");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(temp_path("listen-kill.wal.checkpoint"));

    let mut child = spawn_listen(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--listen",
        "--workers",
        "2",
        "--admission",
        "always",
        "--max-queue",
        "400",
        "--wal",
        wal.to_str().expect("utf8"),
    ]);
    // Two invariant fingerprints (the cache is keyed on the static
    // inputs; scale differs), alternating under sustained traffic.
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut traffic = String::new();
    for i in 0..200 {
        if i % 2 == 0 {
            traffic.push_str("1.0,2.0,3.0,4.0,5.0,6.0,2.0\n");
        } else {
            traffic.push_str("1.0,2.0,3.0,4.0,5.0,6.0,4.0\n");
        }
    }
    stdin.write_all(traffic.as_bytes()).expect("write traffic");
    stdin.flush().expect("flush traffic");
    // Wait until every request is answered (responses are flushed
    // line-by-line), then SIGKILL: no drain, no checkpoint, the log is
    // all that survives.
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut answered = 0;
    while answered < 200 {
        let line = lines
            .next()
            .expect("stdout open while under load")
            .expect("read stdout");
        if line.contains("] result:") {
            answered += 1;
        }
        assert!(!line.contains("] error:"), "unexpected failure: {line}");
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    drop(stdin);
    assert!(wal.exists(), "the log must survive the kill");

    // Restart on the same log: both sealed caches replay into the store
    // before any request runs, and serving them is pure reader work.
    let mut child = spawn_listen(&[
        "serve",
        src.to_str().expect("utf8"),
        "--vary",
        "z1,z2",
        "--listen",
        "--workers",
        "2",
        "--admission",
        "always",
        "--wal",
        wal.to_str().expect("utf8"),
    ]);
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"1.0,2.0,3.0,4.0,5.0,6.0,2.0\n1.0,2.0,3.0,4.0,5.0,6.0,4.0\n")
        .expect("write recovery requests");
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recovered 2 cache(s)"), "{text}");
    assert_eq!(
        stats_line(&text, "loads:"),
        Some("0"),
        "recovered caches must serve without re-staging: {text}"
    );
    assert_eq!(stats_line(&text, "staged serves:"), Some("2"), "{text}");
    assert!(text.contains("wal: checkpointed store at exit"), "{text}");
    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(temp_path("listen-kill.wal.checkpoint"));
}
