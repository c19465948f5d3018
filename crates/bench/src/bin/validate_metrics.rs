//! CI gate for metrics exports: parses each JSON file named on the command
//! line and checks it is a well-formed `ds-telemetry` envelope of the
//! current schema version. Exits nonzero (after reporting every file) if
//! any document fails, so the workflow step catches schema drift from any
//! producer — `dsc --metrics-out`, the `BENCH_*.json` writers, or future
//! ones.

use ds_bench::json;

fn check(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    ds_telemetry::validate_envelope(&doc)
}

fn main() -> std::process::ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_metrics FILE.json [FILE.json ...]");
        return std::process::ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match check(path) {
            Ok(kind) => println!(
                "{path}: ok (schema {} v{}, kind {kind})",
                ds_telemetry::SCHEMA_NAME,
                ds_telemetry::SCHEMA_VERSION
            ),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}
