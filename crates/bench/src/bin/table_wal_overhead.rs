//! Write-ahead-log overhead — the same dotprod request stream served with
//! the log off, on, and under group commit, at three invariant-churn
//! rates. Every run's answers are checked against the tree-walked
//! reference before its timing is reported.
//!
//! Alongside the table the run writes a `ds-telemetry` envelope of kind
//! `bench-serve` (path via `--out PATH`, default `BENCH_serve.json`), so
//! CI can track durability overhead without scraping tables. `--dry-run`
//! shrinks the stream for CI smoke runs.

use ds_bench::json::Json;
use ds_bench::{exp_wal_overhead, f, table};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let requests = if dry_run { 128 } else { 1024 };

    println!("=== Write-ahead log: durability overhead ===");
    if dry_run {
        println!("(dry run)");
    }
    println!();
    let wal = exp_wal_overhead(requests);
    let mut rows = vec![vec![
        "churn".to_string(),
        "wal off ms".to_string(),
        "wal on ms".to_string(),
        "overhead".to_string(),
        "grouped ms".to_string(),
        "grouped".to_string(),
        "appends".to_string(),
        "answers".to_string(),
    ]];
    for p in &wal {
        rows.push(vec![
            p.churn_interval.to_string(),
            f(p.wal_off_nanos as f64 / 1e6, 2),
            f(p.wal_on_nanos as f64 / 1e6, 2),
            format!("{}x", f(p.overhead, 2)),
            f(p.grouped_nanos as f64 / 1e6, 2),
            format!("{}x", f(p.grouped_overhead, 2)),
            p.wal_appends.to_string(),
            if p.answers_match { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    println!("{}", table(&rows));
    println!(
        "\n{requests} dotprod requests per run; varying inputs change every request, \
         invariant inputs every `churn` requests (each change appends\n\
         one install record). `wal on` checkpoints every 8 appends; `grouped` \
         flushes 16 records at a time, its final flush timed."
    );

    let points = wal
        .iter()
        .map(|p| {
            Json::obj([
                ("churn_interval", Json::from(p.churn_interval)),
                ("wal_off_ms", Json::from(p.wal_off_nanos as f64 / 1e6)),
                ("wal_on_ms", Json::from(p.wal_on_nanos as f64 / 1e6)),
                ("overhead", Json::from(p.overhead)),
                ("grouped_ms", Json::from(p.grouped_nanos as f64 / 1e6)),
                ("grouped_overhead", Json::from(p.grouped_overhead)),
                ("wal_appends", Json::from(p.wal_appends)),
                ("answers_match", Json::Bool(p.answers_match)),
            ])
        })
        .collect();
    // Kind `bench-serve`, not `serve`: `dsc report` tells benchmark
    // trajectories apart from live `dsc serve --metrics-out` envelopes.
    let doc = ds_telemetry::envelope(
        "bench-serve",
        [
            ("requests", Json::from(requests)),
            ("wal_overhead", Json::Arr(points)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    );
    if let Err(e) = std::fs::write(&out, doc.pretty() + "\n") {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out}");

    let mismatches = wal.iter().filter(|p| !p.answers_match).count();
    if mismatches > 0 {
        eprintln!("error: {mismatches} wal point(s) diverged from the reference");
        std::process::exit(1);
    }
}
