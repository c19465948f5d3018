//! `perfbench --workload <drag|churn|catalog> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its metrics one per line (`metric <name>
//! <value> <unit>`), and ends with one JSON result line. Exits nonzero on
//! any failed answer (wrong, a typed error, shed or missing) or bad
//! argument.

use perfbench::report::RunResult;
use perfbench::spans::Tracer;
use perfbench::{catalog, churn, drag};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let result: RunResult = match args.workload.as_str() {
        "drag" => drag::run(&drag::Config::FULL, args.seed, args.seconds, &mut tracer),
        "churn" => churn::run(&churn::Config::FULL, args.seed, args.seconds, &mut tracer),
        "catalog" => catalog::run(&catalog::Config::FULL, args.seed, args.seconds, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (drag, churn, catalog)");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &result.named {
        println!("metric {name} {value} {unit}");
    }
    println!("metric error_rate {} ratio", result.error_rate());
    println!(
        "checked {} of {} answers, {} mismatched, {} failed",
        result.checked, result.attempted, result.mismatches, result.failed
    );
    if args.trace {
        for (name, value) in result.layers.iter() {
            println!("layer {name} {value}");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", result.json_line(args.trace));
    if !result.correct() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
