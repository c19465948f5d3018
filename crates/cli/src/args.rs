//! Tiny hand-rolled argument parser for `dsc` (no external dependencies).

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: subcommand, positional arguments, `--key value` /
/// `--flag` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The subcommand (first token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options (flags map to an empty string).
    pub options: HashMap<String, String>,
}

/// A command-line usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Option keys that take a value; everything else starting with `--` is a
/// boolean flag.
const VALUE_OPTIONS: &[&str] = &[
    "entry",
    "vary",
    "bound",
    "args",
    "engine",
    "metrics-out",
    "requests",
    "policy",
    "rebuild-budget",
    "cache-file",
    "wal",
    "checkpoint-every",
    "inject",
    "seed",
    "workers",
    "store-capacity",
    "cases",
    "oracle",
    "array-weight",
    "out",
    "replay",
    "trace-out",
    "stats-every",
    "threshold",
    "deadline-ms",
    "max-queue",
    "admission",
    "group-commit",
];

/// Parses raw arguments (excluding the program name).
///
/// # Errors
///
/// Returns a [`UsageError`] for a missing subcommand, an option missing its
/// value, or an unknown `--option`.
pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, UsageError> {
    let mut it = raw.into_iter().peekable();
    let command = it
        .next()
        .ok_or_else(|| UsageError("missing subcommand; try `dsc help`".into()))?;
    let mut args = Args {
        command,
        ..Args::default()
    };
    while let Some(tok) = it.next() {
        if let Some(key) = tok.strip_prefix("--") {
            if VALUE_OPTIONS.contains(&key) {
                let value = it
                    .next()
                    .ok_or_else(|| UsageError(format!("option --{key} requires a value")))?;
                args.options.insert(key.to_string(), value);
            } else if [
                "reassociate",
                "speculate",
                "loader",
                "reader",
                "fragment",
                "explain",
                "sexpr",
                "compare",
                "listen",
            ]
            .contains(&key)
            {
                args.options.insert(key.to_string(), String::new());
            } else {
                return Err(UsageError(format!("unknown option --{key}")));
            }
        } else {
            args.positional.push(tok);
        }
    }
    Ok(args)
}

impl Args {
    /// The single required positional argument (the source file).
    pub fn file(&self) -> Result<&str, UsageError> {
        match self.positional.as_slice() {
            [f] => Ok(f),
            [] => Err(UsageError("missing source file".into())),
            _ => Err(UsageError("expected exactly one source file".into())),
        }
    }

    /// `--entry NAME`, defaulting to the file's single procedure when the
    /// program defines exactly one.
    pub fn entry<'p>(&'p self, program: &'p ds_lang::Program) -> Result<&'p str, UsageError> {
        if let Some(name) = self.options.get("entry") {
            return Ok(name);
        }
        match program.procs.as_slice() {
            [only] => Ok(&only.name),
            _ => Err(UsageError(
                "program defines several procedures; pass --entry NAME".into(),
            )),
        }
    }

    /// `--vary a,b,c` as a list (empty when absent).
    pub fn vary(&self) -> Vec<String> {
        self.options
            .get("vary")
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// `--bound N` in bytes.
    pub fn bound(&self) -> Result<Option<u32>, UsageError> {
        match self.options.get("bound") {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| UsageError(format!("--bound expects a byte count, got `{v}`"))),
        }
    }

    /// `--engine tree|vm` selecting the execution backend (tree by
    /// default).
    pub fn engine(&self) -> Result<ds_interp::Engine, UsageError> {
        match self.options.get("engine") {
            None => Ok(ds_interp::Engine::default()),
            Some(v) => v.parse().map_err(|e: String| UsageError(e)),
        }
    }

    /// `--metrics-out PATH`: where to write the run's metrics JSON
    /// (versioned `ds-telemetry` envelope); `None` disables export.
    pub fn metrics_out(&self) -> Option<&str> {
        self.options.get("metrics-out").map(String::as_str)
    }

    /// `--args 1.0,2,true` parsed as runtime values.
    pub fn values(&self) -> Result<Vec<ds_interp::Value>, UsageError> {
        match self.options.get("args") {
            None => Ok(Vec::new()),
            Some(spec) => parse_value_list(spec),
        }
    }

    /// `--requests PATH`: a file of argument vectors (one `--args`-style
    /// list per line) for `serve` to replay.
    pub fn requests(&self) -> Option<&str> {
        self.options.get("requests").map(String::as_str)
    }

    /// `--policy fail-fast|rebuild|fallback` selecting the degradation
    /// policy (rebuild-then-fallback by default).
    pub fn policy(&self) -> Result<ds_runtime::Policy, UsageError> {
        match self.options.get("policy") {
            None => Ok(ds_runtime::Policy::default()),
            Some(v) => v.parse().map_err(|e: String| UsageError(e)),
        }
    }

    /// `--rebuild-budget N`: loader re-runs allowed beyond the initial load.
    pub fn rebuild_budget(&self) -> Result<Option<u32>, UsageError> {
        match self.options.get("rebuild-budget") {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| UsageError(format!("--rebuild-budget expects a count, got `{v}`"))),
        }
    }

    /// `--cache-file PATH`: the checkpoint-format cache file to adopt on
    /// start (if it exists and validates) and write back on exit; with
    /// `--wal`, the log's checkpoint.
    pub fn cache_file(&self) -> Option<&str> {
        self.options.get("cache-file").map(String::as_str)
    }

    /// `--wal PATH`: write-ahead log for `serve`; recovered on start,
    /// appended to before each request is acknowledged.
    pub fn wal(&self) -> Option<&str> {
        self.options.get("wal").map(String::as_str)
    }

    /// `--checkpoint-every N`: compact the write-ahead log into a
    /// checkpoint after every N appends (`None` = only at exit).
    pub fn checkpoint_every(&self) -> Result<Option<u64>, UsageError> {
        match self.options.get("checkpoint-every") {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(UsageError(format!(
                    "--checkpoint-every expects an append count >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--inject FAULT`: one fault to inject into the serve lifecycle.
    pub fn inject(&self) -> Result<Option<ds_runtime::Fault>, UsageError> {
        match self.options.get("inject") {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(UsageError),
        }
    }

    /// `--workers N`: daemon worker threads for `serve` (1 by default; each
    /// worker gets its own session over the shared artifact and store).
    pub fn workers(&self) -> Result<usize, UsageError> {
        match self.options.get("workers") {
            None => Ok(1),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(UsageError(format!(
                    "--workers expects a thread count >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--store-capacity N`: maximum sealed caches the polyvariant store
    /// keeps (one per invariant fingerprint), LRU-evicted beyond that
    /// (`serve` defaults to 16).
    pub fn store_capacity(&self) -> Result<Option<usize>, UsageError> {
        match self.options.get("store-capacity") {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(UsageError(format!(
                    "--store-capacity expects an entry count >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--cases N`: fuzz cases to generate (default 100).
    pub fn cases(&self) -> Result<u64, UsageError> {
        match self.options.get("cases") {
            None => Ok(100),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(UsageError(format!(
                    "--cases expects a case count >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--oracle NAME[,NAME..]`: oracles for `fuzz` to check (all by
    /// default).
    /// `--array-weight PCT`: percent chance (0-100) that the fuzz
    /// generator emits an array construct at each opportunity. Defaults to
    /// the generator's standard mix; `0` disables arrays entirely.
    pub fn array_weight(&self) -> Result<u32, UsageError> {
        match self.options.get("array-weight") {
            None => Ok(ds_gen::GenProfile::default().array_weight),
            Some(v) => match v.parse() {
                Ok(n) if n <= 100 => Ok(n),
                _ => Err(UsageError(format!(
                    "--array-weight expects a percentage 0-100, got `{v}`"
                ))),
            },
        }
    }

    pub fn oracles(&self) -> Result<Vec<ds_gen::Oracle>, UsageError> {
        match self.options.get("oracle") {
            None => Ok(ds_gen::Oracle::ALL.to_vec()),
            Some(v) => v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().map_err(UsageError))
                .collect(),
        }
    }

    /// `--out PATH`: where `fuzz` writes a reproducer on failure (default
    /// `fuzz-reproducer.mc`).
    pub fn out(&self) -> &str {
        self.options
            .get("out")
            .map(String::as_str)
            .unwrap_or("fuzz-reproducer.mc")
    }

    /// `--replay PATH`: a reproducer file for `fuzz` to re-check instead of
    /// generating cases.
    pub fn replay(&self) -> Option<&str> {
        self.options.get("replay").map(String::as_str)
    }

    /// `--trace-out PATH`: where `serve` writes per-request trace events
    /// as JSONL (one versioned envelope header line, then one compact JSON
    /// event per request); `None` disables tracing.
    pub fn trace_out(&self) -> Option<&str> {
        self.options.get("trace-out").map(String::as_str)
    }

    /// `--stats-every N`: print a progress/throughput line to stderr after
    /// every N served requests (`None` disables the heartbeat).
    pub fn stats_every(&self) -> Result<Option<u64>, UsageError> {
        match self.options.get("stats-every") {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(UsageError(format!(
                    "--stats-every expects a request count >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--threshold F`: the relative change `report --compare` tolerates
    /// before flagging a regression (default 0.10, i.e. 10%).
    pub fn threshold(&self) -> Result<f64, UsageError> {
        match self.options.get("threshold") {
            None => Ok(0.10),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x > 0.0 && x.is_finite() => Ok(x),
                _ => Err(UsageError(format!(
                    "--threshold expects a positive fraction (e.g. 0.1), got `{v}`"
                ))),
            },
        }
    }

    /// `--deadline-ms N`: per-request deadline for `serve --listen`
    /// (`None` disables deadline enforcement). Listen-only: a requests
    /// file is served without a deadline.
    pub fn deadline_ms(&self) -> Result<Option<u64>, UsageError> {
        match self.options.get("deadline-ms") {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(UsageError(format!(
                    "--deadline-ms expects a millisecond count >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--max-queue N`: bounded queue capacity for `serve --listen`;
    /// requests beyond it are shed (default 64). Listen-only: a requests
    /// file gets a queue as long as the file, so nothing is shed.
    pub fn max_queue(&self) -> Result<usize, UsageError> {
        match self.options.get("max-queue") {
            None => Ok(64),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(UsageError(format!(
                    "--max-queue expects a queue capacity >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--admission always|auto|N`: when `serve --listen` specializes a
    /// fingerprint (default `auto`, the §4.3 cost-model breakeven).
    /// Listen-only: a requests file specializes every fingerprint
    /// (`always`).
    pub fn admission(&self) -> Result<ds_runtime::Admission, UsageError> {
        match self.options.get("admission") {
            None => Ok(ds_runtime::Admission::Auto),
            Some(v) => v.parse().map_err(UsageError),
        }
    }

    /// `--group-commit N`: write-ahead-log appends buffered into one
    /// flush (default 1 = flush every append, the legacy behaviour).
    pub fn group_commit(&self) -> Result<Option<u64>, UsageError> {
        match self.options.get("group-commit") {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(Some(n)),
                _ => Err(UsageError(format!(
                    "--group-commit expects an append count >= 1, got `{v}`"
                ))),
            },
        }
    }

    /// `--seed N` for deterministic fault placement (0 by default).
    pub fn seed(&self) -> Result<u64, UsageError> {
        match self.options.get("seed") {
            None => Ok(0),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("--seed expects an integer, got `{v}`"))),
        }
    }
}

/// Parses one comma-separated list of runtime values (`1.0,2,true`), the
/// syntax shared by `--args` and each line of a `--requests` file.
pub fn parse_value_list(spec: &str) -> Result<Vec<ds_interp::Value>, UsageError> {
    spec.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|tok| {
            if tok == "true" {
                Ok(ds_interp::Value::Bool(true))
            } else if tok == "false" {
                Ok(ds_interp::Value::Bool(false))
            } else if tok.contains('.') || tok.contains('e') || tok.contains('E') {
                tok.parse::<f64>()
                    .map(ds_interp::Value::Float)
                    .map_err(|_| UsageError(format!("bad float argument `{tok}`")))
            } else {
                tok.parse::<i64>()
                    .map(ds_interp::Value::Int)
                    .map_err(|_| UsageError(format!("bad argument `{tok}`")))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(toks: &[&str]) -> Args {
        parse(toks.iter().map(|s| s.to_string())).expect("parse")
    }

    #[test]
    fn basic_shapes() {
        let a = parse_ok(&["specialize", "f.mc", "--vary", "a,b", "--reassociate"]);
        assert_eq!(a.command, "specialize");
        assert_eq!(a.file().unwrap(), "f.mc");
        assert_eq!(a.vary(), vec!["a", "b"]);
        assert!(a.flag("reassociate"));
        assert!(!a.flag("speculate"));
    }

    #[test]
    fn values_parse_types() {
        let a = parse_ok(&["run", "f.mc", "--args", "1.5, 2, true"]);
        use ds_interp::Value::*;
        assert_eq!(a.values().unwrap(), vec![Float(1.5), Int(2), Bool(true)]);
    }

    #[test]
    fn bound_parses() {
        let a = parse_ok(&["specialize", "f.mc", "--bound", "16"]);
        assert_eq!(a.bound().unwrap(), Some(16));
        let a = parse_ok(&["specialize", "f.mc"]);
        assert_eq!(a.bound().unwrap(), None);
    }

    #[test]
    fn errors() {
        assert!(parse(std::iter::empty()).is_err());
        assert!(parse(["x".to_string(), "--vary".to_string()]).is_err());
        assert!(parse(["x".to_string(), "--frobnicate".to_string()]).is_err());
        let a = parse_ok(&["run"]);
        assert!(a.file().is_err());
        let a = parse_ok(&["run", "a.mc", "b.mc"]);
        assert!(a.file().is_err());
        let a = parse_ok(&["run", "f.mc", "--args", "zzz"]);
        assert!(a.values().is_err());
    }

    #[test]
    fn engine_parses() {
        let a = parse_ok(&["run", "f.mc", "--engine", "vm"]);
        assert_eq!(a.engine().unwrap(), ds_interp::Engine::Vm);
        let a = parse_ok(&["run", "f.mc", "--engine", "tree"]);
        assert_eq!(a.engine().unwrap(), ds_interp::Engine::Tree);
        let a = parse_ok(&["run", "f.mc"]);
        assert_eq!(a.engine().unwrap(), ds_interp::Engine::Tree);
        let a = parse_ok(&["run", "f.mc", "--engine", "jit"]);
        assert!(a.engine().is_err());
    }

    #[test]
    fn metrics_out_takes_a_path() {
        let a = parse_ok(&["run", "f.mc", "--metrics-out", "m.json"]);
        assert_eq!(a.metrics_out(), Some("m.json"));
        let a = parse_ok(&["run", "f.mc"]);
        assert_eq!(a.metrics_out(), None);
        assert!(parse(["run".to_string(), "--metrics-out".to_string()]).is_err());
    }

    #[test]
    fn serve_options_parse() {
        let a = parse_ok(&[
            "serve",
            "f.mc",
            "--vary",
            "a",
            "--requests",
            "reqs.txt",
            "--policy",
            "fail-fast",
            "--rebuild-budget",
            "3",
            "--cache-file",
            "c.json",
            "--inject",
            "drop-store",
            "--seed",
            "9",
        ]);
        assert_eq!(a.requests(), Some("reqs.txt"));
        assert_eq!(a.policy().unwrap(), ds_runtime::Policy::FailFast);
        assert_eq!(a.rebuild_budget().unwrap(), Some(3));
        assert_eq!(a.cache_file(), Some("c.json"));
        assert_eq!(a.inject().unwrap(), Some(ds_runtime::Fault::DropStore));
        assert_eq!(a.seed().unwrap(), 9);

        let a = parse_ok(&["serve", "f.mc", "--workers", "4", "--store-capacity", "32"]);
        assert_eq!(a.workers().unwrap(), 4);
        assert_eq!(a.store_capacity().unwrap(), Some(32));

        let a = parse_ok(&["serve", "f.mc", "--wal", "w.log", "--checkpoint-every", "8"]);
        assert_eq!(a.wal(), Some("w.log"));
        assert_eq!(a.checkpoint_every().unwrap(), Some(8));
        let a = parse_ok(&["serve", "f.mc"]);
        assert_eq!(a.wal(), None);
        assert_eq!(a.checkpoint_every().unwrap(), None);
        let a = parse_ok(&["serve", "f.mc", "--checkpoint-every", "0"]);
        assert!(a.checkpoint_every().is_err());

        let a = parse_ok(&["serve", "f.mc"]);
        assert_eq!(a.requests(), None);
        assert_eq!(a.policy().unwrap(), ds_runtime::Policy::default());
        assert_eq!(a.rebuild_budget().unwrap(), None);
        assert_eq!(a.inject().unwrap(), None);
        assert_eq!(a.seed().unwrap(), 0);
        assert_eq!(a.workers().unwrap(), 1);
        assert_eq!(a.store_capacity().unwrap(), None);

        let a = parse_ok(&["serve", "f.mc", "--workers", "0"]);
        assert!(a.workers().is_err());
        let a = parse_ok(&["serve", "f.mc", "--store-capacity", "nope"]);
        assert!(a.store_capacity().is_err());

        let a = parse_ok(&["serve", "f.mc", "--policy", "never"]);
        assert!(a.policy().is_err());
        let a = parse_ok(&["serve", "f.mc", "--inject", "meteor"]);
        assert!(a.inject().is_err());
        let a = parse_ok(&["serve", "f.mc", "--seed", "x"]);
        assert!(a.seed().is_err());
    }

    #[test]
    fn observability_options_parse() {
        let a = parse_ok(&[
            "serve",
            "f.mc",
            "--trace-out",
            "trace.jsonl",
            "--stats-every",
            "100",
        ]);
        assert_eq!(a.trace_out(), Some("trace.jsonl"));
        assert_eq!(a.stats_every().unwrap(), Some(100));

        let a = parse_ok(&["serve", "f.mc"]);
        assert_eq!(a.trace_out(), None);
        assert_eq!(a.stats_every().unwrap(), None);
        let a = parse_ok(&["serve", "f.mc", "--stats-every", "0"]);
        assert!(a.stats_every().is_err());

        let a = parse_ok(&["report", "old.json", "new.json", "--compare"]);
        assert!(a.flag("compare"));
        assert_eq!(a.positional, vec!["old.json", "new.json"]);
        assert_eq!(a.threshold().unwrap(), 0.10);
        let a = parse_ok(&["report", "--compare", "--threshold", "0.25"]);
        assert_eq!(a.threshold().unwrap(), 0.25);
        let a = parse_ok(&["report", "--threshold", "-1"]);
        assert!(a.threshold().is_err());
        let a = parse_ok(&["report", "--threshold", "zero"]);
        assert!(a.threshold().is_err());
    }

    #[test]
    fn daemon_options_parse() {
        let a = parse_ok(&[
            "serve",
            "f.mc",
            "--listen",
            "--deadline-ms",
            "250",
            "--max-queue",
            "8",
            "--admission",
            "always",
            "--group-commit",
            "16",
        ]);
        assert!(a.flag("listen"));
        assert_eq!(a.deadline_ms().unwrap(), Some(250));
        assert_eq!(a.max_queue().unwrap(), 8);
        assert_eq!(a.admission().unwrap(), ds_runtime::Admission::Always);
        assert_eq!(a.group_commit().unwrap(), Some(16));

        let a = parse_ok(&["serve", "f.mc"]);
        assert!(!a.flag("listen"));
        assert_eq!(a.deadline_ms().unwrap(), None);
        assert_eq!(a.max_queue().unwrap(), 64);
        assert_eq!(a.admission().unwrap(), ds_runtime::Admission::Auto);
        assert_eq!(a.group_commit().unwrap(), None);

        let a = parse_ok(&["serve", "f.mc", "--admission", "3"]);
        assert_eq!(a.admission().unwrap(), ds_runtime::Admission::After(3));

        for bad in [
            ["serve", "f.mc", "--deadline-ms", "0"],
            ["serve", "f.mc", "--max-queue", "0"],
            ["serve", "f.mc", "--admission", "sometimes"],
            ["serve", "f.mc", "--group-commit", "0"],
        ] {
            let a = parse_ok(&bad);
            assert!(
                a.deadline_ms().is_err()
                    || a.max_queue().is_err()
                    || a.admission().is_err()
                    || a.group_commit().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn fuzz_options_parse() {
        let a = parse_ok(&[
            "fuzz",
            "--seed",
            "42",
            "--cases",
            "200",
            "--oracle",
            "semantics,serve",
            "--out",
            "repro.mc",
        ]);
        assert_eq!(a.seed().unwrap(), 42);
        assert_eq!(a.cases().unwrap(), 200);
        assert_eq!(
            a.oracles().unwrap(),
            vec![ds_gen::Oracle::Semantics, ds_gen::Oracle::Serve]
        );
        assert_eq!(a.out(), "repro.mc");
        assert_eq!(a.replay(), None);

        let a = parse_ok(&["fuzz"]);
        assert_eq!(a.cases().unwrap(), 100);
        assert_eq!(a.oracles().unwrap(), ds_gen::Oracle::ALL.to_vec());
        assert_eq!(a.out(), "fuzz-reproducer.mc");

        let a = parse_ok(&["fuzz", "--replay", "r.mc"]);
        assert_eq!(a.replay(), Some("r.mc"));

        let a = parse_ok(&["fuzz", "--cases", "0"]);
        assert!(a.cases().is_err());
        let a = parse_ok(&["fuzz", "--oracle", "bogus"]);
        assert!(a.oracles().is_err());
    }

    #[test]
    fn value_lists_parse_standalone() {
        use ds_interp::Value::*;
        assert_eq!(
            parse_value_list("1.5, 2, false").unwrap(),
            vec![Float(1.5), Int(2), Bool(false)]
        );
        assert!(parse_value_list("wat").is_err());
        assert_eq!(parse_value_list("").unwrap(), vec![]);
    }

    #[test]
    fn entry_defaults_to_single_proc() {
        let prog = ds_lang::parse_program("float f(float x) { return x; }").unwrap();
        let a = parse_ok(&["show", "f.mc"]);
        assert_eq!(a.entry(&prog).unwrap(), "f");
        let prog2 =
            ds_lang::parse_program("float f(float x) { return x; } float g(float x) { return x; }")
                .unwrap();
        assert!(a.entry(&prog2).is_err());
        let b = parse_ok(&["show", "f.mc", "--entry", "g"]);
        assert_eq!(b.entry(&prog2).unwrap(), "g");
    }
}
