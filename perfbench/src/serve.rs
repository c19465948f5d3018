//! What the workloads share: shader argument vectors, the one rule every
//! answer is checked by, daemon configuration, the record the benchmark
//! keeps per answered request, and the join of those records with the
//! daemon's own request traces into per-layer numbers.

use crate::report::{RunResult, Values};
use crate::stats::{quantile_ns, ratio};
use ds_interp::{Engine, Outcome, Value};
use ds_runtime::{DaemonReport, DaemonResponse, RequestOutcome, RunnerOptions};
use ds_shaders::Shader;
use std::fmt::Display;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

/// Session options for every benchmark daemon: the scalar bytecode VM and
/// no limit on loader re-runs (every new fingerprint is a re-run for the
/// session that serves it).
pub fn runner_options() -> RunnerOptions {
    RunnerOptions {
        engine: Engine::Vm,
        rebuild_budget: u32::MAX,
        ..RunnerOptions::default()
    }
}

/// Waits at most `timeout` for the daemon's next answer by polling,
/// yielding the core between polls. For an open loop: blocking would add
/// the generator's own wake-up to every latency it measures, and on a
/// small machine the daemon's idle workers would then be woken on
/// different cores from run to run. (With every worker busy, as in a
/// closed loop, polling competes with them for the cores instead.)
pub fn poll(rx: &Receiver<DaemonResponse>, timeout: Duration) -> Option<DaemonResponse> {
    let deadline = Instant::now() + timeout;
    loop {
        match rx.try_recv() {
            Ok(resp) => return Some(resp),
            Err(TryRecvError::Empty) if Instant::now() < deadline => std::thread::yield_now(),
            Err(_) => return None,
        }
    }
}

/// What the benchmark saw of one answered request (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Seen {
    /// When `Daemon::submit` was called (ns since the tracer's epoch).
    pub submit_ns: u64,
    /// When the answer reached the benchmark (ns since the epoch).
    pub recv_ns: u64,
    /// The daemon's own queue-wait measurement.
    pub queue_ns: u64,
    /// Abstract cost of the answer.
    pub cost: u64,
}

/// One answer as the benchmark received it: its value, or why there is
/// none.
pub type Answer = Result<Option<Value>, String>;

/// The [`Answer`] of an engine, daemon or reference run.
pub fn answer<E: Display>(result: &Result<Outcome, E>) -> Answer {
    match result {
        Ok(out) => Ok(out.value.clone()),
        Err(e) => Err(e.to_string()),
    }
}

/// The argument vector of one shader request: a pixel's geometry, then
/// every control at its default except `control`, set to `value`.
pub fn shader_args(pixel: &[Value], shader: &Shader, control: usize, value: f64) -> Vec<Value> {
    let mut a = pixel.to_vec();
    a.extend(
        shader
            .controls
            .iter()
            .enumerate()
            .map(|(i, c)| Value::Float(if i == control { value } else { c.default })),
    );
    a
}

/// Scores one answer into `res`, by the one rule every workload uses: a
/// missing answer (`got` is `None`: shed, drained or never sent back), a
/// typed error, or a value that differs bit-wise from the reference's
/// counts as failed; a difference also counts as a mismatch. `want` is the
/// reference's answer when this one is compared, and `None` when it is
/// not (the unsampled pixels of a `drag` frame), in which case the answer
/// must still arrive and succeed. A reference that fails leaves nothing to
/// confirm the answer by, so that counts as failed too.
pub fn check_answer(got: Option<&Answer>, want: Option<&Answer>, res: &mut RunResult) {
    let Some(Ok(got)) = got else {
        res.failed += 1;
        return;
    };
    let Some(want) = want else { return };
    res.checked += 1;
    match want {
        Ok(w) if same_value(w, got) => {}
        Ok(_) => {
            res.failed += 1;
            res.mismatches += 1;
        }
        Err(_) => res.failed += 1,
    }
}

/// Bit-exact equality of two optional values.
fn same_value(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x.bits_eq(y),
        (None, None) => true,
        _ => false,
    }
}

/// Per-layer samples gathered from served requests across one or more
/// daemons.
#[derive(Debug, Default)]
pub struct ServeLayers {
    store_probe: Vec<u64>,
    validate: Vec<u64>,
    read: Vec<u64>,
    load: Vec<u64>,
    wal_append: Vec<u64>,
    queue: Vec<u64>,
    unattributed: Vec<u64>,
    read_cost: Vec<u64>,
    read_ns_sum: u64,
    read_cost_sum: u64,
    load_ns_sum: u64,
    load_cost_sum: u64,
    loads: u64,
    fallbacks: u64,
    store_hits: u64,
    store_misses: u64,
    evictions: u64,
    staged: u64,
    unspec: u64,
    peak_queue_depth: u64,
    wal_appends: u64,
}

impl ServeLayers {
    /// Folds in one joined daemon: its report, plus what the benchmark saw
    /// of each request, looked up by sequence number.
    pub fn absorb(&mut self, report: &DaemonReport, seen: impl Fn(u64) -> Option<Seen>) {
        let st = &report.stats;
        self.loads += st.loads;
        self.fallbacks += st.fallbacks();
        self.store_hits += st.store_hits();
        self.store_misses += st.store_misses();
        self.evictions += st.store_evictions();
        self.wal_appends += st.wal_appends();
        self.staged += report.counters.staged_serves();
        self.unspec += report.counters.unspec_serves();
        self.peak_queue_depth = self
            .peak_queue_depth
            .max(report.counters.peak_queue_depth());
        for t in &report.traces {
            let stage = |name: &str| -> u64 {
                t.stages
                    .iter()
                    .filter(|(n, _)| *n == name)
                    .map(|(_, ns)| ns)
                    .sum()
            };
            for (name, ns) in &t.stages {
                match *name {
                    "store_probe" => self.store_probe.push(*ns),
                    "validate" => self.validate.push(*ns),
                    "read" => self.read.push(*ns),
                    "load" => self.load.push(*ns),
                    "wal_append" => self.wal_append.push(*ns),
                    _ => {}
                }
            }
            let Some(s) = seen(t.seq) else { continue };
            self.queue.push(s.queue_ns);
            // Everything between submit and receipt that no traced stage
            // covers: hand-off, wake-ups, latch waits, bookkeeping.
            let staged: u64 = s.queue_ns
                + t.stages
                    .iter()
                    .filter(|(n, _)| *n != "queue")
                    .map(|(_, ns)| ns)
                    .sum::<u64>();
            let seen_ns = s.recv_ns.saturating_sub(s.submit_ns);
            self.unattributed.push(seen_ns.saturating_sub(staged));
            match t.outcome {
                RequestOutcome::Warm | RequestOutcome::StoreHit => {
                    self.read_cost.push(s.cost);
                    self.read_ns_sum += stage("read");
                    self.read_cost_sum += s.cost;
                }
                RequestOutcome::Load => {
                    self.load_ns_sum += stage("load");
                    self.load_cost_sum += s.cost;
                }
                RequestOutcome::Fallback | RequestOutcome::Error => {}
            }
        }
    }

    /// Writes the runtime and scalar-engine per-layer metrics.
    pub fn write(&self, v: &mut Values) {
        let p50 = |s: &[u64]| quantile_ns(s, 0.5);
        v.set("interp.read_ns_p50", p50(&self.read));
        v.set("interp.load_ns_p50", p50(&self.load));
        v.set("interp.read_cost_units", p50(&self.read_cost));
        v.set(
            "interp.ns_per_cost_unit.read",
            ratio(self.read_ns_sum as f64, self.read_cost_sum as f64),
        );
        v.set(
            "interp.ns_per_cost_unit.load",
            ratio(self.load_ns_sum as f64, self.load_cost_sum as f64),
        );
        v.set("runtime.store_probe_ns_p50", p50(&self.store_probe));
        v.set(
            "runtime.store_hit_ratio",
            ratio(
                self.store_hits as f64,
                (self.store_hits + self.store_misses) as f64,
            ),
        );
        v.set("runtime.store_evictions", self.evictions as f64);
        v.set("runtime.validate_ns_p50", p50(&self.validate));
        v.set("runtime.loads", self.loads as f64);
        v.set("runtime.fallbacks", self.fallbacks as f64);
        v.set("runtime.queue_us_p50", p50(&self.queue) / 1e3);
        v.set("runtime.queue_us_p99", quantile_ns(&self.queue, 0.99) / 1e3);
        v.set("runtime.unattributed_us_p50", p50(&self.unattributed) / 1e3);
        v.set(
            "runtime.unspec_ratio",
            ratio(self.unspec as f64, (self.staged + self.unspec) as f64),
        );
        v.set("runtime.peak_queue_depth", self.peak_queue_depth as f64);
        v.set("runtime.wal_append_ns_p50", p50(&self.wal_append));
        v.set("runtime.wal_appends", self.wal_appends as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(got: Option<Answer>, want: Option<Answer>) -> RunResult {
        let mut r = RunResult {
            attempted: 1,
            ..RunResult::default()
        };
        check_answer(got.as_ref(), want.as_ref(), &mut r);
        r
    }

    fn json_correct(r: &RunResult) -> Option<bool> {
        let line = ds_telemetry::parse(&r.json_line(false)).expect("json");
        match line.get("correct") {
            Some(ds_telemetry::Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    #[test]
    fn errors_missing_answers_and_mismatches_make_the_run_incorrect() {
        let one = || Ok(Some(Value::Float(1.0)));
        let failing = [
            // A stub service that answers with a typed error ...
            (Some(Err("deadline missed".to_string())), Some(one())),
            // ... an unsampled pixel's error ...
            (Some(Err("shed".to_string())), None),
            // ... a request that was never answered ...
            (None, Some(one())),
            (None, None),
            // ... a wrong value, and a reference that fails.
            (Some(Ok(Some(Value::Float(2.0)))), Some(one())),
            (Some(one()), Some(Err("reference".to_string()))),
        ];
        for (got, want) in failing {
            let r = scored(got.clone(), want.clone());
            assert_eq!(r.failed, 1, "{got:?} against {want:?}");
            assert!(!r.correct(), "{got:?} against {want:?}");
            assert_eq!(json_correct(&r), Some(false));
        }
        let r = scored(
            Some(Ok(Some(Value::Float(2.0)))),
            Some(Ok(Some(Value::Float(1.0)))),
        );
        assert_eq!(r.mismatches, 1);
    }

    #[test]
    fn matching_and_unsampled_answers_pass() {
        let r = scored(
            Some(Ok(Some(Value::Float(1.0)))),
            Some(Ok(Some(Value::Float(1.0)))),
        );
        assert_eq!((r.failed, r.checked), (0, 1));
        assert!(r.correct());
        assert_eq!(json_correct(&r), Some(true));
        let r = scored(Some(Ok(Some(Value::Float(1.0)))), None);
        assert_eq!((r.failed, r.checked), (0, 0));
        // NaN against NaN with the same bits is a match.
        let nan = || Ok(Some(Value::Float(f64::NAN)));
        assert!(scored(Some(nan()), Some(nan())).correct());
    }
}
