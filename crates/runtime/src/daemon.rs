//! The online specialize-on-demand serving daemon.
//!
//! A [`Daemon`] turns the session machinery into a long-running service: a
//! bounded request queue feeds a pool of worker threads, each owning a
//! [`Session`] over the shared artifact, store and (optionally) write-ahead
//! log. The daemon is hardened end to end:
//!
//! * **Single-flight staging.** The first requests for a not-yet-staged
//!   fingerprint coalesce onto one stager through the per-fingerprint
//!   [`LatchTable`]: one worker takes the exclusive latch and runs the
//!   loader while the rest wait on a shared latch (the `latch_wait` stage)
//!   and then serve from the store — other fingerprints proceed without
//!   any global lock. A store hit takes no latch at all: sealed entries are
//!   immutable, so there is nothing for it to exclude.
//! * **A thin hit path.** Each request's invariant fingerprint is hashed
//!   once, by the worker; a hit is one store probe, a copy into the
//!   session's private buffer, validation and the reader. Submitters wake
//!   a worker only when one is idle.
//! * **Admission control (§4.3).** Under [`Admission::Auto`] the daemon
//!   calibrates the paper's cost model (original vs loader vs reader
//!   abstract cost) and specializes a fingerprint only once its
//!   exponentially-decaying arrival rate reaches the breakeven point —
//!   recent arrival density, not lifetime count, predicts future uses, so
//!   a fingerprint whose occasional repeats are spread thin across the
//!   stream never pays for a loader run. Colder fingerprints are served by
//!   the unspecialized fragment — bit-identical by the core theorem, just
//!   not specialized.
//! * **Deadlines.** A per-request deadline is checked both at dequeue and
//!   after execution; a late request gets a typed
//!   [`RuntimeError::DeadlineExceeded`], never a partial or late answer.
//! * **Backpressure.** The queue is bounded; a full queue sheds the
//!   request at submission with a typed [`RuntimeError::Overloaded`].
//! * **Graceful drain.** [`Daemon::drain`] closes admission (later submits
//!   get [`RuntimeError::Draining`]) while queued and in-flight requests
//!   run to completion; [`Daemon::join`] then merges every worker's stats,
//!   latency histograms and traces into one [`DaemonReport`].
//!
//! Responses travel over an unbounded channel (workers never block on a
//! slow consumer), tagged with the submitter's sequence number; when the
//! last worker exits the channel disconnects, which is the caller's signal
//! that the drain is complete.
//!
//! ## Memory
//!
//! Each worker thread allocates from its own allocator arena (glibc keeps
//! one per thread), and a block freed by another thread goes back to the
//! arena that allocated it, passing through the freeing thread's
//! small-block cache on the way. When the submitting thread freed what
//! the workers built — the sealed store entries, above all — those cached
//! blocks were handed out again for the submitter's own allocations, and
//! vectors grown from them were regrown inside the worker's arena. Whole
//! frames of request arguments then landed there, and peak memory varied
//! from run to run by megabytes. So the daemon keeps its workers'
//! allocations on the workers:
//!
//! * the daemon holds no handle to the store; only the worker sessions
//!   do. Once the caller drops its own handle, the last worker to exit
//!   frees the store's entries on the thread that built them;
//! * the [`LatchTable`] allocates every shard's map up front, on the
//!   thread that builds (and later drops) it;
//! * a response is small: [`Outcome`] boxes its optional profile, so the
//!   channel blocks a lagging consumer leaves queued hold about a third of
//!   the bytes they used to.

use crate::artifact::StagedArtifact;
use crate::error::RuntimeError;
use crate::fault::Fault;
use crate::latch::LatchTable;
use crate::session::{RunnerOptions, RunnerStats, Session};
use crate::store::CacheStore;
use crate::timing::{RequestOutcome, RequestTrace};
use crate::wal::Wal;
use ds_interp::{Outcome, Value};
use ds_telemetry::{ServeCounters, Timing};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// When to specialize a fingerprint (the §4.3 cost-model admission policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Specialize every fingerprint on first arrival (the batch-serve
    /// behaviour).
    Always,
    /// Calibrate original/loader/reader costs on the first request and
    /// specialize a fingerprint once its exponentially-decaying arrival
    /// rate reaches the computed breakeven; serve it unspecialized before
    /// that. A back-to-back burst of k <= 10 arrivals scores exactly k.
    Auto,
    /// Specialize once a fingerprint's decayed arrival rate reaches `N`
    /// (for a back-to-back burst: on the `N`-th request).
    After(u32),
}

impl std::fmt::Display for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admission::Always => write!(f, "always"),
            Admission::Auto => write!(f, "auto"),
            Admission::After(n) => write!(f, "{n}"),
        }
    }
}

impl std::str::FromStr for Admission {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(Admission::Always),
            "auto" => Ok(Admission::Auto),
            other => match other.parse::<u32>() {
                Ok(n) if n >= 1 => Ok(Admission::After(n)),
                _ => Err(format!(
                    "unknown admission policy `{other}`; expected always, auto or a use \
                     count >= 1"
                )),
            },
        }
    }
}

/// §4.3: the number of uses at which specialization pays for itself, given
/// the abstract costs of the original fragment, the loader and the reader.
/// `None` means specialization never pays (the reader is no cheaper than
/// the original).
pub fn breakeven_uses(orig: f64, loader: f64, reader: f64) -> Option<u32> {
    if loader <= orig {
        return Some(1);
    }
    if reader >= orig {
        return None;
    }
    Some((((loader - reader) / (orig - reader)).ceil().max(1.0)) as u32)
}

/// Configuration of a [`Daemon`].
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Bounded queue capacity; a submit beyond this is shed.
    pub max_queue: usize,
    /// Per-request deadline; `None` disables deadline enforcement.
    pub deadline_ms: Option<u64>,
    /// When to specialize a fingerprint.
    pub admission: Admission,
    /// Session configuration (engine, policy, rebuild budget, engine options).
    pub runner: RunnerOptions,
    /// Collect a [`RequestTrace`] per request.
    pub tracing: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 1,
            max_queue: 64,
            deadline_ms: None,
            admission: Admission::Always,
            runner: RunnerOptions::default(),
            tracing: false,
        }
    }
}

/// One answered (or degraded) request, tagged with its submission sequence
/// number. `specialized` is `false` when the admission policy served the
/// request through the unspecialized fragment.
#[derive(Debug)]
pub struct DaemonResponse {
    /// The sequence number given at [`Daemon::submit`].
    pub seq: u64,
    /// The answer, or the typed error the request degraded to.
    pub result: Result<Outcome, RuntimeError>,
    /// Whether the staged (specialized) path served it.
    pub specialized: bool,
    /// Time the request spent queued before a worker picked it up.
    pub queue_nanos: u64,
}

/// Everything the daemon measured, merged across workers at [`Daemon::join`].
#[derive(Debug)]
pub struct DaemonReport {
    /// Merged session statistics (worker order; the merge is associative
    /// and commutative, so this is deterministic however requests raced).
    pub stats: RunnerStats,
    /// Merged latency histograms: per-session serving stages plus the
    /// daemon-level `queue` and `unspec` stages.
    pub timing: Timing,
    /// Each worker's own statistics, in worker order; `stats` is their
    /// merge.
    pub worker_stats: Vec<RunnerStats>,
    /// Each worker's own latency histograms, in worker order; `timing` is
    /// their exact merge.
    pub worker_timing: Vec<Timing>,
    /// Per-request traces (only when `tracing` was enabled), sorted by
    /// submission sequence number.
    pub traces: Vec<RequestTrace>,
    /// Admission/backpressure/drain counters (shared with the live daemon).
    pub counters: Arc<ServeCounters>,
    /// The calibrated §4.3 breakeven: `None` until calibration ran,
    /// `Some(None)` when specialization never pays for this artifact.
    pub breakeven: Option<Option<u32>>,
}

struct Queued {
    seq: u64,
    args: Vec<Value>,
    fault: Option<(Fault, u64)>,
    enqueued: Instant,
}

struct QueueState {
    queue: VecDeque<Queued>,
    draining: bool,
    /// Workers blocked waiting for work; a submit wakes one only when this
    /// is nonzero (a wake is a futex syscall even when nobody sleeps).
    idle: usize,
}

struct Shared {
    artifact: Arc<StagedArtifact>,
    latches: LatchTable,
    q: Mutex<QueueState>,
    cv: Condvar,
    cfg: DaemonConfig,
    counters: Arc<ServeCounters>,
    /// Per-fingerprint exponentially-decaying arrival rates driving
    /// admission (recent arrival density, not lifetime count, is the
    /// predictor of future uses).
    rates: Mutex<RateTable>,
    /// Lazily calibrated breakeven (`None` = not yet calibrated).
    breakeven: Mutex<Option<Option<u32>>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type WorkerOut = (RunnerStats, Timing, Vec<RequestTrace>);

/// The online serving daemon. See the [module docs](self).
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<WorkerOut>>>,
}

impl Daemon {
    /// Starts `cfg.workers` worker threads over the shared artifact, store
    /// and optional write-ahead log, returning the daemon handle and the
    /// response channel. The channel disconnects when the last worker
    /// exits after [`Daemon::drain`] — the caller's end-of-stream signal.
    pub fn start(
        artifact: Arc<StagedArtifact>,
        store: Arc<CacheStore>,
        wal: Option<Arc<Wal>>,
        cfg: DaemonConfig,
    ) -> (Daemon, Receiver<DaemonResponse>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let shared = Arc::new(Shared {
            artifact,
            latches: LatchTable::new(),
            q: Mutex::new(QueueState {
                queue: VecDeque::new(),
                draining: false,
                idle: 0,
            }),
            cv: Condvar::new(),
            cfg,
            counters: Arc::new(ServeCounters::new()),
            rates: Mutex::new(RateTable::default()),
            breakeven: Mutex::new(match cfg.admission {
                Admission::After(n) => Some(Some(n)),
                _ => None,
            }),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let store = Arc::clone(&store);
                let wal = wal.clone();
                let tx = tx.clone();
                std::thread::spawn(move || worker(shared, store, wal, tx))
            })
            .collect();
        (
            Daemon {
                shared,
                workers: Mutex::new(workers),
            },
            rx,
        )
    }

    /// Admission/backpressure/drain counters, shared with every worker.
    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.shared.counters
    }

    /// The calibrated breakeven so far (see [`DaemonReport::breakeven`]).
    pub fn breakeven(&self) -> Option<Option<u32>> {
        *lock(&self.shared.breakeven)
    }

    /// Pins the breakeven instead of calibrating (tests only: real
    /// artifacts in this language rarely produce the `None` = never-pays
    /// verdict naturally, but the daemon must honour it).
    #[cfg(test)]
    fn preseed_breakeven(&self, breakeven: Option<u32>) {
        *lock(&self.shared.breakeven) = Some(breakeven);
    }

    /// Current queue length (for tests and heartbeats; racy by nature).
    pub fn queue_len(&self) -> usize {
        lock(&self.shared.q).queue.len()
    }

    /// Submits one request. `fault` optionally schedules a one-shot fault
    /// on the serving session right before this request executes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Draining`] once [`Daemon::drain`] has been called,
    /// [`RuntimeError::Overloaded`] when the bounded queue is full. A
    /// rejected request is *not* queued and will produce no response.
    pub fn submit(
        &self,
        seq: u64,
        args: Vec<Value>,
        fault: Option<(Fault, u64)>,
    ) -> Result<(), RuntimeError> {
        let mut q = lock(&self.shared.q);
        if q.draining {
            self.shared.counters.note_drain_rejected();
            return Err(RuntimeError::Draining);
        }
        if q.queue.len() >= self.shared.cfg.max_queue {
            self.shared.counters.note_shed();
            return Err(RuntimeError::Overloaded {
                max_queue: self.shared.cfg.max_queue,
            });
        }
        q.queue.push_back(Queued {
            seq,
            args,
            fault,
            enqueued: Instant::now(),
        });
        self.shared.counters.note_admitted(q.queue.len() as u64);
        let wake = q.idle > 0;
        drop(q);
        // A busy worker re-checks the queue before it blocks (under the
        // same mutex), so only an idle one needs waking.
        if wake {
            self.shared.cv.notify_one();
        }
        Ok(())
    }

    /// Closes admission: every later [`Daemon::submit`] is rejected with
    /// [`RuntimeError::Draining`], while already-queued and in-flight
    /// requests run to completion, after which the workers exit and the
    /// response channel disconnects. Idempotent.
    pub fn drain(&self) {
        lock(&self.shared.q).draining = true;
        self.shared.cv.notify_all();
    }

    /// Drains (if not already draining) and waits for every worker to
    /// finish the remaining work, then merges their statistics, latency
    /// histograms and traces. Call after consuming the response channel —
    /// workers never block on it, so join cannot deadlock either way.
    pub fn join(&self) -> DaemonReport {
        self.drain();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        let mut stats = RunnerStats::default();
        let mut timing = Timing::new();
        let mut worker_stats = Vec::with_capacity(handles.len());
        let mut worker_timing = Vec::with_capacity(handles.len());
        let mut traces = Vec::new();
        for h in handles {
            let (ws, wt, wtr) = h.join().expect("daemon worker panicked");
            stats.merge(&ws);
            timing.merge(&wt);
            worker_stats.push(ws);
            worker_timing.push(wt);
            traces.extend(wtr);
        }
        traces.sort_by_key(|t| t.seq);
        DaemonReport {
            stats,
            timing,
            worker_stats,
            worker_timing,
            traces,
            counters: Arc::clone(&self.shared.counters),
            breakeven: *lock(&self.shared.breakeven),
        }
    }
}

/// Dequeues until the queue is empty *and* draining; `None` ends the
/// worker.
fn dequeue(shared: &Shared) -> Option<Queued> {
    let mut q = lock(&shared.q);
    loop {
        if let Some(req) = q.queue.pop_front() {
            shared.counters.note_dequeued(q.queue.len() as u64);
            return Some(req);
        }
        if q.draining {
            return None;
        }
        q.idle += 1;
        q = shared.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        q.idle -= 1;
    }
}

/// Per-tick decay of a fingerprint's arrival score. A fingerprint arriving
/// on every tick saturates at `1/(1-ADMIT_DECAY)` = 10, so the score is
/// roughly "arrivals over the last ten ticks".
const ADMIT_DECAY: f64 = 0.9;

/// The saturation ceiling of the decayed score. Breakevens beyond it are
/// clamped: a fingerprint hot enough to arrive ten ticks running pays for
/// any loader eventually.
const ADMIT_SCORE_CAP: u32 = 10;

/// Exponentially-decaying per-fingerprint arrival rates. The clock is the
/// global arrival counter — not wall time — so admission is deterministic
/// for a given request interleaving.
#[derive(Default)]
struct RateTable {
    tick: u64,
    scores: HashMap<u64, FpRate>,
}

struct FpRate {
    score: f64,
    last_tick: u64,
}

impl RateTable {
    /// Records one arrival of `fp` and returns its decayed score.
    fn bump(&mut self, fp: u64) -> f64 {
        self.tick += 1;
        let e = self.scores.entry(fp).or_insert(FpRate {
            score: 0.0,
            last_tick: self.tick,
        });
        e.score = e.score * ADMIT_DECAY.powf((self.tick - e.last_tick) as f64) + 1.0;
        e.last_tick = self.tick;
        e.score
    }
}

/// Decides whether this arrival of `fp` is served specialized, scoring the
/// arrival and calibrating the cost model on first use when needed.
fn admit_specialized(shared: &Shared, args: &[Value], fp: u64) -> bool {
    // `Always` never reads a score, so it keeps no rate table either.
    if shared.cfg.admission == Admission::Always {
        return true;
    }
    let score = lock(&shared.rates).bump(fp);
    let breakeven = {
        let mut bk = lock(&shared.breakeven);
        *bk.get_or_insert_with(|| calibrate(shared, args))
    };
    match breakeven {
        // Specialization never pays: serve unspecialized forever.
        None => false,
        // Ceiling the decayed score makes a back-to-back burst behave like
        // the old arrival count (the k-th consecutive arrival scores in
        // (k-1, k] for k <= 10), while a fingerprint whose repeats are
        // spread thin never accumulates enough recent mass to pay.
        Some(b) => score.ceil() as u32 >= b.min(ADMIT_SCORE_CAP),
    }
}

/// Calibrates the §4.3 cost model by executing the original fragment, the
/// loader and the reader once each against a scratch session over a
/// *private* store (the shared store is never polluted). Abstract costs
/// are deterministic and engine-invariant, so one calibration serves the
/// daemon's lifetime. Any execution failure degrades to "specialize on
/// first use" — the staged lifecycle handles failures with typed errors.
fn calibrate(shared: &Shared, args: &[Value]) -> Option<u32> {
    let opts = shared.cfg.runner;
    let orig = match shared.artifact.reference(args, opts.eval) {
        Ok(out) => out.cost as f64,
        Err(_) => return Some(1),
    };
    let scratch_store = Arc::new(CacheStore::new(1));
    let mut scratch = Session::new(Arc::clone(&shared.artifact), scratch_store, opts);
    let loader = match scratch.run(args) {
        Ok(out) => out.cost as f64,
        Err(_) => return Some(1),
    };
    let reader = match scratch.run(args) {
        Ok(out) => out.cost as f64,
        Err(_) => return Some(1),
    };
    breakeven_uses(orig, loader, reader)
}

fn worker(
    shared: Arc<Shared>,
    store: Arc<CacheStore>,
    wal: Option<Arc<Wal>>,
    tx: Sender<DaemonResponse>,
) -> WorkerOut {
    let mut session = Session::new(Arc::clone(&shared.artifact), store, shared.cfg.runner);
    if let Some(wal) = wal {
        session.attach_wal(wal);
    }
    session.set_tracing(shared.cfg.tracing);
    // Daemon-level latency overlay: queue wait for every request, plus
    // end-to-end time of unspecialized serves (which bypass the session).
    let mut overlay = Timing::new();
    let mut traces: Vec<RequestTrace> = Vec::new();
    let deadline = shared.cfg.deadline_ms.map(Duration::from_millis);
    while let Some(req) = dequeue(&shared) {
        let queue_nanos = req.enqueued.elapsed().as_nanos() as u64;
        overlay.record_stage("queue", queue_nanos);
        // Deadline check at dequeue: a request that already waited out its
        // deadline in the queue is failed without executing at all.
        if let Some(d) = deadline.filter(|&d| req.enqueued.elapsed() > d) {
            shared.counters.note_deadline_missed();
            if shared.cfg.tracing {
                traces.push(RequestTrace {
                    seq: req.seq,
                    inputs_fp: session.inputs_fingerprint(&req.args),
                    outcome: RequestOutcome::Error,
                    total_nanos: queue_nanos,
                    stages: vec![("queue", queue_nanos)],
                });
            }
            let _ = tx.send(DaemonResponse {
                seq: req.seq,
                result: Err(RuntimeError::DeadlineExceeded {
                    deadline_ms: d.as_millis() as u64,
                }),
                specialized: false,
                queue_nanos,
            });
            continue;
        }
        if let Some((fault, seed)) = req.fault {
            // Submitters validate applicability; an inapplicable fault is
            // dropped rather than poisoning the request — injections only
            // ever *degrade* service, never answers.
            let _ = session.inject(fault, seed);
        }
        // The one fingerprint hash of this request: admission and the
        // session both key on it.
        let fp = session.inputs_fingerprint(&req.args);
        let specialized = admit_specialized(&shared, &req.args, fp);
        let mut result = if specialized {
            shared.counters.note_staged_serve();
            session.run_single_flight(&req.args, fp, &shared.latches)
        } else {
            shared.counters.note_unspec_serve();
            let exec_nanos_probe = Instant::now();
            let out = shared
                .artifact
                .reference(&req.args, shared.cfg.runner.eval)
                .map_err(RuntimeError::Eval);
            let exec_nanos = exec_nanos_probe.elapsed().as_nanos() as u64;
            overlay.record_total(exec_nanos);
            overlay.record_stage("unspec", exec_nanos);
            if shared.cfg.tracing {
                traces.push(RequestTrace {
                    seq: req.seq,
                    inputs_fp: fp,
                    outcome: if out.is_err() {
                        RequestOutcome::Error
                    } else {
                        RequestOutcome::Fallback
                    },
                    total_nanos: exec_nanos,
                    stages: vec![("queue", queue_nanos), ("unspec", exec_nanos)],
                });
            }
            out
        };
        // Deadline check after execution: a complete answer that arrives
        // past the deadline is discarded — never partial, never late.
        if let Some(d) = deadline {
            if req.enqueued.elapsed() > d && result.is_ok() {
                shared.counters.note_deadline_missed();
                result = Err(RuntimeError::DeadlineExceeded {
                    deadline_ms: d.as_millis() as u64,
                });
            }
        }
        if specialized && shared.cfg.tracing {
            // Sessions stamp a local serve order; rebase each trace onto
            // the daemon-wide submission sequence as it is drained.
            for mut t in session.take_traces() {
                t.seq = req.seq;
                traces.push(t);
            }
        }
        let _ = tx.send(DaemonResponse {
            seq: req.seq,
            result,
            specialized,
            queue_nanos,
        });
    }
    let mut timing = session.timing().clone();
    timing.merge(&overlay);
    (session.stats().clone(), timing, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Policy;
    use ds_core::{specialize_source, InputPartition, SpecializeOptions};
    use ds_interp::Engine;
    use ds_telemetry::LatencyHist;

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
         float x2, float y2, float z2, float scale) {
        if (scale != 0.0) { return (x1*x2 + y1*y2 + z1*z2) / scale; }
        else { return -1.0; }
    }";

    fn dotprod_parts() -> (Arc<StagedArtifact>, Arc<CacheStore>) {
        let part = InputPartition::varying(["z1", "z2"]);
        let spec =
            specialize_source(DOTPROD, "dotprod", &part, &SpecializeOptions::new()).expect("spec");
        (
            Arc::new(StagedArtifact::new(&spec, &part)),
            Arc::new(CacheStore::new(16)),
        )
    }

    fn argv_fixed(y1: f64, z1: f64, z2: f64) -> Vec<Value> {
        [1.0, y1, z1, 4.0, 5.0, z2, 2.0]
            .iter()
            .map(|&x| Value::Float(x))
            .collect()
    }

    fn collect(rx: &Receiver<DaemonResponse>, n: usize) -> Vec<DaemonResponse> {
        (0..n)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("response"))
            .collect()
    }

    #[test]
    fn breakeven_matches_the_cost_model() {
        assert_eq!(breakeven_uses(100.0, 90.0, 10.0), Some(1), "cheap loader");
        // loader + (n-1)·reader <= n·orig  <=>  n >= (loader-reader)/(orig-reader)
        assert_eq!(breakeven_uses(100.0, 190.0, 10.0), Some(2));
        assert_eq!(breakeven_uses(100.0, 280.0, 10.0), Some(3));
        assert_eq!(breakeven_uses(100.0, 150.0, 120.0), None, "reader loses");
        assert_eq!(breakeven_uses(10.0, 1000.0, 9.0), Some(991));
        assert_eq!(
            breakeven_uses(19.0, 21.0, 16.0),
            Some(2),
            "dotprod's own costs"
        );
    }

    #[test]
    fn admission_strings_round_trip() {
        for a in [Admission::Always, Admission::Auto, Admission::After(3)] {
            assert_eq!(a.to_string().parse::<Admission>().unwrap(), a);
        }
        assert!("never".parse::<Admission>().is_err());
        assert!("0".parse::<Admission>().is_err());
    }

    #[test]
    fn daemon_answers_are_bit_exact_vs_solo_reference() {
        for engine in [Engine::Tree, Engine::Vm] {
            let (artifact, store) = dotprod_parts();
            let cfg = DaemonConfig {
                workers: 4,
                runner: RunnerOptions {
                    engine,
                    ..RunnerOptions::default()
                },
                ..DaemonConfig::default()
            };
            let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
            let reqs: Vec<Vec<Value>> = (0..32)
                .map(|i| argv_fixed(f64::from(i % 3), f64::from(i), f64::from(i + 1)))
                .collect();
            for (i, args) in reqs.iter().enumerate() {
                daemon.submit(i as u64, args.clone(), None).expect("submit");
            }
            let responses = collect(&rx, reqs.len());
            for r in &responses {
                let want = artifact
                    .reference(&reqs[r.seq as usize], cfg.runner.eval)
                    .expect("reference")
                    .value
                    .expect("value");
                let got = r
                    .result
                    .as_ref()
                    .expect("answered")
                    .value
                    .clone()
                    .expect("value");
                assert!(got.bits_eq(&want), "{engine:?} seq {}", r.seq);
            }
            let report = daemon.join();
            assert_eq!(report.stats.requests, 32);
            assert_eq!(report.counters.admitted(), 32);
            assert_eq!(report.counters.staged_serves(), 32);
        }
    }

    #[test]
    fn racing_first_requests_for_one_fingerprint_stage_once() {
        // Round one: a free-for-all storm. Round two: the first request's
        // loader stalls, so the stager is certainly still loading while
        // the other 31 arrive and block behind it.
        for stall in [None, Some((Fault::Stall(100), 0))] {
            let (artifact, store) = dotprod_parts();
            let cfg = DaemonConfig {
                workers: 8,
                max_queue: 64,
                tracing: true,
                ..DaemonConfig::default()
            };
            let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
            daemon
                .submit(0, argv_fixed(2.0, 0.0, 1.0), stall)
                .expect("submit");
            while stall.is_some() && daemon.shared.latches.live_entries() == 0 {
                std::thread::yield_now();
            }
            // 32 concurrent requests, all the same invariant fingerprint:
            // without single-flight latching up to 8 workers would each
            // run the loader.
            for i in 1..32u64 {
                daemon
                    .submit(i, argv_fixed(2.0, i as f64, 1.0), None)
                    .expect("submit");
            }
            let responses = collect(&rx, 32);
            assert!(responses.iter().all(|r| r.result.is_ok()));
            let report = daemon.join();
            assert_eq!(
                report.stats.loads, 1,
                "one stager; everyone else waited on the latch and hit the store"
            );
            assert_eq!(report.stats.requests, 32);
            if stall.is_some() {
                assert!(
                    report
                        .traces
                        .iter()
                        .any(|t| t.stages.iter().any(|(name, _)| *name == "latch_wait")),
                    "blocking behind the stager is a named stage"
                );
                assert!(report.timing.stage("latch_wait").is_some());
            }
            assert_eq!(daemon.shared.latches.live_entries(), 0);
        }
    }

    #[test]
    fn the_last_worker_frees_the_store() {
        // The daemon keeps no store handle: once the caller has dropped
        // its own, the store lives exactly as long as the worker sessions
        // and is freed on the worker threads that built its entries.
        let (artifact, store) = dotprod_parts();
        let weak = Arc::downgrade(&store);
        let cfg = DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        daemon
            .submit(0, argv_fixed(2.0, 3.0, 6.0), None)
            .expect("submit");
        assert!(collect(&rx, 1)[0].result.is_ok());
        assert_eq!(weak.strong_count(), 2, "one handle per worker session");
        let report = daemon.join();
        assert_eq!(report.stats.loads, 1);
        assert_eq!(weak.strong_count(), 0, "freed before join returned");
    }

    #[test]
    fn store_hits_take_no_latch() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 2,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        let args = argv_fixed(2.0, 3.0, 6.0);
        daemon.submit(0, args.clone(), None).expect("submit");
        assert!(collect(&rx, 1)[0].result.is_ok(), "staged");
        // Hold the fingerprint's exclusive latch: a hit that took a latch
        // would block behind it until the timeout.
        let fp = daemon.shared.artifact.inputs_fingerprint(&args);
        let held = daemon.shared.latches.exclusive(fp);
        for i in 1..9u64 {
            daemon
                .submit(i, argv_fixed(2.0, i as f64, 6.0), None)
                .expect("submit");
        }
        assert!(collect(&rx, 8).iter().all(|r| r.result.is_ok()));
        drop(held);
        let report = daemon.join();
        assert_eq!(report.stats.loads, 1, "warm and store hits only");
        assert_eq!(daemon.shared.latches.live_entries(), 0);
    }

    /// Submits wake a worker only when one is idle. Bursts separated by
    /// gaps long enough for every worker to block, lone submits after an
    /// idle gap, and a submit racing `drain` must all still be answered.
    #[test]
    fn idle_gated_wakes_lose_no_request() {
        for workers in [1, 2, 4] {
            let (artifact, store) = dotprod_parts();
            let cfg = DaemonConfig {
                workers,
                max_queue: 64,
                ..DaemonConfig::default()
            };
            let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
            let mut seq = 0u64;
            let mut submit = |daemon: &Daemon| {
                daemon
                    .submit(seq, argv_fixed(2.0, (seq % 5) as f64, 1.0), None)
                    .expect("submit");
                seq += 1;
            };
            for burst in [1, workers, 3 * workers, 1, 17] {
                std::thread::sleep(Duration::from_millis(20));
                for _ in 0..burst {
                    submit(&daemon);
                }
                for r in collect(&rx, burst) {
                    assert!(r.result.is_ok(), "workers={workers} seq {}", r.seq);
                }
            }
            // A submit racing the drain is either answered or rejected
            // with `Draining`, never lost.
            std::thread::sleep(Duration::from_millis(20));
            let answered = std::thread::scope(|scope| {
                let racer = scope.spawn(|| daemon.submit(seq, argv_fixed(2.0, 1.0, 1.0), None));
                daemon.drain();
                racer.join().expect("racer")
            });
            let late = usize::from(answered.is_ok());
            let rest: Vec<_> = rx.iter().collect();
            assert_eq!(rest.len(), late, "workers={workers}");
            assert!(rest.iter().all(|r| r.result.is_ok()));
            let report = daemon.join();
            assert_eq!(report.counters.admitted(), seq + late as u64);
            assert_eq!(report.stats.requests, seq + late as u64);
        }
    }

    #[test]
    fn auto_admission_serves_below_breakeven_unspecialized() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            admission: Admission::Auto,
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        // Same fingerprint five times: the dotprod loader costs more than
        // one original run, so breakeven is >= 2 and the first arrival
        // must be served unspecialized.
        let args = argv_fixed(2.0, 3.0, 6.0);
        for i in 0..5u64 {
            daemon.submit(i, args.clone(), None).expect("submit");
        }
        let responses = collect(&rx, 5);
        let want = artifact
            .reference(&args, cfg.runner.eval)
            .unwrap()
            .value
            .unwrap();
        for r in &responses {
            assert!(r
                .result
                .as_ref()
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .bits_eq(&want));
        }
        assert!(
            !responses.iter().find(|r| r.seq == 0).unwrap().specialized,
            "first arrival is below breakeven"
        );
        assert!(
            responses.iter().any(|r| r.specialized),
            "later arrivals cross breakeven and specialize"
        );
        let report = daemon.join();
        let b = report.breakeven.expect("calibrated").expect("pays off");
        assert!(b >= 2, "dotprod's loader must cost more than one original");
        assert_eq!(report.counters.unspec_serves() as u32, b - 1);
        assert_eq!(report.counters.staged_serves() as u32, 5 - (b - 1));
        // Unspecialized serves appear in traces as fallbacks.
        assert!(report
            .traces
            .iter()
            .any(|t| t.outcome == RequestOutcome::Fallback));
    }

    #[test]
    fn one_shot_and_sparse_fingerprints_stay_unadmitted_under_auto() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            admission: Admission::Auto,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        daemon.preseed_breakeven(Some(3));
        // A cold fingerprint recurring every 8th request, padded with
        // one-shot fingerprints. Under a lifetime arrival count its third
        // arrival would specialize; its decayed rate peaks at
        // 1 + 0.9^8 + 0.9^16 + 0.9^24 < 2, so it never pays.
        let mut submitted = 0u64;
        for round in 0..4u64 {
            daemon
                .submit(submitted, argv_fixed(2.0, 1.0, 1.0), None)
                .expect("submit");
            submitted += 1;
            for k in 0..7u64 {
                let y = 10.0 + (round * 7 + k) as f64;
                daemon
                    .submit(submitted, argv_fixed(y, 1.0, 1.0), None)
                    .expect("submit");
                submitted += 1;
            }
        }
        let responses = collect(&rx, submitted as usize);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        assert!(
            responses.iter().all(|r| !r.specialized),
            "neither one-shot nor sparse fingerprints reach the decayed breakeven"
        );
        // A back-to-back burst of a fresh fingerprint still crosses it.
        for i in 0..3u64 {
            daemon
                .submit(submitted + i, argv_fixed(99.0, 1.0, 1.0), None)
                .expect("submit");
        }
        let burst = collect(&rx, 3);
        assert!(
            !burst
                .iter()
                .find(|r| r.seq == submitted)
                .unwrap()
                .specialized
        );
        assert!(
            burst
                .iter()
                .find(|r| r.seq == submitted + 2)
                .unwrap()
                .specialized,
            "the third consecutive arrival scores ceil(2.71) = 3"
        );
        let report = daemon.join();
        assert_eq!(report.stats.loads, 1, "only the burst fingerprint staged");
        assert_eq!(report.counters.unspec_serves(), submitted + 2);
        assert_eq!(report.counters.staged_serves(), 1);
    }

    #[test]
    fn never_profitable_artifacts_are_never_specialized() {
        // A `None` breakeven (reader no cheaper than the original) means
        // specialization never pays; every request — however hot the
        // fingerprint gets — must be served unspecialized, correctly.
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            admission: Admission::Auto,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        daemon.preseed_breakeven(None);
        let args = argv_fixed(2.0, 3.0, 6.0);
        for i in 0..4u64 {
            daemon.submit(i, args.clone(), None).expect("submit");
        }
        let responses = collect(&rx, 4);
        let want = artifact
            .reference(&args, cfg.runner.eval)
            .unwrap()
            .value
            .unwrap();
        for r in &responses {
            assert!(!r.specialized);
            assert!(r
                .result
                .as_ref()
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .bits_eq(&want));
        }
        let report = daemon.join();
        assert_eq!(report.breakeven, Some(None), "never pays");
        assert_eq!(report.stats.loads, 0, "no loader ever ran");
        assert_eq!(report.counters.unspec_serves(), 4);
    }

    #[test]
    fn stalled_requests_exceed_their_deadline_with_a_typed_error() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            deadline_ms: Some(20),
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        let args = argv_fixed(2.0, 3.0, 6.0);
        daemon
            .submit(0, args.clone(), Some((Fault::Stall(80), 0)))
            .expect("submit");
        let stalled = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        assert_eq!(stalled.seq, 0);
        assert_eq!(
            stalled.result.as_ref().unwrap_err(),
            &RuntimeError::DeadlineExceeded { deadline_ms: 20 },
            "a late answer is discarded, never returned"
        );
        // A fresh request for the same fingerprint — already staged by the
        // stalled one — beats the deadline.
        daemon.submit(1, args.clone(), None).expect("submit");
        let ok = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        assert_eq!(ok.seq, 1);
        assert!(ok.result.is_ok(), "{:?}", ok.result);
        let report = daemon.join();
        assert_eq!(report.counters.deadline_missed(), 1);
    }

    #[test]
    fn a_full_queue_sheds_with_a_typed_overload_error() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            max_queue: 2,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        // Wedge the single worker on a long stall, then flood the queue.
        daemon
            .submit(0, argv_fixed(2.0, 0.0, 1.0), Some((Fault::Stall(150), 0)))
            .expect("submit");
        let mut accepted = 1u64;
        let mut shed = 0u64;
        for i in 1..8u64 {
            match daemon.submit(i, argv_fixed(2.0, i as f64, 1.0), None) {
                Ok(()) => accepted += 1,
                Err(RuntimeError::Overloaded { max_queue }) => {
                    assert_eq!(max_queue, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected rejection {e}"),
            }
        }
        assert!(shed > 0, "the bounded queue must shed under the flood");
        let responses = collect(&rx, accepted as usize);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        let report = daemon.join();
        assert_eq!(report.counters.shed(), shed);
        assert_eq!(report.counters.admitted(), accepted);
        assert_eq!(report.stats.requests, accepted);
        assert!(report.counters.peak_queue_depth() <= 2);
    }

    #[test]
    fn drain_finishes_queued_work_and_rejects_new_submits() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 2,
            max_queue: 16,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        for i in 0..8u64 {
            daemon
                .submit(i, argv_fixed(2.0, i as f64, 1.0), None)
                .expect("submit");
        }
        daemon.drain();
        assert_eq!(
            daemon.submit(99, argv_fixed(2.0, 9.0, 9.0), None),
            Err(RuntimeError::Draining),
            "post-drain submits are rejected, typed"
        );
        // Every admitted request still completes...
        let responses = collect(&rx, 8);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        // ...and the channel disconnects once the workers exit.
        assert!(rx.recv_timeout(Duration::from_secs(30)).is_err());
        let report = daemon.join();
        assert_eq!(report.stats.requests, 8);
        assert_eq!(report.counters.drain_rejected(), 1);
    }

    #[test]
    fn report_merges_queue_latency_and_rebased_traces() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 2,
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        for i in 0..6u64 {
            daemon
                .submit(i, argv_fixed(2.0, i as f64, 1.0), None)
                .expect("submit");
        }
        let _ = collect(&rx, 6);
        let report = daemon.join();
        assert_eq!(report.traces.len(), 6);
        let seqs: Vec<u64> = report.traces.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "traces carry global seqs");
        assert_eq!(
            report.timing.stage("queue").map(LatencyHist::count),
            Some(6)
        );
        assert!(!report.timing.total.is_empty());
        // The per-worker breakdown folds back into the merged report.
        assert_eq!(report.worker_stats.len(), 2);
        assert_eq!(report.worker_timing.len(), 2);
        let mut refolded = Timing::new();
        let mut restats = RunnerStats::default();
        for (ws, wt) in report.worker_stats.iter().zip(&report.worker_timing) {
            restats.merge(ws);
            refolded.merge(wt);
        }
        assert_eq!(refolded, report.timing);
        assert_eq!(restats, report.stats);
        // Policies that can fail fast still produce typed errors, so the
        // daemon invariant (answer or typed error) is engine-independent.
        assert_eq!(report.stats.requests, 6);
        let _ = Policy::FailFast;
    }
}
