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
//! * **Lockstep blocks.** A worker that wakes takes a block of queued
//!   requests under one lock: its share of the queue, `queue_len /
//!   workers`, between one request and 64. Deadlines are checked per
//!   request at dequeue, each request is hashed once, and admission runs
//!   in arrival order. The session walks the lanes as if
//!   serving them one at a time: a lane of the fingerprint it would be
//!   warm on by then is a warm serve, and any other lane probes the store
//!   once and has its hit's sealed entry checked in place. The lanes that
//!   pass run the reader in lockstep on the worker's [`BatchVm`], each
//!   lane reading its own cache. A block with two or more store misses
//!   stages them together: for each missing fingerprint, in arrival
//!   order, the session takes its exclusive latch without waiting and
//!   re-probes under it, runs the loader for every latched lane in one
//!   lockstep run over fresh per-lane caches, and seals, publishes, logs
//!   and counts each load in arrival order. The lockstep lanes are
//!   answered first. Every other lane takes the per-request path
//!   unchanged, with the fingerprint it was hashed with: a store miss the
//!   block did not stage (a lone miss, a repeat, a lane past the rebuild
//!   budget, a failed or masked loader and the staged lanes after it), a
//!   miss whose latch another worker holds (it waits for that worker's
//!   install), an entry that fails its checks (invalidated, logged,
//!   policy), a reader error or masked lane (served again, so the failure
//!   is counted and the policy applies), a request carrying a fault or a
//!   session with one pending, and a request admission leaves
//!   unspecialized. Each answer equals [`Session::run`]'s on the same
//!   request. Deadlines are checked again before each lane served per
//!   request executes, and as each answer is sent. A lone request, the
//!   tree walker and cache-writing readers take the per-request path
//!   only.
//!
//!   Counters and traces stay per request: a lockstep lane counts as a
//!   store hit when it probed its entry, as a warm serve when it did not,
//!   and as a load when it was staged. Its `store_probe`, `validate`,
//!   `read` and `load` stages are its share of the block's time in each
//!   phase. Each lane of a block, in lockstep or not, carries its share
//!   of the block's fingerprint-and-admission loop as its `fingerprint`
//!   stage (a lone request, the time from its dequeue to its serve), and
//!   the rest of its time since the block's dequeue is its `block_wait`
//!   stage. [`DaemonReport::blocks`] counts blocks, lockstep reads and
//!   loads, and lanes sent back by reason.
//! * **Admission control (§4.3).** Under [`Admission::Auto`] the daemon
//!   calibrates the paper's cost model (original vs loader vs reader
//!   abstract cost) and specializes a fingerprint only once its
//!   exponentially-decaying arrival rate reaches the breakeven point —
//!   recent arrival density, not lifetime count, predicts future uses, so
//!   a fingerprint whose occasional repeats are spread thin across the
//!   stream never pays for a loader run. A colder fingerprint's request
//!   is served by the worker's [`Session`] as the unspecialized fragment
//!   on the session's engine — bit-identical by the core theorem, just
//!   not specialized — and leaves the store, the log and the rebuild
//!   budget untouched. Of its faults, only a stall applies.
//! * **Deadlines.** A per-request deadline is checked at dequeue, before
//!   execution and after it; a late request gets a typed
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
//!   thread that builds (and later drops) it, with room for twice its
//!   share of the latches the workers can hold while each stages a full
//!   block. Only fingerprints that crowd one shard past that grow its
//!   map on a worker, once;
//! * a response is small: [`Outcome`] boxes its optional profile, so the
//!   channel blocks a lagging consumer leaves queued hold about a third of
//!   the bytes they used to.
//!
//! Each worker also owns one [`BatchVm`] for its whole life. Its column
//! file holds `nregs × lanes` words of 8 bytes and one type tag per
//! register: about 25 KiB for a 50-register reader at 64 lanes, and about
//! 56 KiB for a 110-register loader staging a block of misses, plus the
//! elements of the block's arrays.

use crate::artifact::StagedArtifact;
use crate::error::RuntimeError;
use crate::fault::Fault;
use crate::latch::LatchTable;
use crate::session::{BlockLane, Exit, Probe, RunnerOptions, RunnerStats, Served, Session};
use crate::store::CacheStore;
use crate::timing::{RequestOutcome, RequestTrace};
use crate::wal::Wal;
use ds_interp::{BatchStats, BatchVm, Outcome, Value};
use ds_telemetry::{Json, ServeCounters, Timing};
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
    /// Merged latency histograms: the worker sessions' serves (the
    /// unadmitted ones as the `unspec` stage) plus the daemon-level
    /// `queue`, `block_wait` and `fingerprint` stages.
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
    /// How blocks of queued requests were served, merged across workers.
    pub blocks: BlockStats,
    /// Admission/backpressure/drain counters (shared with the live daemon).
    pub counters: Arc<ServeCounters>,
    /// The calibrated §4.3 breakeven: `None` until calibration ran,
    /// `Some(None)` when specialization never pays for this artifact.
    pub breakeven: Option<Option<u32>>,
}

/// How a daemon's blocks were served: lockstep runs, the requests
/// answered in them, and the requests of a block sent back to the
/// per-request path, by reason. Wall-time diagnostics, like [`Timing`]:
/// which requests share a block depends on how the queue raced, so none
/// of this enters [`RunnerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks of two or more requests that reached the session's block
    /// path.
    pub blocks: u64,
    /// Requests answered by a lockstep reader run.
    pub lockstep_lanes: u64,
    /// Requests answered by a lockstep loader run: store misses the
    /// block staged together.
    pub lockstep_loads: u64,
    /// Sent back: the store had no entry and the block did not stage it
    /// (single-flight staging per request).
    pub miss: u64,
    /// Sent back: another worker staged the fingerprint — it held the
    /// staging latch, or published the entry before the block took it.
    pub latched: u64,
    /// Sent back: the entry failed the slot-count, tamper or seal check.
    pub seal: u64,
    /// Sent back: the reader failed or was masked in lockstep.
    pub reader_error: u64,
    /// Sent back: the request carried a fault, or the session had one
    /// pending.
    pub fault: u64,
    /// Sent back: admission served the request unspecialized.
    pub unadmitted: u64,
    /// The workers' batch VMs' own lockstep exits.
    pub engine: BatchStats,
}

impl BlockStats {
    /// Accumulates `other` into `self`, field-wise.
    pub fn merge(&mut self, other: &BlockStats) {
        self.blocks += other.blocks;
        self.lockstep_lanes += other.lockstep_lanes;
        self.lockstep_loads += other.lockstep_loads;
        self.miss += other.miss;
        self.latched += other.latched;
        self.seal += other.seal;
        self.reader_error += other.reader_error;
        self.fault += other.fault;
        self.unadmitted += other.unadmitted;
        self.engine.merge(&other.engine);
    }

    /// The `blocks`, `lockstep_lanes`, `lockstep_loads`, `sent_back` and
    /// `batch` entries of the serve envelope's `daemon` section.
    pub fn json_fields(&self) -> [(&'static str, Json); 5] {
        [
            ("blocks", Json::from(self.blocks)),
            ("lockstep_lanes", Json::from(self.lockstep_lanes)),
            ("lockstep_loads", Json::from(self.lockstep_loads)),
            (
                "sent_back",
                Json::obj([
                    ("miss", Json::from(self.miss)),
                    ("latched", Json::from(self.latched)),
                    ("seal", Json::from(self.seal)),
                    ("reader_error", Json::from(self.reader_error)),
                    ("fault", Json::from(self.fault)),
                    ("unadmitted", Json::from(self.unadmitted)),
                ]),
            ),
            (
                "batch",
                Json::obj([
                    ("divergent_blocks", Json::from(self.engine.divergent_blocks)),
                    ("resumed_lanes", Json::from(self.engine.resumed_lanes)),
                    ("type_exits", Json::from(self.engine.type_exits)),
                    ("masked_lanes", Json::from(self.engine.masked_lanes)),
                    ("sequential_runs", Json::from(self.engine.sequential_runs)),
                    ("fused_dispatches", Json::from(self.engine.fused_dispatches)),
                ]),
            ),
        ]
    }
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

type WorkerOut = (RunnerStats, Timing, Vec<RequestTrace>, BlockStats);

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
            latches: LatchTable::with_room(cfg.workers * MAX_BLOCK),
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
        let mut blocks = BlockStats::default();
        for h in handles {
            let (ws, wt, wtr, wb) = h.join().expect("daemon worker panicked");
            stats.merge(&ws);
            timing.merge(&wt);
            worker_stats.push(ws);
            worker_timing.push(wt);
            traces.extend(wtr);
            blocks.merge(&wb);
        }
        traces.sort_by_key(|t| t.seq);
        DaemonReport {
            stats,
            timing,
            worker_stats,
            worker_timing,
            traces,
            blocks,
            counters: Arc::clone(&self.shared.counters),
            breakeven: *lock(&self.shared.breakeven),
        }
    }
}

/// The most requests a worker dequeues as one block: half the batch VM's
/// own `BLOCK_LANES`. A worker's column file grows with the block, and on
/// the `drag` benchmark (2 workers, 2 vCPUs) 64-lane blocks answered as
/// many requests per second as 128-lane ones while adding half as much to
/// peak memory (about 0.3 MB instead of 0.6 MB over one-request serving).
const MAX_BLOCK: usize = 64;

/// Moves the next block of queued requests into `block`, waiting for
/// work; `false` (queue empty *and* draining) ends the worker. A block is
/// the worker's share of the queue, `queue_len / workers`, between one
/// request and `max` ([`MAX_BLOCK`] for a lockstep-capable session): a
/// long queue fills whole lockstep blocks, and a short one leaves work
/// for the other workers.
fn dequeue(shared: &Shared, block: &mut Vec<Queued>, max: usize) -> bool {
    let mut q = lock(&shared.q);
    loop {
        let queued = q.queue.len();
        if queued > 0 {
            let take = (queued / shared.cfg.workers.max(1)).clamp(1, max);
            block.extend(q.queue.drain(..take));
            shared.counters.note_dequeued(q.queue.len() as u64);
            return true;
        }
        if q.draining {
            return false;
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

/// Ticks a fingerprint may stay idle before the rate table forgets it,
/// and the interval between sweeps. A score is at most
/// [`ADMIT_SCORE_CAP`], and `10 · 0.9^512` is far below half an ulp of
/// 1.0, so a forgotten fingerprint's next arrival scores exactly what it
/// would have scored remembered: 1.0.
const ADMIT_IDLE_TICKS: u64 = 512;

/// Exponentially-decaying per-fingerprint arrival rates. The clock is the
/// global arrival counter — not wall time — so admission is deterministic
/// for a given request interleaving. Every [`ADMIT_IDLE_TICKS`] ticks the
/// table drops the fingerprints idle that long, so it holds at most
/// `2 · ADMIT_IDLE_TICKS` entries however many fingerprints a long-running
/// daemon sees.
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
        if self.tick.is_multiple_of(ADMIT_IDLE_TICKS) {
            let tick = self.tick;
            self.scores
                .retain(|_, e| tick - e.last_tick < ADMIT_IDLE_TICKS);
        }
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

/// How a request reached the per-request path, for its daemon stages.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// A lone request dequeued at `since`: the time until its serve
    /// begins (its deadline check, fingerprint and admission) is its
    /// `fingerprint` stage.
    Lone { since: Instant },
    /// A lane of a block dequeued at `since`, with its share of the
    /// block's fingerprint-and-admission loop: the rest of its time until
    /// its serve begins is its `block_wait` stage.
    Block { since: Instant, fingerprint: u64 },
}

/// One worker thread's serving state: its session, its batch VM and
/// what it has measured so far.
struct Worker {
    shared: Arc<Shared>,
    session: Session,
    batch: BatchVm,
    tx: Sender<DaemonResponse>,
    deadline: Option<Duration>,
    /// Daemon-level latency overlay: the daemon's own stages, `queue`,
    /// `block_wait` and `fingerprint`. The session records every serve.
    overlay: Timing,
    traces: Vec<RequestTrace>,
    blocks: BlockStats,
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
    let mut w = Worker {
        deadline: shared.cfg.deadline_ms.map(Duration::from_millis),
        shared,
        session,
        batch: BatchVm::new(),
        tx,
        overlay: Timing::new(),
        traces: Vec::new(),
        blocks: BlockStats::default(),
    };
    // The tree walker (the reference engine) and cache-writing readers
    // are served one request at a time: they have no lockstep path.
    let max_block = if w.session.serves_blocks() {
        MAX_BLOCK
    } else {
        1
    };
    let mut block = Vec::new();
    let mut ready = Vec::new();
    while dequeue(&w.shared, &mut block, max_block) {
        let since = Instant::now();
        for req in block.drain(..) {
            if let Some(queue_nanos) = w.dequeued_in_time(&req, since) {
                ready.push((req, queue_nanos));
            }
        }
        if ready.len() > 1 {
            w.serve_block(&mut ready, since);
        } else if let Some((req, queue_nanos)) = ready.pop() {
            // A lone request: the per-request path, exactly.
            let fp = w.session.inputs_fingerprint(&req.args);
            let specialized = admit_specialized(&w.shared, &req.args, fp);
            let arrival = Arrival::Lone { since };
            w.serve_one(&req, fp, specialized, queue_nanos, arrival, None);
        }
    }
    let mut timing = w.session.timing().clone();
    timing.merge(&w.overlay);
    w.blocks.engine = w.batch.stats();
    (w.session.stats().clone(), timing, w.traces, w.blocks)
}

impl Worker {
    /// Records the queue wait of a request dequeued at `since` and checks
    /// its deadline: a request that already waited out its deadline in the
    /// queue is answered with a typed error without executing at all
    /// (`None`).
    fn dequeued_in_time(&mut self, req: &Queued, since: Instant) -> Option<u64> {
        let waited = since.saturating_duration_since(req.enqueued);
        let queue_nanos = waited.as_nanos() as u64;
        self.overlay.record_stage("queue", queue_nanos);
        let Some(d) = self.deadline.filter(|&d| waited > d) else {
            return Some(queue_nanos);
        };
        let fp = self.session.inputs_fingerprint(&req.args);
        self.answer_late(req, d, fp, vec![("queue", queue_nanos)]);
        None
    }

    /// Answers a request that waited out its deadline `d` with a typed
    /// error, without executing it; `stages` are the waits it was traced
    /// with, starting with its queue wait.
    fn answer_late(
        &mut self,
        req: &Queued,
        d: Duration,
        fp: u64,
        stages: Vec<(&'static str, u64)>,
    ) {
        self.shared.counters.note_deadline_missed();
        let queue_nanos = stages[0].1;
        if self.shared.cfg.tracing {
            self.traces.push(RequestTrace {
                seq: req.seq,
                inputs_fp: fp,
                outcome: RequestOutcome::Error,
                total_nanos: stages.iter().map(|s| s.1).sum(),
                stages,
            });
        }
        let _ = self.tx.send(DaemonResponse {
            seq: req.seq,
            result: Err(RuntimeError::DeadlineExceeded {
                deadline_ms: d.as_millis() as u64,
            }),
            specialized: false,
            queue_nanos,
        });
    }

    /// Serves one request on the per-request path: its fault (if any) is
    /// scheduled first, then the session serves it, single-flight when
    /// admitted and unspecialized when not. Its `arrival`
    /// names its daemon stages, `fingerprint` and, for a lane of a block,
    /// `block_wait`; one clock read ends them and starts its serve. A lane
    /// the block sent back also passes the block's store `probe`. The
    /// deadline is checked again first: a request of a block that waited
    /// it out behind its block-mates fails without executing.
    fn serve_one(
        &mut self,
        req: &Queued,
        fp: u64,
        specialized: bool,
        queue_nanos: u64,
        arrival: Arrival,
        probe: Option<Probe>,
    ) {
        let now = Instant::now();
        let nanos_since = |t: Instant| now.saturating_duration_since(t).as_nanos() as u64;
        let (block_wait, fingerprint) = match arrival {
            Arrival::Lone { since } => (None, nanos_since(since)),
            Arrival::Block { since, fingerprint } => (
                Some(nanos_since(since).saturating_sub(fingerprint)),
                fingerprint,
            ),
        };
        let waited = [
            block_wait.map(|nanos| ("block_wait", nanos)),
            Some(("fingerprint", fingerprint)),
        ]
        .into_iter()
        .flatten();
        for (stage, nanos) in waited.clone() {
            self.overlay.record_stage(stage, nanos);
        }
        let late = now.saturating_duration_since(req.enqueued);
        if let Some(d) = self.deadline.filter(|&d| late > d) {
            let mut stages = vec![("queue", queue_nanos)];
            stages.extend(waited);
            self.answer_late(req, d, fp, stages);
            return;
        }
        // Submitters validate applicability; an inapplicable fault is
        // dropped rather than poisoning the request — injections only ever
        // *degrade* service, never answers. An unadmitted request runs no
        // staged code, so a stall is the only fault that applies to it.
        if let Some((fault, seed)) = req.fault {
            if specialized || matches!(fault, Fault::Stall(_)) {
                let _ = self.session.inject(fault, seed);
            }
        }
        let result = if specialized {
            self.shared.counters.note_staged_serve();
            self.session
                .run_single_flight(&req.args, fp, &self.shared.latches, probe, now)
        } else {
            self.shared.counters.note_unspec_serve();
            self.session.run_unspecialized(&req.args, fp, now)
        };
        if self.shared.cfg.tracing {
            // Sessions stamp a local serve order; rebase each trace onto
            // the daemon-wide submission sequence.
            for mut t in self.session.take_traces() {
                t.seq = req.seq;
                t.stages.splice(0..0, waited.clone());
                self.traces.push(t);
            }
        }
        self.respond(req, result, specialized, queue_nanos);
    }

    /// Serves a block of two or more requests dequeued at `since`.
    /// Fingerprinting and admission run in arrival order, timed by one
    /// clock read: each lane's `fingerprint` stage is its share of that
    /// loop, and it comes out of the lane's `block_wait`. The admitted,
    /// fault-free lanes go to the session's block path: its store hits and
    /// the misses it stages are answered in lockstep, first; each lane it
    /// sends back is then served on the per-request path with the block's
    /// probe. Last, the unadmitted and fault-carrying lanes take the
    /// per-request path, in arrival order.
    fn serve_block(&mut self, ready: &mut Vec<(Queued, u64)>, since: Instant) {
        // A pending fault must strike the next request the session
        // serves, so it sends the whole block down the per-request path.
        let pending = self.session.has_pending_fault();
        let mut lanes = Vec::with_capacity(ready.len());
        let mut routes = Vec::with_capacity(ready.len());
        for (req, _) in ready.iter() {
            let fp = self.session.inputs_fingerprint(&req.args);
            let specialized = admit_specialized(&self.shared, &req.args, fp);
            let in_block = specialized && req.fault.is_none() && !pending;
            if in_block {
                lanes.push(BlockLane {
                    args: &req.args,
                    fp,
                    seq: req.seq,
                });
            } else if specialized {
                self.blocks.fault += 1;
            } else {
                self.blocks.unadmitted += 1;
            }
            routes.push((fp, specialized, in_block));
        }
        let fingerprint = since.elapsed().as_nanos() as u64 / ready.len() as u64;
        let arrival = Arrival::Block { since, fingerprint };
        if !lanes.is_empty() {
            self.blocks.blocks += 1;
            let run = self
                .session
                .run_block(&lanes, &mut self.batch, &self.shared.latches);
            drop(lanes);
            // A lockstep lane's own time is its share of the block, and of
            // the fingerprint loop; the rest of the time since dequeue it
            // waited on the block.
            let elapsed = since.elapsed().as_nanos() as u64;
            let mut traces = self.session.take_traces().into_iter();
            let in_block = ready
                .iter()
                .zip(&routes)
                .filter(|(_, &(_, _, in_block))| in_block)
                .map(|((req, queue_nanos), &(fp, _, _))| (req, *queue_nanos, fp));
            let mut sent_back = Vec::new();
            for ((req, queue_nanos, fp), served) in in_block.zip(run) {
                let (result, nanos) = match served {
                    Served::Lockstep { out, nanos } => {
                        self.blocks.lockstep_lanes += 1;
                        (Ok(out), nanos)
                    }
                    Served::Loaded { result, nanos } => {
                        self.blocks.lockstep_loads += 1;
                        (result, nanos)
                    }
                    Served::SentBack { exit, probe } => {
                        match exit {
                            Exit::Miss => self.blocks.miss += 1,
                            Exit::Latched => self.blocks.latched += 1,
                            Exit::Seal => self.blocks.seal += 1,
                            Exit::ReaderError => self.blocks.reader_error += 1,
                        }
                        sent_back.push((req, queue_nanos, fp, probe));
                        continue;
                    }
                };
                let waited = elapsed.saturating_sub(nanos + fingerprint);
                self.shared.counters.note_staged_serve();
                self.overlay.record_stage("block_wait", waited);
                self.overlay.record_stage("fingerprint", fingerprint);
                if let Some(mut t) = traces.next() {
                    let daemon = [("block_wait", waited), ("fingerprint", fingerprint)];
                    t.stages.splice(0..0, daemon);
                    self.traces.push(t);
                }
                self.respond(req, result, true, queue_nanos);
            }
            for (req, queue_nanos, fp, probe) in sent_back {
                self.serve_one(req, fp, true, queue_nanos, arrival, probe);
            }
        }
        for ((req, queue_nanos), (fp, specialized, in_block)) in ready.drain(..).zip(routes) {
            if !in_block {
                self.serve_one(&req, fp, specialized, queue_nanos, arrival, None);
            }
        }
    }

    /// Sends a served request's answer. Deadline check after execution: a
    /// complete answer that arrives past the deadline is discarded —
    /// never partial, never late.
    fn respond(
        &mut self,
        req: &Queued,
        mut result: Result<Outcome, RuntimeError>,
        specialized: bool,
        queue_nanos: u64,
    ) {
        if let Some(d) = self.deadline {
            if req.enqueued.elapsed() > d && result.is_ok() {
                self.shared.counters.note_deadline_missed();
                result = Err(RuntimeError::DeadlineExceeded {
                    deadline_ms: d.as_millis() as u64,
                });
            }
        }
        let _ = self.tx.send(DaemonResponse {
            seq: req.seq,
            result,
            specialized,
            queue_nanos,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::recover;
    use crate::session::Policy;
    use ds_core::{specialize_source, InputPartition, SpecializeOptions};
    use ds_interp::{Engine, EvalError};
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

    /// The rate table stays bounded over a stream of one-shot
    /// fingerprints, and pruning never changes a score: on a seeded Zipf
    /// stream every arrival scores bit-for-bit what an unpruned table
    /// (the same decay, never forgetting) gives it.
    #[test]
    fn the_rate_table_forgets_idle_fingerprints_without_changing_a_score() {
        let mut table = RateTable::default();
        for fp in 0..100_000u64 {
            assert_eq!(table.bump(fp), 1.0);
            assert!(table.scores.len() <= 2 * ADMIT_IDLE_TICKS as usize);
        }
        // Zipf(1.1) over 4096 fingerprints, from a seeded xorshift.
        let weights: Vec<f64> = (1..=4096).map(|r| 1.0 / f64::from(r).powf(1.1)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut pruned = RateTable::default();
        let mut unpruned: HashMap<u64, (f64, u64)> = HashMap::new();
        let mut forgotten = 0;
        for tick in 1..=200_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let fp = cdf.partition_point(|&c| c < u) as u64;
            forgotten +=
                usize::from(unpruned.contains_key(&fp) && !pruned.scores.contains_key(&fp));
            let got = pruned.bump(fp);
            let (score, last) = unpruned.entry(fp).or_insert((0.0, tick));
            *score = *score * ADMIT_DECAY.powf((tick - *last) as f64) + 1.0;
            *last = tick;
            assert_eq!(got.to_bits(), score.to_bits(), "tick {tick}, fp {fp}");
        }
        assert!(
            forgotten > 1000,
            "the stream revisits forgotten fingerprints"
        );
        assert!(pruned.scores.len() <= 2 * ADMIT_IDLE_TICKS as usize);
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

    /// One worker is wedged on a stalled load while a block queues up
    /// behind it: store hits, misses (one fingerprint twice), an entry
    /// tampered after sealing, a hit carrying a fault, a request that
    /// waits out its deadline in the queue, and one that waits it out
    /// behind a block-mate's stalled load. The worker then dequeues them
    /// all as one block.
    #[test]
    fn mixed_blocks_answer_like_solo_sessions() {
        use crate::store::StoreEntry;
        let engine = Engine::Vm;
        let (artifact, store) = dotprod_parts();
        let opts = RunnerOptions {
            engine,
            policy: Policy::FallbackToUnspecialized,
            rebuild_budget: 64,
            eval: ds_interp::EvalOptions {
                profile: true,
                ..ds_interp::EvalOptions::default()
            },
        };
        let cfg = DaemonConfig {
            workers: 1,
            max_queue: 64,
            deadline_ms: Some(400),
            runner: opts,
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), Arc::clone(&store), None, cfg);
        let mut reqs: Vec<Vec<Value>> = Vec::new();
        let submit = |reqs: &mut Vec<Vec<Value>>, args: Vec<Value>, fault| {
            daemon
                .submit(reqs.len() as u64, args.clone(), fault)
                .expect("submit");
            reqs.push(args);
        };
        // Warm-up, one request at a time: y1 = 1..=5 are staged and
        // sealed in the store.
        let mut warm = Vec::new();
        for y1 in 1..=5 {
            submit(&mut reqs, argv_fixed(f64::from(y1), 0.5, 0.25), None);
            warm.extend(collect(&rx, 1));
        }
        assert!(warm.iter().all(|r| r.result.is_ok()));
        // Tamper with y1 = 5's sealed entry behind the seal's back.
        let tampered_fp = artifact.inputs_fingerprint(&argv_fixed(5.0, 0.0, 0.0));
        let mut damaged = StoreEntry::clone(&store.get(tampered_fp).expect("staged"));
        damaged.cache.tamper(0, Some(Value::Float(1e9)));
        store.insert(tampered_fp, damaged);
        // Wedge the worker: y1 = 6 misses and its loader stalls while
        // holding the fingerprint's staging latch.
        submit(
            &mut reqs,
            argv_fixed(6.0, 1.0, 1.0),
            Some((Fault::Stall(600), 0)),
        );
        while daemon.shared.latches.live_entries() == 0 {
            std::thread::yield_now();
        }
        let late = reqs.len() as u64;
        submit(&mut reqs, argv_fixed(1.0, 9.0, 9.0), None);
        std::thread::sleep(Duration::from_millis(400));
        let first_hit = reqs.len();
        for &(y1, z) in &[(1.0, 2.0), (2.0, 3.0), (1.0, 4.0), (2.0, 5.0), (3.0, 6.0)] {
            submit(&mut reqs, argv_fixed(y1, z, z + 0.5), None);
        }
        let hits = first_hit..reqs.len();
        let staged = [reqs.len(), reqs.len() + 1];
        for &(y1, z) in &[(7.0, 1.0), (8.0, 2.0), (7.0, 3.0)] {
            submit(&mut reqs, argv_fixed(y1, z, 0.75), None);
        }
        submit(&mut reqs, argv_fixed(5.0, 7.0, 7.0), None);
        submit(
            &mut reqs,
            argv_fixed(4.0, 8.0, 8.0),
            Some((Fault::ExhaustFuel(3), 0)),
        );
        // Fault lanes are served last, in arrival order: y1 = 9's
        // loader stalls past the deadline, so it is answered late and
        // the lane after it expires before it executes.
        let stalled = reqs.len();
        submit(
            &mut reqs,
            argv_fixed(9.0, 1.0, 1.0),
            Some((Fault::Stall(300), 0)),
        );
        let expired = reqs.len();
        submit(
            &mut reqs,
            argv_fixed(3.0, 9.0, 9.0),
            Some((Fault::ExhaustFuel(3), 0)),
        );
        let n = reqs.len();
        let mut answers: Vec<Option<DaemonResponse>> = (0..n).map(|_| None).collect();
        for r in collect(&rx, n - 5) {
            let seq = r.seq as usize;
            assert!(
                answers[seq].replace(r).is_none(),
                "seq {seq} answered twice"
            );
        }
        let report = daemon.join();

        // A solo session over its own store is the oracle: a lane in
        // lockstep answers exactly as a warm reader would, field for
        // field; every other lane answers the reference value.
        let mut solo = Session::new(Arc::clone(&artifact), Arc::new(CacheStore::new(16)), opts);
        let mut deadline_missed = 0;
        for (seq, answer) in answers.iter().enumerate().skip(5) {
            let r = answer.as_ref().expect("every request is answered");
            let args = &reqs[seq];
            if [late as usize, 5, stalled, expired].contains(&seq) {
                assert_eq!(
                    r.result,
                    Err(RuntimeError::DeadlineExceeded { deadline_ms: 400 }),
                    "{engine:?} seq {seq}"
                );
                deadline_missed += 1;
                continue;
            }
            let got = r.result.as_ref().expect("answered");
            if hits.contains(&seq) {
                solo.run(&argv_fixed(args[1].as_float().unwrap(), 0.0, 0.0))
                    .expect("warm the solo session");
                let want = solo.run(args).expect("solo reader");
                assert!(
                    got.value
                        .as_ref()
                        .unwrap()
                        .bits_eq(want.value.as_ref().unwrap()),
                    "{engine:?} seq {seq}"
                );
                assert_eq!(got.cost, want.cost, "{engine:?} seq {seq}");
                assert_eq!(got.profile, want.profile, "{engine:?} seq {seq}");
            } else {
                let want = artifact.reference(args, opts.eval).expect("reference");
                assert!(
                    got.value
                        .as_ref()
                        .unwrap()
                        .bits_eq(want.value.as_ref().unwrap()),
                    "{engine:?} seq {seq}"
                );
            }
        }

        let counters = &report.counters;
        assert_eq!(counters.admitted(), n as u64);
        assert_eq!(counters.deadline_missed(), deadline_missed);
        let answered = warm
            .iter()
            .chain(answers.iter().flatten())
            .filter(|r| !matches!(r.result, Err(RuntimeError::DeadlineExceeded { .. })))
            .count() as u64;
        assert_eq!(counters.admitted(), answered + counters.deadline_missed());
        let distinct: std::collections::HashSet<u64> = reqs
            .iter()
            .map(|a| artifact.inputs_fingerprint(a))
            .collect();
        assert!(
            report.stats.loads <= distinct.len() as u64,
            "one load per distinct fingerprint"
        );
        assert_eq!(report.stats.validation_failures(), 1);
        assert!(
            store.get(tampered_fp).is_none(),
            "the tampered entry is invalidated"
        );
        let b = report.blocks;
        assert_eq!(b.blocks, 1, "{b:?}");
        assert_eq!(b.lockstep_lanes, hits.len() as u64, "{b:?}");
        // y1 = 7 and 8 are staged in one lockstep loader run; the
        // repeated y1 = 7 is sent back and served warm.
        assert_eq!(b.lockstep_loads, 2, "{b:?}");
        assert_eq!((b.miss, b.latched, b.seal, b.fault), (1, 0, 1, 3), "{b:?}");
        assert_eq!((b.reader_error, b.unadmitted), (0, 0), "{b:?}");

        let seqs: Vec<u64> = report.traces.iter().map(|t| t.seq).collect();
        assert_eq!(
            seqs,
            (0..n as u64).collect::<Vec<_>>(),
            "one trace per request"
        );
        for t in &report.traces {
            assert!(!t.stages.is_empty(), "seq {} has no stage", t.seq);
        }
        // A lockstep lane's stages are its share of the block, after
        // the time it waited on the rest of the block and its share of
        // the block's fingerprint loop.
        for seq in hits {
            let names: Vec<&str> = report.traces[seq].stages.iter().map(|s| s.0).collect();
            assert_eq!(
                names,
                [
                    "block_wait",
                    "fingerprint",
                    "store_probe",
                    "validate",
                    "read"
                ]
            );
        }
        for seq in staged {
            let t = &report.traces[seq];
            let names: Vec<&str> = t.stages.iter().map(|s| s.0).collect();
            assert_eq!(names, ["block_wait", "fingerprint", "store_probe", "load"]);
            assert_eq!(t.outcome, RequestOutcome::Load);
        }
        // The lane that expired behind the stall never executed.
        let t = &report.traces[expired];
        let names: Vec<&str> = t.stages.iter().map(|s| s.0).collect();
        assert_eq!(names, ["queue", "block_wait", "fingerprint"]);
        assert_eq!(t.outcome, RequestOutcome::Error);
        // Every other lane of the block waited on it too, by name.
        for t in &report.traces[late as usize + 1..] {
            assert!(
                t.stages.iter().any(|s| s.0 == "block_wait"),
                "seq {} has no block_wait stage",
                t.seq
            );
        }
    }

    /// Every request carries a `fingerprint` stage, once: each lockstep
    /// lane of a block its equal share of the block's fingerprint loop,
    /// right after its `block_wait`, and a lone request its own, with no
    /// `block_wait`.
    #[test]
    fn every_lane_traces_its_fingerprint_stage() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            runner: RunnerOptions {
                engine: Engine::Vm,
                ..RunnerOptions::default()
            },
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        // Stage four fingerprints one at a time: lone requests.
        for y1 in 0..4 {
            daemon
                .submit(y1, argv_fixed(y1 as f64, 0.5, 0.5), None)
                .expect("submit");
            assert!(collect(&rx, 1)[0].result.is_ok());
        }
        // Wedge the worker, then queue sixteen store hits behind it.
        daemon
            .submit(4, argv_fixed(9.0, 0.5, 0.5), Some((Fault::Stall(100), 0)))
            .expect("submit");
        while daemon.shared.latches.live_entries() == 0 {
            std::thread::yield_now();
        }
        for seq in 5..21 {
            let args = argv_fixed((seq % 4) as f64, seq as f64, 1.5);
            daemon.submit(seq, args, None).expect("submit");
        }
        assert!(collect(&rx, 17).iter().all(|r| r.result.is_ok()));
        let report = daemon.join();
        assert_eq!(report.blocks.blocks, 1, "{:?}", report.blocks);
        assert_eq!(report.blocks.lockstep_lanes, 16, "{:?}", report.blocks);
        let fingerprint = |t: &RequestTrace| -> Vec<u64> {
            t.stages
                .iter()
                .filter(|s| s.0 == "fingerprint")
                .map(|s| s.1)
                .collect()
        };
        let mut traces = report.traces.clone();
        traces.sort_by_key(|t| t.seq);
        assert_eq!(traces.len(), 21);
        for t in &traces[..5] {
            assert_eq!(t.stages[0].0, "fingerprint", "lone seq {}", t.seq);
            assert_eq!(fingerprint(t).len(), 1, "lone seq {}", t.seq);
            assert!(t.stages.iter().all(|s| s.0 != "block_wait"));
        }
        let share = fingerprint(&traces[5]);
        for t in &traces[5..] {
            let names: Vec<&str> = t.stages.iter().map(|s| s.0).collect();
            assert_eq!(
                names[..2],
                ["block_wait", "fingerprint"],
                "lockstep seq {}",
                t.seq
            );
            assert_eq!(fingerprint(t), share, "an equal share, once");
        }
        let hist = report
            .timing
            .stage("fingerprint")
            .expect("fingerprint stage");
        assert_eq!(hist.count(), 21);
    }

    /// A block of one repeated fingerprint is counted as per-request
    /// serving counts it: one store hit, then warm serves, and the
    /// session stays warm on it after the block.
    #[test]
    fn repeated_fingerprint_blocks_count_like_per_request_serving() {
        let engine = Engine::Vm;
        let (artifact, store) = dotprod_parts();
        let opts = RunnerOptions {
            engine,
            ..RunnerOptions::default()
        };
        let cfg = DaemonConfig {
            workers: 1,
            runner: opts,
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        let mut reqs = vec![argv_fixed(1.0, 0.5, 0.5)];
        daemon.submit(0, reqs[0].clone(), None).expect("submit");
        assert!(collect(&rx, 1)[0].result.is_ok(), "staged y1 = 1");
        // Wedge the worker on y1 = 2, then queue eight y1 = 1 lanes.
        reqs.push(argv_fixed(2.0, 0.5, 0.5));
        daemon
            .submit(1, reqs[1].clone(), Some((Fault::Stall(100), 0)))
            .expect("submit");
        while daemon.shared.latches.live_entries() == 0 {
            std::thread::yield_now();
        }
        for z in 0..8 {
            let args = argv_fixed(1.0, f64::from(z), 1.5);
            daemon
                .submit(reqs.len() as u64, args.clone(), None)
                .expect("submit");
            reqs.push(args);
        }
        assert!(collect(&rx, 9).iter().all(|r| r.result.is_ok()));
        // A lone request after the block is a warm serve.
        let args = argv_fixed(1.0, 9.0, 1.5);
        daemon
            .submit(reqs.len() as u64, args.clone(), None)
            .expect("submit");
        reqs.push(args);
        assert!(collect(&rx, 1)[0].result.is_ok());
        let report = daemon.join();
        assert_eq!(report.blocks.blocks, 1, "{:?}", report.blocks);
        assert_eq!(report.blocks.lockstep_lanes, 8, "{:?}", report.blocks);

        let mut solo = Session::new(artifact, Arc::new(CacheStore::new(16)), opts);
        solo.set_tracing(true);
        for args in &reqs {
            solo.run(args).expect("solo");
        }
        let (got, want) = (&report.stats, solo.stats());
        assert_eq!(got.requests, want.requests, "{engine:?}");
        assert_eq!(got.loads, want.loads, "{engine:?}");
        assert_eq!(got.store_hits(), want.store_hits(), "{engine:?}");
        assert_eq!(got.store_hits(), 1, "{engine:?}");
        let outcomes = |traces: &[RequestTrace]| -> Vec<RequestOutcome> {
            traces.iter().map(|t| t.outcome).collect()
        };
        assert_eq!(
            outcomes(&report.traces),
            outcomes(&solo.take_traces()),
            "{engine:?}"
        );
    }

    /// Wedges a one-worker daemon on a stalled load of `wedge`, so the
    /// requests submitted next queue up and are dequeued as one block.
    fn wedge(daemon: &Daemon, seq: u64, wedge: Vec<Value>) {
        daemon
            .submit(seq, wedge, Some((Fault::Stall(150), 0)))
            .expect("submit");
        while daemon.shared.latches.live_entries() == 0 {
            std::thread::yield_now();
        }
    }

    /// Stage names of a trace, without the daemon's own `block_wait` and
    /// `fingerprint`.
    fn session_stages(t: &RequestTrace) -> Vec<&'static str> {
        t.stages
            .iter()
            .map(|s| s.0)
            .filter(|&s| s != "block_wait" && s != "fingerprint")
            .collect()
    }

    /// A block of distinct store misses is staged in one lockstep loader
    /// run and answers, counts, traces and logs exactly as a solo session
    /// serving the requests one at a time; recovery from the log after
    /// the drain holds every install.
    #[test]
    fn distinct_miss_blocks_load_like_per_request_serving() {
        let engine = Engine::Vm;
        let (artifact, store) = dotprod_parts();
        let opts = RunnerOptions {
            engine,
            rebuild_budget: 64,
            eval: ds_interp::EvalOptions {
                profile: true,
                ..ds_interp::EvalOptions::default()
            },
            ..RunnerOptions::default()
        };
        let cfg = DaemonConfig {
            workers: 1,
            runner: opts,
            tracing: true,
            ..DaemonConfig::default()
        };
        let wal = Arc::new(Wal::in_memory(artifact.layout_fingerprint(), None));
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, Some(Arc::clone(&wal)), cfg);
        let mut reqs = vec![argv_fixed(100.0, 0.5, 0.5)];
        wedge(&daemon, 0, reqs[0].clone());
        for y1 in 1..=12 {
            let args = argv_fixed(f64::from(y1), f64::from(y1) * 0.25, 1.5);
            daemon
                .submit(reqs.len() as u64, args.clone(), None)
                .expect("submit");
            reqs.push(args);
        }
        let mut answers = collect(&rx, reqs.len());
        answers.sort_by_key(|r| r.seq);
        let report = daemon.join();
        let b = report.blocks;
        assert_eq!((b.blocks, b.lockstep_loads), (1, 12), "{engine:?} {b:?}");
        assert_eq!((b.miss, b.latched, b.lockstep_lanes), (0, 0, 0), "{b:?}");

        let solo_wal = Arc::new(Wal::in_memory(artifact.layout_fingerprint(), None));
        let mut solo = Session::new(Arc::clone(&artifact), Arc::new(CacheStore::new(16)), opts);
        solo.attach_wal(solo_wal);
        solo.set_tracing(true);
        for (r, args) in answers.iter().zip(&reqs) {
            let want = solo.run(args).expect("solo");
            let got = r.result.as_ref().expect("answered");
            let (g, w) = (got.value.as_ref().unwrap(), want.value.as_ref().unwrap());
            assert!(g.bits_eq(w), "{engine:?} seq {}", r.seq);
            assert_eq!(got.cost, want.cost, "{engine:?} seq {}", r.seq);
            assert_eq!(got.profile, want.profile, "{engine:?} seq {}", r.seq);
        }
        let (got, want) = (&report.stats, solo.stats());
        assert_eq!(got.requests, want.requests, "{engine:?}");
        assert_eq!(got.loads, want.loads, "{engine:?}");
        assert_eq!(got.rebuilds(), want.rebuilds(), "{engine:?}");
        assert_eq!(got.stale_reloads, want.stale_reloads, "{engine:?}");
        assert_eq!(got.store_misses(), want.store_misses(), "{engine:?}");
        assert_eq!(got.wal_appends(), want.wal_appends(), "{engine:?}");
        assert_eq!(got.profile, want.profile, "{engine:?}");
        let solo_traces = solo.take_traces();
        assert_eq!(report.traces.len(), solo_traces.len());
        for (t, s) in report.traces.iter().zip(&solo_traces) {
            assert_eq!(t.outcome, s.outcome, "{engine:?} seq {}", t.seq);
            assert_eq!(
                session_stages(t),
                session_stages(s),
                "{engine:?} seq {}",
                t.seq
            );
        }
        let rec = recover(None, &wal.log_text().expect("log"), artifact.layout()).expect("recover");
        for args in &reqs {
            let fp = artifact.inputs_fingerprint(args);
            assert!(
                rec.entries.iter().any(|(e, _)| *e == fp),
                "{engine:?}: the install of {fp:x} is logged"
            );
        }
    }

    /// A block whose misses run past the rebuild budget, with a loader
    /// that fails for one lane: each of those lanes gets the policy
    /// exactly once, and the block answers and counts as a solo session.
    #[test]
    fn budget_and_loader_errors_in_a_block_apply_the_policy_once() {
        const SRC: &str = "float f(float k, int d, float x) {
            int q = 12 / d;
            if (q > 2) { return sin(k) * x; }
            return cos(k) + x;
        }";
        let part = InputPartition::varying(["x"]);
        let spec = specialize_source(SRC, "f", &part, &SpecializeOptions::new()).expect("spec");
        let artifact = Arc::new(StagedArtifact::new(&spec, &part));
        for policy in [Policy::RebuildThenFallback, Policy::FailFast] {
            let opts = RunnerOptions {
                engine: Engine::Vm,
                policy,
                rebuild_budget: 3,
                eval: ds_interp::EvalOptions {
                    profile: true,
                    ..ds_interp::EvalOptions::default()
                },
            };
            let cfg = DaemonConfig {
                workers: 1,
                runner: opts,
                ..DaemonConfig::default()
            };
            let store = Arc::new(CacheStore::new(16));
            let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
            let args = |k: f64, d: i64| vec![Value::Float(k), Value::Int(d), Value::Float(0.5)];
            // The wedge loads (the session's first load); then six
            // distinct misses, the second of which divides by zero in its
            // loader. The budget allows three rebuilds.
            let mut reqs = vec![args(9.0, 1)];
            wedge(&daemon, 0, reqs[0].clone());
            for (k, d) in [(1.0, 2), (2.0, 0), (3.0, 3), (4.0, 4), (5.0, 5), (6.0, 1)] {
                daemon
                    .submit(reqs.len() as u64, args(k, d), None)
                    .expect("submit");
                reqs.push(args(k, d));
            }
            let mut answers = collect(&rx, reqs.len());
            answers.sort_by_key(|r| r.seq);
            let report = daemon.join();
            let mut solo = Session::new(Arc::clone(&artifact), Arc::new(CacheStore::new(16)), opts);
            for (r, a) in answers.iter().zip(&reqs) {
                assert_eq!(r.result, solo.run(a), "{policy:?} seq {}", r.seq);
            }
            let (got, want) = (&report.stats, solo.stats());
            assert_eq!(got, want, "{policy:?}");
            // Three lanes past the budget, one loader error.
            let policy_applied = match policy {
                Policy::FailFast => answers.iter().filter(|r| r.result.is_err()).count() as u64,
                _ => got.fallbacks(),
            };
            assert_eq!(policy_applied, 4, "{policy:?}");
            assert_eq!(got.rebuilds(), 3, "{policy:?}");
            // Only the lane before the failing loader was committed.
            assert_eq!(
                report.blocks.lockstep_loads, 1,
                "{policy:?} {:?}",
                report.blocks
            );
        }
    }

    /// Two workers staging overlapping blocks of the same fingerprints
    /// load each fingerprint once: a lane whose latch the other worker
    /// holds is sent back and waits for that worker's install.
    #[test]
    fn racing_blocks_load_each_fingerprint_at_most_once() {
        for round in 0..4 {
            let (artifact, _) = dotprod_parts();
            let cfg = DaemonConfig {
                workers: 2,
                max_queue: 256,
                runner: RunnerOptions {
                    engine: Engine::Vm,
                    rebuild_budget: u32::MAX,
                    ..RunnerOptions::default()
                },
                ..DaemonConfig::default()
            };
            let store = Arc::new(CacheStore::new(64));
            let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
            // Wedge both workers, then queue the fingerprints twice over.
            for (seq, y1) in [(0u64, 100.0), (1, 101.0)] {
                daemon
                    .submit(seq, argv_fixed(y1, 0.5, 0.5), Some((Fault::Stall(100), 0)))
                    .expect("submit");
            }
            while daemon.shared.latches.live_entries() < 2 {
                std::thread::yield_now();
            }
            let mut reqs = vec![argv_fixed(100.0, 0.5, 0.5), argv_fixed(101.0, 0.5, 0.5)];
            for pass in 0..2 {
                for y1 in 0..32 {
                    let args = argv_fixed(f64::from(y1), f64::from(pass + round), 0.25);
                    daemon
                        .submit(reqs.len() as u64, args.clone(), None)
                        .expect("submit");
                    reqs.push(args);
                }
            }
            let answers = collect(&rx, reqs.len());
            for r in &answers {
                let want = artifact
                    .reference(&reqs[r.seq as usize], cfg.runner.eval)
                    .expect("reference");
                let got = r.result.as_ref().expect("answered");
                assert!(got
                    .value
                    .as_ref()
                    .unwrap()
                    .bits_eq(want.value.as_ref().unwrap()));
            }
            let report = daemon.join();
            assert_eq!(report.stats.loads, 34, "round {round}: {:?}", report.blocks);
            assert!(report.blocks.lockstep_loads > 0, "{:?}", report.blocks);
            assert_eq!(daemon.shared.latches.live_entries(), 0);
        }
    }

    /// Lanes whose reader faults in lockstep leave the block and are
    /// served again on the per-request path, where the failure is
    /// counted and the policy applies; their neighbours stay in lockstep.
    #[test]
    fn reader_errors_leave_the_block_with_the_scalar_error() {
        const SRC: &str = "float f(float k, int i) {
            float v[3] = k + 1.0;
            v[0] = sin(k);
            return v[i] * k;
        }";
        let part = InputPartition::varying(["i"]);
        let spec = specialize_source(SRC, "f", &part, &SpecializeOptions::new()).expect("spec");
        let artifact = Arc::new(StagedArtifact::new(&spec, &part));
        let opts = RunnerOptions {
            engine: Engine::Vm,
            policy: Policy::FailFast,
            ..RunnerOptions::default()
        };
        let cfg = DaemonConfig {
            workers: 1,
            runner: opts,
            ..DaemonConfig::default()
        };
        let store = Arc::new(CacheStore::new(4));
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        let args = |k: f64, i: i64| vec![Value::Float(k), Value::Int(i)];
        daemon.submit(0, args(2.0, 0), None).expect("submit");
        assert!(collect(&rx, 1)[0].result.is_ok(), "staged k = 2");
        // Wedge the worker on another fingerprint, then queue the block.
        daemon
            .submit(1, args(3.0, 0), Some((Fault::Stall(100), 0)))
            .expect("submit");
        while daemon.shared.latches.live_entries() == 0 {
            std::thread::yield_now();
        }
        let lanes = [0, 1, 9, 2, -1, 1];
        for (i, &idx) in lanes.iter().enumerate() {
            daemon
                .submit(2 + i as u64, args(2.0, idx), None)
                .expect("submit");
        }
        let mut answers = collect(&rx, 1 + lanes.len());
        answers.sort_by_key(|r| r.seq);
        let report = daemon.join();
        let mut solo = Session::new(artifact, Arc::new(CacheStore::new(4)), opts);
        solo.run(&args(2.0, 0)).expect("warm the solo session");
        for (r, &idx) in answers[1..].iter().zip(&lanes) {
            assert_eq!(r.result, solo.run(&args(2.0, idx)), "i = {idx}");
        }
        assert!(matches!(
            answers[3].result,
            Err(RuntimeError::Eval(EvalError::IndexOutOfBounds {
                index: 9,
                ..
            }))
        ));
        let b = report.blocks;
        assert_eq!((b.lockstep_lanes, b.reader_error), (4, 2), "{b:?}");
        assert_eq!(b.engine.masked_lanes, 2, "{b:?}");
        assert_eq!(report.stats.reader_failures, 2);
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
        // Every request is served by the session and counted; an
        // unadmitted one is not a policy fallback.
        assert_eq!(report.stats.requests, 5);
        assert_eq!(report.stats.fallbacks(), 0);
        // Unspecialized serves appear in traces as fallbacks, timed as
        // the session's `unspec` stage.
        let unspec: Vec<_> = report
            .traces
            .iter()
            .filter(|t| t.outcome == RequestOutcome::Fallback)
            .collect();
        assert_eq!(unspec.len() as u32, b - 1);
        for t in unspec {
            assert_eq!(session_stages(t), ["unspec"], "seq {}", t.seq);
        }
        let hist = report.timing.stage("unspec").expect("unspec stage");
        assert_eq!(hist.count() as u32, b - 1);
        assert_eq!(report.timing.total.count(), 5);
    }

    /// A fault rides with its own request: an unadmitted request's
    /// corrupt-slot fault is dropped, not left pending to strike the next,
    /// admitted, request's load.
    #[test]
    fn an_unadmitted_request_drops_its_cache_fault() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            admission: Admission::Auto,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        daemon.preseed_breakeven(Some(2));
        let args = argv_fixed(2.0, 3.0, 6.0);
        let want = artifact
            .reference(&args, cfg.runner.eval)
            .expect("reference");
        for seq in 0..4u64 {
            let fault = (seq == 0).then_some((Fault::CorruptSlot, 7));
            daemon.submit(seq, args.clone(), fault).expect("submit");
            let r = collect(&rx, 1).remove(0);
            assert_eq!(r.specialized, seq > 0, "seq {seq}");
            let got = r.result.expect("answered");
            assert!(got.value.unwrap().bits_eq(want.value.as_ref().unwrap()));
        }
        let report = daemon.join();
        let st = &report.stats;
        assert_eq!(st.validation_failures(), 0);
        assert_eq!((st.loads, st.rebuilds()), (1, 0));
        assert_eq!(st.requests, 4);
    }

    /// An unadmitted request's stall delays that request: under a shorter
    /// deadline it fails with a typed error, and the next request, which
    /// is admitted, is not stalled.
    #[test]
    fn an_unadmitted_stall_exceeds_its_own_deadline() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            deadline_ms: Some(20),
            admission: Admission::After(2),
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        let args = argv_fixed(2.0, 3.0, 6.0);
        daemon
            .submit(0, args.clone(), Some((Fault::Stall(80), 0)))
            .expect("submit");
        let stalled = collect(&rx, 1).remove(0);
        assert!(!stalled.specialized);
        assert_eq!(
            stalled.result,
            Err(RuntimeError::DeadlineExceeded { deadline_ms: 20 })
        );
        daemon.submit(1, args, None).expect("submit");
        let next = collect(&rx, 1).remove(0);
        assert!(next.specialized);
        assert!(next.result.is_ok(), "{:?}", next.result);
        let report = daemon.join();
        assert_eq!(report.counters.deadline_missed(), 1);
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
