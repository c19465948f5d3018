//! The staged-execution session: cache lifecycle, validation, degradation.
//!
//! A [`Session`] owns everything the paper leaves implicit between "run
//! the loader once" and "run the reader per varying input": *when* the
//! loader must re-run (stale invariants, a mismatched or damaged cache),
//! *how* a damaged cache is detected before it can produce a wrong answer,
//! and *what* happens when staged execution fails at runtime.
//!
//! A session is one caller's mutable serving state — the VM register file,
//! a private working [`CacheBuf`], degradation bookkeeping and statistics.
//! It shares the immutable [`StagedArtifact`] and the
//! polyvariant [`CacheStore`] with every other session
//! through [`Arc`]s; the [`Daemon`](crate::Daemon) runs one session per
//! worker thread.
//!
//! ## Lifecycle
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            ▼                                                │
//!  Cold ──fetch (store hit, or budget-gated loader run)──▶ Warm{inputs_fp, seal}
//!            │                                                │
//!            │ loader error → policy                          │ request
//!            ▼                                                ▼
//!        fallback / error            stale fp ──────────────▶ fetch
//!                                    validation failure ────▶ policy
//!                                    reader error ──────────▶ policy
//! ```
//!
//! A load *returns the loader's own outcome* — the loader computes the
//! result while filling the cache (the paper's protocol), so the first
//! request per invariant context costs one loader run, not loader+reader.
//! After a successful load the cache is **sealed** with its content hash;
//! every warm request re-validates the seal (plus the write-fault shadow
//! and the structural length) before trusting the reader, so corruption is
//! caught as a typed [`IntegrityError`] — never consumed silently.
//!
//! The store sits between the session and the loader:
//!
//! * a request whose fingerprint matches the session's local warm cache is
//!   served straight from that buffer — the hot path takes no lock at all;
//! * on a fingerprint switch the session probes the store once
//!   (`store_hits`/`store_misses`). A hit shares the sealed entry out of
//!   the store (a refcount bump under the shard lock) and copies it into
//!   the session's private buffer after the lock is released, so no
//!   execution ever runs against shared memory — a torn cache is
//!   structurally impossible, and the seal + shadow validation still runs
//!   against the copy;
//! * only a store miss runs the loader (budget-gated as before), and the
//!   freshly sealed cache is published back to the store for the other
//!   sessions (evictions are counted on the publishing session's profile).
//!   Under the [`Daemon`](crate::Daemon) a miss is single-flight: the
//!   session takes the fingerprint's exclusive staging latch and re-probes
//!   before loading, or, when another worker is already staging it, waits
//!   for that stager (the `latch_wait` stage) and probes again. Hits take
//!   no latch;
//! * a cache that fails validation is invalidated in the store *and*
//!   dropped locally before the policy decides how to recover, so a
//!   damaged entry is never re-served anywhere.
//!
//! ## Blocks
//!
//! The [`Daemon`](crate::Daemon) also serves several queued requests at
//! once through a crate-private block entry point, walking the lanes as
//! if serving them one at a time. A lane of the fingerprint the session
//! would be warm on by then is a warm serve; any other lane is probed
//! once, and a hit whose shared sealed entry passes the same three checks
//! in place (slot count, tamper shadow, seal) joins the block. The joined
//! lanes run the reader in lockstep on a batch VM, lane `j` reading its
//! own cache with no copy. When two or more lanes miss, the session
//! stages them together: it takes each missing fingerprint's exclusive
//! latch without waiting and re-probes under it, runs the loader for
//! every latched lane in one lockstep run over fresh per-lane caches,
//! and then seals, publishes, logs and counts each load in arrival order
//! before any answer leaves the block, exactly as the per-request reload
//! would. The session ends warm on the last entry a lane joined on or
//! loaded. Every other lane — a miss the block could not stage, a
//! failed check, a reader error — takes the per-request lifecycle above,
//! reusing the block's probe, so its counters, policy and answer are
//! exactly those of [`Session::run`].

use crate::artifact::StagedArtifact;
use crate::cachefile;
use crate::error::{IntegrityError, RuntimeError};
use crate::fault::{Fault, FaultInjector};
use crate::latch::{ExclusiveLatch, LatchTable};
use crate::recovery::Recovery;
use crate::store::{CacheStore, StoreEntry};
use crate::timing::{RequestOutcome, RequestTrace};
use crate::wal::{Wal, WalOp};
use ds_interp::{
    BatchVm, CacheBuf, Engine, EvalError, EvalOptions, Evaluator, Outcome, Profile, Value, Vm,
    WriteFault,
};
use ds_telemetry::{Json, Timing};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// What a session does when staged execution fails at runtime (reader
/// error, failed validation, exhausted rebuild budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Policy {
    /// Surface the typed error to the caller; never mask a failure.
    FailFast,
    /// Re-run the loader (budget permitting) — the reload serves the
    /// request — and fall back to the unspecialized fragment if the reload
    /// itself fails or the budget is spent.
    #[default]
    RebuildThenFallback,
    /// Serve the request by evaluating the unspecialized fragment directly;
    /// the damaged cache is discarded so the normal lifecycle can rebuild
    /// it on a later request (budget permitting).
    FallbackToUnspecialized,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::FailFast => write!(f, "fail-fast"),
            Policy::RebuildThenFallback => write!(f, "rebuild"),
            Policy::FallbackToUnspecialized => write!(f, "fallback"),
        }
    }
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fail-fast" | "failfast" => Ok(Policy::FailFast),
            "rebuild" | "rebuild-then-fallback" => Ok(Policy::RebuildThenFallback),
            "fallback" | "unspecialized" => Ok(Policy::FallbackToUnspecialized),
            other => Err(format!(
                "unknown policy `{other}`; expected fail-fast, rebuild or fallback"
            )),
        }
    }
}

/// Configuration of a [`Session`].
#[derive(Debug, Clone, Copy)]
pub struct RunnerOptions {
    /// Which execution engine serves requests. Under `vm` the daemon also
    /// runs its blocks of hits and misses on the batch VM.
    pub engine: Engine,
    /// The degradation policy.
    pub policy: Policy,
    /// How many loader *re*-runs (beyond the initial cold load) the session
    /// may spend over its lifetime; bounds rebuild storms.
    pub rebuild_budget: u32,
    /// Engine options for every execution (step limit, profiling).
    pub eval: EvalOptions,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            engine: Engine::default(),
            policy: Policy::default(),
            rebuild_budget: 8,
            eval: EvalOptions::default(),
        }
    }
}

/// Aggregate robustness statistics of one session.
///
/// The rebuild/fallback/validation-failure and store counters live on the
/// embedded telemetry [`Profile`] (and therefore in every metrics export);
/// this struct adds the lifecycle counters that only the runtime can
/// observe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Requests served (successfully or not), the daemon's unadmitted
    /// serves included.
    pub requests: u64,
    /// Loader executions, including the initial cold load.
    pub loads: u64,
    /// Fingerprint switches that missed the store and forced a reload.
    pub stale_reloads: u64,
    /// Reader executions that returned an `EvalError`.
    pub reader_failures: u64,
    /// Merged execution profile across every engine run the session issued
    /// (populated when [`EvalOptions::profile`] is on), carrying the
    /// `rebuilds` / `fallbacks` / `validation_failures` and
    /// `store_hits` / `store_misses` / `store_evictions` counters always.
    pub profile: Profile,
}

impl RunnerStats {
    /// Loader re-runs beyond the initial cold load.
    pub fn rebuilds(&self) -> u64 {
        self.profile.rebuilds
    }

    /// Requests the degradation policy served by the unspecialized
    /// fragment; the daemon's unadmitted serves are not fallbacks.
    pub fn fallbacks(&self) -> u64 {
        self.profile.fallbacks
    }

    /// Warm-cache validations that failed.
    pub fn validation_failures(&self) -> u64 {
        self.profile.validation_failures
    }

    /// Fingerprint switches served from the shared store.
    pub fn store_hits(&self) -> u64 {
        self.profile.store_hits
    }

    /// Fingerprint switches the store could not serve.
    pub fn store_misses(&self) -> u64 {
        self.profile.store_misses
    }

    /// Entries this session's publishes evicted from the store.
    pub fn store_evictions(&self) -> u64 {
        self.profile.store_evictions
    }

    /// Operations appended to the attached write-ahead log.
    pub fn wal_appends(&self) -> u64 {
        self.profile.wal_appends
    }

    /// Log records replayed during an adopted recovery.
    pub fn wal_replays(&self) -> u64 {
        self.profile.wal_replays
    }

    /// Sealed caches installed from recovery instead of a loader run.
    pub fn recovered_caches(&self) -> u64 {
        self.profile.recovered_caches
    }

    /// Accumulates `other` into `self`, field-wise; like
    /// [`Profile::merge`] this is associative and commutative, so merging
    /// per-worker stats in worker order is deterministic.
    pub fn merge(&mut self, other: &RunnerStats) {
        self.requests += other.requests;
        self.loads += other.loads;
        self.stale_reloads += other.stale_reloads;
        self.reader_failures += other.reader_failures;
        self.profile.merge(&other.profile);
    }

    /// Serializes the statistics (and embedded profile) as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests)),
            ("loads", Json::from(self.loads)),
            ("stale_reloads", Json::from(self.stale_reloads)),
            ("reader_failures", Json::from(self.reader_failures)),
            ("rebuilds", Json::from(self.rebuilds())),
            ("fallbacks", Json::from(self.fallbacks())),
            (
                "validation_failures",
                Json::from(self.validation_failures()),
            ),
            ("store_hits", Json::from(self.store_hits())),
            ("store_misses", Json::from(self.store_misses())),
            ("store_evictions", Json::from(self.store_evictions())),
            ("wal_appends", Json::from(self.wal_appends())),
            ("wal_replays", Json::from(self.wal_replays())),
            ("recovered_caches", Json::from(self.recovered_caches())),
            ("profile", self.profile.to_json()),
        ])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheState {
    Cold,
    Warm { inputs_fp: u64, seal: u64 },
}

/// A fault scheduled by [`Session::inject`], applied one-shot at the
/// matching lifecycle point.
#[derive(Debug, Clone, Copy)]
enum PendingFault {
    /// Arm the cache with a write fault at the next load.
    Arm(WriteFault),
    /// Truncate the sealed buffer to this length before the next
    /// validation (or right after the next seal, when currently cold).
    Truncate(usize),
    /// Run the next staged execution (reader or loader) with this much
    /// fuel.
    Fuel(u64),
    /// Stall the next staged execution for this many milliseconds before
    /// it runs (a wedged stager: late, never wrong).
    Stall(u64),
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    Fragment,
    Loader,
    Reader,
}

/// A store probe already made for a request, with its time: a block's
/// probe, handed on to the lane's per-request path so it is not repeated.
#[derive(Default)]
pub(crate) struct Probe {
    entry: Option<Arc<StoreEntry>>,
    nanos: u64,
}

/// What [`Session::run_block`] did with one lane of a block.
pub(crate) enum Served {
    /// Answered by the lockstep reader run. `nanos` is the lane's own
    /// time, the sum of its stages.
    Lockstep { out: Outcome, nanos: u64 },
    /// Staged by the lockstep loader run and committed: the loader's
    /// answer, or the write-ahead log's error. `nanos` as for `Lockstep`.
    Loaded {
        result: Result<Outcome, RuntimeError>,
        nanos: u64,
    },
    /// Sent back to the per-request path: why, and the store probe its
    /// serve reuses (`None` when the lane was not probed).
    SentBack { exit: Exit, probe: Option<Probe> },
}

/// Where a lane that joins a block reads its cache from.
enum Source {
    /// The session's private buffer: the lane is a warm serve.
    Local,
    /// A shared sealed entry. `hit` marks the lane that probed it; the
    /// lanes after it with its fingerprint are warm serves.
    Store { entry: Arc<StoreEntry>, hit: bool },
}

/// What [`Session::run_block`] plans for one lane.
enum Plan<'t> {
    /// Join the lockstep reader run.
    Read(Source),
    /// Join the lockstep loader run.
    Load(Stager<'t>),
    /// Go back to the per-request path.
    Back(Exit, Option<Probe>),
}

/// A lane staged for the lockstep loader run: the fingerprint's
/// exclusive latch, held until its entry is published, and the time the
/// latch and the re-probe under it took.
struct Stager<'t> {
    latch: ExclusiveLatch<'t>,
    probe_nanos: u64,
}

/// One request of a block: its arguments, the fingerprint the daemon
/// hashed them to, and its submission sequence number (stamped on its
/// trace).
pub(crate) struct BlockLane<'a> {
    pub(crate) args: &'a [Value],
    pub(crate) fp: u64,
    pub(crate) seq: u64,
}

/// Why a lane of a block was served on the per-request path instead of
/// in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// The store had no entry for the lane's fingerprint, and the block
    /// did not stage it.
    Miss,
    /// Another worker staged the fingerprint: it held the staging latch,
    /// or published the entry before the block took the latch.
    Latched,
    /// The entry failed the slot-count, tamper or seal check.
    Seal,
    /// The reader failed, or was masked, in lockstep.
    ReaderError,
}

/// Pre-reader integrity validation of a sealed cache: the layout's slot
/// count, the write-fault shadow, then the seal.
fn validate_cache(cache: &CacheBuf, declared: usize, seal: u64) -> Result<(), IntegrityError> {
    if cache.len() != declared {
        return Err(IntegrityError::LayoutMismatch {
            detail: format!(
                "cache has {} slot(s), layout declares {declared}",
                cache.len(),
            ),
        });
    }
    if let Some(slot) = cache.first_tampered_slot() {
        return Err(IntegrityError::TamperedSlot { slot });
    }
    let found = cache.content_hash();
    if found != seal {
        return Err(IntegrityError::SealBroken {
            expected: seal,
            found,
        });
    }
    Ok(())
}

/// One caller's mutable serving state over a shared artifact and store.
#[derive(Debug)]
pub struct Session {
    artifact: Arc<StagedArtifact>,
    store: Arc<CacheStore>,
    vm: Vm,
    opts: RunnerOptions,
    /// Private working copy of the current entry; engines execute against
    /// this buffer only, never against store memory.
    cache: CacheBuf,
    state: CacheState,
    ever_loaded: bool,
    rebuilds_used: u32,
    pending: Option<PendingFault>,
    /// Optional shared write-ahead log; when attached, every store install
    /// and invalidation is logged before the request is acknowledged.
    wal: Option<Arc<Wal>>,
    stats: RunnerStats,
    /// Serving-path latency histograms. Wall time is nondeterministic, so
    /// this is a side-channel beside `stats` — it is never merged into the
    /// [`RunnerStats`]/`Profile` exports the parity suites gate on.
    timing: Timing,
    /// Stage timings of the request currently being served, in execution
    /// order; drained into `timing` (and the trace, when enabled) at the
    /// end of each `run`.
    req_stages: Vec<(&'static str, u64)>,
    /// When `true`, every request also appends a [`RequestTrace`].
    tracing: bool,
    traces: Vec<RequestTrace>,
    /// Local 0-based serve order, stamped on traces.
    seq: u64,
}

impl Session {
    /// Opens a session over a shared artifact and store.
    pub fn new(artifact: Arc<StagedArtifact>, store: Arc<CacheStore>, opts: RunnerOptions) -> Self {
        Session {
            cache: CacheBuf::new(artifact.layout.slot_count()),
            artifact,
            store,
            vm: Vm::new(),
            opts,
            state: CacheState::Cold,
            ever_loaded: false,
            rebuilds_used: 0,
            pending: None,
            wal: None,
            stats: RunnerStats::default(),
            timing: Timing::new(),
            req_stages: Vec::new(),
            tracing: false,
            traces: Vec::new(),
            seq: 0,
        }
    }

    /// Attaches a shared write-ahead log. From now on every sealed-cache
    /// install and store invalidation is appended to the log *before* the
    /// request is acknowledged, and the log checkpoints itself when due.
    pub fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Installs a recovered store state (see
    /// [`recover`](crate::recovery::recover)) into the shared store and
    /// counts it on this session's profile. Recovered entries are re-sealed
    /// from content (the log stores content, not seals; the hash is
    /// deterministic, so an uncorrupted replay re-derives the same seal the
    /// original loader produced) and are *not* re-logged — they are already
    /// in the history being recovered.
    pub fn adopt_recovery(&mut self, rec: &Recovery) {
        for (fp, cache) in &rec.entries {
            let seal = cache.content_hash();
            let evicted = self.store.insert(
                *fp,
                StoreEntry {
                    cache: cache.clone(),
                    seal,
                },
            );
            self.stats.profile.store_evictions += evicted;
        }
        self.stats.profile.recovered_caches += rec.entries.len() as u64;
        self.stats.profile.wal_replays += rec.replayed;
        self.ever_loaded |= !rec.entries.is_empty();
    }

    /// The shared immutable artifact this session executes.
    pub fn artifact(&self) -> &Arc<StagedArtifact> {
        &self.artifact
    }

    /// The shared polyvariant cache store this session publishes to.
    pub fn store(&self) -> &Arc<CacheStore> {
        &self.store
    }

    /// Robustness statistics accumulated so far.
    pub fn stats(&self) -> &RunnerStats {
        &self.stats
    }

    /// Serving-path latency histograms accumulated so far (end-to-end plus
    /// per-stage). A nondeterministic side-channel: never part of
    /// [`Session::stats`] or any parity-gated export. Merge per-worker
    /// timings with [`Timing::merge`].
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Enables or disables per-request trace collection (off by default —
    /// traces allocate per request, histograms do not).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Drains the traces collected since the last call (empty unless
    /// [`Session::set_tracing`] was enabled). `seq` is this session's
    /// local serve order; multi-worker drivers rebase it to the global
    /// request index.
    pub fn take_traces(&mut self) -> Vec<RequestTrace> {
        std::mem::take(&mut self.traces)
    }

    /// Whether the session's local cache is warm (loaded and sealed).
    pub fn is_warm(&self) -> bool {
        matches!(self.state, CacheState::Warm { .. })
    }

    /// Whether a fault scheduled by [`Session::inject`] has yet to strike.
    pub(crate) fn has_pending_fault(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether [`run_block`](Session::run_block) can serve this session's
    /// hits in lockstep: a bytecode engine, and a reader that only reads
    /// its cache. The tree walker is the reference engine and stays
    /// per-request.
    pub(crate) fn serves_blocks(&self) -> bool {
        self.opts.engine != Engine::Tree
            && !self
                .artifact
                .compiled
                .writes_cache(&self.artifact.reader_name)
    }

    /// Fingerprint of the invariant-input vector within `args`.
    pub fn inputs_fingerprint(&self, args: &[Value]) -> u64 {
        self.artifact.inputs_fingerprint(args)
    }

    /// Schedules a one-shot in-memory fault, deterministically sited from
    /// `seed`. Write-ahead-log faults ([`Fault::TornWrite`],
    /// [`Fault::CrashAtByte`]) are forwarded to the attached [`Wal`].
    ///
    /// # Errors
    ///
    /// File faults ([`Fault::CorruptFile`], [`Fault::TruncateFile`]) do not
    /// apply to the in-memory lifecycle; damage the serialized text with
    /// [`FaultInjector`] instead. WAL faults require an attached log.
    pub fn inject(&mut self, fault: Fault, seed: u64) -> Result<(), String> {
        let mut inj = FaultInjector::new(seed);
        let slots = self.artifact.layout.slot_count() as u64;
        self.pending = Some(match fault {
            Fault::CorruptSlot => PendingFault::Arm(WriteFault::CorruptNth(inj.pick(slots))),
            Fault::DropStore => PendingFault::Arm(WriteFault::DropNth(inj.pick(slots))),
            Fault::TruncateBuffer => PendingFault::Truncate(inj.pick(slots) as usize),
            Fault::ExhaustFuel(n) => PendingFault::Fuel(n),
            Fault::Stall(ms) => PendingFault::Stall(ms),
            Fault::CorruptFile | Fault::TruncateFile => {
                return Err(format!(
                    "fault `{fault}` applies to a serialized cache file, not the in-memory \
                     lifecycle"
                ))
            }
            Fault::TornWrite(_) | Fault::CrashAtByte(_) | Fault::SlowIo(_) => {
                return match &self.wal {
                    Some(wal) => wal.arm(fault),
                    None => Err(format!(
                        "fault `{fault}` strikes the write-ahead log, but no log is attached"
                    )),
                }
            }
        });
        Ok(())
    }

    /// Serves one request: consults the local cache, then the shared
    /// store, and only then (re)builds — or degrades per the configured
    /// [`Policy`].
    ///
    /// # Errors
    ///
    /// A typed [`RuntimeError`]; under every fault model the returned value
    /// is either the reference answer or one of these.
    pub fn run(&mut self, args: &[Value]) -> Result<Outcome, RuntimeError> {
        let fp = self.artifact.inputs_fingerprint(args);
        self.serve(args, fp, None, None, Instant::now())
    }

    /// [`Session::run`] for a caller that already fingerprinted `args`
    /// (`fp` must equal [`Session::inputs_fingerprint`] of them), with
    /// store misses staged single-flight through `latches`: concurrent
    /// first requests for one fingerprint run its loader once. A lane
    /// [`run_block`](Session::run_block) sent back passes its `probe`,
    /// which stands in for the first store probe. The serve's latency
    /// counts from `started`, the caller's clock reading as it began.
    pub(crate) fn run_single_flight(
        &mut self,
        args: &[Value],
        fp: u64,
        latches: &LatchTable,
        probe: Option<Probe>,
        started: Instant,
    ) -> Result<Outcome, RuntimeError> {
        self.serve(args, fp, Some(latches), probe, started)
    }

    /// Serves the store hits and stages the store misses of a block of
    /// requests the daemon has already fingerprinted and admitted.
    /// Requires [`serves_blocks`](Session::serves_blocks) and no pending
    /// fault.
    ///
    /// The lanes are walked in arrival order, as if served one at a
    /// time. A lane whose fingerprint the session would be warm on by
    /// then (its own warm cache, or the entry of an earlier lane of the
    /// block) is a warm serve and is not probed. Any other lane probes
    /// the store once; a hit whose shared sealed entry passes
    /// [`validate_cache`] in place joins the block. The joined lanes run
    /// the reader in lockstep on `batch`, lane `j` reading its own cache
    /// with no copy.
    ///
    /// When two or more lanes miss, their loaders run together: for each
    /// missing fingerprint, in arrival order, the session takes the
    /// fingerprint's exclusive latch (never waiting for it) and probes
    /// again under it, then runs the loader for every latched lane in one
    /// lockstep run over fresh per-lane caches. In arrival order, each
    /// lane up to the first whose loader failed is then sealed, published
    /// to the store, logged to the write-ahead log and counted exactly as
    /// [`Session::run`]'s reload counts it, all before any answer leaves
    /// the block.
    ///
    /// The block's lockstep lanes are counted as if served first, the
    /// hits and then the loads, and the session ends the block warm on
    /// the last entry a lane joined on or loaded. Every other lane is
    /// sent back, with its probe when it made one: a miss the block did
    /// not stage (a lone miss, a repeated fingerprint, a lane past the
    /// rebuild budget, a lane whose loader failed or was masked, and the
    /// staged lanes after it), a lane whose latch another worker holds, a
    /// failed validation, a reader error, and a lane repeating the
    /// fingerprint of a lane sent back. The caller serves it through
    /// [`run_single_flight`](Session::run_single_flight), where a miss is
    /// staged single-flight, a damaged entry is invalidated and logged, a
    /// reader error is counted, and the policy applies — so each answer
    /// is bit-identical to [`Session::run`]'s on the same request.
    ///
    /// A lockstep lane is traced as a store hit when it probed its entry,
    /// as a warm serve when it did not, and as a load when it was staged.
    /// Its `store_probe` (hits and loads), `validate` (hits and warm
    /// serves), `read` and `load` stages are its share of the block's
    /// time in each phase: the phase's wall time divided by the lanes
    /// that took part in it. A staged lane's `store_probe` adds its own
    /// latch and re-probe time, and its `wal_append` is its own.
    pub(crate) fn run_block(
        &mut self,
        lanes: &[BlockLane<'_>],
        batch: &mut BatchVm,
        latches: &LatchTable,
    ) -> Vec<Served> {
        let declared = self.artifact.layout.slot_count();
        let local = match self.state {
            CacheState::Warm { inputs_fp, seal } => Some((inputs_fp, seal)),
            CacheState::Cold => None,
        };
        // Probe phase: the lanes that would probe if every hit passed its
        // checks, probed back to back. Probing each lane between its
        // neighbours' validations, with a clock read around each, served
        // 9% fewer `drag` answers per second.
        let t = Instant::now();
        let mut probed: Vec<Option<Option<Arc<StoreEntry>>>> = Vec::with_capacity(lanes.len());
        let (mut warm_fp, mut back_fp) = (local.map(|(fp, _)| fp), None);
        for lane in lanes {
            if warm_fp == Some(lane.fp) || back_fp == Some(lane.fp) {
                probed.push(None);
                continue;
            }
            let entry = self.store.get(lane.fp);
            if entry.is_some() {
                warm_fp = Some(lane.fp);
            } else {
                back_fp = Some(lane.fp);
            }
            probed.push(Some(entry));
        }
        let mut probe_nanos = t.elapsed().as_nanos() as u64;
        let mut probes = probed.iter().filter(|p| p.is_some()).count() as u64;

        // Validation phase: each lane's plan, in arrival order. `warm` is
        // what the session would be warm on as the lane is served: the
        // fingerprint, its store entry (`None`: the private buffer) and
        // whether it passed validation. A lane the probe phase skipped
        // because an earlier hit was assumed to pass, when it did not, is
        // probed here.
        let t = Instant::now();
        let mut late_probe_nanos = 0;
        let mut warm = local.map(|(fp, seal)| {
            let ok = !lanes.iter().any(|l| l.fp == fp)
                || validate_cache(&self.cache, declared, seal).is_ok();
            (fp, None, ok)
        });
        // The last lane sent back after a probe: a lane repeating its
        // fingerprint shares its probe and its exit.
        let mut last_back: Option<(u64, Exit, Option<Arc<StoreEntry>>)> = None;
        let mut checked = 0u64;
        // The lanes whose own probe missed: the candidates for staging.
        let mut missed = Vec::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(lanes.len());
        for (i, (lane, probed)) in lanes.iter().zip(&mut probed).enumerate() {
            let probe = |entry| Some(Probe { entry, nanos: 0 });
            let plan = match (&warm, &last_back) {
                (Some((fp, entry, ok)), _) if *fp == lane.fp => {
                    checked += 1;
                    match (entry, ok) {
                        (_, false) => Plan::Back(Exit::Seal, None),
                        (None, true) => Plan::Read(Source::Local),
                        (Some(e), true) => Plan::Read(Source::Store {
                            entry: Arc::clone(e),
                            hit: false,
                        }),
                    }
                }
                (_, Some((fp, exit, entry))) if *fp == lane.fp => {
                    Plan::Back(*exit, probe(entry.clone()))
                }
                _ => {
                    let entry = probed.take().unwrap_or_else(|| {
                        let t = Instant::now();
                        let entry = self.store.get(lane.fp);
                        late_probe_nanos += t.elapsed().as_nanos() as u64;
                        probes += 1;
                        entry
                    });
                    match entry {
                        None => {
                            missed.push(i);
                            Plan::Back(Exit::Miss, probe(None))
                        }
                        Some(e) => {
                            checked += 1;
                            if validate_cache(&e.cache, declared, e.seal).is_ok() {
                                warm = Some((lane.fp, Some(Arc::clone(&e)), true));
                                Plan::Read(Source::Store {
                                    entry: e,
                                    hit: true,
                                })
                            } else {
                                Plan::Back(Exit::Seal, probe(Some(e)))
                            }
                        }
                    }
                }
            };
            if let Plan::Back(exit, Some(p)) = &plan {
                last_back = Some((lane.fp, *exit, p.entry.clone()));
            }
            plans.push(plan);
        }
        let validate_nanos = (t.elapsed().as_nanos() as u64).saturating_sub(late_probe_nanos);
        probe_nanos += late_probe_nanos;
        let probe_share = probe_nanos / probes.max(1);

        if missed.len() >= 2 {
            self.latch_misses(lanes, &missed, &mut plans, latches);
        }

        let readers: Vec<(&[Value], &CacheBuf)> = plans
            .iter()
            .zip(lanes)
            .filter_map(|(plan, lane)| match plan {
                Plan::Read(Source::Local) => Some((lane.args, &self.cache)),
                Plan::Read(Source::Store { entry, .. }) => Some((lane.args, &entry.cache)),
                _ => None,
            })
            .collect();
        let t = Instant::now();
        let art = &self.artifact;
        let mut read = batch
            .run_lanes(&art.compiled, &art.reader_name, &readers, self.opts.eval)
            .into_iter();
        let read_nanos = t.elapsed().as_nanos() as u64;
        let joined = readers.len() as u64;
        drop(readers);

        // The staged lanes' loaders, in one lockstep run over fresh caches.
        let staged = plans.iter().filter(|p| matches!(p, Plan::Load(_))).count();
        let mut caches: Vec<CacheBuf> = (0..staged).map(|_| CacheBuf::new(declared)).collect();
        let mut loaders: Vec<(&[Value], &mut CacheBuf)> = plans
            .iter()
            .zip(lanes)
            .filter(|(plan, _)| matches!(plan, Plan::Load(_)))
            .map(|(_, lane)| lane.args)
            .zip(caches.iter_mut())
            .collect();
        let t = Instant::now();
        let loaded = batch.run_lanes_mut(
            &art.compiled,
            &art.loader_name,
            &mut loaders,
            self.opts.eval,
        );
        let load_share = (t.elapsed().as_nanos() as u64) / (staged as u64).max(1);
        drop(loaders);
        // Lanes are committed up to the first failed loader, so the
        // counters, the rebuild budget and the warm state see the same
        // sequence of successful loads as one-at-a-time serving would.
        let commits = loaded.iter().take_while(|r| r.is_ok()).count();
        let mut loads = loaded.into_iter().zip(caches);
        let mut committed = 0;

        if let Some((inputs_fp, Some(entry), true)) = &warm {
            self.cache.clone_from(&entry.cache);
            self.state = CacheState::Warm {
                inputs_fp: *inputs_fp,
                seal: entry.seal,
            };
        }

        let stages = [
            ("store_probe", probe_share),
            ("validate", validate_nanos / checked.max(1)),
            ("read", read_nanos / joined.max(1)),
        ];
        let mut served = Vec::with_capacity(lanes.len());
        for (plan, lane) in plans.into_iter().zip(lanes) {
            let source = match plan {
                Plan::Read(source) => source,
                Plan::Load(stager) => {
                    // `loads` yields the staged lanes in arrival order.
                    let probe_nanos = probe_share + stager.probe_nanos;
                    served.push(match loads.next() {
                        Some((Ok(out), cache)) if committed < commits => {
                            committed += 1;
                            let (result, nanos) = self.commit_load(
                                lane,
                                out,
                                cache,
                                committed == commits,
                                [("store_probe", probe_nanos), ("load", load_share)],
                            );
                            Served::Loaded { result, nanos }
                        }
                        _ => Served::SentBack {
                            exit: Exit::Miss,
                            probe: Some(Probe {
                                entry: None,
                                nanos: probe_nanos,
                            }),
                        },
                    });
                    // Held until the lane's entry is published (or given
                    // up): a racing worker waits for it, then hits.
                    drop(stager.latch);
                    continue;
                }
                Plan::Back(exit, mut probe) => {
                    if let Some(p) = &mut probe {
                        p.nanos = probe_share;
                    }
                    served.push(Served::SentBack { exit, probe });
                    continue;
                }
            };
            let hit = matches!(source, Source::Store { hit: true, .. });
            let out = match read.next() {
                Some(Ok(out)) => out,
                // The reader failure is counted, and the policy applies,
                // when the lane is served again.
                _ => {
                    let probe = match source {
                        Source::Store { entry, hit: true } => Some(Probe {
                            entry: Some(entry),
                            nanos: probe_share,
                        }),
                        _ => None,
                    };
                    served.push(Served::SentBack {
                        exit: Exit::ReaderError,
                        probe,
                    });
                    continue;
                }
            };
            let stages = if hit { &stages[..] } else { &stages[1..] };
            let nanos = stages.iter().map(|s| s.1).sum();
            self.stats.requests += 1;
            if hit {
                self.stats.profile.store_hits += 1;
            }
            if let Some(p) = &out.profile {
                self.stats.profile.merge(p);
            }
            self.req_stages.clear();
            self.req_stages.extend_from_slice(stages);
            let outcome = if hit {
                RequestOutcome::StoreHit
            } else {
                RequestOutcome::Warm
            };
            self.record(lane.seq, lane.fp, outcome, nanos);
            served.push(Served::Lockstep { out, nanos });
        }
        served
    }

    /// The staging half of [`run_block`](Session::run_block): walks the
    /// lanes whose own probe missed, in arrival order, and plans a
    /// lockstep load for each one it can stage. A lane whose latch
    /// another worker holds is sent back latched, and so is one whose
    /// re-probe under the latch hits (another worker published the entry
    /// first), with that hit; one the rebuild budget would refuse
    /// (counting the staged lanes before it as loads) stays sent back, so
    /// the policy applies to it once, per request. Every repeat of a
    /// staged fingerprint — one the probe phase skipped as well as one
    /// that probed — is sent back as a miss without the stale probe: it
    /// probes again when served, after the load is published. A staged
    /// lane's plan holds its latch.
    fn latch_misses<'t>(
        &self,
        lanes: &[BlockLane<'_>],
        missed: &[usize],
        plans: &mut [Plan<'t>],
        latches: &'t LatchTable,
    ) {
        let mut staged: Vec<u64> = Vec::with_capacity(missed.len());
        for &i in missed {
            let fp = lanes[i].fp;
            if staged.contains(&fp) {
                continue;
            }
            let t = Instant::now();
            let Some(latch) = latches.try_exclusive(fp) else {
                plans[i] = Plan::Back(Exit::Latched, Some(Probe::default()));
                continue;
            };
            let entry = self.store.get(fp);
            let probe_nanos = t.elapsed().as_nanos() as u64;
            if entry.is_some() {
                plans[i] = Plan::Back(Exit::Latched, Some(Probe { entry, nanos: 0 }));
                continue;
            }
            if self.rebuild_refused(staged.len() as u64) {
                continue;
            }
            staged.push(fp);
            plans[i] = Plan::Load(Stager { latch, probe_nanos });
        }
        for (plan, lane) in plans.iter_mut().zip(lanes) {
            if let Plan::Back(Exit::Miss, probe @ Some(_)) = plan {
                if staged.contains(&lane.fp) {
                    *probe = None;
                }
            }
        }
    }

    /// Commits one lockstep-loaded lane exactly as the per-request
    /// reload commits a load: counts it and [publishes](Session::publish)
    /// it. `last` (the block's last load) also copies the cache into the
    /// session's private buffer, so the session is warm on it. Returns the lane's answer and its
    /// own time, with `stages` (its probe and load shares) first.
    fn commit_load(
        &mut self,
        lane: &BlockLane<'_>,
        out: Outcome,
        cache: CacheBuf,
        last: bool,
        stages: [(&'static str, u64); 2],
    ) -> (Result<Outcome, RuntimeError>, u64) {
        self.stats.requests += 1;
        self.stats.profile.store_misses += 1;
        if self.is_warm() {
            self.stats.stale_reloads += 1;
        }
        if self.ever_loaded {
            self.rebuilds_used += 1;
            self.stats.profile.rebuilds += 1;
        }
        self.stats.loads += 1;
        if let Some(p) = &out.profile {
            self.stats.profile.merge(p);
        }
        if last {
            self.cache.clone_from(&cache);
        }
        self.req_stages.clear();
        self.req_stages.extend(stages);
        let result = self.publish(lane.fp, cache).map(|()| out);
        let nanos = self.req_stages.iter().map(|s| s.1).sum();
        let outcome = if result.is_err() {
            RequestOutcome::Error
        } else {
            RequestOutcome::Load
        };
        self.record(lane.seq, lane.fp, outcome, nanos);
        (result, nanos)
    }

    /// Records a served request, traced as `seq`: its latency histograms,
    /// from its time `nanos` and the stages in `req_stages`, its trace
    /// when tracing, and one step of the serve order. Every request the
    /// session serves, per request or in a block, is recorded here.
    fn record(&mut self, seq: u64, fp: u64, outcome: RequestOutcome, nanos: u64) {
        self.timing.record_total(nanos);
        for &(stage, ns) in &self.req_stages {
            self.timing.record_stage(stage, ns);
        }
        if self.tracing {
            self.traces.push(RequestTrace {
                seq,
                inputs_fp: fp,
                outcome,
                total_nanos: nanos,
                stages: self.req_stages.clone(),
            });
        }
        self.seq += 1;
    }

    /// The per-request lifecycle, timed from `started`. `probe` is a
    /// store probe the caller already made for `fp`; it stands in for
    /// `fetch`'s first probe.
    fn serve(
        &mut self,
        args: &[Value],
        fp: u64,
        latches: Option<&LatchTable>,
        probe: Option<Probe>,
        started: Instant,
    ) -> Result<Outcome, RuntimeError> {
        self.stats.requests += 1;
        self.req_stages.clear();
        // Lifecycle counters before dispatch; the deltas classify how this
        // request was served without threading state through the recursive
        // lifecycle (`serve_warm` → `recover` → `reload` → `fallback`).
        let (loads0, hits0, fallbacks0) = (
            self.stats.loads,
            self.stats.profile.store_hits,
            self.stats.profile.fallbacks,
        );
        // A pending buffer fault strikes a warm cache before validation.
        if self.is_warm() {
            if let Some(PendingFault::Truncate(n)) = self.pending {
                self.pending = None;
                self.cache.truncate(n);
            }
        }
        let result = match self.state {
            CacheState::Warm { inputs_fp, seal } if inputs_fp == fp => {
                self.serve_warm(args, fp, seal)
            }
            _ => self.fetch(args, fp, latches, probe),
        };
        let outcome = if result.is_err() {
            RequestOutcome::Error
        } else if self.stats.profile.fallbacks > fallbacks0 {
            RequestOutcome::Fallback
        } else if self.stats.loads > loads0 {
            RequestOutcome::Load
        } else if self.stats.profile.store_hits > hits0 {
            RequestOutcome::StoreHit
        } else {
            RequestOutcome::Warm
        };
        self.record(self.seq, fp, outcome, started.elapsed().as_nanos() as u64);
        result
    }

    /// Serves a request the daemon's admission left unspecialized, timed
    /// from `started`: the fragment, uncached, on the session's engine,
    /// as the `unspec` stage, traced as a fallback. A pending stall
    /// delays it; the warm cache, the store, the write-ahead log and the
    /// rebuild budget are untouched, and `fallbacks` does not count it.
    pub(crate) fn run_unspecialized(
        &mut self,
        args: &[Value],
        fp: u64,
        started: Instant,
    ) -> Result<Outcome, RuntimeError> {
        self.stats.requests += 1;
        self.req_stages.clear();
        let result = self.unspecialized(args, "unspec");
        let outcome = if result.is_err() {
            RequestOutcome::Error
        } else {
            RequestOutcome::Fallback
        };
        self.record(self.seq, fp, outcome, started.elapsed().as_nanos() as u64);
        result
    }

    /// The reference oracle: the fragment, tree-walked, uncached.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] of the unspecialized fragment itself.
    pub fn reference(&self, args: &[Value]) -> Result<Outcome, EvalError> {
        self.artifact.reference(args, self.opts.eval)
    }

    /// Serializes the whole shared store as a cache-store bundle (one
    /// entry per fingerprint, sorted), or `None` when the store is empty.
    pub fn save_store_text(&self) -> Option<String> {
        let snap = self.store.snapshot();
        if snap.is_empty() {
            return None;
        }
        let entries: Vec<(u64, CacheBuf)> = snap.into_iter().map(|(fp, e)| (fp, e.cache)).collect();
        Some(cachefile::save_store(&entries, self.artifact.layout_fp))
    }

    /// Adopts a previously saved cache-store bundle, fully validating every
    /// entry against this session's layout first. Entries are published to
    /// the shared store; the first request per fingerprint then hits it
    /// instead of running the loader.
    ///
    /// # Errors
    ///
    /// The [`IntegrityError`] of the first validation failure — a damaged
    /// or mismatched file is *always* rejected, never partially adopted.
    pub fn load_cache_text(&mut self, text: &str) -> Result<(), RuntimeError> {
        let loaded = cachefile::parse_store(text, &self.artifact.layout)?;
        for lc in loaded {
            let seal = lc.cache.content_hash();
            let evicted = self.store.insert(
                lc.inputs_fingerprint,
                StoreEntry {
                    cache: lc.cache,
                    seal,
                },
            );
            self.stats.profile.store_evictions += evicted;
        }
        self.ever_loaded = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lifecycle internals
    // ------------------------------------------------------------------

    /// Appends one operation to the attached log (no-op without one) and
    /// runs the periodic checkpoint when due. A
    /// [`WalError::Crashed`](crate::error::WalError::Crashed)
    /// bypasses the degradation policy entirely: the process is modelled as
    /// dead, so the request fails like a dropped connection — the chaos
    /// invariant (reference answer or typed error, never silently wrong)
    /// still holds.
    fn wal_append(&mut self, op: &WalOp) -> Result<(), RuntimeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let t = Instant::now();
        let appended = wal.append(op);
        self.req_stages
            .push(("wal_append", t.elapsed().as_nanos() as u64));
        appended.map_err(RuntimeError::Wal)?;
        self.stats.profile.wal_appends += 1;
        if wal.checkpoint_due() {
            let t = Instant::now();
            let ck = wal.checkpoint(&self.store);
            self.req_stages
                .push(("checkpoint", t.elapsed().as_nanos() as u64));
            ck.map_err(RuntimeError::Wal)?;
        }
        Ok(())
    }

    fn take_fuel(&mut self) -> Option<u64> {
        if let Some(PendingFault::Fuel(n)) = self.pending {
            self.pending = None;
            Some(n)
        } else {
            None
        }
    }

    /// Validates the local cache and runs the reader; a failure of either
    /// invalidates the fingerprint everywhere (locally and in the store)
    /// before the policy decides.
    fn serve_warm(&mut self, args: &[Value], fp: u64, seal: u64) -> Result<Outcome, RuntimeError> {
        let t = Instant::now();
        let validated = validate_cache(&self.cache, self.artifact.layout.slot_count(), seal);
        self.req_stages
            .push(("validate", t.elapsed().as_nanos() as u64));
        if let Err(ie) = validated {
            self.stats.profile.validation_failures += 1;
            self.state = CacheState::Cold;
            self.store.invalidate(fp);
            // Log the invalidation so a post-crash recovery cannot re-serve
            // the damaged entry from an earlier logged install.
            self.wal_append(&WalOp::Invalidate { inputs_fp: fp })?;
            return self.recover(args, fp, RuntimeError::Integrity(ie));
        }
        let fuel = self.take_fuel();
        let t = Instant::now();
        let read = self.exec(Stage::Reader, args, fuel);
        self.req_stages
            .push(("read", t.elapsed().as_nanos() as u64));
        match read {
            Ok(out) => Ok(out),
            Err(e) => {
                self.stats.reader_failures += 1;
                self.recover(args, fp, RuntimeError::Eval(e))
            }
        }
    }

    /// Local miss (cold session or fingerprint switch): consult the shared
    /// store before paying for a loader run. With `latches`, a store miss
    /// is staged single-flight: take the exclusive latch and re-probe (a
    /// stager may have published since the first probe) before loading,
    /// or wait for the worker already staging `fp` and probe again. An
    /// `earlier` probe stands in for the first one.
    fn fetch(
        &mut self,
        args: &[Value],
        fp: u64,
        latches: Option<&LatchTable>,
        earlier: Option<Probe>,
    ) -> Result<Outcome, RuntimeError> {
        let was_warm = self.is_warm();
        let mut probe_nanos = earlier.as_ref().map_or(0, |p| p.nanos);
        let mut earlier = earlier.map(|p| p.entry);
        let mut stager = None;
        let probed = loop {
            let probed = match earlier.take() {
                Some(entry) => entry,
                None => {
                    let t = Instant::now();
                    let probed = self.store.get(fp);
                    probe_nanos += t.elapsed().as_nanos() as u64;
                    probed
                }
            };
            // A hit, a solo session, or a miss re-probed under this
            // session's own exclusive latch settles the probe.
            let (None, Some(latches), None) = (&probed, latches, &stager) else {
                break probed;
            };
            match latches.try_exclusive(fp) {
                Some(guard) => stager = Some(guard),
                None => {
                    // Another worker is staging `fp`: block until its
                    // exclusive latch drops, then probe again.
                    let t = Instant::now();
                    drop(latches.shared(fp));
                    self.req_stages
                        .push(("latch_wait", t.elapsed().as_nanos() as u64));
                }
            }
        };
        self.req_stages.push(("store_probe", probe_nanos));
        if let Some(entry) = probed {
            drop(stager);
            self.stats.profile.store_hits += 1;
            // Copy outside the shard lock: the session executes against
            // its private buffer, never against the shared entry.
            self.cache.clone_from(&entry.cache);
            self.state = CacheState::Warm {
                inputs_fp: fp,
                seal: entry.seal,
            };
            return self.serve_warm(args, fp, entry.seal);
        }
        self.stats.profile.store_misses += 1;
        if was_warm {
            self.stats.stale_reloads += 1;
        }
        // The stager's latch is held until the sealed cache is published.
        let loaded = self.reload(args, fp);
        drop(stager);
        loaded
    }

    /// Whether the rebuild budget refuses a load with `ahead` loads staged
    /// before it (0 for a per-request load). Every load after the
    /// session's first is a rebuild, and a rebuild is refused once the
    /// rebuilds before it reach the budget.
    fn rebuild_refused(&self, ahead: u64) -> bool {
        let loads_before = u64::from(self.ever_loaded) + ahead;
        let rebuilds_before = u64::from(self.rebuilds_used) + loads_before.saturating_sub(1);
        loads_before > 0 && rebuilds_before >= u64::from(self.opts.rebuild_budget)
    }

    /// Runs the loader to (re)build the cache for `fp`, returning the
    /// loader's own outcome (it computes the result while filling slots),
    /// and publishes the sealed result to the store. Rebuilds beyond the
    /// initial load are budget-gated.
    fn reload(&mut self, args: &[Value], fp: u64) -> Result<Outcome, RuntimeError> {
        if self.rebuild_refused(0) {
            return match self.opts.policy {
                Policy::FailFast => Err(RuntimeError::RebuildBudgetExhausted {
                    budget: self.opts.rebuild_budget,
                }),
                _ => self.fallback(args),
            };
        }
        if self.ever_loaded {
            self.rebuilds_used += 1;
            self.stats.profile.rebuilds += 1;
        }
        self.stats.loads += 1;
        self.cache = CacheBuf::new(self.artifact.layout.slot_count());
        if let Some(PendingFault::Arm(wf)) = self.pending {
            self.pending = None;
            self.cache.arm_write_fault(wf);
        }
        let fuel = self.take_fuel();
        let t = Instant::now();
        let loaded = self.exec(Stage::Loader, args, fuel);
        self.req_stages
            .push(("load", t.elapsed().as_nanos() as u64));
        match loaded {
            Ok(out) => {
                self.publish(fp, self.cache.clone())?;
                // A buffer fault injected while cold strikes right after
                // the seal, so the next request's validation sees it. It
                // models damage to *this session's* memory; the published
                // entry above is the sealed pre-damage cache.
                if let Some(PendingFault::Truncate(n)) = self.pending {
                    self.pending = None;
                    self.cache.truncate(n);
                }
                Ok(out)
            }
            Err(e) => {
                self.state = CacheState::Cold;
                match self.opts.policy {
                    Policy::FailFast => Err(RuntimeError::Eval(e)),
                    _ => self.fallback(args),
                }
            }
        }
    }

    /// Seals a freshly loaded cache for `fp`, makes the session warm on
    /// it, publishes it to the store and logs the install. The caller
    /// leaves the same content in the session's private buffer: at once
    /// for a per-request load, at the block's last load for a block.
    fn publish(&mut self, fp: u64, cache: CacheBuf) -> Result<(), RuntimeError> {
        let seal = cache.content_hash();
        self.state = CacheState::Warm {
            inputs_fp: fp,
            seal,
        };
        self.ever_loaded = true;
        // Write-ahead: the install is logged (and the log checkpointed
        // when due) before the answer is returned, so an acknowledged
        // sealed cache survives a crash. A cache the tamper shadow already
        // disproves is *not* logged: the wire format carries observed
        // values only, so recovery would re-seal the corruption and serve
        // it as truth. The store copy keeps its shadow, so a cache
        // corrupted by an armed write fault is still detected by whichever
        // session pulls it back out, and invalidated in memory as usual.
        let logged =
            (self.wal.is_some() && cache.first_tampered_slot().is_none()).then(|| WalOp::Install {
                inputs_fp: fp,
                cache: cache.clone(),
            });
        let evicted = self.store.insert(fp, StoreEntry { cache, seal });
        self.stats.profile.store_evictions += evicted;
        match logged {
            Some(op) => self.wal_append(&op),
            None => Ok(()),
        }
    }

    /// Handles a warm-path failure (`err`) per the configured policy. The
    /// cache has already been invalidated by validation failures; reader
    /// failures discard it here so a later request may rebuild.
    fn recover(
        &mut self,
        args: &[Value],
        fp: u64,
        err: RuntimeError,
    ) -> Result<Outcome, RuntimeError> {
        match self.opts.policy {
            Policy::FailFast => Err(err),
            Policy::RebuildThenFallback => {
                self.state = CacheState::Cold;
                self.reload(args, fp)
            }
            Policy::FallbackToUnspecialized => {
                self.state = CacheState::Cold;
                self.fallback(args)
            }
        }
    }

    /// Last resort: evaluate the unspecialized fragment for this request.
    fn fallback(&mut self, args: &[Value]) -> Result<Outcome, RuntimeError> {
        self.stats.profile.fallbacks += 1;
        self.unspecialized(args, "fallback")
    }

    /// The one unspecialized path: the fragment, uncached, on the
    /// session's engine, timed as `stage`.
    fn unspecialized(
        &mut self,
        args: &[Value],
        stage: &'static str,
    ) -> Result<Outcome, RuntimeError> {
        let t = Instant::now();
        let out = self.exec(Stage::Fragment, args, None);
        self.req_stages.push((stage, t.elapsed().as_nanos() as u64));
        out.map_err(RuntimeError::Eval)
    }

    fn exec(
        &mut self,
        stage: Stage,
        args: &[Value],
        fuel: Option<u64>,
    ) -> Result<Outcome, EvalError> {
        // A pending stall strikes whatever stage runs next: the execution
        // is delayed, its answer untouched — only deadlines notice.
        if let Some(PendingFault::Stall(ms)) = self.pending {
            self.pending = None;
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let mut opts = self.opts.eval;
        if let Some(f) = fuel {
            opts.step_limit = f;
        }
        let art = &self.artifact;
        let (name, with_cache) = match stage {
            Stage::Fragment => (art.entry.as_str(), false),
            Stage::Loader => (art.loader_name.as_str(), true),
            Stage::Reader => (art.reader_name.as_str(), true),
        };
        let out = match self.opts.engine {
            Engine::Tree => {
                let ev = Evaluator::with_options(&art.staged, opts);
                if with_cache {
                    ev.run_with_cache(name, args, &mut self.cache)
                } else {
                    ev.run(name, args)
                }
            }
            // A single request runs on the scalar VM: batch parity with
            // it is bit-exact by contract, and the daemon batches store
            // hits itself.
            Engine::Vm => {
                let cache = if with_cache {
                    Some(&mut self.cache)
                } else {
                    None
                };
                self.vm.run(&art.compiled, name, args, cache, opts)
            }
        };
        if let Ok(o) = &out {
            if let Some(p) = &o.profile {
                self.stats.profile.merge(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::{specialize_source, InputPartition, SpecializeOptions};

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
                                         float x2, float y2, float z2, float scale) {
        if (scale != 0.0) { return (x1*x2 + y1*y2 + z1*z2) / scale; }
        else { return -1.0; }
    }";

    fn dotprod_session(opts: RunnerOptions, store_capacity: usize) -> Session {
        let part = InputPartition::varying(["z1", "z2"]);
        let spec =
            specialize_source(DOTPROD, "dotprod", &part, &SpecializeOptions::new()).expect("spec");
        Session::new(
            Arc::new(StagedArtifact::new(&spec, &part)),
            Arc::new(CacheStore::new(store_capacity)),
            opts,
        )
    }

    fn argv(z1: f64, z2: f64) -> Vec<Value> {
        [1.0, 2.0, z1, 4.0, 5.0, z2, 2.0]
            .iter()
            .map(|&x| Value::Float(x))
            .collect()
    }

    fn argv_fixed(y1: f64, z1: f64, z2: f64) -> Vec<Value> {
        [1.0, y1, z1, 4.0, 5.0, z2, 2.0]
            .iter()
            .map(|&x| Value::Float(x))
            .collect()
    }

    /// How a block sent a lane back: its exit and whether it carried a
    /// probe (`None` for a lane the block answered).
    fn sent_back(served: &Served) -> Option<(Exit, bool)> {
        match served {
            Served::SentBack { exit, probe } => Some((*exit, probe.is_some())),
            _ => None,
        }
    }

    #[test]
    fn block_repeats_of_a_staged_fingerprint_go_back_unprobed() {
        let mut s = dotprod_session(RunnerOptions::default(), 16);
        let (latches, mut batch) = (LatchTable::new(), BatchVm::new());
        // Fingerprints A, A, B, A, C, D, with D's latch held elsewhere.
        let args: Vec<Vec<Value>> = [1.0, 1.0, 2.0, 1.0, 3.0, 4.0]
            .iter()
            .map(|&y1| argv_fixed(y1, 3.0, 6.0))
            .collect();
        let lanes: Vec<BlockLane> = args
            .iter()
            .zip(0..)
            .map(|(a, seq)| BlockLane {
                args: a,
                fp: s.inputs_fingerprint(a),
                seq,
            })
            .collect();
        let held = latches.try_exclusive(lanes[5].fp).expect("free latch");
        let served = s.run_block(&lanes, &mut batch, &latches);
        drop(held);
        let exits: Vec<_> = served.iter().map(sent_back).collect();
        assert_eq!(
            exits,
            [
                None,
                // Right after the staged lane, and after other lanes:
                // both repeats go back without the stale probe.
                Some((Exit::Miss, false)),
                None,
                Some((Exit::Miss, false)),
                None,
                Some((Exit::Latched, true)),
            ]
        );
        assert!(matches!(served[0], Served::Loaded { .. }));
        assert_eq!(s.stats().loads, 3);
        // Served per request, each repeat probes and hits A's entry.
        let hits = s.stats().store_hits();
        for i in [1, 3] {
            let out = s.run_single_flight(&args[i], lanes[i].fp, &latches, None, Instant::now());
            let want = s.reference(&args[i]).expect("reference").value;
            assert_eq!(out.expect("served").value, want);
        }
        assert_eq!((s.stats().loads, s.stats().store_hits()), (3, hits + 1));
    }

    #[test]
    fn warm_requests_use_the_reader_and_match_reference() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut r = dotprod_session(
                RunnerOptions {
                    engine,
                    ..RunnerOptions::default()
                },
                16,
            );
            assert!(!r.is_warm());
            for (i, z) in [3.0, 6.0, 9.0].iter().enumerate() {
                let args = argv(*z, *z + 1.0);
                let want = r.reference(&args).expect("reference").value;
                let got = r.run(&args).expect("run").value;
                assert_eq!(got, want, "{engine:?} request {i}");
            }
            assert!(r.is_warm());
            assert_eq!(r.stats().requests, 3);
            assert_eq!(r.stats().loads, 1, "one cold load, then reader hits");
            assert_eq!(r.stats().rebuilds(), 0);
        }
    }

    #[test]
    fn stale_invariants_trigger_a_transparent_rebuild() {
        // One store entry: a fingerprint switch must rebuild.
        let mut r = dotprod_session(RunnerOptions::default(), 1);
        r.run(&argv_fixed(2.0, 3.0, 6.0)).expect("cold");
        r.run(&argv_fixed(2.0, 4.0, 7.0)).expect("warm");
        // The fixed input y1 changes: the cache is stale.
        let args = argv_fixed(9.0, 3.0, 6.0);
        let want = r.reference(&args).unwrap().value;
        let got = r.run(&args).expect("rebuild").value;
        assert_eq!(got, want);
        assert_eq!(r.stats().stale_reloads, 1);
        assert_eq!(r.stats().rebuilds(), 1);
        assert_eq!(r.stats().loads, 2);
        assert_eq!(r.stats().store_evictions(), 1, "capacity 1 evicted y1=2");
        // And the rebuilt cache serves reads again.
        let args = argv_fixed(9.0, 5.0, 5.0);
        assert_eq!(
            r.run(&args).unwrap().value,
            r.reference(&args).unwrap().value
        );
        assert_eq!(r.stats().loads, 2);
    }

    #[test]
    fn revisited_invariants_hit_the_store_instead_of_reloading() {
        let mut r = dotprod_session(RunnerOptions::default(), 16);
        // Two invariant contexts, interleaved: y1=2 and y1=9.
        for &(y1, z) in &[(2.0, 3.0), (9.0, 4.0), (2.0, 5.0), (9.0, 6.0), (2.0, 7.0)] {
            let args = argv_fixed(y1, z, z + 1.0);
            let want = r.reference(&args).unwrap().value;
            assert_eq!(r.run(&args).expect("run").value, want);
        }
        // One load per distinct fingerprint; every revisit is a store hit.
        assert_eq!(r.stats().loads, 2);
        assert_eq!(r.stats().store_hits(), 3);
        assert_eq!(r.stats().store_misses(), 2);
        assert_eq!(r.stats().stale_reloads, 1, "only the first switch missed");
        assert_eq!(r.stats().rebuilds(), 1, "y1=9 was a budget-gated rebuild");
        assert_eq!(r.stats().store_evictions(), 0);
    }

    #[test]
    fn rebuild_budget_bounds_loader_reruns() {
        let mut opts = RunnerOptions {
            rebuild_budget: 1,
            policy: Policy::FailFast,
            ..RunnerOptions::default()
        };
        let mut r = dotprod_session(opts, 16);
        r.run(&argv_fixed(1.0, 0.0, 0.0)).expect("cold");
        r.run(&argv_fixed(2.0, 0.0, 0.0)).expect("rebuild 1");
        let err = r.run(&argv_fixed(3.0, 0.0, 0.0)).unwrap_err();
        assert_eq!(err, RuntimeError::RebuildBudgetExhausted { budget: 1 });

        // Same exhaustion under the fallback policy still serves requests.
        opts.policy = Policy::FallbackToUnspecialized;
        let mut r = dotprod_session(opts, 16);
        r.run(&argv_fixed(1.0, 0.0, 0.0)).expect("cold");
        r.run(&argv_fixed(2.0, 0.0, 0.0)).expect("rebuild 1");
        let args = argv_fixed(3.0, 0.0, 0.0);
        let got = r.run(&args).expect("fallback").value;
        assert_eq!(got, r.reference(&args).unwrap().value);
        assert_eq!(r.stats().fallbacks(), 1);
    }

    #[test]
    fn store_bundle_round_trip_serves_every_fingerprint_without_loading() {
        let mut r = dotprod_session(RunnerOptions::default(), 16);
        let contexts = [(2.0, 3.0), (9.0, 4.0), (5.0, 5.0)];
        for &(y1, z) in &contexts {
            r.run(&argv_fixed(y1, z, z + 1.0)).expect("warmup");
        }
        assert_eq!(r.stats().loads, 3);
        let text = r.save_store_text().expect("bundle");

        let mut fresh = dotprod_session(RunnerOptions::default(), 16);
        fresh.load_cache_text(&text).expect("adopt bundle");
        for &(y1, z) in &contexts {
            let args = argv_fixed(y1, z + 2.0, z);
            let got = fresh.run(&args).expect("from store").value;
            assert_eq!(got, fresh.reference(&args).unwrap().value);
        }
        assert_eq!(fresh.stats().loads, 0, "every context came from the file");
        assert_eq!(fresh.stats().store_hits(), 3);
    }

    /// A format-1 bundle (FNV-1a fingerprints, no `format` tag) is
    /// refused, never adopted under keys no request of this build hits.
    #[test]
    fn a_format_one_bundle_is_refused() {
        let mut r = dotprod_session(RunnerOptions::default(), 16);
        let old = include_str!("../testdata/format1-checkpoint.json");
        let err = r.load_cache_text(old).unwrap_err();
        assert!(
            matches!(
                &err,
                RuntimeError::Integrity(IntegrityError::Malformed { detail })
                    if detail.contains("format 1")
            ),
            "{err}"
        );
        assert_eq!(r.store().len(), 0, "nothing adopted");
    }

    #[test]
    fn cold_session_has_no_store_text() {
        let r = dotprod_session(RunnerOptions::default(), 16);
        assert_eq!(r.save_store_text(), None);
    }

    #[test]
    fn profile_merges_across_stages_when_enabled() {
        let mut r = dotprod_session(
            RunnerOptions {
                eval: EvalOptions {
                    profile: true,
                    ..EvalOptions::default()
                },
                ..RunnerOptions::default()
            },
            16,
        );
        r.run(&argv(3.0, 6.0)).unwrap();
        r.run(&argv(4.0, 7.0)).unwrap();
        let p = &r.stats().profile;
        assert!(p.cache_writes > 0, "loader wrote slots");
        assert!(p.cache_reads > 0, "reader read slots");
        assert_eq!(p.rebuilds, 0);
        // The stats export carries the robustness counters.
        let doc = r.stats().to_json();
        assert_eq!(doc.get("requests").unwrap().as_u64(), Some(2));
        assert!(doc
            .get("profile")
            .unwrap()
            .get("validation_failures")
            .is_some());
        assert!(doc.get("store_hits").is_some());
    }

    #[test]
    fn session_stats_merge_matches_per_field_sums() {
        let mut r1 = dotprod_session(RunnerOptions::default(), 16);
        let mut r2 = dotprod_session(RunnerOptions::default(), 16);
        r1.run(&argv(3.0, 6.0)).unwrap();
        r2.run(&argv_fixed(9.0, 1.0, 2.0)).unwrap();
        r2.run(&argv_fixed(8.0, 1.0, 2.0)).unwrap();
        let mut merged = r1.stats().clone();
        merged.merge(r2.stats());
        assert_eq!(merged.requests, 3);
        assert_eq!(merged.loads, 3);
        assert_eq!(
            merged.profile.store_misses,
            r1.stats().profile.store_misses + r2.stats().profile.store_misses
        );
    }

    #[test]
    fn timing_records_every_request_and_stays_out_of_stats() {
        let mut r = dotprod_session(RunnerOptions::default(), 16);
        r.set_tracing(true);
        r.run(&argv(3.0, 6.0)).unwrap(); // cold load
        r.run(&argv(4.0, 7.0)).unwrap(); // warm read
        r.run(&argv_fixed(9.0, 3.0, 6.0)).unwrap(); // fp switch: miss + load
        let t = r.timing().clone();
        assert_eq!(t.total.count(), 3, "one end-to-end sample per request");
        assert_eq!(t.stage("load").unwrap().count(), 2);
        assert_eq!(t.stage("read").unwrap().count(), 1);
        assert_eq!(t.stage("store_probe").unwrap().count(), 2);
        assert_eq!(t.stage("validate").unwrap().count(), 1);
        // The stats export carries no timing: wall time is nondeterministic
        // and the parity suites require stats to be engine-invariant.
        let doc = r.stats().to_json().pretty();
        assert!(!doc.contains("nanos"), "timing leaked into stats: {doc}");

        let traces = r.take_traces();
        let outcomes: Vec<_> = traces.iter().map(|t| t.outcome.as_str()).collect();
        assert_eq!(outcomes, ["load", "warm", "load"]);
        assert_eq!(traces[1].seq, 1);
        assert!(traces[1].stages.iter().any(|(s, _)| *s == "read"));
        assert!(r.take_traces().is_empty(), "take drains");
        // Timing round-trips through JSON losslessly.
        let back = ds_telemetry::Timing::from_json(&t.to_json()).expect("round trip");
        assert_eq!(back, t);
    }

    #[test]
    fn policy_round_trips_through_strings() {
        for p in [
            Policy::FailFast,
            Policy::RebuildThenFallback,
            Policy::FallbackToUnspecialized,
        ] {
            assert_eq!(p.to_string().parse::<Policy>().unwrap(), p);
        }
        assert!("yolo".parse::<Policy>().is_err());
    }
}
