//! The mutable half of staged execution: one caller's serving state.
//!
//! A [`Session`] owns everything a single serving thread mutates — the VM
//! register file, a private working [`CacheBuf`], degradation bookkeeping
//! and statistics — and shares the immutable
//! [`StagedArtifact`](crate::StagedArtifact) plus the polyvariant
//! [`CacheStore`](crate::CacheStore) with every other session through
//! [`Arc`]s. The lifecycle is the one `StagedRunner` always had (see the
//! [`runner`](crate::runner) module docs), extended with the store:
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

use crate::artifact::StagedArtifact;
use crate::cachefile;
use crate::error::{IntegrityError, RuntimeError};
use crate::fault::{Fault, FaultInjector};
use crate::latch::LatchTable;
use crate::recovery::Recovery;
use crate::runner::{Policy, RunnerOptions, RunnerStats};
use crate::store::{CacheStore, StoreEntry};
use crate::timing::{RequestOutcome, RequestTrace};
use crate::wal::{Wal, WalOp};
use ds_interp::{CacheBuf, EvalError, Evaluator, Outcome, Value, Vm, WriteFault};
use ds_telemetry::Timing;
use std::sync::Arc;
use std::time::Instant;

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
        self.serve(args, fp, None)
    }

    /// [`Session::run`] for a caller that already fingerprinted `args`
    /// (`fp` must equal [`Session::inputs_fingerprint`] of them), with
    /// store misses staged single-flight through `latches`: concurrent
    /// first requests for one fingerprint run its loader once.
    pub(crate) fn run_single_flight(
        &mut self,
        args: &[Value],
        fp: u64,
        latches: &LatchTable,
    ) -> Result<Outcome, RuntimeError> {
        self.serve(args, fp, Some(latches))
    }

    fn serve(
        &mut self,
        args: &[Value],
        fp: u64,
        latches: Option<&LatchTable>,
    ) -> Result<Outcome, RuntimeError> {
        self.stats.requests += 1;
        let started = Instant::now();
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
            _ => self.fetch(args, fp, latches),
        };
        let total_nanos = started.elapsed().as_nanos() as u64;
        self.timing.record_total(total_nanos);
        for (stage, nanos) in &self.req_stages {
            self.timing.record_stage(stage, *nanos);
        }
        if self.tracing {
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
            self.traces.push(RequestTrace {
                seq: self.seq,
                inputs_fp: fp,
                outcome,
                total_nanos,
                stages: std::mem::take(&mut self.req_stages),
            });
        }
        self.seq += 1;
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

    /// Serializes the session's local warm cache as a single-entry
    /// checksummed cache file, or `None` when cold.
    pub fn save_cache_text(&self) -> Option<String> {
        match self.state {
            CacheState::Warm { inputs_fp, .. } => Some(cachefile::save_cache(
                &self.cache,
                self.artifact.layout_fp,
                inputs_fp,
            )),
            CacheState::Cold => None,
        }
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

    /// Adopts a previously saved cache file — either a legacy single-entry
    /// `cache` file or a `cache-store` bundle — fully validating every
    /// entry against this session's layout first. Entries are published to
    /// the shared store; when the file holds exactly one entry the session
    /// also warms its local cache with it (so a single-entry adopt still
    /// serves its first request without touching the store).
    ///
    /// # Errors
    ///
    /// The [`IntegrityError`] of the first validation failure — a damaged
    /// or mismatched file is *always* rejected, never partially adopted.
    pub fn load_cache_text(&mut self, text: &str) -> Result<(), RuntimeError> {
        let loaded = cachefile::parse_store(text, &self.artifact.layout)?;
        let single = loaded.len() == 1;
        for lc in loaded {
            let seal = lc.cache.content_hash();
            let fp = lc.inputs_fingerprint;
            if single {
                self.cache = lc.cache.clone();
                self.state = CacheState::Warm {
                    inputs_fp: fp,
                    seal,
                };
            }
            let evicted = self.store.insert(
                fp,
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

    /// Pre-reader integrity validation of the local warm, sealed cache.
    fn validate(&self, seal: u64) -> Result<(), IntegrityError> {
        let declared = self.artifact.layout.slot_count();
        if self.cache.len() != declared {
            return Err(IntegrityError::LayoutMismatch {
                detail: format!(
                    "cache has {} slot(s), layout declares {declared}",
                    self.cache.len(),
                ),
            });
        }
        if let Some(slot) = self.cache.first_tampered_slot() {
            return Err(IntegrityError::TamperedSlot { slot });
        }
        let found = self.cache.content_hash();
        if found != seal {
            return Err(IntegrityError::SealBroken {
                expected: seal,
                found,
            });
        }
        Ok(())
    }

    /// Validates the local cache and runs the reader; a failure of either
    /// invalidates the fingerprint everywhere (locally and in the store)
    /// before the policy decides.
    fn serve_warm(&mut self, args: &[Value], fp: u64, seal: u64) -> Result<Outcome, RuntimeError> {
        let t = Instant::now();
        let validated = self.validate(seal);
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
    /// or wait for the worker already staging `fp` and probe again.
    fn fetch(
        &mut self,
        args: &[Value],
        fp: u64,
        latches: Option<&LatchTable>,
    ) -> Result<Outcome, RuntimeError> {
        let was_warm = self.is_warm();
        let mut probe_nanos = 0;
        let mut stager = None;
        let probed = loop {
            let t = Instant::now();
            let probed = self.store.get(fp);
            probe_nanos += t.elapsed().as_nanos() as u64;
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

    /// Runs the loader to (re)build the cache for `fp`, returning the
    /// loader's own outcome (it computes the result while filling slots),
    /// and publishes the sealed result to the store. Rebuilds beyond the
    /// initial load are budget-gated.
    fn reload(&mut self, args: &[Value], fp: u64) -> Result<Outcome, RuntimeError> {
        if self.ever_loaded {
            if self.rebuilds_used >= self.opts.rebuild_budget {
                return match self.opts.policy {
                    Policy::FailFast => Err(RuntimeError::RebuildBudgetExhausted {
                        budget: self.opts.rebuild_budget,
                    }),
                    _ => self.fallback(args),
                };
            }
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
                let seal = self.cache.content_hash();
                self.state = CacheState::Warm {
                    inputs_fp: fp,
                    seal,
                };
                self.ever_loaded = true;
                // Publish to the store (clone keeps the tamper shadow, so
                // a cache corrupted by an armed write fault is still
                // detected by whichever session pulls it back out).
                let evicted = self.store.insert(
                    fp,
                    StoreEntry {
                        cache: self.cache.clone(),
                        seal,
                    },
                );
                self.stats.profile.store_evictions += evicted;
                // Write-ahead: the install is logged (and the log
                // checkpointed when due) before the answer is returned, so
                // an acknowledged sealed cache survives a crash. A cache
                // the tamper shadow already disproves is *not* logged: the
                // wire format carries observed values only, so recovery
                // would re-seal the corruption and serve it as truth. The
                // store copy keeps its shadow and the next serve detects
                // and invalidates it in memory as usual.
                if self.cache.first_tampered_slot().is_none() {
                    self.wal_append(&WalOp::Install {
                        inputs_fp: fp,
                        cache: self.cache.clone(),
                    })?;
                }
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
        let t = Instant::now();
        let out = self.exec(Stage::Fragment, args, None);
        self.req_stages
            .push(("fallback", t.elapsed().as_nanos() as u64));
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
            ds_interp::Engine::Tree => {
                let ev = Evaluator::with_options(&art.staged, opts);
                if with_cache {
                    ev.run_with_cache(name, args, &mut self.cache)
                } else {
                    ev.run(name, args)
                }
            }
            ds_interp::Engine::Vm => {
                let cache = if with_cache {
                    Some(&mut self.cache)
                } else {
                    None
                };
                self.vm.run(&art.compiled, name, args, cache, opts)
            }
            ds_interp::Engine::VmBatch => {
                // Serving is one request at a time, so the batch engine
                // degenerates to a batch of one; parity with the scalar
                // VM is bit-exact either way.
                let cache = if with_cache {
                    Some(&mut self.cache)
                } else {
                    None
                };
                art.compiled
                    .run_batch_soa(name, std::slice::from_ref(&args.to_vec()), cache, opts)
                    .pop()
                    .expect("a batch of one yields one outcome")
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
