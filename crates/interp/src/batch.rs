//! The structure-of-arrays batch VM.
//!
//! The paper's payoff shape is many evaluations of one small reader: an
//! 8×8 grid times a slider sweep, or a 640×480 frame. The scalar
//! [`Vm`](crate::Vm) pays full instruction dispatch — fetch, decode,
//! fuel, cost, profile bookkeeping — once *per input per instruction*.
//! [`BatchVm`] instead holds the register file as columns (register-major:
//! all lanes of register `r` are contiguous) and executes each instruction
//! across every live lane before advancing the pc, so the dispatch and
//! bookkeeping cost is paid once per instruction for the whole batch.
//!
//! ## Lockstep soundness
//!
//! Lockstep execution is valid exactly when every lane takes the same
//! control path and observes the same shared state. The executor enforces
//! this with three mechanisms, each degrading to bit-exact scalar
//! semantics:
//!
//! * **Fault masking** — a lane whose instruction faults (a
//!   `DivideByZero`, an `IndexOutOfBounds`, a bad entry argument…) is
//!   masked out with *exactly* the typed error the scalar VM raises for
//!   that input, including the span. An [`EvalError`] carries no partial
//!   outcome, so a masked lane needs no further bookkeeping; the
//!   surviving lanes continue undisturbed.
//! * **Resume at the branch** — when live lanes disagree on a branch
//!   condition, the batch abandons lockstep and finishes every remaining
//!   lane on the scalar [`Vm`](crate::Vm) *from that branch*: the lane
//!   carries its register column, the shared frame stack, fuel, cost, its
//!   trace and a clone of the shared [`Profile`] into the scalar loop,
//!   which re-executes the branch for that lane alone. Nothing before the
//!   branch runs twice, and the result is the scalar run's by
//!   construction.
//! * **Sequential routing** — a program that *writes* a cache shared by
//!   the whole batch couples its lanes (lane `i`'s write is visible to
//!   lane `i+1`), which lockstep cannot reproduce. Such a batch runs on
//!   the sequential path: one scalar run per lane sharing the cache, in
//!   lane order. It is the only batch that does: reads of a shared cache
//!   are lockstep-safe (the cache is constant across the batch), and
//!   per-lane caches never couple lanes.
//!
//! ## Per-lane caches
//!
//! [`BatchVm::run`] shares one cache across the batch: a slider sweep
//! over one invariant context. [`BatchVm::run_lanes`] instead gives every
//! lane its own read-only cache, so a frame whose pixels each have their
//! own sealed cache (the paper's §5 session, served by the daemon) still
//! runs in lockstep: `Op::CacheRead` fills lane `j` from lane `j`'s cache,
//! and a lane whose slot is unfilled is masked with the scalar VM's
//! `UnfilledSlot` error while the others go on. A read-only cache is
//! never written: a lane that leaves lockstep finishes on the scalar VM
//! against a scratch copy of its own cache, which is what a serving
//! session does with a store entry, and a program that reaches a cache
//! write leaves lockstep there.
//!
//! [`BatchVm::run_lanes_mut`] gives every lane its own *writable* cache,
//! so a loader runs in lockstep too: lane `j`'s `Op::CacheWrite` fills
//! only lane `j`'s cache, and a lane whose write faults is masked with
//! the scalar error, keeping the slots it wrote before the fault exactly
//! as its scalar run would. The daemon stages a block's store misses this
//! way, one fresh cache per lane. The lockstep loop is generic over the
//! kind of lane cache: writable lanes run their own instantiation of it,
//! so the loop that shared and read-only caches run carries no
//! cache-write code.
//!
//! Every exit from lockstep is counted in [`BatchStats`], a side channel
//! like [`BatchVm::fused_dispatches`] that never enters a [`Profile`].
//!
//! ## Profile invariance
//!
//! While in lockstep every live lane executes the same instruction with
//! the same fuel, cost and [`Profile`] deltas, so the batch keeps *one*
//! shared fuel counter, cost accumulator and profile and clones them into
//! each surviving lane's [`Outcome`]. This is why fusion and batching may
//! only ever change wall time: the deterministic metrics are computed once
//! and are identical, field for field, to a scalar run's.

use crate::cache::{CacheBuf, CacheError};
use crate::compile::{CompiledProgram, Op};
use crate::error::EvalError;
use crate::eval::{
    apply_binop_at, apply_pure_builtin, apply_unop_at, EvalOptions, Outcome, Profile, CALL_COST,
};
use crate::value::Value;
use crate::vm::{check_args, Frame, Resume, Vm};
use ds_lang::cost::{
    binop_cost, unop_cost, BRANCH_COST, CACHE_READ_COST, CACHE_STORE_COST, INDEX_COST,
    INDEX_STORE_COST,
};
use ds_lang::{BinOp, Builtin, Type};

/// Lanes per lockstep block. Each instruction sweeps whole columns, so
/// the block's register file (`nregs x BLOCK_LANES` values) must stay
/// cache-resident or every sweep streams from DRAM and the SoA advantage
/// drowns in memory traffic. 128 lanes keeps even register-heavy readers
/// (a shader reader runs ~50 registers, ~200 KiB of columns) inside L2
/// while still amortizing dispatch ~100x.
pub const BLOCK_LANES: usize = 128;

/// Does any procedure reachable from `entry` write the cache? Over a
/// shared cache such programs couple their lanes and run on the
/// sequential batch path.
fn writes_cache(prog: &CompiledProgram, entry_idx: usize) -> bool {
    let mut seen = vec![false; prog.procs.len()];
    let mut stack = vec![entry_idx];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        for op in &prog.procs[i].code {
            match op {
                Op::CacheWrite { .. } => return true,
                Op::Call { callee, .. } => stack.push(*callee as usize),
                _ => {}
            }
        }
    }
    false
}

/// Conservative write-before-read analysis: `true` when every procedure
/// reachable from `entry` is straight-line (no jumps, so code order *is*
/// execution order) and writes each register before reading it. Such a
/// program can never observe a leftover register value, so the executor
/// may reuse a dirty column file from the previous block instead of
/// zero-filling `nregs x lanes` values — for small readers the zero-fill
/// rivals the execution itself, and it is pure wall-clock cost exactly
/// when this returns `true`. Any jump (or a genuine read-before-write,
/// which scalar semantics give `Int(0)`) makes the executor zero-fill.
fn regs_written_before_read(prog: &CompiledProgram, entry_idx: usize) -> bool {
    let mut seen = vec![false; prog.procs.len()];
    let mut stack = vec![entry_idx];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        let proc = &prog.procs[i];
        let mut written = vec![false; proc.nregs as usize];
        for w in written.iter_mut().take(proc.params.len()) {
            *w = true;
        }
        let mut pending: Vec<usize> = Vec::new();
        let check = |op: Op, written: &mut Vec<bool>, pending: &mut Vec<usize>| -> bool {
            match op {
                Op::Step { .. }
                | Op::Charge { .. }
                | Op::RetVoid
                | Op::ErrUnknownProc { .. }
                | Op::ErrUnbound { .. }
                | Op::ErrMissingReturn => true,
                Op::Jump { .. } | Op::JumpIfFalse { .. } => false,
                Op::Const { dst, .. } | Op::CacheRead { dst, .. } => {
                    written[dst as usize] = true;
                    true
                }
                Op::Move { dst, src }
                | Op::Un { dst, src, .. }
                | Op::FillArray { dst, src, .. } => {
                    let ok = written[src as usize];
                    written[dst as usize] = true;
                    ok
                }
                Op::Bin { dst, lhs, rhs, .. } => {
                    let ok = written[lhs as usize] && written[rhs as usize];
                    written[dst as usize] = true;
                    ok
                }
                Op::LoadIndex { dst, arr, idx } => {
                    let ok = written[arr as usize] && written[idx as usize];
                    written[dst as usize] = true;
                    ok
                }
                Op::StoreIndex { arr, idx, src } => {
                    written[arr as usize] && written[idx as usize] && written[src as usize]
                }
                Op::CacheWrite { src, .. } | Op::Ret { src } => written[src as usize],
                Op::CallBuiltin {
                    dst, args_at, argc, ..
                } => {
                    let ok = proc.arg_pool[args_at as usize..(args_at + argc) as usize]
                        .iter()
                        .all(|&r| written[r as usize]);
                    written[dst as usize] = true;
                    ok
                }
                Op::Call {
                    callee,
                    dst,
                    args_at,
                    argc,
                } => {
                    pending.push(callee as usize);
                    let ok = proc.arg_pool[args_at as usize..(args_at + argc) as usize]
                        .iter()
                        .all(|&r| written[r as usize]);
                    written[dst as usize] = true;
                    ok
                }
                Op::Fused { .. } => unreachable!("flattened by the caller"),
            }
        };
        for &op in &proc.code {
            let fine = match op {
                Op::Fused { pair } => {
                    let (first, second) = proc.fused[pair as usize];
                    check(first, &mut written, &mut pending)
                        && check(second, &mut written, &mut pending)
                }
                other => check(other, &mut written, &mut pending),
            };
            if !fine {
                return false;
            }
        }
        stack.extend(pending);
    }
    true
}

/// Where the executor's lanes come from: one argument vector per lane,
/// plus the cache their `Op::CacheRead`s and `Op::CacheWrite`s see.
enum Inputs<'a, 'c, L> {
    /// Every lane shares one optional cache; on the sequential path lane
    /// `i`'s writes are visible to lane `i + 1`.
    Shared(&'a [Vec<Value>], Option<&'c mut CacheBuf>),
    /// Lane `j` sees only its own cache.
    Own(L),
}

/// Read-only lane caches, as [`BatchVm::run_lanes`] takes them. A shared
/// cache batch runs the same instantiation of the lockstep loop.
type ReadLanes<'a> = &'a [(&'a [Value], &'a CacheBuf)];

/// One cache per lane, read-only ([`BatchVm::run_lanes`]) or writable
/// ([`BatchVm::run_lanes_mut`]). The lockstep loop is generic over the
/// kind, so a reader's loop carries no cache-write code.
trait LaneCaches {
    /// Does `Op::CacheWrite` write the lane caches in lockstep?
    const WRITABLE: bool;
    fn len(&self) -> usize;
    fn args(&self, j: usize) -> &[Value];
    fn cache(&self, j: usize) -> &CacheBuf;
    /// Lane `j`'s cache for writing; `None` when the caches are read-only.
    fn cache_mut(&mut self, j: usize) -> Option<&mut CacheBuf>;
}

impl LaneCaches for &[(&[Value], &CacheBuf)] {
    const WRITABLE: bool = false;
    fn len(&self) -> usize {
        <[_]>::len(self)
    }
    fn args(&self, j: usize) -> &[Value] {
        self[j].0
    }
    fn cache(&self, j: usize) -> &CacheBuf {
        self[j].1
    }
    fn cache_mut(&mut self, _: usize) -> Option<&mut CacheBuf> {
        None
    }
}

impl LaneCaches for &mut [(&[Value], &mut CacheBuf)] {
    const WRITABLE: bool = true;
    fn len(&self) -> usize {
        <[_]>::len(self)
    }
    fn args(&self, j: usize) -> &[Value] {
        self[j].0
    }
    fn cache(&self, j: usize) -> &CacheBuf {
        self[j].1
    }
    fn cache_mut(&mut self, j: usize) -> Option<&mut CacheBuf> {
        Some(&mut *self[j].1)
    }
}

impl<L: LaneCaches> Inputs<'_, '_, L> {
    fn len(&self) -> usize {
        match self {
            Inputs::Shared(args, _) => args.len(),
            Inputs::Own(lanes) => lanes.len(),
        }
    }

    fn args(&self, j: usize) -> &[Value] {
        match self {
            Inputs::Shared(args, _) => &args[j],
            Inputs::Own(lanes) => lanes.args(j),
        }
    }
}

/// How often a [`BatchVm`] left its lockstep fast path, across its life.
/// Wall-time diagnostics only, like the fused-dispatch count: none of it
/// ever enters a [`Profile`], and none of it changes an outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Fused superinstructions dispatched in lockstep (one per batch-wide
    /// dispatch, not per lane).
    pub fused_dispatches: u64,
    /// Blocks whose live lanes disagreed on a branch and were finished
    /// lane by lane on the scalar VM from that branch.
    pub divergent_blocks: u64,
    /// Lanes that left lockstep alive and were finished on the scalar VM
    /// from where they left it: at a divergent branch, or at a cache write
    /// to a read-only lane cache.
    pub resumed_lanes: u64,
    /// Lanes masked out of lockstep with a typed error (a bad argument, a
    /// faulting instruction, an unfilled slot, the step limit).
    pub masked_lanes: u64,
    /// Blocks of a program that writes a cache shared by the batch, run
    /// on the sequential path.
    pub sequential_runs: u64,
}

impl BatchStats {
    /// Accumulates `other` into `self`, field-wise.
    pub fn merge(&mut self, other: &BatchStats) {
        self.fused_dispatches += other.fused_dispatches;
        self.divergent_blocks += other.divergent_blocks;
        self.resumed_lanes += other.resumed_lanes;
        self.masked_lanes += other.masked_lanes;
        self.sequential_runs += other.sequential_runs;
    }
}

/// A reusable structure-of-arrays batch executor.
///
/// Holds the columnar register file, a scratch buffer and an embedded
/// scalar [`Vm`](crate::Vm) for the fallback paths, all reused across
/// [`run`](BatchVm::run) calls. See the [module docs](self) for the
/// execution model.
#[derive(Debug, Default)]
pub struct BatchVm {
    /// Register columns, register-major: lane `j` of (window-absolute)
    /// register `r` lives at `cols[r * lanes + j]`.
    cols: Vec<Value>,
    /// Per-lane builtin argument scratch.
    argbuf: Vec<Value>,
    /// Scalar engine for lanes that leave lockstep and the sequential
    /// path.
    scalar: Vm,
    /// Scratch copy of a read-only lane cache for a lane finished on the
    /// scalar VM.
    lane_cache: CacheBuf,
    /// Side-channel exit counts across the life of this `BatchVm`.
    /// Wall-time diagnostics only — never part of a [`Profile`].
    stats: BatchStats,
}

impl BatchVm {
    /// Creates a batch VM with empty buffers.
    pub fn new() -> BatchVm {
        BatchVm::default()
    }

    /// How many fused superinstructions this VM has dispatched in
    /// lockstep (one count per batch-wide dispatch, not per lane). A
    /// side-channel diagnostic, like the latency histograms: it never
    /// enters a [`Profile`].
    pub fn fused_dispatches(&self) -> u64 {
        self.stats.fused_dispatches
    }

    /// Every lockstep exit this VM has counted so far (see
    /// [`BatchStats`]). A side-channel diagnostic: it never enters a
    /// [`Profile`].
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Runs `entry` over every lane of `inputs`, returning one `Result`
    /// per lane in input order.
    ///
    /// Observationally identical to running the scalar VM once per lane
    /// (sharing `cache` across the batch in input order): same values,
    /// costs, traces and [`Profile`] counters on success, and the same
    /// typed error — class, message and span — on failure. The batch
    /// differential suites and the `batch` fuzzer oracle enforce this
    /// lane by lane.
    ///
    /// Wide batches are processed in blocks of [`BLOCK_LANES`] so a
    /// block's whole column file stays cache-resident; per-lane results
    /// are independent, so blocking is invisible to everything but the
    /// wall clock (a divergent block also falls back alone, leaving the
    /// other blocks in lockstep).
    pub fn run(
        &mut self,
        prog: &CompiledProgram,
        entry: &str,
        inputs: &[Vec<Value>],
        mut cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        if inputs.len() <= BLOCK_LANES {
            return self.run_block(
                prog,
                entry,
                Inputs::<ReadLanes>::Shared(inputs, cache),
                opts,
            );
        }
        let mut out = Vec::with_capacity(inputs.len());
        for block in inputs.chunks(BLOCK_LANES) {
            out.extend(self.run_block(
                prog,
                entry,
                Inputs::<ReadLanes>::Shared(block, cache.as_deref_mut()),
                opts,
            ));
        }
        out
    }

    /// Runs `entry` once per lane of `lanes`, each lane a pair of its
    /// arguments and its own cache, returning one `Result` per lane in
    /// lane order.
    ///
    /// Observationally identical to running the scalar VM once per lane
    /// against a private copy of that lane's cache: same values, costs,
    /// traces and [`Profile`] counters, and the same typed error — a lane
    /// reading a slot its cache never filled gets the scalar VM's exact
    /// `UnfilledSlot` error and the other lanes stay in lockstep. The
    /// caches are only read: a program that reaches a cache write leaves
    /// lockstep there, each live lane finishing on the scalar VM against a
    /// scratch copy of its own cache. Wide batches are blocked as in
    /// [`run`](BatchVm::run).
    pub fn run_lanes(
        &mut self,
        prog: &CompiledProgram,
        entry: &str,
        lanes: &[(&[Value], &CacheBuf)],
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        if lanes.len() <= BLOCK_LANES {
            return self.run_block(prog, entry, Inputs::Own(lanes), opts);
        }
        let mut out = Vec::with_capacity(lanes.len());
        for block in lanes.chunks(BLOCK_LANES) {
            out.extend(self.run_block(prog, entry, Inputs::Own(block), opts));
        }
        out
    }

    /// [`run_lanes`](BatchVm::run_lanes) over *writable* lane caches:
    /// lane `j`'s cache writes go to lane `j`'s cache only, in lockstep.
    ///
    /// Observationally identical to running the scalar VM once per lane
    /// against that lane's cache: the same outcome or typed error, and the
    /// same slots filled with the same values — a lane that faults keeps
    /// what it wrote before the fault, as its scalar run would. This runs
    /// a loader over a block of fresh caches, one per invariant context.
    pub fn run_lanes_mut(
        &mut self,
        prog: &CompiledProgram,
        entry: &str,
        lanes: &mut [(&[Value], &mut CacheBuf)],
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        if lanes.len() <= BLOCK_LANES {
            return self.run_block(prog, entry, Inputs::Own(lanes), opts);
        }
        let mut out = Vec::with_capacity(lanes.len());
        for block in lanes.chunks_mut(BLOCK_LANES) {
            out.extend(self.run_block(prog, entry, Inputs::Own(block), opts));
        }
        out
    }

    /// Finishes lane `j` on the scalar VM from the lockstep state `at`,
    /// over the lane's register column and its cache: the shared cache,
    /// the lane's own writable cache, or a scratch copy of its read-only
    /// one. The column is moved out; the block is over.
    fn resume_lane<L: LaneCaches>(
        &mut self,
        prog: &CompiledProgram,
        inputs: &mut Inputs<'_, '_, L>,
        j: usize,
        at: Resume<'_>,
        opts: EvalOptions,
    ) -> Result<Outcome, EvalError> {
        self.stats.resumed_lanes += 1;
        let n = inputs.len();
        let extent = self.cols.len() / n;
        let regs = (0..extent).map(|r| std::mem::replace(&mut self.cols[r * n + j], Value::Int(0)));
        let cache = match inputs {
            Inputs::Shared(_, cache) => cache.as_deref_mut(),
            Inputs::Own(lanes) if L::WRITABLE => lanes.cache_mut(j),
            Inputs::Own(lanes) => {
                self.lane_cache.clone_from(lanes.cache(j));
                Some(&mut self.lane_cache)
            }
        };
        self.scalar.resume(prog, regs, at, cache, opts)
    }

    /// Resolves a block that leaves lockstep at `at`: a masked lane keeps
    /// its error, and every live lane finishes on the scalar VM from `at`
    /// with its register column, the shared frame stack, fuel, cost and
    /// profile, and its own trace. Out of line, so the exits do not bloat
    /// the lockstep loop.
    #[cold]
    #[inline(never)]
    fn leave<L: LaneCaches>(
        &mut self,
        prog: &CompiledProgram,
        inputs: &mut Inputs<'_, '_, L>,
        errs: Vec<Option<EvalError>>,
        traces: &mut [Vec<f64>],
        at: Resume<'_>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        let mut out = Vec::with_capacity(errs.len());
        for (j, err) in errs.into_iter().enumerate() {
            out.push(match err {
                Some(e) => Err(e),
                None => {
                    let lane = Resume {
                        trace: std::mem::take(&mut traces[j]),
                        profile: at.profile.clone(),
                        ..at
                    };
                    self.resume_lane(prog, inputs, j, lane, opts)
                }
            });
        }
        out
    }

    /// One cache-resident block of [`run`](BatchVm::run),
    /// [`run_lanes`](BatchVm::run_lanes) or
    /// [`run_lanes_mut`](BatchVm::run_lanes_mut): the actual lockstep
    /// interpreter loop.
    fn run_block<L: LaneCaches>(
        &mut self,
        prog: &CompiledProgram,
        entry: &str,
        mut inputs: Inputs<'_, '_, L>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        let Some(entry_idx) = prog.proc_index(entry) else {
            return (0..n)
                .map(|_| Err(EvalError::UnknownProc(entry.to_string())))
                .collect();
        };
        if let Inputs::Shared(args, cache) = &mut inputs {
            if writes_cache(prog, entry_idx) {
                // Sequential path: one scalar run per lane, in lane order.
                self.stats.sequential_runs += 1;
                return args
                    .iter()
                    .map(|a| self.scalar.run(prog, entry, a, cache.as_deref_mut(), opts))
                    .collect();
            }
        }

        // A masked lane's error; `None` while the lane is live. `alive`
        // mirrors it as the sweeps' cheap per-lane test.
        let mut errs: Vec<Option<EvalError>> = vec![None; n];
        let mut alive: Vec<bool> = vec![true; n];
        let mut live = n;
        // Lanes masked with a typed error, folded into `stats` on exit.
        let mut masked = 0u64;

        let mut proc_idx = entry_idx;
        let mut proc = &prog.procs[proc_idx];
        for j in 0..n {
            if let Err(e) = check_args(proc, inputs.args(j)) {
                alive[j] = false;
                errs[j] = Some(e);
                live -= 1;
                masked += 1;
            }
        }

        let mut fuel = opts.step_limit;
        let mut cost = 0u64;
        let mut profile = opts.profile.then(Profile::default);
        let mut traces: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut frames: Vec<Frame> = Vec::new();
        let mut base = 0usize;
        let mut pc = 0usize;

        // The lanes' normal completion: each live lane's outcome is
        // `$lane` (lane `$j`); a masked lane keeps its error.
        macro_rules! finish {
            (|$j:ident| $lane:expr) => {{
                self.stats.masked_lanes += masked;
                let mut out = Vec::with_capacity(n);
                for $j in 0..n {
                    out.push(match errs[$j].take() {
                        Some(e) => Err(e),
                        None => $lane,
                    });
                }
                return out;
            }};
        }
        // Leaves lockstep at instruction `$at` of the current procedure
        // (see `leave`). Exact wherever the lanes have executed everything
        // before `$at` and nothing from it on; the exits taken when no
        // lane is live resume nobody.
        macro_rules! leave {
            ($at:expr) => {{
                self.stats.masked_lanes += masked;
                let at = Resume {
                    proc_idx,
                    pc: $at,
                    base,
                    frames: &frames,
                    fuel,
                    cost,
                    trace: Vec::new(),
                    profile: profile.take(),
                };
                return self.leave(prog, &mut inputs, errs, &mut traces, at, opts);
            }};
        }
        if live == 0 {
            leave!(pc);
        }

        // A dirty column file from the previous block is unobservable
        // when every register is written before it is read, so the
        // zero-fill (`nregs x lanes` values — for a small reader, work
        // rivaling the execution itself) is skipped for straight-line
        // programs and only the argument columns are written.
        let need = proc.nregs as usize * n;
        if self.cols.len() < need || !regs_written_before_read(prog, entry_idx) {
            self.cols.clear();
            self.cols.resize(need, Value::Int(0));
        }
        // Column-major argument scatter: each parameter's column is
        // written stride-1.
        let argc = proc.params.len();
        for i in 0..argc {
            let ci = i * n;
            for (j, &on) in alive.iter().enumerate() {
                if on {
                    self.cols[ci + j] = inputs.args(j)[i].clone();
                }
            }
        }

        // Masks lane `$j` out with the exact scalar error.
        macro_rules! kill {
            ($j:expr, $e:expr) => {{
                alive[$j] = false;
                errs[$j] = Some($e);
                live -= 1;
                masked += 1;
            }};
        }
        // A lane-uniform failure: every live lane gets the same error
        // its own scalar run would produce, a masked lane keeps its own,
        // and the batch is done. Expanded in place: calling an
        // out-of-line function here, at every metered instruction's fuel
        // check, made shared-cache sweeps about 5% slower.
        macro_rules! all_fail {
            ($e:expr) => {{
                self.stats.masked_lanes += masked + live as u64;
                let e = $e;
                return errs
                    .into_iter()
                    .map(|err| Err(err.unwrap_or_else(|| e.clone())))
                    .collect();
            }};
        }
        macro_rules! step1 {
            () => {
                if fuel == 0 {
                    all_fail!(EvalError::StepLimit);
                }
                fuel -= 1;
            };
        }
        // Lane sweep with the fully-live check hoisted: the common case
        // (no lane masked yet) runs without the per-lane `alive` test. A
        // `kill!` inside the body only affects *later* instructions —
        // lanes are independent within one sweep, and each is visited
        // once — so the unmasked variant stays sound even when a lane
        // faults partway through it.
        macro_rules! lanes {
            (|$j:ident| $body:expr) => {
                if live == n {
                    for $j in 0..n {
                        $body
                    }
                } else {
                    for $j in 0..n {
                        if alive[$j] {
                            $body
                        }
                    }
                }
            };
        }
        // One binop lane sweep with the operator dispatch already
        // hoisted: `$ffast` / `$ifast` are the non-faulting
        // `(Float, Float)` / `(Int, Int)` bodies; any other operand
        // shape falls back to the generic clone-and-match path per lane,
        // which raises the exact scalar error.
        macro_rules! bin_sweep {
            ($op:ident, $span:ident, $li:ident, $ri:ident, $di:ident,
             $a:ident, $b:ident, $ffast:expr, $ifast:expr) => {{
                // A local slice makes the column length an SSA value, so
                // the up-front assert lets the optimizer drop the
                // per-lane bounds checks.
                let cols_ = &mut self.cols[..];
                lanes!(|j| match (&cols_[$li + j], &cols_[$ri + j]) {
                    (&Value::Float($a), &Value::Float($b)) => cols_[$di + j] = $ffast,
                    (&Value::Int($a), &Value::Int($b)) => cols_[$di + j] = $ifast,
                    _ => match apply_binop_at(
                        $op,
                        cols_[$li + j].clone(),
                        cols_[$ri + j].clone(),
                        $span,
                    ) {
                        Ok(v) => cols_[$di + j] = v,
                        Err(e) => kill!(j, e),
                    },
                })
            }};
        }
        // Unary operator across the batch (also a fused constituent),
        // with the dispatch hoisted like `exec_bin`'s.
        macro_rules! exec_un {
            ($op:expr, $dst:expr, $src:expr, $span:expr) => {{
                let (op, span) = ($op, $span);
                cost += unop_cost(op);
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                let si = (base + $src as usize) * n;
                let di = (base + $dst as usize) * n;
                let end = self.cols.len();
                assert!(si + n <= end && di + n <= end);
                let cols_ = &mut self.cols[..];
                match op {
                    ds_lang::UnOp::Neg => lanes!(|j| match &cols_[si + j] {
                        &Value::Float(a) => cols_[di + j] = Value::Float(-a),
                        &Value::Int(a) => cols_[di + j] = Value::Int(a.wrapping_neg()),
                        _ => match apply_unop_at(op, cols_[si + j].clone(), span) {
                            Ok(v) => cols_[di + j] = v,
                            Err(e) => kill!(j, e),
                        },
                    }),
                    _ => lanes!(|j| match apply_unop_at(op, cols_[si + j].clone(), span) {
                        Ok(v) => cols_[di + j] = v,
                        Err(e) => kill!(j, e),
                    }),
                }
            }};
        }
        // Binary operator across the batch. The operator (and, in
        // lockstep, the operand types) are batch invariants, so the
        // per-operator match runs once per instruction and each arm is a
        // tight monomorphic loop over the lanes — this is where the SoA
        // layout pays, compared with the scalar VM's per-lane dispatch.
        macro_rules! exec_bin {
            ($op:expr, $dst:expr, $lhs:expr, $rhs:expr, $span:expr) => {{
                let (op, span) = ($op, $span);
                cost += binop_cost(op);
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                let li = (base + $lhs as usize) * n;
                let ri = (base + $rhs as usize) * n;
                let di = (base + $dst as usize) * n;
                // One up-front bounds proof so the lane loops below run
                // without per-iteration checks.
                let end = self.cols.len();
                assert!(li + n <= end && ri + n <= end && di + n <= end);
                match op {
                    BinOp::Add => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Float(a + b),
                        Value::Int(a.wrapping_add(b))
                    ),
                    BinOp::Sub => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Float(a - b),
                        Value::Int(a.wrapping_sub(b))
                    ),
                    BinOp::Mul => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Float(a * b),
                        Value::Int(a.wrapping_mul(b))
                    ),
                    BinOp::Lt => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a < b),
                        Value::Bool(a < b)
                    ),
                    BinOp::Le => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a <= b),
                        Value::Bool(a <= b)
                    ),
                    BinOp::Gt => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a > b),
                        Value::Bool(a > b)
                    ),
                    BinOp::Ge => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a >= b),
                        Value::Bool(a >= b)
                    ),
                    BinOp::Eq => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a == b),
                        Value::Bool(a == b)
                    ),
                    BinOp::Ne => bin_sweep!(
                        op,
                        span,
                        li,
                        ri,
                        di,
                        a,
                        b,
                        Value::Bool(a != b),
                        Value::Bool(a != b)
                    ),
                    // Float division is IEEE and never faults; integer
                    // division faults on zero, so ints take the generic
                    // path for the exact scalar error.
                    BinOp::Div => {
                        let cols_ = &mut self.cols[..];
                        lanes!(|j| match (&cols_[li + j], &cols_[ri + j]) {
                            (&Value::Float(a), &Value::Float(b)) => {
                                cols_[di + j] = Value::Float(a / b)
                            }
                            _ => match apply_binop_at(
                                op,
                                cols_[li + j].clone(),
                                cols_[ri + j].clone(),
                                span,
                            ) {
                                Ok(v) => cols_[di + j] = v,
                                Err(e) => kill!(j, e),
                            },
                        })
                    }
                    // Rem (and anything new): generic per lane — faults
                    // and type errors included.
                    _ => lanes!(|j| match apply_binop_at(
                        op,
                        self.cols[li + j].clone(),
                        self.cols[ri + j].clone(),
                        span,
                    ) {
                        Ok(v) => self.cols[di + j] = v,
                        Err(e) => kill!(j, e),
                    }),
                }
            }};
        }
        // Bounds-checked array load across the batch (also a fused
        // constituent).
        macro_rules! exec_load {
            ($dst:expr, $arr:expr, $idx:expr, $span:expr) => {{
                let span = $span;
                cost += INDEX_COST;
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry("idxload").or_default() += 1;
                }
                let ii = (base + $idx as usize) * n;
                let ai = (base + $arr as usize) * n;
                let di = (base + $dst as usize) * n;
                let end = self.cols.len();
                assert!(ii + n <= end && ai + n <= end && di + n <= end);
                lanes!(|j| {
                    let loaded = match self.cols[ii + j].as_int() {
                        None => Err(EvalError::TypeMismatch {
                            expected: Type::Int,
                            span,
                        }),
                        Some(i) => match &self.cols[ai + j] {
                            Value::Array(elems) => {
                                if i < 0 || i as usize >= elems.len() {
                                    Err(EvalError::IndexOutOfBounds {
                                        index: i,
                                        len: elems.len(),
                                        span,
                                    })
                                } else {
                                    Ok(elems[i as usize].clone())
                                }
                            }
                            _ => Err(EvalError::TypeMismatch {
                                expected: Type::Int,
                                span,
                            }),
                        },
                    };
                    match loaded {
                        Ok(v) => self.cols[di + j] = v,
                        Err(e) => kill!(j, e),
                    }
                });
            }};
        }

        loop {
            let op = proc.code[pc];
            pc += 1;
            match op {
                Op::Step { n: k } => {
                    let k = k as u64;
                    if fuel < k {
                        all_fail!(EvalError::StepLimit);
                    }
                    fuel -= k;
                }
                Op::Charge { cost: c } => cost += c as u64,
                Op::Const { dst, k } => {
                    step1!();
                    let v = &prog.consts[k as usize];
                    let di = (base + dst as usize) * n;
                    assert!(di + n <= self.cols.len());
                    let cols_ = &mut self.cols[..];
                    lanes!(|j| cols_[di + j] = v.clone());
                }
                Op::Move { dst, src } => {
                    step1!();
                    let si = (base + src as usize) * n;
                    let di = (base + dst as usize) * n;
                    let end = self.cols.len();
                    assert!(si + n <= end && di + n <= end);
                    let cols_ = &mut self.cols[..];
                    lanes!(|j| {
                        let v = cols_[si + j].clone();
                        cols_[di + j] = v;
                    });
                }
                Op::Un { op, dst, src } => {
                    step1!();
                    exec_un!(op, dst, src, proc.spans[pc - 1]);
                    if live == 0 {
                        leave!(pc);
                    }
                }
                Op::Bin { op, dst, lhs, rhs } => {
                    step1!();
                    exec_bin!(op, dst, lhs, rhs, proc.spans[pc - 1]);
                    if live == 0 {
                        leave!(pc);
                    }
                }
                Op::FillArray { dst, src, n: len } => {
                    let si = (base + src as usize) * n;
                    let di = (base + dst as usize) * n;
                    lanes!(|j| {
                        let v = self.cols[si + j].clone();
                        self.cols[di + j] = Value::Array(vec![v; len as usize]);
                    });
                }
                Op::LoadIndex { dst, arr, idx } => {
                    step1!();
                    exec_load!(dst, arr, idx, proc.spans[pc - 1]);
                    if live == 0 {
                        leave!(pc);
                    }
                }
                Op::StoreIndex { arr, idx, src } => {
                    cost += INDEX_STORE_COST;
                    if let Some(p) = profile.as_mut() {
                        p.ops += 1;
                        *p.op_histogram.entry("idxstore").or_default() += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let ii = (base + idx as usize) * n;
                    let ai = (base + arr as usize) * n;
                    let si = (base + src as usize) * n;
                    for j in 0..n {
                        if !alive[j] {
                            continue;
                        }
                        let Some(i) = self.cols[ii + j].as_int() else {
                            kill!(
                                j,
                                EvalError::TypeMismatch {
                                    expected: Type::Int,
                                    span,
                                }
                            );
                            continue;
                        };
                        let v = self.cols[si + j].clone();
                        let Value::Array(elems) = &mut self.cols[ai + j] else {
                            kill!(
                                j,
                                EvalError::TypeMismatch {
                                    expected: Type::Int,
                                    span,
                                }
                            );
                            continue;
                        };
                        if i < 0 || i as usize >= elems.len() {
                            kill!(
                                j,
                                EvalError::IndexOutOfBounds {
                                    index: i,
                                    len: elems.len(),
                                    span,
                                }
                            );
                            continue;
                        }
                        elems[i as usize] = v;
                    }
                    if live == 0 {
                        leave!(pc);
                    }
                }
                Op::Jump { target } => pc = target as usize,
                Op::JumpIfFalse { cond, target } => {
                    let span = proc.spans[pc - 1];
                    let ci = (base + cond as usize) * n;
                    let mut taken: Option<bool> = None;
                    let mut divergent = false;
                    lanes!(|j| match self.cols[ci + j].as_bool() {
                        Some(b) => match taken {
                            None => taken = Some(b),
                            Some(t) => divergent |= t != b,
                        },
                        // A non-bool condition faults the lane before
                        // any branch cost is charged, as in the
                        // scalar VM — and the lane dies anyway, so
                        // only its error is observable.
                        None => kill!(
                            j,
                            EvalError::TypeMismatch {
                                expected: Type::Bool,
                                span,
                            }
                        ),
                    });
                    // No lane took a side: every lane faulted.
                    let Some(taken) = taken else {
                        leave!(pc);
                    };
                    if divergent {
                        // Lockstep is no longer sound: each live lane
                        // re-executes this branch on the scalar VM and
                        // finishes there.
                        self.stats.divergent_blocks += 1;
                        leave!(pc - 1);
                    }
                    cost += BRANCH_COST;
                    if let Some(p) = profile.as_mut() {
                        p.branches += 1;
                    }
                    if !taken {
                        pc = target as usize;
                    }
                }
                Op::CallBuiltin {
                    b,
                    dst,
                    args_at,
                    argc,
                } => {
                    step1!();
                    cost += b.cost();
                    if let Some(p) = profile.as_mut() {
                        *p.builtin_calls.entry(b.name()).or_default() += 1;
                    }
                    let arg_regs = &proc.arg_pool[args_at as usize..(args_at + argc) as usize];
                    let di = (base + dst as usize) * n;
                    // Hoisted builtin dispatch: the all-float builtins
                    // get monomorphic column sweeps (argument columns
                    // resolved once, math applied in place — the
                    // expressions mirror `apply_pure_builtin` exactly);
                    // everything else goes through the generic scratch
                    // buffer, one `apply_pure_builtin` per lane.
                    macro_rules! bsweep1 {
                        (|$x:ident| $e:expr) => {{
                            let s0 = (base + arg_regs[0] as usize) * n;
                            let end = self.cols.len();
                            assert!(s0 + n <= end && di + n <= end);
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| {
                                let $x = cols_[s0 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                cols_[di + j] = Value::Float($e);
                            });
                        }};
                    }
                    macro_rules! bsweep2 {
                        (|$x:ident, $y:ident| $e:expr) => {{
                            let s0 = (base + arg_regs[0] as usize) * n;
                            let s1 = (base + arg_regs[1] as usize) * n;
                            let end = self.cols.len();
                            assert!(s0 + n <= end && s1 + n <= end && di + n <= end);
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| {
                                let $x = cols_[s0 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                let $y = cols_[s1 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                cols_[di + j] = Value::Float($e);
                            });
                        }};
                    }
                    macro_rules! bsweep3 {
                        (|$x:ident, $y:ident, $z:ident| $e:expr) => {{
                            let s0 = (base + arg_regs[0] as usize) * n;
                            let s1 = (base + arg_regs[1] as usize) * n;
                            let s2 = (base + arg_regs[2] as usize) * n;
                            let end = self.cols.len();
                            assert!(
                                s0 + n <= end && s1 + n <= end && s2 + n <= end && di + n <= end
                            );
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| {
                                let $x = cols_[s0 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                let $y = cols_[s1 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                let $z = cols_[s2 + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                cols_[di + j] = Value::Float($e);
                            });
                        }};
                    }
                    match b {
                        Builtin::Trace => {
                            let si = (base + arg_regs[0] as usize) * n;
                            lanes!(|j| {
                                let x = self.cols[si + j]
                                    .as_float()
                                    .expect("type checker ensured float arg");
                                traces[j].push(x);
                                self.cols[di + j] = Value::Float(x);
                            });
                        }
                        Builtin::Sin => bsweep1!(|x| x.sin()),
                        Builtin::Cos => bsweep1!(|x| x.cos()),
                        Builtin::Tan => bsweep1!(|x| x.tan()),
                        Builtin::Sqrt => bsweep1!(|x| x.sqrt()),
                        Builtin::Exp => bsweep1!(|x| x.exp()),
                        Builtin::Log => bsweep1!(|x| x.ln()),
                        Builtin::Floor => bsweep1!(|x| x.floor()),
                        Builtin::Abs => bsweep1!(|x| x.abs()),
                        Builtin::Pow => bsweep2!(|x, y| x.powf(y)),
                        Builtin::Min => bsweep2!(|x, y| x.min(y)),
                        Builtin::Max => bsweep2!(|x, y| x.max(y)),
                        Builtin::Fmod => bsweep2!(|x, y| x % y),
                        Builtin::Step => bsweep2!(|x, y| if y < x { 0.0 } else { 1.0 }),
                        Builtin::Clamp => bsweep3!(|x, lo, hi| {
                            let (lo, hi) = (lo.min(hi), hi.max(lo));
                            if lo.is_nan() {
                                x
                            } else {
                                x.clamp(lo, hi)
                            }
                        }),
                        Builtin::Lerp => bsweep3!(|a, b, t| a + (b - a) * t),
                        _ => lanes!(|j| {
                            self.argbuf.clear();
                            for &r in arg_regs {
                                self.argbuf
                                    .push(self.cols[(base + r as usize) * n + j].clone());
                            }
                            self.cols[di + j] = apply_pure_builtin(b, &self.argbuf)
                                .expect("non-trace builtins are pure");
                        }),
                    }
                }
                Op::Call {
                    callee,
                    dst,
                    args_at,
                    argc,
                } => {
                    step1!();
                    cost += CALL_COST;
                    let callee_proc = &prog.procs[callee as usize];
                    let arg_regs = &proc.arg_pool[args_at as usize..(args_at + argc) as usize];
                    if arg_regs.len() != callee_proc.params.len() {
                        // Arity is a property of the call site, not the
                        // lane: every lane fails identically.
                        all_fail!(EvalError::BadArguments {
                            proc: callee_proc.name.clone(),
                            detail: format!(
                                "expected {} argument(s), got {}",
                                callee_proc.params.len(),
                                arg_regs.len()
                            ),
                        });
                    }
                    let new_base = base + proc.nregs as usize;
                    let need = (new_base + callee_proc.nregs as usize) * n;
                    if self.cols.len() < need {
                        self.cols.resize(need, Value::Int(0));
                    }
                    'lane: for j in 0..n {
                        if !alive[j] {
                            continue;
                        }
                        for (i, (&r, (pname, pty))) in
                            arg_regs.iter().zip(&callee_proc.params).enumerate()
                        {
                            let v = self.cols[(base + r as usize) * n + j].clone();
                            if v.ty() != *pty {
                                kill!(
                                    j,
                                    EvalError::BadArguments {
                                        proc: callee_proc.name.clone(),
                                        detail: format!(
                                            "parameter `{pname}` expects `{pty}`, got `{}`",
                                            v.ty()
                                        ),
                                    }
                                );
                                continue 'lane;
                            }
                            self.cols[(new_base + i) * n + j] = v;
                        }
                    }
                    if live == 0 {
                        leave!(pc);
                    }
                    frames.push(Frame {
                        proc_idx: proc_idx as u32,
                        pc: pc as u32,
                        base: base as u32,
                        dst,
                    });
                    proc_idx = callee as usize;
                    proc = callee_proc;
                    base = new_base;
                    pc = 0;
                }
                Op::Ret { src } => {
                    let si = (base + src as usize) * n;
                    match frames.pop() {
                        None => {
                            // Control is uniform in lockstep, so every
                            // surviving lane completes here together.
                            if let Some(p) = profile.as_mut() {
                                p.steps = opts.step_limit - fuel;
                                p.cost = cost;
                            }
                            finish!(|j| Ok(Outcome {
                                value: Some(self.cols[si + j].clone()),
                                cost,
                                trace: std::mem::take(&mut traces[j]),
                                profile: profile.clone().map(Box::new),
                            }));
                        }
                        Some(f) => {
                            let di = (f.base as usize + f.dst as usize) * n;
                            for (j, &live) in alive.iter().enumerate().take(n) {
                                if live {
                                    let v = self.cols[si + j].clone();
                                    self.cols[di + j] = v;
                                }
                            }
                            proc_idx = f.proc_idx as usize;
                            proc = &prog.procs[proc_idx];
                            base = f.base as usize;
                            pc = f.pc as usize;
                        }
                    }
                }
                Op::RetVoid => match frames.pop() {
                    None => {
                        if let Some(p) = profile.as_mut() {
                            p.steps = opts.step_limit - fuel;
                            p.cost = cost;
                        }
                        finish!(|j| Ok(Outcome {
                            value: None,
                            cost,
                            trace: std::mem::take(&mut traces[j]),
                            profile: profile.clone().map(Box::new),
                        }));
                    }
                    Some(f) => {
                        // A void result in expression position: the
                        // evaluator's TypeMismatch at the call site,
                        // identically in every lane.
                        let caller = &prog.procs[f.proc_idx as usize];
                        all_fail!(EvalError::TypeMismatch {
                            expected: Type::Void,
                            span: caller.spans[f.pc as usize - 1],
                        });
                    }
                },
                Op::CacheRead { dst, slot } => {
                    step1!();
                    cost += CACHE_READ_COST;
                    if let Some(p) = profile.as_mut() {
                        p.cache_reads += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let slot = slot as usize;
                    let di = (base + dst as usize) * n;
                    assert!(di + n <= self.cols.len());
                    match &inputs {
                        // The cache is shared and read-only on this path,
                        // so one lookup serves — and one failure fails —
                        // every lane identically.
                        Inputs::Shared(_, cache) => {
                            let slot_val = match cache.as_deref() {
                                None => Err(EvalError::NoCache(span)),
                                Some(cb) => {
                                    cb.get(slot).ok_or(EvalError::UnfilledSlot { slot, span })
                                }
                            };
                            match slot_val {
                                Err(e) => all_fail!(e),
                                Ok(v) => {
                                    let cols_ = &mut self.cols[..];
                                    lanes!(|j| cols_[di + j] = v.clone());
                                }
                            }
                        }
                        // Lane `j` gathers from its own cache; a lane whose
                        // slot is unfilled is masked, the rest go on.
                        Inputs::Own(lanes) => {
                            let cols_ = &mut self.cols[..];
                            lanes!(|j| match lanes.cache(j).get(slot) {
                                Some(v) => cols_[di + j] = v,
                                None => kill!(j, EvalError::UnfilledSlot { slot, span }),
                            });
                            if live == 0 {
                                leave!(pc);
                            }
                        }
                    }
                }
                Op::CacheWrite { src, slot } => {
                    // Only a writable lane cache is written in lockstep. A
                    // shared cache never gets here (a program that writes
                    // it takes the sequential path), and read-only lanes
                    // leave lockstep at the write: each finishes on the
                    // scalar VM against a scratch copy of its own cache,
                    // as its private scalar run would.
                    let (true, Inputs::Own(lanes)) = (L::WRITABLE, &mut inputs) else {
                        leave!(pc - 1);
                    };
                    step1!();
                    cost += CACHE_STORE_COST;
                    if let Some(p) = profile.as_mut() {
                        p.cache_writes += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let si = (base + src as usize) * n;
                    lanes!(|j| {
                        let v = self.cols[si + j].clone();
                        if let Some(Err(CacheError::OutOfBounds { slot, len })) =
                            lanes.cache_mut(j).map(|c| c.try_set(slot as usize, v))
                        {
                            kill!(j, EvalError::CacheOutOfBounds { slot, len, span });
                        }
                    });
                    if live == 0 {
                        leave!(pc);
                    }
                }
                Op::Fused { pair } => {
                    self.stats.fused_dispatches += 1;
                    let (first, second) = proc.fused[pair as usize];
                    let spans = [proc.spans[pc - 1], proc.spans[pc]];
                    for (part, span) in [first, second].into_iter().zip(spans) {
                        step1!();
                        match part {
                            Op::Un { op, dst, src } => exec_un!(op, dst, src, span),
                            Op::Bin { op, dst, lhs, rhs } => exec_bin!(op, dst, lhs, rhs, span),
                            Op::LoadIndex { dst, arr, idx } => exec_load!(dst, arr, idx, span),
                            other => unreachable!("non-fusible constituent {other:?}"),
                        }
                        // With no lane live, `leave` resumes nobody, so
                        // `pc` need not point past the first constituent.
                        if live == 0 {
                            leave!(pc);
                        }
                    }
                    pc += 1; // skip the shadow slot
                }
                Op::ErrUnknownProc { name_at } => {
                    if fuel == 0 {
                        all_fail!(EvalError::StepLimit);
                    }
                    all_fail!(EvalError::UnknownProc(prog.names[name_at as usize].clone()));
                }
                Op::ErrUnbound { name_at } => {
                    if fuel == 0 {
                        all_fail!(EvalError::StepLimit);
                    }
                    all_fail!(EvalError::BadArguments {
                        proc: String::new(),
                        detail: format!("unbound variable `{}`", prog.names[name_at as usize]),
                    });
                }
                Op::ErrMissingReturn => {
                    all_fail!(EvalError::MissingReturn(proc.name.clone()));
                }
            }
        }
    }
}

impl CompiledProgram {
    /// Does any procedure reachable from `entry` write the cache? Over a
    /// shared cache a batch runs such a program on the sequential path,
    /// and over read-only lane caches it leaves lockstep at the first
    /// write, so a caller with a lockstep-only use for read-only caches
    /// routes it elsewhere. `false` for an unknown entry.
    pub fn writes_cache(&self, entry: &str) -> bool {
        self.proc_index(entry)
            .is_some_and(|i| writes_cache(self, i))
    }

    /// Runs `entry` once per lane of `inputs` on a fresh [`BatchVm`],
    /// sharing one cache (if given) across the batch.
    ///
    /// Structure-of-arrays execution: each instruction is fetched, decoded
    /// and metered once for the whole batch. Results are bit-exact against
    /// running the scalar VM per lane — values, costs, traces,
    /// [`Profile`](crate::Profile) counters and typed errors — with
    /// faulting lanes masked out and lane-divergent branches finishing
    /// per lane on the scalar VM (see the [module docs](self)).
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use ds_interp::{compile, EvalOptions, Value};
    /// let prog = ds_lang::parse_program("float sq(float x) { return x * x; }")?;
    /// ds_lang::typecheck(&prog)?;
    /// let sweep: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Float(i as f64)]).collect();
    /// let outs = compile(&prog).run_batch_soa("sq", &sweep, None, EvalOptions::default());
    /// assert_eq!(outs[3].as_ref().unwrap().value, Some(Value::Float(9.0)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_batch_soa(
        &self,
        entry: &str,
        inputs: &[Vec<Value>],
        cache: Option<&mut CacheBuf>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        BatchVm::new().run(self, entry, inputs, cache, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, fuse_hot_pairs, static_op_histogram};
    use crate::eval::Evaluator;
    use ds_lang::parse_program;

    fn popts() -> EvalOptions {
        EvalOptions {
            profile: true,
            ..EvalOptions::default()
        }
    }

    fn checked(src: &str) -> ds_lang::Program {
        let prog = parse_program(src).expect("parse");
        ds_lang::typecheck(&prog).expect("typecheck");
        prog
    }

    /// Batch output must equal a per-lane scalar VM run, field for field.
    fn assert_lanes_match(src: &str, entry: &str, sweep: &[Vec<Value>]) {
        let prog = parse_program(src).expect("parse");
        let cp = compile(&prog);
        let batch = cp.run_batch_soa(entry, sweep, None, popts());
        assert_eq!(batch.len(), sweep.len());
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            let scalar = vm.run(&cp, entry, args, None, popts());
            assert_eq!(batch[j], scalar, "lane {j} diverged on {args:?}");
        }
    }

    #[test]
    fn straight_line_batch_matches_scalar() {
        let sweep: Vec<Vec<Value>> = (0..17)
            .map(|i| vec![Value::Float(i as f64 * 0.25 - 1.0)])
            .collect();
        assert_lanes_match(
            "float f(float x) { float a = x * x + 1.0; return clamp(a, 0.0, 3.0); }",
            "f",
            &sweep,
        );
    }

    #[test]
    fn uniform_branches_stay_in_lockstep() {
        // Every lane is positive, so the branch is lane-uniform.
        let sweep: Vec<Vec<Value>> = (1..9).map(|i| vec![Value::Float(i as f64)]).collect();
        assert_lanes_match(
            "float f(float x) { if (x > 0.0) { return x * 2.0; } return -x; }",
            "f",
            &sweep,
        );
    }

    #[test]
    fn divergent_branches_fall_back_per_lane() {
        let sweep: Vec<Vec<Value>> = (-4..5).map(|i| vec![Value::Float(i as f64)]).collect();
        assert_lanes_match(
            "float f(float x) {
                 float acc = 0.0;
                 if (x > 0.0) { acc = sin(x); } else { acc = cos(x); }
                 return acc + x;
             }",
            "f",
            &sweep,
        );
    }

    #[test]
    fn faulting_lane_is_masked_not_contagious() {
        let src = "float f(int i) { float v[4] = 1.5; v[2] = 7.0; return v[i]; }";
        let sweep: Vec<Vec<Value>> = [0, 2, 99, 1, -1, 3]
            .iter()
            .map(|&i| vec![Value::Int(i)])
            .collect();
        assert_lanes_match(src, "f", &sweep);
        // And explicitly: the healthy neighbors of a faulting lane succeed.
        let prog = parse_program(src).unwrap();
        let cp = compile(&prog);
        let outs = cp.run_batch_soa("f", &sweep, None, popts());
        assert!(matches!(
            outs[2],
            Err(EvalError::IndexOutOfBounds {
                index: 99,
                len: 4,
                ..
            })
        ));
        assert!(matches!(
            outs[4],
            Err(EvalError::IndexOutOfBounds { index: -1, .. })
        ));
        for healthy in [0, 1, 3, 5] {
            assert!(outs[healthy].is_ok(), "lane {healthy} perturbed by faults");
        }
    }

    #[test]
    fn bad_entry_args_fault_per_lane() {
        let src = "float f(float x) { return x + 1.0; }";
        let prog = parse_program(src).unwrap();
        let cp = compile(&prog);
        let sweep = vec![
            vec![Value::Float(1.0)],
            vec![Value::Int(3)], // wrong type
            vec![],              // wrong arity
            vec![Value::Float(2.0)],
        ];
        let batch = cp.run_batch_soa("f", &sweep, None, popts());
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            assert_eq!(batch[j], vm.run(&cp, "f", args, None, popts()), "lane {j}");
        }
    }

    #[test]
    fn batch_profile_and_cost_equal_scalar() {
        let src = "float f(float x) {
                       float acc = 0.0;
                       for (int i = 0; i < 8; i = i + 1) { acc = acc + x * 0.5; }
                       return acc;
                   }";
        let prog = checked(src);
        let cp = compile(&prog);
        let sweep: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Float(i as f64)]).collect();
        let batch = cp.run_batch_soa("f", &sweep, None, popts());
        let tree = Evaluator::with_options(&prog, popts());
        for (j, args) in sweep.iter().enumerate() {
            let t = tree.run("f", args).expect("tree");
            let b = batch[j].as_ref().expect("batch");
            assert_eq!(t, *b, "lane {j} diverged from the tree walker");
        }
    }

    #[test]
    fn cache_writers_take_the_sequential_path() {
        use ds_lang::{ExprKind, SlotId, StmtKind};
        // A loader writes slot 0; later lanes must observe earlier writes
        // exactly as the old AoS loop did.
        let mut prog = parse_program("float loader(float k) { return k * k; }").unwrap();
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            let inner = e.clone();
            e.kind = ExprKind::CacheStore(SlotId(0), Box::new(inner));
        }
        prog.renumber();
        let cp = compile(&prog);
        let sweep: Vec<Vec<Value>> = (1..5).map(|i| vec![Value::Float(i as f64)]).collect();
        let mut cache = CacheBuf::new(1);
        let outs = cp.run_batch_soa("loader", &sweep, Some(&mut cache), EvalOptions::default());
        assert!(outs.iter().all(|o| o.is_ok()));
        // The last lane's write is what remains.
        assert_eq!(cache.get(0), Some(Value::Float(16.0)));
    }

    #[test]
    fn fused_batch_matches_unfused_scalar_exactly() {
        let src = "float f(float x, float y) { return x + y * y - x * 0.5; }";
        let prog = checked(src);
        let mut cp = compile(&prog);
        let hist = static_op_histogram(&cp);
        let stats = fuse_hot_pairs(&mut cp, &hist, 4);
        assert!(stats.fused_sites > 0, "expected fusible pairs");
        let unfused = compile(&prog);
        let sweep: Vec<Vec<Value>> = (0..9)
            .map(|i| vec![Value::Float(i as f64), Value::Float(0.5 * i as f64)])
            .collect();
        let mut bvm = BatchVm::new();
        let fused_outs = bvm.run(&cp, "f", &sweep, None, popts());
        assert!(bvm.fused_dispatches() > 0);
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            let reference = vm.run(&unfused, "f", args, None, popts());
            assert_eq!(fused_outs[j], reference, "fusion changed lane {j}");
            // The fused program on the scalar VM must also agree.
            assert_eq!(vm.run(&cp, "f", args, None, popts()), reference);
        }
    }

    /// Compiles `src` with every float literal `100.0` turned into a read
    /// of cache slot 0 and every `200.0` into a read of slot 1.
    fn with_slot_reads(src: &str) -> CompiledProgram {
        use ds_lang::{ExprKind, SlotId};
        let mut prog = checked(src);
        for p in &mut prog.procs {
            p.walk_exprs_mut(&mut |e| {
                if let ExprKind::FloatLit(x) = e.kind {
                    if x == 100.0 || x == 200.0 {
                        e.kind = ExprKind::CacheRef(SlotId(u32::from(x == 200.0)), Type::Float);
                    }
                }
            });
        }
        prog.renumber();
        compile(&prog)
    }

    fn two_slots(a: f64, b: Option<f64>) -> CacheBuf {
        let mut c = CacheBuf::new(2);
        c.set(0, Value::Float(a));
        if let Some(b) = b {
            c.set(1, Value::Float(b));
        }
        c
    }

    /// Per-lane output must equal a scalar run of each lane against a
    /// copy of that lane's own cache.
    fn assert_own_lanes_match(cp: &CompiledProgram, entry: &str, lanes: &[(Vec<Value>, CacheBuf)]) {
        let refs: Vec<(&[Value], &CacheBuf)> =
            lanes.iter().map(|(a, c)| (a.as_slice(), c)).collect();
        let mut bvm = BatchVm::new();
        let batch = bvm.run_lanes(cp, entry, &refs, popts());
        assert_eq!(batch.len(), lanes.len());
        let mut vm = Vm::new();
        for (j, (args, cache)) in lanes.iter().enumerate() {
            let scalar = vm.run(cp, entry, args, Some(&mut cache.clone()), popts());
            assert_eq!(batch[j], scalar, "lane {j} diverged on {args:?}");
        }
    }

    #[test]
    fn per_lane_caches_stay_in_lockstep_and_mask_unfilled_slots() {
        let cp = with_slot_reads(
            "float r(float x) { if (x > 0.0) { return x * 100.0 + 200.0; } return x - 100.0; }",
        );
        // Every lane takes the same branch but reads different slots; lane
        // 2's cache never filled slot 1.
        let lanes: Vec<(Vec<Value>, CacheBuf)> = (1..6)
            .map(|i| {
                let b = (i != 3).then_some(i as f64 * 10.0);
                (vec![Value::Float(i as f64)], two_slots(i as f64 + 0.5, b))
            })
            .collect();
        assert_own_lanes_match(&cp, "r", &lanes);
        let refs: Vec<(&[Value], &CacheBuf)> =
            lanes.iter().map(|(a, c)| (a.as_slice(), c)).collect();
        let mut bvm = BatchVm::new();
        let outs = bvm.run_lanes(&cp, "r", &refs, popts());
        assert!(matches!(
            outs[2],
            Err(EvalError::UnfilledSlot { slot: 1, .. })
        ));
        for healthy in [0, 1, 3, 4] {
            assert_eq!(
                outs[healthy].as_ref().unwrap().value,
                Some(Value::Float(
                    (healthy + 1) as f64 * (healthy as f64 + 1.5) + (healthy + 1) as f64 * 10.0
                ))
            );
        }
        let stats = bvm.stats();
        assert_eq!(stats.divergent_blocks, 0, "the branch was lane-uniform");
        assert_eq!(
            stats.masked_lanes, 1,
            "only the unfilled lane left lockstep"
        );
    }

    #[test]
    fn divergent_per_lane_blocks_rerun_on_each_lanes_own_cache() {
        let cp = with_slot_reads(
            "float r(float x) { if (x > 0.0) { return x * 100.0 + 200.0; } return x - 100.0; }",
        );
        let lanes: Vec<(Vec<Value>, CacheBuf)> = (-3..4)
            .map(|i| {
                let b = (i != 2).then_some(i as f64 * 3.0);
                (vec![Value::Float(i as f64)], two_slots(i as f64 * 0.25, b))
            })
            .collect();
        assert_own_lanes_match(&cp, "r", &lanes);
        let refs: Vec<(&[Value], &CacheBuf)> =
            lanes.iter().map(|(a, c)| (a.as_slice(), c)).collect();
        let mut bvm = BatchVm::new();
        bvm.run_lanes(&cp, "r", &refs, popts());
        assert_eq!(bvm.stats().divergent_blocks, 1);
        // A wide per-lane batch is blocked like a shared-cache one.
        let wide: Vec<(Vec<Value>, CacheBuf)> = (0..(BLOCK_LANES + 5))
            .map(|i| {
                (
                    vec![Value::Float(1.0 + i as f64)],
                    two_slots(i as f64, Some(2.0)),
                )
            })
            .collect();
        assert_own_lanes_match(&cp, "r", &wide);
    }

    /// Compiles `src` with every call `saveK(e)` (K a digit) turned into
    /// a write of `e` to cache slot K; `src` defines each `saveK` as the
    /// identity so it type-checks.
    fn with_slot_writes(src: &str) -> CompiledProgram {
        use ds_lang::{ExprKind, SlotId};
        let mut prog = checked(src);
        for p in &mut prog.procs {
            p.walk_exprs_mut(&mut |e| {
                if let ExprKind::Call(name, args) = &mut e.kind {
                    if let Some(k) = name.strip_prefix("save").and_then(|k| k.parse().ok()) {
                        let inner = args.remove(0);
                        e.kind = ExprKind::CacheStore(SlotId(k), Box::new(inner));
                    }
                }
            });
        }
        prog.renumber();
        compile(&prog)
    }

    /// Every lane of a writable per-lane batch must equal a scalar run
    /// against its own fresh cache: the outcome, and the slots it filled.
    /// Returns the batch VM's stats.
    fn assert_writable_lanes_match(
        cp: &CompiledProgram,
        entry: &str,
        sweep: &[Vec<Value>],
        slots: usize,
        opts: EvalOptions,
    ) -> BatchStats {
        let mut caches: Vec<CacheBuf> = sweep.iter().map(|_| CacheBuf::new(slots)).collect();
        let mut lanes: Vec<(&[Value], &mut CacheBuf)> = sweep
            .iter()
            .map(Vec::as_slice)
            .zip(caches.iter_mut())
            .collect();
        let mut bvm = BatchVm::new();
        let outs = bvm.run_lanes_mut(cp, entry, &mut lanes, opts);
        assert_eq!(outs.len(), sweep.len());
        let mut vm = Vm::new();
        for (j, (args, cache)) in sweep.iter().zip(&caches).enumerate() {
            let mut want = CacheBuf::new(slots);
            let scalar = vm.run(cp, entry, args, Some(&mut want), opts);
            assert_eq!(outs[j], scalar, "lane {j} diverged on {args:?}");
            assert_eq!(cache.filled(), want.filled(), "lane {j} filled");
            assert_eq!(cache.content_hash(), want.content_hash(), "lane {j} slots");
        }
        bvm.stats()
    }

    const LOADER: &str = "float save0(float x) { return x; }
         float save1(float x) { return x; }
         float save2(float x) { return x; }
         float half(float x) { trace(x); if (x > 1.0) { return save2(x * 0.5); } return x; }
         float loader(float k, int i) {
             float a = save0(sin(k) + 1.0);
             float v[2] = a;
             float b = save1(v[i] * k);
             return half(b) + a;
         }";

    #[test]
    fn writable_lane_caches_fill_in_lockstep() {
        let cp = with_slot_writes(LOADER);
        // Every lane takes the same side of `x > 1.0`: sin(k) > -0.5.
        let sweep: Vec<Vec<Value>> = [3.0, 6.5, 7.0, 8.0, 9.0, 13.0, 14.0, 15.0, 19.0]
            .iter()
            .enumerate()
            .map(|(i, &k)| vec![Value::Float(k), Value::Int(i as i64 % 2)])
            .collect();
        let stats = assert_writable_lanes_match(&cp, "loader", &sweep, 3, popts());
        assert_eq!(stats.divergent_blocks, 0);
        assert_eq!((stats.resumed_lanes, stats.sequential_runs), (0, 0));
        // A wide batch is blocked, and an undersized cache faults every
        // lane at its first write with the scalar error.
        let wide: Vec<Vec<Value>> = (0..(BLOCK_LANES + 3))
            .map(|i| vec![Value::Float(2.0 + i as f64), Value::Int(0)])
            .collect();
        assert_writable_lanes_match(&cp, "loader", &wide, 3, popts());
        let stats = assert_writable_lanes_match(&cp, "loader", &sweep, 0, popts());
        assert_eq!(stats.masked_lanes, sweep.len() as u64);
    }

    #[test]
    fn divergent_lanes_resume_at_the_branch_with_their_writes() {
        let cp = with_slot_writes(LOADER);
        // The branch sits in a callee, after two slot writes and a trace;
        // lanes 4 and 6 fault on `v[i]` after writing slot 0.
        let sweep: Vec<Vec<Value>> = (0..8)
            .map(|i| {
                let i_arg = if i == 4 || i == 6 { 5 } else { i % 2 };
                vec![Value::Float(i as f64 * 0.7 - 2.0), Value::Int(i_arg)]
            })
            .collect();
        let stats = assert_writable_lanes_match(&cp, "loader", &sweep, 3, popts());
        assert_eq!(stats.divergent_blocks, 1);
        assert_eq!(stats.resumed_lanes, 6, "every live lane resumed");
        assert_eq!(stats.masked_lanes, 2);
        // Fuel carries across the resume: a budget that runs out after
        // the branch fails exactly where the scalar run does.
        let mut vm = Vm::new();
        let mut cache = CacheBuf::new(3);
        let full = vm
            .run(&cp, "loader", &sweep[7], Some(&mut cache), popts())
            .expect("loads");
        let steps = full.profile.as_ref().map_or(0, |p| p.steps);
        for limit in [steps - 1, steps, steps + 1] {
            let opts = EvalOptions {
                step_limit: limit,
                ..popts()
            };
            assert_writable_lanes_match(&cp, "loader", &sweep, 3, opts);
        }
    }

    #[test]
    fn every_lane_faulting_resolves_every_lane() {
        let cp = with_slot_writes(LOADER);
        let sweep: Vec<Vec<Value>> = (0..5)
            .map(|i| vec![Value::Float(i as f64), Value::Int(7 + i)])
            .collect();
        let stats = assert_writable_lanes_match(&cp, "loader", &sweep, 3, popts());
        assert_eq!(stats.masked_lanes, 5);
        assert_eq!(stats.resumed_lanes, 0, "no lane was left to resume");
    }

    #[test]
    fn per_lane_mode_never_writes_a_lane_cache() {
        use ds_lang::{ExprKind, SlotId, StmtKind};
        let mut prog = parse_program("float loader(float k) { return k * k; }").unwrap();
        if let StmtKind::Return(Some(e)) = &mut prog.procs[0].body.stmts[0].kind {
            let inner = e.clone();
            e.kind = ExprKind::CacheStore(SlotId(0), Box::new(inner));
        }
        prog.renumber();
        let cp = compile(&prog);
        assert!(cp.writes_cache("loader"));
        assert!(!cp.writes_cache("nope"));
        let lanes: Vec<(Vec<Value>, CacheBuf)> = (1..4)
            .map(|i| (vec![Value::Float(i as f64)], CacheBuf::new(1)))
            .collect();
        assert_own_lanes_match(&cp, "loader", &lanes);
        let refs: Vec<(&[Value], &CacheBuf)> =
            lanes.iter().map(|(a, c)| (a.as_slice(), c)).collect();
        let mut bvm = BatchVm::new();
        let outs = bvm.run_lanes(&cp, "loader", &refs, popts());
        assert!(outs.iter().all(Result::is_ok));
        // The lanes leave lockstep at the write and finish on scratch
        // copies; only a shared cache takes the sequential path.
        let stats = bvm.stats();
        assert_eq!((stats.sequential_runs, stats.resumed_lanes), (0, 3));
        assert!(
            lanes.iter().all(|(_, c)| c.filled() == 0),
            "the lanes' own caches are read-only"
        );
    }

    #[test]
    fn empty_batch_and_unknown_entry() {
        let prog = checked("float f(float x) { return x; }");
        let cp = compile(&prog);
        assert!(cp
            .run_batch_soa("f", &[], None, EvalOptions::default())
            .is_empty());
        let outs = cp.run_batch_soa("nope", &[vec![]], None, EvalOptions::default());
        assert_eq!(outs[0], Err(EvalError::UnknownProc("nope".into())));
    }

    #[test]
    fn step_limit_hits_every_lane_like_scalar() {
        let prog =
            checked("float f(float x) { float a = x; while (a > 0.0) { a = a + 1.0; } return a; }");
        let cp = compile(&prog);
        let opts = EvalOptions {
            step_limit: 500,
            ..EvalOptions::default()
        };
        let sweep: Vec<Vec<Value>> = (1..4).map(|i| vec![Value::Float(i as f64)]).collect();
        let batch = cp.run_batch_soa("f", &sweep, None, opts);
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            assert_eq!(batch[j], vm.run(&cp, "f", args, None, opts), "lane {j}");
        }
        assert!(batch.iter().all(|o| *o == Err(EvalError::StepLimit)));
    }
}
