//! The structure-of-arrays batch VM.
//!
//! The paper's payoff shape is many evaluations of one small reader: an
//! 8×8 grid times a slider sweep, or a 640×480 frame. The scalar
//! [`Vm`] pays full instruction dispatch — fetch, decode,
//! fuel, cost, profile bookkeeping — once *per input per instruction*.
//! [`BatchVm`] instead holds the register file as columns (register-major:
//! all lanes of register `r` are contiguous) and executes each instruction
//! across every live lane before advancing the pc, so the dispatch and
//! bookkeeping cost is paid once per instruction for the whole batch.
//!
//! ## Unboxed, type-uniform columns
//!
//! A column holds one raw 8-byte word per lane — `f64` bits, an `i64`, or
//! a `bool` as 0/1 — and its register holds *one* type tag for all of its
//! lanes. One tag per register suffices because lockstep lanes execute the
//! same instructions: entry arguments of the wrong type are masked before
//! the first instruction, and every instruction's result type depends only
//! on its operand types. So `Bin`, `Un` and the builtins dispatch once per
//! instruction on the operator and the operand tags, and their arms are
//! plain loops over the words that the compiler can vectorize; only
//! integer `Div` and `Rem` test each lane, for a zero divisor. A type error
//! is lane-uniform too: it fails every live lane with the scalar VM's exact
//! error.
//!
//! An array register's lane word is the offset of that lane's elements in
//! a block-local arena, and every (register, lane) cell owns its elements,
//! so a `Move` copies them and array assignment keeps value semantics. A
//! register that the block has not written yet has the tag `Zero`: every
//! lane holds the scalar VM's initial `Int(0)`, and its words are only
//! written when an instruction first reads them, so a block starts without
//! zero-filling its columns.
//!
//! ## Lockstep soundness
//!
//! Lockstep execution is valid exactly when every lane takes the same
//! control path and observes the same shared state. The executor enforces
//! this with four mechanisms, each degrading to bit-exact scalar
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
//!   lane on the scalar [`Vm`] *from that branch*: the lane
//!   carries its register column (each word turned back into a [`Value`]
//!   by its register's tag), the shared frame stack, fuel, cost, its trace
//!   and a clone of the shared [`Profile`] into the scalar loop, which
//!   re-executes the branch for that lane alone. Nothing before the branch
//!   runs twice, and the result is the scalar run's by construction. An
//!   instruction whose operands no column can hold (an ill-typed array
//!   store, say) leaves lockstep the same way, before it executes.
//! * **Lane exit on a type disagreement** — the one source of
//!   non-uniform types is a per-lane cache: a lane whose slot holds a
//!   value of another type than its register column's leaves lockstep
//!   alone, finishing on the scalar VM from just after that read, while
//!   the other lanes stay in lockstep.
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
    apply_binop_at, builtin_arg_error, try_builtin, EvalOptions, Outcome, Profile, CALL_COST,
};
use crate::value::Value;
use crate::vm::{check_args, Frame, Resume, Vm};
use ds_lang::cost::{
    binop_cost, unop_cost, BRANCH_COST, CACHE_READ_COST, CACHE_STORE_COST, INDEX_COST,
    INDEX_STORE_COST,
};
use ds_lang::{BinOp, Builtin, Elem, Type, UnOp};

/// Lanes per lockstep block. Each instruction sweeps whole columns, so
/// the block's register file (`nregs x BLOCK_LANES` words of 8 bytes) must
/// stay cache-resident or every sweep streams from DRAM and the SoA
/// advantage drowns in memory traffic. 128 lanes keeps even
/// register-heavy readers (a shader reader runs ~50 registers, ~50 KiB of
/// columns) inside L2 while still amortizing dispatch ~100x.
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

/// The type of one register column, shared by all of its live lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// Not written since the block began: every lane holds the scalar
    /// VM's initial `Int(0)`, and the words are written on first read.
    Zero,
    Int,
    Float,
    Bool,
    /// `len` elements of type `elem`: each lane's word is the offset of
    /// that lane's elements in the block's arena.
    Array(Elem, u32),
}

impl Tag {
    /// The MiniC type of the column's values, as [`Value::ty`] gives it.
    fn ty(self) -> Type {
        match self {
            Tag::Zero | Tag::Int => Type::Int,
            Tag::Float => Type::Float,
            Tag::Bool => Type::Bool,
            Tag::Array(_, 0) => Type::Array(Elem::Float, 0),
            Tag::Array(elem, len) => Type::Array(elem, len),
        }
    }

    /// The tag of a column of type `ty`.
    fn of_type(ty: Type) -> Tag {
        match ty {
            Type::Int => Tag::Int,
            Type::Float => Tag::Float,
            Type::Bool => Tag::Bool,
            Type::Array(elem, len) => Tag::Array(elem, len),
            // No value has type `void`: every lane fails the entry check.
            Type::Void => Tag::Zero,
        }
    }

    /// The tag of a scalar.
    fn scalar(elem: Elem) -> Tag {
        match elem {
            Elem::Int => Tag::Int,
            Elem::Float => Tag::Float,
            Elem::Bool => Tag::Bool,
        }
    }

    /// The tag of a column holding `v`, or `None` for a value no column
    /// can hold: an array of arrays, or of mixed element types.
    fn of(v: &Value) -> Option<Tag> {
        let elem = |v: &Value| match v {
            Value::Int(_) => Some(Elem::Int),
            Value::Float(_) => Some(Elem::Float),
            Value::Bool(_) => Some(Elem::Bool),
            Value::Array(_) => None,
        };
        match v {
            Value::Array(elems) => {
                let first = elems.first().map_or(Some(Elem::Float), elem)?;
                elems
                    .iter()
                    .all(|e| elem(e) == Some(first))
                    .then_some(Tag::Array(first, elems.len() as u32))
            }
            scalar => elem(scalar).map(Tag::scalar),
        }
    }
}

/// The lane word of a scalar; an array's word is an arena offset, which
/// only [`Columns::put`] can give it.
fn word(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Bool(b) => u64::from(*b),
        Value::Array(_) => 0,
    }
}

/// The scalar value of `w` under the scalar tag `tag`.
fn scalar_value(tag: Tag, w: u64) -> Value {
    match tag {
        Tag::Float => Value::Float(f64::from_bits(w)),
        Tag::Bool => Value::Bool(w != 0),
        _ => Value::Int(w as i64),
    }
}

/// The block's register file: one column of lane words and one [`Tag`]
/// per register, plus the arena that array registers point into.
#[derive(Debug, Default)]
struct Columns {
    /// Lane words, register-major: lane `j` of (window-absolute) register
    /// `r` lives at `words[r * n + j]`.
    words: Vec<u64>,
    /// One tag per register; its length is the register file's size.
    tags: Vec<Tag>,
    /// The block's array elements. Each (register, lane) cell of an array
    /// register owns its elements, so writing one never changes another.
    arena: Vec<u64>,
    /// Lanes per column in the current block.
    n: usize,
}

impl Columns {
    /// Starts a block of `n` lanes with `nregs` unwritten registers.
    fn reset(&mut self, nregs: usize, n: usize) {
        self.n = n;
        self.tags.clear();
        self.arena.clear();
        self.grow(nregs);
    }

    /// Makes room for `nregs` registers; new ones are unwritten.
    fn grow(&mut self, nregs: usize) {
        if self.tags.len() < nregs {
            self.tags.resize(nregs, Tag::Zero);
        }
        if self.words.len() < nregs * self.n {
            self.words.resize(nregs * self.n, 0);
        }
    }

    /// Writes the words of unwritten register `r`, so they can be read.
    fn ready(&mut self, r: usize) {
        if self.tags[r] == Tag::Zero {
            self.words[r * self.n..(r + 1) * self.n].fill(0);
            self.tags[r] = Tag::Int;
        }
    }

    /// Does any lane of float register `r` hold a NaN?
    fn has_nan(&self, r: usize) -> bool {
        self.words[r * self.n..(r + 1) * self.n]
            .iter()
            .fold(false, |nan, &w| nan | f64::from_bits(w).is_nan())
    }

    /// Lane `j` of register `r` as a [`Value`].
    fn value(&self, r: usize, j: usize) -> Value {
        let w = self.words[r * self.n + j];
        match self.tags[r] {
            Tag::Zero => Value::Int(0),
            Tag::Array(elem, len) => {
                let at = w as usize;
                Value::Array(
                    self.arena[at..at + len as usize]
                        .iter()
                        .map(|&e| scalar_value(Tag::scalar(elem), e))
                        .collect(),
                )
            }
            tag => scalar_value(tag, w),
        }
    }

    /// Lane `j`'s whole register file, every frame's window.
    fn lane(&self, j: usize) -> impl Iterator<Item = Value> + '_ {
        (0..self.tags.len()).map(move |r| self.value(r, j))
    }

    /// Writes `v` into lane `j` of register `r`, giving an array fresh
    /// elements. The caller sets the tag, from [`Tag::of`].
    fn put(&mut self, r: usize, j: usize, v: &Value) {
        let w = match v {
            Value::Array(elems) => {
                let at = self.arena.len();
                self.arena.extend(elems.iter().map(word));
                at as u64
            }
            scalar => word(scalar),
        };
        self.words[r * self.n + j] = w;
    }

    /// Writes `v`, of tag `tag`, into every live lane of register `d`.
    fn broadcast(&mut self, d: usize, tag: Tag, v: &Value, alive: &[bool]) {
        if let Tag::Array(..) = tag {
            for j in (0..self.n).filter(|&j| alive[j]) {
                self.put(d, j, v);
            }
        } else {
            self.words[d * self.n..(d + 1) * self.n].fill(word(v));
        }
        self.tags[d] = tag;
    }

    /// Copies register `s` into register `d` in every live lane. An array
    /// is copied element by element: into `d`'s own elements when it
    /// already holds an array of the same length, else into fresh ones.
    fn copy(&mut self, s: usize, d: usize, alive: &[bool]) {
        let n = self.n;
        let tag = self.tags[s];
        if let Tag::Array(_, len) = tag {
            let len = len as usize;
            let reuse = matches!(self.tags[d], Tag::Array(_, l) if l as usize == len);
            for j in (0..n).filter(|&j| alive[j]) {
                let from = self.words[s * n + j] as usize;
                if reuse {
                    let to = self.words[d * n + j] as usize;
                    self.arena.copy_within(from..from + len, to);
                } else {
                    self.words[d * n + j] = self.arena.len() as u64;
                    self.arena.extend_from_within(from..from + len);
                }
            }
        } else if s != d {
            self.words.copy_within(s * n..(s + 1) * n, d * n);
        }
        self.tags[d] = tag;
    }

    /// `d = [s; len]` in every live lane, for a scalar register `s`.
    fn fill_array(&mut self, s: usize, d: usize, len: u32, alive: &[bool]) {
        let n = self.n;
        let elem = match self.tags[s] {
            Tag::Int => Elem::Int,
            Tag::Bool => Elem::Bool,
            _ => Elem::Float,
        };
        let reuse = matches!(self.tags[d], Tag::Array(_, l) if l == len);
        let len = len as usize;
        for j in (0..n).filter(|&j| alive[j]) {
            let w = self.words[s * n + j];
            if reuse {
                let to = self.words[d * n + j] as usize;
                self.arena[to..to + len].fill(w);
            } else {
                self.words[d * n + j] = self.arena.len() as u64;
                self.arena.resize(self.arena.len() + len, w);
            }
        }
        self.tags[d] = Tag::Array(elem, len as u32);
    }
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

    /// The cache lane `j` runs against on the scalar VM: the shared cache,
    /// the lane's own writable cache, or `scratch` holding a copy of its
    /// read-only one.
    fn scalar_cache<'s>(
        &'s mut self,
        j: usize,
        scratch: &'s mut CacheBuf,
    ) -> Option<&'s mut CacheBuf> {
        match self {
            Inputs::Shared(_, cache) => cache.as_deref_mut(),
            Inputs::Own(lanes) if !L::WRITABLE => {
                scratch.clone_from(lanes.cache(j));
                Some(scratch)
            }
            Inputs::Own(lanes) => lanes.cache_mut(j),
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
    /// from where they left it: at a divergent branch, at a cache write
    /// to a read-only lane cache, or at an instruction whose operands no
    /// column can hold.
    pub resumed_lanes: u64,
    /// Lanes that left lockstep alone on a type disagreement — a
    /// per-lane cache slot holding another type than the column's, or an
    /// entry argument no column can hold — and finished on the scalar VM
    /// while the rest of the block stayed in lockstep.
    pub type_exits: u64,
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
        self.type_exits += other.type_exits;
        self.masked_lanes += other.masked_lanes;
        self.sequential_runs += other.sequential_runs;
    }
}

/// A lane's result once it has left lockstep; `None` while it is live.
type Done = Option<Result<Outcome, EvalError>>;

/// A reusable structure-of-arrays batch executor.
///
/// Holds the columnar register file, a scratch buffer and an embedded
/// scalar [`Vm`] for the fallback paths, all reused across
/// [`run`](BatchVm::run) calls. See the [module docs](self) for the
/// execution model.
#[derive(Debug, Default)]
pub struct BatchVm {
    /// The block's register file.
    cols: Columns,
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
    /// over the lane's register file — with register `patch.0` holding
    /// `patch.1` instead, when given — and its cache (see
    /// [`Inputs::scalar_cache`]).
    fn resume_lane<L: LaneCaches>(
        &mut self,
        prog: &CompiledProgram,
        inputs: &mut Inputs<'_, '_, L>,
        j: usize,
        at: Resume<'_>,
        patch: Option<(usize, Value)>,
        opts: EvalOptions,
    ) -> Result<Outcome, EvalError> {
        let cols = &self.cols;
        let regs = cols.lane(j).enumerate().map(|(r, v)| match &patch {
            Some((p, pv)) if *p == r => pv.clone(),
            _ => v,
        });
        let cache = inputs.scalar_cache(j, &mut self.lane_cache);
        self.scalar.resume(prog, regs, at, cache, opts)
    }

    /// Resolves a block that leaves lockstep at `at`: a lane that already
    /// left keeps its result, and every live lane finishes on the scalar
    /// VM from `at` with its register column, the shared frame stack,
    /// fuel, cost and profile, and its own trace. Out of line, so the
    /// exits do not bloat the lockstep loop.
    #[cold]
    #[inline(never)]
    fn leave<L: LaneCaches>(
        &mut self,
        prog: &CompiledProgram,
        inputs: &mut Inputs<'_, '_, L>,
        done: Vec<Done>,
        traces: &mut [Vec<f64>],
        at: Resume<'_>,
        opts: EvalOptions,
    ) -> Vec<Result<Outcome, EvalError>> {
        let mut out = Vec::with_capacity(done.len());
        for (j, result) in done.into_iter().enumerate() {
            out.push(match result {
                Some(r) => r,
                None => {
                    self.stats.resumed_lanes += 1;
                    let lane = Resume {
                        trace: std::mem::take(&mut traces[j]),
                        profile: at.profile.clone(),
                        ..at
                    };
                    self.resume_lane(prog, inputs, j, lane, None, opts)
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

        // A lane's result once it left lockstep; `None` while it is live.
        // `alive` mirrors it as the sweeps' cheap per-lane test.
        let mut done: Vec<Done> = vec![None; n];
        let mut alive: Vec<bool> = vec![true; n];
        let mut live = n;
        // Lanes masked with a typed error, folded into `stats` on exit.
        let mut masked = 0u64;

        let mut proc_idx = entry_idx;
        let mut proc = &prog.procs[proc_idx];
        self.cols.reset(proc.nregs as usize, n);
        // A lane whose arguments pass the entry check has the parameters'
        // types, so the parameters' tags are the block's. A lane failing
        // the quick test below is masked with `check_args`'s error, or, if
        // it passes that (an array argument no column can hold), runs
        // alone, whole, on the scalar VM: nothing has executed yet.
        let argc = proc.params.len();
        for (r, (_, ty)) in proc.params.iter().enumerate() {
            self.cols.tags[r] = Tag::of_type(*ty);
        }
        // One pass checks each lane's arguments and scatters them into
        // the parameter columns.
        for j in 0..n {
            let args = inputs.args(j);
            let mut fits = args.len() == argc;
            if fits {
                for (i, v) in args.iter().enumerate() {
                    let w = match (v, self.cols.tags[i]) {
                        (&Value::Float(x), Tag::Float) => x.to_bits(),
                        (&Value::Int(x), Tag::Int) => x as u64,
                        (&Value::Bool(x), Tag::Bool) => u64::from(x),
                        (v, tag) if Tag::of(v) == Some(tag) => {
                            self.cols.put(i, j, v);
                            continue;
                        }
                        _ => {
                            fits = false;
                            break;
                        }
                    };
                    self.cols.words[i * n + j] = w;
                }
            }
            if fits {
                continue;
            }
            alive[j] = false;
            live -= 1;
            if let Err(e) = check_args(proc, args) {
                done[j] = Some(Err(e));
                masked += 1;
            } else {
                self.stats.type_exits += 1;
                let args = args.to_vec();
                let cache = inputs.scalar_cache(j, &mut self.lane_cache);
                done[j] = Some(self.scalar.run(prog, entry, &args, cache, opts));
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
        // `$lane` (lane `$j`); a lane that left keeps its result.
        macro_rules! finish {
            (|$j:ident| $lane:expr) => {{
                self.stats.masked_lanes += masked;
                let mut out = Vec::with_capacity(n);
                for $j in 0..n {
                    out.push(match done[$j].take() {
                        Some(r) => r,
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
                return self.leave(prog, &mut inputs, done, &mut traces, at, opts);
            }};
        }
        if live == 0 {
            leave!(pc);
        }

        // Masks lane `$j` out with the exact scalar error.
        macro_rules! kill {
            ($j:expr, $e:expr) => {{
                alive[$j] = false;
                done[$j] = Some(Err($e));
                live -= 1;
                masked += 1;
            }};
        }
        // A lane-uniform failure: every live lane gets the same error
        // its own scalar run would produce, a lane that left keeps its
        // result, and the batch is done. Expanded in place: calling an
        // out-of-line function here, at every metered instruction's fuel
        // check, made shared-cache sweeps about 5% slower.
        macro_rules! all_fail {
            ($e:expr) => {{
                self.stats.masked_lanes += masked + live as u64;
                let e = $e;
                return done
                    .into_iter()
                    .map(|r| r.unwrap_or_else(|| Err(e.clone())))
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
        // Lane sweep for bodies that must skip lanes no longer live (a
        // per-lane fault test, an arena access, an effect), with the
        // fully-live check hoisted. A `kill!` inside the body only affects
        // *later* instructions — lanes are independent within one sweep,
        // and each is visited once — so the unmasked variant stays sound
        // even when a lane faults partway through it.
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
        // Sweeps every lane — a word of a lane no longer live is never
        // read again, so computing on it is harmless — with the bounds
        // proved once up front: lane `j` of register `$d` becomes `$e`,
        // where `$x` (`$y`, `$z`) is lane `j` of the first (second, third)
        // source register.
        macro_rules! map1 {
            ($s:expr, $d:expr, |$x:ident| $e:expr) => {{
                let (si, di) = ($s * n, $d * n);
                let w = &mut self.cols.words[..];
                assert!(si + n <= w.len() && di + n <= w.len());
                for j in 0..n {
                    let $x = w[si + j];
                    w[di + j] = $e;
                }
            }};
        }
        macro_rules! map2 {
            ($a:expr, $b:expr, $d:expr, |$x:ident, $y:ident| $e:expr) => {{
                let (ai, bi, di) = ($a * n, $b * n, $d * n);
                let w = &mut self.cols.words[..];
                assert!(ai + n <= w.len() && bi + n <= w.len() && di + n <= w.len());
                for j in 0..n {
                    let $x = w[ai + j];
                    let $y = w[bi + j];
                    w[di + j] = $e;
                }
            }};
        }
        macro_rules! map3 {
            ($a:expr, $b:expr, $c:expr, $d:expr, |$x:ident, $y:ident, $z:ident| $e:expr) => {{
                let (ai, bi, ci, di) = ($a * n, $b * n, $c * n, $d * n);
                let w = &mut self.cols.words[..];
                let end = w.len();
                assert!(ai + n <= end && bi + n <= end && ci + n <= end && di + n <= end);
                for j in 0..n {
                    let $x = w[ai + j];
                    let $y = w[bi + j];
                    let $z = w[ci + j];
                    w[di + j] = $e;
                }
            }};
        }
        let f = f64::from_bits;
        // Unary operator across the batch (also a fused constituent): one
        // dispatch on the operator and the operand's tag, then a plain
        // loop over the words.
        macro_rules! exec_un {
            ($op:expr, $dst:expr, $src:expr, $span:expr) => {{
                let op = $op;
                cost += unop_cost(op);
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                let (s, d) = (base + $src as usize, base + $dst as usize);
                self.cols.ready(s);
                let tag = self.cols.tags[s];
                match (op, tag) {
                    (UnOp::Neg, Tag::Int) => map1!(s, d, |a| (a as i64).wrapping_neg() as u64),
                    (UnOp::Neg, Tag::Float) => map1!(s, d, |a| (-f(a)).to_bits()),
                    (UnOp::Not, Tag::Bool) => map1!(s, d, |a| a ^ 1),
                    _ => all_fail!(EvalError::TypeMismatch {
                        expected: tag.ty(),
                        span: $span,
                    }),
                }
                self.cols.tags[d] = tag;
            }};
        }
        // Binary operator across the batch (also a fused constituent).
        // The operator and the operand tags are batch invariants, so the
        // dispatch runs once per instruction and each arm is a tight loop
        // over the words — this is where the SoA layout pays, compared
        // with the scalar VM's per-lane dispatch.
        macro_rules! exec_bin {
            ($op:expr, $dst:expr, $lhs:expr, $rhs:expr, $span:expr) => {{
                let (op, span) = ($op, $span);
                cost += binop_cost(op);
                if let Some(p) = profile.as_mut() {
                    p.ops += 1;
                    *p.op_histogram.entry(op.mnemonic()).or_default() += 1;
                }
                let (l, r, d) = (
                    base + $lhs as usize,
                    base + $rhs as usize,
                    base + $dst as usize,
                );
                self.cols.ready(l);
                self.cols.ready(r);
                let lt = self.cols.tags[l];
                let out = match (lt, self.cols.tags[r]) {
                    (Tag::Float, Tag::Float) => match op {
                        // A commutative operator's vectorized loop may
                        // swap its operands, and with both NaN the swap
                        // changes which payload comes out. The scalar
                        // engines' `apply_binop_at` takes a block with a
                        // NaN operand lane by lane; without one, any NaN
                        // the loop makes is the same default NaN either
                        // way round.
                        BinOp::Add | BinOp::Mul if self.cols.has_nan(l) || self.cols.has_nan(r) => {
                            let (li, ri, di) = (l * n, r * n, d * n);
                            let w = &mut self.cols.words[..];
                            lanes!(|j| {
                                let (a, b) =
                                    (Value::Float(f(w[li + j])), Value::Float(f(w[ri + j])));
                                match apply_binop_at(op, a, b, span) {
                                    Ok(v) => w[di + j] = word(&v),
                                    Err(e) => kill!(j, e),
                                }
                            });
                            Tag::Float
                        }
                        BinOp::Add => {
                            map2!(l, r, d, |a, b| (f(a) + f(b)).to_bits());
                            Tag::Float
                        }
                        BinOp::Sub => {
                            map2!(l, r, d, |a, b| (f(a) - f(b)).to_bits());
                            Tag::Float
                        }
                        BinOp::Mul => {
                            map2!(l, r, d, |a, b| (f(a) * f(b)).to_bits());
                            Tag::Float
                        }
                        BinOp::Div => {
                            map2!(l, r, d, |a, b| (f(a) / f(b)).to_bits());
                            Tag::Float
                        }
                        BinOp::Lt => {
                            map2!(l, r, d, |a, b| u64::from(f(a) < f(b)));
                            Tag::Bool
                        }
                        BinOp::Le => {
                            map2!(l, r, d, |a, b| u64::from(f(a) <= f(b)));
                            Tag::Bool
                        }
                        BinOp::Gt => {
                            map2!(l, r, d, |a, b| u64::from(f(a) > f(b)));
                            Tag::Bool
                        }
                        BinOp::Ge => {
                            map2!(l, r, d, |a, b| u64::from(f(a) >= f(b)));
                            Tag::Bool
                        }
                        BinOp::Eq => {
                            map2!(l, r, d, |a, b| u64::from(f(a) == f(b)));
                            Tag::Bool
                        }
                        BinOp::Ne => {
                            map2!(l, r, d, |a, b| u64::from(f(a) != f(b)));
                            Tag::Bool
                        }
                        BinOp::Rem => all_fail!(EvalError::TypeMismatch {
                            expected: lt.ty(),
                            span,
                        }),
                    },
                    // Two's-complement wrapping on the raw words is the
                    // scalar VM's wrapping `i64` arithmetic bit for bit.
                    (Tag::Int, Tag::Int) => match op {
                        BinOp::Add => {
                            map2!(l, r, d, |a, b| a.wrapping_add(b));
                            Tag::Int
                        }
                        BinOp::Sub => {
                            map2!(l, r, d, |a, b| a.wrapping_sub(b));
                            Tag::Int
                        }
                        BinOp::Mul => {
                            map2!(l, r, d, |a, b| a.wrapping_mul(b));
                            Tag::Int
                        }
                        // Integer division faults on a zero divisor: the
                        // one per-lane test among the operators.
                        BinOp::Div | BinOp::Rem => {
                            let (li, ri, di) = (l * n, r * n, d * n);
                            let w = &mut self.cols.words[..];
                            assert!(li + n <= w.len() && ri + n <= w.len() && di + n <= w.len());
                            lanes!(|j| {
                                let (a, b) = (w[li + j] as i64, w[ri + j] as i64);
                                if b == 0 {
                                    kill!(j, EvalError::DivideByZero(span));
                                } else if op == BinOp::Div {
                                    w[di + j] = a.wrapping_div(b) as u64;
                                } else {
                                    w[di + j] = a.wrapping_rem(b) as u64;
                                }
                            });
                            if live == 0 {
                                leave!(pc);
                            }
                            Tag::Int
                        }
                        BinOp::Lt => {
                            map2!(l, r, d, |a, b| u64::from((a as i64) < (b as i64)));
                            Tag::Bool
                        }
                        BinOp::Le => {
                            map2!(l, r, d, |a, b| u64::from(a as i64 <= b as i64));
                            Tag::Bool
                        }
                        BinOp::Gt => {
                            map2!(l, r, d, |a, b| u64::from(a as i64 > b as i64));
                            Tag::Bool
                        }
                        BinOp::Ge => {
                            map2!(l, r, d, |a, b| u64::from(a as i64 >= b as i64));
                            Tag::Bool
                        }
                        BinOp::Eq => {
                            map2!(l, r, d, |a, b| u64::from(a == b));
                            Tag::Bool
                        }
                        BinOp::Ne => {
                            map2!(l, r, d, |a, b| u64::from(a != b));
                            Tag::Bool
                        }
                    },
                    (Tag::Bool, Tag::Bool) if op == BinOp::Eq => {
                        map2!(l, r, d, |a, b| u64::from(a == b));
                        Tag::Bool
                    }
                    (Tag::Bool, Tag::Bool) if op == BinOp::Ne => {
                        map2!(l, r, d, |a, b| u64::from(a != b));
                        Tag::Bool
                    }
                    _ => all_fail!(EvalError::TypeMismatch {
                        expected: lt.ty(),
                        span,
                    }),
                };
                self.cols.tags[d] = out;
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
                let (a, i, d) = (
                    base + $arr as usize,
                    base + $idx as usize,
                    base + $dst as usize,
                );
                self.cols.ready(i);
                let (Tag::Int, Tag::Array(elem, len)) = (self.cols.tags[i], self.cols.tags[a])
                else {
                    all_fail!(EvalError::TypeMismatch {
                        expected: Type::Int,
                        span,
                    });
                };
                let (ai, ii, di) = (a * n, i * n, d * n);
                let Columns { words, arena, .. } = &mut self.cols;
                lanes!(|j| {
                    let k = words[ii + j] as i64;
                    if k < 0 || k >= i64::from(len) {
                        kill!(
                            j,
                            EvalError::IndexOutOfBounds {
                                index: k,
                                len: len as usize,
                                span,
                            }
                        );
                    } else {
                        words[di + j] = arena[words[ai + j] as usize + k as usize];
                    }
                });
                self.cols.tags[d] = Tag::scalar(elem);
                if live == 0 {
                    leave!(pc);
                }
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
                    let v = &prog.consts[k as usize];
                    let Some(tag) = Tag::of(v) else {
                        leave!(pc - 1);
                    };
                    step1!();
                    self.cols.broadcast(base + dst as usize, tag, v, &alive);
                }
                Op::Move { dst, src } => {
                    step1!();
                    self.cols
                        .copy(base + src as usize, base + dst as usize, &alive);
                }
                Op::Un { op, dst, src } => {
                    step1!();
                    exec_un!(op, dst, src, proc.spans[pc - 1]);
                }
                Op::Bin { op, dst, lhs, rhs } => {
                    step1!();
                    exec_bin!(op, dst, lhs, rhs, proc.spans[pc - 1]);
                }
                Op::FillArray { dst, src, n: len } => {
                    let s = base + src as usize;
                    self.cols.ready(s);
                    // An array of arrays: no column holds one.
                    if let Tag::Array(..) = self.cols.tags[s] {
                        leave!(pc - 1);
                    }
                    self.cols.fill_array(s, base + dst as usize, len, &alive);
                }
                Op::LoadIndex { dst, arr, idx } => {
                    step1!();
                    exec_load!(dst, arr, idx, proc.spans[pc - 1]);
                }
                Op::StoreIndex { arr, idx, src } => {
                    let (a, i, s) = (
                        base + arr as usize,
                        base + idx as usize,
                        base + src as usize,
                    );
                    self.cols.ready(i);
                    self.cols.ready(s);
                    // Storing a value of another type than the elements'
                    // would make the array mixed, which no column holds.
                    if let Tag::Array(elem, _) = self.cols.tags[a] {
                        if self.cols.tags[s] != Tag::scalar(elem) {
                            leave!(pc - 1);
                        }
                    }
                    cost += INDEX_STORE_COST;
                    if let Some(p) = profile.as_mut() {
                        p.ops += 1;
                        *p.op_histogram.entry("idxstore").or_default() += 1;
                    }
                    let span = proc.spans[pc - 1];
                    let (Tag::Int, Tag::Array(_, len)) = (self.cols.tags[i], self.cols.tags[a])
                    else {
                        all_fail!(EvalError::TypeMismatch {
                            expected: Type::Int,
                            span,
                        });
                    };
                    let (ai, ii, si) = (a * n, i * n, s * n);
                    let Columns { words, arena, .. } = &mut self.cols;
                    lanes!(|j| {
                        let k = words[ii + j] as i64;
                        if k < 0 || k >= i64::from(len) {
                            kill!(
                                j,
                                EvalError::IndexOutOfBounds {
                                    index: k,
                                    len: len as usize,
                                    span,
                                }
                            );
                        } else {
                            arena[words[ai + j] as usize + k as usize] = words[si + j];
                        }
                    });
                    if live == 0 {
                        leave!(pc);
                    }
                }
                Op::Jump { target } => pc = target as usize,
                Op::JumpIfFalse { cond, target } => {
                    let c = base + cond as usize;
                    if self.cols.tags[c] != Tag::Bool {
                        all_fail!(EvalError::TypeMismatch {
                            expected: Type::Bool,
                            span: proc.spans[pc - 1],
                        });
                    }
                    let col = &self.cols.words[c * n..(c + 1) * n];
                    let first = alive.iter().position(|&on| on).unwrap_or(0);
                    let taken = col[first];
                    let divergent = if live == n {
                        col.iter().any(|&w| w != taken)
                    } else {
                        col.iter().zip(&alive).any(|(&w, &on)| on && w != taken)
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
                    if taken == 0 {
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
                    let regs: &[u32] = &proc.arg_pool[args_at as usize..(args_at + argc) as usize];
                    for &r in regs {
                        self.cols.ready(base + r as usize);
                    }
                    // The argument types are lane-uniform, so one check
                    // fails every live lane alike.
                    let tys = regs.iter().map(|&r| self.cols.tags[base + r as usize].ty());
                    let span = proc.spans[pc - 1];
                    if let Some(e) = builtin_arg_error(b, tys, span) {
                        all_fail!(e);
                    }
                    let a = |i: usize| base + regs[i] as usize;
                    let d = base + dst as usize;
                    // As for `Bin`: a sweep whose operands a vectorized
                    // loop may swap runs lane by lane when a lane is NaN.
                    let nan = matches!(
                        b,
                        Builtin::Min | Builtin::Max | Builtin::Clamp | Builtin::Lerp
                    ) && regs.iter().any(|&r| self.cols.has_nan(base + r as usize));
                    // The all-float builtins are plain column sweeps (the
                    // expressions mirror `try_builtin` exactly);
                    // everything else goes through the generic scratch
                    // buffer, one `try_builtin` per live lane.
                    macro_rules! fsweep1 {
                        (|$x:ident| $e:expr) => {
                            map1!(a(0), d, |x| {
                                let $x = f(x);
                                ($e).to_bits()
                            })
                        };
                    }
                    macro_rules! fsweep2 {
                        (|$x:ident, $y:ident| $e:expr) => {
                            map2!(a(0), a(1), d, |x, y| {
                                let ($x, $y) = (f(x), f(y));
                                ($e).to_bits()
                            })
                        };
                    }
                    macro_rules! fsweep3 {
                        (|$x:ident, $y:ident, $z:ident| $e:expr) => {
                            map3!(a(0), a(1), a(2), d, |x, y, z| {
                                let ($x, $y, $z) = (f(x), f(y), f(z));
                                ($e).to_bits()
                            })
                        };
                    }
                    match b {
                        Builtin::Trace => {
                            let (si, di) = (a(0) * n, d * n);
                            let w = &mut self.cols.words[..];
                            lanes!(|j| {
                                traces[j].push(f(w[si + j]));
                                w[di + j] = w[si + j];
                            });
                        }
                        Builtin::Sin => fsweep1!(|x| x.sin()),
                        Builtin::Cos => fsweep1!(|x| x.cos()),
                        Builtin::Tan => fsweep1!(|x| x.tan()),
                        Builtin::Sqrt => fsweep1!(|x| x.sqrt()),
                        Builtin::Exp => fsweep1!(|x| x.exp()),
                        Builtin::Log => fsweep1!(|x| x.ln()),
                        Builtin::Floor => fsweep1!(|x| x.floor()),
                        Builtin::Abs => fsweep1!(|x| x.abs()),
                        Builtin::Pow => fsweep2!(|x, y| x.powf(y)),
                        Builtin::Min if !nan => fsweep2!(|x, y| x.min(y)),
                        Builtin::Max if !nan => fsweep2!(|x, y| x.max(y)),
                        Builtin::Fmod => fsweep2!(|x, y| x % y),
                        Builtin::Step => fsweep2!(|x, y| if y < x { 0.0f64 } else { 1.0 }),
                        Builtin::Clamp if !nan => fsweep3!(|x, lo, hi| {
                            let (lo, hi) = (lo.min(hi), hi.max(lo));
                            if lo.is_nan() {
                                x
                            } else {
                                x.clamp(lo, hi)
                            }
                        }),
                        Builtin::Lerp if !nan => fsweep3!(|x, y, t| x + (y - x) * t),
                        _ => lanes!(|j| {
                            self.argbuf.clear();
                            for &r in regs {
                                self.argbuf.push(self.cols.value(base + r as usize, j));
                            }
                            match try_builtin(b, &self.argbuf, span) {
                                Ok(v) => self.cols.words[d * n + j] = word(&v),
                                Err(e) => kill!(j, e),
                            }
                        }),
                    }
                    self.cols.tags[d] = if b.ret_type() == Type::Int {
                        Tag::Int
                    } else {
                        Tag::Float
                    };
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
                    // Arity and argument types are properties of the call
                    // site and the columns, not the lane: every lane fails
                    // identically.
                    if arg_regs.len() != callee_proc.params.len() {
                        all_fail!(EvalError::BadArguments {
                            proc: callee_proc.name.clone(),
                            detail: format!(
                                "expected {} argument(s), got {}",
                                callee_proc.params.len(),
                                arg_regs.len()
                            ),
                        });
                    }
                    for (&r, (pname, pty)) in arg_regs.iter().zip(&callee_proc.params) {
                        let ty = self.cols.tags[base + r as usize].ty();
                        if ty != *pty {
                            all_fail!(EvalError::BadArguments {
                                proc: callee_proc.name.clone(),
                                detail: format!("parameter `{pname}` expects `{pty}`, got `{ty}`"),
                            });
                        }
                    }
                    let new_base = base + proc.nregs as usize;
                    self.cols.grow(new_base + callee_proc.nregs as usize);
                    for (i, &r) in arg_regs.iter().enumerate() {
                        self.cols.copy(base + r as usize, new_base + i, &alive);
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
                    let s = base + src as usize;
                    match frames.pop() {
                        None => {
                            // Control is uniform in lockstep, so every
                            // surviving lane completes here together.
                            if let Some(p) = profile.as_mut() {
                                p.steps = opts.step_limit - fuel;
                                p.cost = cost;
                            }
                            finish!(|j| Ok(Outcome {
                                value: Some(self.cols.value(s, j)),
                                cost,
                                trace: std::mem::take(&mut traces[j]),
                                profile: profile.clone().map(Box::new),
                            }));
                        }
                        Some(fr) => {
                            self.cols
                                .copy(s, fr.base as usize + fr.dst as usize, &alive);
                            proc_idx = fr.proc_idx as usize;
                            proc = &prog.procs[proc_idx];
                            base = fr.base as usize;
                            pc = fr.pc as usize;
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
                    Some(fr) => {
                        // A void result in expression position: the
                        // evaluator's TypeMismatch at the call site,
                        // identically in every lane.
                        let caller = &prog.procs[fr.proc_idx as usize];
                        all_fail!(EvalError::TypeMismatch {
                            expected: Type::Void,
                            span: caller.spans[fr.pc as usize - 1],
                        });
                    }
                },
                Op::CacheRead { dst, slot, elem } => {
                    let span = proc.spans[pc - 1];
                    let slot = slot as usize;
                    let d = base + dst as usize;
                    match &inputs {
                        // The cache is shared and read-only on this path,
                        // so one lookup serves — and one failure fails —
                        // every lane identically.
                        Inputs::Shared(_, cache) => {
                            let read = match cache.as_deref() {
                                None => Err(EvalError::NoCache(span)),
                                Some(cb) => {
                                    cb.peek(slot).ok_or(EvalError::UnfilledSlot { slot, span })
                                }
                            };
                            // A value no column holds is read on the
                            // scalar VM, before the read is charged; the
                            // tag of a failed read is never used.
                            let tag = match &read {
                                Ok(v) => match Tag::of(v) {
                                    Some(tag) => tag,
                                    None => leave!(pc - 1),
                                },
                                Err(_) => Tag::Zero,
                            };
                            step1!();
                            cost += CACHE_READ_COST;
                            if let Some(p) = profile.as_mut() {
                                p.cache_reads += 1;
                            }
                            match read {
                                Ok(v) => self.cols.broadcast(d, tag, v, &alive),
                                Err(e) => all_fail!(e),
                            }
                        }
                        // Lane `j` gathers from its own cache; a lane whose
                        // slot is unfilled is masked, and one whose slot
                        // holds another type than the column's — the
                        // slot's declared type, or else the first live
                        // lane's — finishes alone on the scalar VM from
                        // here. The rest go on.
                        Inputs::Own(lanes) => {
                            step1!();
                            cost += CACHE_READ_COST;
                            if let Some(p) = profile.as_mut() {
                                p.cache_reads += 1;
                            }
                            let mut want = elem.map(Tag::scalar);
                            // Lanes leaving on a type disagreement, with
                            // the value each read.
                            let mut exits: Vec<(usize, Value)> = Vec::new();
                            let di = d * n;
                            let w = &mut self.cols.words[..];
                            assert!(di + n <= w.len());
                            lanes!(|j| match lanes.cache(j).peek(slot) {
                                None => kill!(j, EvalError::UnfilledSlot { slot, span }),
                                Some(v) => match Tag::of(v) {
                                    Some(tag)
                                        if !matches!(tag, Tag::Array(..))
                                            && *want.get_or_insert(tag) == tag =>
                                    {
                                        w[di + j] = word(v)
                                    }
                                    _ => exits.push((j, v.clone())),
                                },
                            });
                            if let Some(tag) = want {
                                self.cols.tags[d] = tag;
                            }
                            for (j, v) in exits {
                                self.stats.type_exits += 1;
                                alive[j] = false;
                                live -= 1;
                                let at = Resume {
                                    proc_idx,
                                    pc,
                                    base,
                                    frames: &frames,
                                    fuel,
                                    cost,
                                    trace: std::mem::take(&mut traces[j]),
                                    profile: profile.clone(),
                                };
                                done[j] = Some(self.resume_lane(
                                    prog,
                                    &mut inputs,
                                    j,
                                    at,
                                    Some((d, v)),
                                    opts,
                                ));
                            }
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
                    let s = base + src as usize;
                    lanes!(|j| {
                        let v = self.cols.value(s, j);
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
                    // With no lane live, `leave` resumes nobody, so the
                    // constituents' exits need not point `pc` past the
                    // first one.
                    for (part, span) in [first, second].into_iter().zip(spans) {
                        step1!();
                        match part {
                            Op::Un { op, dst, src } => exec_un!(op, dst, src, span),
                            Op::Bin { op, dst, lhs, rhs } => exec_bin!(op, dst, lhs, rhs, span),
                            Op::LoadIndex { dst, arr, idx } => exec_load!(dst, arr, idx, span),
                            other => unreachable!("non-fusible constituent {other:?}"),
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
    /// [`Profile`] counters and typed errors — with
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

    #[test]
    fn ill_typed_builtin_arguments_fail_every_lane_like_scalar() {
        let prog = parse_program("float f(float x) { return sqrt(true) + x; }").unwrap();
        let cp = compile(&prog);
        let sweep: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Float(i as f64)]).collect();
        let batch = cp.run_batch_soa("f", &sweep, None, popts());
        let mut vm = Vm::new();
        for (j, args) in sweep.iter().enumerate() {
            assert_eq!(batch[j], vm.run(&cp, "f", args, None, popts()), "lane {j}");
        }
        assert!(matches!(
            batch[0],
            Err(EvalError::TypeMismatch {
                expected: Type::Float,
                ..
            })
        ));
    }

    #[test]
    fn a_lane_whose_slot_holds_another_type_leaves_lockstep_alone() {
        let cp = with_slot_reads(
            "float r(float x) { float y = x * 100.0; if (x > 0.0) { return y + x; } return y; }",
        );
        // Lane 2's slot holds an `Int` where the others hold `Float`s: its
        // scalar run fails at the multiply, and the others stay in
        // lockstep through the branch.
        let lanes: Vec<(Vec<Value>, CacheBuf)> = (0..6)
            .map(|i| {
                let mut c = CacheBuf::new(2);
                c.set(
                    0,
                    if i == 2 {
                        Value::Int(3)
                    } else {
                        Value::Float(i as f64 * 0.5)
                    },
                );
                (vec![Value::Float(1.0 + i as f64)], c)
            })
            .collect();
        assert_own_lanes_match(&cp, "r", &lanes);
        let refs: Vec<(&[Value], &CacheBuf)> =
            lanes.iter().map(|(a, c)| (a.as_slice(), c)).collect();
        let mut bvm = BatchVm::new();
        let outs = bvm.run_lanes(&cp, "r", &refs, popts());
        assert!(matches!(outs[2], Err(EvalError::TypeMismatch { .. })));
        let stats = bvm.stats();
        assert_eq!(stats.type_exits, 1, "{stats:?}");
        assert_eq!(
            (
                stats.divergent_blocks,
                stats.resumed_lanes,
                stats.masked_lanes
            ),
            (0, 0, 0),
            "the other lanes stayed in lockstep"
        );
        // Whichever lane holds the odd value, even the first, only it
        // leaves.
        let mut first = lanes.clone();
        first[0].1.set(0, Value::Bool(true));
        first[2].1.set(0, Value::Float(1.0));
        assert_own_lanes_match(&cp, "r", &first);
        let refs: Vec<(&[Value], &CacheBuf)> =
            first.iter().map(|(a, c)| (a.as_slice(), c)).collect();
        let mut bvm = BatchVm::new();
        bvm.run_lanes(&cp, "r", &refs, popts());
        assert_eq!(bvm.stats().type_exits, 1);
    }

    #[test]
    fn array_copies_keep_value_semantics_in_lockstep() {
        let src = "float f(float x, int i) {
                       float v[3] = x;
                       float w[3] = 0.0;
                       w = v;
                       v[i] = 9.0;
                       float u[3] = 1.0;
                       u = w;
                       w[0] = -1.0;
                       return v[0] + w[i] * 10.0 + u[0] * 100.0;
                   }";
        let sweep: Vec<Vec<Value>> = (0..9)
            .map(|k| vec![Value::Float(k as f64 + 0.5), Value::Int(k % 4)])
            .collect();
        assert_lanes_match(src, "f", &sweep);
    }
}
